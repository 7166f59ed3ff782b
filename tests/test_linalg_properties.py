"""Property tests for the RatMat entry contract.

Every operation must agree with a dense Fraction reference, and every stored
entry must be a nonzero int or a Fraction whose denominator is not 1: never
a float, never a Fraction equal to an integer.  The exact comparison that
decides every matrix check (`RatMat.gap`, `_cleared_gap`) must give the
Fraction reference's largest entry of the difference.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hecke_kit.linalg import RatMat, _cleared_gap, kernel_basis

F = Fraction

# ints, integral Fractions such as Fraction(4, 2), and true fractions; zeros
# are drawn often so the matrices are sparse
ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-4, 4),
    st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
)
DIM = st.integers(0, 4)
# entries with several unrelated denominators, for the exact comparison
WIDE = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9])),
)


@st.composite
def dense(draw, nrows=None, ncols=None, entry=ENTRY):
    """(nrows, ncols, rows) with rows a list of lists of mixed entries."""
    nrows = draw(DIM) if nrows is None else nrows
    ncols = draw(DIM) if ncols is None else ncols
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    return nrows, ncols, rows


def build(d):
    nrows, ncols, rows = d
    return RatMat.from_rows(rows, nrows, ncols)


def assert_entry(v):
    assert (v.__class__ is int and v != 0) or (
        v.__class__ is Fraction and v.denominator != 1), repr(v)


def assert_contract(m):
    for col in m.cols:
        for v in col.values():
            assert_entry(v)


def as_fractions(m):
    return [[F(v) for v in row] for row in m.to_rows()]


def ref(d):
    return [[F(v) for v in row] for row in d[2]]


def ref_matmul(a, b, n, k, m):
    return [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(m)]
            for i in range(n)]


def ref_rref(rows, ncols):
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    rows = [row[:] for row in rows]
    piv_cols, rank = [], 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        piv_cols.append(c)
        rank += 1
    return rows, piv_cols


def ref_inverse(a, n):
    aug = [a[i] + [F(int(i == j)) for j in range(n)] for i in range(n)]
    red, piv_cols = ref_rref(aug, 2 * n)
    if piv_cols[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


@settings(max_examples=150, deadline=None)
@given(dense())
def test_from_rows_normalises(d):
    m = build(d)
    assert_contract(m)
    assert as_fractions(m) == ref(d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul(data):
    n, k, m = data.draw(DIM), data.draw(DIM), data.draw(DIM)
    da, db = data.draw(dense(n, k)), data.draw(dense(k, m))
    out = build(da) @ build(db)
    assert_contract(out)
    assert as_fractions(out) == ref_matmul(ref(da), ref(db), n, k, m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_add_sub_neg(data):
    da = data.draw(dense())
    db = data.draw(dense(da[0], da[1]))
    a, b = build(da), build(db)
    ra, rb = ref(da), ref(db)
    for out, want in ((a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)]),
                      (a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)]),
                      (-a, [[-x for x in p] for p in ra])):
        assert_contract(out)
        assert as_fractions(out) == want
    # both operands stay as they were
    assert as_fractions(a) == ra and as_fractions(b) == rb


@settings(max_examples=150, deadline=None)
@given(dense(), ENTRY)
def test_scale(d, c):
    out = build(d).scale(c)
    assert_contract(out)
    assert as_fractions(out) == [[F(c) * v for v in row] for row in ref(d)]


@settings(max_examples=150, deadline=None)
@given(dense())
def test_cleared(d):
    m = build(d)
    N, den = m.cleared()
    assert den == lcm(1, *(v.denominator for row in ref(d) for v in row))
    assert all(v.__class__ is int for col in N.cols for v in col.values())
    assert N == m.scale(den)
    assert (N is m) == (den == 1)


@settings(max_examples=100, deadline=None)
@given(dense(), dense())
def test_kron(da, db):
    out = RatMat.kron(build(da), build(db))
    assert_contract(out)
    ra, rb = ref(da), ref(db)
    want = [[ra[ia][ja] * rb[ib][jb] for ja in range(da[1]) for jb in range(db[1])]
            for ia in range(da[0]) for ib in range(db[0])]
    assert as_fractions(out) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: dense(n, n)))
def test_inverse(d):
    n = d[0]
    want = ref_inverse(ref(d), n)
    m = build(d)
    if want is None:
        with pytest.raises(ValueError):
            m.inverse()
        assert not m.is_invertible()
        return
    inv = m.inverse()
    assert_contract(inv)
    assert as_fractions(inv) == want
    assert m.is_invertible()


@settings(max_examples=200, deadline=None)
@given(dense())
def test_kernel_basis(d):
    nrows, ncols, _ = d
    m = build(d)
    rows = [{c: m.entry(r, c) for c in range(ncols) if m.entry(r, c)}
            for r in range(nrows)]
    basis = kernel_basis(rows, ncols)
    _, piv_cols = ref_rref(ref(d), ncols)
    assert len(basis) == ncols - len(piv_cols)
    # each vector starts at its own free column, where it is 1, and is 0 at
    # the other free columns; this pins the basis down once it lies in the
    # kernel
    free = [next(iter(v)) for v in basis]
    assert free == sorted(set(free))
    for f, v in zip(free, basis):
        assert [v.get(g, 0) for g in free] == [int(g == f) for g in free]
        for x in v.values():
            assert_entry(x)
        assert all(sum((F(a) * F(v.get(c, 0)) for c, a in enumerate(row)), F(0)) == 0
                   for row in ref(d))


def ref_gap(ra, rb):
    """max |A - B| over Fractions, entry by entry; 0 for an empty shape."""
    return max((abs(x - y) for p, q in zip(ra, rb) for x, y in zip(p, q)), default=F(0))


def assert_residual(v):
    assert (v.__class__ is int and v >= 0) or (
        v.__class__ is Fraction and v > 0 and v.denominator != 1), repr(v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gap_matches_fraction_reference(data):
    da = data.draw(dense(entry=WIDE))
    db = data.draw(dense(da[0], da[1], entry=WIDE))
    a, b = build(da), build(db)
    want = ref_gap(ref(da), ref(db))
    assert a.gap(b) == b.gap(a) == want
    assert_residual(a.gap(b))
    assert a.gap(a) == 0
    zero = RatMat.zeros(da[0], da[1])
    assert a.gap(zero) == ref_gap(ref(da), [[F(0)] * da[1]] * da[0])
    assert zero.gap(zero) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gap_finds_one_planted_entry(data):
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a = build(data.draw(dense(nrows, ncols, entry=WIDE)))
    r, c = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, ncols - 1))
    delta = data.draw(WIDE.filter(bool))
    b = a.copy()
    b.set_entry(r, c, a.entry(r, c) + delta)
    assert a.gap(b) == b.gap(a) == abs(delta)


@st.composite
def combination(draw, nrows, ncols, min_terms):
    """(c, P) pairs with nonzero integer c and integral P, and their Fraction sum."""
    terms = []
    total = [[F(0)] * ncols for _ in range(nrows)]
    for _ in range(draw(st.integers(min_terms, 3))):
        c = draw(st.integers(-5, 5).filter(bool))
        d = draw(dense(nrows, ncols, entry=st.integers(-9, 9)))
        terms.append((c, build(d)))
        total = [[t + c * v for t, v in zip(trow, row)] for trow, row in zip(total, ref(d))]
    return terms, total


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cleared_gap_of_combinations(data):
    nrows, ncols = data.draw(DIM), data.draw(DIM)
    left, lsum = data.draw(combination(nrows, ncols, 1))
    right, rsum = data.draw(combination(nrows, ncols, 0))
    denom = data.draw(st.integers(1, 12))
    got = _cleared_gap(left, right, denom)
    assert got == ref_gap(lsum, rsum) / denom
    assert_residual(got)
