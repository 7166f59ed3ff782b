"""Property tests for the RatMat entry contract.

Every operation must agree with a dense Fraction reference, and every stored
entry must be a nonzero int or a Fraction whose denominator is not 1: never
a float, never a Fraction equal to an integer.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hecke_kit.linalg import RatMat, kernel_basis

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


@st.composite
def dense(draw, nrows=None, ncols=None):
    """(nrows, ncols, rows) with rows a list of lists of mixed entries."""
    nrows = draw(DIM) if nrows is None else nrows
    ncols = draw(DIM) if ncols is None else ncols
    rows = [[draw(ENTRY) for _ in range(ncols)] for _ in range(nrows)]
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
