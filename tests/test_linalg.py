import random
from fractions import Fraction

import pytest

from hecke_kit import linalg
from hecke_kit.linalg import RatMat, intertwiner_rows, kernel_basis

F = Fraction


def rand_mat(rng, nrows, ncols, density=0.6, span=5):
    m = RatMat.zeros(nrows, ncols)
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                num = rng.randint(-span, span)
                den = rng.choice([1, 1, 1, 2, 3])
                m.set_entry(r, c, F(num, den))
    return m


def dense_matmul(a, b):
    ar, br = a.to_rows(), b.to_rows()
    out = [[sum(ar[i][k] * br[k][j] for k in range(a.ncols)) for j in range(b.ncols)]
           for i in range(a.nrows)]
    return RatMat.from_rows(out, a.nrows, b.ncols)


def test_constructors_and_entries():
    m = RatMat.from_rows([[1, 0], ["1/2", -3]])
    assert m.entry(0, 0) == 1
    assert m.entry(1, 0) == F(1, 2)
    assert m.entry(0, 1) == 0
    assert m.nnz() == 3
    assert RatMat.identity(3).is_identity()
    assert RatMat.zeros(2, 5).is_zero()
    with pytest.raises(ValueError):
        RatMat.from_rows([[1, 2], [3]])


def test_set_entry_drops_zeros():
    m = RatMat.zeros(2, 2)
    m.set_entry(0, 1, F(5))
    m.set_entry(0, 1, 0)
    assert m.nnz() == 0 and m.is_zero()


def test_matmul_matches_dense_reference():
    rng = random.Random(20)
    for _ in range(40):
        a = rand_mat(rng, rng.randint(1, 6), rng.randint(1, 6))
        b = rand_mat(rng, a.ncols, rng.randint(1, 6))
        assert a @ b == dense_matmul(a, b)


def test_ring_identities():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 5)
        a, b, c = (rand_mat(rng, n, n) for _ in range(3))
        assert (a + b) @ c == a @ c + b @ c
        assert (a @ b) @ c == a @ (b @ c)
        assert a - a == RatMat.zeros(n, n)
        assert a @ RatMat.identity(n) == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
        assert a.scale(F(3, 2)) + a.scale(F(-3, 2)) == RatMat.zeros(n, n)


def test_matvec_agrees_with_matmul():
    rng = random.Random(22)
    for _ in range(20):
        a = rand_mat(rng, rng.randint(1, 6), rng.randint(1, 6))
        vec = {r: F(rng.randint(-4, 4)) for r in range(a.ncols) if rng.random() < 0.7}
        vec = {r: v for r, v in vec.items() if v}
        col = RatMat(a.ncols, 1, [dict(vec)])
        assert a.matvec(vec) == (a @ col).cols[0]


def test_kron_convention_and_mixed_product():
    a = RatMat.from_rows([[1, 2], [3, 4]])
    b = RatMat.from_rows([[0, 5], [6, 7]])
    k = RatMat.kron(a, b)
    # entry ((ia, ib), (ja, jb)) = a[ia, ja] * b[ib, jb] with row ia*2+ib
    for ia in range(2):
        for ib in range(2):
            for ja in range(2):
                for jb in range(2):
                    assert k.entry(ia * 2 + ib, ja * 2 + jb) == a.entry(ia, ja) * b.entry(ib, jb)
    rng = random.Random(23)
    for _ in range(10):
        a1 = rand_mat(rng, 2, 3)
        a2 = rand_mat(rng, 3, 2)
        b1 = rand_mat(rng, 3, 2)
        b2 = rand_mat(rng, 2, 3)
        lhs = RatMat.kron(a1, b1) @ RatMat.kron(a2, b2)
        assert lhs == RatMat.kron(a1 @ a2, b1 @ b2)


def test_block_diag():
    a = RatMat.from_rows([[1, 2]])
    b = RatMat.from_rows([[3], [4]])
    m = RatMat.block_diag([a, b])
    assert (m.nrows, m.ncols) == (3, 3)
    assert m.to_rows() == RatMat.from_rows([[1, 2, 0], [0, 0, 3], [0, 0, 4]]).to_rows()
    assert RatMat.block_diag([]) == RatMat.zeros(0, 0)


def dense_det(m):
    n = m.nrows
    rows = [[F(v) for v in row] for row in m.to_rows()]
    det = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            if f:
                for j in range(c, n):
                    rows[r][j] -= f * rows[c][j]
    return det


def test_invertibility_certificate_matches_exact_determinant():
    rng = random.Random(24)
    seen_singular = seen_invertible = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rand_mat(rng, n, n, density=rng.choice([0.3, 0.6, 1.0]))
        if rng.random() < 0.3 and n >= 2:
            # force a dependent row to exercise the singular path
            src, dst = rng.sample(range(n), 2)
            rows = m.to_rows()
            rows[dst] = [2 * v for v in rows[src]]
            m = RatMat.from_rows(rows)
        exact = dense_det(m)
        assert m.is_invertible() == (exact != 0)
        if exact:
            seen_invertible += 1
        else:
            seen_singular += 1
    assert seen_singular >= 5 and seen_invertible >= 5


def test_invertible_when_determinant_divides_by_probe_primes():
    # a zero mod the first probe prime (or the first two) is not exact
    p1, p2 = 2147483647, 2147483629
    for det in (p1, p1 * p2):
        m = RatMat.from_rows([[det]])
        assert m.is_invertible()
        assert (m @ m.inverse()).is_identity()
    assert RatMat.from_rows([[p1, 0], [0, p2]]).is_invertible()


def test_singular_by_zero_line_without_further_primes(monkeypatch):
    calls = []
    det_mod = RatMat.det_mod
    monkeypatch.setattr(RatMat, "det_mod", lambda self, p: calls.append(p) or det_mod(self, p))
    for rows in ([[1, 0], [2, 0]], [[1, 2], [0, 0]], [[0]]):
        calls.clear()
        assert not RatMat.from_rows(rows).is_invertible()
        assert len(calls) == 1
    # singular without a zero line: every probe prime must give zero
    calls.clear()
    assert not RatMat.from_rows([[1, 2], [2, 4]]).is_invertible()
    assert len(calls) == len(linalg._PRIMES)


def test_inverse_round_trip():
    rng = random.Random(25)
    done = 0
    while done < 25:
        n = rng.randint(1, 6)
        m = rand_mat(rng, n, n)
        if not m.is_invertible():
            continue
        inv = m.inverse()
        assert (m @ inv).is_identity()
        assert (inv @ m).is_identity()
        done += 1
    with pytest.raises(ValueError):
        RatMat.from_rows([[1, 2], [2, 4]]).inverse()


def test_kernel_basis_known_system():
    # x + y + z = 0, y - z = 0  =>  kernel spanned by (-2, 1, 1)
    rows = [{0: F(1), 1: F(1), 2: F(1)}, {1: F(1), 2: F(-1)}]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    # normalized to 1 at the free column
    assert v == {2: F(1), 1: F(1), 0: F(-2)}


def test_kernel_basis_random_rank_nullity():
    rng = random.Random(26)
    for _ in range(30):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        m = rand_mat(rng, nrows, ncols, density=0.5)
        rows = []
        mt = m.transpose()
        for r in range(nrows):
            rows.append({c: mt.cols[r][c] for c in mt.cols[r]})
        basis = kernel_basis(rows, ncols)
        for vec in basis:
            assert m.matvec(vec) == {}
        # rank-nullity against a dense rank computation
        dense = [[F(v) for v in row] for row in m.to_rows()]
        rank = 0
        for c in range(ncols):
            piv = next((r for r in range(rank, nrows) if dense[r][c]), None)
            if piv is None:
                continue
            dense[rank], dense[piv] = dense[piv], dense[rank]
            inv = 1 / dense[rank][c]
            for r in range(nrows):
                if r != rank and dense[r][c]:
                    f = dense[r][c] * inv
                    for j in range(ncols):
                        dense[r][j] -= f * dense[rank][j]
            rank += 1
        assert len(basis) == ncols - rank


def test_kernel_vectors_are_independent():
    rng = random.Random(27)
    for _ in range(15):
        m = rand_mat(rng, 3, 6, density=0.5)
        rows = []
        for r in range(3):
            row = {c: m.entry(r, c) for c in range(6) if m.entry(r, c)}
            if row:
                rows.append(row)
        basis = kernel_basis(rows, 6)
        # each vector is 1 at its own free column and 0 at the others
        frees = []
        for vec in basis:
            mine = [c for c in vec if all(c not in other for other in basis if other is not vec)]
            assert mine, "vector must own a coordinate"
            frees.append(min(mine))
        assert len(set(frees)) == len(basis)


def _kernel_basis_min_scan(rows, ncols):
    """Reference: the kernel solver that rescans every unprocessed row for the
    pivot at each step (min over (len(row), index)), on Fraction entries."""
    work = [{j: F(v) for j, v in r.items()} for r in rows if r]
    col_index = {}
    for idx, row in enumerate(work):
        for j in row:
            col_index.setdefault(j, set()).add(idx)
    unprocessed = set(range(len(work)))
    pivots = {}
    while True:
        cand = [r for r in unprocessed if work[r]]
        if not cand:
            break
        r = min(cand, key=lambda i: (len(work[i]), i))
        unprocessed.discard(r)
        row = work[r]
        c = min(j for j in row if j not in pivots)
        pv = row[c]
        if pv != 1:
            for j in list(row):
                row[j] /= pv
        pivots[c] = r
        for r2 in list(col_index.get(c, ())):
            if r2 == r:
                continue
            row2 = work[r2]
            f = row2.get(c)
            if not f:
                continue
            for j, v in row.items():
                w = row2.get(j, F(0)) - f * v
                if w:
                    if j not in row2:
                        col_index.setdefault(j, set()).add(r2)
                    row2[j] = w
                else:
                    row2.pop(j, None)
                    col_index[j].discard(r2)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = {f: F(1)}
        for c, r in pivots.items():
            v = work[r].get(f)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


def _random_sparse_system(rng, nrows, ncols):
    """Sparse rows with int and Fraction entries; some rows are combinations
    of earlier ones, so elimination fills in, shrinks and empties rows."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.choice([-2, -1, 1, F(1, 2)])
            row = dict(a)
            for j, v in b.items():
                row[j] = row.get(j, 0) + k * v
        else:
            row = {c: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 1, 2, 3]))
                   for c in rng.sample(range(ncols), rng.randint(0, min(ncols, 5)))}
        rows.append({j: linalg._q(v) for j, v in row.items() if v})
    return rows


def test_kernel_basis_matches_min_scan_reference():
    # the pivot heap must choose the same pivots in the same order as the
    # full rescan, so vectors, values and key order all agree
    rng = random.Random(29)
    for _ in range(80):
        ncols = rng.randint(1, 24)
        rows = _random_sparse_system(rng, rng.randint(0, 30), ncols)
        got = kernel_basis(rows, ncols)
        want = _kernel_basis_min_scan(rows, ncols)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
        assert all(x.__class__ is int or x.denominator != 1 for v in got for x in v.values())


def test_det_mod_matches_exact_determinant_on_sparse_integral_matrices():
    rng = random.Random(30)
    p = linalg._PRIMES[0]
    for _ in range(40):
        n = rng.randint(1, 12)
        rows = _random_sparse_system(rng, n, n)
        m = RatMat.zeros(n, n)
        for r, row in enumerate(rows):
            for c, v in row.items():
                m.set_entry(r, c, v.numerator if isinstance(v, F) else v)
        assert m.det_mod(p) == dense_det(m) % p


def test_intertwiner_rows_reproduce_commutant():
    # two 1-generator "representations": the commutant of similar matrices
    # has dimension >= 1 and every solution intertwines exactly.
    A = RatMat.from_rows([[0, 1], [1, 0]])
    B = RatMat.from_rows([[1, 0], [0, -1]])  # similar to A via H
    rows = intertwiner_rows([A], [B], 2, 2)
    basis = kernel_basis(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        X = RatMat.zeros(2, 2)
        for idx, v in vec.items():
            X.set_entry(idx // 2, idx % 2, v)
        assert X @ A == B @ X


def test_intertwiner_rows_random_check():
    rng = random.Random(28)
    for _ in range(12):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        acts1 = [rand_mat(rng, d1, d1) for _ in range(2)]
        acts2 = [rand_mat(rng, d2, d2) for _ in range(2)]
        rows = intertwiner_rows(acts1, acts2, d1, d2)
        basis = kernel_basis(rows, d1 * d2)
        for vec in basis:
            X = RatMat.zeros(d2, d1)
            for idx, v in vec.items():
                X.set_entry(idx // d1, idx % d1, v)
            for A, Bm in zip(acts1, acts2):
                assert X @ A == Bm @ X
        # brute-force dimension over all dense solutions for tiny sizes
        if d1 * d2 <= 4:
            dense_rows = []
            for A, Bm in zip(acts1, acts2):
                for r in range(d2):
                    for c in range(d1):
                        row = {}
                        for k in range(d1):
                            row[r * d1 + k] = row.get(r * d1 + k, F(0)) + A.entry(k, c)
                        for k in range(d2):
                            row[k * d1 + c] = row.get(k * d1 + c, F(0)) - Bm.entry(r, k)
                        row = {k: v for k, v in row.items() if v}
                        if row:
                            dense_rows.append(row)
            assert len(kernel_basis(dense_rows, d1 * d2)) == len(basis)


def test_gap_residual():
    a = RatMat.from_rows([[F(1, 3), -2], [0, F(5, 2)]])
    assert a.gap(RatMat.zeros(2, 2)) == F(5, 2)
    assert a.gap(a) == 0
