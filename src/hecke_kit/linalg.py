"""Exact sparse linear algebra over the rationals.

Module action matrices here are mostly near-permutation sparse, so matrices
are stored column-major as dicts {row: Fraction}.  Invertibility is certified
by a nonzero determinant modulo a large prime after clearing denominators,
which is a sound (one-sided) proof of invertibility over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["RatMat", "kernel_basis", "intertwiner_rows"]

_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RatMat:
    """A rows x cols matrix of Fractions, stored as one dict per column."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        if cols is None:
            self.cols = [{} for _ in range(ncols)]
        else:
            assert len(cols) == ncols
            self.cols = cols

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{i: _ONE} for i in range(n)])

    @classmethod
    def from_rows(cls, rows, nrows=None, ncols=None):
        """Dense row-major list of lists (ints, Fractions, or strings)."""
        nrows = len(rows) if nrows is None else nrows
        ncols = (len(rows[0]) if rows else 0) if ncols is None else ncols
        m = cls(nrows, ncols)
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, val in enumerate(row):
                v = Fraction(val)
                if v:
                    m.cols[c][r] = v
        return m

    @classmethod
    def permutation(cls, row_of_col):
        """Square 0/1 matrix with a single 1 at (row_of_col[j], j)."""
        n = len(row_of_col)
        assert sorted(row_of_col) == list(range(n))
        return cls(n, n, [{r: _ONE} for r in row_of_col])

    @classmethod
    def block_diag(cls, blocks):
        nrows = sum(b.nrows for b in blocks)
        ncols = sum(b.ncols for b in blocks)
        out = cls(nrows, ncols)
        r0 = c0 = 0
        for b in blocks:
            for j, col in enumerate(b.cols):
                out.cols[c0 + j] = {r0 + r: v for r, v in col.items()}
            r0 += b.nrows
            c0 += b.ncols
        return out

    @classmethod
    def kron(cls, a: "RatMat", b: "RatMat") -> "RatMat":
        """Kronecker product; index (i, k) flattens to i*b.nrows + k."""
        out = cls(a.nrows * b.nrows, a.ncols * b.ncols)
        for ja, cola in enumerate(a.cols):
            for jb, colb in enumerate(b.cols):
                col = out.cols[ja * b.ncols + jb]
                for ra, va in cola.items():
                    base = ra * b.nrows
                    for rb, vb in colb.items():
                        col[base + rb] = va * vb
        return out

    # -- basic ops ---------------------------------------------------------

    def copy(self):
        return RatMat(self.nrows, self.ncols, [dict(c) for c in self.cols])

    def entry(self, r, c) -> Fraction:
        return self.cols[c].get(r, _ZERO)

    def set_entry(self, r, c, v):
        v = Fraction(v)
        if v:
            self.cols[c][r] = v
        else:
            self.cols[c].pop(r, None)

    def __eq__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for a, b in zip(self.cols, other.cols))

    def __hash__(self):
        raise TypeError("RatMat is mutable; not hashable")

    def __add__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        out = self.copy()
        for j, col in enumerate(other.cols):
            ocol = out.cols[j]
            for r, v in col.items():
                w = ocol.get(r, _ZERO) + v
                if w:
                    ocol[r] = w
                else:
                    del ocol[r]
        return out

    def __neg__(self):
        return RatMat(self.nrows, self.ncols, [{r: -v for r, v in c.items()} for c in self.cols])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "RatMat":
        c = Fraction(c)
        if not c:
            return RatMat.zeros(self.nrows, self.ncols)
        return RatMat(self.nrows, self.ncols, [{r: c * v for r, v in col.items()} for col in self.cols])

    def __matmul__(self, other: "RatMat") -> "RatMat":
        assert self.ncols == other.nrows, f"shape mismatch {self.ncols} vs {other.nrows}"
        out = RatMat(self.nrows, other.ncols)
        mycols = self.cols
        for j, bcol in enumerate(other.cols):
            acc: dict[int, Fraction] = {}
            for i, bv in bcol.items():
                for r, av in mycols[i].items():
                    w = acc.get(r, _ZERO) + av * bv
                    if w:
                        acc[r] = w
                    else:
                        del acc[r]
            out.cols[j] = acc
        return out

    def matvec(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        acc: dict[int, Fraction] = {}
        for i, bv in vec.items():
            for r, av in self.cols[i].items():
                w = acc.get(r, _ZERO) + av * bv
                if w:
                    acc[r] = w
                else:
                    del acc[r]
        return acc

    def transpose(self) -> "RatMat":
        out = RatMat(self.ncols, self.nrows)
        for j, col in enumerate(self.cols):
            for r, v in col.items():
                out.cols[r][j] = v
        return out

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(col == {j: _ONE} for j, col in enumerate(self.cols))

    def max_abs(self) -> Fraction:
        """Largest absolute entry; the exact residual of a difference matrix."""
        best = _ZERO
        for col in self.cols:
            for v in col.values():
                if abs(v) > best:
                    best = abs(v)
        return best

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def to_rows(self):
        dense = [[_ZERO] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for r, v in col.items():
                dense[r][j] = v
        return dense

    def __repr__(self):
        return f"RatMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- solving -----------------------------------------------------------

    def det_mod(self, p: int) -> int | None:
        """Determinant of the denominator-cleared matrix modulo p.

        Each column is scaled by the lcm of its denominators first (a nonzero
        rational multiple, so vanishing of the determinant is unchanged).
        Returns None if p divides one of the clearing factors, in which case
        the caller should try another prime.
        """
        if self.nrows != self.ncols:
            return 0
        n = self.nrows
        rows: list[dict[int, int]] = [{} for _ in range(n)]
        for j, col in enumerate(self.cols):
            if not col:
                return 0
            scale = 1
            for v in col.values():
                scale = scale * v.denominator // gcd(scale, v.denominator)
            if scale % p == 0:
                return None
            for r, v in col.items():
                x = v.numerator * (scale // v.denominator) % p
                if x:
                    rows[r][j] = x
        col_index: list[set[int]] = [set() for _ in range(n)]
        for r, row in enumerate(rows):
            for j in row:
                col_index[j].add(r)
        alive = set(range(n))
        det = 1
        for _ in range(n):
            pivot_r = min(alive, key=lambda r: (len(rows[r]), r), default=None)
            if pivot_r is None or not rows[pivot_r]:
                return 0
            pr = rows[pivot_r]
            pivot_c = min(pr)
            pval = pr[pivot_c]
            det = det * pval % p
            alive.discard(pivot_r)
            inv = pow(pval, p - 2, p)
            for r in list(col_index[pivot_c]):
                if r == pivot_r or r not in alive:
                    continue
                row = rows[r]
                factor = row[pivot_c] * inv % p
                for j, v in pr.items():
                    w = (row.get(j, 0) - factor * v) % p
                    if w:
                        if j not in row:
                            col_index[j].add(r)
                        row[j] = w
                    elif j in row:
                        del row[j]
                        col_index[j].discard(r)
            for j in pr:
                col_index[j].discard(pivot_r)
        return det % p

    def is_invertible(self) -> bool:
        """Certified invertibility via a nonzero modular determinant.

        A nonzero answer mod p proves det != 0 over Q.  A zero answer is
        proved exact by a zero column or row; otherwise the next prime is
        tried, and a zero for every usable probe prime is taken as singular
        (spurious zeros would need the true determinant divisible by all of
        them).
        """
        if self.nrows != self.ncols:
            return False
        if self.nrows == 0:
            return True
        usable = False
        for p in _PRIMES:
            d = self.det_mod(p)
            if d is None:
                continue
            if d:
                return True
            if not all(self.cols) or len(set().union(*self.cols)) < self.nrows:
                return False
            usable = True
        if usable:
            return False
        raise RuntimeError("all probe primes divided a denominator")

    def inverse(self) -> "RatMat":
        """Exact inverse by Gauss-Jordan elimination."""
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        rows = [dict() for _ in range(n)]
        for j, col in enumerate(self.cols):
            for r, v in col.items():
                rows[r][j] = v
        aug = [dict() for _ in range(n)]
        for r in range(n):
            aug[r][r] = _ONE
        perm = list(range(n))
        for c in range(n):
            pr = next((r for r in range(c, n) if rows[perm[r]].get(c)), None)
            if pr is None:
                raise ValueError("matrix is singular")
            perm[c], perm[pr] = perm[pr], perm[c]
            prow, paug = rows[perm[c]], aug[perm[c]]
            inv = 1 / prow[c]
            for j in list(prow):
                prow[j] *= inv
            for j in list(paug):
                paug[j] *= inv
            for r in range(n):
                if r == c:
                    continue
                row = rows[perm[r]]
                f = row.get(c)
                if not f:
                    continue
                for j, v in prow.items():
                    w = row.get(j, _ZERO) - f * v
                    if w:
                        row[j] = w
                    else:
                        row.pop(j, None)
                raug = aug[perm[r]]
                for j, v in paug.items():
                    w = raug.get(j, _ZERO) - f * v
                    if w:
                        raug[j] = w
                    else:
                        raug.pop(j, None)
        out = RatMat(n, n)
        for r in range(n):
            for j, v in aug[perm[r]].items():
                out.cols[j][r] = v
        return out


def kernel_basis(rows: list[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Nullspace basis of a sparse row system, one vector per free column.

    Rows are dicts {col: coeff}.  Fully reduced (Gauss-Jordan) elimination
    with a smallest-row pivot heuristic; deterministic throughout.  Returned
    vectors are indexed by ascending free column and have a 1 in that column.
    """
    work = [dict(r) for r in rows if r]
    col_index: dict[int, set[int]] = {}
    for idx, row in enumerate(work):
        for j in row:
            col_index.setdefault(j, set()).add(idx)
    unprocessed = set(range(len(work)))
    pivots: dict[int, int] = {}  # col -> row index
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
                w = row2.get(j, _ZERO) - f * v
                if w:
                    if j not in row2:
                        col_index.setdefault(j, set()).add(r2)
                    row2[j] = w
                else:
                    row2.pop(j, None)
                    col_index[j].discard(r2)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = {f: _ONE}
        for c, r in pivots.items():
            v = work[r].get(f)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


def intertwiner_rows(acts_src: list[RatMat], acts_tgt: list[RatMat], d_src: int, d_tgt: int):
    """Sparse rows of the system X @ A_g = B_g @ X over vec(X).

    X is d_tgt x d_src, vectorized as x[r*d_src + c] = X[r, c].
    """
    rows = []
    for A, B in zip(acts_src, acts_tgt):
        a_cols = A.cols
        b_rows: list[dict[int, Fraction]] = [{} for _ in range(d_tgt)]
        for j, col in enumerate(B.cols):
            for r, v in col.items():
                b_rows[r][j] = v
        for r in range(d_tgt):
            brow = b_rows[r]
            for c in range(d_src):
                row: dict[int, Fraction] = {}
                for k, v in a_cols[c].items():
                    row[r * d_src + k] = row.get(r * d_src + k, _ZERO) + v
                for k, v in brow.items():
                    key = k * d_src + c
                    w = row.get(key, _ZERO) - v
                    if w:
                        row[key] = w
                    else:
                        row.pop(key, None)
                if row:
                    rows.append(row)
    return rows
