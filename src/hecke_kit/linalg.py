"""Exact sparse linear algebra over the rationals.

Module action matrices here are mostly near-permutation sparse, so matrices
are stored column-major as dicts {row: value}.  Every stored value is the
true rational entry, normalised by `_q`: a plain int when it is integral and
a Fraction only when its denominator is not 1, never zero and never a float.
At integer parameter points every module matrix is integral, so its
arithmetic stays in int operations, which are far cheaper than Fraction ones.
At a rational point the exact identity checks clear denominators at check
time instead: `RatMat.cleared` scales a matrix by the lcm of its entry
denominators, the check multiplies its identity through by the positive
integer that clears it, and every product runs on integers.  `_cleared_gap`
is the one exact comparison that decides such a check: it gives the largest
entry of a cleared relation over Q, and `RatMat.gap` is its two-matrix entry
point, the residual of A = B.  Storage keeps the true values, because
`cols` is also the matrix as callers read it, and every other routine
(kernels, inverses, hom bases) works on true values.
`kernel_basis` is the one elimination over Q: `RatMat.inverse` reads the
inverse off a kernel.  `RatMat.det_mod` is the one modular elimination:
invertibility is certified by a nonzero determinant modulo a large prime
after clearing denominators, which is a sound (one-sided) proof of
invertibility over Q.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

__all__ = ["RatMat", "kernel_basis", "intertwiner_rows"]

_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563)


def _q(v) -> int | Fraction:
    """An exact rational as stored in a RatMat: int if integral, else Fraction.

    Accepts ints, Fractions, decimal or "p/q" strings and floats (converted
    exactly), and never returns a float or a Fraction with denominator 1.
    """
    cls = v.__class__
    if cls is int:
        return v
    if cls is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _inv(v) -> Fraction:
    """1/v as a Fraction, for a nonzero normalised entry v."""
    if v.__class__ is int:
        return Fraction(1, v)
    return Fraction(v.denominator, v.numerator)


def _column_sum(terms: list[tuple[int, RatMat]], j: int) -> dict[int, int]:
    """Column j of the sum of c * P, zeros dropped; P integral.

    A single term with c = 1 gives P's own column, not a copy.
    """
    if len(terms) == 1:
        c, P = terms[0]
        col = P.cols[j]
        return col if c == 1 else {r: c * v for r, v in col.items()}
    acc: dict[int, int] = {}
    for c, P in terms:
        for r, v in P.cols[j].items():
            if w := acc.get(r, 0) + c * v:
                acc[r] = w
            else:
                del acc[r]
    return acc


def _cleared_gap(left, right, denom: int) -> int | Fraction:
    """max |L - R| / denom, normalised like `_q`.

    L and R are sums of c * P over integral matrices P, given as lists of
    (c, P) with nonzero c, and left is not empty.  With L = R a relation
    multiplied through by its clearing factor denom > 0, this is the largest
    entry of the relation itself.  Columns compare as dicts first, so a
    column that holds costs no subtraction.
    """
    worst = 0
    for j in range(left[0][1].ncols):
        L, R = _column_sum(left, j), _column_sum(right, j)
        if L != R:
            worst = max(worst, max(abs(L.get(r, 0) - R.get(r, 0)) for r in L.keys() | R.keys()))
    return worst if denom == 1 else _q(Fraction(worst, denom))


class RatMat:
    """A rows x cols rational matrix, stored as one dict per column.

    `cols[j]` maps a row index to the nonzero entry at (row, j), held as an
    int when integral and as a Fraction otherwise (see `_q`).  Code that
    writes into `cols` directly must store values in that form.
    """

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
        return cls(n, n, [{i: 1} for i in range(n)])

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
                v = _q(val)
                if v:
                    m.cols[c][r] = v
        return m

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
                        col[base + rb] = _q(va * vb)
        return out

    # -- basic ops ---------------------------------------------------------

    def copy(self):
        return RatMat(self.nrows, self.ncols, [dict(c) for c in self.cols])

    def entry(self, r, c) -> int | Fraction:
        return self.cols[c].get(r, 0)

    def set_entry(self, r, c, v):
        v = _q(v)
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
        for ocol, col in zip(out.cols, other.cols):
            for r, v in col.items():
                w = ocol.get(r)
                if w is None:
                    ocol[r] = v
                elif w := w + v:
                    ocol[r] = w if w.__class__ is int else _q(w)
                else:
                    del ocol[r]
        return out

    def __neg__(self):
        return RatMat(self.nrows, self.ncols, [{r: -v for r, v in c.items()} for c in self.cols])

    def __sub__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        out = self.copy()
        for ocol, col in zip(out.cols, other.cols):
            for r, v in col.items():
                w = ocol.get(r)
                if w is None:
                    ocol[r] = -v
                elif w := w - v:
                    ocol[r] = w if w.__class__ is int else _q(w)
                else:
                    del ocol[r]
        return out

    def scale(self, c) -> "RatMat":
        c = _q(c)
        if not c:
            return RatMat.zeros(self.nrows, self.ncols)
        return RatMat(self.nrows, self.ncols,
                      [{r: _q(c * v) for r, v in col.items()} for col in self.cols])

    def __matmul__(self, other: "RatMat") -> "RatMat":
        assert self.ncols == other.nrows, f"shape mismatch {self.ncols} vs {other.nrows}"
        out = RatMat(self.nrows, other.ncols)
        for j, bcol in enumerate(other.cols):
            out.cols[j] = self.matvec(bcol)
        return out

    def matvec(self, vec: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
        # A Fraction operand goes on the left, and a first term is stored
        # rather than added to 0: int-op-Fraction takes the slower reflected
        # path through Fraction.__radd__/__rmul__.
        acc: dict[int, int | Fraction] = {}
        mycols = self.cols
        for i, bv in vec.items():
            if bv.__class__ is int:
                for r, av in mycols[i].items():
                    w = acc.get(r)
                    if w is None:
                        acc[r] = av * bv
                    elif w := w + av * bv:
                        acc[r] = w
                    else:
                        del acc[r]
            else:
                for r, av in mycols[i].items():
                    w = acc.get(r)
                    if w is None:
                        acc[r] = bv * av
                    elif w := bv * av + w:
                        acc[r] = w
                    else:
                        del acc[r]
        for r, w in acc.items():
            if w.__class__ is not int:
                acc[r] = _q(w)
        return acc

    def cleared(self) -> tuple["RatMat", int]:
        """(N, d): d is the lcm of the entry denominators and N = d * self.

        N is integral.  Its entries are numerator * (d // denominator), so no
        Fraction is multiplied.  An integral matrix returns (self, 1) itself,
        not a copy.
        """
        d = 1
        for col in self.cols:
            for v in col.values():
                if v.__class__ is not int:
                    d = lcm(d, v.denominator)
        if d == 1:
            return self, 1
        return RatMat(self.nrows, self.ncols,
                      [{r: v.numerator * (d // v.denominator) for r, v in col.items()}
                       for col in self.cols]), d

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
        return all(col == {j: 1} for j, col in enumerate(self.cols))

    def gap(self, other: "RatMat") -> int | Fraction:
        """max |self - other|, exact: the residual of the identity self = other.

        Both sides are cleared (self = A / da, other = B / db) and compared
        as db * A against da * B by `_cleared_gap`, so no difference matrix
        is built and no Fraction is subtracted.
        """
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        (A, da), (B, db) = self.cleared(), other.cleared()
        return _cleared_gap([(db, A)], [(da, B)], da * db)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def to_rows(self):
        dense = [[0] * self.ncols for _ in range(self.nrows)]
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
        # lazy heap of (len(row), row): a row is pushed again whenever its
        # length changes, and entries of finished rows or old lengths are
        # skipped, so each pop is the smallest alive row, lowest index first
        heap = [(len(row), r) for r, row in enumerate(rows)]
        heapify(heap)
        det = 1
        for _ in range(n):
            size, pivot_r = heappop(heap)
            while pivot_r not in alive or size != len(rows[pivot_r]):
                size, pivot_r = heappop(heap)
            if not size:
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
                before = len(row)
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
                if len(row) != before:
                    heappush(heap, (len(row), r))
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
        """Exact inverse, solved by `kernel_basis`.

        The kernel of the rows of [A | -I] is {(x, Ax)}.  Its basis vector
        for free column n + i has y-part exactly e_i for every i iff A is
        invertible (the y-parts then span Q^n), and its x-part is then
        column i of the inverse.
        """
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        rows = [{n + r: -1} for r in range(n)]
        for j, col in enumerate(self.cols):
            for r, v in col.items():
                rows[r][j] = v
        out = RatMat(n, n)
        for i, vec in enumerate(kernel_basis(rows, 2 * n)):
            x = {r: v for r, v in vec.items() if r < n}
            if len(vec) - len(x) != 1 or vec.get(n + i) != 1:
                raise ValueError("matrix is singular")
            out.cols[i] = x
        return out


def kernel_basis(rows: list[dict[int, int | Fraction]], ncols: int) -> list[dict[int, int | Fraction]]:
    """Nullspace basis of a sparse row system, one vector per free column.

    Rows are dicts {col: coeff}.  Fully reduced (Gauss-Jordan) elimination;
    the pivot row is always the shortest unprocessed nonempty row, lowest
    index first, kept in a lazy heap as in `RatMat.det_mod`.  Deterministic
    throughout.  Returned vectors are indexed by ascending free column and
    have a 1 in that column; their entries are normalised as in RatMat.
    """
    work = [dict(r) for r in rows if r]
    col_index: dict[int, set[int]] = {}
    for idx, row in enumerate(work):
        for j in row:
            col_index.setdefault(j, set()).add(idx)
    unprocessed = set(range(len(work)))
    heap = [(len(row), idx) for idx, row in enumerate(work)]
    heapify(heap)
    pivots: dict[int, int] = {}  # col -> row index
    while heap:
        size, r = heappop(heap)
        if r not in unprocessed or size != len(work[r]) or not size:
            continue
        unprocessed.discard(r)
        row = work[r]
        c = min(j for j in row if j not in pivots)
        pv = row[c]
        if pv != 1:
            inv = _inv(pv)
            for j, v in row.items():
                row[j] = _q(inv * v)
        pivots[c] = r
        for r2 in list(col_index.get(c, ())):
            if r2 == r:
                continue
            row2 = work[r2]
            f = row2.get(c)
            if not f:
                continue
            before = len(row2)
            for j, v in row.items():
                w = row2.get(j)
                if w is None:
                    col_index.setdefault(j, set()).add(r2)
                    row2[j] = _q(-(f * v))
                elif w := w - f * v:
                    row2[j] = w if w.__class__ is int else _q(w)
                else:
                    del row2[j]
                    col_index[j].discard(r2)
            if r2 in unprocessed and len(row2) != before:
                heappush(heap, (len(row2), r2))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = {f: 1}
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
        b_rows: list[dict[int, int | Fraction]] = [{} for _ in range(d_tgt)]
        for j, col in enumerate(B.cols):
            for r, v in col.items():
                b_rows[r][j] = v
        for r in range(d_tgt):
            brow = b_rows[r]
            base = r * d_src
            for c in range(d_src):
                row = {base + k: v for k, v in a_cols[c].items()}
                for k, v in brow.items():
                    key = k * d_src + c
                    w = row.get(key)
                    if w is None:
                        row[key] = -v
                    elif w := w - v:
                        row[key] = w if w.__class__ is int else _q(w)
                    else:
                        del row[key]
                if row:
                    rows.append(row)
    return rows
