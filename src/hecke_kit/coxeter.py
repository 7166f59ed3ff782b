"""Finite Coxeter systems realized by dense multiplication tables.

A group is specified by its Coxeter matrix (m_ii = 1, m_ij = m_ji >= 2).
Elements are small integers indexing rows of dense left/right multiplication
tables.  The right table is built length by length from the cosets of the
rank-2 parabolic subgroups: each element's right descents, and the edges to
its lower neighbours, follow from its components in the dihedral subgroups
W_{s,t}, so no coset coincidence ever has to be resolved.  Everything
downstream (lengths, ascent sets, coset representatives, factorizations) is
table lookups.

Generators are 0-indexed internally; every text interface (element rendering,
CLI flags, JSON) uses the conventional 1-based labels s1, s2, ...
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass

__all__ = [
    "GroupTooLarge",
    "NotDoubleCosetMinimal",
    "CoxeterMatrix",
    "CoxeterSystem",
    "get_system",
    "symmetric_group_system",
    "default_cap",
    "parse_cap",
    "DEFAULT_GROUP_CAP",
    "is_type_a",
    "one_line",
    "elem_of_line",
    "interleaving_rep_line",
]

DEFAULT_GROUP_CAP = 200_000


def parse_cap(raw: str, source: str) -> int:
    """A group-size cap given as text; `source` names the flag or variable."""
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{source} must be a positive integer, got {raw!r}")
    return cap


def default_cap() -> int:
    """Group-size cap; HECKE_KIT_CAP in the environment overrides."""
    raw = os.environ.get("HECKE_KIT_CAP")
    return parse_cap(raw, "HECKE_KIT_CAP") if raw else DEFAULT_GROUP_CAP


class GroupTooLarge(RuntimeError):
    """The group has more elements than the cap; `reached` is cap + 1."""

    def __init__(self, reached: int, cap: int):
        super().__init__(f"group enumeration exceeded cap: reached {reached} elements with cap {cap}")
        self.reached = reached
        self.cap = cap


class NotDoubleCosetMinimal(ValueError):
    """Raised when an element fails the minimal double coset representative test."""


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of generator orders; entry (i, j) is the order of s_i*s_j."""

    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = self.orders
        n = len(m)
        for row in m:
            if len(row) != n:
                raise ValueError("Coxeter matrix must be square")
        for i in range(n):
            if m[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i != j and m[i][j] < 2:
                    raise ValueError("off-diagonal entries must be >= 2")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @classmethod
    def from_lists(cls, rows) -> "CoxeterMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def named(cls, name: str) -> "CoxeterMatrix":
        """Build one of the standard diagrams: An, Bn, Dn, E6-E8, F4, H3, H4, I2(m)."""
        name = name.strip()
        m = re.fullmatch(r"I2\((\d+)\)", name)
        if m:
            k = int(m.group(1))
            if k < 2:
                raise ValueError("I2(m) needs m >= 2")
            return cls(((1, k), (k, 1)))
        m = re.fullmatch(r"([ABDEFH])(\d+)", name)
        if not m:
            raise ValueError(f"unknown group name: {name!r}")
        family, n = m.group(1), int(m.group(2))
        if n < 1 or (family in "BF" and n < 2):
            raise ValueError(f"bad rank for {name!r}")

        def chain(k):
            rows = [[2] * k for _ in range(k)]
            for i in range(k):
                rows[i][i] = 1
            for i in range(k - 1):
                rows[i][i + 1] = rows[i + 1][i] = 3
            return rows

        rows = chain(n)
        if family == "A":
            pass
        elif family == "B":
            rows[n - 2][n - 1] = rows[n - 1][n - 2] = 4
        elif family == "D":
            if n < 3:
                raise ValueError("Dn needs n >= 3")
            # fork: last two nodes both attach to node n-3
            rows[n - 2][n - 1] = rows[n - 1][n - 2] = 2
            rows[n - 3][n - 1] = rows[n - 1][n - 3] = 3
        elif family == "E":
            if n not in (6, 7, 8):
                raise ValueError("En needs n in 6..8")
            # branch node: node n-4 of the chain also attaches to the last node
            rows[n - 2][n - 1] = rows[n - 1][n - 2] = 2
            rows[n - 4][n - 1] = rows[n - 1][n - 4] = 3
        elif family == "F":
            if n != 4:
                raise ValueError("only F4")
            rows[1][2] = rows[2][1] = 4
        elif family == "H":
            if n not in (3, 4):
                raise ValueError("Hn needs n in {3, 4}")
            rows[0][1] = rows[1][0] = 5
        return cls.from_lists(rows)


# ---------------------------------------------------------------------------
# Construction by length from rank-2 coset data.
#
# All generators are involutions, so the table keeps one column per generator
# and the edge w --s--> ws is stored in both directions.  The elements of each
# length are walked in numbering order, generators in order, and an unset w*s
# is numbered as a new element u when it is first reached: this is the
# breadth-first numbering of the Cayley graph, so it lists W by length, which
# CoxeterSystem checks and relies on.
#
# For each pair {s, t}, suffix[w][k] is the length of w's component in the
# dihedral parabolic W_{s,t}: the length of y in w = x*y, y in W_{s,t} and x
# minimal in w*W_{s,t}, lengths adding (Bjorner and Brenti, Combinatorics of
# Coxeter Groups, 2005, section 2.4).  Since u = w*s is longer than w, t != s
# is a right descent of u exactly when w's {s,t}-component has length
# m_st - 1, making u's the longest element of W_{s,t}; then
# u*t = w*(t*s)^(m_st - 1), a walk down w's alternating suffix to the coset
# minimum and back up the other alternating word, over edges already linked.
# So every downward edge of u is linked when u is created, and no coincidence
# ever arises.  u's component grows by one from w's for the pairs that
# contain s; for the other pairs it comes from a lower neighbour u*t (one more
# than its component), or is 0 when neither generator is a descent.


def _enumerate(matrix: CoxeterMatrix, cap: int) -> list[list[int]]:
    n = matrix.rank
    m = matrix.orders
    pair = {}
    for k, (s, t) in enumerate(itertools.combinations(range(n), 2)):
        pair[s, t] = pair[t, s] = k
    npairs = n * (n - 1) // 2
    # per generator s: (t, pair index, m_st, walk from w to w*s*t) for t != s,
    # and (t, r, pair index) for the pairs without s
    with_s = [[(t, pair[s, t], m[s][t], [t, s] * (m[s][t] - 1)) for t in range(n) if t != s]
              for s in range(n)]
    without_s = [[(t, r, pair[t, r]) for t in range(n) for r in range(t + 1, n) if s not in (t, r)]
                 for s in range(n)]

    table: list[list[int]] = [[-1] * n]
    suffix = [[0] * npairs]
    # the created ints, so each element is one int object in every table
    elems = [0]
    for w in elems:
        row = table[w]
        for s in range(n):
            if row[s] != -1:
                continue
            u = len(table)
            if u >= cap:
                raise GroupTooLarge(u + 1, cap)
            new = [-1] * n
            new[s] = w
            row[s] = u
            old, fresh = suffix[w], [0] * npairs
            for t, k, mst, walk in with_s[s]:
                fresh[k] = d = old[k] + 1
                if d == mst:
                    v = w
                    for a in walk:
                        v = table[v][a]
                    new[t] = v
                    table[v][t] = u
            for t, r, k in without_s[s]:
                if new[t] != -1:
                    fresh[k] = suffix[new[t]][k] + 1
                elif new[r] != -1:
                    fresh[k] = suffix[new[r]][k] + 1
            table.append(new)
            suffix.append(fresh)
            elems.append(u)
    return table


class CoxeterSystem:
    """A finite Coxeter group with dense multiplication tables.

    Elements are integers 0..size-1 with 0 the identity.  right_table[w][s]
    is w*s and left_table[w][s] is s*w.  The numbering is breadth-first from
    the identity, generators in order, so lengths never decrease along it:
    by_length is simply range(size), and the constructor raises RuntimeError
    if a table breaks that order (lengths are recomputed apart from the
    construction to test it).  A group with more than `cap` elements raises
    GroupTooLarge; one with exactly `cap` elements builds.
    """

    def __init__(self, matrix: CoxeterMatrix, cap: int | None = None, name: str | None = None):
        cap = default_cap() if cap is None else cap
        if type(cap) is not int or cap < 1:
            raise ValueError(f"group cap must be a positive integer, got {cap!r}")
        self.cap = cap
        self.matrix = matrix
        self.name = name
        self.rank = matrix.rank
        right = self.right_table = _enumerate(matrix, cap)
        self.size = len(right)

        # lengths: geodesic distance from the identity in the Cayley graph,
        # computed apart from the numbering so that the check below tests it
        length = self.length = [-1] * self.size
        length[0] = 0
        bfs_parent = [-1] * self.size
        bfs_letter = [-1] * self.size
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                for s in range(self.rank):
                    u = right[w][s]
                    if length[u] == -1:
                        length[u] = length[w] + 1
                        bfs_parent[u] = w
                        bfs_letter[u] = s
                        nxt.append(u)
            frontier = nxt
        # the numbering is breadth-first, so it already lists W by length
        if any(length[w] > length[w + 1] for w in range(self.size - 1)):
            raise RuntimeError("element numbering is not in length order; table corrupt")
        self.by_length = range(self.size)

        # left multiplication: s*(p*t) = (s*p)*t along the BFS forest, whose
        # parents come before their children in the numbering
        self.left_table = [list(right[0])]
        for w in range(1, self.size):
            left_p, t = self.left_table[bfs_parent[w]], bfs_letter[w]
            self.left_table.append([right[left_p[s]][t] for s in range(self.rank)])

        self.inverse = [0] * self.size
        for w in range(1, self.size):
            self.inverse[w] = self.left_table[self.inverse[bfs_parent[w]]][bfs_letter[w]]

        self.full_subset = frozenset(range(self.rank))
        self.gens = right[0]  # element index of each generator
        # ascent sets as bit masks, one generator column at a time; at most
        # 2^rank distinct sets, and one frozenset object for each
        subsets: dict[int, frozenset] = {}

        def ascents(table):
            masks = [0] * self.size
            for s in range(self.rank):
                bit = 1 << s
                masks = [mask | bit if length[row[s]] > lw else mask
                         for mask, row, lw in zip(masks, table, length)]
            for mask in set(masks) - subsets.keys():
                subsets[mask] = frozenset(s for s in range(self.rank) if mask >> s & 1)
            return [subsets[mask] for mask in masks]

        self._asc_left = ascents(self.left_table)
        self._asc_right = ascents(right)
        self._parabolic_cache: dict[frozenset, list[int]] = {}
        self._gen_of_elem = {g: i for i, g in enumerate(self.gens)}
        self._reduced_words: dict[int, tuple[int, ...]] = {0: ()}
        # Hecke basis-change table: per target basis, a dict of rows and a
        # pool of their coefficients; hecke.HeckeElement.change_basis fills
        # it row by row on demand
        self.basis_change_rows: dict[str, tuple[dict, dict]] = {}

    # -- basics ------------------------------------------------------------

    def same_group(self, other: "CoxeterSystem") -> bool:
        """Whether other is this system or has the same Coxeter matrix."""
        return self is other or self.matrix == other.matrix

    def asc_right(self, w: int) -> frozenset:
        return self._asc_right[w]

    def desc_left(self, w: int) -> frozenset:
        return self.full_subset - self._asc_left[w]

    def desc_right(self, w: int) -> frozenset:
        return self.full_subset - self._asc_right[w]

    def reduced_word(self, w: int) -> tuple[int, ...]:
        """Greedy reduced word, stripping the smallest left descent first.

        Each word is computed once and kept for later calls.
        """
        word = self._reduced_words.get(w)
        if word is None:
            letters = []
            v = w
            while v != 0:
                s = min(self.desc_left(v))
                letters.append(s)
                v = self.left_table[v][s]
            word = self._reduced_words[w] = tuple(letters)
        return word

    def word_to_elem(self, word) -> int:
        w = 0
        for s in word:
            w = self.right_table[w][s]
        return w

    def mult(self, u: int, v: int) -> int:
        for s in self.reduced_word(v):
            u = self.right_table[u][s]
        return u

    def conjugate(self, w: int, x: int) -> int:
        """w^{-1} * x * w."""
        return self.mult(self.mult(self.inverse[w], x), w)

    def longest(self) -> int:
        top = self.by_length[-1]
        if top and self.length[top - 1] == self.length[top]:
            raise RuntimeError("longest element is not unique; table corrupt")
        return top

    def elem_name(self, w: int) -> str:
        """Render as a reduced word, e.g. "s1*s2*s1"; the identity is "e"."""
        word = self.reduced_word(w)
        return "*".join(f"s{s + 1}" for s in word) if word else "e"

    # -- parabolic machinery ------------------------------------------------

    def check_subset(self, subset) -> frozenset:
        I = frozenset(subset)
        if not I <= self.full_subset:
            raise ValueError(f"subset {sorted(I)} outside generator range 0..{self.rank - 1}")
        return I

    def parabolic_elements(self, I) -> list[int]:
        """Elements of W_I, sorted by (length, index)."""
        I = self.check_subset(I)
        if I not in self._parabolic_cache:
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for w in frontier:
                    for s in I:
                        u = self.right_table[w][s]
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
                frontier = nxt
            self._parabolic_cache[I] = sorted(seen, key=lambda w: (self.length[w], w))
        return self._parabolic_cache[I]

    def in_parabolic(self, w: int, I) -> bool:
        I = frozenset(I)
        return all(s in I for s in self.reduced_word(w))

    def min_coset_reps(self, I) -> list[int]:
        """Minimal representatives of the left cosets w*W_I in W, sorted by
        (length, index)."""
        return self.parabolic_coset_reps(self.full_subset, I)

    def parabolic_coset_reps(self, J, I) -> list[int]:
        """Minimal representatives of the cosets w*W_I inside W_J, I subset of J."""
        J = self.check_subset(J)
        I = self.check_subset(I)
        if not I <= J:
            raise ValueError(f"{sorted(I)} is not a subset of {sorted(J)}")
        return [w for w in self.parabolic_elements(J) if I <= self._asc_right[w]]

    def parabolic_factorize(self, w: int, I) -> tuple[int, int]:
        """Split w = x*y with x a minimal left-coset rep and y in W_I.

        Lengths add.  Deterministic: strips the smallest right descent in I.
        """
        I = self.check_subset(I)
        y_letters: list[int] = []
        while True:
            ds = self.desc_right(w) & I
            if not ds:
                break
            s = min(ds)
            y_letters.append(s)
            w = self.right_table[w][s]
        # stripping w = w'*s in turn means y rebuilds as (last)...(first)
        y = 0
        for s in y_letters:
            y = self.left_table[y][s]
        return w, y

    def double_coset_reps(self, J, I) -> list[int]:
        """Minimal (J, I) double coset representatives, sorted by (length, index)."""
        J = self.check_subset(J)
        I = self.check_subset(I)
        return [w for w in self.by_length if J <= self._asc_left[w] and I <= self._asc_right[w]]

    def is_double_minimal(self, w: int, J, I) -> bool:
        return frozenset(J) <= self._asc_left[w] and frozenset(I) <= self._asc_right[w]

    def triple_factorize(self, w: int, J, I) -> tuple[int, int, int]:
        """Write w = u * tau * v with lengths adding.

        tau is the minimal representative of the double coset W_J w W_I,
        v lies in W_I, and u is a minimal representative of a left coset of
        the cross-section subgroup W_{K(tau)} inside W_J.
        """
        x, v = self.parabolic_factorize(w, I)
        # x = u * tau with u in W_J is the mirror of the right factorization
        # of x^-1; the factorization is unique, so one walk serves both sides
        a, b = self.parabolic_factorize(self.inverse[x], J)
        return self.inverse[b], self.inverse[a], v

    def cross_section(self, tau: int, J, I) -> tuple[frozenset, frozenset, dict[int, int]]:
        """Generator cross-section data K(tau), its conjugate, and the pairing.

        K(tau) holds the generators j in J with tau^{-1} * s_j * tau equal to
        a generator inside I; the pairing maps each such j to that generator.
        Requires tau minimal in its double coset.
        """
        J = self.check_subset(J)
        I = self.check_subset(I)
        if not self.is_double_minimal(tau, J, I):
            raise NotDoubleCosetMinimal(
                f"{self.elem_name(tau)} is not a minimal ({sorted(J)}, {sorted(I)}) double coset representative"
            )
        pairing: dict[int, int] = {}
        for j in sorted(J):
            c = self.conjugate(tau, self.gens[j])
            i = self._gen_of_elem.get(c)
            if i is not None and i in I:
                pairing[j] = i
        K = frozenset(pairing)
        K_conj = frozenset(pairing.values())
        return K, K_conj, pairing


_SYSTEM_CACHE: dict[tuple, CoxeterSystem] = {}


def get_system(spec, cap: int | None = None) -> CoxeterSystem:
    """Resolve a name or a Coxeter matrix to a cached system."""
    if isinstance(spec, CoxeterSystem):
        return spec
    if isinstance(spec, str):
        matrix, name = CoxeterMatrix.named(spec), spec
    elif isinstance(spec, CoxeterMatrix):
        matrix, name = spec, None
    else:
        raise TypeError(f"expected a group name or a CoxeterMatrix, got {type(spec).__name__}")
    key = (matrix.orders, cap if cap is not None else default_cap())
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = CoxeterSystem(matrix, cap=key[1], name=name)
    return _SYSTEM_CACHE[key]


# ---------------------------------------------------------------------------
# Type A: the chain diagram realizes the symmetric group on rank+1 letters.
# One-line notation is the tuple (w(1), ..., w(N)); generator index g
# (0-based) is the transposition of values g+1, g+2, acting on positions
# g, g+1 under right multiplication.


def symmetric_group_system(n_letters: int, cap: int | None = None) -> CoxeterSystem:
    """The chain system realizing the symmetric group on n_letters letters.

    n_letters = 1 gives the rank-0 system (trivial group), which the named
    table cannot express.
    """
    if n_letters < 1:
        raise ValueError("need at least one letter")
    if n_letters == 1:
        return get_system(CoxeterMatrix(()), cap=cap)
    return get_system(f"A{n_letters - 1}", cap=cap)


def is_type_a(matrix: CoxeterMatrix) -> bool:
    n = matrix.rank
    for i in range(n):
        for j in range(i + 1, n):
            want = 3 if j == i + 1 else 2
            if matrix.orders[i][j] != want:
                return False
    return True


def _require_type_a(sys: CoxeterSystem):
    if not is_type_a(sys.matrix):
        raise ValueError("one-line notation needs a type A chain system")


def one_line(sys: CoxeterSystem, w: int) -> tuple[int, ...]:
    """One-line notation of w, computed through a reduced word."""
    _require_type_a(sys)
    v = list(range(1, sys.rank + 2))
    for g in sys.reduced_word(w):
        v[g], v[g + 1] = v[g + 1], v[g]
    return tuple(v)


def elem_of_line(sys: CoxeterSystem, line) -> int:
    """Element with the given one-line notation (independent bubble-sort route)."""
    _require_type_a(sys)
    v = list(line)
    if sorted(v) != list(range(1, sys.rank + 2)):
        raise ValueError(f"not a permutation of 1..{sys.rank + 1}: {line}")
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for g in range(len(v) - 1):
            if v[g] > v[g + 1]:
                v[g], v[g + 1] = v[g + 1], v[g]
                word.append(g)
                changed = True
    # line * (s_{g1} ... s_{gk}) = e, so line = s_{gk} * ... * s_{g1}
    return sys.word_to_elem(reversed(word))


def interleaving_rep_line(m: int, n: int, k: int, t: int) -> tuple[int, ...]:
    """One-line form of the minimal double coset representative indexed by t.

    For the maximal parabolic pair (split at k on the left, at m on the
    right), the representative keeps 1..t fixed, then lists k+1..k+m-t,
    then t+1..k, then leaves the tail fixed.
    """
    if not (0 <= t <= min(m, k) and k - t <= n):
        raise ValueError(f"t={t} out of range for (m,n,k)=({m},{n},{k})")
    out = []
    for i in range(1, m + n + 1):
        if i <= t:
            out.append(i)
        elif i <= m:
            out.append(k - t + i)
        elif i <= m + k - t:
            out.append(t - m + i)
        else:
            out.append(i)
    return tuple(out)
