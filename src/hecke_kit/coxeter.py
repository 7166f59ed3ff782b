"""Finite Coxeter systems realized by coset enumeration.

A group is specified by its Coxeter matrix (m_ii = 1, m_ij = m_ji >= 2).
Elements are small integers indexing rows of dense left/right multiplication
tables produced by a Todd-Coxeter style enumeration over the trivial
subgroup.  Everything downstream (lengths, ascent sets, coset
representatives, factorizations) is table lookups.

Generators are 0-indexed internally; every text interface (element rendering,
CLI flags, JSON) uses the conventional 1-based labels s1, s2, ...
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "GroupTooLarge",
    "NotDoubleCosetMinimal",
    "CoxeterMatrix",
    "CoxeterSystem",
    "get_system",
    "symmetric_group_system",
    "default_cap",
    "DEFAULT_GROUP_CAP",
    "is_type_a",
    "one_line",
    "elem_of_line",
    "type_a_transversal_lines",
    "interleaving_rep_line",
]

DEFAULT_GROUP_CAP = 200_000


def default_cap() -> int:
    """Group-size cap; HECKE_KIT_CAP in the environment overrides."""
    raw = os.environ.get("HECKE_KIT_CAP")
    return int(raw) if raw else DEFAULT_GROUP_CAP


class GroupTooLarge(RuntimeError):
    """Enumeration exceeded the coset cap before closing."""

    def __init__(self, reached: int, cap: int):
        super().__init__(f"group enumeration exceeded cap: reached {reached} cosets with cap {cap}")
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

    @classmethod
    def from_json_obj(cls, obj) -> "CoxeterMatrix":
        """Accept {"n": 3, "m": [[1,3,2],[3,1,3],[2,3,1]]}."""
        mat = cls.from_lists(obj["m"])
        if "n" in obj and int(obj["n"]) != mat.rank:
            raise ValueError("rank field disagrees with matrix size")
        return mat


# ---------------------------------------------------------------------------
# Todd-Coxeter enumeration over the trivial subgroup.
#
# All generators are involutions, so the table keeps one column per generator
# and the edge alpha --s--> beta is always stored in both directions.  The
# relators are the braid words (s_i s_j)^{m_ij}.


def _enumerate(matrix: CoxeterMatrix, cap: int) -> list[list[int]]:
    n = matrix.rank
    relators = []
    for i in range(n):
        for j in range(i + 1, n):
            relators.append([i, j] * matrix.orders[i][j])

    table: list[list[int]] = [[-1] * n]
    parent = [0]  # union-find over cosets
    live = 1

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def define(alpha: int, s: int) -> int:
        nonlocal live
        if live >= cap:
            raise GroupTooLarge(live + 1, cap)
        beta = len(table)
        table.append([-1] * n)
        parent.append(beta)
        live += 1
        table[alpha][s] = beta
        table[beta][s] = alpha
        return beta

    def merge(a: int, b: int, queue: list[int]):
        nonlocal live
        a, b = find(a), find(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            live -= 1
            queue.append(b)

    def coincidence(a: int, b: int):
        queue: list[int] = []
        merge(a, b, queue)
        while queue:
            gamma = queue.pop()
            for s in range(n):
                delta = table[gamma][s]
                if delta == -1:
                    continue
                table[delta][s] = -1
                mu, nu = find(gamma), find(delta)
                if table[mu][s] != -1:
                    merge(nu, table[mu][s], queue)
                elif table[nu][s] != -1:
                    merge(mu, table[nu][s], queue)
                else:
                    table[mu][s] = nu
                    table[nu][s] = mu

    def scan_and_fill(alpha: int, word: list[int]):
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] != -1:
                f = find(table[f][word[i]])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j]] != -1:
                b = find(table[b][word[j]])
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i]] = f
                return
            define(f, word[i])

    alpha = 0
    while alpha < len(table):
        if find(alpha) == alpha:
            for w in relators:
                scan_and_fill(alpha, w)
                if find(alpha) != alpha:
                    break
            if find(alpha) == alpha:
                for s in range(n):
                    if table[alpha][s] == -1:
                        define(alpha, s)
        alpha += 1

    # compact to live cosets, resolving stale entries through find
    live_ids = [x for x in range(len(table)) if find(x) == x]
    relabel = {x: k for k, x in enumerate(live_ids)}
    compact = [[relabel[find(table[x][s])] for s in range(n)] for x in live_ids]

    # canonical numbering: breadth-first from the identity, generators in order
    order = [relabel[find(0)]]
    seen = {order[0]}
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        for s in range(n):
            nxt = compact[cur][s]
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    if len(order) != len(compact):
        raise RuntimeError("enumeration produced a disconnected table")
    newpos = {old: k for k, old in enumerate(order)}
    return [[newpos[compact[old][s]] for s in range(n)] for old in order]


class CoxeterSystem:
    """A finite Coxeter group with dense multiplication tables.

    Elements are integers 0..size-1 with 0 the identity.  right_table[w][s]
    is w*s and left_table[w][s] is s*w.
    """

    def __init__(self, matrix: CoxeterMatrix, cap: int | None = None, name: str | None = None):
        cap = default_cap() if cap is None else cap
        self.cap = cap
        self.matrix = matrix
        self.name = name
        self.rank = matrix.rank
        self.right_table = _enumerate(matrix, cap)
        self.size = len(self.right_table)

        # lengths: geodesic distance from the identity in the Cayley graph
        self.length = [-1] * self.size
        self.length[0] = 0
        self._bfs_parent = [-1] * self.size
        self._bfs_letter = [-1] * self.size
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                for s in range(self.rank):
                    u = self.right_table[w][s]
                    if self.length[u] == -1:
                        self.length[u] = self.length[w] + 1
                        self._bfs_parent[u] = w
                        self._bfs_letter[u] = s
                        nxt.append(u)
            frontier = nxt

        # left multiplication: s*(p*t) = (s*p)*t along the BFS forest
        by_length = sorted(range(self.size), key=lambda w: (self.length[w], w))
        self.left_table = [[-1] * self.rank for _ in range(self.size)]
        for w in by_length:
            if w == 0:
                self.left_table[0] = list(self.right_table[0])
                continue
            p, t = self._bfs_parent[w], self._bfs_letter[w]
            for s in range(self.rank):
                self.left_table[w][s] = self.right_table[self.left_table[p][s]][t]

        self.inverse = [-1] * self.size
        self.inverse[0] = 0
        for w in by_length:
            if w:
                p, t = self._bfs_parent[w], self._bfs_letter[w]
                self.inverse[w] = self.left_table[self.inverse[p]][t]

        full = frozenset(range(self.rank))
        self.gens = self.right_table[0]  # element index of each generator
        # at most 2^rank distinct ascent sets: keep one object for each
        subsets: dict[frozenset, frozenset] = {}

        def ascents(table, w):
            asc = frozenset(s for s in full if self.length[table[w][s]] > self.length[w])
            return subsets.setdefault(asc, asc)

        self._asc_left = [ascents(self.left_table, w) for w in range(self.size)]
        self._asc_right = [ascents(self.right_table, w) for w in range(self.size)]
        self.by_length = by_length
        self._parabolic_cache: dict[frozenset, list[int]] = {}
        self._gen_of_elem = {g: i for i, g in enumerate(self.gens)}
        self._reduced_words: dict[int, tuple[int, ...]] = {0: ()}
        # Hecke basis-change table: per target basis, a dict of rows and a
        # pool of their coefficients; hecke.HeckeElement.change_basis fills
        # it row by row on demand
        self.basis_change_rows: dict[str, tuple[dict, dict]] = {}

    # -- basics ------------------------------------------------------------

    @property
    def full_subset(self) -> frozenset:
        return frozenset(range(self.rank))

    def asc_right(self, w: int) -> frozenset:
        return self._asc_right[w]

    def desc_left(self, w: int) -> frozenset:
        return self.full_subset - self._asc_left[w]

    def desc_right(self, w: int) -> frozenset:
        return self.full_subset - self._asc_right[w]

    def ascent_sets(self, w: int) -> tuple[frozenset, frozenset]:
        return self._asc_left[w], self._asc_right[w]

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
        if self.length[self.by_length[-2]] == self.length[top]:
            raise RuntimeError("longest element is not unique; table corrupt")
        return top

    def elem_name(self, w: int) -> str:
        """Render as a reduced word, e.g. "s1*s2*s1"; the identity is "e"."""
        word = self.reduced_word(w)
        return "*".join(f"s{s + 1}" for s in word) if word else "e"

    def parse_elem(self, text: str) -> int:
        text = text.strip()
        if text == "e":
            return 0
        word = []
        for part in text.split("*"):
            m = re.fullmatch(r"s(\d+)", part.strip())
            if not m or not (1 <= int(m.group(1)) <= self.rank):
                raise ValueError(f"bad element {text!r}")
            word.append(int(m.group(1)) - 1)
        return self.word_to_elem(word)

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

    def min_coset_reps(self, I, side: str = "left") -> list[int]:
        """Minimal representatives of the cosets of W_I, sorted by (length, index).

        side="left" gives representatives of the left cosets w*W_I (no right
        descent inside I); side="right" gives those of W_I*w.
        """
        I = self.check_subset(I)
        if side == "left":
            return [w for w in self.by_length if I <= self._asc_right[w]]
        if side == "right":
            return [w for w in self.by_length if I <= self._asc_left[w]]
        raise ValueError("side must be 'left' or 'right'")

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

    def left_parabolic_factorize(self, w: int, J) -> tuple[int, int]:
        """Split w = y*x with y in W_J and x having no left descent in J."""
        J = self.check_subset(J)
        y_letters: list[int] = []
        while True:
            ds = self.desc_left(w) & J
            if not ds:
                break
            s = min(ds)
            y_letters.append(s)
            w = self.left_table[w][s]
        y = 0
        for s in y_letters:
            y = self.right_table[y][s]
        return y, w

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
        u, tau = self.left_parabolic_factorize(x, J)
        return u, tau, v

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
    """Resolve a name, Coxeter matrix, or JSON-style dict to a cached system."""
    if isinstance(spec, CoxeterSystem):
        return spec
    if isinstance(spec, str):
        matrix, name = CoxeterMatrix.named(spec), spec
    elif isinstance(spec, CoxeterMatrix):
        matrix, name = spec, None
    elif isinstance(spec, dict):
        matrix, name = CoxeterMatrix.from_json_obj(spec), None
    else:
        matrix, name = CoxeterMatrix.from_lists(spec), None
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


def type_a_transversal_lines(m: int, n: int) -> list[tuple[int, ...]]:
    """One-line forms of the (m, n)-shuffles: increasing on 1..m and on m+1..m+n.

    Generated directly from value-set choices, independent of any group table.
    """
    lines = []
    values = range(1, m + n + 1)
    for first in combinations(values, m):
        rest = tuple(x for x in values if x not in first)
        lines.append(first + rest)
    return lines


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
