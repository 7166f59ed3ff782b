"""Two-parameter Hecke algebra arithmetic over Z[a,b].

Elements live in H_W(a,b), the free module on the group with generators
satisfying pi_s^2 = a*pi_s + b.  Two bases are supported: the standard one
("pi") and the shifted one ("opi", opi_s = pi_s - a), whose descent rule is
the standard one with a negated.  Products of basis words are computed by
folding reduced words one generator at a time with the left rule L_s.
`verify_algebra` proves this product associative, with the quadratic and
braid relations, over all of W: L_s and the right rule R_t commute on every
basis element, so phi(f) = f(T_1) is a bijection from the algebra generated
by the L_s onto the module, because the commuting R_w reach every T_w
(Humphreys, Reflection Groups and Coxeter Groups, 1990, 7.3).  Basis change
reads a per-system table whose row w expands the old basis element w in the
new basis; each row is built once, from the row of s*w for the first letter
s of w's reduced word, so the rows fill along reduced-word prefixes.

Also here: the standard (anti-)automorphisms built from the longest element,
the parameter flip and arrow reversal, conjugation isomorphisms between
parabolic subalgebras (generator relabellings, valid by Coxeter orders alone,
that relabel the basis words of elements), and the braid-expansion check.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem
from .report import VerificationReport
from .scalars import A, B, BiPoly

__all__ = [
    "BasisMismatch",
    "SupportOutsideDomain",
    "HeckeElement",
    "MorphismSpec",
    "apply_morphism",
    "phi",
    "theta",
    "chi",
    "omega",
    "phi_hat",
    "theta_hat",
    "omega_hat",
    "c_w_morphism",
    "check_theta_braid",
    "check_conjugation_commutation",
    "verify_algebra",
]

_BASES = ("pi", "opi")
# the a-coefficient of each basis's descent rule: x_s * x_s = +-a*x_s + b
_DESCENT_A = {"pi": A, "opi": -A}


class BasisMismatch(ValueError):
    pass


class SupportOutsideDomain(ValueError):
    pass


def _as_poly(c) -> BiPoly:
    return c if isinstance(c, BiPoly) else BiPoly.const(c)


def _add_term(acc: dict, w: int, c: BiPoly):
    cur = acc.get(w)
    tot = c if cur is None else cur + c
    if tot:
        acc[w] = tot
    elif cur is not None:
        del acc[w]


class HeckeElement:
    """Immutable sparse element of H_W(a,b) in a fixed basis."""

    __slots__ = ("system", "basis", "coeffs")

    def __init__(self, system: CoxeterSystem, coeffs, basis: str = "pi"):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for w, c in coeffs.items():
            if not 0 <= w < system.size:
                raise ValueError(f"element index {w} out of range")
            c = _as_poly(c)
            if c:
                clean[w] = c
        self.system = system
        self.basis = basis
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, system, basis="pi"):
        return cls(system, {}, basis)

    @classmethod
    def unit(cls, system, basis="pi"):
        return cls(system, {0: BiPoly.one()}, basis)

    @classmethod
    def basis_elt(cls, system, w: int, basis="pi"):
        return cls(system, {w: BiPoly.one()}, basis)

    @classmethod
    def gen(cls, system, i: int, basis="pi"):
        return cls(system, {system.gens[i]: BiPoly.one()}, basis)

    # -- helpers -----------------------------------------------------------

    def _require_compatible(self, other: "HeckeElement"):
        if not self.system.same_group(other.system):
            raise ValueError("elements belong to different Coxeter systems")
        if self.basis != other.basis:
            raise BasisMismatch(f"cannot mix bases {self.basis!r} and {other.basis!r}")

    def support(self):
        return frozenset(self.coeffs)

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        self._require_compatible(other)
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            _add_term(acc, w, c)
        return HeckeElement(self.system, acc, self.basis)

    def __neg__(self):
        return HeckeElement(self.system, {w: -c for w, c in self.coeffs.items()}, self.basis)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "HeckeElement":
        c = _as_poly(c)
        return HeckeElement(self.system, {w: c * v for w, v in self.coeffs.items()}, self.basis)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self.basis != other.basis:
            return False
        if not self.system.same_group(other.system):
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.basis, frozenset(self.coeffs.items())))

    # -- multiplication ----------------------------------------------------

    def _gen_left(self, s: int, coeffs: dict) -> dict:
        """Coefficients of (generator s) * (element with given coeffs)."""
        sys = self.system
        length, table = sys.length, sys.left_table
        a_coef = _DESCENT_A[self.basis]
        out: dict[int, BiPoly] = {}
        for w, c in coeffs.items():
            sw = table[w][s]
            if length[sw] > length[w]:
                _add_term(out, sw, c)
            else:
                _add_term(out, w, c * a_coef)
                _add_term(out, sw, c * B)
        return out

    def _gen_right(self, t: int, coeffs: dict) -> dict:
        """Coefficients of (element with given coeffs) * (generator t)."""
        sys = self.system
        length, table = sys.length, sys.right_table
        a_coef = _DESCENT_A[self.basis]
        out: dict[int, BiPoly] = {}
        for w, c in coeffs.items():
            wt = table[w][t]
            if length[wt] > length[w]:
                _add_term(out, wt, c)
            else:
                _add_term(out, w, c * a_coef)
                _add_term(out, wt, c * B)
        return out

    def __mul__(self, other):
        if not isinstance(other, HeckeElement):
            return self.__rmul__(other)
        self._require_compatible(other)
        sys = self.system
        acc: dict[int, BiPoly] = {}
        for v, c in self.coeffs.items():
            # basis word times other, one generator at a time from the right
            cur = other.coeffs
            for s in reversed(sys.reduced_word(v)):
                cur = self._gen_left(s, cur)
            for w, d in cur.items():
                _add_term(acc, w, c * d)
        return HeckeElement(sys, acc, self.basis)

    def __rmul__(self, other):
        if isinstance(other, (int, BiPoly)):
            return self.scale(other)
        return NotImplemented

    # -- basis change ------------------------------------------------------

    def change_basis(self, to: str) -> "HeckeElement":
        """Re-expand in the other basis; round trip is the identity.

        The result is the sum of c * row(w) over the terms c*old_w, with
        row(w) the expansion of the old basis element w in the basis `to`,
        read from the system's basis-change table (see _basis_row).
        """
        if to not in _BASES:
            raise ValueError(f"unknown basis {to!r}")
        if to == self.basis:
            return self
        sys = self.system
        acc: dict[int, BiPoly] = {}
        for w, c in self.coeffs.items():
            for v, d in _basis_row(sys, to, w).items():
                _add_term(acc, v, c * d)
        return HeckeElement(sys, acc, to)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        sys = self.system
        order = sorted(self.coeffs, key=lambda w: (-sys.length[w], w))
        return " + ".join(f"({self.coeffs[w]})*{self.basis}[{sys.elem_name(w)}]" for w in order)

    def __repr__(self):
        return str(self)


def _basis_row(sys: CoxeterSystem, to: str, w: int) -> dict[int, BiPoly]:
    """Row w of the basis-change table into basis `to`, built on first use.

    With s the smallest left descent of w, old_w = old_s * old_{s*w} and
    old_s = new_s + shift (pi_s = opi_s + a, opi_s = pi_s - a), so the row
    is (new_s + shift) times the row of s*w.  Where s*v is shorter than v
    the descent rule's a-term (the negated shift) cancels the shift, leaving
    b at s*v.  Rows live on the system, one dict per target basis beside a
    pool that keeps each distinct coefficient once (a table holds few
    distinct polynomials); rows are never mutated.
    """
    table = sys.basis_change_rows.get(to)
    if table is None:
        one = BiPoly.one()
        table = sys.basis_change_rows[to] = ({0: {0: one}}, {one: one})
    rows, pool = table
    row = rows.get(w)
    if row is not None:
        return row
    chain = []
    while w not in rows:
        s = min(sys.desc_left(w))
        chain.append((w, s))
        w = sys.left_table[w][s]
    row = rows[w]
    shift = -_DESCENT_A[to]
    length, left = sys.length, sys.left_table
    for w, s in reversed(chain):
        new: dict[int, BiPoly] = {}
        for v, c in row.items():
            sv = left[v][s]
            if length[sv] > length[v]:
                _add_term(new, sv, c)
                _add_term(new, v, c * shift)
            else:
                _add_term(new, sv, c * B)
        rows[w] = row = {v: pool.setdefault(c, c) for v, c in new.items()}
    return row


class MorphismSpec:
    """A generator relabelling, as an algebra or anti-algebra morphism.

    Generator i goes to pi_{relabel[i]}, or to a - pi_{relabel[i]} with flip;
    kind="anti" reverses products.  The images obey the quadratic relation,
    and the braid relation of i, k holds exactly when the order m' of
    relabel[i]*relabel[k] divides the order m of i*k: then the alternating
    image words of length m are powers of equal words of length m' (flipped
    ones too, the flip being an automorphism); else they differ at a = 0,
    b = 1, the group algebra, by (s*t)^m != 1 (Humphreys, 1990, 7.1).  The
    spec keeps only the relabelling, which `apply_morphism` reads.
    """

    __slots__ = ("system", "kind", "name", "domain", "codomain", "relabel", "flip")

    def __init__(self, system, kind, relabel, flip=False, name="custom", domain=None,
                 codomain=None):
        if kind not in ("auto", "anti"):
            raise ValueError(f"unknown morphism kind {kind!r}")
        domain = system.full_subset if domain is None else system.check_subset(domain)
        codomain = system.full_subset if codomain is None else system.check_subset(codomain)
        if set(relabel) != set(domain):
            raise ValueError("relabel must cover exactly the domain generators")
        for i, j in relabel.items():
            if j not in codomain:
                raise ValueError(f"image of generator {i} leaves the codomain subalgebra")
        orders = system.matrix.orders
        dom = sorted(domain)
        for x, i in enumerate(dom):
            for k in dom[x + 1:]:
                if orders[i][k] % orders[relabel[i]][relabel[k]]:
                    raise ValueError(f"images of generators {i}, {k} violate the braid relation")
        self.system = system
        self.kind = kind
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.relabel = dict(relabel)
        self.flip = flip

    def __call__(self, x: HeckeElement) -> HeckeElement:
        return apply_morphism(self, x)

    def restricted(self, domain, codomain) -> "MorphismSpec":
        """The same morphism on the generators of domain, its images read in
        the parabolic subalgebra of codomain."""
        return MorphismSpec(self.system, self.kind, {j: self.relabel[j] for j in domain},
                            self.flip, name=f"{self.name}-restricted",
                            domain=domain, codomain=codomain)

    def __repr__(self):
        return f"<{self.kind} morphism {self.name!r} on {sorted(self.domain)}>"


def _alternating(first: HeckeElement, second: HeckeElement, n: int) -> HeckeElement:
    acc = HeckeElement.unit(first.system)
    for t in range(n):
        acc = acc * (first if t % 2 == 0 else second)
    return acc


def apply_morphism(spec: MorphismSpec, x: HeckeElement) -> HeckeElement:
    """Image of x, read from the relabelling r = spec.relabel.

    pi_s -> pi_r(s), opi_s -> opi_r(s); with flip, pi_s -> a - pi_r(s) =
    -opi_r(s) and opi_s -> -pi_r(s).  So T_w goes to its relabelled letters
    (reversed for anti) folded by `_gen_left` as `__mul__` folds a word, in
    x's basis, or in the other with sign (-1)^l(w) under flip.  Exact for
    every accepted spec, merging ones too: the spec is a morphism, so any
    reduced word gives T_w's image, and `verify_algebra` proves the left rule
    associative in both bases and basis change an algebra isomorphism.

    >>> from hecke_kit.coxeter import get_system
    >>> A2 = get_system("A2")
    >>> s1, s2 = HeckeElement.gen(A2, 0), HeckeElement.gen(A2, 1)
    >>> apply_morphism(phi(A2), s1) == s2 and apply_morphism(phi(A2), s2) == s1
    True
    >>> print(apply_morphism(theta(A2), s1))
    (-1)*pi[s1] + (a)*pi[e]
    """
    sys = x.system
    if not sys.same_group(spec.system):
        raise ValueError("element and morphism belong to different systems")
    basis = {"pi": "opi", "opi": "pi"}[x.basis] if spec.flip else x.basis
    rule = HeckeElement.zero(sys, basis)
    acc: dict[int, BiPoly] = {}
    for w, c in x.coeffs.items():
        word = sys.reduced_word(w)
        if not spec.domain.issuperset(word):
            raise SupportOutsideDomain(
                f"element support touches {sys.elem_name(w)}, outside the domain subalgebra"
            )
        if spec.kind == "auto":
            word = word[::-1]
        cur = {0: -c if spec.flip and len(word) % 2 else c}
        for s in word:
            cur = rule._gen_left(spec.relabel[s], cur)
        for v, d in cur.items():
            _add_term(acc, v, d)
    return HeckeElement(sys, acc, basis).change_basis(x.basis)


# -- the standard morphisms -----------------------------------------------


def _relabel(system, through_w0: bool) -> dict[int, int]:
    """Each generator to itself, or to its conjugate by the longest element."""
    w0 = system.longest() if through_w0 else 0
    return {i: system.gens.index(system.conjugate(w0, g)) for i, g in enumerate(system.gens)}


def phi(system) -> MorphismSpec:
    """Automorphism relabelling generators through the longest element."""
    return MorphismSpec(system, "auto", _relabel(system, True), name="phi")


def theta(system) -> MorphismSpec:
    """Automorphism sending each generator to a minus itself."""
    return MorphismSpec(system, "auto", _relabel(system, False), flip=True, name="theta")


def chi(system) -> MorphismSpec:
    """Anti-automorphism fixing the generators; reverses basis words."""
    return MorphismSpec(system, "anti", _relabel(system, False), name="chi")


def omega(system) -> MorphismSpec:
    """The composite of the relabelling and flip automorphisms."""
    return MorphismSpec(system, "auto", _relabel(system, True), flip=True, name="omega")


def phi_hat(system) -> MorphismSpec:
    return MorphismSpec(system, "anti", _relabel(system, True), name="phi_hat")


def theta_hat(system) -> MorphismSpec:
    return MorphismSpec(system, "anti", _relabel(system, False), flip=True, name="theta_hat")


def omega_hat(system) -> MorphismSpec:
    return MorphismSpec(system, "anti", _relabel(system, True), flip=True, name="omega_hat")


def c_w_morphism(system, w: int, J, I) -> MorphismSpec:
    """Conjugation isomorphism between cross-section parabolic subalgebras.

    Requires w minimal in its (J, I) double coset; maps the basis element of
    each cross-section generator j to that of w^{-1} j w inside I.
    """
    K, K_conj, pairing = system.cross_section(w, J, I)
    return MorphismSpec(system, "auto", pairing, name="c_w", domain=K, codomain=K_conj)


# -- symbolic identity checks ---------------------------------------------


def check_theta_braid(system, i: int, j: int) -> bool:
    """Braid expansion of alternating (pi - a) products, all lengths.

    Verifies, for 1 <= n <= m_ij, that the alternating product of n shifted
    generators equals the alternating basis product plus the tail of shorter
    alternating products weighted by the degree-lowering sequence
    y_0 = 0, y_1 = -a, y_n = -a*y_{n-1} + b*y_{n-2}.
    """
    from .scalars import y_seq

    if i == j:
        raise ValueError("generators must differ")
    m = system.matrix.orders[i][j]
    unit = HeckeElement.unit(system)
    a_unit = unit.scale(A)
    gi = HeckeElement.gen(system, i)
    gj = HeckeElement.gen(system, j)
    ys = y_seq(m + 1)
    for n in range(1, m + 1):
        lhs = _alternating(gi - a_unit, gj - a_unit, n)
        rhs = _alternating(gi, gj, n)
        for t in range(1, n):
            rhs = rhs + (_alternating(gi, gj, t) + _alternating(gj, gi, t)).scale(ys[n - t])
        rhs = rhs + unit.scale(ys[n])
        if lhs != rhs:
            return False
    return True


def check_conjugation_commutation(system, w: int, J, I) -> bool:
    """Sliding a cross-section element past the minimal representative.

    For every basis element kappa of the cross-section parabolic,
    pi_kappa * pi_w must equal pi_w * c_w(pi_kappa).
    """
    spec = c_w_morphism(system, w, J, I)
    pw = HeckeElement.basis_elt(system, w)
    for kappa in system.parabolic_elements(spec.domain):
        pk = HeckeElement.basis_elt(system, kappa)
        if pk * pw != pw * apply_morphism(spec, pk):
            return False
    return True


def verify_algebra(system):
    """The defining relations of H(a, b), proved over all of W in both bases.

    If L_s = `_gen_left` and R_t = `_gen_right` commute on every T_w, then
    phi(f) = f(T_1) is a bijection from the algebra generated by the L_s onto
    the free module: onto, as L along a reduced word of w sends T_1 to T_w;
    one-to-one, as f commutes with R_w, so f(T_w) = f(R_w T_1) = R_w f(T_1).
    The product carried over is `__mul__`, which is therefore associative and
    satisfies the quadratic and braid relations (Humphreys, Reflection Groups
    and Coxeter Groups, 1990, 7.1-7.3).  Basis change C is then an algebra
    isomorphism if C(L^pi_s T_w) = (L^opi_s + a) C(T_w), as pi_s = opi_s + a.
    The proof takes the group's tables as given; the concatenation check
    tests them.
    """
    size, rank = system.size, system.rank
    rep = VerificationReport(
        title="algebra relations proved by commuting generator rules",
        instance={"group": system.name or f"rank {rank}", "size": size},
    )

    def add_proof(name, failures, checks):
        # a failure names its rules and basis element, e.g. "L_s1 R_s2 on T_s3"
        detail = {"checks": checks}
        if failures:
            detail.update(failed=len(failures), first=failures[0])
        rep.add(name, not failures, detail=detail)

    unit, one = HeckeElement.unit(system), BiPoly.one()
    gens = [HeckeElement.gen(system, i) for i in range(rank)]
    rep.add("generator squares follow the quadratic relation",
            all(g * g == g.scale(A) + unit.scale(B) for g in gens))

    for basis in _BASES:
        x = HeckeElement.unit(system, basis)
        failures = [f"L_s{s + 1} R_s{t + 1} on T_{system.elem_name(w)}"
                    for w in range(size) for s in range(rank) for t in range(rank)
                    if x._gen_left(s, x._gen_right(t, {w: one}))
                    != x._gen_right(t, x._gen_left(s, {w: one}))]
        add_proof(f"left and right generator rules commute in the {basis} basis",
                  failures, rank * rank * size)

    shifted = HeckeElement.unit(system, "opi")
    failures = []
    for w in range(size):
        cw = HeckeElement.basis_elt(system, w).change_basis("opi")
        for s in range(rank):
            lhs = HeckeElement(system, unit._gen_left(s, {w: one})).change_basis("opi")
            rhs = HeckeElement(system, shifted._gen_left(s, cw.coeffs), "opi") + cw.scale(A)
            if lhs != rhs:
                failures.append(f"L_s{s + 1} on T_{system.elem_name(w)}")
    add_proof("basis change intertwines the left generator rules", failures, rank * size)

    basis = [HeckeElement.basis_elt(system, w) for w in range(size)]
    length = system.length
    # T_w * T_s = T_ws and T_s * T_w = T_sw wherever the length goes up
    concat = [basis[p] * basis[q] == basis[u] for w in range(size) for g in system.gens
              for u, p, q in ((system.mult(w, g), w, g), (system.mult(g, w), g, w))
              if length[u] > length[w]]
    rep.add("length-additive products concatenate to one basis element",
            all(concat), detail={"pairs": len(concat)})
    return rep
