"""Two-parameter Hecke algebra arithmetic over Z[a,b].

Elements live in H_W(a,b), the free module on the group with generators
satisfying pi_s^2 = a*pi_s + b.  Two bases are supported: the standard one
("pi") and the shifted one ("opi", opi_s = pi_s - a), whose descent rule is
the standard one with a negated.  Products of basis words are computed by
folding reduced words one generator at a time, so only the quadratic rule
and the length-additive concatenation rule are ever used.  Basis change reads
a per-system table whose row w expands the old basis element w in the new
basis; each row is built once, from the row of s*w for the first letter s of
w's reduced word, so the rows fill along reduced-word prefixes.

Also here: the standard (anti-)automorphisms built from the longest element,
the parameter flip and arrow reversal, conjugation isomorphisms between
parabolic subalgebras, and the braid-expansion identity check.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem
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
        if self.system is not other.system and self.system.matrix != other.system.matrix:
            raise ValueError("elements belong to different Coxeter systems")
        if self.basis != other.basis:
            raise BasisMismatch(f"cannot mix bases {self.basis!r} and {other.basis!r}")

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return frozenset(self.coeffs)

    def coeff(self, w: int) -> BiPoly:
        return self.coeffs.get(w, BiPoly.zero())

    def specialize_coeffs(self, params) -> dict:
        """Coefficients as Fractions at a fixed parameter point."""
        return {w: c.specialize(params) for w, c in self.coeffs.items()}

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
        if self.system is not other.system and self.system.matrix != other.system.matrix:
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

    def __mul__(self, other):
        if isinstance(other, (int, BiPoly)):
            return self.scale(other)
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
    b at s*v.  Rows
    live on the system, one dict per target basis beside a pool that keeps
    each distinct coefficient once (a table holds few distinct polynomials);
    rows are never mutated.
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
    """Algebra or anti-algebra morphism data, validated at construction.

    Generator images must satisfy the quadratic relation and every braid
    relation of the domain subset; both are checked symbolically, so an
    invalid spec fails fast.  kind="anti" means products reverse under
    application.
    """

    __slots__ = ("system", "kind", "name", "domain", "codomain", "images")

    def __init__(self, system, kind, images, name="custom", domain=None, codomain=None):
        if kind not in ("auto", "anti"):
            raise ValueError(f"unknown morphism kind {kind!r}")
        domain = system.full_subset if domain is None else system.check_subset(domain)
        codomain = system.full_subset if codomain is None else system.check_subset(codomain)
        if set(images) != set(domain):
            raise ValueError("images must cover exactly the domain generators")
        for i, img in images.items():
            if img.basis != "pi":
                raise ValueError("generator images must be given in the pi basis")
            for w in img.support():
                if not system.in_parabolic(w, codomain):
                    raise ValueError(f"image of generator {i} leaves the codomain subalgebra")
        self.system = system
        self.kind = kind
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.images = dict(images)
        self._validate()

    def _validate(self):
        sys = self.system
        unit = HeckeElement.unit(sys)
        for i, img in self.images.items():
            if img * img != img.scale(A) + unit.scale(B):
                raise ValueError(f"image of generator {i} violates the quadratic relation")
        dom = sorted(self.domain)
        for x in range(len(dom)):
            for y in range(x + 1, len(dom)):
                i, j = dom[x], dom[y]
                m = sys.matrix.orders[i][j]
                if _alternating(self.images[i], self.images[j], m) != _alternating(
                    self.images[j], self.images[i], m
                ):
                    raise ValueError(f"images of generators {i}, {j} violate the braid relation")

    def __call__(self, x: HeckeElement) -> HeckeElement:
        return apply_morphism(self, x)

    def __repr__(self):
        return f"<{self.kind} morphism {self.name!r} on {sorted(self.domain)}>"


def _alternating(first: HeckeElement, second: HeckeElement, n: int) -> HeckeElement:
    acc = HeckeElement.unit(first.system)
    for t in range(n):
        acc = acc * (first if t % 2 == 0 else second)
    return acc


def apply_morphism(spec: MorphismSpec, x: HeckeElement) -> HeckeElement:
    """Image of x; anti morphisms reverse each basis word's letter order."""
    orig = x.basis
    if orig != "pi":
        x = x.change_basis("pi")
    sys = x.system
    if sys is not spec.system and sys.matrix != spec.system.matrix:
        raise ValueError("element and morphism belong to different systems")
    full = len(spec.domain) == sys.rank
    acc: dict[int, BiPoly] = {}
    for w, c in x.coeffs.items():
        if not full and not sys.in_parabolic(w, spec.domain):
            raise SupportOutsideDomain(
                f"element support touches {sys.elem_name(w)}, outside the domain subalgebra"
            )
        word = sys.reduced_word(w)
        if spec.kind == "anti":
            word = word[::-1]
        img = HeckeElement.unit(sys)
        for s in word:
            img = img * spec.images[s]
        for v, d in img.coeffs.items():
            _add_term(acc, v, c * d)
    out = HeckeElement(sys, acc, "pi")
    return out.change_basis(orig) if orig != "pi" else out


# -- the standard morphisms -----------------------------------------------


def _longest_conj_gen(system, i):
    w0 = system.longest()
    return system.gens.index(system.conjugate(w0, system.gens[i]))


def phi(system) -> MorphismSpec:
    """Automorphism relabelling generators through the longest element."""
    images = {i: HeckeElement.gen(system, _longest_conj_gen(system, i)) for i in range(system.rank)}
    return MorphismSpec(system, "auto", images, name="phi")


def theta(system) -> MorphismSpec:
    """Automorphism sending each generator to a minus itself."""
    a_unit = HeckeElement.unit(system).scale(A)
    images = {i: a_unit - HeckeElement.gen(system, i) for i in range(system.rank)}
    return MorphismSpec(system, "auto", images, name="theta")


def chi(system) -> MorphismSpec:
    """Anti-automorphism fixing the generators; reverses basis words."""
    images = {i: HeckeElement.gen(system, i) for i in range(system.rank)}
    return MorphismSpec(system, "anti", images, name="chi")


def omega(system) -> MorphismSpec:
    """The composite of the relabelling and flip automorphisms."""
    a_unit = HeckeElement.unit(system).scale(A)
    images = {
        i: a_unit - HeckeElement.gen(system, _longest_conj_gen(system, i))
        for i in range(system.rank)
    }
    return MorphismSpec(system, "auto", images, name="omega")


def phi_hat(system) -> MorphismSpec:
    return MorphismSpec(system, "anti", phi(system).images, name="phi_hat")


def theta_hat(system) -> MorphismSpec:
    return MorphismSpec(system, "anti", theta(system).images, name="theta_hat")


def omega_hat(system) -> MorphismSpec:
    return MorphismSpec(system, "anti", omega(system).images, name="omega_hat")


def c_w_morphism(system, w: int, J, I) -> MorphismSpec:
    """Conjugation isomorphism between cross-section parabolic subalgebras.

    Requires w minimal in its (J, I) double coset; maps the basis element of
    each cross-section generator j to that of w^{-1} j w inside I.
    """
    K, K_conj, pairing = system.cross_section(w, J, I)
    images = {j: HeckeElement.gen(system, i) for j, i in pairing.items()}
    return MorphismSpec(system, "auto", images, name="c_w", domain=K, codomain=K_conj)


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


def verify_algebra(system, sample: int | None = None, seed: int = 0):
    """Defining relations and basis multiplication, symbolic over Z[a,b].

    With sample=None every ordered pair of basis elements is multiplied;
    otherwise that many seeded pairs.  Each product is recomputed through
    the shifted basis as an independent route: both factors are re-expanded
    there, multiplied with the negated descent rule, and converted back.
    """
    import random

    from .report import VerificationReport

    size = system.size
    rep = VerificationReport(
        title="algebra relations and basis products",
        instance={"group": system.name or f"rank {system.rank}", "size": size,
                  "pairs": "all" if sample is None else sample},
        seed=None if sample is None else seed,
    )

    unit = HeckeElement.unit(system)
    squares_ok = True
    for i in range(system.rank):
        g = HeckeElement.gen(system, i)
        if g * g != g.scale(A) + unit.scale(B):
            squares_ok = False
    rep.add("generator squares follow the quadratic relation", squares_ok)

    if sample is None:
        pairs = [(v, w) for v in range(size) for w in range(size)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(sample)]

    basis = [HeckeElement.basis_elt(system, w) for w in range(size)]
    shifted = [basis[w].change_basis("opi") for w in range(size)]
    length = system.length
    # exhaustive runs on large groups stride the costly re-expansion route;
    # sampled runs keep it on every sampled pair
    if sample is None and size > 24:
        route_pairs = pairs[::max(1, len(pairs) // 300)]
    else:
        route_pairs = pairs
    additive_ok, additive_count = True, 0
    route_ok = True
    route_set = set(route_pairs)
    for v, w in pairs:
        prod = basis[v] * basis[w]
        vw = system.mult(v, w)
        if length[v] + length[w] == length[vw]:
            additive_count += 1
            if prod != basis[vw]:
                additive_ok = False
        if (v, w) in route_set and prod != (shifted[v] * shifted[w]).change_basis("pi"):
            route_ok = False
    rep.add("length-additive products concatenate to one basis element",
            additive_ok, detail={"pairs": additive_count})
    rep.add("products agree with the shifted-basis route", route_ok,
            detail={"pairs": len(route_pairs)})

    rng = random.Random(seed + 1)
    triples = [tuple(rng.randrange(size) for _ in range(3)) for _ in range(50)]
    assoc_ok = all(
        (basis[x] * basis[y]) * basis[z] == basis[x] * (basis[y] * basis[z])
        for x, y, z in triples
    )
    rep.add("associativity holds on sampled triples", assoc_ok,
            detail={"triples": len(triples)})
    return rep
