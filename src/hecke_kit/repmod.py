"""Finite-dimensional modules over parabolic subalgebras at fixed parameters.

A module is a set of generator action matrices over Q at one specialization
(a0, b0).  Functors implemented here: restriction, induction along a subset
inclusion, outer tensor over commuting subsets, the induction product of two
symmetric-group modules, twisting by algebra (anti-)morphisms, and direct
sums.  Induction follows the transversal trichotomy: a generator applied to
a basis line either shifts it to a longer transversal element, commutes past
it into the source module, or splits by the quadratic rule.

Induced modules and direct sums remember how they were built; the hom-space
solver uses that to replace one big intertwiner system by smaller ones (a
found map is always re-verified directly, so the shortcut is not trusted).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .coxeter import CoxeterSystem, is_type_a, symmetric_group_system
from .hecke import HeckeElement, MorphismSpec, SupportOutsideDomain
from .linalg import RatMat, _q, intertwiner_rows, kernel_basis
from .scalars import ParamSpec

__all__ = [
    "ElementOutsideParabolic",
    "NotSubset",
    "NonCommutingSubsets",
    "ParamMismatch",
    "InvalidScalar",
    "InducedInfo",
    "HeckeModule",
    "ModuleMap",
    "validate",
    "act_word",
    "act_letters",
    "act_elem",
    "restrict",
    "induce",
    "outer_tensor",
    "embed",
    "product_factor",
    "boxtimes",
    "twist_along",
    "direct_sum",
    "regular",
    "scalar",
    "scalar_roots",
    "companion",
    "one_dim_factor",
    "random_conjugate",
    "hom_space",
    "iso_test",
    "iso_test_detail",
    "module_to_json_obj",
    "module_from_json_obj",
]


class ElementOutsideParabolic(ValueError):
    pass


class NotSubset(ValueError):
    pass


class NonCommutingSubsets(ValueError):
    pass


class ParamMismatch(ValueError):
    pass


class InvalidScalar(ValueError):
    pass


@dataclass
class InducedInfo:
    """How an induced module was assembled from its source."""

    source: "HeckeModule"
    transversal: list[int]                    # minimal coset reps, (length, index) order
    pairs: list[tuple[int, int]]              # basis lines (gamma, source index)
    parent: dict[int, tuple[int, int]]        # gamma -> (shorter rep, letter), gamma != e
    pos: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.pos:
            self.pos = {g: i for i, g in enumerate(self.transversal)}


class HeckeModule:
    """Immutable module data: generator matrices over Q for one subset."""

    __slots__ = ("system", "subset", "params", "dim", "gen_action", "labels",
                 "induced", "summands", "offsets")

    def __init__(self, system: CoxeterSystem, subset, params: ParamSpec, dim: int,
                 gen_action: dict[int, RatMat], labels=None,
                 induced: Optional[InducedInfo] = None, summands=None):
        subset = system.check_subset(subset)
        if set(gen_action) != set(subset):
            raise ValueError("gen_action keys must match the subset")
        for i, mat in gen_action.items():
            if (mat.nrows, mat.ncols) != (dim, dim):
                raise ValueError(f"action of generator {i} has shape "
                                 f"{mat.nrows}x{mat.ncols}, expected {dim}x{dim}")
        self.system = system
        self.subset = subset
        self.params = params
        self.dim = dim
        self.gen_action = dict(gen_action)
        self.labels = labels
        self.induced = induced
        self.summands = list(summands) if summands else None
        if self.summands:
            offs, acc = [], 0
            for part in self.summands:
                offs.append(acc)
                acc += part.dim
            self.offsets = offs
        else:
            self.offsets = None

    def __repr__(self):
        gens = "{" + ",".join(f"s{i + 1}" for i in sorted(self.subset)) + "}"
        return f"<HeckeModule dim={self.dim} over H_{gens} of {self.system.name} at ({self.params})>"

    def act(self, i: int) -> RatMat:
        if i not in self.subset:
            raise ElementOutsideParabolic(f"generator {i} not in module subset")
        return self.gen_action[i]

    def is_valid(self) -> bool:
        return all(ok for _, ok, _ in validate(self))

    def same_algebra(self, other: "HeckeModule") -> bool:
        return (
            (self.system is other.system or self.system.matrix == other.system.matrix)
            and self.subset == other.subset
            and self.params == other.params
        )


def validate(M: HeckeModule) -> list[tuple[str, bool, int | Fraction]]:
    """Check the defining relations; one (name, ok, residual) entry each."""
    a0, b0 = M.params.a0, M.params.b0
    ident = RatMat.identity(M.dim)
    out = []
    gens = sorted(M.subset)
    for i in gens:
        mat = M.gen_action[i]
        resid = (mat @ mat - mat.scale(a0) - ident.scale(b0)).max_abs()
        out.append((f"quadratic s{i + 1}", resid == 0, resid))
    for x in range(len(gens)):
        for y in range(x + 1, len(gens)):
            i, j = gens[x], gens[y]
            m = M.system.matrix.orders[i][j]
            left = right = ident
            for t in range(m):
                left = left @ (M.gen_action[i] if t % 2 == 0 else M.gen_action[j])
                right = right @ (M.gen_action[j] if t % 2 == 0 else M.gen_action[i])
            resid = (left - right).max_abs()
            out.append((f"braid s{i + 1},s{j + 1} (m={m})", resid == 0, resid))
    return out


def act_letters(M: HeckeModule, letters) -> RatMat:
    """Product of generator matrices along an arbitrary word."""
    out = RatMat.identity(M.dim)
    for s in letters:
        out = out @ M.act(s)
    return out


def act_word(M: HeckeModule, y: int) -> RatMat:
    """Action matrix of the basis element of y; reduced-word independent."""
    if not M.system.in_parabolic(y, M.subset):
        raise ElementOutsideParabolic(
            f"{M.system.elem_name(y)} lies outside the parabolic of {sorted(M.subset)}"
        )
    return act_letters(M, M.system.reduced_word(y))


def act_elem(M: HeckeModule, x: HeckeElement) -> RatMat:
    """Action matrix of a symbolic algebra element, specialized at M.params."""
    if x.basis != "pi":
        x = x.change_basis("pi")
    out = RatMat.zeros(M.dim, M.dim)
    for w, c in x.specialize_coeffs(M.params).items():
        if c:
            out = out + act_word(M, w).scale(c)
    return out


# -- functors --------------------------------------------------------------


def restrict(M: HeckeModule, I_sub) -> HeckeModule:
    I_sub = M.system.check_subset(I_sub)
    if not I_sub <= M.subset:
        raise NotSubset(f"{sorted(I_sub)} is not a subset of {sorted(M.subset)}")
    parts = [restrict(p, I_sub) for p in M.summands] if M.summands else None
    return HeckeModule(
        M.system, I_sub, M.params, M.dim,
        {i: M.gen_action[i] for i in I_sub},
        labels=M.labels, summands=parts,
    )


def induce(M: HeckeModule, J) -> HeckeModule:
    """Tensor up along W_I <= W_J over the minimal coset transversal.

    Basis lines are (gamma, k), gamma running over the transversal in
    (length, index) order, block-major.  The result records the transversal
    tree (each gamma's unique shorter neighbour under its smallest left
    descent), which later map-building recursions reuse.
    """
    sys = M.system
    J = sys.check_subset(J)
    I = M.subset
    if not I <= J:
        raise NotSubset(f"{sorted(I)} is not a subset of {sorted(J)}")
    transversal = sys.parabolic_coset_reps(J, I)
    pos = {g: t for t, g in enumerate(transversal)}
    parent: dict[int, tuple[int, int]] = {}
    for g in transversal:
        if g != 0:
            j = min(sys.desc_left(g))
            parent[g] = (sys.left_table[g][j], j)
    d, a0, b0 = M.dim, _q(M.params.a0), _q(M.params.b0)
    dim = len(transversal) * d
    gen_action: dict[int, RatMat] = {}
    for j in J:
        mat = RatMat.zeros(dim, dim)
        for g in transversal:
            base = pos[g] * d
            sg = sys.left_table[g][j]
            if sys.length[sg] > sys.length[g]:
                tpos = pos.get(sg)
                if tpos is not None:
                    for k in range(d):
                        mat.cols[base + k][tpos * d + k] = 1
                else:
                    # s_j * gamma = gamma * s' with s' in I: act in the source
                    sp = sys.gens.index(sys.conjugate(g, sys.gens[j]))
                    blk = M.gen_action[sp]
                    for k in range(d):
                        col = mat.cols[base + k]
                        for r, v in blk.cols[k].items():
                            col[base + r] = v
            else:
                # descent: quadratic split, s_j*gamma stays in the transversal
                tpos = pos[sg]
                for k in range(d):
                    col = mat.cols[base + k]
                    if a0:
                        col[base + k] = a0
                    if b0:
                        col[tpos * d + k] = b0
        gen_action[j] = mat
    info = InducedInfo(
        source=M,
        transversal=transversal,
        pairs=[(g, k) for g in transversal for k in range(d)],
        parent=parent,
        pos=pos,
    )
    return HeckeModule(sys, J, M.params, dim, gen_action, induced=info)


def outer_tensor(M: HeckeModule, N: HeckeModule) -> HeckeModule:
    """Kronecker module over the union of two commuting subsets."""
    sys = M.system
    if sys is not N.system and sys.matrix != N.system.matrix:
        raise ValueError("outer tensor factors must share a system")
    if M.params != N.params:
        raise ParamMismatch(f"({M.params}) vs ({N.params})")
    I, J = M.subset, N.subset
    if I & J:
        raise NonCommutingSubsets(f"subsets overlap at {sorted(I & J)}")
    for i in I:
        for j in J:
            if sys.matrix.orders[i][j] != 2:
                raise NonCommutingSubsets(
                    f"generators s{i + 1}, s{j + 1} have order {sys.matrix.orders[i][j]} > 2"
                )
    idm, idn = RatMat.identity(M.dim), RatMat.identity(N.dim)
    gen_action = {i: RatMat.kron(M.gen_action[i], idn) for i in I}
    gen_action.update({j: RatMat.kron(idm, N.gen_action[j]) for j in J})
    return HeckeModule(sys, I | J, M.params, M.dim * N.dim, gen_action)


def embed(M: HeckeModule, big: CoxeterSystem, offset: int) -> HeckeModule:
    """Reindex a module's generators by a constant shift into a larger system."""
    shifted = {i + offset for i in M.subset}
    big.check_subset(shifted)
    small = M.system.matrix.orders
    for i in M.subset:
        for j in M.subset:
            if big.matrix.orders[i + offset][j + offset] != small[i][j]:
                raise ValueError("shifted subset does not preserve the Coxeter orders")
    return HeckeModule(big, shifted, M.params, M.dim,
                       {i + offset: M.gen_action[i] for i in M.subset})


def product_factor(M: HeckeModule, N: HeckeModule) -> HeckeModule:
    """The factor M (x) N whose induction is the induction product.

    M over all of S_m and N over all of S_n sit side by side inside S_{m+n}
    (generators of N shifted past the junction), as one module over the
    two-block parabolic.  S_{m+n} is enumerated under the smaller of the
    factor systems' caps.
    """
    for X in (M, N):
        if not is_type_a(X.system.matrix):
            raise ValueError("induction product is defined for symmetric groups only")
        if X.subset != X.system.full_subset:
            raise ValueError("induction product factors must live over the full subset")
    if M.params != N.params:
        raise ParamMismatch(f"({M.params}) vs ({N.params})")
    m = M.system.rank + 1
    n = N.system.rank + 1
    big = symmetric_group_system(m + n, cap=min(M.system.cap, N.system.cap))
    return outer_tensor(embed(M, big, 0), embed(N, big, m))


def boxtimes(M: HeckeModule, N: HeckeModule) -> HeckeModule:
    """Induction product of symmetric-group modules: the product factor
    induced up to the full algebra.  dim = C(m+n, m) * dimM * dimN.
    """
    T = product_factor(M, N)
    return induce(T, T.system.full_subset)


def twist_along(spec: MorphismSpec, M: HeckeModule) -> HeckeModule:
    """Precompose the action with a morphism; anti morphisms act on the dual.

    The result is a module over the spec's domain subset: each domain
    generator acts by the (specialized) image, transposed when the morphism
    reverses products.
    """
    sys = M.system
    if sys is not spec.system and sys.matrix != spec.system.matrix:
        raise ValueError("module and morphism belong to different systems")
    if not spec.codomain <= M.subset:
        raise SupportOutsideDomain(
            f"morphism images need generators {sorted(spec.codomain)}, "
            f"module only has {sorted(M.subset)}"
        )
    acts = {}
    for i in spec.domain:
        mat = act_elem(M, spec.images[i])
        acts[i] = mat.transpose() if spec.kind == "anti" else mat
    return HeckeModule(sys, spec.domain, M.params, M.dim, acts)


def direct_sum(parts) -> HeckeModule:
    parts = list(parts)
    if not parts:
        raise ValueError("direct_sum needs at least one part")
    first = parts[0]
    for p in parts[1:]:
        if not first.same_algebra(p):
            raise ValueError("direct sum parts must share system, subset, and params")
    gen_action = {
        i: RatMat.block_diag([p.gen_action[i] for p in parts]) for i in first.subset
    }
    return HeckeModule(first.system, first.subset, first.params,
                       sum(p.dim for p in parts), gen_action, summands=parts)


# -- constructors ----------------------------------------------------------


def regular(system: CoxeterSystem, I, params: ParamSpec) -> HeckeModule:
    """Left multiplication on the basis of H_I itself."""
    I = system.check_subset(I)
    elems = system.parabolic_elements(I)
    pos = {w: t for t, w in enumerate(elems)}
    a0, b0 = _q(params.a0), _q(params.b0)
    gen_action = {}
    for i in I:
        mat = RatMat.zeros(len(elems), len(elems))
        for w in elems:
            sw = system.left_table[w][i]
            col = mat.cols[pos[w]]
            if system.length[sw] > system.length[w]:
                col[pos[sw]] = 1
            else:
                if a0:
                    col[pos[w]] = a0
                if b0:
                    col[pos[sw]] = b0
        gen_action[i] = mat
    return HeckeModule(system, I, params, len(elems), gen_action,
                       labels=[system.elem_name(w) for w in elems])


def scalar_roots(params: ParamSpec) -> list[Fraction]:
    """Rational solutions of x^2 = a0*x + b0, sorted."""
    disc = params.a0 * params.a0 + 4 * params.b0
    if disc < 0:
        return []
    num, den = disc.numerator, disc.denominator
    rn, rd = _isqrt_exact(num), _isqrt_exact(den)
    if rn is None or rd is None:
        return []
    root = Fraction(rn, rd)
    return sorted({(params.a0 + root) / 2, (params.a0 - root) / 2})


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def scalar(system: CoxeterSystem, I, lam, params: ParamSpec) -> HeckeModule:
    """One-dimensional module where every generator acts by lam.

    With an empty subset there are no generators to constrain, so lam is
    not required to satisfy the quadratic there.
    """
    lam = Fraction(lam)
    I = system.check_subset(I)
    if I and lam * lam != params.a0 * lam + params.b0:
        raise InvalidScalar(f"{lam} does not satisfy x^2 = {params.a0}*x + {params.b0}")
    mat = RatMat.from_rows([[lam]])
    return HeckeModule(system, I, params, 1, {i: mat.copy() for i in I})


def companion(system: CoxeterSystem, I, params: ParamSpec) -> HeckeModule:
    """Two-dimensional module from the companion matrix of x^2 - a0*x - b0.

    Works at every parameter point, in particular where no rational scalar
    module exists; all generators act identically, so braid relations hold.
    """
    I = system.check_subset(I)
    c = RatMat.from_rows([[0, params.b0], [1, params.a0]])
    return HeckeModule(system, I, params, 2, {i: c.copy() for i in I})


def one_dim_factor(system: CoxeterSystem, I, params: ParamSpec) -> HeckeModule:
    """The preferred small module over H_I.

    A scalar module on the larger quadratic root when one exists; at
    parameter points with no rational root, the two-dimensional companion
    module stands in.  The empty subset has no generators to constrain, so
    there it is always one-dimensional.
    """
    I = system.check_subset(I)
    if not I:
        return scalar(system, I, 1, params)
    roots = scalar_roots(params)
    if roots:
        return scalar(system, I, roots[-1], params)
    return companion(system, I, params)


def random_conjugate(M: HeckeModule, seed: int, shears: int | None = None) -> HeckeModule:
    """Change basis by a seeded product of elementary shear matrices."""
    rng = random.Random(seed)
    d = M.dim
    if d < 2:
        return HeckeModule(M.system, M.subset, M.params, d, dict(M.gen_action))
    count = 2 * d if shears is None else shears
    P = RatMat.identity(d)
    Pinv = RatMat.identity(d)
    for _ in range(count):
        r = rng.randrange(d)
        s = rng.randrange(d - 1)
        if s >= r:
            s += 1
        c = rng.choice([-2, -1, 1, 2])
        for col in P.cols:           # P := (I + c*E_rs) @ P, a row operation
            if s in col:
                v = col.get(r, 0) + c * col[s]
                if v:
                    col[r] = v
                else:
                    col.pop(r, None)
        scol, rcol = Pinv.cols[s], Pinv.cols[r]   # Pinv := Pinv @ (I - c*E_rs)
        for row, v in rcol.items():
            w = scol.get(row, 0) - c * v
            if w:
                scol[row] = w
            else:
                scol.pop(row, None)
    gen_action = {i: P @ M.gen_action[i] @ Pinv for i in M.subset}
    return HeckeModule(M.system, M.subset, M.params, d, gen_action)


# -- hom spaces and isomorphism testing ------------------------------------


def _hom_generic(M: HeckeModule, N: HeckeModule) -> list[RatMat]:
    gens = sorted(M.subset)
    rows = intertwiner_rows([M.gen_action[i] for i in gens],
                            [N.gen_action[i] for i in gens], M.dim, N.dim)
    out = []
    for vec in kernel_basis(rows, M.dim * N.dim):
        X = RatMat.zeros(N.dim, M.dim)
        for idx, v in vec.items():
            X.cols[idx % M.dim][idx // M.dim] = v
        out.append(X)
    return out


def _hom_from_induced(M: HeckeModule, N: HeckeModule) -> list[RatMat]:
    """Lift maps from the induction source: F(pi_gamma (x) m) = pi_gamma * F0(m)."""
    info = M.induced
    src = info.source
    inner = hom_space(src, restrict(N, src.subset))
    d = src.dim
    out = []
    for F0 in inner:
        blocks = {info.transversal[0]: F0}
        for g in info.transversal[1:]:
            p, j = info.parent[g]
            blocks[g] = N.gen_action[j] @ blocks[p]
        F = RatMat.zeros(N.dim, M.dim)
        for g in info.transversal:
            base = info.pos[g] * d
            blk = blocks[g]
            for k in range(d):
                F.cols[base + k] = dict(blk.cols[k])
        out.append(F)
    return out


def _hom_from_sum(M: HeckeModule, N: HeckeModule) -> list[RatMat]:
    out = []
    for off, part in zip(M.offsets, M.summands):
        for Fp in hom_space(part, N):
            F = RatMat.zeros(N.dim, M.dim)
            for k in range(part.dim):
                F.cols[off + k] = dict(Fp.cols[k])
            out.append(F)
    return out


def hom_space(M: HeckeModule, N: HeckeModule) -> list[RatMat]:
    """Basis of the equivariant maps M -> N as dimN x dimM matrices."""
    if not M.same_algebra(N):
        if M.params != N.params:
            raise ParamMismatch(f"({M.params}) vs ({N.params})")
        raise ValueError("hom_space needs modules over the same system and subset")
    if M.dim == 0 or N.dim == 0:
        return []
    if not M.subset:
        return _hom_generic(M, N)  # degenerates to all matrices
    if M.summands:
        return _hom_from_sum(M, N)
    if M.induced is not None:
        return _hom_from_induced(M, N)
    return _hom_generic(M, N)


@dataclass
class ModuleMap:
    source: HeckeModule
    target: HeckeModule
    matrix: RatMat
    subset: frozenset

    def check(self) -> bool:
        return self.residual() == 0

    def residual(self) -> int | Fraction:
        worst = Fraction(0)
        for i in self.subset:
            r = (self.matrix @ self.source.gen_action[i]
                 - self.target.gen_action[i] @ self.matrix).max_abs()
            worst = max(worst, r)
        return worst

    def is_invertible(self) -> bool:
        return self.matrix.is_invertible()

    def inverse(self) -> "ModuleMap":
        return ModuleMap(self.target, self.source, self.matrix.inverse(), self.subset)

    def then(self, nxt: "ModuleMap") -> "ModuleMap":
        if nxt.source.dim != self.target.dim:
            raise ValueError("composition dimension mismatch")
        return ModuleMap(self.source, nxt.target, nxt.matrix @ self.matrix,
                         self.subset & nxt.subset)


def _search_invertible(basis: list[RatMat], seed: int) -> Optional[RatMat]:
    for X in basis:
        if X.is_invertible():
            return X
    rng = random.Random(seed)
    for _ in range(32):
        acc = RatMat.zeros(basis[0].nrows, basis[0].ncols)
        for X in basis:
            c = rng.randint(-3, 3)
            if c:
                acc = acc + X.scale(c)
        if not acc.is_zero() and acc.is_invertible():
            return acc
    acc = basis[0]
    for X in basis[1:]:
        acc = acc + X
        if acc.is_invertible():
            return acc
    return None


def iso_test_detail(M: HeckeModule, N: HeckeModule, seed: int = 0) -> dict:
    """Isomorphism search report: map (or None), hom dimension, route."""
    if M.params != N.params:
        raise ParamMismatch(f"({M.params}) vs ({N.params})")
    if not M.same_algebra(N):
        raise ValueError("iso_test needs modules over the same system and subset")
    if M.dim != N.dim:
        return {"map": None, "hom_dim": None, "reason": "dimension mismatch"}
    if M.dim == 0:
        zero = ModuleMap(M, N, RatMat.zeros(0, 0), M.subset)
        return {"map": zero, "hom_dim": 0, "reason": "zero module"}

    # prefer the side whose construction metadata shrinks the solve
    def structured(X):
        return X.summands is not None or X.induced is not None

    flip = structured(N) and not structured(M)
    src, tgt = (N, M) if flip else (M, N)
    basis = hom_space(src, tgt)
    hom_dim = len(basis)
    found = _search_invertible(basis, seed) if basis else None
    if found is None and not flip:
        # mirror search so the outcome is direction-independent
        rbasis = hom_space(N, M)
        rfound = _search_invertible(rbasis, seed) if rbasis else None
        if rfound is not None:
            found, flip, src, tgt = rfound, True, N, M
    if found is None:
        return {"map": None, "hom_dim": hom_dim, "reason": "no invertible combination"}
    fmap = ModuleMap(src, tgt, found, M.subset)
    if flip:
        fmap = fmap.inverse()
    if not fmap.check():
        raise RuntimeError("internal error: candidate map failed equivariance")
    return {"map": fmap, "hom_dim": hom_dim, "reason": "found"}


def iso_test(M: HeckeModule, N: HeckeModule, seed: int = 0) -> Optional[ModuleMap]:
    return iso_test_detail(M, N, seed)["map"]


# -- serialization ---------------------------------------------------------


def _system_json_tag(system: CoxeterSystem):
    if system.name:
        return system.name
    return {"n": system.rank, "m": [list(row) for row in system.matrix.orders]}


def module_to_json_obj(M: HeckeModule) -> dict:
    return {
        "group": _system_json_tag(M.system),
        "subset": [i + 1 for i in sorted(M.subset)],
        "params": {"a": str(M.params.a0), "b": str(M.params.b0)},
        "dim": M.dim,
        "gens": {
            str(i + 1): [[str(M.gen_action[i].entry(r, c)) for c in range(M.dim)]
                         for r in range(M.dim)]
            for i in sorted(M.subset)
        },
    }


def module_from_json_obj(obj: dict, cap: int | None = None) -> HeckeModule:
    from .coxeter import get_system

    system = get_system(obj["group"], cap=cap)
    subset = frozenset(int(i) - 1 for i in obj["subset"])
    params = ParamSpec(Fraction(obj["params"]["a"]), Fraction(obj["params"]["b"]))
    dim = int(obj["dim"])
    gens = {}
    for key, rows in obj["gens"].items():
        i = int(key) - 1
        gens[i] = RatMat.from_rows([[Fraction(x) for x in row] for row in rows], dim, dim)
    if set(gens) != set(subset):
        raise ValueError("gens keys must match subset")
    return HeckeModule(system, subset, params, dim, gens)
