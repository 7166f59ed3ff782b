"""Finite-dimensional modules over parabolic subalgebras at fixed parameters.

A module is a set of generator action matrices over Q at one specialization
(a0, b0).  Functors implemented here: restriction, induction along a subset
inclusion, outer tensor over commuting subsets, the induction product of two
symmetric-group modules, twisting by algebra (anti-)morphisms, and direct
sums.  Induction follows the transversal trichotomy: a generator applied to
a basis line either shifts it to a longer transversal element, commutes past
it into the source module, or splits by the quadratic rule.  That rule lives
in `induce` alone: the regular module of H_I is the induction of the trivial
module of the empty parabolic.

Induced modules and direct sums remember how they were built; the hom-space
solver uses that to replace one big intertwiner system by smaller ones (a
found map is always re-verified directly, so the shortcut is not trusted).
The isomorphism search solves Hom(M, N) once, in the direction it is given.
An induced module keeps its transversal tree, each coset representative
linked to a shorter one by a generator, and `lift_induced` is the one walk
up that tree: every map built on an induced basis (hom lifts, twist
transports, the alternate-basis change) fixes the identity-coset block and
multiplies its way up the tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coxeter import CoxeterSystem, is_type_a, symmetric_group_system
from .hecke import MorphismSpec, SupportOutsideDomain
from .linalg import RatMat, _cleared_gap, _q, intertwiner_rows, kernel_basis
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
    "restrict",
    "induce",
    "lift_induced",
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
    """How an induced module was assembled from its source: the transversal
    tree.  Basis line (gamma, k) is column pos[gamma] * source.dim + k."""

    source: "HeckeModule"
    transversal: list[int]                    # minimal coset reps, (length, index) order
    parent: dict[int, tuple[int, int]]        # gamma -> (shorter rep, letter), gamma != e
    pos: dict[int, int]                       # gamma -> its index in transversal


class HeckeModule:
    """Immutable module data: generator matrices over Q for one subset."""

    __slots__ = ("system", "subset", "params", "dim", "gen_action",
                 "induced", "summands", "offsets")

    def __init__(self, system: CoxeterSystem, subset, params: ParamSpec, dim: int,
                 gen_action: dict[int, RatMat],
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
        return (self.system.same_group(other.system)
                and self.subset == other.subset
                and self.params == other.params)


def validate(M: HeckeModule) -> list[tuple[str, bool, int | Fraction]]:
    """Check the defining relations; one (name, ok, residual) entry each.

    Each relation runs in integer arithmetic: the generators are cleared
    (A = N / d, see `RatMat.cleared`) and the relation is multiplied through
    by the positive integer that clears it.  With a0 = pa/qa and b0 = pb/qb
    the quadratic relation becomes qa*qb*N^2 - pa*qb*d*N - pb*qa*d^2*I.  A
    braid word of odd length m has one more factor of A_i on the left than
    on the right, so the two words are scaled by d_j and d_i; for even m
    they compare directly.  The residual is the largest entry of the
    cleared relation divided by its factor, which is exactly the largest
    entry of the relation over Q.
    """
    pa, qa = M.params.a0.numerator, M.params.a0.denominator
    pb, qb = M.params.b0.numerator, M.params.b0.denominator
    ident = RatMat.identity(M.dim)
    gens = sorted(M.subset)
    cleared = {i: M.gen_action[i].cleared() for i in gens}
    out = []
    for i in gens:
        N, d = cleared[i]
        linear = [(c, P) for c, P in ((pa * qb * d, N), (pb * qa * d * d, ident)) if c]
        resid = _cleared_gap([(qa * qb, N @ N)], linear, qa * qb * d * d)
        out.append((f"quadratic s{i + 1}", resid == 0, resid))
    for x in range(len(gens)):
        for y in range(x + 1, len(gens)):
            i, j = gens[x], gens[y]
            m = M.system.matrix.orders[i][j]
            (Ni, di), (Nj, dj) = cleared[i], cleared[j]
            left, right = Ni, Nj
            for t in range(1, m):
                left = left @ (Ni if t % 2 == 0 else Nj)
                right = right @ (Nj if t % 2 == 0 else Ni)
            if m % 2:
                resid = _cleared_gap([(dj, left)], [(di, right)], (di * dj) ** ((m + 1) // 2))
            else:
                resid = _cleared_gap([(1, left)], [(1, right)], (di * dj) ** (m // 2))
            out.append((f"braid s{i + 1},s{j + 1} (m={m})", resid == 0, resid))
    return out


def act_letters(M: HeckeModule, letters) -> RatMat:
    """Product of generator matrices along a word, in a new matrix: k - 1
    products for k letters."""
    out = None
    for s in letters:
        out = M.act(s).copy() if out is None else out @ M.act(s)
    return RatMat.identity(M.dim) if out is None else out


def act_word(M: HeckeModule, y: int) -> RatMat:
    """Action matrix of the basis element of y; reduced-word independent."""
    if not M.system.in_parabolic(y, M.subset):
        raise ElementOutsideParabolic(
            f"{M.system.elem_name(y)} lies outside the parabolic of {sorted(M.subset)}"
        )
    return act_letters(M, M.system.reduced_word(y))


# -- functors --------------------------------------------------------------


def restrict(M: HeckeModule, I_sub) -> HeckeModule:
    I_sub = M.system.check_subset(I_sub)
    if not I_sub <= M.subset:
        raise NotSubset(f"{sorted(I_sub)} is not a subset of {sorted(M.subset)}")
    parts = [restrict(p, I_sub) for p in M.summands] if M.summands else None
    return HeckeModule(
        M.system, I_sub, M.params, M.dim,
        {i: M.gen_action[i] for i in I_sub},
        summands=parts,
    )


def induce(M: HeckeModule, J) -> HeckeModule:
    """Tensor up along W_I <= W_J over the minimal coset transversal.

    Basis lines are (gamma, k), gamma running over the transversal in
    (length, index) order, block-major.  The result records the transversal
    tree (each gamma's unique shorter neighbour under its smallest left
    descent), which `lift_induced` walks.
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
    info = InducedInfo(source=M, transversal=transversal, parent=parent, pos=pos)
    return HeckeModule(sys, J, M.params, dim, gen_action, induced=info)


def lift_induced(info: InducedInfo, act: dict[int, RatMat], top: RatMat) -> RatMat:
    """The matrix on an induced basis that walks the transversal tree.

    The block of the lines of gamma is act[j] @ block(parent), where gamma's
    tree edge is (parent, j), and the identity's block is top.  With act a
    module's generator matrices, this is the map pi_gamma (x) k ->
    pi_gamma * top(k) out of the induced module.  The transversal lists each
    parent before its children, so one pass in that order fills every block.
    """
    d = top.ncols
    out = RatMat.zeros(top.nrows, len(info.transversal) * d)
    blocks: dict[int, RatMat] = {}
    for t, g in enumerate(info.transversal):
        if g == 0:
            block = top
        else:
            p, j = info.parent[g]
            block = act[j] @ blocks[p]
        blocks[g] = block
        for k in range(d):
            out.cols[t * d + k] = dict(block.cols[k])
    return out


def outer_tensor(M: HeckeModule, N: HeckeModule) -> HeckeModule:
    """Kronecker module over the union of two commuting subsets."""
    sys = M.system
    if not sys.same_group(N.system):
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

    Over the spec's domain, generator i acts by M's matrix for relabel[i], or
    by a0*I minus it when the spec flips, transposed for an anti morphism.
    """
    sys = M.system
    if not sys.same_group(spec.system):
        raise ValueError("module and morphism belong to different systems")
    if not spec.codomain <= M.subset:
        raise SupportOutsideDomain(
            f"morphism images need generators {sorted(spec.codomain)}, "
            f"module only has {sorted(M.subset)}"
        )
    shift = RatMat.identity(M.dim).scale(M.params.a0) if spec.flip else None
    acts = {}
    for i, j in spec.relabel.items():
        mat = shift - M.gen_action[j] if spec.flip else M.gen_action[j]
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
    """Left multiplication on the basis of H_I itself: the induction of the
    trivial module of the empty parabolic, whose transversal is the
    parabolic's elements in (length, index) order."""
    return induce(scalar(system, frozenset(), 1, params), I)


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


def random_conjugate(M: HeckeModule, seed: int) -> HeckeModule:
    """Change basis by a seeded product of 2 * dim elementary shear matrices."""
    rng = random.Random(seed)
    d = M.dim
    if d < 2:
        return HeckeModule(M.system, M.subset, M.params, d, dict(M.gen_action))
    P = RatMat.identity(d)
    Pinv = RatMat.identity(d)
    for _ in range(2 * d):
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
    src = M.induced.source
    return [lift_induced(M.induced, N.gen_action, F0)
            for F0 in hom_space(src, restrict(N, src.subset))]


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

    def residuals(self) -> dict[int, int | Fraction]:
        """Largest entry of X @ A_i - B_i @ X for each generator i, exact.

        X, A_i and B_i are cleared (X = Nx / dx and so on, see
        `RatMat.cleared`), db * (Nx @ NA) - da * (NB @ Nx) is formed in
        integers, and its largest entry is divided once by dx * da * db.
        """
        X, dx = self.matrix.cleared()
        out = {}
        for i in sorted(self.subset):
            A, da = self.source.gen_action[i].cleared()
            B, db = self.target.gen_action[i].cleared()
            out[i] = _cleared_gap([(db, X @ A)], [(da, B @ X)], dx * da * db)
        return out

    def residual(self) -> int | Fraction:
        """The largest of `residuals`; 0 over the empty subset."""
        return max(self.residuals().values(), default=0)

    def is_invertible(self) -> bool:
        return self.matrix.is_invertible()

    def inverse(self) -> "ModuleMap":
        return ModuleMap(self.target, self.source, self.matrix.inverse(), self.subset)


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
    return None


def iso_test_detail(M: HeckeModule, N: HeckeModule, seed: int = 0) -> dict:
    """Isomorphism search report: map (or None), hom dimension, route.

    The search runs in Hom(M, N) only, so pass the module whose
    construction shrinks the solve (an induction or a direct sum, see
    `hom_space`) as M; every caller in the library does.  A returned map
    has passed `ModuleMap.check` here and is certified invertible by the
    search, so callers need not check it again.  A candidate that fails that
    check (a hom space lifted from a module that breaks its relations) is
    no map: the reason is "candidate failed equivariance", and "residual"
    holds its largest entry.
    """
    if M.params != N.params:
        raise ParamMismatch(f"({M.params}) vs ({N.params})")
    if not M.same_algebra(N):
        raise ValueError("iso_test needs modules over the same system and subset")
    if M.dim != N.dim:
        return {"map": None, "hom_dim": None, "reason": "dimension mismatch"}
    if M.dim == 0:
        zero = ModuleMap(M, N, RatMat.zeros(0, 0), M.subset)
        return {"map": zero, "hom_dim": 0, "reason": "zero module"}
    basis = hom_space(M, N)
    found = _search_invertible(basis, seed) if basis else None
    if found is None:
        return {"map": None, "hom_dim": len(basis), "reason": "no invertible combination"}
    fmap = ModuleMap(M, N, found, M.subset)
    residual = fmap.residual()
    if residual:
        return {"map": None, "hom_dim": len(basis), "reason": "candidate failed equivariance",
                "residual": residual}
    return {"map": fmap, "hom_dim": len(basis), "reason": "found"}


def iso_test(M: HeckeModule, N: HeckeModule, seed: int = 0) -> Optional[ModuleMap]:
    return iso_test_detail(M, N, seed)["map"]

