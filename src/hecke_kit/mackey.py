"""Double-coset decomposition of an induced-then-restricted module.

For M over a parabolic subalgebra H_I, the restriction to H_J of the full
induction of M splits into one summand per minimal (J, I) double coset
representative tau: the J-induction of the conjugation twist of M's
restriction to the cross-section subset.  Both sides are built explicitly,
together with the two basis-indexed transfer maps from the structure of the
triple factorization w = u*tau*v; verification checks they are mutually
inverse and generator-equivariant, all exactly over Q.  By the uniqueness of
that factorization both maps are permutations of basis lines, kept as line
lists.  A product with a permutation only moves entries, so verification
composes and relabels lines instead of multiplying matrices, and compares
exactly the matrices the products would give.  The induced side does not
depend on J, so `split_induced` decomposes one induction along any J.

The symmetric-group specialization (both subsets maximal, M an induction
product of two modules) is rebuilt here by an independent route: transversal
permutations from the interleaving one-line formula, generator relabelling
by one-line arithmetic, and per-block reassembly, compared block-for-block
against the generic construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .coxeter import CoxeterSystem, elem_of_line, interleaving_rep_line
from .hecke import c_w_morphism
from .linalg import RatMat, _cleared_gap
from .repmod import (
    HeckeModule,
    ModuleMap,
    direct_sum,
    induce,
    iso_test_detail,
    product_factor,
    restrict,
    twist_along,
    validate,
)
from .report import VerificationReport

__all__ = [
    "TauBlock",
    "MackeyInstance",
    "build_sides",
    "split_induced",
    "build_transfer_maps",
    "verify",
    "verify_tensor_decomposition",
]


@dataclass
class TauBlock:
    tau: int
    cross: frozenset          # K(tau), inside J
    cross_conj: frozenset     # tau^{-1} K(tau) tau, inside I
    pairing: dict
    module: HeckeModule       # induced up to H_J
    offset: int


@dataclass
class MackeyInstance:
    system: CoxeterSystem
    I: frozenset
    J: frozenset
    M: HeckeModule
    big: HeckeModule          # induction of M to the full algebra
    lhs: HeckeModule          # ... restricted to H_J
    blocks: list
    rhs: HeckeModule          # direct sum of the block modules

    def describe(self) -> dict:
        sys = self.system
        return {
            "group": sys.name or {"n": sys.rank, "m": [list(r) for r in sys.matrix.orders]},
            "I": [i + 1 for i in sorted(self.I)],
            "J": [j + 1 for j in sorted(self.J)],
            "params": str(self.M.params),
            "dim_M": self.M.dim,
            "dim_lhs": self.lhs.dim,
            "blocks": [
                {
                    "tau": sys.elem_name(b.tau),
                    "cross_section": [j + 1 for j in sorted(b.cross)],
                    "dim": b.module.dim,
                }
                for b in self.blocks
            ],
        }


def build_sides(sys: CoxeterSystem, I, J, M: HeckeModule) -> MackeyInstance:
    """Induce M to the full algebra and decompose its restriction to H_J."""
    if not M.system.same_group(sys):
        raise ValueError("module belongs to a different Coxeter system")
    if M.subset != sys.check_subset(I):
        raise ValueError("module must live over the subset I")
    return split_induced(induce(M, sys.full_subset), J)


def split_induced(big: HeckeModule, J) -> MackeyInstance:
    """Restrict big, a module induced to the full algebra, to H_J and
    decompose it; M and I are read from big.induced."""
    sys = big.system
    if big.induced is None or big.subset != sys.full_subset:
        raise ValueError("the module must be induced to the full algebra")
    J = sys.check_subset(J)
    M = big.induced.source
    I = M.subset
    lhs = restrict(big, J)
    blocks = []
    offset = 0
    for tau in sys.double_coset_reps(J, I):
        spec = c_w_morphism(sys, tau, J, I)
        mod = induce(twist_along(spec, restrict(M, spec.codomain)), J)
        blocks.append(TauBlock(tau, spec.domain, spec.codomain, spec.relabel, mod, offset))
        offset += mod.dim
    rhs = direct_sum([b.module for b in blocks])
    return MackeyInstance(sys, I, J, M, big, lhs, blocks, rhs)


def _transfer_lines(inst: MackeyInstance) -> tuple[list, list]:
    """The two transfer maps as line lists, fwd and bwd.

    Column c of the forward map is the basis line fwd[c] of the right side
    (bwd[c] of the left side for the backward map), so each map is the 0/1
    matrix with one entry per column; a line no loop writes stays None, an
    empty column.  Forward: a line (w, k) of the induced basis factors as
    w = u*tau (its right part in W_I is trivial since w is coset-minimal)
    and lands on line (u, k) of the tau block.  Backward: block line (z, k)
    of tau returns to (z*tau, k).  Both are permutations by the uniqueness
    of the triple factorization.
    """
    sys = inst.system
    d = inst.M.dim
    rep_pos = {b.tau: idx for idx, b in enumerate(inst.blocks)}
    dim = inst.lhs.dim
    big_info = inst.big.induced

    fwd = [None] * dim
    for wpos, w in enumerate(big_info.transversal):
        u, tau, v = sys.triple_factorize(w, inst.J, inst.I)
        if v != 0:
            raise RuntimeError("induced basis element is not coset-minimal")
        block = inst.blocks[rep_pos[tau]]
        row = block.offset + block.module.induced.pos[u] * d
        for k in range(d):
            fwd[wpos * d + k] = row + k

    bwd = [None] * dim
    for block in inst.blocks:
        info = block.module.induced
        for zpos, z in enumerate(info.transversal):
            target = big_info.pos[sys.mult(z, block.tau)] * d
            for k in range(d):
                bwd[block.offset + zpos * d + k] = target + k
    return fwd, bwd


def _line_matrix(line) -> RatMat:
    """The 0/1 matrix whose column c is the basis vector of line[c]."""
    n = len(line)
    return RatMat(n, n, [{} if r is None else {r: 1} for r in line])


def build_transfer_maps(inst: MackeyInstance) -> tuple[ModuleMap, ModuleMap]:
    """The mutually inverse basis maps between the two sides, as permutation
    matrices of the lines of `_transfer_lines`."""
    fwd, bwd = _transfer_lines(inst)
    return (
        ModuleMap(inst.lhs, inst.rhs, _line_matrix(fwd), inst.J),
        ModuleMap(inst.rhs, inst.lhs, _line_matrix(bwd), inst.J),
    )


def _line_times(line, A: RatMat) -> RatMat:
    """P @ A for P = `_line_matrix(line)`: row r of A moves to row line[r].

    Rows that land on one line add up, as in the product; for a permutation
    no two do, and the rows are only relabelled.
    """
    cols = []
    for col in A.cols:
        acc = {}
        for r, v in col.items():
            t = line[r]
            if t is None:
                continue
            if w := acc.get(t, 0) + v:
                acc[t] = w
            else:
                del acc[t]
        cols.append(acc)
    return RatMat(len(line), A.ncols, cols)


def _times_line(B: RatMat, line) -> RatMat:
    """B @ P for P = `_line_matrix(line)`: column c is B's column line[c],
    shared, not copied."""
    return RatMat(B.nrows, len(line), [{} if c is None else B.cols[c] for c in line])


def verify(inst: MackeyInstance) -> VerificationReport:
    """Exact checks: bookkeeping, validity, inverses, equivariance.

    Only the right side is validated.  Once bwd o fwd = I, fwd o bwd = I and
    fwd is equivariant (rhs_j fwd = fwd lhs_j), every left generator is a
    conjugate lhs_j = bwd rhs_j fwd, so each relation that holds on the
    right side holds on the left side too.

    The transfer maps are line permutations (see `_transfer_lines`), so no
    transfer matrix is multiplied.  A product with a 0/1 matrix that has one
    entry per column only moves entries: bwd o fwd is the matrix of the
    composed line list, P @ A relabels the rows of A and B @ P picks the
    columns of B in order.  These are exactly the products
    `ModuleMap.residuals` and `RatMat.gap` would form, and each identity
    still goes to `_cleared_gap`, so every residual is the same value.  Each
    generator matrix is cleared once for both maps.
    """
    sys = inst.system
    rep = VerificationReport(title="restricted-induction decomposition", instance=inst.describe())

    index_W = len(sys.parabolic_elements(sys.full_subset)) // len(sys.parabolic_elements(inst.I))
    rep.add("lhs dimension equals coset index times dim M",
            inst.lhs.dim == index_W * inst.M.dim)
    total = 0
    ok_blocks = True
    for b in inst.blocks:
        idx = len(sys.parabolic_elements(inst.J)) // len(sys.parabolic_elements(b.cross))
        ok_blocks &= b.module.dim == idx * inst.M.dim
        total += b.module.dim
    rep.add("each block dimension equals its coset index times dim M", ok_blocks)
    rep.add("block dimensions sum to the lhs dimension", total == inst.lhs.dim)

    bad = [name for name, ok, _ in validate(inst.rhs) if not ok]
    rep.add("constructed modules satisfy the defining relations", not bad,
            detail={"failed": bad} if bad else None)

    fwd, bwd = _transfer_lines(inst)
    ident = [(1, RatMat.identity(inst.lhs.dim))]
    for name, first, then in (("backward o forward", fwd, bwd), ("forward o backward", bwd, fwd)):
        composed = _line_matrix([None if r is None else then[r] for r in first])
        rep.add_residual(f"{name} is the identity", _cleared_gap([(1, composed)], ident, 1))
    gens = sorted(inst.J)
    lhs = {j: inst.lhs.gen_action[j].cleared() for j in gens}
    rhs = {j: inst.rhs.gen_action[j].cleared() for j in gens}
    for name, line, source, target in (("backward", bwd, rhs, lhs), ("forward", fwd, lhs, rhs)):
        for j in gens:
            (A, da), (B, db) = source[j], target[j]
            rep.add_residual(f"{name} map is equivariant for s{j + 1}",
                             _cleared_gap([(db, _line_times(line, A))],
                                          [(da, _times_line(B, line))], da * db))
    return rep


# -- symmetric-group specialization ----------------------------------------


def _line_compose_inverse(line):
    inv = [0] * len(line)
    for i, v in enumerate(line):
        inv[v - 1] = i + 1
    return inv


def _relabel_from_line(line, j):
    """Index i with s_i = w^{-1} s_j w, from one-line data only, else None.

    Conjugating the swap of letters j+1, j+2 gives the swap of their
    preimages; it is a generator exactly when those are consecutive.
    """
    inv = _line_compose_inverse(line)
    p, q = inv[j], inv[j + 1]
    if abs(p - q) != 1:
        return None
    return min(p, q) - 1


def verify_tensor_decomposition(M: HeckeModule, N: HeckeModule, k: int,
                                seed: int = 0) -> VerificationReport:
    """Two-factor specialization, rebuilt independently and cross-compared.

    M lives over all of S_m, N over all of S_n; the restriction of their
    induction product to the (k, m+n-k) parabolic is decomposed by the
    generic machinery, then re-derived per interleaving pattern t from
    one-line formulas, and finally confirmed by the isomorphism search.
    """
    m = M.system.rank + 1
    n = N.system.rank + 1
    if not 1 <= k <= m + n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {m + n - 1}")
    T = product_factor(M, N)
    big_sys = T.system
    I = big_sys.full_subset - {m - 1}
    J = big_sys.full_subset - {k - 1}
    inst = build_sides(big_sys, I, J, T)
    rep = VerificationReport(title="two-factor restriction decomposition",
                             instance=inst.describe(), seed=seed)
    rep.instance.update({"m": m, "n": n, "k": k})
    rep.extend(verify(inst), prefix="generic: ")

    ts = [t for t in range(m + 1) if 0 <= k - t <= n]
    rep_of = {b.tau: b for b in inst.blocks}
    lines = {t: interleaving_rep_line(m, n, k, t) for t in ts}
    elems = {t: elem_of_line(big_sys, lines[t]) for t in ts}
    rep.add("interleaving patterns enumerate the double cosets",
            sorted(elems.values()) == sorted(rep_of),
            detail={"patterns": {str(t): big_sys.elem_name(e) for t, e in elems.items()}})

    cor_blocks = []
    all_match = True
    for t in ts:
        w_t = elems[t]
        line = lines[t]
        block = rep_of.get(w_t)
        if block is None:
            all_match = False
            continue
        relabel = {}
        for j in range(big_sys.rank):
            if j == k - 1:
                continue
            i = _relabel_from_line(line, j)
            if i is not None and i != m - 1:
                relabel[j] = i
        rep.add(f"t={t}: one-line cross-section agrees with the group route",
                frozenset(relabel) == block.cross and relabel == block.pairing)
        # reassemble the block source on M (x) N directly from the relabelling
        idm, idn = RatMat.identity(M.dim), RatMat.identity(N.dim)
        acts = {}
        for j, i in relabel.items():
            if i < m - 1:
                acts[j] = RatMat.kron(M.gen_action[i], idn)
            else:
                acts[j] = RatMat.kron(idm, N.gen_action[i - m])
        source = HeckeModule(big_sys, frozenset(relabel), M.params, M.dim * N.dim, acts)
        cor_block = induce(source, J)
        cor_blocks.append(cor_block)
        want = comb(k, t) * comb(m + n - k, m - t) * M.dim * N.dim
        rep.add(f"t={t}: block dimension is C({k},{t})*C({m + n - k},{m - t})*dimM*dimN",
                cor_block.dim == want)
        name = f"t={t}: independent block equals the generic block"
        if cor_block.dim == block.module.dim:
            worst = max((cor_block.gen_action[j].gap(block.module.gen_action[j])
                         for j in sorted(J)), default=0)
            rep.add_residual(name, worst)
        else:
            rep.add(name, False, detail={"reason": "dimension mismatch"})
            all_match = False
    if all_match and cor_blocks:
        cor_rhs = direct_sum(cor_blocks)
        found = iso_test_detail(cor_rhs, inst.lhs, seed=seed)
        # iso_test_detail returns only a checked map certified invertible; a
        # failed search records its reason, and a failed candidate's residual
        ok = found["map"] is not None
        detail = {"hom_dim": found["hom_dim"]}
        if not ok:
            detail.update((k, str(found[k])) for k in ("reason", "residual") if k in found)
        rep.add("isomorphism search links the block sum to the restriction", ok, detail=detail)
    else:
        rep.add("isomorphism search links the block sum to the restriction", False,
                detail={"reason": "block mismatch"})
    return rep
