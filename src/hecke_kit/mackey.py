"""Double-coset decomposition of an induced-then-restricted module.

For M over a parabolic subalgebra H_I, the restriction to H_J of the full
induction of M splits into one summand per minimal (J, I) double coset
representative tau: the J-induction of the conjugation twist of M's
restriction to the cross-section subset.  Both sides are built explicitly,
together with the two basis-indexed transfer maps from the structure of the
triple factorization w = u*tau*v; verification checks they are mutually
inverse and generator-equivariant, all exactly over Q.

The symmetric-group specialization (both subsets maximal, M an induction
product of two modules) is rebuilt here by an independent route: transversal
permutations from the interleaving one-line formula, generator relabelling
by one-line arithmetic, and per-block reassembly, compared block-for-block
against the generic construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .coxeter import CoxeterSystem, elem_of_line, interleaving_rep_line
from .hecke import c_w_morphism
from .linalg import RatMat
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
    """Assemble the restricted induction and its block decomposition."""
    I = sys.check_subset(I)
    J = sys.check_subset(J)
    if M.subset != I:
        raise ValueError("module must live over the subset I")
    big = induce(M, sys.full_subset)
    lhs = restrict(big, J)
    blocks = []
    offset = 0
    for tau in sys.double_coset_reps(J, I):
        K, K_conj, pairing = sys.cross_section(tau, J, I)
        spec = c_w_morphism(sys, tau, J, I)
        twisted = twist_along(spec, restrict(M, K_conj))
        mod = induce(twisted, J)
        blocks.append(TauBlock(tau, K, K_conj, pairing, mod, offset))
        offset += mod.dim
    rhs = direct_sum([b.module for b in blocks])
    return MackeyInstance(sys, I, J, M, big, lhs, blocks, rhs)


def build_transfer_maps(inst: MackeyInstance) -> tuple[ModuleMap, ModuleMap]:
    """The mutually inverse basis maps between the two sides.

    Forward: a line (w, k) of the induced basis factors as w = u*tau (its
    right part in W_I is trivial since w is coset-minimal) and lands on line
    (u, k) of the tau block.  Backward: block line (z, k) of tau returns to
    (z*tau, k).  Both are permutation matrices by the uniqueness of the
    triple factorization.
    """
    sys = inst.system
    d = inst.M.dim
    rep_pos = {b.tau: idx for idx, b in enumerate(inst.blocks)}
    dim = inst.lhs.dim
    big_info = inst.big.induced

    fwd = RatMat.zeros(dim, dim)
    for col, (w, k) in enumerate(big_info.pairs):
        u, tau, v = sys.triple_factorize(w, inst.J, inst.I)
        if v != 0:
            raise RuntimeError("induced basis element is not coset-minimal")
        block = inst.blocks[rep_pos[tau]]
        row = block.offset + block.module.induced.pos[u] * d + k
        fwd.cols[col][row] = 1

    bwd = RatMat.zeros(dim, dim)
    for block in inst.blocks:
        info = block.module.induced
        for zpos, z in enumerate(info.transversal):
            target = big_info.pos[sys.mult(z, block.tau)]
            for k in range(d):
                col = block.offset + zpos * d + k
                bwd.cols[col][target * d + k] = 1

    return (
        ModuleMap(inst.lhs, inst.rhs, fwd, inst.J),
        ModuleMap(inst.rhs, inst.lhs, bwd, inst.J),
    )


def verify(inst: MackeyInstance) -> VerificationReport:
    """Exact checks: bookkeeping, validity, inverses, equivariance."""
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

    bad = [name for mod in (inst.lhs, inst.rhs)
           for name, ok, _ in validate(mod) if not ok]
    rep.add("constructed modules satisfy the defining relations", not bad,
            detail={"failed": bad} if bad else None)

    fwd, bwd = build_transfer_maps(inst)
    ident = RatMat.identity(inst.lhs.dim)
    rep.add_residual("backward o forward is the identity",
                     (bwd.matrix @ fwd.matrix - ident).max_abs())
    rep.add_residual("forward o backward is the identity",
                     (fwd.matrix @ bwd.matrix - ident).max_abs())
    for j in sorted(inst.J):
        r = (bwd.matrix @ inst.rhs.gen_action[j]
             - inst.lhs.gen_action[j] @ bwd.matrix).max_abs()
        rep.add_residual(f"backward map is equivariant for s{j + 1}", r)
    for j in sorted(inst.J):
        r = (fwd.matrix @ inst.lhs.gen_action[j]
             - inst.rhs.gen_action[j] @ fwd.matrix).max_abs()
        rep.add_residual(f"forward map is equivariant for s{j + 1}", r)
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
        worst = Fraction(0)
        for j in sorted(J):
            worst = max(worst, (cor_block.gen_action[j]
                                - block.module.gen_action[j]).max_abs())
        rep.add_residual(f"t={t}: independent block equals the generic block", worst)
        all_match &= cor_block.dim == block.module.dim
    if all_match and cor_blocks:
        cor_rhs = direct_sum(cor_blocks)
        detail = iso_test_detail(cor_rhs, inst.lhs, seed=seed)
        found = detail["map"]
        ok = found is not None and found.check() and found.is_invertible()
        rep.add("isomorphism search links the block sum to the restriction", ok,
                detail={"hom_dim": detail["hom_dim"]})
    else:
        rep.add("isomorphism search links the block sum to the restriction", False,
                detail={"reason": "block mismatch"})
    return rep
