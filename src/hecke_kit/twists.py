"""Twist compatibility of the induction product and restriction.

Two families of statements are verified here. For the algebra automorphisms
(generator relabelling through the longest element, the affine flip
pi -> a - pi, and their composite) the induced module of a twisted source is
carried onto the twist of the induced module by an explicit transport map
that applies the automorphism to the transversal part of each basis line and
re-expands the image in the plain induced basis. For the
anti-automorphisms the link is a bilinear pairing between the product module
and the product of the dual twists, presented on the alternate (shifted)
induced basis; the pairing is a permutation of dual lines, and its
equivariance is checked both as a global matrix identity and branch by
branch through the one-line case analysis.

Transport works over any finite Coxeter system; the pairing machinery is
specific to symmetric groups, where the transversal has one-line form and
the dual-line involution reverses and complements the letter blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coxeter import CoxeterSystem, elem_of_line, one_line
from .hecke import (
    MorphismSpec,
    chi,
    omega,
    omega_hat,
    phi,
    phi_hat,
    theta,
    theta_hat,
)
from .linalg import RatMat, _q
from .repmod import (
    HeckeModule,
    ModuleMap,
    act_elem,
    boxtimes,
    induce,
    iso_test,
    product_factor,
    restrict,
    twist_along,
)
from .report import VerificationReport

__all__ = [
    "kron_swap",
    "transport_induction_twist",
    "thm44_part1_map",
    "thm44_part2_map",
    "thm44_part3_map",
    "verify_thm44",
    "gamma_prime_line",
    "gamma_prime",
    "Pairing",
    "build_pairing",
    "verify_pairing_equivariance",
    "thm48_part1_map",
    "verify_thm48",
]

_A_BRANCHES = ("A1", "A2", "A3", "A4")
_B_BRANCHES = ("B1", "B2", "B3", "B4")


def kron_swap(dm: int, dn: int) -> RatMat:
    """Permutation matrix exchanging the tensor factors of a Kronecker basis."""
    out = RatMat.zeros(dm * dn, dm * dn)
    for p in range(dm):
        for q in range(dn):
            out.cols[p * dn + q][q * dm + p] = 1
    return out


def _image_gen_index(spec: MorphismSpec, j: int) -> int:
    """The generator a morphism relabels j to; images must be affine in one."""
    words = [w for w in spec.images[j].coeffs if w != 0]
    if len(words) != 1 or words[0] not in spec.system.gens:
        raise ValueError("morphism image is not supported on a single generator")
    return spec.system.gens.index(words[0])


def transport_induction_twist(spec: MorphismSpec, K: HeckeModule) -> ModuleMap:
    """Explicit isomorphism from the induction of the twisted source onto the
    twist of the induced module: x tensor k maps to alpha(x) tensor k.

    Works for any finite Coxeter system and any automorphism whose generator
    images are affine in a single generator.  The image of a transversal line
    is computed up the transversal tree: each extra letter multiplies by the
    image of that generator inside the plain induced module, and the result
    is invertible because images lead with a term of full length.
    """
    if spec.kind != "auto":
        raise ValueError("transport needs an automorphism")
    sys = K.system
    S = sys.full_subset
    sigma = {j: _image_gen_index(spec, j) for j in S}
    I = K.subset
    Istar = frozenset(j for j in S if sigma[j] in I)
    rspec = MorphismSpec(
        sys, "auto", {j: spec.images[j] for j in Istar},
        name=f"{spec.name}-restricted", domain=Istar, codomain=I,
    )
    big = induce(K, S)
    lhs = twist_along(spec, big)
    twisted = twist_along(rspec, K)
    rhs = induce(twisted, S)

    d = K.dim
    X = RatMat.zeros(big.dim, big.dim)
    letter_act: dict[int, RatMat] = {}
    blocks: dict[int, RatMat] = {}
    for gamma in rhs.induced.transversal:
        if gamma == 0:
            block = RatMat.zeros(big.dim, d)
            for c in range(d):
                block.cols[c][c] = 1
        else:
            parent, letter = rhs.induced.parent[gamma]
            mat = letter_act.get(letter)
            if mat is None:
                mat = letter_act[letter] = act_elem(big, spec.images[letter])
            block = mat @ blocks[parent]
        blocks[gamma] = block
        base = rhs.induced.pos[gamma] * d
        for c in range(d):
            X.cols[base + c] = dict(block.cols[c])
    return ModuleMap(rhs, lhs, X, S)


# -- automorphism twists of the product -------------------------------------


def _twist_full(builder, V: HeckeModule) -> HeckeModule:
    return twist_along(builder(V.system), V)


def _swapped_product_map(builder, M: HeckeModule, N: HeckeModule) -> ModuleMap:
    """Transport precomposed with the factor swap; source is the product of
    the twisted factors in reversed order, target the twist of the product."""
    T = product_factor(M, N)
    big = T.system
    base = transport_induction_twist(builder(big), T)
    source = boxtimes(_twist_full(builder, N), _twist_full(builder, M))
    sw = kron_swap(N.dim, M.dim)
    swfull = RatMat.block_diag([sw] * len(source.induced.transversal))
    return ModuleMap(source, base.target, base.matrix @ swfull, big.full_subset)


def thm44_part1_map(M: HeckeModule, N: HeckeModule) -> ModuleMap:
    """Reversed product of the relabelled factors onto the relabelling twist
    of the product."""
    return _swapped_product_map(phi, M, N)


def thm44_part2_map(M: HeckeModule, N: HeckeModule) -> ModuleMap:
    """Product of the flipped factors onto the flip twist of the product."""
    T = product_factor(M, N)
    big = T.system
    base = transport_induction_twist(theta(big), T)
    source = boxtimes(_twist_full(theta, M), _twist_full(theta, N))
    return ModuleMap(source, base.target, base.matrix, big.full_subset)


def thm44_part3_map(M: HeckeModule, N: HeckeModule) -> ModuleMap:
    """Reversed product of the composite-twisted factors onto the composite
    twist of the product."""
    return _swapped_product_map(omega, M, N)


def _restriction_pair(builder, L: HeckeModule, m: int, n: int, flip: bool):
    """Twisted restriction vs restricted twist; returns both modules.

    With flip=True the inner restriction uses the reversed split, matching
    what the relabelling automorphism does to the two-block parabolic.
    """
    sys = L.system
    r = m + n
    sub_mn = sys.full_subset - {m - 1}
    sub_nm = sys.full_subset - {n - 1}
    inner = sub_nm if flip else sub_mn
    spec = builder(sys)
    rspec = MorphismSpec(
        sys, spec.kind, {j: spec.images[j] for j in sub_mn},
        name=f"{spec.name}-restricted", domain=sub_mn, codomain=inner,
    )
    lhs = twist_along(rspec, restrict(L, inner))
    rhs = restrict(twist_along(spec, L), sub_mn)
    return lhs, rhs


def _cross_check(rep: VerificationReport, tag: str, source: HeckeModule,
                 target: HeckeModule, cross_check, seed: int) -> None:
    """The independent isomorphism search, unless cross_check is False or
    is "auto" and the modules exceed dimension 64."""
    if cross_check is False or (cross_check == "auto" and source.dim > 64):
        return
    found = iso_test(source, target, seed=seed)
    rep.add(f"{tag}: isomorphism search concurs", found is not None)


def verify_thm44(M: HeckeModule, N: HeckeModule, L: HeckeModule | None = None,
                 cross_check="auto", seed: int = 0) -> VerificationReport:
    """All six compatibility statements for the automorphism twists.

    Parts on the induction side get explicit transport maps; parts on the
    restriction side assert that the identity map intertwines, i.e. the two
    constructions produce equal matrices.  cross_check="auto" additionally
    runs the independent isomorphism search on instances of modest size.
    """
    T = product_factor(M, N)
    big = T.system
    m = M.system.rank + 1
    n = N.system.rank + 1
    if L is None:
        L = induce(T, big.full_subset)
    if L.system.matrix != big.matrix or L.subset != big.full_subset:
        raise ValueError("restriction module must live over the full product algebra")
    rep = VerificationReport(
        title="automorphism twists of products and restrictions",
        instance={"m": m, "n": n, "dim_M": M.dim, "dim_N": N.dim,
                  "dim_L": L.dim, "params": str(M.params)},
        seed=seed,
    )

    builders = [("part 1 (relabel of a product)", thm44_part1_map),
                ("part 2 (flip of a product)", thm44_part2_map),
                ("part 3 (composite of a product)", thm44_part3_map)]
    for tag, make in builders:
        fmap = make(M, N)
        rep.add_residual(f"{tag}: transport map is equivariant", fmap.residual())
        rep.add(f"{tag}: transport map is invertible", fmap.matrix.is_invertible())
        _cross_check(rep, tag, fmap.source, fmap.target, cross_check, seed)

    rest = [("part 4 (relabel of a restriction)", phi, True),
            ("part 5 (flip of a restriction)", theta, False),
            ("part 6 (dual of a restriction)", chi, False)]
    for tag, builder, flip in rest:
        lhs, rhs = _restriction_pair(builder, L, m, n, flip)
        worst = Fraction(0)
        for j in sorted(lhs.subset):
            worst = max(worst, (lhs.gen_action[j] - rhs.gen_action[j]).max_abs())
        rep.add_residual(f"{tag}: identity map intertwines the two sides", worst)
        _cross_check(rep, tag, lhs, rhs, cross_check, seed)
    return rep


# -- dual-line involution and the pairing -----------------------------------


def gamma_prime_line(m: int, n: int, line) -> tuple:
    """Dual line: reverse each block of positions and complement the values."""
    r = m + n
    out = []
    for i in range(1, r + 1):
        if i <= m:
            out.append((r + 1) - line[(m + 1 - i) - 1])
        else:
            out.append((r + 1) - line[(2 * m + n + 1 - i) - 1])
    return tuple(out)


def gamma_prime(big: CoxeterSystem, m: int, n: int) -> dict[int, int]:
    """The dual-line involution on the minimal transversal of the two-block
    parabolic, as a map of group elements."""
    if big.rank != m + n - 1:
        raise ValueError("system rank does not match m + n")
    I = big.full_subset - {m - 1}
    trans = big.parabolic_coset_reps(big.full_subset, I)
    table = {}
    members = set(trans)
    for g in trans:
        img = elem_of_line(big, gamma_prime_line(m, n, one_line(big, g)))
        if img not in members:
            raise RuntimeError("dual line left the transversal")
        table[g] = img
    for g, img in table.items():
        if table[img] != g:
            raise RuntimeError("dual-line map is not an involution")
    return table


@dataclass
class Pairing:
    """The pairing between a product module and the product of dual twists.

    lhs carries the standard induced basis; rhs is the product of the
    transpose-relabel twists of the factors.  alt_action gives the rhs action
    in the alternate induced basis (shifted generators), change expands that
    basis in the standard one, and matrix is the pairing itself: line (g, k)
    pairs with the alternate line of the dual transversal element, same k.
    """
    m: int
    n: int
    big: CoxeterSystem
    lhs: HeckeModule
    rhs: HeckeModule
    source: HeckeModule
    dual_source: HeckeModule
    alt_action: dict[int, RatMat]
    change: RatMat
    matrix: RatMat
    involution: dict[int, int]
    lines: dict[int, tuple]


def build_pairing(M: HeckeModule, N: HeckeModule) -> Pairing:
    bt = boxtimes(M, N)
    bt_h = boxtimes(_twist_full(phi_hat, M), _twist_full(phi_hat, N))
    T, dual_T = bt.induced.source, bt_h.induced.source
    big = bt.system
    m = M.system.rank + 1
    n = N.system.rank + 1
    r = m + n
    info = bt_h.induced
    if info.transversal != bt.induced.transversal:
        raise RuntimeError("transversal mismatch between the two products")

    d = T.dim
    dim = bt_h.dim
    lines = {g: one_line(big, g) for g in info.transversal}
    a0, b0 = _q(M.params.a0), _q(M.params.b0)

    # action on the alternate basis, straight from one-line case analysis
    alt_action: dict[int, RatMat] = {}
    for i0 in range(r - 1):
        mat = RatMat.zeros(dim, dim)
        for g in info.transversal:
            line = lines[g]
            p1 = line.index(i0 + 1) + 1
            p2 = line.index(i0 + 2) + 1
            base = info.pos[g] * d
            if (p1 <= m) == (p2 <= m):
                blk = dual_T.gen_action[min(p1, p2) - 1]
                for c in range(d):
                    col = mat.cols[base + c]
                    for rr, val in blk.cols[c].items():
                        col[base + rr] = val
            else:
                swapped = list(line)
                swapped[p1 - 1], swapped[p2 - 1] = swapped[p2 - 1], swapped[p1 - 1]
                other = info.pos[elem_of_line(big, tuple(swapped))] * d
                if p1 <= m:
                    for c in range(d):
                        mat.cols[base + c][other + c] = 1
                        if a0:
                            mat.cols[base + c][base + c] = a0
                elif b0:
                    for c in range(d):
                        mat.cols[base + c][other + c] = b0
        alt_action[i0] = mat

    # alternate basis expanded in the standard one, up the transversal tree
    change = RatMat.zeros(dim, dim)
    order = sorted(info.transversal, key=lambda g: big.length[g])
    cols: dict[int, list] = {}
    for g in order:
        base = info.pos[g] * d
        if g == 0:
            blockmat = RatMat.zeros(dim, d)
            for c in range(d):
                blockmat.cols[c][c] = 1
        else:
            parent, letter = info.parent[g]
            prev = cols[parent]
            blockmat = (bt_h.gen_action[letter] @ prev) - prev.scale(a0)
        cols[g] = blockmat
        for c in range(d):
            change.cols[base + c] = dict(blockmat.cols[c])

    gp = gamma_prime(big, m, n)
    P = RatMat.zeros(dim, dim)
    for g in info.transversal:
        src = info.pos[g] * d
        dst = bt.induced.pos[gp[g]] * d
        for c in range(d):
            P.cols[src + c][dst + c] = 1

    return Pairing(m, n, big, bt, bt_h, T, dual_T, alt_action, change, P, gp, lines)


def _block(mat: RatMat, row0: int, col0: int, d: int) -> RatMat:
    out = RatMat.zeros(d, d)
    for c in range(d):
        for rr, v in mat.cols[col0 + c].items():
            if row0 <= rr < row0 + d:
                out.cols[c][rr - row0] = v
    return out


def _branch_of(line, v1: int, v2: int, m: int, labels) -> str:
    p1 = line.index(v1) + 1
    p2 = line.index(v2) + 1
    if p1 <= m and p2 <= m:
        return labels[0]
    if p1 > m and p2 > m:
        return labels[1]
    if p1 <= m:
        return labels[2]
    return labels[3]


def _swap_values(big, line, v1, v2):
    swapped = list(line)
    i1, i2 = swapped.index(v1), swapped.index(v2)
    swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
    return elem_of_line(big, tuple(swapped))


def _pairing_checks(data: Pairing, rep: VerificationReport) -> None:
    big, m, n = data.big, data.m, data.n
    r = m + n
    d = data.source.dim
    P = data.matrix
    info = data.lhs.induced
    trans = info.transversal
    gp = data.involution
    a0, b0 = data.lhs.params.a0, data.lhs.params.b0
    ident = RatMat.identity(d)
    zero = RatMat.zeros(d, d)

    rows = [next(iter(col)) for col in P.cols if col]
    perm_ok = (P.nnz() == P.nrows
               and len(set(rows)) == P.nrows
               and all(len(col) == 1 and next(iter(col.values())) == 1 for col in P.cols))
    rep.add("pairing pairs each basis line with exactly one dual line", perm_ok)
    rep.add("pairing matrix is invertible", P.is_invertible())
    rep.add("dual-line involution is self-inverse",
            all(gp[gp[g]] == g for g in trans))

    worst = Fraction(0)
    for i0 in range(r - 1):
        diff = (data.change @ data.alt_action[i0]
                - data.rhs.gen_action[i0] @ data.change)
        worst = max(worst, diff.max_abs())
    rep.add_residual("alternate basis presentation matches the induced action", worst)

    countsA = dict.fromkeys(_A_BRANCHES, 0)
    countsB = dict.fromkeys(_B_BRANCHES, 0)
    okA = dict.fromkeys(_A_BRANCHES, True)
    okB = dict.fromkeys(_B_BRANCHES, True)
    pair_counts: dict[str, int] = {}
    worst_global = Fraction(0)
    for i0 in range(r - 1):
        Lmat = data.lhs.gen_action[i0].transpose() @ P
        Rmat = P @ data.alt_action[r - 2 - i0]
        worst_global = max(worst_global, (Lmat - Rmat).max_abs())

        brA = {g: _branch_of(data.lines[g], i0 + 1, i0 + 2, m, _A_BRANCHES)
               for g in trans}
        brB = {g: _branch_of(data.lines[g], r - i0 - 1, r - i0, m, _B_BRANCHES)
               for g in trans}
        for g in trans:
            countsA[brA[g]] += 1
            countsB[brB[g]] += 1
        for g in trans:
            a_br = brA[g]
            ga = data.lines[g]
            if a_br in ("A1", "A2"):
                p = min(ga.index(i0 + 1), ga.index(i0 + 2))
                predA_at = {gp[g]: data.source.gen_action[p].transpose()}
            elif a_br == "A3":
                predA_at = {gp[_swap_values(big, ga, i0 + 1, i0 + 2)]: ident}
            else:
                predA_at = {gp[g]: ident.scale(a0)}
                other = gp[_swap_values(big, ga, i0 + 1, i0 + 2)]
                predA_at[other] = predA_at.get(other, zero) + ident.scale(b0)
            for lam in trans:
                b_br = brB[lam]
                la = data.lines[lam]
                if b_br in ("B1", "B2"):
                    q = min(la.index(r - i0 - 1), la.index(r - i0))
                    predB = (data.dual_source.gen_action[q]
                             if g == gp[lam] else zero)
                elif b_br == "B3":
                    predB = zero
                    if g == gp[lam]:
                        predB = predB + ident.scale(a0)
                    if g == gp[_swap_values(big, la, r - i0 - 1, r - i0)]:
                        predB = predB + ident
                else:
                    predB = (ident.scale(b0)
                             if g == gp[_swap_values(big, la, r - i0 - 1, r - i0)]
                             else zero)
                blk = _block(Lmat, info.pos[g] * d, info.pos[lam] * d, d)
                predA = predA_at.get(lam, zero)
                if blk != predA:
                    okA[a_br] = False
                if blk != predB:
                    okB[b_br] = False
                if not blk.is_zero():
                    key = f"{a_br}|{b_br}"
                    pair_counts[key] = pair_counts.get(key, 0) + 1

    rep.add_residual("pairing intertwines the action with its partner generator",
                     worst_global,
                     detail={"A": countsA, "B": countsB,
                             "nonzero pairs": dict(sorted(pair_counts.items()))})
    for br in _A_BRANCHES:
        rep.add(f"case rule {br} reproduces its pairing blocks", okA[br],
                detail={"fired": countsA[br]})
    for br in _B_BRANCHES:
        rep.add(f"case rule {br} reproduces its pairing blocks", okB[br],
                detail={"fired": countsB[br]})


def verify_pairing_equivariance(M: HeckeModule, N: HeckeModule) -> VerificationReport:
    data = build_pairing(M, N)
    rep = VerificationReport(
        title="pairing with the product of dual twists",
        instance={"m": data.m, "n": data.n, "dim_M": M.dim, "dim_N": N.dim,
                  "params": str(M.params)},
    )
    _pairing_checks(data, rep)
    return rep


def _part1_from(data: Pairing) -> ModuleMap:
    X = data.matrix @ data.change.inverse()
    target = _twist_full(phi_hat, data.lhs)
    return ModuleMap(data.rhs, target, X, data.big.full_subset)


def thm48_part1_map(M: HeckeModule, N: HeckeModule) -> ModuleMap:
    """Product of the transpose-relabel twists onto the twist of the product,
    realized through the pairing and the alternate-basis change."""
    return _part1_from(build_pairing(M, N))


def verify_thm48(M: HeckeModule, N: HeckeModule, cross_check="auto",
                 seed: int = 0) -> VerificationReport:
    """Pairing checks plus explicit maps for all four anti-twist statements."""
    data = build_pairing(M, N)
    big = data.big
    S = big.full_subset
    bt = data.lhs
    rep = VerificationReport(
        title="anti-automorphism twists of products",
        instance={"m": data.m, "n": data.n, "dim_M": M.dim, "dim_N": N.dim,
                  "params": str(M.params)},
        seed=seed,
    )
    _pairing_checks(data, rep)

    def add_map(tag, fmap):
        rep.add_residual(f"{tag}: map is equivariant", fmap.residual())
        rep.add(f"{tag}: map is invertible", fmap.matrix.is_invertible())
        _cross_check(rep, tag, fmap.source, fmap.target, cross_check, seed)

    X1 = _part1_from(data)
    add_map("part 1 (dual-relabel of a product)", X1)

    Nc = _twist_full(chi, N)
    Mc = _twist_full(chi, M)
    h1 = thm44_part1_map(M, N)
    X1p = thm48_part1_map(_twist_full(phi, N), _twist_full(phi, M))
    X2 = ModuleMap(boxtimes(Nc, Mc), _twist_full(chi, bt),
                   h1.inverse().matrix.transpose() @ X1p.matrix, S)
    add_map("part 2 (dual of a product)", X2)

    h2p = thm44_part2_map(Nc, Mc)
    src3 = boxtimes(_twist_full(theta_hat, N), _twist_full(theta_hat, M))
    X3 = ModuleMap(src3, _twist_full(theta_hat, bt), X2.matrix @ h2p.matrix, S)
    add_map("part 3 (dual-flip of a product)", X3)

    h3p = thm44_part3_map(Nc, Mc)
    src4 = boxtimes(_twist_full(omega_hat, M), _twist_full(omega_hat, N))
    X4 = ModuleMap(src4, _twist_full(omega_hat, bt), X2.matrix @ h3p.matrix, S)
    add_map("part 4 (dual-composite of a product)", X4)
    return rep
