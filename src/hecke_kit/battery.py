"""The acceptance battery: every verification scene the suite runs.

Each scene function returns a VerificationReport; run_suite stitches them
together in a fixed order with stable prefixes so the aggregate serializes
byte-identically across reruns with the same seed.  Scenes are sized to keep
the whole battery within a few minutes while still exercising every
statement on several groups, subset pairs, modules, and parameter points.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from .coxeter import CoxeterSystem, get_system, symmetric_group_system
from .hecke import (
    HeckeElement,
    apply_morphism,
    c_w_morphism,
    check_theta_braid,
    chi,
    phi,
    theta,
    verify_algebra,
)
from .mackey import build_sides, verify, verify_tensor_decomposition
from .repmod import (
    direct_sum,
    hom_space,
    iso_test_detail,
    one_dim_factor,
    random_conjugate,
    regular,
    scalar,
)
from .report import VerificationReport
from .scalars import DEFAULT_PARAM_BATTERY, ParamSpec
from .twists import verify_thm44, verify_thm48

__all__ = [
    "algebra_scene",
    "coset_scene",
    "conjugation_scene",
    "mackey_scene",
    "tensor_scene",
    "braid_scene",
    "involution_scene",
    "product_twist_scene",
    "dual_twist_scene",
    "negative_control_scene",
    "run_suite",
]


def _all_subsets(sys: CoxeterSystem):
    gens = sorted(sys.full_subset)
    out = []
    for r in range(len(gens) + 1):
        out.extend(frozenset(c) for c in combinations(gens, r))
    return out


# -- scenes ------------------------------------------------------------------


def algebra_scene(seed: int = 0) -> VerificationReport:
    rep = VerificationReport(
        title="algebra relations and basis products",
        instance={"groups": ["A3 (exhaustive)", "B3 (2000 sampled pairs)"]},
        seed=seed,
    )
    rep.extend(verify_algebra(get_system("A3")), prefix="A3: ")
    rep.extend(verify_algebra(get_system("B3"), sample=2000, seed=seed + 11), prefix="B3: ")
    return rep


def coset_scene() -> VerificationReport:
    """Triple factorization: total, unique, length-additive, with the index
    identity, over every subset pair of two groups."""
    rep = VerificationReport(
        title="coset machinery",
        instance={"groups": ["A3", "B3"], "subset pairs": "all"},
    )
    for name in ("A3", "B3"):
        sys = get_system(name)
        subsets = _all_subsets(sys)
        total_ok = unique_ok = additive_ok = parts_ok = index_ok = True
        n_pairs = 0
        for J, I in product(subsets, subsets):
            n_pairs += 1
            reps = sys.double_coset_reps(J, I)
            sections = {tau: sys.cross_section(tau, J, I)[0] for tau in reps}
            seen = set()
            for w in range(sys.size):
                u, tau, v = sys.triple_factorize(w, J, I)
                if sys.mult(sys.mult(u, tau), v) != w:
                    total_ok = False
                if sys.length[u] + sys.length[tau] + sys.length[v] != sys.length[w]:
                    additive_ok = False
                K = sections.get(tau)
                if (K is None or not sys.in_parabolic(v, I)
                        or not sys.in_parabolic(u, J)
                        or not K <= sys.asc_right(u)):
                    parts_ok = False
                seen.add((u, tau, v))
            if len(seen) != sys.size:
                unique_ok = False
            wj = len(sys.parabolic_elements(J))
            lhs = sum(wj // len(sys.parabolic_elements(K))
                      for K in sections.values())
            if lhs != sys.size // len(sys.parabolic_elements(I)):
                index_ok = False
        rep.add(f"{name}: factorization is total and reconstructs", total_ok)
        rep.add(f"{name}: factorization is length-additive", additive_ok)
        rep.add(f"{name}: components lie in the stated transversals", parts_ok)
        rep.add(f"{name}: factorizations are distinct", unique_ok)
        rep.add(f"{name}: index identity over all subset pairs", index_ok,
                detail={"pairs": n_pairs})
    return rep


def conjugation_scene(word_cap: int = 3) -> VerificationReport:
    """Cross-section elements slide past minimal representatives, checked
    symbolically for every generator word up to the length cap."""
    sys = get_system("A3")
    rep = VerificationReport(
        title="conjugation past minimal representatives",
        instance={"group": "A3", "subset pairs": "all", "word cap": word_cap},
    )
    subsets = _all_subsets(sys)
    ok = True
    words_checked = 0
    for J, I in product(subsets, subsets):
        for tau in sys.double_coset_reps(J, I):
            spec = c_w_morphism(sys, tau, J, I)
            K = sorted(spec.domain)
            ptau = HeckeElement.basis_elt(sys, tau)
            layer = [HeckeElement.unit(sys)]
            for _ in range(word_cap):
                layer = [x * HeckeElement.gen(sys, j) for x in layer for j in K]
                for pk in layer:
                    words_checked += 1
                    if pk * ptau != ptau * apply_morphism(spec, pk):
                        ok = False
    rep.add("generator words commute through the conjugation morphism", ok,
            detail={"words": words_checked})
    return rep


MACKEY_GROUPS = ("A2", "A3", "B3", "I2(5)")


def mackey_scene(seed: int = 0) -> VerificationReport:
    """The decomposition battery: four groups, all subset pairs, three module
    families, all parameter points."""
    rep = VerificationReport(
        title="restricted induction decomposes over double cosets",
        instance={"groups": list(MACKEY_GROUPS), "subset pairs": "all",
                  "modules": ["regular", "one-dimensional", "random conjugate"],
                  "params": [str(p) for p in DEFAULT_PARAM_BATTERY]},
        seed=seed,
    )
    for name in MACKEY_GROUPS:
        sys = get_system(name)
        subsets = _all_subsets(sys)
        for params in DEFAULT_PARAM_BATTERY:
            bad = []
            count = 0
            for J, I in product(subsets, subsets):
                mods = [regular(sys, I, params),
                        one_dim_factor(sys, I, params),
                        random_conjugate(regular(sys, I, params), seed=seed + 5)]
                for M in mods:
                    count += 1
                    r = verify(build_sides(sys, I, J, M))
                    if not r.passed:
                        bad.append((sorted(I), sorted(J), M.dim))
            rep.add(f"{name} at ({params}): all subset pairs and modules", not bad,
                    detail={"instances": count, "failures": [str(b) for b in bad]} if bad
                    else {"instances": count})
    # the frozen dimension split for the well-known instance
    sys = get_system("A3")
    inst = build_sides(sys, {0, 1}, {0, 1}, regular(sys, {0, 1}, ParamSpec.parse("1,0")))
    rep.add("A3 regular instance splits 24 = 6 + 18",
            inst.lhs.dim == 24 and [b.module.dim for b in inst.blocks] == [6, 18])
    return rep


TENSOR_SHAPES = ((1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 2))


def tensor_scene(seed: int = 0) -> VerificationReport:
    rep = VerificationReport(
        title="two-factor decomposition with interleaving representatives",
        instance={"shapes": [list(s) for s in TENSOR_SHAPES],
                  "factors": ["one-dimensional", "regular"],
                  "params": [str(p) for p in DEFAULT_PARAM_BATTERY]},
        seed=seed,
    )
    for m, n, k in TENSOR_SHAPES:
        sm = symmetric_group_system(m)
        sn = symmetric_group_system(n)
        for params in DEFAULT_PARAM_BATTERY:
            for fname, make in (("one-dim", one_dim_factor), ("regular", regular)):
                M, N = make(sm, sm.full_subset, params), make(sn, sn.full_subset, params)
                r = verify_tensor_decomposition(M, N, k, seed=seed)
                rep.add(f"(m,n,k)=({m},{n},{k}) {fname} factors at ({params})",
                        r.passed,
                        detail=None if r.passed else
                        {"failures": [c.name for c in r.checks if not c.ok]})
    return rep


def braid_scene() -> VerificationReport:
    rep = VerificationReport(
        title="the parameter flip respects braid relations",
        instance={"orders": [2, 3, 4, 5, 6], "extra": "B3 generator pairs"},
    )
    for m in (2, 3, 4, 5, 6):
        sys = get_system(f"I2({m})")
        rep.add(f"alternating expansion closes at order {m}",
                check_theta_braid(sys, 0, 1))
    b3 = get_system("B3")
    rep.add("B3: every generator pair",
            all(check_theta_braid(b3, i, j)
                for i in range(3) for j in range(3) if i != j))
    return rep


INVOLUTION_GROUPS = ("A1", "A2", "A3", "B3", "I2(5)")


def involution_scene(seed: int = 0) -> VerificationReport:
    """The relabelling, flip, and reversal morphisms square to the identity
    and commute pairwise on every basis element; reversal is anti-
    multiplicative on sampled pairs."""
    rep = VerificationReport(
        title="algebra involutions",
        instance={"groups": list(INVOLUTION_GROUPS), "anti pairs": 100},
        seed=seed,
    )
    for name in INVOLUTION_GROUPS:
        sys = get_system(name)
        specs = {"relabel": phi(sys), "flip": theta(sys), "reversal": chi(sys)}
        basis = [HeckeElement.basis_elt(sys, w) for w in range(sys.size)]
        images = {tag: [apply_morphism(s, x) for x in basis]
                  for tag, s in specs.items()}
        invol_ok = all(
            apply_morphism(specs[tag], y) == basis[w]
            for tag in specs for w, y in enumerate(images[tag])
        )
        rep.add(f"{name}: each morphism is an involution", invol_ok)
        comm_ok = True
        for t1, t2 in (("relabel", "flip"), ("relabel", "reversal"), ("flip", "reversal")):
            for w in range(sys.size):
                if (apply_morphism(specs[t1], images[t2][w])
                        != apply_morphism(specs[t2], images[t1][w])):
                    comm_ok = False
        rep.add(f"{name}: the three morphisms commute pairwise", comm_ok)
        rng = random.Random(seed + 17)
        anti_ok = True
        for _ in range(100):
            v, w = rng.randrange(sys.size), rng.randrange(sys.size)
            lhs = apply_morphism(specs["reversal"], basis[v] * basis[w])
            if lhs != images["reversal"][w] * images["reversal"][v]:
                anti_ok = False
        rep.add(f"{name}: reversal is anti-multiplicative on sampled pairs", anti_ok)
    return rep


def product_twist_scene(seed: int = 0) -> VerificationReport:
    """Automorphism twists of products and restrictions across factor shapes
    up to three letters each, all parameter points."""
    rep = VerificationReport(
        title="automorphism twists of products and restrictions",
        instance={"shapes": "m,n <= 3", "params": [str(p) for p in DEFAULT_PARAM_BATTERY]},
        seed=seed,
    )
    systems = {m: symmetric_group_system(m) for m in (1, 2, 3)}

    def factors(m, params, small):
        sys = systems[m]
        if small or m == 1:
            return one_dim_factor(sys, sys.full_subset, params)
        return regular(sys, sys.full_subset, params)

    shapes = [(1, 1, False), (2, 1, False), (1, 2, False), (2, 2, False),
              (3, 1, True), (1, 3, True), (3, 2, True), (2, 3, True), (3, 3, True)]
    for params in DEFAULT_PARAM_BATTERY:
        bad = []
        for m, n, small in shapes:
            M = factors(m, params, small)
            N = factors(n, params, small)
            r = verify_thm44(M, N, seed=seed)
            if not r.passed:
                bad.append((m, n, [c.name for c in r.checks if not c.ok]))
        rep.add(f"all shapes at ({params})", not bad,
                detail={"shapes": len(shapes), "failures": [str(b) for b in bad]} if bad
                else {"shapes": len(shapes)})
        # the restriction statements against an independent module
        M = regular(systems[2], systems[2].full_subset, params)
        N = one_dim_factor(systems[1], systems[1].full_subset, params)
        L = regular(systems[3], systems[3].full_subset, params)
        r = verify_thm44(M, N, L=L, seed=seed)
        rep.add(f"restriction parts with the regular three-letter module at ({params})",
                r.passed,
                detail=None if r.passed else
                {"failures": [c.name for c in r.checks if not c.ok]})
    return rep


DUAL_SHAPES = ((1, 1), (2, 1), (2, 2))


def dual_twist_scene(seed: int = 0) -> VerificationReport:
    """Anti-automorphism twists through the dual-line pairing, with the
    independent isomorphism search on every instance and the case table
    covered across the shape set."""
    rep = VerificationReport(
        title="anti-automorphism twists of products",
        instance={"shapes": [list(s) for s in DUAL_SHAPES],
                  "params": [str(p) for p in DEFAULT_PARAM_BATTERY]},
        seed=seed,
    )
    fired: dict[str, int] = {}
    for m, n in DUAL_SHAPES:
        sm = symmetric_group_system(m)
        sn = symmetric_group_system(n)
        for params in DEFAULT_PARAM_BATTERY:
            M = (regular(sm, sm.full_subset, params) if m == 2
                 else one_dim_factor(sm, sm.full_subset, params))
            N = one_dim_factor(sn, sn.full_subset, params)
            r = verify_thm48(M, N, cross_check=True, seed=seed)
            for c in r.checks:
                if c.name.startswith("case rule") and c.detail:
                    key = c.name.split()[2]
                    fired[key] = fired.get(key, 0) + c.detail.get("fired", 0)
            rep.add(f"(m,n)=({m},{n}) at ({params})", r.passed,
                    detail=None if r.passed else
                    {"failures": [c.name for c in r.checks if not c.ok]})
    rep.add("every case rule fires somewhere in the battery",
            all(fired.get(k, 0) > 0
                for k in ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4")),
            detail={"fired": dict(sorted(fired.items()))})
    return rep


def negative_control_scene(seed: int = 0) -> VerificationReport:
    """The isomorphism tester discriminates: it finds the genuine splitting
    of the two-letter regular module at the semisimple point and certifies
    that none exists at the nilpotent point.

    At (1,0) the generator acts idempotently and the regular module really
    is the sum of its two one-dimensional quotients, so the honest outcome
    there is a found isomorphism.  The nilpotent point (0,0) carries the
    true negative, certified symbolically: the full two-dimensional space
    of equivariant maps consists of singular matrices.
    """
    rep = VerificationReport(
        title="isomorphism tester negative control",
        instance={"group": "A1", "module": "regular vs sum of one-dim quotients"},
        seed=seed,
    )
    sys = get_system("A1")

    semi = ParamSpec.parse("1,0")
    M = regular(sys, {0}, semi)
    N = direct_sum([scalar(sys, {0}, 1, semi), scalar(sys, {0}, 0, semi)])
    found = iso_test_detail(M, N, seed=seed)
    fmap = found["map"]
    rep.add("semisimple point: the splitting is found and checks",
            fmap is not None and fmap.check() and fmap.matrix.is_invertible())

    nil = ParamSpec.parse("0,0")
    Mn = regular(sys, {0}, nil)
    Nn = direct_sum([scalar(sys, {0}, 0, nil), scalar(sys, {0}, 0, nil)])
    detail = iso_test_detail(Mn, Nn, seed=seed)
    rep.add("nilpotent point: search finds no invertible map",
            detail["map"] is None and detail["reason"] == "no invertible combination")
    basis = hom_space(Mn, Nn)
    rep.add("nilpotent point: the space of equivariant maps is two-dimensional",
            len(basis) == 2)
    # a binary quadratic vanishing at three independent points is zero, so
    # checking three determinants certifies every combination is singular
    def det2(X):
        return X.entry(0, 0) * X.entry(1, 1) - X.entry(0, 1) * X.entry(1, 0)

    cert = (len(basis) == 2
            and all(X.nrows == 2 and X.ncols == 2 for X in basis)
            and det2(basis[0]) == 0 and det2(basis[1]) == 0
            and det2(basis[0] + basis[1]) == 0)
    rep.add("nilpotent point: every equivariant map is singular (certificate)", cert)
    return rep


SCENES = (
    ("algebra", lambda seed: algebra_scene(seed)),
    ("cosets", lambda seed: coset_scene()),
    ("conjugation", lambda seed: conjugation_scene()),
    ("mackey", lambda seed: mackey_scene(seed)),
    ("tensor", lambda seed: tensor_scene(seed)),
    ("braid flip", lambda seed: braid_scene()),
    ("involutions", lambda seed: involution_scene(seed)),
    ("product twists", lambda seed: product_twist_scene(seed)),
    ("dual twists", lambda seed: dual_twist_scene(seed)),
    ("negative control", lambda seed: negative_control_scene(seed)),
)


def run_suite(seed: int = 0) -> VerificationReport:
    """The whole battery in a fixed order with stable check prefixes."""
    rep = VerificationReport(
        title="acceptance battery",
        instance={"scenes": [name for name, _ in SCENES],
                  "params": [str(p) for p in DEFAULT_PARAM_BATTERY]},
        seed=seed,
    )
    for name, make in SCENES:
        rep.extend(make(seed), prefix=f"{name}: ")
    return rep
