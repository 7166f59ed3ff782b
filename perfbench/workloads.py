"""The benchmark's workloads: inputs generated from a seed, one list of instances each.

An instance is one unit a `hecke-kit check` user waits for: the program's
calls plus serializing the instance's report with `to_json`, as the CLI
does.  `run()` returns the serialized report and the outputs the
independent checks need; `check(text, outputs)` returns a list of failures
and runs outside the timed interval.

Every program call goes through a module attribute (`hecke.apply_morphism`,
`repmod.induce`, ...) so the traced run's wrappers see it.  Instances whose
cost is an outlier by an order of magnitude (random conjugates of modules
above dimension 12, the regular (3,2,2) two-factor product, companion
factors of the three-letter twist shapes) are left out, so that the tail
percentile reads a group of instances and not a single one.  So are random
conjugates of dimension 6 to 12, whose cost moves up to twofold with the
seed: they sit at the tail's rank and made it swing from seed to seed.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from hecke_kit import coxeter, hecke, mackey, repmod, twists
from hecke_kit.report import VerificationReport
from hecke_kit.scalars import ParamSpec

import checks

INTEGER_POINTS = tuple(ParamSpec.parse(p) for p in ("1,0", "0,0", "2,3", "-1,1"))
RATIONAL_POINTS = tuple(ParamSpec.parse(p) for p in ("1/2,3/16", "3/2,-1/2", "1/3,1/5"))

# random conjugates above dimension 12 cost 10-100x the median instance, and
# from dimension 6 their cost moves up to twofold with the seed
RANDOM_MAX_DIM = 4


class Instance:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """Everything set-up builds: the systems used, and the instance list."""

    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.systems: dict[str, object] = {}
        self.instances: list[Instance] = []

    def system(self, name: str):
        if name not in self.systems:
            self.systems[name] = coxeter.get_system(name)
        return self.systems[name]

    def symmetric(self, letters: int):
        sys = coxeter.symmetric_group_system(letters)
        if letters > 1:
            self.systems.setdefault(f"A{letters - 1}", sys)
        return sys

    def subseed(self) -> int:
        return self.rng.randrange(2**31)

    def add(self, label, run, check):
        self.instances.append(Instance(label, run, check))

    def check_groups(self) -> list[str]:
        bad = []
        for name, sys in self.systems.items():
            bad += checks.check_group_order(sys, name)
        return bad


def _subsets(sys) -> list[frozenset]:
    gens = sorted(sys.full_subset)
    return [frozenset(c) for r in range(len(gens) + 1) for c in combinations(gens, r)]


def one_dim(sys, subset, params):
    """Scalar module on the larger quadratic root; companion where none is rational."""
    if not subset:
        return repmod.scalar(sys, subset, 1, params)
    roots = repmod.scalar_roots(params)
    if roots:
        return repmod.scalar(sys, subset, roots[-1], params)
    return repmod.companion(sys, subset, params)


def _report(title, instance, checks_):
    rep = VerificationReport(title=title, instance=instance)
    for name, ok, detail in checks_:
        rep.add(name, ok, detail=detail)
    return rep.to_json()


# -- algebra --------------------------------------------------------------------


def _pair_instance(wl, name, sys, basis, v, w):
    def run():
        prod_ = basis[v] * basis[w]
        route = (basis[v].change_basis("opi") * basis[w].change_basis("opi")).change_basis("pi")
        text = _report("basis product", {"group": name, "pair": [v, w]},
                       [("products agree with the shifted-basis route", prod_ == route,
                         {"terms": len(prod_.coeffs)})])
        return text, (prod_, route)

    def check(text, out):
        prod_, route = out
        return (checks.check_report(text, ["products agree with the shifted-basis route"])
                + checks.check_basis_product(sys, v, w,
                                             {"direct": prod_, "shifted route": route}))

    wl.add(f"{name} pair {v},{w}", run, check)


def _morphism_instance(wl, name, sys, basis, w):
    def run():
        specs = {"phi": hecke.phi(sys), "theta": hecke.theta(sys), "chi": hecke.chi(sys)}
        images = {tag: hecke.apply_morphism(spec, basis[w]) for tag, spec in specs.items()}
        text = _report("morphism images", {"group": name, "element": w},
                       [(f"{tag} image", True, {"terms": len(img.coeffs)})
                        for tag, img in images.items()])
        return text, (specs, images)

    def check(text, out):
        specs, images = out
        twice = {tag: hecke.apply_morphism(specs[tag], img) for tag, img in images.items()}
        return (checks.check_report(text, [f"{tag} image" for tag in ("phi", "theta", "chi")])
                + checks.check_morphism_images(sys, w, images, twice))

    wl.add(f"{name} morphisms {w}", run, check)


def _braid_instance(wl, name, sys, i, j):
    def run():
        ok = hecke.check_theta_braid(sys, i, j)
        return _report("braid flip", {"group": name, "pair": [i + 1, j + 1]},
                       [("alternating expansion closes", ok, None)]), ok

    def check(text, ok):
        return (checks.check_report(text, ["alternating expansion closes"])
                + ([] if ok is True else ["braid flip failed"]))

    wl.add(f"{name} braid {i},{j}", run, check)


def build_algebra(seed: int) -> Workload:
    wl = Workload("algebra", seed)
    for name in ("A3", "I2(4)", "I2(5)", "I2(6)"):
        sys = wl.system(name)
        basis = [hecke.HeckeElement.basis_elt(sys, w) for w in range(sys.size)]
        for v, w in product(range(sys.size), repeat=2):
            _pair_instance(wl, name, sys, basis, v, w)
    # B3: two partners per element, at lengths fixed by the element, so the
    # seed changes which pairs run but not the mix of word lengths
    b3 = wl.system("B3")
    basis = [hecke.HeckeElement.basis_elt(b3, w) for w in range(b3.size)]
    by_length: dict[int, list[int]] = {}
    for w in range(b3.size):
        by_length.setdefault(b3.length[w], []).append(w)
    for v in range(b3.size):
        for shift in (3, 8):
            w = wl.rng.choice(by_length[(v + shift) % len(by_length)])
            _pair_instance(wl, "B3", b3, basis, v, w)
    for name in ("A3", "B3", "I2(5)"):
        sys = wl.system(name)
        basis = [hecke.HeckeElement.basis_elt(sys, w) for w in range(sys.size)]
        for w in range(sys.size):
            _morphism_instance(wl, name, sys, basis, w)
    h4 = wl.system("H4")
    for i, j in combinations(range(h4.rank), 2):
        _braid_instance(wl, "H4", h4, i, j)
    return wl


# -- modules and rational ---------------------------------------------------------


def _mackey_instance(wl, name, sys, I, J, M, family):
    def run():
        inst = mackey.build_sides(sys, I, J, M)
        return mackey.verify(inst).to_json(), inst

    def check(text, inst):
        fwd, bwd = mackey.build_transfer_maps(inst)
        return (checks.check_report(text, checks.mackey_check_names(J))
                + checks.check_mackey(inst, fwd, bwd))

    wl.add(f"mackey {name} I={sorted(I)} J={sorted(J)} {family} ({M.params})", run, check)


FAMILIES = ("regular", "one-dim", "random")


def _mackey_battery(wl, groups, points):
    """All subset pairs of each group, `per_pair` of the three module families
    each; the family rotates with the pair and the point with every instance."""
    for name, per_pair in groups:
        sys = wl.system(name)
        subsets = _subsets(sys)
        count = 0
        for k, (J, I) in enumerate(product(subsets, subsets)):
            for f in range(per_pair):
                family = FAMILIES[(k + f) % len(FAMILIES)]
                params = points[count % len(points)]
                count += 1
                if family == "regular":
                    M = repmod.regular(sys, I, params)
                elif family == "one-dim":
                    M = one_dim(sys, I, params)
                elif len(sys.parabolic_elements(I)) <= RANDOM_MAX_DIM:
                    M = repmod.random_conjugate(repmod.regular(sys, I, params), wl.subseed())
                else:
                    continue
                _mackey_instance(wl, name, sys, I, J, M, family)


def _h4_battery(wl, points, Js):
    """One-dimensional modules over the H3 parabolic, induced to H4 (dim 120)."""
    h4 = wl.system("H4")
    I = frozenset({0, 1, 2})
    for k, J in enumerate(Js):
        params = points[k % len(points)]
        _mackey_instance(wl, "H4", h4, I, J, one_dim(h4, I, params), "one-dim")


def _factor(wl, letters, params, kind):
    sys = wl.symmetric(letters)
    if kind == "regular" and letters > 1:
        return repmod.regular(sys, sys.full_subset, params)
    return one_dim(sys, sys.full_subset, params)


def _tensor_instance(wl, m, n, k, kind, params):
    M, N = _factor(wl, m, params, kind), _factor(wl, n, params, kind)
    wl.symmetric(m + n)
    iso_seed = wl.subseed()

    def run():
        return mackey.verify_tensor_decomposition(M, N, k, seed=iso_seed).to_json(), None

    def check(text, _):
        return (checks.check_report(text, checks.tensor_check_names(m, n, k))
                + checks.check_tensor_dims(text, m, n, k, M.dim, N.dim))

    wl.add(f"tensor ({m},{n},{k}) {kind} ({params})", run, check)


def _thm44_instance(wl, m, n, kind, params):
    M, N = _factor(wl, m, params, kind), _factor(wl, n, params, kind)
    wl.symmetric(m + n)
    iso_seed = wl.subseed()

    def run():
        return twists.verify_thm44(M, N, seed=iso_seed).to_json(), None

    def check(text, _):
        bad = checks.check_report(text, checks.thm44_check_names(m, n, M.dim, N.dim))
        for make in (twists.thm44_part1_map, twists.thm44_part2_map, twists.thm44_part3_map):
            fmap = make(M, N)
            bad += checks.check_module_map(fmap.source, fmap.target, fmap.matrix, fmap.subset)
        return bad

    wl.add(f"thm44 ({m},{n}) {kind} ({params})", run, check)


def _thm48_instance(wl, m, n, params):
    M = _factor(wl, m, params, "regular" if m == 2 else "one-dim")
    N = _factor(wl, n, params, "one-dim")
    wl.symmetric(m + n)
    iso_seed = wl.subseed()

    def run():
        return twists.verify_thm48(M, N, cross_check=True, seed=iso_seed).to_json(), None

    def check(text, _):
        fmap = twists.thm48_part1_map(M, N)
        return checks.check_report(text, checks.thm48_check_names()) + checks.check_module_map(
            fmap.source, fmap.target, fmap.matrix, fmap.subset)

    wl.add(f"thm48 ({m},{n}) ({params})", run, check)


TENSOR_SHAPES = tuple((m, n, k, kind) for m, n, k in
                      ((1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2))
                      for kind in ("one-dim", "regular"))
THM44_SHAPES = ((1, 1, "regular"), (2, 1, "regular"), (1, 2, "regular"),
                (3, 1, "one-dim"), (1, 3, "one-dim"))
THM48_SHAPES = ((1, 1), (2, 1), (2, 2))


def _twist_battery(wl, points, larger_points):
    """Each shape at two of the points, rotating; the larger shapes at one."""
    count = 0

    def two_points():
        nonlocal count
        count += 1
        return points[count % len(points)], points[(count + 1) % len(points)]

    for m, n, k, kind in TENSOR_SHAPES:
        for params in two_points():
            _tensor_instance(wl, m, n, k, kind, params)
    for m, n, kind in THM44_SHAPES:
        for params in two_points():
            _thm44_instance(wl, m, n, kind, params)
    for m, n in THM48_SHAPES:
        for params in two_points():
            _thm48_instance(wl, m, n, params)
    # larger shapes only where a rational scalar module exists: with the
    # companion module standing in they cost 3-4 s each
    _tensor_instance(wl, 3, 2, 2, "one-dim", larger_points[0])
    _thm44_instance(wl, 3, 2, "one-dim", larger_points[1 % len(larger_points)])
    _thm44_instance(wl, 2, 3, "one-dim", larger_points[2 % len(larger_points)])


def build_modules(seed: int) -> Workload:
    wl = Workload("modules", seed)
    _mackey_battery(wl, (("A2", 3), ("I2(5)", 3), ("A3", 2), ("B3", 1)), INTEGER_POINTS)
    _h4_battery(wl, INTEGER_POINTS[:3], _subsets(wl.system("H4"))[:8])
    _twist_battery(wl, INTEGER_POINTS, INTEGER_POINTS[:3])
    return wl


def build_rational(seed: int) -> Workload:
    wl = Workload("rational", seed)
    _mackey_battery(wl, (("A2", 3), ("I2(5)", 3), ("A3", 2)), RATIONAL_POINTS)
    _h4_battery(wl, RATIONAL_POINTS[:2], _subsets(wl.system("H4"))[:5])
    _twist_battery(wl, RATIONAL_POINTS, RATIONAL_POINTS[:2])
    return wl


BUILD = {"algebra": build_algebra, "modules": build_modules, "rational": build_rational}
