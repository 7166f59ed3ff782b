"""Battery helpers and the cheap scenes; the full suite runs in the
acceptance module."""

from fractions import Fraction

from hecke_kit import battery, mackey
from hecke_kit.battery import (
    SCENES,
    braid_scene,
    conjugation_scene,
    coset_scene,
    mackey_scene,
    negative_control_scene,
)
from hecke_kit.coxeter import get_system, symmetric_group_system
from hecke_kit.repmod import one_dim_factor, regular
from hecke_kit.scalars import ParamSpec

P10 = ParamSpec.parse("1,0")
P00 = ParamSpec.parse("0,0")
P23 = ParamSpec.parse("2,3")
PM11 = ParamSpec.parse("-1,1")


def test_one_dim_factor_shapes():
    s2 = symmetric_group_system(2)
    full = s2.full_subset
    def lam(m):
        return m.gen_action[0].cols[0].get(0, Fraction(0))

    assert one_dim_factor(s2, full, P10).dim == 1
    assert lam(one_dim_factor(s2, full, P10)) == Fraction(1)
    assert lam(one_dim_factor(s2, full, P00)) == Fraction(0)
    assert lam(one_dim_factor(s2, full, P23)) == Fraction(3)
    # no rational root of x^2 = -x + 1: falls back to the companion module
    assert one_dim_factor(s2, full, PM11).dim == 2
    # the one-letter alphabet has no generators at all
    s1 = symmetric_group_system(1)
    assert one_dim_factor(s1, s1.full_subset, PM11).dim == 1
    # over a proper subset of a larger group the same rule applies
    a3 = get_system("A3")
    assert lam(one_dim_factor(a3, {0, 2}, P23)) == Fraction(3)
    assert one_dim_factor(a3, {0, 2}, PM11).dim == 2
    assert one_dim_factor(a3, frozenset(), PM11).dim == 1


def test_full_regular():
    s3 = symmetric_group_system(3)
    m = regular(s3, s3.full_subset, P23)
    assert m.dim == 6 and m.subset == s3.full_subset


def test_scene_roster():
    names = [name for name, _ in SCENES]
    assert names == ["algebra", "cosets", "conjugation", "mackey", "tensor",
                     "braid flip", "involutions", "product twists",
                     "dual twists", "negative control"]


def test_coset_scene_covers_all_pairs():
    rep = coset_scene()
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    for g in ("A3", "B3"):
        assert by_name[f"{g}: index identity over all subset pairs"].detail == {
            "pairs": 64}


def test_conjugation_scene_representative_count():
    rep = conjugation_scene()
    assert rep.passed
    assert [(c.name, c.detail) for c in rep.checks] == [
        (f"{g}: cross-section basis elements slide past minimal representatives",
         {"representatives": n}) for g, n in (("A3", 281), ("B3", 509))]


def test_mackey_scene_induces_each_module_once_per_subset(monkeypatch):
    # Ind_I^W M does not depend on J: per (group, point) each subset I gets
    # one regular module and three inductions to the full algebra, and the
    # frozen A3 instance adds one of each
    groups = ("A2", "I2(5)")
    points = (P10, PM11)
    monkeypatch.setattr(battery, "MACKEY_GROUPS", groups)
    monkeypatch.setattr(battery, "DEFAULT_PARAM_BATTERY", points)
    family = []          # every family module the scene builds, kept alive
    counts = {"regular": 0, "induce": 0, "verify": 0}

    def built(make, key=None):
        def wrapper(*args, **kwargs):
            M = make(*args, **kwargs)
            family.append(M)
            if key:
                counts[key] += 1
            return M
        return wrapper

    induce = mackey.induce

    def counted_induce(M, J):
        if frozenset(J) == M.system.full_subset and any(M is F for F in family):
            counts["induce"] += 1
        return induce(M, J)

    def counted_verify(inst):
        counts["verify"] += 1
        return mackey.verify(inst)

    monkeypatch.setattr(battery, "regular", built(battery.regular, "regular"))
    monkeypatch.setattr(battery, "one_dim_factor", built(battery.one_dim_factor))
    monkeypatch.setattr(battery, "random_conjugate", built(battery.random_conjugate))
    monkeypatch.setattr(battery, "induce", counted_induce, raising=False)
    monkeypatch.setattr(mackey, "induce", counted_induce)
    monkeypatch.setattr(battery, "verify", counted_verify)
    rep = mackey_scene(seed=0)
    assert rep.passed
    n_subsets = sum(len(battery._all_subsets(get_system(g))) for g in groups) * len(points)
    n_pairs = sum(len(battery._all_subsets(get_system(g))) ** 2 for g in groups) * len(points)
    assert counts == {"regular": n_subsets + 1, "induce": 3 * n_subsets + 1,
                      "verify": 3 * n_pairs}


def test_mackey_scene_failure_names_the_family(monkeypatch):
    monkeypatch.setattr(battery, "MACKEY_GROUPS", ("A2",))
    monkeypatch.setattr(battery, "DEFAULT_PARAM_BATTERY", (P23,))
    conjugate = battery.random_conjugate

    def faulty(M, seed):
        out = conjugate(M, seed)
        if out.subset:                     # one entry off in one generator
            A = out.gen_action[min(out.subset)]
            A.cols[0][0] = A.cols[0].get(0, 0) + 1
        return out

    monkeypatch.setattr(battery, "random_conjugate", faulty)
    rep = mackey_scene(seed=0)
    check = rep.checks[0]
    assert check.name == "A2 at (2,3): all subset pairs and modules" and not check.ok
    failures = check.detail["failures"]
    assert failures and all("'random conjugate'" in f for f in failures)
    assert not any("'regular'" in f for f in failures)
    assert "([0], [0], 'random conjugate', 2)" in failures
    assert rep.checks[-1].ok                # the frozen A3 instance is untouched


def test_braid_scene():
    rep = braid_scene()
    assert rep.passed
    assert len(rep.checks) == 6


def test_negative_control_scene():
    rep = negative_control_scene(seed=0)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "semisimple point: the splitting is found and checks" in names
    assert "nilpotent point: search finds no invertible map" in names
    assert "nilpotent point: every equivariant map is singular (certificate)" in names
    hom = next(c for c in rep.checks
               if c.name == "nilpotent point: the space of equivariant maps is two-dimensional")
    assert hom.ok
