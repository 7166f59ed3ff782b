"""Battery helpers and the cheap scenes; the full suite runs in the
acceptance module."""

from fractions import Fraction

from hecke_kit.battery import (
    SCENES,
    braid_scene,
    conjugation_scene,
    coset_scene,
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


def test_conjugation_scene_word_count():
    rep = conjugation_scene()
    assert rep.passed
    assert rep.checks[0].detail == {"words": 423}


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
