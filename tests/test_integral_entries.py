"""At integer parameter points every module construction and every transfer
or twist map is integral, and must be stored with plain int entries.

A stray Fraction entry (say a Fraction(1) written straight into `.cols`)
would still give correct results, but it would send every later product
back to Fraction arithmetic without any test noticing; these tests notice.
"""

import pytest

from hecke_kit.coxeter import get_system, symmetric_group_system
from hecke_kit.mackey import build_sides, build_transfer_maps
from hecke_kit.repmod import (
    companion, induce, random_conjugate, regular, scalar, scalar_roots,
)
from hecke_kit.scalars import DEFAULT_PARAM_BATTERY
from hecke_kit.twists import (
    build_pairing, thm44_part1_map, thm44_part2_map, thm44_part3_map, thm48_part1_map,
)

POINTS = [pytest.param(p, id=str(p)) for p in DEFAULT_PARAM_BATTERY]


def assert_int_entries(mat, what):
    bad = [(r, j, v) for j, col in enumerate(mat.cols) for r, v in col.items()
           if v.__class__ is not int]
    assert not bad, f"{what}: non-int entries {bad[:3]}"


def test_battery_points_are_integral():
    assert all(p.a0.denominator == p.b0.denominator == 1 for p in DEFAULT_PARAM_BATTERY)


@pytest.mark.parametrize("params", POINTS)
def test_module_constructors(params):
    sys = get_system("B3")
    I = frozenset({0, 1})
    mods = {
        "regular": regular(sys, I, params),
        "companion": companion(sys, I, params),
        "random_conjugate": random_conjugate(regular(sys, I, params), seed=5),
    }
    for lam in scalar_roots(params):
        mods[f"scalar {lam}"] = scalar(sys, I, lam, params)
    for name, M in list(mods.items()):
        mods[f"induce({name})"] = induce(M, sys.full_subset)
    for name, M in mods.items():
        for i, mat in M.gen_action.items():
            assert_int_entries(mat, f"{name} s{i + 1}")


@pytest.mark.parametrize("params", POINTS)
def test_mackey_sides_and_transfer_maps(params):
    sys = get_system("B3")
    inst = build_sides(sys, {0, 1}, {1, 2}, regular(sys, {0, 1}, params))
    for side in (inst.lhs, inst.rhs):
        for i, mat in side.gen_action.items():
            assert_int_entries(mat, f"side s{i + 1}")
    for fmap in build_transfer_maps(inst):
        assert_int_entries(fmap.matrix, "transfer map")


@pytest.mark.parametrize("params", POINTS)
def test_twist_maps(params):
    S2, S3 = symmetric_group_system(2), symmetric_group_system(3)
    M, N = regular(S2, S2.full_subset, params), companion(S3, S3.full_subset, params)
    for make in (thm44_part1_map, thm44_part2_map, thm44_part3_map, thm48_part1_map):
        fmap = make(M, N)
        assert_int_entries(fmap.matrix, make.__name__)
        assert_int_entries(fmap.inverse().matrix, f"{make.__name__} inverse")
        for mod in (fmap.source, fmap.target):
            for i, mat in mod.gen_action.items():
                assert_int_entries(mat, f"{make.__name__} module s{i + 1}")
    data = build_pairing(M, N)
    assert_int_entries(data.matrix, "pairing")
    assert_int_entries(data.change, "alternate basis change")
    for i, mat in data.alt_action.items():
        assert_int_entries(mat, f"alternate action s{i + 1}")
