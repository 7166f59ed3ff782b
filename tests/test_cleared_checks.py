"""The relation and equivariance checks run on denominator-cleared integers.

`validate` and `ModuleMap.residuals` multiply each identity through by the
positive integer that clears it and form every product on integer matrices.
The Fraction-path versions below are the reference: the cleared checks must
give the same names, flags and exact residual values at every battery point,
the four integer ones and three non-integral ones, on working modules and on
planted faults.
"""

from fractions import Fraction

import pytest

from hecke_kit.coxeter import get_system
from hecke_kit.linalg import RatMat
from hecke_kit.mackey import build_sides, build_transfer_maps
from hecke_kit.repmod import (
    HeckeModule, ModuleMap, induce, one_dim_factor, random_conjugate, regular, validate,
)
from hecke_kit.scalars import DEFAULT_PARAM_BATTERY, ParamSpec

RATIONAL_POINTS = tuple(ParamSpec.parse(t) for t in ("1/2,3/16", "3/2,-1/2", "1/3,1/5"))
POINTS = [pytest.param(p, id=str(p)) for p in DEFAULT_PARAM_BATTERY + RATIONAL_POINTS]


def max_abs(mat):
    """Largest absolute entry of mat, read off its stored values."""
    return max((abs(v) for col in mat.cols for v in col.values()), default=0)


def ref_validate(M):
    a0, b0 = M.params.a0, M.params.b0
    ident = RatMat.identity(M.dim)
    out = []
    gens = sorted(M.subset)
    for i in gens:
        mat = M.gen_action[i]
        resid = max_abs(mat @ mat - mat.scale(a0) - ident.scale(b0))
        out.append((f"quadratic s{i + 1}", resid == 0, resid))
    for x in range(len(gens)):
        for y in range(x + 1, len(gens)):
            i, j = gens[x], gens[y]
            m = M.system.matrix.orders[i][j]
            left = right = ident
            for t in range(m):
                left = left @ (M.gen_action[i] if t % 2 == 0 else M.gen_action[j])
                right = right @ (M.gen_action[j] if t % 2 == 0 else M.gen_action[i])
            resid = max_abs(left - right)
            out.append((f"braid s{i + 1},s{j + 1} (m={m})", resid == 0, resid))
    return out


def ref_residuals(fmap):
    return {i: max_abs(fmap.matrix @ fmap.source.gen_action[i]
                       - fmap.target.gen_action[i] @ fmap.matrix)
            for i in sorted(fmap.subset)}


def typed(report):
    return [(name, ok, resid, type(resid)) for name, ok, resid in report]


def shifted(mat, r, c, delta):
    out = mat.copy()
    out.set_entry(r, c, out.entry(r, c) + delta)
    return out


def modules_at(params):
    sys = get_system("A3")
    I, J = frozenset({0, 1}), frozenset({0, 2})
    reg = regular(sys, I, params)
    small = one_dim_factor(sys, I, params)
    inst = build_sides(sys, I, J, reg)
    return inst, {
        "regular": reg,
        "one-dim": small,
        "random conjugate": random_conjugate(reg, seed=5),
        "induced": induce(small, sys.full_subset),
        "mackey lhs": inst.lhs,
        "mackey rhs": inst.rhs,
    }


@pytest.mark.parametrize("params", POINTS)
def test_validate_matches_fraction_reference(params):
    _, mods = modules_at(params)
    for what, M in mods.items():
        got = validate(M)
        assert typed(got) == typed(ref_validate(M)), what
        assert all(ok for _, ok, _ in got), what
        # one generator entry off by 1/7 breaks its quadratic relation
        i = min(M.subset)
        bad = dict(M.gen_action)
        bad[i] = shifted(bad[i], 0, 0, Fraction(1, 7))
        B = HeckeModule(M.system, M.subset, M.params, M.dim, bad)
        got = validate(B)
        assert typed(got) == typed(ref_validate(B)), what
        assert not got[0][1] and got[0][0] == f"quadratic s{i + 1}", what


@pytest.mark.parametrize("params", POINTS)
def test_residuals_match_fraction_reference(params):
    inst, mods = modules_at(params)
    fwd, bwd = build_transfer_maps(inst)
    conj = mods["random conjugate"]
    maps = [fwd, bwd, ModuleMap(conj, conj, RatMat.identity(conj.dim), conj.subset)]
    for fmap in maps:
        assert fmap.residuals() == ref_residuals(fmap) == dict.fromkeys(fmap.subset, 0)
        assert fmap.residual() == 0 and fmap.check()
        # the map off by 1/3 in one entry
        bad = ModuleMap(fmap.source, fmap.target, shifted(fmap.matrix, 0, 0, Fraction(1, 3)),
                        fmap.subset)
        want = ref_residuals(bad)
        assert bad.residuals() == want
        assert [type(v) for v in bad.residuals().values()] == [type(v) for v in want.values()]
        assert bad.residual() == max(want.values()) != 0 and not bad.check()


def test_checks_multiply_no_fractions(monkeypatch):
    # guards the integer path: with a denominator in every module matrix, no
    # product the checks form may hold a Fraction
    params = ParamSpec.parse("1/2,3/16")
    sys = get_system("A3")
    inst = build_sides(sys, {0, 1}, {0, 2}, regular(sys, {0, 1}, params))
    fwd, bwd = build_transfer_maps(inst)
    outputs = []
    real = RatMat.__matmul__

    def recorded(a, b):
        out = real(a, b)
        outputs.append(out)
        return out

    monkeypatch.setattr(RatMat, "__matmul__", recorded)
    for M in (inst.M, inst.lhs, inst.rhs):
        assert all(ok for _, ok, _ in validate(M))
    assert fwd.residual() == bwd.residual() == 0
    assert outputs
    assert all(v.__class__ is int for out in outputs for col in out.cols for v in col.values())
