"""Decomposition of restricted inductions: block shapes, transfer maps,
exact verification, and the symmetric-group two-factor specialization."""

import json
import random
from fractions import Fraction

import pytest

from hecke_kit import mackey
from hecke_kit.coxeter import get_system, interleaving_rep_line, symmetric_group_system
from hecke_kit.linalg import RatMat
from hecke_kit.mackey import (
    build_sides, build_transfer_maps, split_induced, verify, verify_tensor_decomposition,
)
from hecke_kit.repmod import induce, one_dim_factor, random_conjugate, regular, scalar
from hecke_kit.scalars import DEFAULT_PARAM_BATTERY, ParamSpec

P10 = ParamSpec.parse("1,0")
P23 = ParamSpec.parse("2,3")


def s4_instance(params=P10):
    sys = get_system("A3")
    M = regular(sys, {0, 1}, params)
    return sys, build_sides(sys, {0, 1}, {0, 1}, M)


def test_s4_block_structure():
    sys, inst = s4_instance()
    assert inst.lhs.dim == 24
    got = [(sys.elem_name(b.tau), b.module.dim, sorted(b.cross)) for b in inst.blocks]
    assert got == [("e", 6, [0, 1]), ("s3", 18, [0])]
    assert inst.rhs.dim == 24
    # cross-section subsets conjugate into I elementwise
    for b in inst.blocks:
        for j, i in b.pairing.items():
            assert sys.conjugate(b.tau, sys.gens[j]) == sys.gens[i]


def test_block_reps_match_double_cosets():
    sys = get_system("B3")
    for I, J in [({0}, {1, 2}), ({0, 1}, {0, 2}), (set(), {0, 1, 2})]:
        M = regular(sys, I, P10)
        inst = build_sides(sys, I, J, M)
        assert [b.tau for b in inst.blocks] == sys.double_coset_reps(J, I)


def test_full_subsets_single_identity_block():
    sys = get_system("A2")
    M = regular(sys, sys.full_subset, P23)
    inst = build_sides(sys, sys.full_subset, sys.full_subset, M)
    assert len(inst.blocks) == 1 and inst.blocks[0].tau == 0
    assert inst.lhs.dim == M.dim == inst.rhs.dim
    fwd, bwd = build_transfer_maps(inst)
    assert fwd.matrix.is_identity() and bwd.matrix.is_identity()
    assert verify(inst).passed


def test_empty_subsets_regular_bimodule():
    sys = get_system("A1")
    M = scalar(sys, frozenset(), 1, P10)
    inst = build_sides(sys, frozenset(), frozenset(), M)
    assert inst.lhs.dim == 2
    assert [b.module.dim for b in inst.blocks] == [1, 1]
    assert len(inst.blocks) == sys.size
    assert verify(inst).passed


def test_forward_map_on_minimal_rep_lines():
    # the basis line of the rep itself lands at the start of its block
    sys, inst = s4_instance()
    fwd, bwd = build_transfer_maps(inst)
    d = inst.M.dim
    s3 = sys.gens[2]
    col = inst.big.induced.pos[s3] * d
    tau_block = inst.blocks[1]
    assert fwd.matrix.cols[col] == {tau_block.offset + 0: Fraction(1)}
    # identity coset goes to the identity block unchanged
    assert fwd.matrix.cols[0] == {0: Fraction(1)}


def test_backward_map_multiplies_by_tau():
    sys, inst = s4_instance()
    fwd, bwd = build_transfer_maps(inst)
    d = inst.M.dim
    block = inst.blocks[1]
    s2, s3 = sys.gens[1], sys.gens[2]
    zpos = block.module.induced.pos[s2]
    col = block.offset + zpos * d
    target = inst.big.induced.pos[sys.mult(s2, s3)]
    assert sys.length[sys.mult(s2, s3)] == 2
    assert bwd.matrix.cols[col] == {target * d: Fraction(1)}
    # identity block line returns to the identity coset line
    assert bwd.matrix.cols[0] == {0: Fraction(1)}


def test_transfer_maps_are_permutations():
    sys, inst = s4_instance(P23)
    fwd, bwd = build_transfer_maps(inst)
    for mat in (fwd.matrix, bwd.matrix):
        assert mat.nnz() == inst.lhs.dim
        assert all(v == 1 for colv in mat.cols for v in colv.values())


@pytest.mark.parametrize("params", DEFAULT_PARAM_BATTERY, ids=str)
def test_verify_s4_all_params(params):
    _, inst = s4_instance(params)
    rep = verify(inst)
    assert rep.passed, [c.name for c in rep.checks if not c.ok]


def test_verify_asymmetric_subsets():
    sys = get_system("A3")
    cases = [({0, 1}, {1, 2}), ({0, 2}, {1}), ({2}, {0, 1}), (set(), {0, 1, 2})]
    for I, J in cases:
        inst = build_sides(sys, I, J, regular(sys, I, P23))
        rep = verify(inst)
        assert rep.passed, (sorted(I), sorted(J), [c.name for c in rep.checks if not c.ok])


def test_verify_exhaustive_s3_pairs():
    sys = get_system("A2")
    subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    for I in subsets:
        for J in subsets:
            for params in (P10, ParamSpec.parse("0,0")):
                inst = build_sides(sys, I, J, regular(sys, I, params))
                assert verify(inst).passed, (sorted(I), sorted(J), str(params))


def test_verify_b3_with_dihedral_parabolic():
    sys = get_system("B3")
    M = regular(sys, {0, 1}, P23)  # order-8 parabolic
    inst = build_sides(sys, {0, 1}, {1, 2}, M)
    assert inst.lhs.dim == 48
    assert verify(inst).passed


def test_verify_i2_5():
    sys = get_system("I2(5)")
    for I, J in [({0}, {1}), ({0}, {0}), (set(), {0, 1})]:
        inst = build_sides(sys, I, J, regular(sys, I, P10))
        assert verify(inst).passed


@pytest.mark.parametrize("params", [P23, P10], ids=str)
def test_verify_catches_a_broken_left_side(monkeypatch, params):
    # verify validates only the right side; a left side that breaks must
    # still fail, through the transfer maps' equivariance
    real = mackey.restrict

    def faulty(M, I_sub):
        out = real(M, I_sub)
        if M.subset == M.system.full_subset:
            mat = out.gen_action[1].copy()
            mat.set_entry(0, 0, mat.entry(0, 0) + 1)
            out.gen_action[1] = mat
        return out

    monkeypatch.setattr(mackey, "restrict", faulty)
    sys = get_system("A3")
    rep = verify(build_sides(sys, {0}, {1, 2}, regular(sys, {0}, params)))
    failed = [c.name for c in rep.checks if not c.ok]
    assert failed == ["backward map is equivariant for s2",
                      "forward map is equivariant for s2"]


def test_verify_validates_once(monkeypatch):
    calls = []
    real = mackey.validate
    monkeypatch.setattr(mackey, "validate", lambda M: calls.append(M) or real(M))
    _, inst = s4_instance(P23)
    assert verify(inst).passed
    assert calls == [inst.rhs]


def test_instance_guard_wrong_subset():
    sys = get_system("A2")
    M = regular(sys, {0}, P10)
    with pytest.raises(ValueError):
        build_sides(sys, {0, 1}, {0}, M)


def test_instance_guard_wrong_system():
    # the Coxeter matrix decides; a module over A3 cannot be split in B3
    M = regular(get_system("A3"), {0, 1}, P23)
    with pytest.raises(ValueError, match="different Coxeter system"):
        build_sides(get_system("B3"), {0, 1}, {0, 2}, M)


def test_split_induced_matches_build_sides():
    sys = get_system("A3")
    M = regular(sys, {0, 1}, P23)
    big = induce(M, sys.full_subset)
    for J in ({0, 1}, {0, 2}, {1}, set()):
        shared = split_induced(big, J)
        fresh = build_sides(sys, {0, 1}, J, M)
        assert shared.big is big and shared.M is M and shared.I == fresh.I
        assert verify(shared).to_json() == verify(fresh).to_json()


def test_split_induced_guards():
    sys = get_system("A3")
    M = regular(sys, {0}, P10)
    with pytest.raises(ValueError, match="induced to the full algebra"):
        split_induced(M, {0})                          # not induced
    with pytest.raises(ValueError, match="induced to the full algebra"):
        split_induced(induce(M, {0, 1}), {0})          # induced to a parabolic
    with pytest.raises(ValueError):
        split_induced(induce(M, sys.full_subset), {5})


def test_report_shape_and_serialization():
    _, inst = s4_instance()
    rep = verify(inst)
    obj = json.loads(rep.to_json())
    assert obj["passed"] is True
    assert obj["instance"]["blocks"] == [
        {"tau": "e", "cross_section": [1, 2], "dim": 6},
        {"tau": "s3", "cross_section": [1], "dim": 18},
    ]
    assert "overall: PASS" in rep.render_text()


# -- two-factor symmetric group cases --------------------------------------


def test_tensor_decomposition_smallest():
    s1 = symmetric_group_system(1)
    M = scalar(s1, frozenset(), 1, P10)
    rep = verify_tensor_decomposition(M, M, 1)
    assert rep.passed
    # two interleavings, each block one line
    names = [c.name for c in rep.checks]
    assert any(n.startswith("t=0:") for n in names)
    assert any(n.startswith("t=1:") for n in names)
    assert rep.instance["dim_lhs"] == 2


def test_interleaving_lines_2_2_2():
    lines = {t: interleaving_rep_line(2, 2, 2, t) for t in range(3)}
    assert lines == {0: (3, 4, 1, 2), 1: (1, 3, 2, 4), 2: (1, 2, 3, 4)}


def test_tensor_decomposition_2_2_2_scalars():
    s2 = symmetric_group_system(2)
    M = scalar(s2, s2.full_subset, 1, P10)
    rep = verify_tensor_decomposition(M, M, 2)
    assert rep.passed
    dims = [b["dim"] for b in rep.instance["blocks"]]
    assert sorted(dims) == [1, 1, 4] and sum(dims) == 6


def test_tensor_decomposition_regular_factors():
    s3 = symmetric_group_system(3)
    s2 = symmetric_group_system(2)
    for params in (P23, ParamSpec.parse("-1,1")):
        M = regular(s3, s3.full_subset, params)
        N = regular(s2, s2.full_subset, params)
        rep = verify_tensor_decomposition(M, N, 2)
        assert rep.passed, [c.name for c in rep.checks if not c.ok]
        assert rep.instance["m"] == 3 and rep.instance["n"] == 2 and rep.instance["k"] == 2


def test_tensor_decomposition_k_range_guard():
    s2 = symmetric_group_system(2)
    M = scalar(s2, s2.full_subset, 1, P10)
    with pytest.raises(ValueError):
        verify_tensor_decomposition(M, M, 4)
    with pytest.raises(ValueError):
        verify_tensor_decomposition(M, M, 0)


def test_tensor_decomposition_all_k_2_2():
    s2 = symmetric_group_system(2)
    M = scalar(s2, s2.full_subset, 1, P10)
    N = scalar(s2, s2.full_subset, 0, P10)
    for k in (1, 2, 3):
        rep = verify_tensor_decomposition(M, N, k)
        assert rep.passed, (k, [c.name for c in rep.checks if not c.ok])


def test_mismatched_block_fails_instead_of_raising(monkeypatch):
    # with no cross-section the independent route builds blocks of the
    # wrong dimension: a failed check, not a crash in the comparison
    monkeypatch.setattr(mackey, "_relabel_from_line", lambda line, j: None)
    s2 = symmetric_group_system(2)
    M = regular(s2, s2.full_subset, P23)
    rep = verify_tensor_decomposition(M, M, 2)
    assert not rep.passed
    block = [c for c in rep.checks if c.name.endswith("independent block equals the generic block")]
    assert [c.name[:4] for c in block] == ["t=0:", "t=1:", "t=2:"]
    assert [(c.ok, c.residual, c.detail) for c in block] == [
        (False, None, {"reason": "dimension mismatch"}),
        (True, "0", None),
        (False, None, {"reason": "dimension mismatch"}),
    ]
    assert rep.checks[-1].detail == {"reason": "block mismatch"}


# -- the transfer checks against the product route -------------------------


def test_line_products_match_matrix_products():
    # lines with repeats and gaps too: rows that land on one line add up
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        line = [rng.choice([None, *range(n)]) for _ in range(n)]
        A = RatMat.from_rows([[rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(n)]
                              for _ in range(n)])
        P = mackey._line_matrix(line)
        assert mackey._line_times(line, A) == P @ A
        assert mackey._times_line(A, line) == A @ P

REFERENCE_CASES = [("A2", {0}, {1}), ("A3", {0, 1}, {0, 2}), ("B3", {0, 1}, {1, 2}),
                   ("I2(5)", {0}, {1})]
REFERENCE_MODULES = {
    "regular": lambda sys, I, params: regular(sys, I, params),
    "one_dim": lambda sys, I, params: one_dim_factor(sys, I, params),
    "conjugate": lambda sys, I, params: random_conjugate(regular(sys, I, params), 3),
}


def _swap_two_lines(inst, monkeypatch):
    # two forward lines of the first block of dimension >= 2 trade places
    real = mackey._transfer_lines
    block = next(b for b in inst.blocks if b.module.dim >= 2)

    def swapped(inst):
        fwd, bwd = real(inst)
        c1, c2 = [c for c, r in enumerate(fwd)
                  if block.offset <= r < block.offset + block.module.dim][:2]
        fwd[c1], fwd[c2] = fwd[c2], fwd[c1]
        return fwd, bwd

    monkeypatch.setattr(mackey, "_transfer_lines", swapped)


def _shift_first_offset(inst, monkeypatch):
    # the first block's lines overlap the next block's
    monkeypatch.setattr(inst.blocks[0], "offset", inst.blocks[0].offset + inst.M.dim)


def _scale_right_generator(inst, monkeypatch):
    j = min(inst.J)
    monkeypatch.setitem(inst.rhs.gen_action, j, inst.rhs.gen_action[j].scale(2))


def _product_residuals(inst):
    """Every transfer check's residual by the product route: the matrices of
    `build_transfer_maps`, multiplied and compared by `RatMat.gap` and
    `ModuleMap.residuals`."""
    fwd, bwd = build_transfer_maps(inst)
    ident = RatMat.identity(inst.lhs.dim)
    out = {
        "backward o forward is the identity": (bwd.matrix @ fwd.matrix).gap(ident),
        "forward o backward is the identity": (fwd.matrix @ bwd.matrix).gap(ident),
    }
    for name, m in (("backward", bwd), ("forward", fwd)):
        for j, r in m.residuals().items():
            out[f"{name} map is equivariant for s{j + 1}"] = r
    return {name: str(Fraction(r)) for name, r in out.items()}


@pytest.mark.parametrize("fault", [None, _swap_two_lines, _shift_first_offset,
                                   _scale_right_generator],
                         ids=["none", "swap", "shift", "scale"])
@pytest.mark.parametrize("params", ["2,3", "-1,1", "1/2,3/16"])
def test_transfer_checks_match_the_product_route(fault, params, monkeypatch):
    params = ParamSpec.parse(params)
    failing = 0
    for group, I, J in REFERENCE_CASES:
        sys = get_system(group)
        for kind, make in REFERENCE_MODULES.items():
            inst = build_sides(sys, I, J, make(sys, I, params))
            with monkeypatch.context() as m:
                if fault is not None:
                    fault(inst, m)
                want = _product_residuals(inst)
                got = {c.name: c.residual for c in verify(inst).checks if c.name in want}
            assert got == want, (group, kind)
            failing += any(r != "0" for r in want.values())
    # a planted fault shows in the residuals of every instance
    assert failing == (0 if fault is None else len(REFERENCE_CASES) * len(REFERENCE_MODULES))
