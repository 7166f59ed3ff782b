import itertools
import json
import random
from fractions import Fraction

import pytest

from hecke_kit.coxeter import GroupTooLarge, get_system, symmetric_group_system
from hecke_kit.hecke import SupportOutsideDomain, chi, omega, phi, phi_hat, theta
from hecke_kit.linalg import RatMat, kernel_basis
from hecke_kit.mackey import verify_tensor_decomposition
from hecke_kit.repmod import (
    ElementOutsideParabolic,
    HeckeModule,
    InvalidScalar,
    NonCommutingSubsets,
    NotSubset,
    ParamMismatch,
    act_letters,
    act_word,
    boxtimes,
    companion,
    direct_sum,
    embed,
    hom_space,
    induce,
    iso_test,
    iso_test_detail,
    module_from_json_obj,
    module_to_json_obj,
    outer_tensor,
    product_factor,
    random_conjugate,
    regular,
    restrict,
    scalar,
    scalar_roots,
    twist_along,
    validate,
)
from hecke_kit.scalars import ParamSpec
from hecke_kit.twists import build_pairing, verify_thm44, verify_thm48

S1 = symmetric_group_system(1)
S2 = get_system("A1")
S3 = get_system("A2")
S4 = get_system("A3")

P10 = ParamSpec.parse("1,0")
P00 = ParamSpec.parse("0,0")
P23 = ParamSpec.parse("2,3")
PM11 = ParamSpec.parse("-1,1")
BATTERY = (P10, P00, P23, PM11)

F = Fraction


def subsets(rank):
    return [frozenset(c) for r in range(rank + 1) for c in itertools.combinations(range(rank), r)]


def rows_of(mat):
    return [[int(x) if x.denominator == 1 else x for x in row] for row in mat.to_rows()]


# -- validation and actions ------------------------------------------------


def test_validate_regular_s2_frozen():
    M = regular(S2, {0}, P10)
    assert rows_of(M.gen_action[0]) == [[0, 0], [1, 1]]
    assert M.is_valid()


def test_validate_scalar_and_counterexample():
    assert scalar(S2, {0}, 1, P10).is_valid()
    bad = HeckeModule(S2, {0}, P10, 2, {0: RatMat.from_rows([[1, 0], [0, 2]])})
    report = validate(bad)
    assert len(report) == 1
    name, ok, resid = report[0]
    assert name.startswith("quadratic") and not ok and resid == 2


def test_act_word_examples():
    M = regular(S2, {0}, P10)
    assert act_word(M, 0).is_identity()
    assert rows_of(act_word(M, S2.gens[0])) == [[0, 0], [1, 1]]
    with pytest.raises(ElementOutsideParabolic):
        act_word(restrict(regular(S3, {0, 1}, P10), {0}), S3.gens[1])


def test_act_word_matsumoto_property():
    # braid words act identically on any valid module
    for params in BATTERY:
        M = random_conjugate(regular(S3, {0, 1}, params), seed=5)
        assert M.is_valid()
        assert act_letters(M, [0, 1, 0]) == act_letters(M, [1, 0, 1])
        w0 = S3.longest()
        assert act_word(M, w0) == act_letters(M, [1, 0, 1])


def test_restrict():
    M = regular(S3, {0, 1}, P10)
    same = restrict(M, {0, 1})
    assert same.gen_action == M.gen_action and same.subset == M.subset
    bare = restrict(M, frozenset())
    assert bare.dim == 6 and not bare.gen_action
    half = restrict(M, {0})
    assert half.dim == 6 and half.is_valid()
    with pytest.raises(NotSubset):
        restrict(half, {1})


# -- induction -------------------------------------------------------------


def test_induce_dimension_law_exhaustive_s4():
    for I in subsets(3):
        M = companion(S4, I, P23)
        for J in subsets(3):
            if not I <= J:
                with pytest.raises(NotSubset):
                    induce(M, J)
                continue
            big = induce(M, J)
            index = len(S4.parabolic_elements(J)) // len(S4.parabolic_elements(I))
            assert big.dim == index * M.dim
            assert big.is_valid()
            assert len(big.induced.pairs) == big.dim


def test_induce_equal_subsets_is_identity_on_matrices():
    M = random_conjugate(regular(S3, {0, 1}, P23), seed=3)
    up = induce(M, {0, 1})
    assert up.dim == M.dim
    assert all(up.gen_action[i] == M.gen_action[i] for i in M.subset)


def test_induce_smallest_example_frozen():
    # one-dimensional module over the empty subset of S2, taken up to S2
    for params in BATTERY:
        triv = HeckeModule(S2, frozenset(), params, 1, {})
        up = induce(triv, {0})
        a0, b0 = params.a0, params.b0
        assert up.gen_action[0].to_rows() == [[F(0), b0], [F(1), a0]]
        assert up.induced.pairs == [(0, 0), (S2.gens[0], 0)]


def test_induced_transversal_tree():
    M = companion(S4, {0, 1}, P10)
    up = induce(M, {0, 1, 2})
    info = up.induced
    assert [S4.elem_name(g) for g in info.transversal] == ["e", "s3", "s2*s3", "s1*s2*s3"]
    for g, (p, j) in info.parent.items():
        assert S4.left_table[p][j] == g
        assert S4.length[p] + 1 == S4.length[g]


# -- tensor products -------------------------------------------------------


def test_outer_tensor_shapes_and_validity():
    M = regular(S4, {0}, P23)
    N = regular(S4, {2}, P23)
    T = outer_tensor(restrict(M, {0}), N)
    assert T.dim == 4 and T.subset == {0, 2}
    assert T.is_valid()
    lam = scalar(S4, {0}, 3, P23)
    mu = scalar(S4, {2}, -1, P23)
    one = outer_tensor(lam, mu)
    assert one.dim == 1
    assert one.gen_action[0].entry(0, 0) == 3 and one.gen_action[2].entry(0, 0) == -1


def test_outer_tensor_rejects_interacting_subsets():
    with pytest.raises(NonCommutingSubsets):
        outer_tensor(regular(S4, {0}, P23), regular(S4, {1}, P23))
    with pytest.raises(NonCommutingSubsets):
        outer_tensor(regular(S4, {0}, P23), regular(S4, {0}, P23))
    with pytest.raises(ParamMismatch):
        outer_tensor(regular(S4, {0}, P23), regular(S4, {2}, P10))


def test_boxtimes_smallest_case_frozen():
    for params in BATTERY:
        triv = HeckeModule(S1, frozenset(), params, 1, {})
        prod = boxtimes(triv, triv)
        assert prod.dim == 2
        assert prod.gen_action[0].to_rows() == [[F(0), params.b0], [F(1), params.a0]]


def test_boxtimes_dimension_formula():
    from math import comb

    cases = [(1, 2, companion(S1, frozenset(), P23), regular(S2, {0}, P23)),
             (2, 2, regular(S2, {0}, P23), companion(S2, {0}, P23))]
    for m, n, M, N in cases:
        prod = boxtimes(M, N)
        assert prod.dim == comb(m + n, m) * M.dim * N.dim
        assert prod.is_valid()


def test_boxtimes_associative_up_to_iso_for_scalars():
    lam = scalar(S1, frozenset(), 1, P10)
    left = boxtimes(boxtimes(lam, lam), lam)
    right = boxtimes(lam, boxtimes(lam, lam))
    assert left.dim == right.dim == 6
    found = iso_test(left, right)
    assert found is not None and found.check() and found.is_invertible()


def test_product_factor_is_the_induction_source():
    M, N = regular(S3, S3.full_subset, P23), companion(S2, S2.full_subset, P23)
    T = product_factor(M, N)
    big = symmetric_group_system(5)
    assert T.system is big
    assert T.subset == big.full_subset - {2} and T.dim == 12
    assert T.is_valid()
    prod = boxtimes(M, N)
    assert prod.induced.source.gen_action == T.gen_action
    assert prod.gen_action == induce(T, big.full_subset).gen_action


def test_product_system_respects_the_factor_cap():
    small = symmetric_group_system(2, cap=10)
    M = scalar(small, small.full_subset, 1, P10)
    # S_2 fits under the cap, S_4 (24 elements) does not
    with pytest.raises(GroupTooLarge):
        boxtimes(M, M)


PRODUCT_ENTRY_POINTS = {
    "boxtimes": boxtimes,
    "verify_tensor_decomposition": lambda M, N: verify_tensor_decomposition(M, N, 1),
    "verify_thm44": verify_thm44,
    "verify_thm48": verify_thm48,
    "build_pairing": build_pairing,
}


@pytest.mark.parametrize("bad", ["proper subset", "B2", "params"])
def test_product_entry_points_reject_a_bad_factor_alike(bad):
    good = regular(S2, S2.full_subset, P23)
    if bad == "proper subset":
        M, N = regular(S3, {0}, P23), good
        want = "induction product factors must live over the full subset"
    elif bad == "B2":
        b2 = get_system("B2")
        M, N = good, regular(b2, b2.full_subset, P23)
        want = "induction product is defined for symmetric groups only"
    else:
        M, N = good, regular(S2, S2.full_subset, P10)
        want = "(2,3) vs (1,0)"
    messages = {}
    for name, entry in PRODUCT_ENTRY_POINTS.items():
        with pytest.raises(ValueError) as err:
            entry(M, N)
        messages[name] = str(err.value)
    assert messages == dict.fromkeys(PRODUCT_ENTRY_POINTS, want)


# -- twists ----------------------------------------------------------------


def test_theta_twist_frozen_matrix():
    for params in (P23, P10, PM11):
        triv = HeckeModule(S1, frozenset(), params, 1, {})
        prod = boxtimes(triv, triv)
        tw = twist_along(theta(S2), prod)
        a0, b0 = params.a0, params.b0
        assert tw.gen_action[0].to_rows() == [[a0, -b0], [-1, F(0)]]
        assert tw.is_valid()


def test_chi_twist_of_scalar_is_itself():
    m = scalar(S3, {0, 1}, 1, P10)
    tw = twist_along(chi(S3), m)
    assert tw.gen_action == m.gen_action


def test_phi_hat_twist_reverses_generator_index():
    M = random_conjugate(regular(S3, {0, 1}, P23), seed=11)
    tw = twist_along(phi_hat(S3), M)
    for i in range(2):
        assert tw.gen_action[i] == M.gen_action[1 - i].transpose()
    assert tw.is_valid()


def test_twist_twice_returns_equal_matrices():
    M = random_conjugate(regular(S3, {0, 1}, P23), seed=12)
    for spec in (phi(S3), theta(S3), omega(S3), chi(S3)):
        twice = twist_along(spec, twist_along(spec, M))
        assert twice.gen_action == M.gen_action


def test_twist_domain_guard():
    small = regular(S3, {0}, P10)
    with pytest.raises(SupportOutsideDomain):
        twist_along(phi(S3), small)


# -- sums and constructors -------------------------------------------------


def test_direct_sum_blocks():
    a = scalar(S2, {0}, 0, P10)
    b = scalar(S2, {0}, 1, P10)
    s = direct_sum([a, b])
    assert s.dim == 2 and rows_of(s.gen_action[0]) == [[0, 0], [0, 1]]
    assert s.summands == [a, b] and s.offsets == [0, 1]
    assert s.is_valid()
    with pytest.raises(ValueError):
        direct_sum([a, scalar(S2, {0}, 1, P23)])


def test_regular_module_s3():
    M = regular(S3, {0, 1}, P10)
    assert M.dim == 6 and M.is_valid()
    assert M.labels[0] == "e"


def test_scalar_roots_frozen():
    assert scalar_roots(P10) == [0, 1]
    assert scalar_roots(P00) == [0]
    assert scalar_roots(P23) == [-1, 3]
    assert scalar_roots(PM11) == []
    assert scalar_roots(ParamSpec(F(1, 2), F(1, 2))) == [F(-1, 2), 1]


def test_scalar_validation():
    assert scalar(S3, {0, 1}, 0, P00).is_valid()
    with pytest.raises(InvalidScalar):
        scalar(S3, {0, 1}, 5, P10)


def test_companion_everywhere():
    B3 = get_system("B3")
    for params in BATTERY:
        assert companion(B3, B3.full_subset, params).is_valid()


def test_random_conjugate_preserves_class():
    M = regular(S2, {0}, P23)
    C = random_conjugate(M, seed=7)
    assert C.is_valid()
    found = iso_test(C, M)
    assert found is not None and found.check() and found.is_invertible()


# -- hom spaces ------------------------------------------------------------


def _vec_rows(mats):
    rows = []
    for X in mats:
        row = {}
        for c, col in enumerate(X.cols):
            for r, v in col.items():
                row[r * X.ncols + c] = v
        rows.append(row)
    return rows


def _span_rank(mats):
    if not mats:
        return 0
    n = mats[0].nrows * mats[0].ncols
    return n - len(kernel_basis(_vec_rows(mats), n))


def test_hom_space_routes_agree_for_induced_source():
    from hecke_kit.repmod import _hom_generic

    M0 = companion(S3, {0}, P23)
    M = induce(M0, {0, 1})
    N = regular(S3, {0, 1}, P23)
    fast = hom_space(M, N)
    slow = _hom_generic(M, N)
    assert len(fast) == len(slow)
    for X in fast:
        for i in (0, 1):
            assert X @ M.gen_action[i] == N.gen_action[i] @ X
    assert _span_rank(fast) == len(fast)
    assert _span_rank(fast + slow) == len(fast)


def test_hom_space_routes_agree_for_sum_source():
    from hecke_kit.repmod import _hom_generic

    a = scalar(S2, {0}, 0, P10)
    b = regular(S2, {0}, P10)
    M = direct_sum([a, b])
    N = regular(S2, {0}, P10)
    fast = hom_space(M, N)
    slow = _hom_generic(M, N)
    assert len(fast) == len(slow)
    assert _span_rank(fast + slow) == len(fast)


# -- isomorphism testing ---------------------------------------------------


def test_iso_test_identity_and_dim_mismatch():
    M = regular(S3, {0, 1}, P10)
    found = iso_test(M, M)
    assert found is not None and found.check()
    N = companion(S3, {0, 1}, P10)
    assert iso_test(M, N) is None  # dims 6 vs 2
    with pytest.raises(ParamMismatch):
        iso_test(M, regular(S3, {0, 1}, P23))


def test_iso_regular_s2_0hecke_splits():
    # pi^2 = pi at (1,0) makes the rank-2 regular module diagonalizable,
    # so the split into the two scalar lines really is an isomorphism
    M = regular(S2, {0}, P10)
    N = direct_sum([scalar(S2, {0}, 0, P10), scalar(S2, {0}, 1, P10)])
    found = iso_test(M, N)
    assert found is not None and found.check() and found.is_invertible()


def test_iso_negative_control_nilpotent_case():
    # at (0,0) the regular module is a nonsplit extension: every map to the
    # scalar sum kills the socle column, so no invertible intertwiner exists
    M = regular(S2, {0}, P00)
    N = direct_sum([scalar(S2, {0}, 0, P00), scalar(S2, {0}, 0, P00)])
    detail = iso_test_detail(M, N)
    assert detail["map"] is None
    assert detail["hom_dim"] == 2
    pos = {w: t for t, w in enumerate(S2.parabolic_elements({0}))}
    col_e = pos[0]
    for X in hom_space(M, N):
        assert all(not X.cols[c] for c in range(2) if c != col_e)


def test_iso_test_outcome_is_symmetric():
    pairs = [
        (regular(S2, {0}, P10), direct_sum([scalar(S2, {0}, 0, P10), scalar(S2, {0}, 1, P10)])),
        (regular(S2, {0}, P00), direct_sum([scalar(S2, {0}, 0, P00), scalar(S2, {0}, 0, P00)])),
        (random_conjugate(companion(S3, {0, 1}, P23), 9), companion(S3, {0, 1}, P23)),
    ]
    for M, N in pairs:
        assert (iso_test(M, N) is None) == (iso_test(N, M) is None)


def test_iso_zero_dimensional_modules():
    z1 = HeckeModule(S2, {0}, P10, 0, {0: RatMat.zeros(0, 0)})
    z2 = induce(restrict(z1, frozenset()), {0})
    assert z2.dim == 0 and z2.is_valid()
    found = iso_test(z1, z2)
    assert found is not None


# -- serialization ---------------------------------------------------------


def test_module_json_round_trip():
    M = induce(companion(S4, {0, 1}, P23), {0, 1, 2})
    obj = module_to_json_obj(M)
    text = json.dumps(obj, sort_keys=True)
    back = module_from_json_obj(json.loads(text))
    assert back.dim == M.dim and back.subset == M.subset and back.params == M.params
    assert back.gen_action == M.gen_action


def test_module_json_frozen_shape():
    M = regular(S2, {0}, P10)
    M2 = HeckeModule(get_system("A3"), {0, 1}, P10, 2,
                     {0: M.gen_action[0], 1: M.gen_action[0]})
    obj = module_to_json_obj(M2)
    assert obj == {
        "group": "A3",
        "subset": [1, 2],
        "params": {"a": "1", "b": "0"},
        "dim": 2,
        "gens": {"1": [["0", "0"], ["1", "1"]], "2": [["0", "0"], ["1", "1"]]},
    }
    assert module_from_json_obj(obj).is_valid()


def test_json_custom_matrix_group():
    # group tag may be a name or an explicit matrix object; both must parse
    sys_custom = get_system({"n": 2, "m": [[1, 5], [5, 1]]})
    M = companion(sys_custom, {0, 1}, P10)
    back = module_from_json_obj(module_to_json_obj(M))
    assert back.system.matrix == sys_custom.matrix
    assert back.gen_action == M.gen_action
    obj = module_to_json_obj(M)
    obj["group"] = {"n": 2, "m": [[1, 5], [5, 1]]}
    again = module_from_json_obj(obj)
    assert again.system.matrix == sys_custom.matrix and again.gen_action == M.gen_action


def test_embed_guard():
    M = regular(S3, {0, 1}, P10)
    B3 = get_system("B3")
    with pytest.raises(ValueError):
        embed(M, B3, 1)  # order at (2, 3) in B3 is 4, not 3
    ok = embed(M, B3, 0)
    assert ok.subset == {0, 1} and ok.is_valid()
