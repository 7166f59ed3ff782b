"""Twist compatibility: transport of induced modules along automorphisms,
the dual-line involution, and the pairing with the product of dual twists."""

import hashlib
import json
from fractions import Fraction

import pytest

from hecke_kit.coxeter import get_system, one_line, symmetric_group_system
from hecke_kit.hecke import chi, omega, phi, theta
from hecke_kit.linalg import RatMat
from hecke_kit import cli, repmod, twists
from hecke_kit.repmod import induce, iso_test, random_conjugate, regular, scalar
from hecke_kit.scalars import DEFAULT_PARAM_BATTERY, ParamSpec
from hecke_kit.twists import (
    build_pairing,
    gamma_prime,
    gamma_prime_line,
    kron_swap,
    thm44_part2_map,
    thm48_part1_map,
    transport_induction_twist,
    verify_thm44,
    verify_thm48,
)

P10 = ParamSpec.parse("1,0")
P23 = ParamSpec.parse("2,3")
P00 = ParamSpec.parse("0,0")
PM11 = ParamSpec.parse("-1,1")

S1 = symmetric_group_system(1)
S2 = symmetric_group_system(2)
S3 = symmetric_group_system(3)

# a scalar satisfying the quadratic at each battery point, when one exists
LAM = {"1,0": 1, "2,3": 3, "0,0": 0, "-1,1": None}


def trivial(params):
    return scalar(S1, frozenset(), 1, params)


def full_regular(sys, params):
    return regular(sys, sys.full_subset, params)


def all_names(rep):
    return [c.name for c in rep.checks]


def failing(rep):
    return [c.name for c in rep.checks if not c.ok]


# -- dual-line involution ----------------------------------------------------


def test_gamma_prime_line_reverses_and_complements():
    assert gamma_prime_line(2, 2, (1, 3, 2, 4)) == (2, 4, 1, 3)
    assert gamma_prime_line(2, 2, (2, 4, 1, 3)) == (1, 3, 2, 4)
    assert gamma_prime_line(2, 2, (1, 2, 3, 4)) == (3, 4, 1, 2)
    assert gamma_prime_line(3, 1, (1, 2, 3, 4)) == (2, 3, 4, 1)


def test_gamma_prime_one_one_swaps_the_two_lines():
    table = gamma_prime(S2, 1, 1)
    e, s1 = 0, S2.gens[0]
    assert table == {e: s1, s1: e}


def test_gamma_prime_two_one_table():
    table = gamma_prime(S3, 2, 1)
    lines = {one_line(S3, g): one_line(S3, img) for g, img in table.items()}
    assert lines == {
        (1, 2, 3): (2, 3, 1),
        (1, 3, 2): (1, 3, 2),
        (2, 3, 1): (1, 2, 3),
    }


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                 (1, 3), (3, 2), (2, 3), (4, 1), (3, 3)])
def test_gamma_prime_involution_exhaustive(m, n):
    # the builder itself raises if the image leaves the transversal or the
    # map fails to be an involution
    big = symmetric_group_system(m + n)
    table = gamma_prime(big, m, n)
    from math import comb
    assert len(table) == comb(m + n, m)


def test_gamma_prime_rank_mismatch():
    with pytest.raises(ValueError):
        gamma_prime(S3, 2, 2)


# -- transport along automorphisms -------------------------------------------


def test_kron_swap_permutes_tensor_indices():
    sw = kron_swap(2, 3)
    for p in range(2):
        for q in range(3):
            assert sw.cols[p * 3 + q] == {q * 2 + p: Fraction(1)}


def test_transport_flip_smallest_case_frozen():
    # one coset line per group element; the image of the nontrivial line is
    # a*identity minus the generator action, giving an upper triangular map
    K = scalar(S2, frozenset(), 1, P10)
    fm = transport_induction_twist(theta(S2), induce(K, S2.full_subset))
    assert fm.matrix == RatMat.from_rows([[1, 1], [0, -1]])
    assert fm.check() and fm.matrix.is_invertible()
    K23 = scalar(S2, frozenset(), 1, P23)
    fm23 = transport_induction_twist(theta(S2), induce(K23, S2.full_subset))
    assert fm23.matrix == RatMat.from_rows([[1, 2], [0, -1]])
    assert fm23.check()


@pytest.mark.parametrize("name,subset", [
    ("B3", {0, 1}),
    ("A3", {0, 2}),
    ("I2(5)", {0}),
])
@pytest.mark.parametrize("builder", [phi, theta, omega])
def test_transport_any_system(name, subset, builder):
    sys = get_system(name)
    K = regular(sys, subset, P23)
    fm = transport_induction_twist(builder(sys), induce(K, sys.full_subset))
    assert fm.source.dim == sys.size // len(sys.parabolic_elements(subset)) * K.dim
    assert fm.check()
    assert fm.matrix.is_invertible()


def test_transport_relabels_the_parabolic():
    # conjugation by the longest element of I2(5) swaps the two generators,
    # so inducing from {0} on the twisted side uses the subset {1}
    sys = get_system("I2(5)")
    K = regular(sys, {0}, P10)
    fm = transport_induction_twist(phi(sys), induce(K, sys.full_subset))
    assert fm.source.subset == sys.full_subset
    assert fm.source.induced.source.subset == frozenset({1})
    assert fm.target.subset == sys.full_subset


def test_transport_rejects_anti_morphisms():
    K = regular(S2, {0}, P10)
    with pytest.raises(ValueError):
        transport_induction_twist(chi(S2), induce(K, S2.full_subset))


def test_transport_rejects_a_module_that_is_not_induced():
    with pytest.raises(ValueError, match="induced to the full algebra"):
        transport_induction_twist(theta(S2), random_conjugate(full_regular(S2, P10), seed=3))
    # the regular module is the induction of the trivial module of the empty
    # parabolic, so the transport takes it
    fmap = transport_induction_twist(theta(S2), full_regular(S2, P10))
    assert fmap.check() and fmap.is_invertible()
    # induced, but not to the full algebra
    part = induce(scalar(S3, frozenset(), 1, P10), {0})
    with pytest.raises(ValueError, match="induced to the full algebra"):
        transport_induction_twist(theta(S3), part)


# -- product and restriction compatibility ------------------------------------


def pick_factors(ptxt):
    params = ParamSpec.parse(ptxt)
    lam = LAM[ptxt]
    other = (scalar(S2, S2.full_subset, lam, params) if lam is not None
             else random_conjugate(full_regular(S2, params), seed=7))
    return params, other


@pytest.mark.parametrize("ptxt", [str(p) for p in DEFAULT_PARAM_BATTERY])
def test_thm44_shapes_across_params(ptxt):
    params, other = pick_factors(ptxt)
    cases = [
        (trivial(params), trivial(params)),
        (full_regular(S2, params), trivial(params)),
        (trivial(params), full_regular(S2, params)),
        (other, full_regular(S2, params)),
    ]
    for M, N in cases:
        rep = verify_thm44(M, N)
        assert not failing(rep), failing(rep)


def test_thm44_part2_map_frozen_small():
    fm = thm44_part2_map(trivial(P10), trivial(P10))
    assert fm.matrix == RatMat.from_rows([[1, 1], [0, -1]])


def test_thm44_reversed_product_shape():
    # part 1 induces the swapped factors from the parabolic with block
    # sizes reversed
    M = full_regular(S2, P10)
    N = trivial(P10)
    rep = verify_thm44(M, N)
    assert not failing(rep)
    from hecke_kit.twists import thm44_part1_map
    fm = thm44_part1_map(M, N)
    big = fm.source.system
    assert fm.source.induced.source.subset == big.full_subset - {0}
    assert fm.target.subset == big.full_subset


def count_induce_calls(monkeypatch):
    """Count induce calls through every name the twist checks call it by."""
    calls = []
    real = repmod.induce

    def counted(M, J):
        calls.append(M.dim)
        return real(M, J)

    monkeypatch.setattr(repmod, "induce", counted)
    monkeypatch.setattr(twists, "induce", counted)
    return calls


def test_thm44_builds_the_product_once(monkeypatch):
    # M (x) N once, then per product part one product of the twisted factors;
    # the factors are built first, since a regular module is an induction
    M, N = full_regular(S2, P23), trivial(P23)
    calls = count_induce_calls(monkeypatch)
    rep = verify_thm44(M, N)
    assert not failing(rep)
    assert len(calls) <= 4


def test_thm48_builds_each_product_once(monkeypatch):
    # two products for each of the two pairings, the chi-twisted product and
    # the sources of parts 3 and 4
    M, N = full_regular(S2, P23), trivial(P23)
    calls = count_induce_calls(monkeypatch)
    rep = verify_thm48(M, N)
    assert not failing(rep)
    assert len(calls) <= 7


def test_thm44_custom_restriction_module():
    M, N = trivial(P23), trivial(P23)
    L = full_regular(S2, P23)
    rep = verify_thm44(M, N, L=L)
    assert not failing(rep)


def test_thm44_rejects_foreign_restriction_module():
    M, N = trivial(P10), trivial(P10)
    with pytest.raises(ValueError):
        verify_thm44(M, N, L=regular(S3, S3.full_subset, P10))
    with pytest.raises(ValueError):
        verify_thm44(M, N, L=regular(S2, {0} - {0}, P10))


def test_thm44_cross_check_flag():
    M, N = trivial(P10), trivial(P10)
    with_iso = verify_thm44(M, N, cross_check=True)
    without = verify_thm44(M, N, cross_check=False)
    assert any("isomorphism search" in nm for nm in all_names(with_iso))
    assert not any("isomorphism search" in nm for nm in all_names(without))


def test_a_module_that_breaks_its_relations_fails_a_check(plant_induce_fault, capsys):
    # the planted fault is invisible at the four battery points, not at 1/2
    code = cli.main(["check", "thm44", "--m", "2", "--n", "1", "--params", "1/2,3/16",
                     "--format", "json"])
    assert code == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    searches = [c for c in checks if not c["ok"] and "isomorphism search" in c["name"]]
    assert searches
    for c in searches:
        assert c["detail"]["reason"] == "candidate failed equivariance"
        assert c["detail"]["residual"] != "0"


def test_thm44_larger_shape_regular_factors():
    rep = verify_thm44(full_regular(S3, P23), full_regular(S2, P23))
    assert not failing(rep)


# -- the pairing --------------------------------------------------------------

PARTNER = "pairing intertwines the action with its partner generator"
PAIRING_CHECKS = [
    "pairing pairs each basis line with exactly one dual line",
    "pairing matrix is invertible",
    "dual-line involution is self-inverse",
    "alternate basis presentation matches the induced action",
    PARTNER,
] + [f"case rule {br} reproduces its pairing blocks"
     for br in ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4")]


def pairing_checks(M, N):
    """The pairing checks of verify_thm48, by name."""
    rep = verify_thm48(M, N, cross_check=False)
    by_name = {c.name: c for c in rep.checks}
    return {name: by_name[name] for name in PAIRING_CHECKS}


def failing_checks(checks):
    return [name for name, c in checks.items() if not c.ok]


def test_pairing_one_one_frozen():
    data = build_pairing(trivial(P23), trivial(P23))
    assert data.matrix == RatMat.from_rows([[0, 1], [1, 0]])
    assert data.change == RatMat.from_rows([[1, -2], [0, 1]])
    checks = pairing_checks(trivial(P23), trivial(P23))
    assert not failing_checks(checks)
    main = checks[PARTNER]
    assert main.detail["A"] == {"A1": 0, "A2": 0, "A3": 1, "A4": 1}
    assert main.detail["B"] == {"B1": 0, "B2": 0, "B3": 1, "B4": 1}
    assert main.detail["nonzero pairs"] == {"A3|B3": 1, "A4|B3": 1, "A4|B4": 1}


def test_pairing_one_one_degenerate_params():
    # with both parameters zero the diagonal branch contributes nothing and
    # only the swap blocks survive
    checks = pairing_checks(trivial(P00), trivial(P00))
    assert not failing_checks(checks)
    main = checks[PARTNER]
    assert main.detail["nonzero pairs"] == {"A3|B3": 1}


def test_pairing_two_one_fires_first_block_branch():
    checks = pairing_checks(full_regular(S2, P10), trivial(P10))
    assert not failing_checks(checks)
    main = checks[PARTNER]
    assert main.detail["A"]["A1"] > 0
    assert main.detail["A"]["A2"] == 0
    main_swapped = pairing_checks(trivial(P10), full_regular(S2, P10))[PARTNER]
    assert main_swapped.detail["A"]["A2"] > 0
    assert main_swapped.detail["A"]["A1"] == 0


def test_pairing_two_two_covers_all_branches():
    checks = pairing_checks(full_regular(S2, P23), full_regular(S2, P23))
    assert not failing_checks(checks)
    main = checks[PARTNER]
    assert all(v > 0 for v in main.detail["A"].values())
    assert all(v > 0 for v in main.detail["B"].values())


@pytest.mark.parametrize("ptxt", [str(p) for p in DEFAULT_PARAM_BATTERY])
def test_pairing_across_params(ptxt):
    params, other = pick_factors(ptxt)
    assert not failing_checks(pairing_checks(other, full_regular(S2, params)))


# -- the four dual statements -------------------------------------------------


def test_thm48_part1_map_frozen_small():
    fm = thm48_part1_map(trivial(P10), trivial(P10))
    assert fm.matrix == RatMat.from_rows([[0, 1], [1, 1]])
    assert fm.check() and fm.matrix.is_invertible()


def test_thm48_one_one_both_scalars():
    for lam in (0, 1):
        M = scalar(S1, frozenset(), lam, P10)
        rep = verify_thm48(M, M)
        assert not failing(rep), failing(rep)


@pytest.mark.parametrize("ptxt", [str(p) for p in DEFAULT_PARAM_BATTERY])
def test_thm48_two_one_across_params(ptxt):
    params, _ = pick_factors(ptxt)
    rep = verify_thm48(full_regular(S2, params), trivial(params))
    assert not failing(rep), failing(rep)


def test_thm48_two_two_regulars():
    rep = verify_thm48(full_regular(S2, P10), full_regular(S2, P10))
    assert not failing(rep)
    fired = {c.name: c.detail["fired"] for c in rep.checks
             if c.name.startswith("case rule")}
    assert all(v > 0 for v in fired.values())


def test_thm48_report_is_json_serializable():
    rep = verify_thm48(trivial(P23), trivial(P23))
    obj = json.loads(rep.to_json())
    assert obj["passed"] is True
    assert any(c["name"].startswith("part 4") for c in obj["checks"])


def test_twist_reports_name_every_statement():
    rep44 = verify_thm44(trivial(P10), trivial(P10))
    names44 = " ".join(all_names(rep44))
    for k in range(1, 7):
        assert f"part {k} " in names44
    rep48 = verify_thm48(trivial(P10), trivial(P10))
    names48 = " ".join(all_names(rep48))
    for k in range(1, 5):
        assert f"part {k} " in names48


def test_transport_agrees_with_independent_search():
    # the explicit transport and the generic intertwiner search must both
    # certify the same pair of modules
    fm = thm44_part2_map(full_regular(S2, P23), trivial(P23))
    assert fm.check()
    found = iso_test(fm.source, fm.target, seed=3)
    assert found is not None


# -- every checked map, pinned ------------------------------------------------

PIN_CASES = [
    (1, 1, "one", "one", "2,3"),
    (1, 1, "one", "one", "0,0"),
    (2, 1, "regular", "one", "1/2,3/16"),
    (2, 1, "regular", "one", "-1,1"),
    (1, 2, "one", "regular", "-1,1"),
    (2, 2, "regular", "one", "1,0"),
    (2, 2, "one", "one", "-1,1"),
    (3, 1, "one", "regular", "0,0"),
    (3, 2, "one", "one", "2,3"),
    (3, 2, "one", "regular", "1/2,3/16"),
]
CHECKED_MAPS_SHA256 = "2ef6a48cb7863510985e66e7ad1fefe0cc91fdbbc79deca806b3ef0f06129353"


def _canon(mat):
    return f"{mat.nrows}x{mat.ncols}:" + ";".join(
        f"{c},{r},{v}" for c, col in enumerate(mat.cols) for r, v in sorted(col.items()))


def _pin_factor(kind, k, params):
    sys = symmetric_group_system(k)
    if kind == "regular":
        return full_regular(sys, params)
    return repmod.one_dim_factor(sys, sys.full_subset, params)


def test_checked_maps_are_pinned(monkeypatch):
    # every map whose residual the twist checks compute, with its source
    # action, in call order; a refactor of the map builders must keep them
    seen = []
    real = repmod.ModuleMap.residual

    def recorded(fmap):
        seen.append("|".join([_canon(fmap.matrix)] + [
            f"s{j}=" + _canon(fmap.source.gen_action[j])
            for j in sorted(fmap.source.subset)]))
        return real(fmap)

    monkeypatch.setattr(repmod.ModuleMap, "residual", recorded)
    for m, n, kind_m, kind_n, ptxt in PIN_CASES:
        params = ParamSpec.parse(ptxt)
        M, N = _pin_factor(kind_m, m, params), _pin_factor(kind_n, n, params)
        for verify in (verify_thm44, verify_thm48):
            assert not failing(verify(M, N))
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    assert (len(seen), digest) == (170, CHECKED_MAPS_SHA256)
