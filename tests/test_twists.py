"""Twist compatibility: transport of induced modules along automorphisms,
the dual-line involution, and the pairing with the product of dual twists."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from hecke_kit.coxeter import elem_of_line, get_system, one_line, symmetric_group_system
from hecke_kit.hecke import chi, omega, phi, theta
from hecke_kit.linalg import RatMat
from hecke_kit import cli, repmod, twists
from hecke_kit.repmod import (
    HeckeModule, ModuleMap, induce, iso_test, random_conjugate, regular, scalar,
)
from hecke_kit.report import VerificationReport
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
    # the two products of the pairing, the chi-twisted product and the
    # sources of parts 3 and 4
    M, N = full_regular(S2, P23), trivial(P23)
    calls = count_induce_calls(monkeypatch)
    rep = verify_thm48(M, N)
    assert not failing(rep)
    assert len(calls) <= 5


def test_thm48_builds_one_pairing_and_inverts_nothing(monkeypatch):
    # every thm48 map is a lift up the transversal tree or a product of lifts
    def no_inverse(self):
        raise AssertionError("a thm48 map was built by elimination")

    monkeypatch.setattr(RatMat, "inverse", no_inverse)
    pairings = []
    real = twists.build_pairing

    def counted(M, N):
        pairings.append((M.dim, N.dim))
        return real(M, N)

    monkeypatch.setattr(twists, "build_pairing", counted)
    for M, N in [(full_regular(S2, P23), trivial(P23)),
                 (full_regular(S2, PM11), full_regular(S2, PM11))]:
        pairings.clear()
        rep = verify_thm48(M, N)
        assert not failing(rep), failing(rep)
        assert pairings == [(M.dim, N.dim)]


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


# the block-pair form of the case-rule checks, kept as the reference: for
# every pair of transversal lines it builds the block of lhs_i^T P and both
# rules' predictions for it, rebuilding swapped lines from their one-line form


def _ref_block(mat, row0, col0, d):
    out = RatMat.zeros(d, d)
    for c in range(d):
        for rr, v in mat.cols[col0 + c].items():
            if row0 <= rr < row0 + d:
                out.cols[c][rr - row0] = v
    return out


def _ref_swap_values(big, line, v1, v2):
    swapped = list(line)
    i1, i2 = swapped.index(v1), swapped.index(v2)
    swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
    return elem_of_line(big, tuple(swapped))


def reference_pairing_checks(data, rep):
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

    rhs = data.rhs
    alt = HeckeModule(big, rhs.subset, rhs.params, rhs.dim, data.alt_action)
    change = ModuleMap(alt, rhs, data.change, rhs.subset)
    rep.add_residual("alternate basis presentation matches the induced action",
                     max(change.residuals().values()))

    A_BR, B_BR = ("A1", "A2", "A3", "A4"), ("B1", "B2", "B3", "B4")
    countsA = dict.fromkeys(A_BR, 0)
    countsB = dict.fromkeys(B_BR, 0)
    okA = dict.fromkeys(A_BR, True)
    okB = dict.fromkeys(B_BR, True)
    pair_counts = {}
    worst_global = 0
    for i0 in range(r - 1):
        Lmat = data.lhs.gen_action[i0].transpose() @ P
        Rmat = P @ data.alt_action[r - 2 - i0]
        worst_global = max(worst_global, Lmat.gap(Rmat))

        brA = {g: twists._branch_of(data.lines[g], i0 + 1, i0 + 2, m, A_BR)
               for g in trans}
        brB = {g: twists._branch_of(data.lines[g], r - i0 - 1, r - i0, m, B_BR)
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
                predA_at = {gp[_ref_swap_values(big, ga, i0 + 1, i0 + 2)]: ident}
            else:
                predA_at = {gp[g]: ident.scale(a0)}
                other = gp[_ref_swap_values(big, ga, i0 + 1, i0 + 2)]
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
                    if g == gp[_ref_swap_values(big, la, r - i0 - 1, r - i0)]:
                        predB = predB + ident
                else:
                    predB = (ident.scale(b0)
                             if g == gp[_ref_swap_values(big, la, r - i0 - 1, r - i0)]
                             else zero)
                blk = _ref_block(Lmat, info.pos[g] * d, info.pos[lam] * d, d)
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
    for br in A_BR:
        rep.add(f"case rule {br} reproduces its pairing blocks", okA[br],
                detail={"fired": countsA[br]})
    for br in B_BR:
        rep.add(f"case rule {br} reproduces its pairing blocks", okB[br],
                detail={"fired": countsB[br]})


def _with_entry(acts, i, row, col, value):
    """A copy of the action dict with one entry of generator i replaced."""
    acts = dict(acts)
    acts[i] = acts[i].copy()
    acts[i].set_entry(row, col, value)
    return acts


def _entry_faults(acts, rng):
    """Single-entry faults in each matrix of acts: one random entry raised
    by 1, one nonzero entry cleared, one nonzero entry halved."""
    for i in sorted(acts):
        mat = acts[i]
        row, col = rng.randrange(mat.nrows), rng.randrange(mat.ncols)
        yield _with_entry(acts, i, row, col, mat.entry(row, col) + 1)
        nonzero = sorted((rr, c) for c, column in enumerate(mat.cols) for rr in column)
        for row, col in rng.sample(nonzero, min(2, len(nonzero))):
            yield _with_entry(acts, i, row, col, 0)
            yield _with_entry(acts, i, row, col, Fraction(mat.entry(row, col), 2))


def _planted_pairings(data, rng):
    """The pairing itself, then copies with one planted single-entry fault
    in an lhs generator, the source, the dual source or the alternate action."""
    yield data
    for field in ("lhs", "source", "dual_source"):
        mod = getattr(data, field)
        for acts in _entry_faults(mod.gen_action, rng):
            bad = HeckeModule(mod.system, mod.subset, mod.params, mod.dim, acts,
                              induced=mod.induced)
            yield dataclasses.replace(data, **{field: bad})
    for acts in _entry_faults(data.alt_action, rng):
        yield dataclasses.replace(data, alt_action=acts)


REFERENCE_CASES = [(m, n, "regular", "one") for m, n in ((1, 1), (2, 1), (2, 2))] + [
    (3, 2, "one", "one"), (2, 3, "one", "one")]


@pytest.mark.parametrize("ptxt", ["2,3", "-1,1", "1/2,3/16"])
@pytest.mark.parametrize("m,n,kind_m,kind_n", REFERENCE_CASES)
def test_case_rules_match_the_block_pair_reference(m, n, kind_m, kind_n, ptxt):
    params = ParamSpec.parse(ptxt)
    data = build_pairing(_pin_factor(kind_m, m, params), _pin_factor(kind_n, n, params))
    rng = random.Random(f"{m},{n},{ptxt}")
    failed = 0
    for planted in _planted_pairings(data, rng):
        new = VerificationReport(title="pairing", instance={}, seed=0)
        ref = VerificationReport(title="pairing", instance={}, seed=0)
        twists._pairing_checks(planted, new)
        reference_pairing_checks(planted, ref)
        assert new.to_json() == ref.to_json()
        failed += not new.passed
    # the planted faults reach the checks
    assert failed > 0


# -- the four dual statements -------------------------------------------------


def test_thm48_part1_map_frozen_small():
    fm = thm48_part1_map(trivial(P10), trivial(P10))
    assert fm.matrix == RatMat.from_rows([[0, 1], [1, 1]])
    assert fm.check() and fm.matrix.is_invertible()


# the battery points and the benchmark's rational points
LIFT_POINTS = [str(p) for p in DEFAULT_PARAM_BATTERY] + ["1/2,3/16", "3/2,-1/2", "1/3,1/5"]


@pytest.mark.parametrize("ptxt", LIFT_POINTS)
def test_part1_lift_inverts_the_alternate_basis_change(ptxt):
    # part 1 lifts the standard basis into alternate coordinates; the
    # reference inverts the change of basis by elimination
    params = ParamSpec.parse(ptxt)
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        M = _pin_factor("regular" if m == 2 else "one", m, params)
        N = _pin_factor("one", n, params)
        data = build_pairing(M, N)
        assert thm48_part1_map(M, N).matrix == data.matrix @ data.change.inverse()


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
