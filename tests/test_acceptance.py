"""Acceptance gate: one test per criterion, so `pytest -v` prints one
pass/fail line for each.

The suite is run twice through the command line entry point (seed 42); the
parsed report from the first run is the evidence base for most criteria, and
a handful of direct library calls pin down details the aggregated scene
checks do not expose by name.  Every assertion is exact.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from hecke_kit.coxeter import symmetric_group_system
from hecke_kit.mackey import verify_tensor_decomposition
from hecke_kit.repmod import one_dim_factor, regular
from hecke_kit.scalars import ParamSpec
from hecke_kit.twists import verify_thm44, verify_thm48

P23 = ParamSpec.parse("2,3")

# sha256 of the seed-42 JSON report; any change to a check name, count,
# detail or ordering changes it, so it guards the report's byte identity
# across refactors and optimisations
SEED_42_REPORT_SHA256 = "e1df4ff7c172606121359b967830236522bb666935edc91d411bb35f761210a8"


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """Two CLI suite runs with the same seed; returns paths, bytes, report."""
    root = tmp_path_factory.mktemp("suite")
    runs = []
    for tag in ("first", "second"):
        out = root / f"report-{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hecke_kit.cli", "suite",
             "--seed", "42", "--out", str(out)],
            capture_output=True, text=True)
        runs.append((proc, out.read_bytes()))
    report = json.loads(runs[0][1])
    return runs, report


def _checks(report, prefix):
    got = [c for c in report["checks"] if c["name"].startswith(prefix)]
    assert got, f"no checks under {prefix!r}"
    return got


def _all_ok(checks):
    assert all(c["ok"] for c in checks), \
        [c["name"] for c in checks if not c["ok"]]


def test_criterion_01_algebra_relations_and_two_routes(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "algebra: ")
    _all_ok(checks)
    by_name = {c["name"]: c for c in checks}
    # the four-letter group is covered exhaustively: all 24*24 ordered pairs
    assert by_name["algebra: A3: products agree with the shifted-basis route"][
        "detail"] == {"pairs": 576}
    assert "algebra: A3: generator squares follow the quadratic relation" in by_name
    # the signed group of rank three is covered by a 2000-pair sample
    assert by_name["algebra: B3: products agree with the shifted-basis route"][
        "detail"] == {"pairs": 2000}
    assert "algebra: B3: associativity holds on sampled triples" in by_name


def test_criterion_02_coset_factorization_all_subset_pairs(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "cosets: ")
    _all_ok(checks)
    by_name = {c["name"]: c for c in checks}
    for g in ("A3", "B3"):
        # 8 subsets of a rank-3 generating set, so 64 ordered pairs
        assert by_name[f"cosets: {g}: index identity over all subset pairs"][
            "detail"] == {"pairs": 64}
        assert f"cosets: {g}: factorization is length-additive" in by_name
        assert f"cosets: {g}: factorizations are distinct" in by_name


def test_criterion_03_conjugation_commutation_short_words(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "conjugation: ")
    _all_ok(checks)
    assert checks[0]["detail"] == {"words": 423}


def test_criterion_04_restriction_of_induction_battery(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "mackey: ")
    _all_ok(checks)
    by_name = {c["name"]: c for c in checks}
    expected = {"A2": 48, "A3": 192, "B3": 192, "I2(5)": 48}
    for group, count in expected.items():
        for params in ("1,0", "0,0", "2,3", "-1,1"):
            name = f"mackey: {group} at ({params}): all subset pairs and modules"
            assert by_name[name]["detail"] == {"instances": count}
    assert by_name["mackey: A3 regular instance splits 24 = 6 + 18"]["ok"]


def test_criterion_05_two_factor_decomposition_battery(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "tensor: ")
    _all_ok(checks)
    # 6 shapes x {one-dim, regular} x 4 parameter points
    assert len(checks) == 48
    shapes = {c["name"].split()[1] for c in checks}
    assert shapes == {"(m,n,k)=(1,1,1)", "(m,n,k)=(2,1,1)", "(m,n,k)=(2,1,2)",
                      "(m,n,k)=(2,2,1)", "(m,n,k)=(2,2,2)", "(m,n,k)=(3,2,2)"}
    # direct run: the dimension formula and interleaving representatives are
    # named sub-checks, and the independent isomorphism search certifies
    s2 = symmetric_group_system(2)
    rep = verify_tensor_decomposition(regular(s2, s2.full_subset, P23),
                                      regular(s2, s2.full_subset, P23), 2)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "interleaving patterns enumerate the double cosets" in names
    for t in (0, 1, 2):
        assert f"t={t}: block dimension is C(2,{t})*C(2,{2 - t})*dimM*dimN" in names
    assert "isomorphism search links the block sum to the restriction" in names


def test_criterion_06_flip_braid_orders_two_through_six(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "braid flip: ")
    _all_ok(checks)
    names = {c["name"] for c in checks}
    for order in (2, 3, 4, 5, 6):
        assert f"braid flip: alternating expansion closes at order {order}" in names
    assert "braid flip: B3: every generator pair" in names


def test_criterion_07_involutions_and_anti_multiplicativity(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "involutions: ")
    _all_ok(checks)
    groups = {c["name"].split()[1].rstrip(":") for c in checks}
    # every bundled system of size at most 48
    assert groups == {"A1", "A2", "A3", "B3", "I2(5)"}
    anti = [c for c in checks if "anti-multiplicative" in c["name"]]
    assert len(anti) == 5


def test_criterion_08_product_twist_parts_one_through_six(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "product twists: ")
    _all_ok(checks)
    by_name = {c["name"]: c for c in checks}
    for params in ("1,0", "0,0", "2,3", "-1,1"):
        assert by_name[f"product twists: all shapes at ({params})"]["detail"] == {
            "shapes": 9}
        assert (f"product twists: restriction parts with the regular "
                f"three-letter module at ({params})") in by_name
    # direct run at one point: all six parts appear and pass, with the
    # independent three-letter regular module on the restriction side
    s1 = symmetric_group_system(1)
    s2 = symmetric_group_system(2)
    s3 = symmetric_group_system(3)
    rep = verify_thm44(regular(s2, s2.full_subset, P23),
                       one_dim_factor(s1, s1.full_subset, P23),
                       L=regular(s3, s3.full_subset, P23))
    assert rep.passed
    names = [c.name for c in rep.checks]
    for part in ("part 1 (relabel of a product)", "part 2 (flip of a product)",
                 "part 3 (composite of a product)",
                 "part 4 (relabel of a restriction)",
                 "part 5 (flip of a restriction)",
                 "part 6 (dual of a restriction)"):
        assert any(n.startswith(part) for n in names), part


def test_criterion_09_dual_twist_parts_and_case_coverage(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "dual twists: ")
    _all_ok(checks)
    fired = next(c for c in checks if "every case rule fires" in c["name"])
    assert set(fired["detail"]["fired"]) == {"A1", "A2", "A3", "A4",
                                             "B1", "B2", "B3", "B4"}
    assert all(v > 0 for v in fired["detail"]["fired"].values())
    shapes = {c["name"].split()[2] for c in checks if "(m,n)=" in c["name"]}
    assert shapes == {"(m,n)=(1,1)", "(m,n)=(2,1)", "(m,n)=(2,2)"}
    # direct run: all four parts appear, and the isomorphism search concurs
    # on the same instances
    s1 = symmetric_group_system(1)
    s2 = symmetric_group_system(2)
    rep = verify_thm48(regular(s2, s2.full_subset, P23),
                       one_dim_factor(s1, s1.full_subset, P23), cross_check=True)
    assert rep.passed
    names = [c.name for c in rep.checks]
    for part in ("part 1 (dual-relabel of a product)",
                 "part 2 (dual of a product)",
                 "part 3 (dual-flip of a product)",
                 "part 4 (dual-composite of a product)"):
        assert any(n.startswith(part) for n in names), part
    assert sum("isomorphism search concurs" in n for n in names) == 4


def test_criterion_10_negative_control_is_honest(suite_runs):
    _, report = suite_runs
    checks = _checks(report, "negative control: ")
    _all_ok(checks)
    names = {c["name"] for c in checks}
    # at the semisimple point the regular module really does split, and the
    # splitting is exhibited; the genuine negative lives at the nilpotent
    # point, where the search fails and a symbolic certificate shows every
    # equivariant map is singular
    assert "negative control: semisimple point: the splitting is found and checks" in names
    assert "negative control: nilpotent point: search finds no invertible map" in names
    assert ("negative control: nilpotent point: the space of equivariant maps "
            "is two-dimensional") in names
    assert ("negative control: nilpotent point: every equivariant map is "
            "singular (certificate)") in names


def test_criterion_11_suite_reruns_byte_identical(suite_runs):
    runs, report = suite_runs
    (proc1, bytes1), (proc2, bytes2) = runs
    assert proc1.returncode == 0, proc1.stderr
    assert proc2.returncode == 0, proc2.stderr
    assert "overall: PASS" in proc1.stdout
    assert bytes1 == bytes2
    assert report["passed"] is True
    assert report["seed"] == 42


def test_criterion_11_seed_42_report_is_pinned(suite_runs):
    runs, _ = suite_runs
    assert hashlib.sha256(runs[0][1]).hexdigest() == SEED_42_REPORT_SHA256
