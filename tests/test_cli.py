"""Command line behaviour: output shapes, module specs, exit codes."""

import argparse
import hashlib
import json
from fractions import Fraction

import pytest

from hecke_kit import cli
from hecke_kit.coxeter import get_system, symmetric_group_system
from hecke_kit.report import VerificationReport
from hecke_kit.scalars import ParamSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --- describe ---------------------------------------------------------------

def test_describe_double_cosets_a3(capsys):
    code, out, _ = run(capsys, "describe", "--group", "A3",
                       "--I", "1,2", "--J", "1,2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 24 and obj["rank"] == 3
    assert obj["longest_length"] == 6
    assert obj["I"] == [1, 2] and obj["J"] == [1, 2]
    rows = {r["tau"]: r for r in obj["double_cosets"]}
    assert set(rows) == {"e", "s3"}
    assert rows["e"]["K"] == [1, 2] and rows["e"]["index_in_J"] == 1
    assert rows["s3"]["K"] == [1] and rows["s3"]["index_in_J"] == 3


def test_describe_dihedral_seven(capsys):
    code, out, _ = run(capsys, "describe", "--group", "I2(7)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 14 and obj["rank"] == 2


def test_describe_coset_reps_a2(capsys):
    code, out, _ = run(capsys, "describe", "--group", "A2", "--I", "1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["min_coset_reps"] == ["e", "s2", "s1*s2"]
    assert obj["parabolic_size"] == 2


def test_describe_text_rendering(capsys):
    code, out, _ = run(capsys, "describe", "--group", "A3", "--I", "1,2",
                       "--J", "1,2")
    assert code == 0
    assert "group A3: 24 elements" in out
    assert "s3: K = {s1}" in out


def test_describe_writes_out_file(capsys, tmp_path):
    path = tmp_path / "desc.json"
    code, out, _ = run(capsys, "describe", "--group", "A2", "--out", str(path))
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["size"] == 6


def test_describe_group_cap_overflow(capsys):
    code, _, err = run(capsys, "describe", "--group", "H4", "--group-cap", "100")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("cap, code", [("14400", 0), ("14399", 2)])
def test_describe_group_cap_is_the_largest_order_allowed(capsys, cap, code):
    assert run(capsys, "describe", "--group", "H4", "--group-cap", cap)[0] == code


def test_describe_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("HECKE_KIT_CAP", "100")
    code, _, err = run(capsys, "describe", "--group", "H4")
    assert code == 2 and "cap" in err


@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_group_cap_flag_must_be_a_positive_integer(capsys, value):
    code, out, err = run(capsys, "describe", "--group", "A2", "--group-cap", value)
    assert code == 2 and out == ""
    assert err == f"error: --group-cap must be a positive integer, got {value!r}\n"


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
def test_env_cap_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("HECKE_KIT_CAP", value)
    code, out, err = run(capsys, "describe", "--group", "A2")
    assert code == 2 and out == ""
    assert err == f"error: HECKE_KIT_CAP must be a positive integer, got {value!r}\n"


def test_describe_j_without_i(capsys):
    code, _, err = run(capsys, "describe", "--group", "A3", "--J", "1")
    assert code == 2 and "--I" in err


def test_unknown_group(capsys):
    code, _, err = run(capsys, "describe", "--group", "Q9")
    assert code == 2 and "unknown group" in err


def test_bad_subset_label(capsys):
    code, _, err = run(capsys, "describe", "--group", "A2", "--I", "5")
    assert code == 2 and "outside range" in err


# --- module specs -----------------------------------------------------------

def test_build_module_tokens():
    s = symmetric_group_system(3)
    p = ParamSpec.parse("2,3")
    full = s.full_subset
    assert cli.build_module("regular", s, full, p, 0).dim == 6
    assert cli.build_module("scalar:3", s, full, p, 0).dim == 1
    assert cli.build_module("scalar:-1", s, full, p, 0).dim == 1
    # bare scalar resolves the larger quadratic root
    m = cli.build_module("scalar", s, full, p, 0)
    assert m.gen_action[0].cols[0][0] == Fraction(3)
    assert cli.build_module("companion", s, full, p, 0).dim == 2
    assert cli.build_module("random:5", s, full, p, 0).dim == 6
    with pytest.raises(ValueError):
        cli.build_module("mystery", s, full, p, 0)
    with pytest.raises(ValueError):
        cli.build_module("scalar", s, full, ParamSpec.parse("-1,1"), 0)
    # the empty subset constrains nothing, so a scalar module exists anyway
    m = cli.build_module("scalar", s, frozenset(), ParamSpec.parse("-1,1"), 0)
    assert m.dim == 1 and m.subset == frozenset() and m.gen_action == {}


def test_parse_subset():
    s = get_system("B3")
    assert cli.parse_subset("1,3", s) == frozenset({0, 2})
    assert cli.parse_subset("", s) == frozenset()
    assert cli.parse_subset("none", s) == frozenset()
    assert cli.parse_subset("-", s) == frozenset()
    with pytest.raises(ValueError):
        cli.parse_subset("0", s)
    with pytest.raises(ValueError):
        cli.parse_subset("1,x", s)


# --- check ------------------------------------------------------------------

def test_check_mackey_regular(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "check", "mackey", "--group", "A3",
                       "--I", "1,2", "--J", "1,3", "--module", "regular",
                       "--params", "1,0", "--params", "2,3",
                       "--out", str(path))
    assert code == 0
    assert "overall: PASS" in out
    obj = json.loads(path.read_text())
    assert obj["passed"] is True
    names = [c["name"] for c in obj["checks"]]
    assert any(n.startswith("(1,0) ") for n in names)
    assert any(n.startswith("(2,3) ") for n in names)
    assert not any(n.startswith("(-1,1) ") for n in names)


def test_check_mackey_scalar_modules(capsys):
    code, out, _ = run(capsys, "check", "thm48", "--m", "1", "--n", "1",
                       "--M", "scalar:1", "--N", "scalar:0",
                       "--params", "1,0")
    assert code == 0 and "overall: PASS" in out


def test_check_algebra_json(capsys):
    code, out, _ = run(capsys, "check", "algebra", "--group", "A2",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["tool"]["name"]


def test_check_algebra_proves_h3_in_full(capsys):
    # 3 generators and 120 elements: 9 * 120 commutation checks per basis,
    # 3 * 120 intertwining checks, and no sampling at this size
    code, out, _ = run(capsys, "check", "algebra", "--group", "H3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] is None and obj["instance"] == {"group": "H3", "size": 120}
    details = {c["name"]: c.get("detail") for c in obj["checks"]}
    commute = [details[f"left and right generator rules commute in the {b} basis"]
               for b in ("pi", "opi")]
    assert commute == [{"checks": 1080}, {"checks": 1080}]
    assert sum(d["checks"] for d in commute) == 2160
    assert details["basis change intertwines the left generator rules"] == {"checks": 360}


def test_check_algebra_fails_on_a_planted_fault(capsys, plant_left_rule_fault):
    plant_left_rule_fault("b doubled on s1")
    code, out, _ = run(capsys, "check", "algebra", "--group", "A3", "--format", "json")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert "left and right generator rules commute in the pi basis" in failed


def test_check_theta_braid(capsys):
    code, out, _ = run(capsys, "check", "theta-braid", "--group", "I2(6)")
    assert code == 0
    assert "order 6" in out


def test_check_theta_braid_rank_one(capsys):
    code, out, _ = run(capsys, "check", "theta-braid", "--group", "A1")
    assert code == 0
    assert "nothing to check" in out


def test_check_corollary(capsys):
    code, out, _ = run(capsys, "check", "corollary", "--m", "2", "--n", "1",
                       "--k", "1", "--params", "0,0")
    assert code == 0 and "overall: PASS" in out


def test_check_corollary_names_a_failed_search(plant_induce_fault, capsys):
    # the planted fault is invisible at the four battery points, not at 1/2
    code, out, _ = run(capsys, "check", "corollary", "--m", "2", "--n", "1",
                       "--k", "1", "--params", "1/2,3/16", "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    search = [c for c in checks if c["name"].endswith(
        "isomorphism search links the block sum to the restriction")]
    assert len(search) == 1 and not search[0]["ok"]
    assert search[0]["detail"]["reason"] == "candidate failed equivariance"
    assert search[0]["detail"]["residual"] != "0"


def test_check_corollary_bad_k(capsys):
    code, _, err = run(capsys, "check", "corollary", "--m", "2", "--n", "1",
                       "--k", "9")
    assert code == 2 and "k must satisfy" in err


def test_check_thm44_default_modules(capsys):
    code, out, _ = run(capsys, "check", "thm44", "--m", "2", "--n", "1",
                       "--params", "2,3")
    assert code == 0 and "overall: PASS" in out


@pytest.mark.parametrize("cap,argv", [
    # the factors (S_4, 24 elements) already exceed the cap
    ("10", ["thm48", "--m", "4", "--n", "4", "--M", "scalar", "--N", "scalar"]),
    # the factors fit under the cap, the product group (S_6 or S_4) does not
    ("100", ["corollary", "--m", "3", "--n", "3", "--k", "3",
             "--M", "scalar", "--N", "scalar"]),
    ("10", ["thm44", "--m", "2", "--n", "2"]),
    ("10", ["thm48", "--m", "2", "--n", "2", "--M", "scalar", "--N", "scalar"]),
])
def test_shape_commands_obey_group_cap(capsys, cap, argv):
    code, out, err = run(capsys, "check", *argv, "--params", "2,3", "--group-cap", cap)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "cap" in err


def test_suite_takes_no_group_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", "--group-cap", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --group-cap" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--params", "1/0,1"],
                                   ["--params", "1,0", "--module", "scalar:1/0"]])
def test_zero_denominator_is_an_input_error(capsys, extra):
    code, _, err = run(capsys, "check", "mackey", "--group", "A2",
                       "--I", "1", "--J", "2", *extra)
    assert code == 2
    assert err.count("\n") == 1 and "zero denominator" in err
    assert "Traceback" not in err


def test_suite_writes_a_file_only_with_out(capsys, monkeypatch, tmp_path):
    rep = VerificationReport(title="stub suite")
    rep.add("stub check", True)
    monkeypatch.setattr(cli, "run_suite", lambda seed: rep)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "suite", "--format", "json")
    assert code == 0 and json.loads(out)["passed"] is True
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(capsys, "suite", "--format", "json", "--out", "rep.json")
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
    assert (tmp_path / "rep.json").read_text() == out


def test_out_report_matches_stdout_json(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "check", "algebra", "--group", "A2",
                       "--format", "json", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize("exc", [RuntimeError("all probe primes divided a denominator"),
                                 TypeError("unsupported operand type(s)"),
                                 KeyError(5)])
def test_internal_fault_exits_3_not_1(capsys, monkeypatch, exc):
    # 1 means "a check failed", so a fault inside a check must not map to it
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify_thm44", boom)
    code, out, err = run(capsys, "check", "thm44", "--m", "2", "--n", "1",
                         "--params", "2,3")
    assert code == 3 and out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


# --- flags and pinned output ------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["describe", "--group", "A3"],
    ["check", "theta-braid", "--group", "A2"],
    ["check", "algebra", "--group", "A2"],
])
@pytest.mark.parametrize("flag", [["--params", "2,3"], ["--seed", "3"]])
def test_symbolic_commands_reject_point_flags(capsys, argv, flag):
    # these commands read no parameter point and no seed, so a point given to
    # them would read as checked when it was not
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + flag)
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: unrecognized arguments: {' '.join(flag)}\n"


@pytest.mark.parametrize("argv", [
    ["check", "mackey", "--group", "A2", "--I", "1", "--J", "2", "--m", "random",
     "--par", "2,3"],
    ["check", "thm44", "--m", "1", "--n", "1", "--para", "2,3"],
    ["describe", "--group", "A3", "--group-c", "100"],
])
def test_flag_prefixes_are_rejected(capsys, argv):
    # a prefix is never read as a flag, so one command's flag cannot be
    # silently taken for another's
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("\n") == 1 and cap.err.startswith("error: unrecognized arguments: ")


def test_usage_errors_are_one_line(capsys):
    for argv in ([], ["check"], ["check", "mackey"], ["suite", "--seed", "x"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), argv


def test_help_and_version_still_exit_0(capsys):
    for argv in (["--help"], ["check", "mackey", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


def test_point_flags_belong_to_the_point_checks():
    def commands(parser, path=()):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    yield from commands(child, path + (name,))
        if path and path != ("check",):
            yield " ".join(path), {o for a in parser._actions for o in a.option_strings
                                   if o not in ("-h", "--help")}

    flags = dict(commands(cli.build_parser()))
    assert sum(len(f) for f in flags.values()) == 54
    assert {c for c, f in flags.items() if "--params" in f} == {
        "check mackey", "check corollary", "check thm44", "check thm48"}
    assert {c for c, f in flags.items() if "--seed" in f} == {
        "check mackey", "check corollary", "check thm44", "check thm48", "suite"}


# stdout sha256 of one command per target and output form: the report bytes
# are the contract, so a change to the front end must leave them as they are
PINNED_STDOUT = [
    ("describe --group A3 --I 1,2 --J 1,2",
     "120a97fe9b74e55a0e7999a9266e231e2087b034dfd5474af754f7cc0c033b2e"),
    ("describe --group A3 --I 1,2 --J 1,2 --format json",
     "465457f3665e8962a8c85880a727d00473d9d5b1e04175946e189fa66fe5a9a1"),
    ("check mackey --group A3 --I 1,2 --J 1,3 --module random:3 --params 1/2,3/16",
     "8c02c0503bd63562b73726f1aa2ce88bbae7a3ecc69fa26bad1d3e724016aca4"),
    ("check corollary --m 2 --n 1 --k 1 --M scalar --N companion --params 1/2,3/16",
     "d93e97846a7e293670067664871bb6705b154e025c95d5e14990dbf940c17b5e"),
    ("check thm44 --m 2 --n 1 --params 2,3",
     "f72ad61547a749adb798e3b687792e5795ce32f255edd55179d25a2bc8274b12"),
    ("check thm48 --m 1 --n 1 --M scalar:1 --N scalar:0 --params 1,0",
     "209ce4d6b1e241a920d344d0468ea6b5480fd5bb7272d836eae72992b84831dc"),
    ("check theta-braid --group I2(6)",
     "b7391519539f71b7ee13b6a8379f27b51337a967b79ad59de8443c1d3d6ca4c6"),
    ("check algebra --group A3",
     "b9a978c1d29c6b9f514292b9d977f8204e002b4304bb2f5fa2cad8874cd6c1e5"),
]


@pytest.mark.parametrize("command, digest", PINNED_STDOUT, ids=[c for c, _ in PINNED_STDOUT])
def test_stdout_is_pinned(capsys, command, digest):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
