"""Command line behaviour: output shapes, module specs, exit codes."""

import json
from fractions import Fraction

import pytest

from hecke_kit import cli
from hecke_kit.coxeter import get_system, symmetric_group_system
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


def test_describe_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("HECKE_KIT_CAP", "100")
    code, _, err = run(capsys, "describe", "--group", "H4")
    assert code == 2 and "cap" in err


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


def test_out_report_matches_stdout_json(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "check", "algebra", "--group", "A2",
                       "--format", "json", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize("exc", [RuntimeError("all probe primes divided a denominator"),
                                 TypeError("unsupported operand type(s)")])
def test_internal_fault_exits_3_not_1(capsys, monkeypatch, exc):
    # 1 means "a check failed", so a fault inside a check must not map to it
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify_thm44", boom)
    code, out, err = run(capsys, "check", "thm44", "--m", "2", "--n", "1",
                         "--params", "2,3")
    assert code == 3 and out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"
