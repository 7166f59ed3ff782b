"""Command line front end.

Three subcommands: `describe` prints group and coset structure, `check` runs
one verification family on a chosen instance, and `suite` runs the whole
acceptance battery.  All structured output is JSON; text output is a
rendering of the same data.  Each command registers only the flags it reads:
`--params` and `--seed` belong to the checks that run at parameter points
(`check mackey|corollary|thm44|thm48`, one block of checks per point), and
`suite` takes `--seed` too.  Exit code 0 means every check passed, 1 means
some check failed, 2 means the request itself was invalid (one `error:` line
on stderr, usage errors included), and 3 means an internal fault stopped the
run before it could decide.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

from .battery import run_suite
from .coxeter import GroupTooLarge, get_system, parse_cap, symmetric_group_system
from .hecke import check_theta_braid, verify_algebra
from .mackey import build_sides, verify, verify_tensor_decomposition
from .repmod import companion, one_dim_factor, random_conjugate, regular, scalar
from .report import TOOL_VERSION, VerificationReport
from .scalars import DEFAULT_PARAM_BATTERY, ParamSpec, parse_rational
from .twists import verify_thm44, verify_thm48

__all__ = ["main", "build_module", "parse_subset"]


def parse_subset(text: str, system) -> frozenset:
    """1-based generator labels, comma separated; '' or 'none' is empty."""
    text = text.strip()
    if text in ("", "none", "-"):
        return frozenset()
    out = set()
    for part in text.split(","):
        try:
            label = int(part)
        except ValueError:
            raise ValueError(f"bad generator label {part!r} in subset {text!r}")
        if not 1 <= label <= system.rank:
            raise ValueError(f"generator s{label} outside range 1..{system.rank}")
        out.add(label - 1)
    return frozenset(out)


def build_module(token: str, system, subset, params: ParamSpec, seed: int):
    """Resolve a module spec: regular | scalar[:lam] | companion | random[:seed]."""
    kind, _, arg = token.partition(":")
    if kind == "regular":
        return regular(system, subset, params)
    if kind == "scalar":
        if arg:
            return scalar(system, subset, parse_rational(arg), params)
        module = one_dim_factor(system, subset, params)
        if module.dim != 1:
            raise ValueError(f"no rational scalar module exists at ({params})")
        return module
    if kind == "companion":
        return companion(system, subset, params)
    if kind == "random":
        return random_conjugate(regular(system, subset, params),
                                seed=int(arg) if arg else seed)
    raise ValueError(f"unknown module spec {token!r}; "
                     "use regular, scalar[:lam], companion, or random[:seed]")


def _emit(args, text: str, data: str, passed: bool = True) -> int:
    """Write text or JSON to stdout, the JSON to --out if given; the exit code."""
    _sys.stdout.write(text if args.format == "text" else data)
    if args.out:
        Path(args.out).write_text(data)
    return 0 if passed else 1


def _report(args, rep: VerificationReport) -> int:
    return _emit(args, rep.render_text(), rep.to_json(), rep.passed)


def _describe(args) -> int:
    system = get_system(args.group, cap=args.group_cap)
    top = system.longest()
    obj = {
        "group": args.group,
        "rank": system.rank,
        "size": system.size,
        "longest": system.elem_name(top),
        "longest_length": system.length[top],
    }
    I = parse_subset(args.I, system) if args.I is not None else None
    J = parse_subset(args.J, system) if args.J is not None else None
    if J is not None and I is None:
        raise ValueError("--J needs --I")
    if I is not None:
        reps = system.min_coset_reps(I)
        obj["I"] = [i + 1 for i in sorted(I)]
        obj["parabolic_size"] = len(system.parabolic_elements(I))
        obj["min_coset_reps"] = [system.elem_name(w) for w in reps]
    if I is not None and J is not None:
        obj["J"] = [j + 1 for j in sorted(J)]
        rows = []
        for tau in system.double_coset_reps(J, I):
            K, K_conj, _ = system.cross_section(tau, J, I)
            rows.append({
                "tau": system.elem_name(tau),
                "K": [j + 1 for j in sorted(K)],
                "K_conj": [i + 1 for i in sorted(K_conj)],
                "index_in_J": (len(system.parabolic_elements(J))
                               // len(system.parabolic_elements(K))),
            })
        obj["double_cosets"] = rows
    return _emit(args, _describe_text(obj), json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _describe_text(obj: dict) -> str:
    lines = [f"group {obj['group']}: {obj['size']} elements, rank {obj['rank']}, "
             f"longest {obj['longest']} (length {obj['longest_length']})"]
    if "I" in obj:
        names = ", ".join(obj["min_coset_reps"])
        subset = "{" + ", ".join(f"s{i}" for i in obj["I"]) + "}"
        lines.append(f"minimal coset representatives for I={subset} "
                     f"({len(obj['min_coset_reps'])} cosets): {names}")
    if "double_cosets" in obj:
        subset = "{" + ", ".join(f"s{j}" for j in obj["J"]) + "}"
        lines.append(f"double coset representatives for J={subset}:")
        for row in obj["double_cosets"]:
            K = "{" + ", ".join(f"s{j}" for j in row["K"]) + "}"
            lines.append(f"  {row['tau']}: K = {K}, index in the J-parabolic "
                         f"{row['index_in_J']}")
    return "\n".join(lines) + "\n"


def _per_point(args, title: str, instance: dict, run) -> int:
    """One report over the --params points (default: the standard battery):
    run(params) checks one point, and its checks enter prefixed "(params) "."""
    points = ([ParamSpec.parse(p) for p in args.params] if args.params
              else list(DEFAULT_PARAM_BATTERY))
    rep = VerificationReport(title=title, seed=args.seed,
                             instance={**instance, "params": [str(p) for p in points]})
    for params in points:
        rep.extend(run(params), prefix=f"({params}) ")
    return _report(args, rep)


def _check_mackey(args) -> int:
    system = get_system(args.group, cap=args.group_cap)
    I = parse_subset(args.I or "", system)
    J = parse_subset(args.J or "", system)
    return _per_point(
        args, "restricted induction decomposes over double cosets",
        {"group": args.group, "I": [i + 1 for i in sorted(I)],
         "J": [j + 1 for j in sorted(J)], "module": args.module},
        lambda params: verify(build_sides(
            system, I, J, build_module(args.module, system, I, params, args.seed))))


# target -> (title, check of the two factor modules); the names are looked up
# when a check runs, so a patched module attribute takes effect
_PRODUCT_CHECKS = {
    "corollary": ("two-factor decomposition with interleaving representatives",
                  lambda args, M, N: verify_tensor_decomposition(M, N, args.k, seed=args.seed)),
    "thm44": ("automorphism twists of products and restrictions",
              lambda args, M, N: verify_thm44(M, N, seed=args.seed)),
    "thm48": ("anti-automorphism twists of products",
              lambda args, M, N: verify_thm48(M, N, seed=args.seed)),
}


def _check_product(args) -> int:
    """The modules args.M over S_m and args.N over S_n, each over its full
    subset, checked at each point by the target's row of _PRODUCT_CHECKS."""
    title, check = _PRODUCT_CHECKS[args.target]
    sm = symmetric_group_system(args.m, cap=args.group_cap)
    sn = symmetric_group_system(args.n, cap=args.group_cap)
    instance = {"m": args.m, "n": args.n, "M": args.M, "N": args.N}
    if args.target == "corollary":
        instance["k"] = args.k
    return _per_point(args, title, instance, lambda params: check(
        args, build_module(args.M, sm, sm.full_subset, params, args.seed),
        build_module(args.N, sn, sn.full_subset, params, args.seed)))


def _check_theta_braid(args) -> int:
    system = get_system(args.group, cap=args.group_cap)
    rep = VerificationReport(
        title="the parameter flip respects braid relations",
        instance={"group": args.group},
    )
    for i in range(system.rank):
        for j in range(i + 1, system.rank):
            m = system.matrix.orders[i][j]
            rep.add(f"generators s{i + 1}, s{j + 1} (order {m})",
                    check_theta_braid(system, i, j))
    if not rep.checks:
        rep.add("rank below two: nothing to check", True)
    return _report(args, rep)


class _Parser(argparse.ArgumentParser):
    """Usage errors print one `error: <message>` line and exit 2.  Flags must
    be spelled in full, in subparsers too (they are built from this class)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


_FLAGS = {
    "--group-cap": dict(default=None,
                        help="enumeration cap on the group size, a positive integer"),
    "--seed": dict(type=int, default=0),
    "--params": dict(action="append", default=None, metavar="a,b",
                     help="parameter point, repeatable; default is the standard battery"),
    "--group": dict(required=True, help="named system, e.g. A3, B3, I2(5)"),
    "--I": dict(default=None, help="subset of generators, 1-based, e.g. 1,2"),
    "--J": dict(default=None),
    "--module": dict(default="regular",
                     help="module spec: regular | scalar[:lam] | companion | random[:seed]"),
    "--m": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--M": dict(default="regular", help="module spec for the first factor"),
    "--N": dict(default="regular", help="module spec for the second factor"),
    "--k": dict(type=int, required=True),
}
_GROUP = ("--group-cap", "--group")
_SHAPE = ("--group-cap", "--m", "--n", "--M", "--N", "--seed", "--params")


def _command(sub, name: str, help: str, run, flags=()):
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="also write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hecke-kit",
        description="exact verification of coset decompositions and twist "
                    "identities for two-parameter Hecke algebras",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "describe", "group, coset, and cross-section structure", _describe,
             _GROUP + ("--I", "--J"))

    csub = sub.add_parser("check", help="run one verification family").add_subparsers(
        dest="target", required=True)
    _command(csub, "mackey", "restriction of an induced module", _check_mackey,
             _GROUP + ("--I", "--J", "--module", "--seed", "--params"))
    _command(csub, "corollary", "two-factor decomposition in symmetric groups",
             _check_product, _SHAPE + ("--k",))
    _command(csub, "thm44", "automorphism twists of products", _check_product, _SHAPE)
    _command(csub, "thm48", "anti-automorphism twists of products", _check_product, _SHAPE)
    _command(csub, "theta-braid", "flip automorphism braid expansion", _check_theta_braid,
             _GROUP)
    _command(csub, "algebra", "defining relations, proved over the whole group",
             lambda a: _report(a, verify_algebra(get_system(a.group, cap=a.group_cap))),
             _GROUP)

    _command(sub, "suite", "run the full acceptance battery",
             lambda args: _report(args, run_suite(seed=args.seed)), ("--seed",))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "group_cap", None) is not None:
            args.group_cap = parse_cap(args.group_cap, "--group-cap")
        return args.run(args)
    except (GroupTooLarge, ValueError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except Exception as e:
        # never exit 1 on a fault: 1 would claim that a check failed
        print(f"internal error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
