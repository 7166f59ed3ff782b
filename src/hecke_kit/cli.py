"""Command line front end.

Three subcommands: `describe` prints group and coset structure, `check` runs
one verification family on a chosen instance, and `suite` runs the whole
acceptance battery.  All structured output is JSON; text output is a
rendering of the same data.  Exit code 0 means every check passed, 1 means
some check failed, 2 means the request itself was invalid, and 3 means an
internal fault stopped the run before it could decide.
"""

from __future__ import annotations

import argparse
import sys as _sys
from pathlib import Path

from .battery import run_suite
from .coxeter import GroupTooLarge, get_system, symmetric_group_system
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


def _params_list(args) -> list[ParamSpec]:
    if not args.params:
        return list(DEFAULT_PARAM_BATTERY)
    return [ParamSpec.parse(p) for p in args.params]


def _describe(args) -> VerificationReport | dict:
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
        reps = system.min_coset_reps(I, side="left")
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
    return obj


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


def _check_mackey(args) -> VerificationReport:
    system = get_system(args.group, cap=args.group_cap)
    I = parse_subset(args.I or "", system)
    J = parse_subset(args.J or "", system)
    rep = VerificationReport(
        title="restricted induction decomposes over double cosets",
        instance={"group": args.group, "I": [i + 1 for i in sorted(I)],
                  "J": [j + 1 for j in sorted(J)], "module": args.module,
                  "params": [str(p) for p in _params_list(args)]},
        seed=args.seed,
    )
    for params in _params_list(args):
        M = build_module(args.module, system, I, params, args.seed)
        rep.extend(verify(build_sides(system, I, J, M)), prefix=f"({params}) ")
    return rep


def _check_corollary(args) -> VerificationReport:
    rep = VerificationReport(
        title="two-factor decomposition with interleaving representatives",
        instance={"m": args.m, "n": args.n, "k": args.k,
                  "M": args.M, "N": args.N,
                  "params": [str(p) for p in _params_list(args)]},
        seed=args.seed,
    )
    sm = symmetric_group_system(args.m, cap=args.group_cap)
    sn = symmetric_group_system(args.n, cap=args.group_cap)
    for params in _params_list(args):
        M = build_module(args.M, sm, sm.full_subset, params, args.seed)
        N = build_module(args.N, sn, sn.full_subset, params, args.seed)
        rep.extend(verify_tensor_decomposition(M, N, args.k, seed=args.seed),
                   prefix=f"({params}) ")
    return rep


def _check_twists(args, which: str) -> VerificationReport:
    titles = {"thm44": "automorphism twists of products and restrictions",
              "thm48": "anti-automorphism twists of products"}
    rep = VerificationReport(
        title=titles[which],
        instance={"m": args.m, "n": args.n, "M": args.M, "N": args.N,
                  "params": [str(p) for p in _params_list(args)]},
        seed=args.seed,
    )
    sm = symmetric_group_system(args.m, cap=args.group_cap)
    sn = symmetric_group_system(args.n, cap=args.group_cap)
    for params in _params_list(args):
        M = build_module(args.M, sm, sm.full_subset, params, args.seed)
        N = build_module(args.N, sn, sn.full_subset, params, args.seed)
        run = verify_thm44 if which == "thm44" else verify_thm48
        rep.extend(run(M, N, seed=args.seed), prefix=f"({params}) ")
    return rep


def _check_theta_braid(args) -> VerificationReport:
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
    return rep


def _check_algebra(args) -> VerificationReport:
    system = get_system(args.group, cap=args.group_cap)
    sample = None if system.size <= 100 else 2000
    return verify_algebra(system, sample=sample, seed=args.seed)


def _emit(rep: VerificationReport, args) -> int:
    out = rep.render_text() if args.format == "text" else rep.to_json()
    _sys.stdout.write(out)
    if getattr(args, "out", None):
        Path(args.out).write_text(rep.to_json())
    return 0 if rep.passed else 1


def _add_common(p, group=False, subsets=False, shape=False, modules=False):
    p.add_argument("--group-cap", type=int, default=None,
                   help="enumeration cap on the group size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", action="append", default=None, metavar="a,b",
                   help="parameter point, repeatable; default is the standard battery")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    if group:
        p.add_argument("--group", required=True,
                       help="named system, e.g. A3, B3, I2(5)")
    if subsets:
        p.add_argument("--I", default=None, help="subset of generators, 1-based, e.g. 1,2")
        p.add_argument("--J", default=None)
    if shape:
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
    if modules:
        p.add_argument("--M", default="regular", help="module spec for the first factor")
        p.add_argument("--N", default="regular", help="module spec for the second factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke-kit",
        description="exact verification of coset decompositions and twist "
                    "identities for two-parameter Hecke algebras",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="group, coset, and cross-section structure")
    _add_common(p, group=True, subsets=True)

    c = sub.add_parser("check", help="run one verification family")
    csub = c.add_subparsers(dest="target", required=True)

    p = csub.add_parser("mackey", help="restriction of an induced module")
    _add_common(p, group=True, subsets=True)
    p.add_argument("--module", default="regular",
                   help="module spec: regular | scalar[:lam] | companion | random[:seed]")

    p = csub.add_parser("corollary", help="two-factor decomposition in symmetric groups")
    _add_common(p, shape=True, modules=True)
    p.add_argument("--k", type=int, required=True)

    p = csub.add_parser("thm44", help="automorphism twists of products")
    _add_common(p, shape=True, modules=True)

    p = csub.add_parser("thm48", help="anti-automorphism twists of products")
    _add_common(p, shape=True, modules=True)

    p = csub.add_parser("theta-braid", help="flip automorphism braid expansion")
    _add_common(p, group=True)

    p = csub.add_parser("algebra", help="defining relations and basis products")
    _add_common(p, group=True)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default="report.json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            obj = _describe(args)
            if args.format == "text":
                _sys.stdout.write(_describe_text(obj))
            else:
                import json

                _sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
            if args.out:
                import json

                Path(args.out).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
            return 0
        if args.command == "check":
            if args.target == "mackey":
                rep = _check_mackey(args)
            elif args.target == "corollary":
                rep = _check_corollary(args)
            elif args.target in ("thm44", "thm48"):
                rep = _check_twists(args, args.target)
            elif args.target == "theta-braid":
                rep = _check_theta_braid(args)
            else:
                rep = _check_algebra(args)
            return _emit(rep, args)
        # suite
        rep = run_suite(seed=args.seed)
        Path(args.out).write_text(rep.to_json())
        out = rep.render_text() if args.format == "text" else rep.to_json()
        _sys.stdout.write(out)
        return 0 if rep.passed else 1
    except GroupTooLarge as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except Exception as e:
        # never exit 1 on a fault: 1 would claim that a check failed
        print(f"internal error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
