"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload modules --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
run is one process on one thread.  It sets the workload up from the seed,
then runs whole rounds of the workload's instance list until the next round
would end after `--seconds`.  Every instance's outputs are checked
independently in the first round (outside the timed interval), and later
rounds must serialize the same reports.

With `--trace 0` the last line holds the end-to-end metrics.  With
`--trace 1` it holds the per-layer metrics (medians over the traced rounds;
enumeration counts come from the traced set-up) and the tracing overhead:
after the checked first round, untraced and traced rounds alternate, and the
overhead is the difference of their median round times.  Spans of the
set-up and the first traced round go to `perfbench/out/trace-*.json`, and
every run's per-instance times to `perfbench/out/run-*.json`.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("algebra", "modules", "rational")
SETUP_PROBES = 2
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="instance time to measure; BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print the set-up time and exit")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's `src/` first on the path; fail if it is missing."""
    if not (SRC / "hecke_kit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hecke_kit'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import hecke_kit

    if Path(hecke_kit.__file__).resolve().parent != (SRC / "hecke_kit").resolve():
        sys.exit(f"error: imported hecke_kit from {hecke_kit.__file__}, not from {SRC}")


def probe_setup(args) -> float:
    """Set-up time of a fresh process, as measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Rounds:
    """Timing and checking state over the rounds of one run."""

    def __init__(self, instances):
        self.instances = instances
        self.times = [[] for _ in instances]
        self.digests = [None] * len(instances)
        self.round_totals = []
        self.attempted = 0
        self.failed = 0
        self.errors = []    # operations that raised
        self.problems = []  # outputs that failed a check

    def run_round(self, check, tracer=None):
        total = 0.0
        for k, inst in enumerate(self.instances):
            if tracer is not None:
                tracer.instance = k
            self.attempted += 1
            t = time.perf_counter()
            try:
                text, out = inst.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.errors.append(f"{inst.label}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t
            total += dt
            self.times[k].append(dt)
            digest = hash(text)
            if check:
                self.digests[k] = digest
                self.problems += [f"{inst.label}: {msg}" for msg in inst.check(text, out)]
            elif digest != self.digests[k]:
                self.problems.append(f"{inst.label}: report differs from the first round")
        self.round_totals.append(total)
        return total

    def instance_medians(self):
        return [statistics.median(t) for t in self.times if t]


def end_to_end(rounds, setup_times):
    med = sorted(rounds.instance_medians())
    n = len(med)
    samples = [t for times in rounds.times for t in times]
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(rounds.round_totals), "unit": "s"},
        "instance_p50_ms": {"value": statistics.median(samples) * 1e3, "unit": "ms"},
        "instance_tail_ms": {"value": med[max(0, n - TAIL_BEYOND - 1)] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    wl = workloads.BUILD[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = Rounds(wl.instances)
    rounds.problems += wl.check_groups()
    detail = {"workload": args.workload, "seed": args.seed, "instances": len(wl.instances),
              "tail_percentile": round(100 * (len(wl.instances) - TAIL_BEYOND)
                                       / len(wl.instances), 2)}
    if tracer is None:
        setup_times = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        last = rounds.run_round(check=True)
        while sum(rounds.round_totals) + last <= args.seconds:
            last = rounds.run_round(check=False)
        metrics = end_to_end(rounds, setup_times)
        detail["setup_times"] = setup_times
    else:
        setup_totals = tracer.take_totals()
        tracer.uninstall()
        # untraced and traced rounds alternate after the checked first round,
        # so both see the same machine; the first round's warm-up is excluded
        rounds.run_round(check=True)
        untraced, traced, per_round = [], [], []
        while not traced or sum(rounds.round_totals) + 2 * traced[-1] <= args.seconds:
            untraced.append(rounds.run_round(check=False))
            tracer.install()
            traced.append(rounds.run_round(check=False, tracer=tracer))
            tracer.uninstall()
            tracer.record_spans = False
            per_round.append(tracer.take_totals())
        untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
        metrics = {}
        for name in layertrace.METRICS:
            value = (setup_totals[name] if name in layertrace.SETUP_METRICS
                     else statistics.median(r[name] for r in per_round))
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.untraced_wall_s"] = {"value": untraced_s, "unit": "s"}
        metrics["trace.wall_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps(
            {**detail, "metrics": {k: v["value"] for k, v in metrics.items()},
             "traced_rounds": len(per_round), **tracer.spans_json()}))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))

    detail["rounds"] = len(rounds.round_totals)
    # later rounds repeat the same instances warm; the first is what a
    # one-instance-per-process CLI user sees
    detail["cold_round_s"] = rounds.round_totals[0]
    detail["round_totals"] = rounds.round_totals
    detail["errors"] = rounds.errors[:50]
    detail["problems"] = rounds.problems[:50]
    for msg in rounds.errors[:10] + rounds.problems[:10]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(detail), file=sys.stderr)
    detail["labels"] = [inst.label for inst in wl.instances]
    detail["times"] = rounds.times
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if tracer is not None else ""
    (OUT / f"run-{args.workload}-s{args.seed}{suffix}.json").write_text(json.dumps(detail))
    print(json.dumps({"correct": not rounds.problems, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
