"""Steadiness of one workload: two sets of runs with fresh seeds, compared.

    python3 perfbench/steady.py --workload modules

Runs `perfbench/run.py` twice ten times in sequence, with seeds 1-10 for the
first set and 11-20 for the second, and prints for every end-to-end metric
of each set the median, the quartiles and the spread (interquartile
distance over the median), as `statistics.quantiles(values, n=4)` gives
them, and whether the spread is within the metric's bound.  It then prints
whether the second set's median is within the bound of the first, in either
direction, and whether the failed share is identical.  Each set's median
first (cold) round is printed beside them.  Bounds and the run length come
from `BENCHMARK.json`.  The table is also written to
`perfbench/out/steady-<workload>.json`; the exit code is 0 when everything
agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS, RUNS = 2, 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    detail = json.loads(proc.stderr.splitlines()[-1])
    return result, detail["cold_round_s"]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets, colds = [], []
    for s in range(SETS):
        results, cold = [], []
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            res, cold_s = run_once(args.workload, seed, bench["run_seconds"])
            results.append(res)
            cold.append(cold_s)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"set {s + 1} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals} cold_round_s={cold_s:.4g}",
                  flush=True)
        sets.append(results)
        colds.append(cold)

    table = {"workload": args.workload, "sets": []}
    ok = True
    for s, results in enumerate(sets):
        summary = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in bounds}
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        cold = statistics.median(colds[s])
        table["sets"].append({"metrics": summary, "failed_shares": shares,
                              "all_correct": all(r["correct"] for r in results),
                              "cold_round_s_median": cold})
        print(f"\nset {s + 1}: {len(results)} runs, failed shares {shares}, "
              f"all correct {all(r['correct'] for r in results)}, "
              f"median first (cold) round {cold:.4g} s")
        print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  ok")
        for name, m in summary.items():
            bound = bounds[name]["bound"]
            steady = m["spread"] <= bound
            ok &= steady
            print(f"{name:<18}{m['median']:>12.5g}{m['q1']:>12.5g}{m['q3']:>12.5g}"
                  f"{m['spread']:>9.3f}{bound:>7.2f}  {'yes' if steady else 'NO'}")
    first, second = (t["metrics"] for t in table["sets"])
    print("\nsecond set against the first")
    for name, spec in bounds.items():
        change = second[name]["median"] / first[name]["median"] - 1
        agree = abs(change) <= spec["bound"]
        ok &= agree
        print(f"{name:<18}{change:>+9.3f}  within {spec['bound']:.2f}: "
              f"{'yes' if agree else 'NO'}")
    same_share = table["sets"][0]["failed_shares"] == table["sets"][1]["failed_shares"]
    ok &= same_share and len(table["sets"][0]["failed_shares"]) == 1
    print(f"failed share identical: {'yes' if same_share else 'NO'}")
    table["steady"] = ok
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steady-{args.workload}.json").write_text(json.dumps(table, indent=1))
    print(f"\nsteady: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
