#!/usr/bin/env python3
"""Steadiness report: two sets of benchmark runs of one build, compared.

    python3 perfbench/steadiness.py

Run from the root of a source checkout. Each set runs every workload ten
times with `--trace 0` for BENCHMARK.json's `run_seconds`, each run with
its own seed (seeds 1 to 20); then each workload runs once traced. For
every workload and end-to-end metric the report prints each set's first
quartile, median and third quartile, its spread (interquartile range over
the median), how far the second set's median moved from the first's
(positive = worse), and the metric's bound from BENCHMARK.json, flagging
any spread or move beyond the bound. It ends with the traced runs'
overhead against their untraced ops. Exit status 0 means nothing was
flagged.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from stats import quartiles, spread  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SETS = 2
RUNS = 10
FIRST_SEED = 1


def bench(workload, seed, seconds, trace):
    """One run of the harness: its result object, or None if it failed."""
    p = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    values = {w: [{m["name"]: [] for m in metrics} for _ in range(SETS)] for w in workloads}
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:
                r = bench(w, seed, seconds, 0)
                if r is None or not r["correct"]:
                    print(f"{w} seed {seed}: run failed: {r}", flush=True)
                else:
                    for m in metrics:
                        values[w][s][m["name"]].append(r["metrics"][m["name"]]["value"])
                    print(f"{w} set {s + 1} seed {seed}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
            seed += 1

    ok = True
    print(f"\n{'workload':<11} {'metric':<12} {'set':>3} {'q1':>10} {'median':>10} {'q3':>10}"
          f" {'spread':>7} {'moved':>7} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            medians = []
            for s, by_metric in enumerate(values[w]):
                v = by_metric[m["name"]]
                if not v:
                    print(f"{w:<11} {m['name']:<12} {s + 1:>3}  no runs")
                    ok = False
                    continue
                q1, q2, q3 = quartiles(v)
                medians.append(q2)
                sp = spread(v)
                flag = "" if sp <= m["bound"] else "  SPREAD"
                ok = ok and not flag
                print(f"{w:<11} {m['name']:<12} {s + 1:>3} {q1:>10.4g} {q2:>10.4g} {q3:>10.4g}"
                      f" {sp:>7.3f} {'':>7} {m['bound']:>6}{flag}")
            if len(medians) == SETS:
                sign = 1 if m["better"] == "lower" else -1
                moved = sign * (medians[-1] - medians[0]) / medians[0]
                flag = "" if moved <= m["bound"] else "  MOVED"
                ok = ok and not flag
                print(f"{'':<11} {'':<12} {'':>3} {'':>10} {'':>10} {'':>10} {'':>7}"
                      f" {moved:>7.3f} {m['bound']:>6}{flag}")

    print("\ntraced runs against their untraced ops")
    for w in workloads:
        r = bench(w, FIRST_SEED, seconds, 1)
        if r is None or not r["correct"]:
            print(f"{w}: traced run failed: {r}")
            ok = False
            continue
        lm = r["metrics"]
        print(f"{w}: traced op {lm['trace.overhead_pct']['value']:+.1f}% against the run's "
              f"untraced op ({lm['trace.spans']['value']:.0f} spans)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
