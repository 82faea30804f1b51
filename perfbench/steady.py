#!/usr/bin/env python3
"""Repeats one workload and reports how steady its end-to-end metrics are.

    python3 perfbench/steady.py --workload rank_stored --runs 10 [--first-seed 1]

Runs `perfbench/run.py` once per seed (first-seed, first-seed + 1, ...) and
prints, for each end-to-end metric, its bound from BENCHMARK.json next to the
median, the quartiles and the run-to-run spread of the runs: the distance
between the first and third quartile as a share of the median, with
quartiles as `statistics.quantiles(values, n=4)` gives them. A spread below
a third of the bound is steady; `setup_s` is exempt from the spread rule
but not from the bound between two sets of runs. Also prints each run's
share of failed operations, which must not vary between runs.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent


def spread(values):
    """(median, first quartile, third quartile, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: run.py exited with {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    a = p.parse_args(argv)
    if a.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")
    with open(BENCH.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    results = []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        r = run_once(a.workload, seed, a.seconds)
        results.append(r)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} {values}",
              flush=True)
    print(f"\n{a.workload}: {a.runs} runs")
    print(f"{'metric':<16} {'unit':<5} {'bound':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, q1, q3, s = spread(values)
        if m["name"] == "setup_s":
            verdict = "exempt from the spread rule"
        elif s < m["bound"] / 3:
            verdict = "steady (below a third of the bound)"
        elif s <= m["bound"]:
            verdict = "within the bound, not below a third"
        else:
            verdict = "NOT STEADY (beyond the bound)"
        print(f"{m['name']:<16} {m['unit']:<5} {m['bound']:>6.2f} {med:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {s:>7.3f}  {verdict}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}  all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
