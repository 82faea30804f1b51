#!/usr/bin/env python3
"""Builds the benchmark against the repository's crates and runs one workload.

    python3 perfbench/run.py --workload rank_stored --seed 1 --seconds 10 --trace 0

Run it from the root of a full checkout. The binary is built with
`cargo build --release` from the checkout root, so the repository's
`.cargo/config.toml` target flags apply, and with a `[profile.release]`
that must equal the repository's (checked before every run). Build output
goes to `$CARGO_TARGET_DIR`, or `.bench_build` when that is unset.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` every end-to-end
metric of BENCHMARK.json, with `--trace 1` every per-layer metric. A
per-layer metric whose layer the workload does not call reads 0 (see
LAYERS and README.md). Lines before it are notes: the git revision,
`host_cpus`, the score-latency tail and workload counters.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Which per-layer metrics each workload's traced run produces. Every other
# per-layer metric reads 0 on that workload: its layer is not called there,
# and the metric is predicted not to move.
LAYERS = {
    "rank_stored": [
        "serve.submit_us", "serve.wait_us", "serve.append_us", "serve.cache_hits",
        "serve.cache_misses", "serve.cache_hit_ratio", "core.view_us", "core.score_us",
        "proc.cpu_ms_per_op", "trace.overhead_pct",
    ],
    "catalog_topk": [
        "proc.cpu_ms_per_op", "retrieval.retrieve_ms", "retrieval.brute_ms",
        "retrieval.blocks_scored", "retrieval.blocks_pruned", "retrieval.blocks_repaired",
        "retrieval.items_scored", "retrieval.items_screened", "retrieval.skip_ratio",
        "retrieval.build_s", "trace.overhead_pct",
    ],
    "online_loop": [
        "proc.cpu_ms_per_op", "retrieval.build_s", "train.drain_us", "train.ingest_ms",
        "train.steps", "core.freeze_ms", "serve.publish_us", "serve.settle_ms",
        "retrieval.rebuild_delta_ms", "retrieval.rebuild_full_ms", "retrieval.reused_blocks",
        "trace.overhead_pct",
    ],
}


class BenchError(Exception):
    """A run that cannot produce a result."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(spec, workload, trace):
    """Names and units the result of one run must carry, in spec order."""
    table = spec["per_layer"] if trace else spec["end_to_end"]
    if workload not in LAYERS:
        raise BenchError(f"unknown workload {workload}")
    return {m["name"]: m["unit"] for m in table}


def release_profile(manifest):
    with open(manifest, "rb") as f:
        return tomllib.load(f).get("profile", {}).get("release")


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository: the benchmark builds its crates")
    repo, ours = release_profile(ROOT / "Cargo.toml"), release_profile(BENCH / "Cargo.toml")
    if repo != ours:
        raise BenchError(f"perfbench/Cargo.toml release profile {ours} differs from the repository's {repo}")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    # Built from the checkout root so its .cargo/config.toml applies.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("cargo build failed")
    return target_dir() / "release" / "seqfm-perfbench"


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run(workload, seed, seconds, trace):
    """Builds, runs one workload and returns (notes, result)."""
    spec = load_spec()
    want = expected_metrics(spec, workload, trace)
    exe = build()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(target_dir() / "spans" / f"{workload}-seed{seed}.jsonl")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"malformed result keys {sorted(result)}")
    got = result["metrics"]
    produced = LAYERS[workload] if trace else list(want)
    if sorted(got) != sorted(produced):
        raise BenchError(f"{workload} printed {sorted(got)}, expected {sorted(produced)}")
    for name, unit in want.items():
        if name not in got:
            got[name] = {"value": 0.0, "unit": unit}
        elif got[name]["unit"] != unit:
            raise BenchError(f"{name}: unit {got[name]['unit']}, BENCHMARK.json says {unit}")
    result["metrics"] = {name: got[name] for name in want}
    notes = [f"git revision: {git_revision()}",
             f"workload: {workload} seed {seed} seconds {seconds} trace {int(trace)}"]
    notes += lines[:-1]
    notes.append(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    return notes, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args(argv)
    try:
        seconds = a.seconds if a.seconds is not None else load_spec()["run_seconds"]
        if not 1 <= seconds <= 600:
            raise BenchError("--seconds must be within 1..600")
        notes, result = run(a.workload, a.seed, seconds, a.trace == 1)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
