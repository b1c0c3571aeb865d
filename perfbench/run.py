#!/usr/bin/env python3
"""Build and run the DPFS benchmark described by BENCHMARK.json.

Run one measurement from the repository root:

    python3 perfbench/run.py --workload small_file_mix --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.

Run the benchmark's own fast check of every workload in both modes; it
prints every metric by name with its unit:

    python3 perfbench/run.py --self-check

The program is built from source with cargo into `$CARGO_TARGET_DIR`
(default `.bench_build`). The in-process cluster keeps its subfiles
under `.bench_tmp/`, which is removed after each run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the benchmark binary and return its path (exits on failure)."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        built = False
    if not built:
        print("run.py: build failed", file=sys.stderr)
        sys.exit(2)
    return os.path.join(target, "release", "dpfs-perfbench")


def run(binary, workload, seed, seconds, trace, capture=False):
    """Run one measurement; returns (exit code, stdout or None)."""
    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, env=dict(os.environ, TMPDIR=tmp),
                           stdout=subprocess.PIPE if capture else None, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    return p.returncode, p.stdout


def self_check(binary, seconds):
    """Run every workload briefly in both modes and check the output
    against BENCHMARK.json and the benchmark's invariants."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(binary, name, 1, seconds, trace, capture=True)
            where = f"{name} --trace {trace}"
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems.append(f"{where}: no JSON result (exit {code})")
                continue
            if code != 0:
                problems.append(f"{where}: exit code {code}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"{where}: correct={result.get('correct')} "
                                f"attempted={result.get('attempted')} failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[key]}
            if set(metrics) != set(want):
                problems.append(f"{where}: metrics differ: missing {sorted(set(want) - set(metrics))}, "
                                f"extra {sorted(set(metrics) - set(want))}")
            print(f"{where}:")
            for m, unit in want.items():
                got = metrics.get(m, {})
                value = got.get("value")
                print(f"  {m:28s} {value!s:>24} {got.get('unit')}")
                if got.get("unit") != unit:
                    problems.append(f"{where}: {m} unit {got.get('unit')!r}, want {unit!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {m} = {value!r}")
                elif key == "end_to_end" and value <= 0:
                    problems.append(f"{where}: end-to-end {m} = {value}")
            value = lambda m: metrics.get(m, {}).get("value")
            if trace == 1:
                if value("error_rate") != 0:
                    problems.append(f"{where}: error_rate = {value('error_rate')}")
                if value("rpc.degraded") != 0:
                    problems.append(f"{where}: rpc.degraded = {value('rpc.degraded')}")
                if name == "array_region_io" and not value("io.list_frac") > 0:
                    problems.append(f"{where}: io.list_frac = {value('io.list_frac')}")
                if (value("rpc.reconstructs_per_read") > 0) != (name == "degraded_read"):
                    problems.append(f"{where}: rpc.reconstructs_per_read = "
                                    f"{value('rpc.reconstructs_per_read')}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload briefly in both modes and check the output")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    binary = build()
    if args.self_check:
        return self_check(binary, 2)
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
