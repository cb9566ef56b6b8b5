#!/usr/bin/env python3
"""Build and run the gateway benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, path
dependencies on the crates under `crates/`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload, checks that the binary
reported exactly the metrics `BENCHMARK.json` names (end-to-end ones
with `--trace 0`, per-layer ones with `--trace 1`) and prints the
result object as the last line. Full results and spans are written to
`<target dir>/perfbench-results/`.

Exits non-zero without printing a result when the build or the run
fails, and non-zero after printing it when the correctness gate failed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "compat", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def moves_for(name, moves):
    for prefix, what in moves:
        if name.startswith(prefix):
            return what
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        with open(os.path.join(HERE, "moves.json")) as fh:
            moves = json.load(fh)["per_layer"]
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    expected = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    units = {m["name"]: m["unit"] for m in expected}

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "perfbench-results"),
        "--source", source_id(),
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a result object (exit code {run.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != set(units):
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != units[name] or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"bad metric {name}: {m}")

    for line in lines[:-1]:
        print(line)
    if args.trace == "1":
        for name in units:
            what = moves_for(name, moves)
            if what is None:
                fail(f"moves.json does not say what {name} should move")
            print(f"# {name} = {got[name]['value']:.6g} {units[name]}; should move {what}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
