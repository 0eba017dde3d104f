#!/usr/bin/env python3
"""Run one workload of the VMPlants benchmark and summarise it.

    python3 vmbench/run.py --workload steady --seed 1 --seconds 55 --trace 0

Builds the `vmbench` package (release, offline), runs the workload in a
process of its own, prints each metric's median, spread and sample count
next to its bound from BENCHMARK.json, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
and writes the benchmark's spans to vmbench/out/. Exits non-zero when the
build fails, an output check fails or a metric is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark; return the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--message-format", "json",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    exe = None
    for line in out.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-message":
            print(msg["message"]["rendered"], file=sys.stderr)
        elif msg.get("reason") == "compiler-artifact" and msg["target"]["name"] == "vmbench":
            exe = msg.get("executable") or exe
    if out.returncode != 0 or exe is None:
        sys.exit("vmbench: build failed")
    return exe


def pin_to_one_cpu():
    """Run `live` on the highest-numbered CPU this process may use: the
    client and the shop's thread then hand each request over on one core
    instead of waking each other across (virtual) CPUs, whose wake-up
    latency swings with the host's load. The simulated workloads run one
    thread and stay unpinned, so the scheduler can move it off a CPU that
    something else wants."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spread(values):
    """Interquartile range as a share of the median, as the gate computes it."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    exe = build()
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        trace = os.path.join("vmbench", "out", f"trace-{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--trace-out", trace]
    started = time.monotonic()
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S,
                             preexec_fn=pin_to_one_cpu if args.workload == "live" else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"vmbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if out.returncode != 0:
        sys.exit(f"vmbench: {args.workload} exited with {out.returncode}")
    lines = out.stdout.splitlines()
    if not lines:
        sys.exit("vmbench: no output")
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(f"{args.workload}: seed {args.seed}, {time.monotonic() - started:.1f} s, "
          f"trace {args.trace}")

    correct = raw["correct"]
    for failure in raw["failures"]:
        print(f"CHECK FAILED: {failure}")
    metrics = {}
    print(f"{'metric':<34} {'median':>14} {'unit':<12} {'spread':>8} {'n':>8}  bound")
    for m in wanted:
        name = m["name"]
        got = raw["metrics"].get(name)
        values = [v for v in (got or {}).get("values", []) if v is not None]
        if got is None or not values or len(values) != len(got["values"]):
            print(f"MISSING: {name}")
            correct = False
            continue
        if got["unit"] != m["unit"]:
            print(f"UNIT MISMATCH: {name} is {got['unit']}, BENCHMARK.json says {m['unit']}")
            correct = False
        value = statistics.median(values)
        s = spread(values)
        bound = m.get("bound")
        flag = " SPREAD OVER BOUND" if s is not None and bound is not None and s > bound else ""
        print(f"{name:<34} {value:>14.6g} {m['unit']:<12} "
              f"{'-' if s is None else f'{s:.3f}':>8} {got['n']:>8}  "
              f"{'-' if bound is None else bound}{flag}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    result = {
        "correct": bool(correct),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
