#!/usr/bin/env python3
"""maestro benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload chip-batch --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. It builds the release `maestro-cli` and
the benchmark's own `perfbench-harness` (into $CARGO_TARGET_DIR, default
`.bench_build`), generates the workload's inputs from the seed into
`.perfbench_work/`, measures for the given seconds and checks the outputs.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` they are its per-layer metrics. See
perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

from procs import host_stamp
from workloads import WORKLOADS, Ctx

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"


def build(target_dir):
    """Builds both binaries; returns their paths, or exits non-zero."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(os.path.relpath(HERE), "harness", "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "maestro", "--bin", "maestro-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest],
    ):
        if not os.path.exists("Cargo.toml") or subprocess.run(cmd, env=env).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "maestro-cli"), os.path.join(release, "perfbench-harness")


def benchmark_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = benchmark_spec()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cli, harness = build(target_dir)
    if os.path.isdir(WORK):
        shutil.rmtree(WORK)
    os.makedirs(WORK)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(host_stamp(harness, ".")))
    ctx = Ctx(cli, harness, WORK, args.seed, args.seconds, bool(args.trace))
    res = WORKLOADS[args.workload](ctx)
    for line in res.lines:
        print(line)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: res.layers.get(m["name"], 0.0) for m in wanted}
        missing = [m["name"] for m in wanted if m["name"] not in res.layers]
        if missing:
            print(f"not exercised by {args.workload} (reported as 0): {', '.join(missing)}")
        for m in wanted:
            print(f"layer {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    else:
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in res.metrics]
        if missing:
            sys.exit(f"perfbench: {args.workload} did not measure {', '.join(missing)}")
        values = {m["name"]: res.metrics[m["name"]][0] for m in wanted}
    tally = res.tally
    print(f"error_rate = {tally.error_rate():.6g} ({tally.failed} failed of {tally.sent}; "
          f"{tally.succeeded} succeeded)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": res.correct(), "attempted": tally.sent, "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
