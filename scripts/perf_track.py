#!/usr/bin/env python3
"""Same-runner throughput gate: a change's fleet throughput against its parent's.

Builds the benchmark (`perfbench/`) in two source trees, the parent commit and
the change, then runs `--workload fleet_scenario --trace 0` on both for every
seed in SEEDS, alternating which side runs first.  Fails when the change's
median `ticks_per_s` is more than BUDGET below the parent's, or when any run
exits non-zero (a row that disagrees with its reference).  Then runs
`--trace 1` once per side and prints the per-layer deltas, so a regression
names its stage; those are not gated.

    python3 scripts/perf_track.py PARENT_TREE CHANGE_TREE

CI checks the parent commit out with `git worktree add --detach ../parent
HEAD^1`; any other checkout of it works the same.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

# Each seed is one pair of runs, one per side.
SEEDS = (1, 2, 3)
# Length of every run: BENCHMARK.json's run_seconds.
SECONDS = 20
# Largest tolerated drop of the change's median ticks_per_s.
BUDGET = 0.20


def build(tree):
    """Builds perfbench in `tree` into that tree's own target directory."""
    target = tree / "perfbench" / "target"
    subprocess.run(
        ["cargo", "build", "--locked", "--release", "--quiet",
         "--manifest-path", str(tree / "perfbench" / "Cargo.toml"),
         "--target-dir", str(target)],
        check=True,
    )
    return target / "release" / "perfbench"


def run(side, binary, tree, seed, trace):
    """One fleet_scenario run; returns its metrics as {name: value}."""
    command = [str(binary), "--workload", "fleet_scenario", "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perf-track: FAIL: {side} seed {seed} --trace {trace} "
                 f"exited {done.returncode}")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf_track.py PARENT_TREE CHANGE_TREE")
    trees = {"parent": Path(sys.argv[1]).resolve(), "change": Path(sys.argv[2]).resolve()}
    sides = {side: (build(tree), tree) for side, tree in trees.items()}
    ticks = {"parent": [], "change": []}
    for i, seed in enumerate(SEEDS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            value = run(side, *sides[side], seed, 0)["ticks_per_s"]
            ticks[side].append(value)
            print(f"seed {seed} {side:<6} ticks_per_s {value:12.1f}", flush=True)

    parent, change = statistics.median(ticks["parent"]), statistics.median(ticks["change"])
    floor = parent * (1.0 - BUDGET)
    print(f"median ticks_per_s: parent {parent:.1f}, change {change:.1f} "
          f"({100.0 * (change / parent - 1.0):+.1f}%), floor {floor:.1f}", flush=True)

    traced = {side: run(side, *sides[side], SEEDS[0], 1) for side in sides}
    print(f"per-layer, seed {SEEDS[0]} (not gated):")
    print(f"  {'metric':<32} {'parent':>14} {'change':>14} {'delta':>8}")
    for name, before in traced["parent"].items():
        after = traced["change"].get(name)
        if before is None or after is None:
            delta = "n/a"
        elif before == 0:
            delta = "-" if after == 0 else "new"
        else:
            delta = f"{100.0 * (after / before - 1.0):+.1f}%"
        shown = ["n/a" if v is None else f"{v:.3f}" for v in (before, after)]
        print(f"  {name:<32} {shown[0]:>14} {shown[1]:>14} {delta:>8}")

    if change < floor:
        sys.exit(f"perf-track: FAIL: median ticks_per_s {change:.1f} is more than "
                 f"{100.0 * BUDGET:.0f}% below the parent's {parent:.1f}")
    print("perf-track: pass")


if __name__ == "__main__":
    main()
