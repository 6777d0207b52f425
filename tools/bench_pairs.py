"""Benchmark two revisions of kfplab against each other in alternating pairs.

    python tools/bench_pairs.py <base> <change> --workload NAME [--pairs 10]

Each revision (anything `git archive` takes: a commit, a tag, or a tree id
such as `git write-tree` prints for the staged files) is exported into a
temporary directory of its own; the two paths have equal length, so that
neither side's imports and file names cost more. Pair i runs
`perfbench/run.py --workload NAME --seed 1 --seconds S --trace 0` in both
copies, with S the run_seconds of the base's BENCHMARK.json, the base first
in even pairs and the change first in odd ones, so that a drift in host
speed falls on both sides alike.

For every end-to-end metric that the base's BENCHMARK.json declares, it
prints each side's median and quartiles over the pairs and in how many pairs
the change was better (ties count for neither side), and marks a gain where
the change won at least nine tenths of the pairs and its median is better
than the base's by more than the distance between the base's quartiles. A
run that fails or reports a wrong result is named, and the command exits 1.
An unknown revision, or a workload that the base's BENCHMARK.json does not
declare, ends it with exit 2 before anything is exported or run.
Temporary directories go where Python's tempfile puts them (TMPDIR).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1  # every run's seed: the two sides of a pair differ only in their code


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics):
    """One row per metric from pairs, a list of (base, change) dicts of
    metric name -> value, and metrics, BENCHMARK.json's end-to-end list:
    (name, unit, base quartiles, change quartiles, pairs the change won,
    pairs counted, gain)."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(b[name], c[name]) for b, c in pairs if name in b and name in c]
        if not both:
            continue
        base, change = quartiles([b for b, _ in both]), quartiles([c for _, c in both])
        won = sum((c < b) if lower else (c > b) for b, c in both)
        gain = (change[1] - base[1]) * (-1 if lower else 1)
        rows.append((name, m["unit"], base, change, won, len(both),
                     10 * won >= 9 * len(both) and gain > base[2] - base[0]))
    return rows


def export(rev, root, name):
    """The files of rev in root/name, by git archive."""
    path = os.path.join(root, name)
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def bench(copy, workload, seconds):
    """The JSON result of one run of perfbench/run.py in copy, or None if it failed."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                          cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {copy}: exit {proc.returncode}: {proc.stderr[-1000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    # both revisions and the workload are checked before anything is exported or run
    for rev in (args.base, args.change):
        if subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{tree}}"],
                          cwd=ROOT, capture_output=True).returncode != 0:
            parser.error(f"unknown revision {rev!r}")
    shown = subprocess.run(["git", "show", f"{args.base}:BENCHMARK.json"], cwd=ROOT, capture_output=True, text=True)
    if shown.returncode != 0:
        parser.error(f"the base {args.base!r} has no BENCHMARK.json")
    spec = json.loads(shown.stdout)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"workload {args.workload!r} is not in the base's BENCHMARK.json: {', '.join(names)}")
    root = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        copies = {"base": export(args.base, root, "a"), "change": export(args.change, root, "b")}
        pairs, bad = [], 0
        for i in range(args.pairs):
            result = {}
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                r = bench(copies[side], args.workload, spec["run_seconds"])
                ok = r is not None and r["correct"] and r["failed"] == 0
                bad += not ok
                result[side] = {k: v["value"] for k, v in r["metrics"].items()} if ok else {}
                print(f"# pair {i + 1} {side}: " + (" ".join(f"{k}={v:.6g}" for k, v in result[side].items())
                                                   if ok else "failed or wrong"), flush=True)
            pairs.append((result["base"], result["change"]))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"{args.workload}: {args.base} -> {args.change}, median (quartiles) over the pairs")
    for name, unit, base, change, won, count, gain in summarize(pairs, spec["end_to_end"]):
        print(f"{name} [{unit}]: {base[1]:.6g} ({base[0]:.6g}-{base[2]:.6g}) -> "
              f"{change[1]:.6g} ({change[0]:.6g}-{change[2]:.6g}), better in {won}/{count}"
              + (", gain" if gain else ""))
    if bad:
        print(f"{bad} runs failed or gave a wrong result")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
