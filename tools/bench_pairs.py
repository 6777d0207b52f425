"""Benchmark two revisions of kfplab against each other in alternating pairs.

    python tools/bench_pairs.py <base> <change> [--workload NAME ...] [--pairs 10] [--json PATH]

Each revision (anything `git archive` takes: a commit, a tag, or a tree id
such as `git write-tree` prints for the staged files) is exported into a
temporary directory of its own; the two paths have equal length, so that
neither side's imports and file names cost more. --workload may be given
more than once; without it, every workload of the base's BENCHMARK.json is
run, one after the other. Pair i of a workload runs
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

With --json PATH, it also writes all of that to one file (see `record`): both
revisions, the host facts from the first run's manifest (cores, Python,
numpy, BLAS and its thread settings), and for each workload and metric both
sides' quartiles, the pairs won and the gain mark. After a workload's pairs
it then runs `--trace 1` once in each copy, base first, and the file also
holds, for every per-layer metric of the base's BENCHMARK.json, both
sides' values per operation: the medians over those traced runs, one a
side.
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
# the host facts of --json, each with the key of perfbench's run manifest it is read from
HOST_FACTS = (("cores", "nproc"), ("affinity", "affinity"), ("python", "python"), ("numpy", "numpy"),
              ("blas", "blas"), ("blas_threads", "blas_threads"))
BLAS_FACTS = ("name", "version", "openblas configuration")  # of numpy's build record, which also names its paths
MANIFEST = "# manifest "  # the prefix of the manifest line that perfbench/run.py prints


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


def layer_rows(traced, metrics):
    """Per-layer rows from traced, a dict of side -> the metric dicts of its
    traced runs, and metrics, BENCHMARK.json's per-layer list: name -> unit,
    direction and each side's median over its runs (None without one), for
    every metric that some run reports."""
    rows = {}
    for m in metrics:
        values = {side: [run[m["name"]] for run in runs if m["name"] in run] for side, runs in traced.items()}
        if any(values.values()):
            rows[m["name"]] = {"unit": m["unit"], "better": m["better"],
                               **{side: statistics.median(v) if v else None for side, v in values.items()}}
    return rows


def record(revisions, host, spec, pairs, results, traced):
    """The --json document. Its keys, in order: "base" and "change", each
    {"rev", "id"} from revisions, a dict of side -> (the name given, the id
    git resolved it to); "host", the HOST_FACTS of a run's manifest;
    "pairs" per workload; the base's "run_seconds"; and "workloads", for
    each workload of results, a dict of name -> (its (base, change) metric
    dicts, the runs that failed), the failed runs, every end-to-end metric
    of spec, the base's BENCHMARK.json, as summarize gives it, and its
    "layers", the per-layer metrics of spec as layer_rows gives them from
    traced, a dict of workload -> side -> its traced runs' metric dicts."""
    host, better = dict(host or {}), {m["name"]: m["better"] for m in spec["end_to_end"]}
    if isinstance(host.get("blas"), dict):
        host["blas"] = {key: host["blas"][key] for key in BLAS_FACTS if key in host["blas"]}
    spread = lambda q: dict(zip(("q1", "median", "q3"), q))
    return {
        **{side: {"rev": rev, "id": rev_id} for side, (rev, rev_id) in revisions.items()},
        "host": {key: host.get(source) for key, source in HOST_FACTS},
        "pairs": pairs,
        "run_seconds": spec["run_seconds"],
        "workloads": {workload: {"failed_runs": bad, "metrics": {
            name: {"unit": unit, "better": better[name], "base": spread(base), "change": spread(change),
                   "won": won, "counted": count, "gain": gain}
            for name, unit, base, change, won, count, gain in summarize(runs, spec["end_to_end"])},
            "layers": layer_rows(traced.get(workload, {}), spec.get("per_layer", []))}
            for workload, (runs, bad) in results.items()},
    }


def export(rev, root, name):
    """The files of rev in root/name, by git archive."""
    path = os.path.join(root, name)
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def bench(copy, workload, seconds, trace=0):
    """(the JSON result, the manifest) of one run of perfbench/run.py in copy,
    traced if trace is 1; the result is None if the run failed, the manifest
    if it printed none."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    manifest = next((json.loads(line[len(MANIFEST):]) for line in lines if line.startswith(MANIFEST)), None)
    if proc.returncode != 0 or not lines:
        print(f"# {copy}: exit {proc.returncode}: {proc.stderr[-1000:]}", file=sys.stderr)
        return None, manifest
    return json.loads(lines[-1]), manifest


def run_traced(copies, workload, seconds):
    """side -> the metric dicts of one traced run of workload in each copy,
    base first; a run that fails or is wrong gives none."""
    traced = {}
    for side in ("base", "change"):
        r, _ = bench(copies[side], workload, seconds, trace=1)
        ok = r is not None and r["correct"]
        traced[side] = [{k: v["value"] for k, v in r["metrics"].items()}] if ok else []
        print(f"# {workload} traced {side}: " + ("ok" if ok else "failed or wrong"), flush=True)
    return traced


def run_pairs(copies, workload, pairs, seconds, manifests):
    """(pairs of (base, change) metric dicts, runs failed or wrong) of one
    workload; each run's manifest is appended to manifests."""
    runs, bad = [], 0
    for i in range(pairs):
        result = {}
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            r, manifest = bench(copies[side], workload, seconds)
            manifests.append(manifest)
            ok = r is not None and r["correct"] and r["failed"] == 0
            bad += not ok
            result[side] = {k: v["value"] for k, v in r["metrics"].items()} if ok else {}
            print(f"# {workload} pair {i + 1} {side}: " + (" ".join(f"{k}={v:.6g}" for k, v in result[side].items())
                                                          if ok else "failed or wrong"), flush=True)
        runs.append((result["base"], result["change"]))
    return runs, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", help="repeatable; all of the base's by default")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    # both revisions and the workloads are checked before anything is exported or run
    revisions = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        resolved = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{tree}}"],
                                  cwd=ROOT, capture_output=True, text=True)
        if resolved.returncode != 0:
            parser.error(f"unknown revision {rev!r}")
        rev_id = subprocess.run(["git", "rev-parse", "--verify", "--quiet", rev], cwd=ROOT, capture_output=True, text=True)
        revisions[side] = (rev, rev_id.stdout.strip())
    shown = subprocess.run(["git", "show", f"{args.base}:BENCHMARK.json"], cwd=ROOT, capture_output=True, text=True)
    if shown.returncode != 0:
        parser.error(f"the base {args.base!r} has no BENCHMARK.json")
    spec = json.loads(shown.stdout)
    names = [w["name"] for w in spec["workloads"]]
    for workload in args.workload or ():
        if workload not in names:
            parser.error(f"workload {workload!r} is not in the base's BENCHMARK.json: {', '.join(names)}")
    root = tempfile.mkdtemp(prefix="bench-pairs-")
    results, manifests, traced = {}, [], {}
    try:
        copies = {"base": export(args.base, root, "a"), "change": export(args.change, root, "b")}
        for workload in args.workload or names:
            results[workload] = run_pairs(copies, workload, args.pairs, spec["run_seconds"], manifests)
            if args.json:
                traced[workload] = run_traced(copies, workload, spec["run_seconds"])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for workload, (runs, bad) in results.items():
        print(f"{workload}: {args.base} -> {args.change}, median (quartiles) over the pairs")
        for name, unit, base, change, won, count, gain in summarize(runs, spec["end_to_end"]):
            print(f"{name} [{unit}]: {base[1]:.6g} ({base[0]:.6g}-{base[2]:.6g}) -> "
                  f"{change[1]:.6g} ({change[0]:.6g}-{change[2]:.6g}), better in {won}/{count}"
                  + (", gain" if gain else ""))
        if bad:
            print(f"{bad} runs failed or gave a wrong result")
        for side, runs in traced.get(workload, {}).items():
            if not runs:
                print(f"the traced run of the {side} failed or gave a wrong result")
    if args.json:
        host = next((m for m in manifests if m), None)
        with open(args.json, "w") as fh:
            json.dump(record(revisions, host, spec, args.pairs, results, traced), fh, indent=1)
            fh.write("\n")
    failed_traces = any(not runs for sides in traced.values() for runs in sides.values())
    return 1 if failed_traces or any(bad for _, bad in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
