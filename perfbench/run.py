"""kfplab benchmark: time to a checked solution, and a per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The load is a closed loop with one client: each operation runs in a fresh
worker process (perfbench/worker.py) and the next starts when it ends,
until S seconds have passed. BLAS threads are pinned to 1. With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics, whose times are scaled to a reference host speed by the probe in
hostspeed.py; with --trace 1 it holds the per-layer metrics of a traced
run.
Outputs, results and spans go to .bench_out/ in the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads, for the host-speed probe

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11  # at least this many set-ups per run; setup_s is their median
PROBES_PER_OPERATION = 2  # set-up probes after each solver operation
MIN_OPERATIONS = 3  # operations per untraced run, however long they take
RUN_LIMIT_S = 170.0  # every run ends within 180 s

# Layers each workload runs, from the prediction table in README.md; the
# self-test asserts calls > 0 for these and == 0 for the rest.
EXPECTED_LAYERS = {
    "lagrangian": {"sparse.matvec", "sparse.solve", "sparse.combine", "sparse.diagonal",
                   "mesh.build_structured_mesh", "assembly.assemble_blocks",
                   "assembly.recombine", "solvers.run", "analysis.l2_error",
                   "cli.emit_run_outputs"},
    "original": {"sparse.matvec", "sparse.solve", "sparse.combine", "sparse.diagonal",
                 "mesh.build_structured_mesh", "mesh.interpolate_many",
                 "assembly.assemble_blocks", "solvers.run", "analysis.l2_error",
                 "cli.emit_run_outputs"},
    "selfsimilar-ladder": {"sparse.matvec", "sparse.solve", "sparse.combine", "sparse.diagonal",
                           "mesh.build_structured_mesh", "assembly.assemble_blocks",
                           "assembly.recombine", "solvers.run", "analysis.l2_error"},
    "oracle": {"analytic.convolution_oracle", "analytic.kernel_G"},
}


class Launcher:
    """Starts the worker processes of one benchmark run, one at a time, and
    keeps the run within RUN_LIMIT_S. With `host`, a host-speed probe runs
    after each worker has ended."""

    def __init__(self, workload: str, seed: int, host: hostspeed.HostSpeed | None = None):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, **THREAD_ENV)
        self.count = 0
        self.host = host

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def __call__(self, **spec):
        """Run one worker; returns its result dict, or None if it failed."""
        self.count += 1
        out_dir = os.path.join(OUT, self.workload, f"op{self.count}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        spec = dict(spec, workload=self.workload, seed=self.seed, src=SRC, out_dir=out_dir)
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"# worker timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if self.host is not None:
            self.host.probe()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(lines[-1])


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cache_sizes() -> dict:
    out = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            out[level.lower()] = int(proc.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            out[level.lower()] = None
    return out


def manifest(args, worker_manifest) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    params = {k: v for k, v in wl.items() if k not in ("tiny", "tiny_batch")}
    if wl["kind"] == "oracle":
        params.update(t_range=list(workloads.ORACLE_T_RANGE), atol=workloads.ORACLE_ATOL)
    else:
        params.update(rtol=workloads.RTOL, reference=workloads.REFERENCE[args.workload])
    m = {"commit": _git_commit(), "nproc": os.cpu_count(),
         "affinity": len(os.sched_getaffinity(0)), "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "workload": args.workload, "params": params,
         "bytes_note": ("sparse.matvec.bytes are computed from nnz and rows, assuming no cache "
                        "misses; the largest n=128 operator holds 111 889 entries (~1.9 MB "
                        "as CSR), well inside the L3 cache below")}
    m.update(_cache_sizes())
    m.update(worker_manifest or {})
    return m


def _outcome(correct, attempted, failed, metrics=None, shown=None, info=None, worker_manifest=None,
             samples=None):
    """One run's result. `metrics` go into the JSON line; `shown` are
    printed with them but kept out of it; `info` lines are comments;
    `samples` (raw timings) go only into the result file."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics or {}, "shown": shown or {}, "info": info or {},
            "worker_manifest": worker_manifest, "samples": samples or {}}


def measure(args):
    """Untraced run: end-to-end metrics.

    Operations repeat until --seconds have passed (at least MIN_OPERATIONS
    of them), each followed by set-up probes (workers that stop at the first
    time step); probes then top the set-up samples up to SETUP_SAMPLES.
    Spreading the samples over the run keeps a few seconds of contention
    from moving every sample at once. An oracle operation is a worker that
    checks the seed's first ORACLE_WORKER_BATCHES batches.

    Times are means over the operations (set-up: median over its samples),
    multiplied by the host-speed factor of the probes run between workers;
    the raw times are printed alongside.
    """
    wl = workloads.WORKLOADS[args.workload]
    host = hostspeed.HostSpeed(wl["probe"])
    run = Launcher(args.workload, args.seed, host)
    oracle = wl["kind"] == "oracle"
    op_spec = {"n_batches": workloads.ORACLE_WORKER_BATCHES} if oracle else {}
    results, setups, attempted, failed = [], [], 0, 0
    while True:
        r = run(manifest=not results, **op_spec)
        if r is None:
            attempted += wl["ops_per_item"]
            failed += wl["ops_per_item"]
            break
        results.append(r)
        setups.append(r["setup_s"])
        if run.elapsed() >= args.seconds and len(results) >= MIN_OPERATIONS:
            break
        for _ in range(0 if oracle else PROBES_PER_OPERATION):
            probe = run(probe=True)
            if probe is not None:
                setups.append(probe["setup_s"])
    while results and len(setups) < SETUP_SAMPLES and run.elapsed() < RUN_LIMIT_S - 20:
        probe = run(probe=True)
        if probe is None:
            break
        setups.append(probe["setup_s"])
    for r in results:
        attempted += r["attempted"]
        failed += r["failed"]
        for note in r["notes"]:
            print(f"# check failed: {note}")
    if not results:
        return _outcome(False, max(attempted, 1), max(failed, 1))
    loop = statistics.mean(r["loop_s"] for r in results)
    steps = results[0]["steps"]
    if oracle:
        wall = loop / workloads.ORACLE_WORKER_BATCHES
        rate_name = "points_per_s"
    else:
        wall = statistics.mean(r["wall_s"] for r in results)
        rate_name = "steps_per_s"
    setup = statistics.median(setups)
    f = host.factor()
    metrics = {
        "wall_s": {"value": wall * f, "unit": "s"},
        "setup_s": {"value": setup * f, "unit": "s"},
        "throughput_per_s": {"value": steps / (loop * f), "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
    }
    shown = {rate_name: {"value": steps / (loop * f), "unit": "1/s"},
             "raw_wall_s": {"value": wall, "unit": "s"},
             "raw_setup_s": {"value": setup, "unit": "s"},
             f"raw_{rate_name}": {"value": steps / loop, "unit": "1/s"},
             "host_factor": {"value": f, "unit": "frac"},
             "failed_frac": {"value": failed / attempted, "unit": "frac"}}
    info = {"operations": len(results), "host_probe": f"{wl['probe']}, {len(host.samples)} samples"}
    samples = {key: [r[key] for r in results] for key in ("wall_s", "setup_s", "loop_s")}
    samples.update(setup_samples_s=setups, host_s=host.samples)
    return _outcome(failed == 0, attempted, failed, metrics, shown, info, results[0].get("manifest"),
                    samples)


def measure_traced(args):
    """Traced run: untraced and traced operations alternate until --seconds
    have passed, so both sample the same stretch of machine time;
    trace.overhead_frac is the median ratio of their walls, minus 1. The oracle's first
    untraced worker runs for an eighth of the run; every later worker, traced
    or not, checks the same number of batches, which are the same points."""
    run = Launcher(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload]
    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    op_spec = {"budget_s": args.seconds / 8} if wl["kind"] == "oracle" else {}
    plain, traced = [], []
    while True:
        r = run(manifest=not plain, **op_spec)
        if r is None:
            break
        plain.append(r)
        if wl["kind"] == "oracle":
            op_spec = {"n_batches": len(r["batch_walls"])}
        if traced and run.elapsed() >= args.seconds:
            break
        r = run(trace=True, spans_path=os.path.join(spans_dir, f"{stem}-{len(traced)}.csv"), **op_spec)
        if r is None:
            break
        traced.append(r)
        if run.elapsed() >= args.seconds:
            break
    if wl["kind"] == "oracle":
        n_ops = sum(len(t["batch_walls"]) for t in traced)
    else:
        n_ops = len(traced)
    everything = plain + traced
    attempted = sum(r["attempted"] for r in everything) or 1
    failed = sum(r["failed"] for r in everything)
    if not plain or not traced:
        return _outcome(False, attempted, max(failed, 1))
    acct_ok = True
    for r in traced:
        a = r["accounting"]
        ok = abs(a["self_sum_s"] - a["wall_s"]) <= 1e-6 * max(1.0, a["wall_s"]) and a["escaped_spans"] == 0
        acct_ok &= ok
        print(f"# accounting: layer self times + remainder {a['remainder_s']:.6f} s "
              f"= {a['self_sum_s']:.6f} s vs traced wall {a['wall_s']:.6f} s, "
              f"{a['escaped_spans']} escaped spans: {'OK' if ok else 'MISMATCH'}")
    absent = set().union(*(r["absent_layers"] for r in traced))
    for name in sorted(set().union(*(r["absent"] for r in traced))):
        print(f"# absent: {name} (its metrics are omitted)")
    metrics, _ = tracing.layer_metrics([(r["layers"], r["accounting"]) for r in traced], n_ops, absent)
    # each traced operation against the untraced one just before it
    overhead = statistics.median(t["wall_s"] / u["wall_s"] for u, t in zip(plain, traced)) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    info = {"traced_operations": n_ops, "accounting_ok": acct_ok}
    return _outcome(failed == 0 and acct_ok, attempted, failed, metrics, {}, info,
                    plain[0].get("manifest"))


def selftest() -> int:
    """Tiny instance of each workload, traced: every expected wrapper is hit,
    no other is, the span accounting closes, the gate rejects a perturbed
    reference and a missing target is reported as absent."""
    problems = []
    for name in workloads.WORKLOADS:
        run = Launcher(name, seed=1)
        extra = {"n_batches": 1} if workloads.WORKLOADS[name]["kind"] == "oracle" else {}
        r = run(trace=True, tiny=True, **extra)
        if r is None:
            problems.append(f"{name}: worker failed")
            continue
        _, calls = tracing.layer_metrics([(r["layers"], r["accounting"])], 1)
        for layer in tracing.LAYERS:
            hit = calls[layer] > 0
            if hit != (layer in EXPECTED_LAYERS[name]):
                problems.append(f"{name}: {layer} calls = {calls[layer]}")
        a = r["accounting"]
        if abs(a["self_sum_s"] - a["wall_s"]) > 1e-6 or a["escaped_spans"]:
            problems.append(f"{name}: span accounting {a}")
        if r["failed"] or r["absent"]:
            problems.append(f"{name}: failed={r['failed']} absent={r['absent']}")
        print(f"# selftest {name}: " + ", ".join(f"{k}={v}" for k, v in calls.items() if v))

    ladder = os.path.join(OUT, "selftest-gate")
    os.makedirs(ladder, exist_ok=True)
    ref = workloads.REFERENCE["selfsimilar-ladder"]
    rows = [(1.0 / 2 ** k, 0.01, ref["time"], e, 0.0, "") for k, e in enumerate(ref["l2_error"])]
    with open(os.path.join(ladder, "errors.csv"), "w") as fh:
        fh.write("h,dt,time,l2_error,linf_error,order\n")
        fh.writelines(",".join(repr(c) if c != "" else "" for c in row) + "\n" for row in rows)
    with open(os.path.join(ladder, "report.txt"), "w") as fh:
        fh.write(f"power-law fit: E(h) = 1 * h^{ref['fit_exponent']!r}\n")
    for scale, want_failed in ((1.0, 0), (1.0 + 1e-9, 0), (1.0 + 1e-5, 4)):
        bent = dict(ref, l2_error=[scale * e for e in ref["l2_error"]])
        _, failed, _ = workloads.check_cli_outputs("selfsimilar-ladder", ladder, bent)
        if failed != want_failed:
            problems.append(f"gate: reference scaled by {scale} gave {failed} failures")

    sys.path.insert(0, SRC)
    import kfplab  # noqa: F401  (loads every module the tracer patches)
    t = tracing.Tracer()
    t.install(tracing.TARGETS + (("sparse.combine", "kfplab.sparse", "no_such_function"),))
    metrics, _ = tracing.layer_metrics([({}, {"remainder_s": 0.0})], 1, t.absent_layers())
    if "sparse.combine.calls" in metrics or "sparse.matvec.calls" not in metrics:
        problems.append("absent target not omitted from the metrics")

    for p in problems:
        print(f"# selftest FAILED: {p}")
    print("# selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kfplab", "__init__.py")):
        print(f"error: kfplab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    measure_fn = measure_traced if args.trace else measure
    out = measure_fn(args)
    man = manifest(args, out["worker_manifest"])
    print("# manifest " + json.dumps(man, sort_keys=True))
    for key, value in out["info"].items():
        print(f"# {key} = {value}")
    for key, m in {**out["metrics"], **out["shown"]}.items():
        print(f"{args.workload} {key} = {m['value']!r} {m['unit']}")
    result = {"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": out["metrics"]}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"result": result, "shown": out["shown"], "info": out["info"], "manifest": man,
                   "samples": out["samples"]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
