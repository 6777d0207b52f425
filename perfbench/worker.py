"""One benchmark operation in a fresh process; prints a JSON result line.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload and the mode. A fresh process per operation
makes set-up time include the import and keeps each peak resident set its
own. The first call into kfplab is the import, so the clock starts before
it; numpy is imported only through kfplab.
"""

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class SetupReached(Exception):
    """Raised at the first time step of a set-up probe."""


class StepClock:
    """Times the time loops by wrapping `solvers._theta_step`.

    Costs two clock reads per step. Consecutive steps with the same config
    object belong to one run; a run's loop time is from the start of its
    first step to the end of its last. With `probe`, the first step raises
    SetupReached instead of running.
    """

    def __init__(self, solvers, probe: bool):
        self.first_step = None
        self.steps = 0
        self.loop_s = 0.0
        self._key = None
        self._seg = None
        inner = solvers._theta_step
        clock = time.perf_counter

        def timed_step(*args, **kwargs):
            start = clock()
            if self.first_step is None:
                self.first_step = start
                if probe:
                    raise SetupReached
            key = id(args[-1]) if args else None
            if key != self._key:
                self._close()
                self._key = key
                self._seg = [start, start]
            result = inner(*args, **kwargs)
            self._seg[1] = clock()
            self.steps += 1
            return result

        solvers._theta_step = timed_step

    def _close(self):
        if self._seg is not None:
            self.loop_s += self._seg[1] - self._seg[0]
            self._seg = None

    def finish(self):
        self._close()


def _import_kfplab(src: str):
    sys.path.insert(0, src)
    import kfplab
    import kfplab.cli  # the package does not import its command line
    return kfplab


def _manifest():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_cli(spec, t0):
    kfplab = _import_kfplab(spec["src"])
    steps = StepClock(kfplab.solvers, spec.get("probe", False))
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracer.open_root(t0)
        tracer.install()
    wl = workloads.WORKLOADS[spec["workload"]]
    argv = list(wl["tiny"] if spec.get("tiny") else wl["argv"]) + ["--out", spec["out_dir"]]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = kfplab.cli.main(argv)
    except SetupReached:
        return {"setup_s": steps.first_step - t0}
    steps.finish()
    if spec.get("tiny"):
        attempted, failed, notes = wl["ops_per_item"], (0 if rc == 0 else wl["ops_per_item"]), []
    elif rc != 0:
        attempted, failed, notes = wl["ops_per_item"], wl["ops_per_item"], [f"exit code {rc}"]
    else:
        attempted, failed, notes = workloads.check_cli_outputs(spec["workload"], spec["out_dir"])
    end = time.perf_counter()
    result = dict(wall_s=end - t0, setup_s=(steps.first_step or end) - t0, steps=steps.steps,
                  loop_s=steps.loop_s, attempted=attempted, failed=failed, notes=notes)
    if tracer is not None:
        tracer.close_root(end)
        _trace_result(result, tracer, spec)
    return result


def run_oracle(spec, t0):
    analytic = _import_kfplab(spec["src"]).analytic
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracer.open_root(t0)
        tracer.install()
    wl = workloads.WORKLOADS["oracle"]
    size = wl["tiny_batch"] if spec.get("tiny") else wl["batch"]
    f0 = analytic.gaussian_ic
    clock = time.perf_counter
    batch_walls, attempted, failed, worst, notes = [], 0, 0, 0.0, []
    first = None
    budget_s, n_batches = spec.get("budget_s"), spec.get("n_batches")
    loop_start = None
    for b in itertools.count():
        pts = workloads.oracle_points(spec["seed"], b, size)
        tb = clock()
        if first is None:
            first = loop_start = tb
            if spec.get("probe"):
                return {"setup_s": first - t0}
        for t, v, x in pts:
            attempted += 1
            try:
                got = float(analytic.convolution_oracle(f0, t, [[v, x]])[0])
            except analytic.QuadratureError as exc:
                failed += 1
                notes.append(str(exc))
                continue
            err = abs(got - float(analytic.exact_original(t, v, x)))
            worst = max(worst, err)
            if not err <= workloads.ORACLE_ATOL:
                failed += 1
                notes.append(f"t={t!r} v={v!r} x={x!r}: |oracle - exact| = {err!r}")
        now = clock()
        batch_walls.append(now - tb)
        if n_batches is not None and b + 1 >= n_batches:
            break
        if n_batches is None and now - loop_start >= budget_s:
            break
    end = clock()
    result = {"wall_s": end - t0, "setup_s": first - t0, "steps": attempted,
              "loop_s": end - loop_start, "batch_walls": batch_walls, "attempted": attempted,
              "failed": failed, "notes": notes[:10], "worst_abs_error": worst}
    if tracer is not None:
        tracer.close_root(end)
        _trace_result(result, tracer, spec)
    return result


def _trace_result(result, tracer, spec):
    layers, accounting = tracing.summarize(tracer.spans)
    result["layers"] = layers
    result["accounting"] = accounting
    result["absent"] = tracer.absent
    result["absent_layers"] = sorted(tracer.absent_layers())
    if spec.get("spans_path"):
        tracer.dump(spec["spans_path"])


def main(argv):
    spec = json.loads(argv[1])
    t0 = time.perf_counter()
    if workloads.WORKLOADS[spec["workload"]]["kind"] == "oracle":
        result = run_oracle(spec, t0)
    else:
        result = run_cli(spec, t0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    if spec.get("manifest"):
        result["manifest"] = _manifest()
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
