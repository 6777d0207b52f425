"""Layer tracing from outside kfplab: wrap public functions, record spans.

Every wrapper is installed at each place the function object is bound: the
defining module, every kfplab module that imported it by name, and the
package namespace. Wrapping only the defining module would miss callers
such as `solvers`, which calls `assemble_blocks` through its own global.

A span is (id, name, start, end, parent, extra). Spans stay in memory and
are written out once, when the traced operation ends.
"""

import functools
import statistics
import sys
import time

# (layer name, module, attribute path). One layer name may cover several
# functions; its spans are pooled.
TARGETS = (
    ("sparse.matvec", "kfplab.sparse", "SparseMatrix.matvec"),
    ("sparse.solve", "kfplab.sparse", "solve"),
    ("sparse.combine", "kfplab.sparse", "combine"),
    ("sparse.diagonal", "kfplab.sparse", "SparseMatrix.diagonal"),
    ("mesh.build_structured_mesh", "kfplab.mesh", "build_structured_mesh"),
    ("mesh.interpolate_many", "kfplab.mesh", "interpolate_many"),
    ("assembly.assemble_blocks", "kfplab.assembly", "assemble_blocks"),
    ("assembly.recombine", "kfplab.assembly", "OperatorBlocks.lagrangian"),
    ("assembly.recombine", "kfplab.assembly", "OperatorBlocks.selfsimilar"),
    ("solvers.run", "kfplab.solvers", "run_original"),
    ("solvers.run", "kfplab.solvers", "run_lagrangian"),
    ("solvers.run", "kfplab.solvers", "run_selfsimilar"),
    ("analysis.l2_error", "kfplab.analysis", "l2_error"),
    ("analytic.convolution_oracle", "kfplab.analytic", "convolution_oracle"),
    ("analytic.kernel_G", "kfplab.analytic", "kernel_G"),
    ("cli.emit_run_outputs", "kfplab.cli", "emit_run_outputs"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
ROOT = "workload"


def _matvec_extra(args, result):
    a = args[0]
    return (a.nnz, a.rows)


def _solve_extra(args, result):
    stats = result[1]
    return (stats.iterations, bool(stats.converged))


def _kernel_extra(args, result):
    return getattr(result, "size", 1)


EXTRAS = {"sparse.matvec": _matvec_extra, "sparse.solve": _solve_extra,
          "analytic.kernel_G": _kernel_extra}


class Tracer:
    """Span recorder. `install` patches kfplab in this process; spans nest
    by a stack, so the tracer serves one thread."""

    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._next_id = 1
        self.absent = []

    def open_root(self, start: float) -> None:
        self._root_start = start

    def close_root(self, end: float) -> None:
        self.spans.append((0, ROOT, self._root_start, end, -1, None))

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, name, start, end, parent, extra(args, result) if extra else None))
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at every binding site in loaded kfplab modules.
        A target that does not exist is recorded in `absent`, not raised."""
        self._targets = targets
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "kfplab" or k.startswith("kfplab."))]
        for name, modname, attr in targets:
            owner = sys.modules.get(modname)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(name, fn)
            if len(path) > 1:  # a method: the class attribute is the only binding
                setattr(owner, path[-1], wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def absent_layers(self) -> set:
        """Layer names with at least one missing target."""
        missing = set(self.absent)
        return {name for name, mod, attr in self._targets if f"{mod}.{attr}" in missing}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, name, start, end, parent, _ in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent}\n")


def _percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    k = min(len(sorted_vals) - 1, max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[k]


def summarize(spans):
    """Per-layer totals of one traced operation.

    Returns (layers, accounting): layers maps a layer name to a dict of calls,
    total seconds, self seconds, durations and extras; accounting compares the
    sum of all self times (the root's self time is the untraced remainder)
    with the root span's duration, and counts children that leave their
    parent's interval.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    escaped = 0
    for sid, _, start, end, parent, _ in spans:
        if parent < 0:
            continue
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        p = by_id.get(parent)
        if p is None or start < p[2] or end > p[3]:
            escaped += 1
    layers = {}
    self_sum = 0.0
    root = None
    for sid, name, start, end, parent, extra in spans:
        dur = end - start
        own = dur - child_time.get(sid, 0.0)
        self_sum += own
        if name == ROOT:
            root = (dur, own)
            continue
        rec = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durs": [], "extras": []})
        rec["calls"] += 1
        rec["s"] += dur
        rec["self_s"] += own
        rec["durs"].append(dur)
        if extra is not None:
            rec["extras"].append(extra)
    wall, remainder = root
    accounting = {"wall_s": wall, "remainder_s": remainder, "self_sum_s": self_sum,
                  "escaped_spans": escaped}
    return layers, accounting


def layer_metrics(per_op, n_ops, absent_layers=()):
    """Per-layer metrics from the output of `summarize` for each traced
    process, averaged over `n_ops` operations. Layers in `absent_layers` are
    omitted. Also returns the total calls per layer."""
    pooled = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "durs": [], "extras": []} for name in LAYERS}
    remainder = 0.0
    for layers, acct in per_op:
        remainder += acct["remainder_s"]
        for name, rec in layers.items():
            dst = pooled[name]
            dst["calls"] += rec["calls"]
            dst["s"] += rec["s"]
            dst["self_s"] += rec["self_s"]
            dst["durs"].extend(rec["durs"])
            dst["extras"].extend(rec["extras"])

    def per(x):
        return x / n_ops

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def have(layer):
        return layer not in absent_layers

    mv = pooled["sparse.matvec"]
    if have("sparse.matvec"):
        put("sparse.matvec.calls", per(mv["calls"]), "count")
        put("sparse.matvec.s", per(mv["s"]), "s")
        put("sparse.matvec.us_per_call", 1e6 * mv["s"] / mv["calls"] if mv["calls"] else 0.0, "us")
        # computed, not measured: 2 flops per stored entry; bytes are the CSR
        # arrays (8 B value + 8 B column index per entry, 8 B row offset per
        # row) plus one read of x and one write of y, with no cache misses
        put("sparse.matvec.flops", per(sum(2 * nnz for nnz, _ in mv["extras"])), "flop")
        put("sparse.matvec.bytes", per(sum(16 * nnz + 24 * rows + 8 for nnz, rows in mv["extras"])), "B")
    sv = pooled["sparse.solve"]
    if have("sparse.solve"):
        durs = sorted(sv["durs"])
        iters = [it for it, _ in sv["extras"]]
        put("sparse.solve.calls", per(sv["calls"]), "count")
        put("sparse.solve.self_s", per(sv["self_s"]), "s")
        put("sparse.solve.ms_p50", 1e3 * _percentile(durs, 0.5), "ms")
        put("sparse.solve.ms_p99", 1e3 * _percentile(durs, 0.99), "ms")
        put("sparse.solve.iters_mean", statistics.fmean(iters) if iters else 0.0, "count")
        put("sparse.solve.iters_max", max(iters, default=0), "count")
        put("sparse.solve.iters_total", per(sum(iters)), "count")
        put("sparse.solve.unconverged", per(sum(1 for _, ok in sv["extras"] if not ok)), "count")
    for layer in ("sparse.combine", "sparse.diagonal", "mesh.interpolate_many", "analysis.l2_error"):
        if have(layer):
            put(f"{layer}.calls", per(pooled[layer]["calls"]), "count")
            put(f"{layer}.s", per(pooled[layer]["s"]), "s")
    for layer in ("mesh.build_structured_mesh", "assembly.assemble_blocks", "solvers.run",
                  "analytic.convolution_oracle", "cli.emit_run_outputs"):
        if have(layer):
            put(f"{layer}.s", per(pooled[layer]["s"]), "s")
    if have("assembly.recombine"):
        put("assembly.recombine.calls", per(pooled["assembly.recombine"]["calls"]), "count")
        put("assembly.recombine.self_s", per(pooled["assembly.recombine"]["self_s"]), "s")
    if have("solvers.run"):
        put("solvers.self_s", per(pooled["solvers.run"]["self_s"]), "s")
    if have("analytic.kernel_G"):
        kg = pooled["analytic.kernel_G"]
        put("analytic.kernel_G.evals", per(sum(kg["extras"])), "count")
        put("analytic.kernel_G.s", per(kg["s"]), "s")
    put("trace.remainder_s", per(remainder), "s")
    return out, {name: pooled[name]["calls"] for name in LAYERS}
