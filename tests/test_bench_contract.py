"""The names the benchmark's tracer and step clock bind to in kfplab exist.

`perfbench/tracer.py` and `perfbench/workloads.py` are loaded by path and
only read: installing the tracer's wrappers would patch kfplab for the rest
of the test session.
"""

import collections
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from kfplab import cli, solvers, sparse
from kfplab.assembly import MASS, OperatorBlocks, assemble_blocks
from kfplab.mesh import RectDomain, build_structured_mesh

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
TARGETS = TRACER.TARGETS
CLI_LINES = {f"{name}-{kind}": (kind, wl[kind]) for name, wl in _load("workloads").WORKLOADS.items()
             if wl["kind"] == "cli" for kind in ("argv", "tiny")}


@pytest.mark.parametrize("modname,attr", [(m, a) for _, m, a in TARGETS],
                         ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_tracer_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_importing_the_package_loads_every_traced_module():
    # the benchmark runs `import kfplab` and then patches the modules it
    # finds loaded; the command line it imports itself
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", "import sys, kfplab; print(*sorted(sys.modules))"],
                            env=env, capture_output=True, text=True, check=True).stdout.split()
    want = {modname for _, modname, _ in TARGETS} - {"kfplab.cli"}
    assert want <= set(loaded)


def test_step_clock_keys_on_last_argument():
    # the step clock keys each run by _theta_step's last positional argument
    assert list(inspect.signature(solvers._theta_step).parameters)[-1] == "config"


@pytest.mark.parametrize("form", solvers.FORMS)
def test_every_form_calls_the_traced_names_as_the_benchmark_expects(form, monkeypatch):
    # the tracer wraps these names at their module or class binding, and the
    # step clock wraps solvers._theta_step; the benchmark's self-test expects
    # each layer's calls on a form's workload, so a run that bypassed a
    # binding or changed a count would drop out of its numbers. The theta
    # sides take two contractions and their preconditioner one diagonal:
    # once per run for the original form's constant operator, once per step
    # for the others, so re-building constant sides or reusing stale ones
    # changes the count
    calls = collections.Counter()

    def count_calls(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("interpolate_many", "_theta_step", f"run_{form}"):
        count_calls(solvers, name)
    for name in ("lagrangian", "selfsimilar"):
        count_calls(OperatorBlocks, name)
    count_calls(sparse, "combine")
    count_calls(sparse.SparseMatrix, "diagonal")
    config = solvers.RunConfig(form=form, n=6, dt=0.1, horizon=0.5)
    solvers.run(config)
    steps = config.steps
    want = {"_theta_step": steps, f"run_{form}": 1,
            "interpolate_many": steps if form == "original" else 0,
            "lagrangian": steps if form == "lagrangian" else 0,
            "selfsimilar": steps + 1 if form == "selfsimilar" else 0,
            "combine": 2 if form == "original" else 2 * steps,
            "diagonal": 1 if form == "original" else steps}
    assert {name: calls[name] for name in want} == want


def test_the_benchmarks_self_test_passes():
    # a tiny traced instance of every workload calls each layer the
    # benchmark expects of it, sparse.diagonal on the three solver workloads
    # among them, and no other; it writes only under .bench_out/
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--selftest"],
                          cwd=os.path.join(PERFBENCH, os.pardir), capture_output=True, text=True, timeout=170)
    assert done.returncode == 0 and "# selftest passed" in done.stdout.splitlines(), done.stdout + done.stderr


@pytest.mark.parametrize("form", solvers.FORMS)
def test_the_traced_solve_is_each_steps_whole_solve(form, monkeypatch):
    # the tracer's sparse.solve layer reads the solves of a run: one call a
    # step, on the step's full right-hand side, returning the iterations the
    # trajectory records for it
    inner, calls = sparse.solve, []

    def wrapper(A, b, *args, **kwargs):
        x, stats = inner(A, b, *args, **kwargs)
        calls.append((len(b), stats.iterations))
        return x, stats
    monkeypatch.setattr(sparse, "solve", wrapper)
    config = solvers.RunConfig(form=form, n=6, dt=0.1, horizon=0.5)
    traj = solvers.run(config)
    node_count = build_structured_mesh(config.domain, config.n).node_count
    assert calls == [(node_count, k) for k in traj.iterations[1:]]
    assert len(calls) == config.steps and all(k > 0 for _, k in calls)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_the_tracers_matvec_counts_read_the_operator(n):
    # the tracer records (nnz, rows) of every traced matvec and turns them
    # into sparse.matvec.flops and .bytes; both are ints, and nnz is the
    # stencil entries applied per matvec: 7 in each row from the first
    # interior node to the last, (n + 1)^2 - 2 (n + 1) - 2 rows for n >= 2,
    # none at n = 1
    mesh = build_structured_mesh(RectDomain.square(10.0), n)
    blocks = assemble_blocks(mesh)
    for coeffs in (MASS + 0.05 * blocks.lagrangian(2.0), MASS + 0.05 * blocks.selfsimilar(0.7, 1.0)):
        A = blocks.matrix(coeffs)
        x = np.zeros(mesh.node_count)
        counts = TRACER.EXTRAS["sparse.matvec"]((A, x), A.matvec(x))
        assert counts == (7 * max(n * n - 3, 0), mesh.node_count)
        assert all(type(count) is int for count in counts)


@pytest.mark.parametrize("name", list(CLI_LINES))
def test_every_benchmark_command_line_is_read_whole(name, tmp_path):
    # the command reads every flag of the workload's line, with the --out the
    # benchmark adds; the small self-test lines also run to exit 0
    kind, line = CLI_LINES[name]
    argv = line + ["--out", str(tmp_path)]
    args, ignored = cli._build_parser().parse_known_args(argv)
    assert ignored == []
    cli.parse_config(args)
    if kind == "tiny":
        assert cli.main(argv) == 0
