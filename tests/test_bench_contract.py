"""The names the benchmark's tracer and step clock bind to in kfplab exist.

`perfbench/tracer.py` is loaded by path and only read: installing its
wrappers would patch kfplab for the rest of the test session.
"""

import collections
import importlib
import importlib.util
import inspect
import os

import pytest

from kfplab import solvers
from kfplab.assembly import OperatorBlocks

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("modname,attr", [(m, a) for _, m, a in TARGETS],
                         ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_tracer_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_step_clock_keys_on_last_argument():
    # the step clock keys each run by _theta_step's last positional argument
    assert list(inspect.signature(solvers._theta_step).parameters)[-1] == "config"


@pytest.mark.parametrize("form", solvers.FORMS)
def test_every_form_calls_the_traced_names_as_the_benchmark_expects(form, monkeypatch):
    # the tracer wraps these names at their module or class binding, and the
    # step clock wraps solvers._theta_step; the benchmark's self-test expects
    # each layer's calls on a form's workload, so a run that bypassed a
    # binding or changed a count would drop out of its numbers
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
    config = solvers.RunConfig(form=form, n=6, dt=0.1, horizon=0.5)
    solvers.run(config)
    steps = config.steps
    want = {"_theta_step": steps, f"run_{form}": 1,
            "interpolate_many": steps if form == "original" else 0,
            "lagrangian": steps if form == "lagrangian" else 0,
            "selfsimilar": steps + 1 if form == "selfsimilar" else 0}
    assert {name: calls[name] for name in want} == want
