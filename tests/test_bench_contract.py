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


def test_original_calls_the_traced_names_once_per_step(monkeypatch):
    # the tracer times the transport through solvers.interpolate_many and the
    # step clock wraps solvers._theta_step; a run that bypassed either binding
    # would drop out of the benchmark's numbers
    calls = collections.Counter()

    def counted(name):
        inner = getattr(solvers, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("interpolate_many", "_theta_step"):
        monkeypatch.setattr(solvers, name, counted(name))
    config = solvers.RunConfig(form="original", n=6, dt=0.1, horizon=0.5)
    solvers.run(config)
    assert calls == {"interpolate_many": config.steps, "_theta_step": config.steps}
