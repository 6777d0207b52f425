"""The names the benchmark's tracer and step clock bind to in kfplab exist.

`perfbench/tracer.py` is loaded by path and only read: installing its
wrappers would patch kfplab for the rest of the test session.
"""

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
