"""The benchmark's tracer (perfbench/tracing.py) times the library from
outside, by function name, and reads a few of the arguments it sees. A
renamed function or argument would turn its per-layer metrics into
"absent" without failing any run, so the names it relies on are pinned
here."""
import importlib
import inspect
import os
import sys

import numpy as np

from lqconic.model import CostData, StateSpace, TimeGrid
from lqconic.riccati import _refine_escape, _residual_sweep, _RicFlow, _sweep

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402


def test_every_hooked_function_exists():
    missing = []
    for modname, names in tracing.HOOKS.values():
        module = importlib.import_module(modname)
        missing += [f"{modname}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []


def test_sweep_arguments_the_tracer_reads():
    # _sweep(flow, lam0, grid, ...) returns (values, escaped, escape_time);
    # the tracer reads flow.const, lam0.shape and the valid nodes of values
    assert list(inspect.signature(_sweep).parameters)[:3] == \
        ["flow", "lam0", "grid"]
    assert list(inspect.signature(_residual_sweep).parameters)[1] == "flow"
    assert list(inspect.signature(_refine_escape).parameters)[0] == "flow"

    grid = TimeGrid(T=1.0, steps=8)
    cost = CostData(Q=[[1.0]], N=None, R=[[1.0]])
    const = _RicFlow(StateSpace(A=[[0.0]], B=[[1.0]]), cost, grid)
    sampled = _RicFlow(StateSpace(A=np.zeros((9, 1, 1)), B=[[1.0]]), cost,
                       grid)
    assert const.const is True and sampled.const is False

    values, escaped, escape_time = _sweep(const, np.zeros((2, 1, 1)), grid)
    assert values.shape == (2, 9, 1, 1)
    assert escaped.shape == escape_time.shape == (2,)
