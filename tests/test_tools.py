"""The scripts under ``tools/`` still run against the package."""

import importlib.util
from pathlib import Path

import numpy as np

from kslab import methods as M

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    """A tool's module, loaded from its file as ``python tools/<name>.py`` loads it."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_costs_steps_a_two_cell_stack():
    """Two steps of a two-cell ``tiny_net`` stack through ``step_costs.steps``,
    which reads training's stacking internals; one cell has a consistency
    term. No time is checked."""
    step_costs = _load("step_costs")
    cells = step_costs._cells([(M.ROBUST_SSDU, 0.1), (M.NOISE2RECON_SS, 0.3)])
    before = np.stack([cell.est.theta for cell in cells])
    run = step_costs.steps(cells)
    for _ in range(2):
        assert len(next(run)) == 2  # seconds of forward+pullback and of Adam
    after = np.stack([cell.est.theta for cell in cells])
    assert np.all(np.isfinite(after)) and np.all((after != before).any(axis=1))
