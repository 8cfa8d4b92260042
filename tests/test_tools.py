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


def test_oracle_stages_clocks_every_stage_of_a_small_suite():
    """One traced suite run through ``oracle_stages.run`` at small sample
    counts enters every stage, each with a positive traced peak, and puts
    back the functions it marks. No time is checked."""
    oracle_stages = _load("oracle_stages")
    marked = {(owner, name): getattr(owner, name)
              for targets in oracle_stages.STAGES.values() for owner, name in targets}
    clock = oracle_stages.run("banded", 0, traced=True, gradient_samples=512,
                              slope_samples=1000, mse_samples=512)
    assert list(clock.peak) == ["noise_check", "posteriors_and_fits", "exact_checks",
                                "corrected_mse_mc", "gradient_mc"]
    assert all(peak > 0 for peak in clock.peak.values()), clock.peak
    assert all(getattr(owner, name) is func for (owner, name), func in marked.items())
