"""Print the cost of one lockstep training step, in microseconds, per stack.

Each stack has 8 ``tiny_net`` cells on the AC-7 model: banded q = 8,
``width_factor`` 2 (layers 16-16-16-16, 816 parameters per cell), 256
training items, learning rate 5e-3, alpha 1. There is one stack per training
method, whose 8 cells run that method alone at sigma_n 0.1 and 0.3 (4 seeds
each), and the AC-7 mixed stack: fully_supervised, noisier2full,
standard_ssdu and robust_ssdu at sigma_n 0.1 and 0.3.

A step is split into forward+pullback (``training.stack_loss_and_grad``:
the stacked forward pass, the loss and its pullback) and Adam
(``training.adam_step``). Each epoch's rows are built before its steps and
are not timed. The stacks take turns epoch by epoch, and each figure is the
median over an epoch's steps, at its smallest over the timed epochs, so
that load from other processes on the host inflates it less:

    python tools/step_costs.py [--epochs 5]

The script imports ``kslab`` from the ``src`` directory next to it. Set
``OPENBLAS_NUM_THREADS=1`` to time what the benchmark times.
"""

import argparse
import itertools
import os
import platform
import statistics
import sys
from collections.abc import Iterator
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kslab import methods as M  # noqa: E402
from kslab.estimators import TinyNet  # noqa: E402
from kslab.synthetic import model_preset  # noqa: E402
from kslab.training import (  # noqa: E402
    AdamState,
    Cell,
    Rows,
    TrainSpec,
    _CellRun,
    _stack_epoch,
    adam_step,
    build_dataset,
    stack_loss_and_grad,
)

SIGMAS = (0.1, 0.3)
AC7_METHODS = (M.FULLY_SUPERVISED, M.NOISIER2FULL, M.STANDARD_SSDU, M.ROBUST_SSDU)
N_TRAIN = 256


def _cells(plan) -> list[Cell]:
    """One cell per (method, sigma_n), seeded by its position; consistency
    cells first, as a stack trains them."""
    models = {s: model_preset("banded", sigma_n=s, alpha=1.0) for s in SIGMAS}
    cells = [Cell(TrainSpec(method=method, lr=5e-3, seed=seed, alpha=1.0),
                  TinyNet(models[sigma].q, width_factor=2, seed=seed),
                  build_dataset(models[sigma], N_TRAIN, seed), models[sigma])
             for seed, (method, sigma) in enumerate(plan)]
    return sorted(cells, key=lambda cell: M.row(cell.spec.method).consistency is None)


def epoch_costs(cells: list[Cell]) -> Iterator[tuple[float, float]]:
    """Train the cells as one stack, one epoch per ``next``; yields each epoch's
    median seconds per step of forward+pullback and of Adam."""
    runs = [_CellRun(cell) for cell in cells]
    n_cons = sum(run.method.consistency is not None for run in runs)
    est = cells[0].est
    theta = np.stack([cell.est.theta for cell in cells])
    lambda_n2r = np.array([cell.spec.lambda_n2r for cell in cells[:n_cons]])
    state = AdamState.from_spec(cells[0].spec)
    for epoch in itertools.count():
        rows = _stack_epoch(runs, epoch, n_cons)
        loss_s, adam_s = [], []
        for s in range(N_TRAIN):
            step = Rows(*(None if a is None else a[s] for a in rows))
            t0 = perf_counter()
            _, grad = stack_loss_and_grad(est, theta, step, lambda_n2r)
            t1 = perf_counter()
            adam_step(state, theta, grad)
            t2 = perf_counter()
            loss_s.append(t1 - t0)
            adam_s.append(t2 - t1)
        yield statistics.median(loss_s), statistics.median(adam_s)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=5, help="timed epochs per stack")
    args = parser.parse_args()
    if args.epochs < 1:
        parser.error("--epochs must be >= 1")
    stacks = [(method, [(method, sigma) for sigma in SIGMAS for _ in range(4)])
              for method in M.ALL_METHODS]
    stacks.append(("ac7_mixed", [(method, sigma) for sigma in SIGMAS
                                 for method in AC7_METHODS]))
    print(f"# us per stacked step of 8 tiny_net cells (816 parameters each), least of "
          f"{args.epochs} epoch medians of {N_TRAIN} steps")
    print(f"# {platform.machine()}, {os.cpu_count()} cores, Python "
          f"{platform.python_version()}, NumPy {np.__version__}, OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"{'stack':<24} {'fwd+pullback':>12} {'adam':>8} {'step':>8}")
    # the stacks take turns epoch by epoch, so that a burst of load from other
    # processes inflates one epoch of every stack, not every epoch of one
    runs = {name: epoch_costs(_cells(plan)) for name, plan in stacks}
    costs = {name: [] for name in runs}
    for _ in range(args.epochs):
        for name, run in runs.items():
            costs[name].append(next(run))
    for name, epoch in costs.items():
        loss_s, adam_s = (min(part) for part in zip(*epoch))
        print(f"{name:<24} {loss_s * 1e6:12.1f} {adam_s * 1e6:8.1f} "
              f"{(loss_s + adam_s) * 1e6:8.1f}")


if __name__ == "__main__":
    main()
