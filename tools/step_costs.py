"""Print the cost of one lockstep training step per stack: microseconds and traced MB.

Each AC-7 stack has 8 ``tiny_net`` cells on the AC-7 model: banded q = 8,
``width_factor`` 2 (layers 16-16-16-16, 816 parameters per cell), 256
training items, learning rate 5e-3, alpha 1. There is one stack per training
method, whose 8 cells run that method alone at sigma_n 0.1 and 0.3 (4 seeds
each), the AC-7 mixed stack: fully_supervised, noisier2full,
standard_ssdu and robust_ssdu at sigma_n 0.1 and 0.3, and an all-methods
stack: one cell per method at sigma_n 0.1. Beside them runs one
stack shaped like the benchmark's train-2d workload: one ``toy_cascade``
cell (2 cascades, 2,101,250 parameters) on bernoulli2d q = 256, 16 training
items, robust_ssdu at sigma_n 0.1 and alpha 0.75.

A step runs as training runs it: ``training.stack_loss_and_grad`` (the
stacked forward pass, the loss and, for a family that hands over one
piece, its pullback), then ``training.adam_step`` on the gradient's
pieces. A ``toy_cascade`` pullback hands its pieces over while Adam runs,
so the time spent producing each piece is clocked apart and counted as
forward+pullback, and the rest of the step as Adam. A network's weight
pieces are outer products that Adam forms block by block, so their
products count as Adam time, not pullback time. Each epoch's rows are
built before its steps and are not timed. The stacks take turns epoch by
epoch, and each time is the median over an epoch's steps, at its smallest
over the timed epochs, so that load from other processes on the host
inflates it less. The traced peak is what ``tracemalloc`` sees at most
during a stack's second step, run apart from the timed ones with the stack
built under tracing: the parameters, data and Adam moments it holds and
what the step allocates.

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
import tracemalloc
from collections.abc import Iterator
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kslab import methods as M  # noqa: E402
from kslab.estimators import TinyNet, ToyCascade  # noqa: E402
from kslab.synthetic import model_preset  # noqa: E402
from kslab.training import (  # noqa: E402
    AdamState,
    Cell,
    Rows,
    TrainSpec,
    _consistency_cells,
    _stack_epoch,
    adam_step,
    build_dataset,
    stack_loss_and_grad,
)

SIGMAS = (0.1, 0.3)
AC7_METHODS = (M.FULLY_SUPERVISED, M.NOISIER2FULL, M.STANDARD_SSDU, M.ROBUST_SSDU)
N_TRAIN = 256
TRAIN_2D = "train_2d_toy_cascade"


def _cells(plan) -> list[Cell]:
    """One cell per (method, sigma_n), seeded by its position, in plan order."""
    models = {s: model_preset("banded", sigma_n=s, alpha=1.0) for s in SIGMAS}
    return [Cell(TrainSpec(method=method, lr=5e-3, seed=seed, alpha=1.0),
                 TinyNet(models[sigma].q, width_factor=2, seed=seed),
                 build_dataset(models[sigma], N_TRAIN, seed), models[sigma])
            for seed, (method, sigma) in enumerate(plan)]


def _train_2d_cells() -> list[Cell]:
    model = model_preset("bernoulli2d", sigma_n=0.1, alpha=0.75)
    return [Cell(TrainSpec(method=M.ROBUST_SSDU, seed=0, alpha=0.75),
                 ToyCascade(model.q, cascades=2, seed=0), build_dataset(model, 16, 0), model)]


def _clocked(pieces, clock: list) -> Iterator:
    """The pieces, adding the seconds spent producing each to ``clock[0]``."""
    pieces = iter(pieces)
    while True:
        t0 = perf_counter()
        piece = next(pieces, None)
        clock[0] += perf_counter() - t0
        if piece is None:
            return
        yield piece


def steps(cells: list[Cell]) -> Iterator[tuple[float, float]]:
    """Train the cells as one stack, one step per ``next``; yields the step's
    seconds of forward+pullback and of Adam. As in training, Adam consumes
    the pieces as the pullback hands them over."""
    cons, lambda_n2r = _consistency_cells(cells)
    est = cells[0].est
    theta = np.stack([cell.est.theta for cell in cells])
    for cell, row in zip(cells, theta):  # one copy of the parameters, as in training
        cell.est.theta = row
    state = AdamState.from_spec(cells[0].spec)
    for epoch in itertools.count():
        rows = _stack_epoch(cells, epoch, cons.any())
        for s in range(len(cells[0].data)):
            step = Rows(*(None if a is None else a[s] for a in rows))
            pulled = [0.0]
            t0 = perf_counter()
            _, pieces = stack_loss_and_grad(est, theta, step, cons, lambda_n2r)
            t1 = perf_counter()
            adam_step(state, theta, _clocked(pieces, pulled))
            t2 = perf_counter()
            del pieces
            yield t1 - t0 + pulled[0], t2 - t1 - pulled[0]


def epoch_costs(cells: list[Cell]) -> Iterator[tuple[float, float]]:
    """Per ``next``, the median seconds per step of forward+pullback and of
    Adam over one more epoch of the stack."""
    run, n = steps(cells), len(cells[0].data)
    while True:
        loss_s, adam_s = zip(*itertools.islice(run, n))
        yield statistics.median(loss_s), statistics.median(adam_s)


def step_peak_mb(make_cells) -> float:
    """Traced peak, in MB, of the second step of a stack built under tracing
    (the first sizes the Adam moments)."""
    tracemalloc.start()
    try:
        run = steps(make_cells())
        next(run)
        tracemalloc.reset_peak()
        next(run)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=5, help="timed epochs per stack")
    args = parser.parse_args()
    if args.epochs < 1:
        parser.error("--epochs must be >= 1")
    plans = [(method, [(method, sigma) for sigma in SIGMAS for _ in range(4)])
             for method in M.ALL_METHODS]
    plans.append(("ac7_mixed", [(method, sigma) for sigma in SIGMAS
                                for method in AC7_METHODS]))
    plans.append(("all_methods", [(method, SIGMAS[0]) for method in M.ALL_METHODS]))
    stacks = {name: (lambda plan=plan: _cells(plan)) for name, plan in plans}
    stacks[TRAIN_2D] = _train_2d_cells
    print(f"# us per stacked step, least of {args.epochs} epoch medians: 8 tiny_net cells "
          f"(816 parameters each, {N_TRAIN} steps an epoch) per AC-7 stack, one "
          f"toy_cascade cell (2,101,250 parameters, 16 steps) in {TRAIN_2D}; "
          f"traced MB at most during a second step")
    print(f"# {platform.machine()}, {os.cpu_count()} cores, Python "
          f"{platform.python_version()}, NumPy {np.__version__}, OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"{'stack':<24} {'fwd+pullback':>12} {'adam':>8} {'step':>8} {'peak MB':>8}")
    # the stacks take turns epoch by epoch, so that a burst of load from other
    # processes inflates one epoch of every stack, not every epoch of one
    runs = {name: epoch_costs(make_cells()) for name, make_cells in stacks.items()}
    costs = {name: [] for name in runs}
    for _ in range(args.epochs):
        for name, run in runs.items():
            costs[name].append(next(run))
    del runs  # the timed stacks go before the traced ones are built
    for name, epoch in costs.items():
        loss_s, adam_s = (min(part) for part in zip(*epoch))
        print(f"{name:<24} {loss_s * 1e6:12.1f} {adam_s * 1e6:8.1f} "
              f"{(loss_s + adam_s) * 1e6:8.1f} {step_peak_mb(stacks[name]):8.2f}")


if __name__ == "__main__":
    main()
