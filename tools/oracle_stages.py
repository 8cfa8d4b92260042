"""Print the cost of each stage of ``kslab verify``'s oracle suite, as JSON.

Runs ``oracles.run_oracle_suite`` on a preset with the default config's
noise level, further-noise ratio and sample counts (20,000 gradient and MSE
draws, 200,000 slope samples), as ``kslab verify`` does, and reports, per
stage, the wall time and the traced peak above the stage's start. The
stages, in the order the suite first enters them:

* ``noise_check``: ``check_conditional_noise_identity``;
* ``posteriors_and_fits``: ``Posterior`` construction and
  ``closed_form_affine_fit``;
* ``exact_checks``: the appendix identity, correction algebra, population
  minimizer and correction identity checks, and the error traces of the
  analytic MSE;
* ``corrected_mse_mc``: ``mc_corrected_mses``;
* ``gradient_mc``: ``check_gradient_equivalences``.

A stage runs from the first call of one of its functions until a function
of another stage is called; what the suite does in between counts to the
stage that is running. The exact checks run in two stretches, before and
after the corrected-MSE Monte Carlo: their time is the sum of the two and
their peak the larger. The suite runs ``--repeats`` times untraced, and
each stage's time is its least; then once under ``tracemalloc`` for the
peaks (``peak_mib``: the traced peak within the stage, less what was
traced when it started). The draws and reports are those of ``kslab
verify``; the report list is not printed.

    python tools/oracle_stages.py [--preset banded] [--seed 1] [--repeats 3]

The script imports ``kslab`` from the ``src`` directory next to it and
uses only the standard library besides. Set ``OPENBLAS_NUM_THREADS=1`` to
time what the benchmark times.
"""

import argparse
import contextlib
import functools
import json
import os
import platform
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kslab import oracles  # noqa: E402
from kslab.config import DEFAULT_CONFIG  # noqa: E402
from kslab.synthetic import PRESETS, model_preset  # noqa: E402

# (owner, attribute) of every call that marks a stage, in suite order
STAGES = {
    "noise_check": [(oracles, "check_conditional_noise_identity")],
    "posteriors_and_fits": [(oracles, "Posterior"), (oracles, "closed_form_affine_fit")],
    "exact_checks": [(oracles, "check_appendix_identity"), (oracles, "check_correction_algebra"),
                     (oracles, "check_population_minimizer"),
                     (oracles, "check_correction_identity"),
                     (oracles.Posterior, "error_trace")],
    "corrected_mse_mc": [(oracles, "mc_corrected_mses")],
    "gradient_mc": [(oracles, "check_gradient_equivalences")],
}


class StageClock:
    """Wall time and traced peak of each stage, one stretch at a time."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.peak = dict.fromkeys(STAGES, 0)
        self.stage = None

    def enter(self, stage: str) -> None:
        """Close the running stretch if ``stage`` is another stage, and start its own."""
        if stage == self.stage:
            return
        self.close()
        self.stage, self.start = stage, perf_counter()
        if self.traced:
            tracemalloc.reset_peak()
            self.base = tracemalloc.get_traced_memory()[0]

    def close(self) -> None:
        if self.stage is not None:
            self.seconds[self.stage] += perf_counter() - self.start
            if self.traced:
                above = tracemalloc.get_traced_memory()[1] - self.base
                self.peak[self.stage] = max(self.peak[self.stage], above)
        self.stage = None


@contextlib.contextmanager
def _marked(clock: StageClock):
    """Each stage's functions, patched where the suite finds them to enter
    their stage when called; put back on exit."""
    saved = []
    for stage, targets in STAGES.items():
        for owner, name in targets:
            func = getattr(owner, name)
            saved.append((owner, name, func))

            @functools.wraps(func)
            def marked(*args, _func=func, _stage=stage, **kwargs):
                clock.enter(_stage)
                return _func(*args, **kwargs)

            setattr(owner, name, marked)
    try:
        yield
    finally:
        for owner, name, func in reversed(saved):
            setattr(owner, name, func)


def run(preset: str, seed: int, traced: bool, **samples) -> StageClock:
    """One suite run on ``preset``, clocked by stage; ``samples`` overrides
    the config's ``verify`` sample counts."""
    noise = {key: DEFAULT_CONFIG["model"][key] for key in ("sigma_n", "alpha")}
    model = model_preset(preset, **noise)
    clock = StageClock(traced)
    if traced:
        tracemalloc.start()
    try:
        with _marked(clock):
            oracles.run_oracle_suite(model, seed=seed, **{**DEFAULT_CONFIG["verify"], **samples})
        clock.close()
    finally:
        if traced:
            tracemalloc.stop()
    return clock


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=PRESETS, default="banded")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs timed")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    timed = [run(args.preset, args.seed, traced=False) for _ in range(args.repeats)]
    traced = run(args.preset, args.seed, traced=True)
    print(json.dumps({
        "preset": args.preset, "seed": args.seed, "repeats": args.repeats,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")},
        "stages": [{"stage": stage,
                    "wall_s": min(clock.seconds[stage] for clock in timed),
                    "peak_mib": traced.peak[stage] / 2 ** 20}
                   for stage in STAGES],
    }, indent=1))


if __name__ == "__main__":
    main()
