"""One unit of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. It times set-up (import
``kslab``, ``load_config``, build the workload's models), then runs one
timed unit, checks its outputs and writes ``result.json`` into
``--unit-dir``. With ``--trace 1`` set-up and unit run under the span tracer,
and the spans are written to ``spans.npz`` beside the result.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def _setup(workload, cfg_path: Path):
    t0 = time.perf_counter()
    import kslab
    import kslab.cli  # noqa: F401  (the subcommands the unit runs)
    cfg = kslab.config.load_config(str(cfg_path))
    workload.build(kslab, cfg)
    return kslab, cfg, time.perf_counter() - t0


def _unit(workload, kslab, cfg, cfg_path: Path, out: Path, tracer=None) -> dict:
    """One timed invocation of the workload plus its output checks.

    The tracer, if any, is removed before the checks, which may run ``kslab``
    again (an untimed re-check) and must not add to the unit's spans.
    """
    out.mkdir(parents=True, exist_ok=True)
    gc.collect()
    problems, extra = [], {}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = workload.run(kslab.cli, cfg_path, out)
    except Exception:
        codes = None
        problems.append(traceback.format_exc())
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if codes is not None:
        if any(code not in workload.ok_codes for code in codes):
            problems.append(f"exit codes {codes}")
        else:
            try:
                problems, extra = workload.check(kslab.cli, out, cfg, cfg["seed"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"output check raised {exc!r}")
    extra["output_bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return {"wall_s": wall, "items": workload.items(cfg), "problems": problems, **extra}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--unit-dir", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        _, _, setup_s = _setup(workload, args.config)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import kslab.cli  # noqa: F401  (the wrappers need every module loaded)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    kslab, cfg, setup_s = _setup(workload, args.config)
    unit = _unit(workload, kslab, cfg, args.config, args.unit_dir, tracer)
    unit["setup_s"] = setup_s
    unit["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        unit["layers"] = tracer.snapshot()
        tracer.dump(args.unit_dir / "spans.npz")
    with open(args.unit_dir / "result.json", "w") as fh:
        json.dump(unit, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
