"""Condense perfbench run summaries into one trajectory file, as JSON.

Reads the ``summary.json`` of every run directory given (default: every
directory under ``perfbench/_runs``) and prints, per workload, one entry
per ``kslab_commit``:

* ``kslab_commit``, and ``runs``: how many runs, their seeds and lengths;
* ``units`` and ``failed_frac``: units attempted over those runs, and the
  fraction of them whose output check failed;
* ``metrics``: for each end-to-end metric, its unit and the median and
  quartiles of its per-run values (each run's value is already a median
  over its units);
* ``fingerprint``: the machine and source fingerprint the runs share.

Runs of one commit whose fingerprints differ in any other field (runs on
another host, or on a working tree with uncommitted sources, whose
``kslab_src_sha256`` differs) are separate entries.

Only untraced runs (``--trace 0``) are read: end-to-end metrics are measured
with tracing off. Entries come in the order their first run is given, so
list the parent's runs first:

    python3 tools/bench_summary.py PARENT/perfbench/_runs/* CHANGE/perfbench/_runs/* \\
        > BENCH_<n>.json

Uses the standard library only.
"""

import json
import statistics
import sys
from pathlib import Path

RUNS = Path(__file__).resolve().parents[1] / "perfbench" / "_runs"


def _quartiles(values: list[float]) -> dict:
    """Median and quartiles, interpolated between the sorted values as
    ``numpy.percentile`` does by default."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(summaries: list[dict]) -> dict:
    """The trajectory of the untraced run summaries: per workload, one entry
    per distinct fingerprint, in the order of its first run."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for run in summaries:
        if run["trace"] == 0:
            key = (run["workload"], json.dumps(run["fingerprint"], sort_keys=True))
            groups.setdefault(key, []).append(run)
    out: dict[str, list[dict]] = {}
    for (workload, _), runs in groups.items():
        units = sum(run["attempted"] for run in runs)
        out.setdefault(workload, []).append({
            "kslab_commit": runs[0]["fingerprint"]["kslab_commit"],
            "runs": len(runs),
            "seeds": [run["seed"] for run in runs],
            "seconds": sorted({run["seconds"] for run in runs}),
            "units": units,
            "failed_frac": sum(run["failed"] for run in runs) / units if units else None,
            "metrics": {
                name: {"unit": metric["unit"],
                       **_quartiles([run["metrics"][name]["value"] for run in runs])}
                for name, metric in runs[0]["metrics"].items()},
            "fingerprint": runs[0]["fingerprint"],
        })
    return out


def main(argv: list[str]) -> int:
    dirs = [Path(arg) for arg in argv] or sorted(p for p in RUNS.glob("*") if p.is_dir())
    summaries = []
    for d in dirs:
        try:
            summaries.append(json.loads((d / "summary.json").read_text()))
        except (OSError, ValueError) as exc:
            print(f"{d}: no readable summary.json ({exc})", file=sys.stderr)
            return 2
    try:
        trajectory = summarize(summaries)
    except KeyError as exc:
        print(f"a summary lacks the field {exc}", file=sys.stderr)
        return 2
    print(json.dumps(trajectory, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
