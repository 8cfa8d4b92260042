"""kslab benchmark: run one workload in a fresh interpreter and report its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload compare-banded --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
metrics from a traced run. ``--workload all`` runs every workload untraced
and prints each metric by name and unit. Per-run files (each unit's
``result.json``, spans of traced units, and ``summary.json`` with the
machine fingerprint) go to ``perfbench/_runs/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
from tracer import STEP  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 9   # set-up is timed in at least this many fresh interpreters
LAYERS = json.loads((HERE / "layers.json").read_text())
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread (at most nproc): at q <= 256 the BLAS calls are too small
# to gain from threads, and starting OpenBLAS's thread pool made set-up
# slower and noisier (0.24 s against 0.17 s for verify-banded, 2 vCPUs).
BLAS_THREADS = 1


def _git_commit() -> str | None:
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "kslab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "kslab_commit": _git_commit(),
        "kslab_src_sha256": src.hexdigest(),
    }


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    threads = str(BLAS_THREADS)
    # a fixed hash seed keeps str hashing, and so set order, the same in every unit
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)


def _median(units: list[dict], key: str) -> float:
    return statistics.median(u[key] for u in units)


def end_to_end(units: list[dict], setup_samples: list[float]) -> dict:
    return {
        "wall_s": (_median(units, "wall_s"), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_s": (statistics.median(u["items"] / u["wall_s"] for u in units), "1/s"),
        "peak_rss_mb": (_median(units, "peak_rss_mb"), "MB"),
    }


def _mean_layers(units: list[dict]) -> dict:
    """Per-name span totals averaged over the traced units (set-up plus one unit each)."""
    out = {}
    for field in ("calls", "self_s", "total_s", "in_step", "counters"):
        keys = set().union(*(u["layers"][field] for u in units))
        out[field] = {k: sum(u["layers"][field].get(k, 0) for u in units) / len(units)
                      for k in keys}
    return out


def per_layer(units: list[dict], reference: dict) -> dict:
    layers = _mean_layers(units)
    calls, self_s, total_s = layers["calls"], layers["self_s"], layers["total_s"]
    counters, in_step = layers["counters"], layers["in_step"]
    out = {}
    for name in LAYERS["functions"]:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls.get(STEP, 0)
    adam = calls.get("training.adam_step", 0)
    out["training.adam_step.bytes_computed"] = (ratio(counters.get("adam_bytes", 0), adam), "B")
    out["estimators.mlp_forwards_per_step"] = (
        ratio(in_step.get("estimators.Mlp.forward", 0), steps), "ratio")
    out["estimators.forward.flops_computed"] = (counters.get("forward_flops", 0), "flop")
    for fn, key in (("mc_corrected_mse", "mc_corrected_mse_draws"),
                    ("check_gradient_equivalence", "gradient_equivalence_draws")):
        out[f"oracles.{fn}.per_draw_us"] = (
            1e6 * ratio(total_s.get(f"oracles.{fn}", 0.0), counters.get(key, 0)), "us")
    out["oracles.proof_backed_pass_frac"] = (
        statistics.median(u.get("proof_backed_pass_frac", 0.0) for u in units), "ratio")
    out["cli.output_bytes"] = (_median(units, "output_bytes"), "B")
    out["rng.stream.us_per_call"] = (
        1e6 * ratio(total_s.get("rng.stream", 0.0), calls.get("rng.stream", 0)), "us")
    out[f"{STEP}.us_per_call"] = (1e6 * ratio(total_s.get(STEP, 0.0), steps), "us")

    traced = statistics.mean(u["wall_s"] for u in units)
    wall = statistics.mean(u["setup_s"] for u in units) + traced
    listed = sum(self_s.get(name, 0.0) for name in LAYERS["functions"])
    out["trace.overhead_s"] = (traced - reference["wall_s"], "s")
    out["trace.overhead_frac"] = (ratio(traced - reference["wall_s"], reference["wall_s"]), "ratio")
    out["trace.coverage_frac"] = (ratio(listed, wall), "ratio")
    out["trace.unattributed_s"] = (wall - listed, "s")
    out["trace.unlisted_spans_s"] = (sum(self_s.values()) - listed, "s")
    return out


def cross_check(name: str, metrics: dict) -> list[dict]:
    """Traced per-call figures beside the re-anchor figures recorded in layers.json."""
    return [{"metric": key, "measured_us": metrics[key][0], "reference_us": ref["us"],
             "difference_us": metrics[key][0] - ref["us"]}
            for key, ref in LAYERS["reference_us"].items() if ref["workload"] == name]


def _digest_problems(units: list[dict]) -> None:
    """Every unit of a run must reproduce the first unit's output digests."""
    first = units[0].get("digests", {})
    for u in units[1:]:
        for key, digest in u.get("digests", {}).items():
            if first.get(key) != digest:
                u["problems"].append(f"{key} differs from the first unit of this run")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = HERE / "_runs" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(WORKLOADS[name].config(seed), indent=1))
    common = ["--workload", name, "--config", str(cfg_path)]
    count = 0

    def unit(traced: int) -> dict:
        nonlocal count
        unit_dir = run_dir / f"unit{count}"
        count += 1
        _child([*common, "--unit-dir", str(unit_dir), "--trace", str(traced)], deadline)
        result = json.loads((unit_dir / "result.json").read_text())
        if not result["problems"]:  # keep a failed unit's outputs for inspection
            for path in unit_dir.iterdir():
                if path.is_dir():
                    shutil.rmtree(path)
                elif path.name not in ("result.json", "spans.npz"):
                    path.unlink()
        return result

    reference = unit(0) if trace else None  # untraced unit for the tracing overhead
    units = []
    start = time.monotonic()
    while not units or time.monotonic() - start < seconds:
        units.append(unit(trace))
    checked = units + ([reference] if trace else [])
    _digest_problems(checked)
    setup_samples = [u["setup_s"] for u in units]
    if not trace:
        while len(setup_samples) < SETUP_SAMPLES:
            proc = _child([*common, "--unit-dir", str(run_dir), "--setup-only"], deadline)
            setup_samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    failed = sum(1 for u in checked if u["problems"])
    metrics = per_layer(units, reference) if trace else end_to_end(units, setup_samples)
    line = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "fingerprint": fingerprint(),
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "failed_frac": failed / len(checked),
        "setup_samples_s": setup_samples,
        "unit_wall_s": [u["wall_s"] for u in units],
        "problems": [p for u in checked for p in u["problems"]],
        **({"cross_check": cross_check(name, metrics)} if trace else {}),
        **line,
    }
    (run_dir / "summary.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return line, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "kslab" / "__init__.py").is_file():
        print(f"kslab sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = 0 if args.workload == "all" else args.trace
    lines = []
    for name in names:
        try:
            line, record = run_workload(name, args.seed, args.seconds, trace)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: benchmark child failed: {exc}", file=sys.stderr)
            return 1
        lines.append(line)
        print(json.dumps({"fingerprint": record["fingerprint"]}))
        for problem in record["problems"]:
            print(f"{name}: output check failed: {problem}")
        for row in record.get("cross_check", []):
            print(f"{name}: cross-check {row['metric']}: measured {row['measured_us']:.1f} us, "
                  f"reference {row['reference_us']:.1f} us, "
                  f"difference {row['difference_us']:+.1f} us")
        print(f"{name}: attempted {line['attempted']} failed {line['failed']} "
              f"failed_frac {record['failed_frac']:.4g}")
        for key, m in line["metrics"].items():
            print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{n}:{k}": m for n, x in zip(names, lines)
                        for k, m in x["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
