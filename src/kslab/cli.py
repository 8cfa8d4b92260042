"""Command-line entry points for end-to-end experiments.

Subcommands: ``compare`` (method grid), ``sweep-alpha`` (further-noise ratio
sweep), ``verify`` (oracle suite), ``train`` (single method), and
``reconstruct`` (apply a checkpoint to fresh draws).

Every output file embeds the artifact version and the fully resolved
configuration. Result tables are byte-identical across repeated runs with
the same config and seed; wall-clock timings go to a separate file that is
excluded from that contract. ``compare`` and ``sweep-alpha`` only describe
their grid: test sets, one per ``compare`` grid point and one for the whole
sweep, each with its cells. One runner builds, trains, scores and writes a
grid. Cells train in lockstep stacks: a cell's data and estimator are built
as its stack forms, and released once the trained cell is scored. A test
set is drawn when its first cell is scored, and one is held at a time.

Exit codes: 0 success, 2 configuration error, 3 oracle failure, 4 training
diverged (a non-finite training loss; no results are written).
"""

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import methods as M
from .config import (ALPHA_DEFAULTS, RULES, config_json, estimator_options, load_config,
                     resolve_config)
from .errors import ConfigError, TrainingDiverged, ValidationError, integer
from .estimators import load_checkpoint, make_estimator
from .inference import reconstruct_rows
from .kspace import kspace_to_json, magnitude_image
from .metrics import mean_and_se, nmse_rows, ssim_rows
from .noise import NOISE_RULES
from .oracles import run_oracle_suite
from .rng import stream, streams
from .synthetic import MeasurementModel, load_prior_cov, model_preset
from .training import Cell, Dataset, TrainSpec, build_dataset, train, train_cells


def _subseed(master: int, *path) -> int:
    return int(stream(master, *path).integers(0, 2 ** 63 - 1))


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, cfg: dict, columns: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# artifact_version: {__version__}\n")
        fh.write(f"# config: {config_json(cfg)}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _build_model(cfg: dict, sigma_n=None, alpha=None, R_omega=None):
    m = cfg["model"]
    model = model_preset(
        m["preset"],
        sigma_n=m["sigma_n"] if sigma_n is None else sigma_n,
        alpha=m["alpha"] if alpha is None else alpha,
        R_omega=m["R_omega"] if R_omega is None else R_omega,
        R_lambda=m["R_lambda"],
        q=m["q"],
        degree=m["degree"],
    )
    if m["prior_file"] is not None:
        try:
            cov = load_prior_cov(m["prior_file"])
            if cov.shape[0] != model.q:
                raise ConfigError(f"covariance is {cov.shape[0]}x{cov.shape[0]} "
                                  f"but the preset dimension is {model.q}")
            model = MeasurementModel(cov, model.noise, model.omega_dist,
                                     model.lambda_dist, shape=model.shape)
        except (ConfigError, ValidationError) as exc:
            raise ConfigError(f"model.prior_file: {exc}") from None
    return model


def _build_estimator(cfg: dict, q: int):
    return make_estimator(cfg["estimator"]["family"], q, **estimator_options(cfg))


def _train_spec(cfg: dict, method: str, alpha: float, seed: int) -> TrainSpec:
    t = cfg["train"]
    return TrainSpec(
        method=method, epochs=t["epochs"], lr=t["lr"], beta1=t["beta1"],
        beta2=t["beta2"], eps=t["eps"], batch_size=t["batch_size"], seed=seed,
        lambda_n2r=t["lambda_n2r"], alpha=alpha,
    )


def _test_set(model, cfg, master: int, tag: str) -> Dataset:
    """The test items of ``tag``: item i drawn from ``stream(master, "test", tag, i)``."""
    return build_dataset(model, cfg["eval"]["n_test"], master, label=("test", tag))


def _metric_rows(estimate, test: Dataset, model):
    """Per-item NMSE and magnitude-image SSIM of estimates (n, q) of the test set."""
    return (nmse_rows(estimate, test.y0),
            ssim_rows(magnitude_image(estimate, model.shape),
                      magnitude_image(test.y0, model.shape)))


def _score(method, est, test: Dataset, model, mode, rngs):
    """Reconstructions (n, q) of the test set and their per-item NMSE and SSIM.

    ``rngs`` (lazily drawn) give each item's fresh corruption in theory mode.
    """
    rec = reconstruct_rows(method, est, test.y, test.omega, model.noise,
                           model.lambda_dist, mode, rngs)
    return (rec, *_metric_rows(rec, test, model))


def _cell(cfg, method, model, alpha, master, tag) -> Cell:
    """A grid cell's spec, estimator and data, holding the ground truth only
    for the methods whose target reads it."""
    seed = _subseed(master, "cell", tag)
    data = build_dataset(model, cfg["train"]["n_train"], seed, label="train",
                         keep_ground_truth=M.row(method).target != M.TARGET_Y)
    return Cell(_train_spec(cfg, method, alpha, seed), _build_estimator(cfg, model.q),
                data, model)


TIMING_COLUMNS = ["stage", "cells", "seconds"]
COMPARE_COLUMNS = ["method", "sigma_n", "R_omega", "R_lambda", "alpha",
                   "nmse_mean", "nmse_se", "ssim_mean", "ssim_se"]


def _run_grid(cfg: dict, out: Path, grid: list) -> Path:
    """Build, train and score ``grid``; write its rows to ``out`` and its
    timings to ``timings.csv`` next to it.

    ``grid`` lists test sets ``(tag, model, baseline, cells)``, each cell
    ``(method, model, alpha, tag, fields)``. A test set is drawn from its
    model when its first cell is scored, and one is held at a time. Rows
    follow the grid: per test set, ``baseline`` (its leading fields, or None
    for no row) with the metrics of the noisy, sub-sampled data, then each
    cell's ``fields`` with the metrics of its reconstructions. Timing rows:
    data per cell, train per stack, eval for the baseline and each cell. A
    cell is built when its stack forms and released once scored, so one
    stack is held at a time.
    """
    master = cfg["seed"]
    plan = [(s, cell) for s, (*_, cells) in enumerate(grid) for cell in cells]
    built, rows, timing_rows, held = {}, [], [], None

    def cells():
        for i, (_, (method, model, alpha, tag, _)) in enumerate(plan):
            t0 = time.perf_counter()
            built[i] = _cell(cfg, method, model, alpha, master, tag)
            timing_rows.append(["data", tag, time.perf_counter() - t0])
            yield built[i]

    for members, _, seconds in train_cells(cells(), validate_every=0):
        timing_rows.append(["train", " ".join(plan[i][1][3] for i in members), seconds])
        trained = {i: built.pop(i).est for i in members}  # the data is released
        for i in members:
            s, (method, model, _, tag, fields) = plan[i]
            t0 = time.perf_counter()
            if s != held:
                set_tag, set_model, baseline, _ = grid[s]
                test = None  # the held test set is released before the next is drawn
                test, held = _test_set(set_model, cfg, master, set_tag), s
                if baseline is not None:
                    nmses, ssims = _metric_rows(test.y, test, set_model)
                    rows.append([*baseline, *mean_and_se(nmses), *mean_and_se(ssims)])
                    timing_rows.append(["eval", f"noisy_subsampled_{set_tag}",
                                        time.perf_counter() - t0])
                    t0 = time.perf_counter()
            _, nmses, ssims = _score(method, trained.pop(i), test, model, cfg["mode"],
                                     streams(master, "recon", tag, count=len(test)))
            rows.append([*fields, *mean_and_se(nmses), *mean_and_se(ssims)])
            timing_rows.append(["eval", tag, time.perf_counter() - t0])
    _write_csv(out, cfg, COMPARE_COLUMNS, rows)
    _write_csv(out.parent / "timings.csv", cfg, TIMING_COLUMNS, timing_rows)
    return out


def run_compare(cfg: dict, out_dir: Path) -> Path:
    """Train every (method, sigma_n, R_omega) cell; each (sigma_n, R_omega)
    point scores its cells and the noisy, sub-sampled data on one test set."""
    alpha = cfg["model"]["alpha"]
    grid = []
    for r_omega in cfg["compare"]["R_omega"]:
        for sigma in cfg["compare"]["sigma_n"]:
            tag = f"s{sigma:g}_R{r_omega:g}"
            model = _build_model(cfg, sigma_n=sigma, alpha=alpha, R_omega=r_omega)
            head = [sigma, r_omega, cfg["model"]["R_lambda"] or model.lambda_dist.target_accel,
                    alpha]
            grid.append((tag, model, ["noisy_subsampled", *head],
                         [(method, model, alpha, f"{method}_{tag}", [method, *head])
                          for method in cfg["compare"]["methods"]]))
    return _run_grid(cfg, out_dir / "results.csv", grid)


def run_alpha_sweep(cfg: dict, out_dir: Path) -> Path:
    """NMSE of the corrected methods across the further-noise ratio grid,
    after the fully supervised benchmark, all on one test set."""
    sigma = cfg["sweep"]["sigma_n"]
    r_omega = cfg["sweep"]["R_omega"]
    model = _build_model(cfg, sigma_n=sigma, R_omega=r_omega)  # at the benchmark's alpha
    head = [sigma, r_omega, cfg["model"]["R_lambda"] or model.lambda_dist.target_accel]
    cells = [(M.FULLY_SUPERVISED, model, cfg["model"]["alpha"], "sweep_benchmark",
              [M.FULLY_SUPERVISED, *head, ""])]
    for alpha in cfg["sweep"]["alphas"]:
        model_a = _build_model(cfg, sigma_n=sigma, alpha=alpha, R_omega=r_omega)
        cells += [(method, model_a, alpha, f"sweep_{method}_a{alpha:g}", [method, *head, alpha])
                  for method in M.CORRECTED_METHODS]
    return _run_grid(cfg, out_dir / "sweep.csv", [("sweep", model, None, cells)])


def run_verify(cfg: dict, out_dir: Path) -> bool:
    """Run the oracle suite; returns True when every proof-backed check passes."""
    model = _build_model(cfg)
    reports = run_oracle_suite(
        model, seed=cfg["seed"],
        gradient_samples=cfg["verify"]["gradient_samples"],
        slope_samples=cfg["verify"]["slope_samples"],
        mse_samples=cfg["verify"]["mse_samples"],
    )
    ok = all(r.passed for r in reports if r.passed is not None)
    payload = {
        "artifact_version": __version__,
        "config": cfg,
        "reports": [r.to_json() for r in reports],
        "all_proof_backed_passed": ok,
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    for r in reports:
        status = "PASS" if r.passed else ("FAIL" if r.passed is not None else "INFO")
        # a check without an estimate prints nan, as it always has on stdout
        estimate = float("nan") if r.estimate is None else r.estimate
        print(f"[{status}] {r.name}: estimate={estimate:.6g} "
              f"reference={r.reference:.6g} tolerance={r.tolerance:.6g}")
    return ok


def run_train(cfg: dict, out_dir: Path) -> Path:
    method = cfg["train"]["method"]
    alpha = cfg["train"]["alpha"]
    if alpha is None:
        alpha = ALPHA_DEFAULTS.get(method, cfg["model"]["alpha"])
    master = cfg["seed"]
    model = _build_model(cfg, alpha=alpha)
    seed = _subseed(master, "train")
    dataset = build_dataset(model, cfg["train"]["n_train"], seed, label="train")
    spec = _train_spec(cfg, method, alpha, seed)
    est = _build_estimator(cfg, model.q)
    _, history = train(spec, est, dataset, model, validate_every=1)
    rows = [[h["epoch"], h["train_loss"], h.get("val_nmse", "")] for h in history]
    _write_csv(out_dir / "history.csv", cfg, ["epoch", "loss", "val_nmse"], rows)
    out = out_dir / "checkpoint.json"
    _write_checkpoint(out, {"artifact_version": __version__, "config": cfg,
                           "method": method, "alpha": alpha}, est)
    return out


THETA_DTYPE = "<f8"
THETA_KEYS = ("dtype", "file", "count", "sha256")


def _write_checkpoint(path: Path, checkpoint: dict, est) -> None:
    """Write theta's little-endian float64 bytes to a sidecar file next to
    ``path``, then ``{**checkpoint, "estimator": ...}`` to ``path`` as
    ``json.dumps(..., sort_keys=True, allow_nan=False)`` and a newline.

    The estimator's ``theta`` is ``{dtype, file, count, sha256}`` of the
    sidecar, which is hashed and written from theta's own buffer. The JSON is
    dumped before either file is opened, so a NaN or an infinity writes nothing.
    """
    theta = np.ascontiguousarray(est.theta, dtype=THETA_DTYPE)
    sidecar = path.with_suffix(".theta.f64")
    ref = {"dtype": THETA_DTYPE, "file": sidecar.name, "count": theta.size,
           "sha256": hashlib.sha256(theta).hexdigest()}
    text = json.dumps({**checkpoint, "estimator": {**est.to_checkpoint(), "theta": ref}},
                      sort_keys=True, allow_nan=False)
    theta.tofile(sidecar)
    path.write_bytes(text.encode("ascii") + b"\n")  # dumps escapes every non-ASCII


def _read_theta(path: Path, ref) -> np.ndarray:
    """The parameter vector that the ``estimator.theta`` object of the
    checkpoint at ``path`` refers to, read once from its sidecar into a fresh
    writable array; ValidationError otherwise."""
    if isinstance(ref, list) or (isinstance(ref, dict) and "base64" in ref):
        form = "a list of numbers" if isinstance(ref, list) else "base64 text"
        raise ValidationError(f"checkpoint theta is {form}, an older checkpoint format; "
                              f"re-run `kslab train` to write a current checkpoint")
    if not isinstance(ref, dict) or any(key not in ref for key in THETA_KEYS):
        raise ValidationError(f"checkpoint theta must be an object {{{', '.join(THETA_KEYS)}}}")
    name, count = ref["file"], ref["count"]
    if ref["dtype"] != THETA_DTYPE:
        raise ValidationError(f"checkpoint theta dtype must be {THETA_DTYPE!r}, "
                              f"got {ref['dtype']!r}")
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ValidationError(f"checkpoint theta file must be a file name without a "
                              f"directory, got {name!r}")
    integer(0).check(count, "checkpoint theta count", ValidationError)
    sidecar = path.parent / name
    try:
        size = sidecar.stat().st_size
        if size != 8 * count:
            raise ValidationError(f"theta file {sidecar} holds {size} bytes, "
                                  f"not 8 * count = {8 * count}")
        theta = np.fromfile(sidecar, dtype=THETA_DTYPE, count=count)
    except OSError as exc:
        raise ValidationError(f"theta file {sidecar} cannot be read ({exc})") from None
    if hashlib.sha256(theta).hexdigest() != ref["sha256"]:
        raise ValidationError(f"theta file {sidecar} does not match the checkpoint's sha256")
    return theta


def _read_checkpoint(path: Path):
    """A checkpoint written by ``run_train`` and its estimator; ConfigError
    naming the file and the field otherwise, on which ``kslab reconstruct``
    exits 2: a file that is not JSON or lacks ``config``, ``method``,
    ``alpha`` or ``estimator``; no ``config.model`` object; an unknown
    method or family; an ``alpha`` or estimator field that fails its rule,
    or a missing field; an affine checkpoint that lists a pattern twice;
    and each theta ``_read_theta`` rejects: an older format (base64 text or
    a list of numbers), a ``dtype`` other than ``"<f8"``, a ``file`` with a
    directory part, a ``count`` that is not an integer >= 0 or not the
    family's parameter count, and a missing file or one of the wrong size
    or sha256. Then ``_check_trained_model`` rejects another model than the
    run's, and ``run_reconstruct`` another q."""
    try:
        with open(path) as fh:
            checkpoint = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: cannot be read as JSON ({exc})") from None
    missing = [key for key in ("config", "method", "alpha", "estimator")
               if not isinstance(checkpoint, dict) or key not in checkpoint]
    if missing:
        raise ConfigError(f"checkpoint {path}: missing {', '.join(missing)}; "
                          f"re-run `kslab train` to write a complete checkpoint")
    config = checkpoint["config"]
    if not isinstance(config, dict) or not isinstance(config.get("model"), dict):
        raise ConfigError(f"checkpoint {path}: config.model is missing or not an object")
    method = checkpoint["method"]
    if not isinstance(method, str) or method not in M.METHODS:
        raise ConfigError(f"checkpoint {path}: unknown method {method!r}")
    NOISE_RULES["alpha"].check(checkpoint["alpha"], f"checkpoint {path}: alpha")
    estimator = checkpoint["estimator"]
    try:
        if not isinstance(estimator, dict):
            raise ConfigError("estimator must be an object")
        return checkpoint, load_checkpoint(estimator, _read_theta(path, estimator.get("theta")))
    except (ConfigError, ValidationError) as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None


def _resolved(model: MeasurementModel) -> dict:
    """The values a preset fills in for the ``model`` fields it resolves."""
    return {"q": model.q, "R_omega": model.omega_dist.target_accel,
            "R_lambda": model.lambda_dist.target_accel}


def _check_trained_model(trained: dict, path: Path, model: MeasurementModel,
                         cfg: dict) -> None:
    """ConfigError naming the first ``model`` field in which this run, whose
    model is ``model``, differs from the checkpoint's training run.
    ``alpha`` is not compared: reconstruct takes the checkpoint's. A field
    that a preset resolves and that is null on one side only compares as
    resolved, so a preset's default and the same value written out are one
    model; only then is the trained model built. ``prior_file`` compares as
    a path."""
    run = {key: value for key, value in cfg["model"].items() if key != "alpha"}
    was = {key: RULES[f"model.{key}"].check(trained.get(key),
                                            f"checkpoint {path}: config.model.{key}")
           for key in run}
    resolved = None
    for key, value in run.items():
        a, b, note = was[key], value, ""
        if key == "prior_file" and None not in (a, b):
            a, b = Path(a), Path(b)
        elif key in ("q", "R_omega", "R_lambda") and (a is None) != (b is None):
            if resolved is None:  # the prior moves no resolved field
                resolved = _resolved(_build_model({"model": {**was, "prior_file": None}},
                                                  alpha=model.noise.alpha))
            a, b = resolved[key], _resolved(model)[key]
            note = f" ({a!r} and {b!r} resolved)"
        if a != b:
            raise ConfigError(f"model.{key}: the checkpoint was trained with {was[key]!r}, "
                              f"this run has {value!r}{note}")


def run_reconstruct(cfg: dict, checkpoint_path: Path, out_dir: Path) -> Path:
    checkpoint, est = _read_checkpoint(checkpoint_path)
    method = checkpoint["method"]
    master = cfg["seed"]
    model = _build_model(cfg, alpha=checkpoint["alpha"])
    _check_trained_model(checkpoint["config"]["model"], checkpoint_path, model, cfg)
    if model.q != est.q:
        raise ConfigError(f"checkpoint {checkpoint_path}: estimator dimension {est.q} "
                          f"does not match the model's q = {model.q}")
    test = _test_set(model, cfg, master, "reconstruct")
    rec, nmses, ssims = _score(method, est, test, model, cfg["mode"],
                               streams(master, "rec", count=len(test)))
    rows = [[i, *values] for i, values in enumerate(zip(nmses.tolist(), ssims.tolist()))]
    estimates = [{"estimate": kspace_to_json(rec[i]), "omega": test[i].omega.to_json()}
                 for i in range(len(test))]
    out = out_dir / "reconstructions.csv"
    _write_csv(out, cfg, ["item", "nmse", "ssim"], rows)
    with open(out_dir / "reconstructions.json", "w") as fh:
        # dumps without indent runs the C encoder; json.dump is pure Python
        fh.write(json.dumps({"artifact_version": __version__, "config": cfg,
                             "method": method, "items": estimates},
                            sort_keys=True, allow_nan=False))
        fh.write("\n")
    return out


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Self-supervised k-space reconstruction/denoising lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("compare", "train the method grid and write results.csv"),
        ("sweep-alpha", "sweep the further-noise ratio and write sweep.csv"),
        ("verify", "run the oracle suite and write report.json"),
        ("train", "train one method and write a checkpoint"),
        ("reconstruct", "apply a checkpoint to fresh test draws"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--mode", choices=["practical", "theory"], default=None,
                       help="inference mode override")
        if name == "reconstruct":
            p.add_argument("--checkpoint", type=str, required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:  # checked by the rule of the config's seed
            cfg = resolve_config({**cfg, "seed": args.seed})
        if args.mode is not None:
            cfg["mode"] = args.mode
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "compare":
            out = run_compare(cfg, out_dir)
            print(f"wrote {out}")
        elif args.command == "sweep-alpha":
            out = run_alpha_sweep(cfg, out_dir)
            print(f"wrote {out}")
        elif args.command == "verify":
            ok = run_verify(cfg, out_dir)
            print(f"wrote {out_dir / 'report.json'}")
            if not ok:
                return 3
        elif args.command == "train":
            out = run_train(cfg, out_dir)
            print(f"wrote {out}")
        elif args.command == "reconstruct":
            out = run_reconstruct(cfg, Path(args.checkpoint), out_dir)
            print(f"wrote {out}")
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
