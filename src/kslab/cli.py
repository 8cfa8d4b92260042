"""Command-line entry points for end-to-end experiments.

Subcommands: ``compare`` (method grid), ``sweep-alpha`` (further-noise ratio
sweep), ``verify`` (oracle suite), ``train`` (single method), and
``reconstruct`` (apply a checkpoint to fresh draws).

Every output file embeds the artifact version and the fully resolved
configuration. Result tables are byte-identical across repeated runs with
the same config and seed; wall-clock timings go to a separate file that is
excluded from that contract.

Exit codes: 0 success, 2 configuration error, 3 oracle failure.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import __version__
from . import methods as M
from .config import ALPHA_DEFAULTS, config_json, load_config
from .errors import ConfigError, ValidationError
from .estimators import AFFINE_PER_PATTERN, make_estimator, load_checkpoint
from .inference import reconstruct
from .kspace import kspace_to_json, magnitude_image
from .metrics import mean_and_se, nmse, ssim
from .oracles import run_oracle_suite
from .rng import stream
from .synthetic import MeasurementModel, load_prior_cov, model_preset
from .training import TrainSpec, build_dataset, make_train_item, train


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
    if m["prior_file"]:
        cov = load_prior_cov(m["prior_file"])
        if cov.shape[0] != model.q:
            raise ConfigError(
                f"model.prior_file: covariance is {cov.shape[0]}x{cov.shape[0]} "
                f"but the preset dimension is {model.q}")
        model = MeasurementModel(cov, model.noise, model.omega_dist,
                                 model.lambda_dist, shape=model.shape)
    return model


def _build_estimator(cfg: dict, q: int):
    e = cfg["estimator"]
    if e["family"] == AFFINE_PER_PATTERN:
        return make_estimator(e["family"], q)
    if e["family"] == "toy_cascade":
        return make_estimator(e["family"], q, cascades=e["cascades"], seed=e["init_seed"])
    return make_estimator(e["family"], q, hidden_layers=e["hidden_layers"],
                          width_factor=e["width_factor"], seed=e["init_seed"])


def _train_spec(cfg: dict, method: str, alpha: float, seed: int) -> TrainSpec:
    t = cfg["train"]
    return TrainSpec(
        method=method, epochs=t["epochs"], lr=t["lr"], beta1=t["beta1"],
        beta2=t["beta2"], eps=t["eps"], batch_size=t["batch_size"], seed=seed,
        lambda_n2r=t["lambda_n2r"], alpha=alpha,
    )


def _test_items(model, cfg, master: int, tag: str):
    return [make_train_item(model, stream(master, "test", tag, i))
            for i in range(cfg["eval"]["n_test"])]


def _evaluate(method, est, items, model, cfg, master, tag):
    nmses, ssims = [], []
    for i, item in enumerate(items):
        rec = reconstruct(method, est, item.y, item.omega, model.noise,
                          model.lambda_dist, cfg["mode"],
                          stream(master, "recon", tag, i))
        nmses.append(nmse(rec, item.y0))
        ssims.append(ssim(magnitude_image(rec, model.shape),
                          magnitude_image(item.y0, model.shape)))
    n_mean, n_se = mean_and_se(nmses)
    s_mean, s_se = mean_and_se(ssims)
    return n_mean, n_se, s_mean, s_se


def _train_cell(cfg, method, sigma, alpha, R_omega, master, tag):
    model = _build_model(cfg, sigma_n=sigma, alpha=alpha, R_omega=R_omega)
    seed = _subseed(master, "cell", tag)
    dataset = build_dataset(model, cfg["train"]["n_train"], seed, label="train")
    spec = _train_spec(cfg, method, alpha, seed)
    est = _build_estimator(cfg, model.q)
    train(spec, est, dataset, model, validate_every=0)
    return model, est


COMPARE_COLUMNS = ["method", "sigma_n", "R_omega", "R_lambda", "alpha",
                   "nmse_mean", "nmse_se", "ssim_mean", "ssim_se"]


def run_compare(cfg: dict, out_dir: Path) -> Path:
    """Train every (method, sigma_n, R_omega) cell and score a shared test set."""
    master = cfg["seed"]
    alpha = cfg["model"]["alpha"]
    rows, timing_rows = [], []
    for r_omega in cfg["compare"]["R_omega"]:
        for sigma in cfg["compare"]["sigma_n"]:
            grid_tag = f"s{sigma:g}_R{r_omega:g}"
            model = _build_model(cfg, sigma_n=sigma, alpha=alpha, R_omega=r_omega)
            r_lambda = cfg["model"]["R_lambda"] or model.lambda_dist.target_accel
            items = _test_items(model, cfg, master, grid_tag)
            base_nmse = [nmse(item.y, item.y0) for item in items]
            base_ssim = [ssim(magnitude_image(item.y, model.shape),
                              magnitude_image(item.y0, model.shape)) for item in items]
            n_mean, n_se = mean_and_se(base_nmse)
            s_mean, s_se = mean_and_se(base_ssim)
            rows.append(["noisy_subsampled", sigma, r_omega, r_lambda, alpha,
                         n_mean, n_se, s_mean, s_se])
            for method in cfg["compare"]["methods"]:
                tag = f"{method}_{grid_tag}"
                t0 = time.perf_counter()
                model, est = _train_cell(cfg, method, sigma, alpha, r_omega, master, tag)
                scores = _evaluate(method, est, items, model, cfg, master, tag)
                timing_rows.append([method, sigma, r_omega,
                                    time.perf_counter() - t0])
                rows.append([method, sigma, r_omega, r_lambda, alpha, *scores])
    out = out_dir / "results.csv"
    _write_csv(out, cfg, COMPARE_COLUMNS, rows)
    _write_csv(out_dir / "timings.csv", cfg,
               ["method", "sigma_n", "R_omega", "seconds"], timing_rows)
    return out


SWEEP_METHODS = (M.NOISIER2FULL, M.NOISIER2FULL_UNWEIGHTED,
                 M.ROBUST_SSDU, M.ROBUST_SSDU_UNWEIGHTED)


def run_alpha_sweep(cfg: dict, out_dir: Path) -> Path:
    """NMSE of the corrected methods across the further-noise ratio grid."""
    master = cfg["seed"]
    sigma = cfg["sweep"]["sigma_n"]
    r_omega = cfg["sweep"]["R_omega"]
    rows, timing_rows = [], []
    model = _build_model(cfg, sigma_n=sigma, R_omega=r_omega)
    r_lambda = cfg["model"]["R_lambda"] or model.lambda_dist.target_accel
    items = _test_items(model, cfg, master, "sweep")

    t0 = time.perf_counter()
    bench_alpha = cfg["model"]["alpha"]
    model_b, est_b = _train_cell(cfg, M.FULLY_SUPERVISED, sigma, bench_alpha,
                                 r_omega, master, "sweep_benchmark")
    scores = _evaluate(M.FULLY_SUPERVISED, est_b, items, model_b, cfg, master,
                       "sweep_benchmark")
    timing_rows.append([M.FULLY_SUPERVISED, "", time.perf_counter() - t0])
    rows.append([M.FULLY_SUPERVISED, sigma, r_omega, r_lambda, "", *scores])

    for alpha in cfg["sweep"]["alphas"]:
        for method in SWEEP_METHODS:
            tag = f"sweep_{method}_a{alpha:g}"
            t0 = time.perf_counter()
            model_c, est_c = _train_cell(cfg, method, sigma, alpha, r_omega, master, tag)
            scores = _evaluate(method, est_c, items, model_c, cfg, master, tag)
            timing_rows.append([method, alpha, time.perf_counter() - t0])
            rows.append([method, sigma, r_omega, r_lambda, alpha, *scores])
    out = out_dir / "sweep.csv"
    _write_csv(out, cfg, COMPARE_COLUMNS, rows)
    _write_csv(out_dir / "timings.csv", cfg, ["method", "alpha", "seconds"], timing_rows)
    return out


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
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in reports:
        status = "PASS" if r.passed else ("FAIL" if r.passed is not None else "INFO")
        print(f"[{status}] {r.name}: estimate={r.estimate:.6g} "
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
    checkpoint = {
        "artifact_version": __version__,
        "config": cfg,
        "method": method,
        "alpha": alpha,
        "estimator": est.to_checkpoint(),
    }
    out = out_dir / "checkpoint.json"
    with open(out, "w") as fh:
        json.dump(checkpoint, fh, sort_keys=True)
        fh.write("\n")
    return out


def _read_checkpoint(path: Path) -> dict:
    """A checkpoint written by ``run_train``; ConfigError naming the file otherwise."""
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
    return checkpoint


def run_reconstruct(cfg: dict, checkpoint_path: Path, out_dir: Path) -> Path:
    checkpoint = _read_checkpoint(checkpoint_path)
    trained = checkpoint["config"]["model"]
    for key in ("preset", "q", "sigma_n"):
        if trained[key] != cfg["model"][key]:
            raise ConfigError(f"model.{key}: the checkpoint was trained with "
                              f"{trained[key]!r}, this run has {cfg['model'][key]!r}")
    method = checkpoint["method"]
    est = load_checkpoint(checkpoint["estimator"])
    master = cfg["seed"]
    model = _build_model(cfg, alpha=checkpoint["alpha"])
    if model.q != est.q:
        raise ConfigError("checkpoint estimator dimension does not match the model")
    items = _test_items(model, cfg, master, "reconstruct")
    rows = []
    estimates = []
    for i, item in enumerate(items):
        rec = reconstruct(method, est, item.y, item.omega, model.noise,
                          model.lambda_dist, cfg["mode"], stream(master, "rec", i))
        rows.append([i, nmse(rec, item.y0),
                     ssim(magnitude_image(rec, model.shape),
                          magnitude_image(item.y0, model.shape))])
        estimates.append({
            "estimate": kspace_to_json(rec),
            "omega": item.omega.to_json(),
        })
    out = out_dir / "reconstructions.csv"
    _write_csv(out, cfg, ["item", "nmse", "ssim"], rows)
    with open(out_dir / "reconstructions.json", "w") as fh:
        json.dump({"artifact_version": __version__, "config": cfg,
                   "method": method, "items": estimates}, fh, sort_keys=True)
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
        if args.seed is not None:
            cfg["seed"] = args.seed
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
