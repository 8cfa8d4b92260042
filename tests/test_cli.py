"""Configuration validation and the command-line pipelines."""

import base64
import json

import numpy as np
import pytest

from kslab import methods as M
from kslab.cli import main, run_compare, run_train, run_reconstruct
from kslab.config import DEFAULT_CONFIG, resolve_config
from kslab.errors import ConfigError


FAST_CFG = {
    "model": {"preset": "banded", "sigma_n": 0.3, "alpha": 1.0},
    "estimator": {"family": "tiny_net", "width_factor": 1},
    "train": {"epochs": 3, "n_train": 6},
    "eval": {"n_test": 5},
    "compare": {"methods": [M.FULLY_SUPERVISED, M.ROBUST_SSDU],
                "sigma_n": [0.3], "R_omega": [2.0]},
    "seed": 4,
}


def write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_resolve_defaults():
    cfg = resolve_config(None)
    assert cfg == DEFAULT_CONFIG


def test_reported_alpha_defaults():
    from kslab.config import ALPHA_DEFAULTS, SWEEP_ALPHAS

    assert ALPHA_DEFAULTS[M.NOISIER2FULL] == 1.0
    assert ALPHA_DEFAULTS[M.NOISIER2FULL_UNWEIGHTED] == 1.25
    assert ALPHA_DEFAULTS[M.ROBUST_SSDU] == 0.75
    assert ALPHA_DEFAULTS[M.ROBUST_SSDU_UNWEIGHTED] == 0.5
    assert SWEEP_ALPHAS == [0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]


def test_config_unknown_field_path():
    with pytest.raises(ConfigError, match="train.learning_rate"):
        resolve_config({"train": {"learning_rate": 0.1}})


def test_config_bad_value_has_path():
    with pytest.raises(ConfigError, match="train.lr"):
        resolve_config({"train": {"lr": -1.0}})
    with pytest.raises(ConfigError, match=r"compare.sigma_n\[0\]"):
        resolve_config({"compare": {"sigma_n": ["high"]}})
    with pytest.raises(ConfigError, match="model.preset"):
        resolve_config({"model": {"preset": "fastmri"}})


def test_config_compare_acceleration_below_one_names_key():
    # Accelerations in [0, 1) would otherwise fail later inside the mask law
    # with a message that does not name the config key.
    with pytest.raises(ConfigError, match=r"compare.R_omega\[1\].*>= 1"):
        resolve_config({"compare": {"R_omega": [2.0, 0.5]}})
    assert resolve_config({"compare": {"R_omega": [1.0]}})["compare"]["R_omega"] == [1.0]


def test_cli_exit_code_on_bad_config(tmp_path):
    path = write_cfg(tmp_path, {"train": {"epochs": 0}})
    assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 2


def test_cli_exit_code_on_oracle_failure(tmp_path, monkeypatch):
    import kslab.cli as cli_mod
    from kslab.oracles import OracleReport

    def fake_suite(model, **_):
        return [OracleReport(name="forced", estimate=1.0, reference=0.0,
                             tolerance=0.1).finalize()]

    monkeypatch.setattr(cli_mod, "run_oracle_suite", fake_suite)
    assert main(["verify", "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_proof_backed_passed"] is False


def test_compare_outputs_and_determinism(tmp_path):
    cfg = resolve_config(FAST_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    run_compare(cfg, out_a)
    run_compare(cfg, out_b)
    bytes_a = (out_a / "results.csv").read_bytes()
    assert bytes_a == (out_b / "results.csv").read_bytes()
    text = bytes_a.decode()
    assert text.startswith("# artifact_version:")
    assert "# config:" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    # header + baseline row + one row per method
    assert len(lines) == 1 + 1 + 2
    assert lines[1].startswith("noisy_subsampled")
    for line in lines[1:]:
        fields = line.split(",")
        assert all(np.isfinite(float(x)) for x in fields[1:])


def test_verify_cli_report_schema(tmp_path):
    cfg_path = write_cfg(tmp_path, {
        "model": {"preset": "banded", "sigma_n": 0.3, "alpha": 0.75},
        "verify": {"gradient_samples": 2000, "slope_samples": 20000,
                   "mse_samples": 2000},
        "seed": 1,
    })
    code = main(["verify", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["artifact_version"]
    assert report["all_proof_backed_passed"] is True
    required = {"name", "estimate", "reference", "tolerance", "standard_error",
                "passed", "notes"}
    for entry in report["reports"]:
        assert required <= set(entry)
    names = {entry["name"] for entry in report["reports"]}
    assert f"population_minimizer[{M.ROBUST_SSDU}]" in names
    assert f"gradient_equivalence[{M.NOISIER2FULL}]" in names


def test_train_then_reconstruct_roundtrip(tmp_path):
    cfg = resolve_config({
        "model": {"preset": "banded", "sigma_n": 0.2, "alpha": 1.0},
        "estimator": {"family": "tiny_net", "width_factor": 1},
        "train": {"method": M.ROBUST_SSDU, "epochs": 2, "n_train": 4, "alpha": 1.0},
        "eval": {"n_test": 3},
        "seed": 5,
    })
    ckpt = run_train(cfg, tmp_path)
    assert ckpt.exists()
    history = (tmp_path / "history.csv").read_text()
    assert "epoch,loss,val_nmse" in history
    out = run_reconstruct(cfg, ckpt, tmp_path)
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 3
    recon = json.loads((tmp_path / "reconstructions.json").read_text())
    assert len(recon["items"]) == 3
    first = recon["items"][0]["estimate"]
    assert len(first) == 8 and len(first[0]) == 2


CKPT_CFG = {
    "model": {"preset": "banded", "sigma_n": 0.2, "alpha": 1.0},
    "estimator": {"family": "tiny_net", "width_factor": 1},
    "train": {"method": M.ROBUST_SSDU, "epochs": 1, "n_train": 2},
    "eval": {"n_test": 2},
    "seed": 6,
}


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    assert main(["train", "--config", write_cfg(out, CKPT_CFG), "--out", str(out)]) == 0
    return json.loads((out / "checkpoint.json").read_text())


def _theta_b64(n_bytes):
    return base64.b64encode(bytes(n_bytes)).decode("ascii")


@pytest.mark.parametrize("theta,message", [
    ({"dtype": ">f8", "base64": _theta_b64(16)}, "dtype"),
    ({"dtype": "<f8", "base64": _theta_b64(16)[:4] + "\n" + _theta_b64(16)[4:]},
     "base64"),
    ({"dtype": "<f8", "base64": _theta_b64(12)}, "multiple of 8"),
    ([0.0, 1.0], "re-run `kslab train`"),
])
def test_reconstruct_rejects_malformed_theta(tmp_path, capsys, trained_checkpoint,
                                             theta, message):
    checkpoint = json.loads(json.dumps(trained_checkpoint))
    checkpoint["estimator"]["theta"] = theta
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(checkpoint))
    code = main(["reconstruct", "--config", write_cfg(tmp_path, CKPT_CFG),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("damage,message", [
    ("truncated", "cannot be read as JSON"),
    ("no_config", "missing config"),
])
def test_reconstruct_rejects_damaged_checkpoint(tmp_path, capsys, trained_checkpoint,
                                                damage, message):
    checkpoint = json.loads(json.dumps(trained_checkpoint))
    if damage == "no_config":
        del checkpoint["config"]
    text = json.dumps(checkpoint)
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(text[:1000] if damage == "truncated" else text)
    code = main(["reconstruct", "--config", write_cfg(tmp_path, CKPT_CFG),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and str(ckpt) in err


def test_reconstruct_rejects_checkpoint_from_another_model(tmp_path, capsys,
                                                           trained_checkpoint):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(trained_checkpoint))
    cfg = json.loads(json.dumps(CKPT_CFG))
    cfg["model"]["sigma_n"] = 0.3
    code = main(["reconstruct", "--config", write_cfg(tmp_path, cfg),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert code == 2
    assert "model.sigma_n" in capsys.readouterr().err
    assert not (tmp_path / "reconstructions.csv").exists()


def test_cli_seed_and_mode_overrides(tmp_path):
    cfg_path = write_cfg(tmp_path, FAST_CFG)
    code = main(["compare", "--config", cfg_path, "--out", str(tmp_path / "x"),
                 "--seed", "9", "--mode", "theory"])
    assert code == 0
    text = (tmp_path / "x" / "results.csv").read_text()
    assert '"mode":"theory"' in text or '"mode": "theory"' in text
    assert '"seed":9' in text


def test_verify_scalar_preset_passes(tmp_path):
    cfg_path = write_cfg(tmp_path, {
        "model": {"preset": "scalar", "sigma_n": 1.0, "alpha": 1.0},
        "verify": {"gradient_samples": 2000, "slope_samples": 20000,
                   "mse_samples": 2000},
        "seed": 3,
    })
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 0


def test_preset_violating_mask_conditions_is_config_error(tmp_path):
    # a second level with no acceleration saturates to certainty at
    # undersampled indices, which the mask requirements forbid
    cfg_path = write_cfg(tmp_path, {
        "model": {"preset": "banded", "sigma_n": 0.1, "alpha": 1.0,
                  "R_omega": 2.0, "R_lambda": 1.0},
    })
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 2


def test_noiseless_fully_sampled_benchmark_near_zero_nmse(tmp_path):
    cfg = resolve_config({
        "model": {"preset": "banded", "q": 4, "sigma_n": 0.0, "alpha": 1.0},
        "estimator": {"family": "affine_per_pattern"},
        "train": {"epochs": 400, "lr": 1e-2, "n_train": 16},
        "eval": {"n_test": 6},
        "compare": {"methods": [M.FULLY_SUPERVISED], "sigma_n": [0.0],
                    "R_omega": [1.0]},
        "seed": 7,
    })
    out = run_compare(cfg, tmp_path)
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not (l.startswith("#") or l.startswith("method"))]
    nmse_mean = float([r for r in rows if r[0] == M.FULLY_SUPERVISED][0][5])
    assert nmse_mean < 1e-4


def test_bernoulli2d_pipeline_smoke(tmp_path):
    """The flattened 2-D mode runs through the full compare pipeline,
    including 2-D magnitude images for the SSIM column."""
    cfg = resolve_config({
        "model": {"preset": "bernoulli2d", "sigma_n": 0.05, "alpha": 0.5},
        "estimator": {"family": "tiny_net", "width_factor": 1},
        "train": {"epochs": 2, "n_train": 3},
        "eval": {"n_test": 2},
        "compare": {"methods": [M.ROBUST_SSDU], "sigma_n": [0.05], "R_omega": [4.0]},
        "seed": 8,
    })
    out = run_compare(cfg, tmp_path)
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not (l.startswith("#") or l.startswith("method"))]
    assert len(rows) == 2  # baseline + method
    for row in rows:
        assert np.isfinite(float(row[5])) and np.isfinite(float(row[7]))


def test_toy_cascade_family_through_cli(tmp_path):
    cfg = resolve_config({
        "model": {"preset": "banded", "sigma_n": 0.2, "alpha": 1.0},
        "estimator": {"family": "toy_cascade", "cascades": 2},
        "train": {"method": M.NOISIER2FULL, "epochs": 2, "n_train": 3, "alpha": 1.0},
        "eval": {"n_test": 2},
        "seed": 9,
    })
    ckpt = run_train(cfg, tmp_path)
    out = run_reconstruct(cfg, ckpt, tmp_path)
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 2


def test_weighted_variants_more_robust_to_alpha():
    """Directional sweep property: across a small/large further-noise ratio,
    the weighted variants' NMSE varies less than the unweighted variants'."""
    from kslab.estimators import TinyNet
    from kslab.inference import MODE_PRACTICAL, reconstruct
    from kslab.metrics import nmse
    from kslab.rng import stream
    from kslab.synthetic import model_preset
    from kslab.training import TrainSpec, build_dataset, make_train_item, train

    def cell(method, alpha, seed=19):
        model = model_preset("banded", sigma_n=0.3, alpha=alpha)
        ds = build_dataset(model, 96, seed=seed)
        spec = TrainSpec(method=method, epochs=60, lr=5e-3, seed=seed, alpha=alpha)
        est = TinyNet(model.q, width_factor=2, seed=seed)
        train(spec, est, ds, model, validate_every=10 ** 9)
        scores = []
        for i in range(96):
            item = make_train_item(model, stream(seed, "test", i))
            rec = reconstruct(method, est, item.y, item.omega, model.noise,
                              model.lambda_dist, MODE_PRACTICAL, stream(seed, "r", i))
            scores.append(nmse(rec, item.y0))
        return float(np.mean(scores))

    alphas = (0.25, 1.0)
    for weighted, unweighted in ((M.NOISIER2FULL, M.NOISIER2FULL_UNWEIGHTED),
                                 (M.ROBUST_SSDU, M.ROBUST_SSDU_UNWEIGHTED)):
        ranges = {}
        for method in (weighted, unweighted):
            vals = [cell(method, a) for a in alphas]
            ranges[method] = max(vals) - min(vals)
        assert ranges[weighted] < ranges[unweighted]


def test_custom_prior_file(tmp_path):
    from kslab.cli import _build_model
    from kslab.synthetic import banded_prior_cov

    cov = 0.5 * banded_prior_cov(8)
    payload = [[[float(z.real), float(z.imag)] for z in row] for row in cov]
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(payload))
    cfg = resolve_config({"model": {"preset": "banded", "prior_file": str(path)}})
    model = _build_model(cfg)
    assert np.allclose(model.prior_cov, cov)
    bad = resolve_config({"model": {"preset": "scalar", "prior_file": str(path)}})
    with pytest.raises(ConfigError, match="prior_file"):
        _build_model(bad)


def test_sweep_alpha_single_value(tmp_path):
    cfg = resolve_config({
        "model": {"preset": "banded", "sigma_n": 0.3, "alpha": 1.0},
        "estimator": {"family": "tiny_net", "width_factor": 1},
        "train": {"epochs": 2, "n_train": 4},
        "eval": {"n_test": 3},
        "sweep": {"alphas": [1.0], "sigma_n": 0.3, "R_omega": 2.0},
        "seed": 2,
    })
    from kslab.cli import run_alpha_sweep

    out = run_alpha_sweep(cfg, tmp_path)
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    # header + benchmark + 4 corrected-method rows at the single alpha
    assert len(lines) == 1 + 1 + 4
    assert lines[1].split(",")[0] == M.FULLY_SUPERVISED
