"""Configuration validation and the command-line pipelines."""

import base64
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kslab import methods as M
from kslab.cli import (
    _build_estimator,
    _read_checkpoint,
    _read_theta,
    _write_checkpoint,
    main,
    run_alpha_sweep,
    run_compare,
    run_reconstruct,
    run_train,
)
from kslab.config import DEFAULT_CONFIG, config_json, load_config, resolve_config
from kslab.errors import ConfigError
from kslab.estimators import AffinePerPattern, make_estimator
from kslab.rng import stream


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


@pytest.mark.parametrize("text, message", [("{\"seed\": ", "invalid JSON"),
                                           ("[1, 2]", "top-level config must be an object")])
def test_load_config_rejects_a_file_that_is_not_a_json_object(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"config.json: {message}"):
        load_config(str(path))


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


def test_config_bernoulli2d_q_must_be_square(tmp_path, capsys):
    # q = 200 used to build a 14 x 14 (q = 196) model while the outputs
    # recorded 200.
    with pytest.raises(ConfigError, match="model.q"):
        resolve_config({"model": {"preset": "bernoulli2d", "q": 200}})
    assert resolve_config({"model": {"preset": "bernoulli2d", "q": 64}})["model"]["q"] == 64
    assert resolve_config({"model": {"preset": "banded", "q": 200}})["model"]["q"] == 200
    code = main(["compare", "--config",
                 write_cfg(tmp_path, {"model": {"preset": "bernoulli2d", "q": 200}}),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "model.q" in capsys.readouterr().err


@pytest.mark.parametrize("family,opts", [
    ("affine_per_pattern", {}),
    ("tiny_net", {"hidden_layers": 1, "width_factor": 3, "seed": 7}),
    ("toy_cascade", {"cascades": 1, "seed": 7}),
])
def test_build_estimator_maps_config_fields(family, opts):
    # non-default values throughout, so a dropped mapping changes the estimator
    cfg = resolve_config({"estimator": {"family": family, "init_seed": 7, "hidden_layers": 1,
                                        "width_factor": 3, "cascades": 1}})
    built, expected = _build_estimator(cfg, 8), make_estimator(family, 8, **opts)
    assert built.theta.tobytes() == expected.theta.tobytes()
    data = built.to_checkpoint()
    assert data == expected.to_checkpoint()
    assert {name: data[name] for name, _ in built.fields} == opts


def test_cli_exit_code_on_bad_config(tmp_path):
    path = write_cfg(tmp_path, {"train": {"epochs": 0}})
    assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args, message", [
    (["--config", "missing.json"], "missing.json: cannot be read"),
    (["--config", "binary.json"], "binary.json: invalid JSON"),
    (["--seed", "-1"], "seed: must be an integer >= 0"),
    (["--seed", str(2 ** 64)], "seed: must be an integer >= 0 and < 18446744073709551616"),
], ids=["missing_config", "binary_config", "negative_seed", "seed_past_64_bits"])
def test_cli_exits_2_on_an_unreadable_config_or_a_negative_seed(tmp_path, capsys, args,
                                                                 message):
    """A config file that is missing or not text, and a --seed that the
    config's seed rule rejects, are configuration errors, not a traceback or
    a run under an invalid seed."""
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert main(["verify", *args, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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


@pytest.mark.parametrize("command", ["compare", "train"])
def test_divergence_exits_4_and_writes_no_results(tmp_path, capsys, command):
    """A non-finite training loss is a divergence, not a configuration error."""
    path = write_cfg(tmp_path, {**FAST_CFG, "train": {"epochs": 2, "n_train": 6,
                                                      "lr": 1e300}})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("training diverged: method ")
    assert "sigma_n 0.3, epoch 0, step " in err
    assert not (tmp_path / "results.csv").exists()
    assert not (tmp_path / "history.csv").exists()


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
    # timings by stage: data per cell, train per stack (both tiny_net cells
    # step as one), eval for the baseline and per cell
    timings = [l.split(",") for l in (out_a / "timings.csv").read_text().splitlines()
               if not l.startswith("#")]
    assert timings[0] == ["stage", "cells", "seconds"]
    cells = ["fully_supervised_s0.3_R2", "robust_ssdu_s0.3_R2"]
    assert [row[:2] for row in timings[1:]] == (
        [["data", c] for c in cells] + [["train", " ".join(cells)]]
        + [["eval", "noisy_subsampled_s0.3_R2"]] + [["eval", c] for c in cells])
    assert all(float(row[2]) >= 0.0 for row in timings[1:])


GRID_CFG = {
    "model": {"preset": "banded", "sigma_n": 0.3, "alpha": 1.0},
    "estimator": {"family": "tiny_net", "width_factor": 1},
    "train": {"epochs": 1, "n_train": 8},
    "eval": {"n_test": 8},
    "seed": 5,
}


def _grid_rows(tmp_path, run, name, section):
    """The data rows (header and comments dropped) of ``run`` on GRID_CFG
    with ``section`` merged in."""
    out = tmp_path / name
    out.mkdir()
    text = run(resolve_config({**GRID_CFG, **section}), out).read_text()
    return [l for l in text.splitlines() if not l.startswith("#")][1:]


def test_grid_point_rows_do_not_depend_on_the_rest_of_the_grid(tmp_path):
    """Cells and test sets are keyed by their tags: a grid gives the rows of
    its points run one at a time, in grid order (R_omega outer, sigma_n
    inner), and a sweep gives the rows of its alphas run one at a time."""
    methods = [M.FULLY_SUPERVISED, M.ROBUST_SSDU]
    grid = _grid_rows(tmp_path, run_compare, "grid", {"compare": {
        "methods": methods, "sigma_n": [0.1, 0.3], "R_omega": [2.0, 3.0]}})
    points = []
    for r_omega in (2.0, 3.0):
        for sigma in (0.1, 0.3):
            points += _grid_rows(tmp_path, run_compare, f"s{sigma}_R{r_omega}", {"compare": {
                "methods": methods, "sigma_n": [sigma], "R_omega": [r_omega]}})
    assert len(grid) == 4 * (1 + len(methods))
    assert grid == points

    sweep = {"sigma_n": 0.3, "R_omega": 2.0}
    both = _grid_rows(tmp_path, run_alpha_sweep, "both",
                      {"sweep": {**sweep, "alphas": [0.5, 1.0]}})
    low = _grid_rows(tmp_path, run_alpha_sweep, "low", {"sweep": {**sweep, "alphas": [0.5]}})
    high = _grid_rows(tmp_path, run_alpha_sweep, "high", {"sweep": {**sweep, "alphas": [1.0]}})
    assert len(both) == 1 + 2 * len(M.CORRECTED_METHODS)
    assert both[0] == low[0] == high[0]
    assert both[0].startswith(f"{M.FULLY_SUPERVISED},")
    assert both == low + high[1:]


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


def test_verify_report_does_not_depend_on_blas_threads(tmp_path):
    """`kslab verify --seed 1` writes the same report.json bytes, and a small
    theory-mode `compare` of all 8 methods the same results.csv bytes, under
    one and two OpenBLAS threads. Each run is a subprocess, one at a time,
    since OpenBLAS reads its thread count when it loads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cfg_path = write_cfg(tmp_path, {
        "model": {"preset": "banded", "sigma_n": 0.3},
        "train": {"epochs": 2, "n_train": 16},
        "eval": {"n_test": 16},
        "compare": {"methods": list(M.ALL_METHODS), "sigma_n": [0.3]},
        "mode": "theory",
        "seed": 3,
    })
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "kslab.cli", "verify", "--seed", "1",
                        "--out", str(out / "verify")], check=True, capture_output=True, env=env)
        subprocess.run([sys.executable, "-m", "kslab.cli", "compare", "--config", cfg_path,
                        "--out", str(out / "compare")], check=True, capture_output=True, env=env)
        outputs.append([(out / "verify" / "report.json").read_bytes(),
                        (out / "compare" / "results.csv").read_bytes()])
    assert outputs[0] == outputs[1]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_verify_report_is_strict_json(tmp_path, capsys):
    """A descriptive check without an estimate writes null, and stdout still
    prints it as nan."""
    cfg_path = write_cfg(tmp_path, {
        "verify": {"gradient_samples": 2000, "slope_samples": 20000, "mse_samples": 2000},
        "seed": 1,
    })
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    [entry] = [r for r in report["reports"]
               if r["name"] == f"population_minimizer[{M.NOISE2RECON_SS}]"]
    assert entry["estimate"] is None and entry["passed"] is None
    assert f"[INFO] population_minimizer[{M.NOISE2RECON_SS}]: estimate=nan " in (
        capsys.readouterr().out)


def test_config_json_rejects_nan():
    with pytest.raises(ValueError):
        config_json({"model": {"sigma_n": float("nan")}})


@pytest.mark.parametrize("key", ["hidden_layers", "width_factor", "cascades"])
@pytest.mark.parametrize("value", [0, -1, 1.5, "2", True])
def test_config_estimator_fields_must_be_positive_integers(key, value):
    with pytest.raises(ConfigError, match=rf"^estimator\.{key}: must be a positive integer$"):
        resolve_config({"estimator": {key: value}})


def _raw(path: str, value) -> dict:
    """The config that sets the field ``path`` ("section.key" or "key") to ``value``."""
    section, _, key = path.rpartition(".")
    return {section: {key: value}} if section else {key: value}


@pytest.mark.parametrize("path, value", [("seed", 2 ** 64), ("estimator.init_seed", -1),
                                         ("estimator.init_seed", 2 ** 64)])
def test_config_seeds_are_one_64_bit_word(path, value):
    """``rng.stream`` keys on a seed's low 64 bits, so a seed outside
    [0, 2^64) would run as another seed while the outputs name this one."""
    with pytest.raises(ConfigError, match=rf"^{path}: must be an integer >= 0 and < {2 ** 64}$"):
        resolve_config(_raw(path, value))


@pytest.mark.parametrize("path", ["model.q", "estimator.init_seed", "train.epochs",
                                  "train.batch_size", "train.n_train", "eval.n_test", "seed"])
def test_config_integer_fields_reject_booleans(path):
    """JSON true and false are not integers, though Python's bool is an int."""
    for value in (True, False):
        with pytest.raises(ConfigError, match=rf"^{path}: must be "):
            resolve_config(_raw(path, value))


def _leaves(tree: dict, path: str = ""):
    for key, value in tree.items():
        here = f"{path}.{key}" if path else key
        yield from _leaves(value, here) if isinstance(value, dict) else [(here, value)]


def test_every_config_field_rejects_the_json_values_it_cannot_take():
    """Each leaf of the defaults, and the first entry of each list leaf, set
    to true, [], {} or (but for the one free-text field) "x" fails with a
    ConfigError whose message starts with its path: a field that arrives
    without a rule fails here."""
    missed = []
    for path, default in _leaves(DEFAULT_CONFIG):
        bad = [True, [], {}] + ([] if path == "model.prior_file" else ["x"])
        cases = [(path, value, value) for value in bad]
        if isinstance(default, list):
            cases += [(f"{path}[0]", [value], value) for value in bad]
        for name, value, shown in cases:
            try:
                resolve_config(_raw(path, value))
                missed.append(f"{name} = {shown!r}: accepted")
            except ConfigError as exc:
                if not str(exc).startswith(f"{name}: "):
                    missed.append(f"{name} = {shown!r}: {exc}")
    assert missed == []


@pytest.mark.parametrize("value", [0, 1, True, "", [], "missing.json", "malformed.json",
                                   "flat.json"],
                         ids=["0", "1", "true", "empty_string", "empty_list", "missing_file",
                              "malformed_file", "not_q_by_q_by_2"])
def test_compare_exits_2_on_a_bad_prior_file(tmp_path, capsys, value):
    """A prior file that is not a path, or names a file that is missing, is
    not JSON or is not a q x q matrix of [re, im] pairs, is a configuration
    error that names the field (and the file), not a traceback or a silently
    ignored value."""
    (tmp_path / "malformed.json").write_text("[[1.0, 0.0]")
    (tmp_path / "flat.json").write_text("[1.0, 0.0]")
    if isinstance(value, str) and value:
        value = str(tmp_path / value)
    cfg = {**FAST_CFG, "model": {**FAST_CFG["model"], "prior_file": value}}
    code = main(["compare", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "model.prior_file" in err
    if isinstance(value, str) and value:
        assert value in err
    assert not (tmp_path / "results.csv").exists()


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


THETA_FILE = "checkpoint.theta.f64"


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A ``kslab train`` checkpoint's JSON and the bytes of its theta file."""
    out = tmp_path_factory.mktemp("ckpt")
    assert main(["train", "--config", write_cfg(out, CKPT_CFG), "--out", str(out)]) == 0
    return json.loads((out / "checkpoint.json").read_text()), (out / THETA_FILE).read_bytes()


def _theta_ref(raw: bytes) -> dict:
    """The checkpoint's ``estimator.theta`` object for a theta file of ``raw``."""
    return {"dtype": "<f8", "file": THETA_FILE, "count": len(raw) // 8,
            "sha256": hashlib.sha256(raw).hexdigest()}


def _reconstruct_from(tmp_path, capsys, text: str, raw: bytes | None, cfg=CKPT_CFG):
    """Run ``kslab reconstruct`` under ``cfg`` on the checkpoint ``text`` with
    ``raw`` as its theta file (none if None); the checkpoint path, exit code
    and stderr."""
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(text)
    if raw is not None:
        (tmp_path / THETA_FILE).write_bytes(raw)
    code = main(["reconstruct", "--config", write_cfg(tmp_path, cfg),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    return ckpt, code, capsys.readouterr().err


def _theta_b64(n_bytes):
    return base64.b64encode(bytes(n_bytes)).decode("ascii")


PLACEHOLDER = {"dtype": "<f8", "file": THETA_FILE, "count": 352, "sha256": "0" * 64}


@pytest.mark.parametrize("theta,message", [
    ({**PLACEHOLDER, "dtype": ">f8"}, "dtype"),
    ({"dtype": "<f8", "base64": _theta_b64(16)}, "base64"),
    ({**PLACEHOLDER, "file": "sub/" + THETA_FILE}, "without a directory"),
    ([0.0, 1.0], "re-run `kslab train`"),
    ({**PLACEHOLDER, "file": ".."}, "without a directory"),
    ({**PLACEHOLDER, "count": "352"}, "count must be an integer"),
    ({"dtype": "<f8", "file": THETA_FILE, "count": 352}, "{dtype, file, count, sha256}"),
])
def test_reconstruct_rejects_malformed_theta(tmp_path, capsys, trained_checkpoint,
                                             theta, message):
    checkpoint, raw = trained_checkpoint
    checkpoint = json.loads(json.dumps(checkpoint))
    checkpoint["estimator"]["theta"] = theta
    ckpt, code, err = _reconstruct_from(tmp_path, capsys, json.dumps(checkpoint), raw)
    assert code == 2
    assert message in err and str(ckpt) in err
    if isinstance(theta, list) or "base64" in theta:  # an older checkpoint format
        assert "re-run `kslab train`" in err


@pytest.mark.parametrize("damage,message", [
    ("missing", "cannot be read"),
    ("short", "bytes, not 8 * count"),
    ("long", "bytes, not 8 * count"),
    ("flipped_byte", "sha256"),
])
def test_reconstruct_rejects_damaged_theta_file(tmp_path, capsys, trained_checkpoint,
                                                damage, message):
    checkpoint, raw = trained_checkpoint
    if damage == "missing":
        raw = None
    elif damage == "short":
        raw = raw[:-8]
    elif damage == "long":
        raw = raw + bytes(8)
    else:
        raw = raw[:100] + bytes([raw[100] ^ 1]) + raw[101:]
    ckpt, code, err = _reconstruct_from(tmp_path, capsys, json.dumps(checkpoint), raw)
    assert code == 2
    assert message in err and str(ckpt) in err
    assert not (tmp_path / "reconstructions.csv").exists()


def _estimators():
    """An estimator of each family with enrolled patterns and a theta holding
    -0.0, a subnormal and values of every magnitude."""
    rng = stream(14, "writer")
    members = rng.random((3, 8)) < 0.5
    for family, opts in (("affine_per_pattern", {}), ("tiny_net", {"width_factor": 1}),
                         ("toy_cascade", {"cascades": 1, "seed": 2})):
        est = make_estimator(family, 8, **opts)
        if family == "affine_per_pattern":
            est.ensure_patterns(members)
        est.theta = rng.standard_normal(est.theta.shape) * 10.0 ** rng.integers(-300, 300,
                                                                            est.theta.shape)
        est.theta[:2] = (-0.0, 5e-324)
        yield est


def _expected_checkpoint_bytes(checkpoint, est):
    estimator = {**est.to_checkpoint(), "theta": _theta_ref(est.theta.astype("<f8").tobytes())}
    return (json.dumps({**checkpoint, "estimator": estimator},
                       sort_keys=True, allow_nan=False) + "\n").encode("ascii")


# config strings a JSON writer must escape, and strings that spell checkpoint parts
AWKWARD = ["nul\x00", 'quote"d', "back\\slash", "caf\u00e9 \u2603 \U0001f600", "line\nbreak",
           "theta-base64-0", '"theta-base64-0"', "x\"theta-base64-1"]


@pytest.mark.parametrize("est", _estimators(), ids=lambda est: est.family)
@pytest.mark.parametrize("config", [
    {"seed": 1},
    {"strings": AWKWARD, "nested": {"base64": "theta-base64-0", "theta-base64-1": [1.5, None]}},
    {"theta-base64-0": "theta-base64-1", "sha256": {"file": THETA_FILE, "count": 3}},
], ids=["plain", "awkward", "stand_ins"])
def test_write_checkpoint_bytes_are_json_dumps(tmp_path, est, config):
    """checkpoint.json is json.dumps of the whole checkpoint and a newline, byte
    for byte, whatever the config's strings; the theta file holds theta's
    little-endian float64 bytes, and both read back bit for bit."""
    checkpoint = {"artifact_version": "v", "config": {"model": {}, **config},
                  "method": M.ROBUST_SSDU, "alpha": 0.75}
    path = tmp_path / "checkpoint.json"
    _write_checkpoint(path, checkpoint, est)
    assert path.read_bytes() == _expected_checkpoint_bytes(checkpoint, est)
    assert (tmp_path / THETA_FILE).read_bytes() == est.theta.astype("<f8").tobytes()
    _, back = _read_checkpoint(path)
    assert back.theta.tobytes() == est.theta.tobytes()
    back.theta += 1.0  # the loaded vector is writable (training updates it in place)


def test_theta_file_is_bit_exact(tmp_path):
    est = make_estimator("affine_per_pattern", 4)
    est.theta = np.array([0.1, -0.0, 1e-310, np.pi, -2.5e300, np.nextafter(1.0, 2.0)])
    path = tmp_path / "checkpoint.json"
    _write_checkpoint(path, {"config": {"seed": 1}}, est)
    back = _read_theta(path, json.loads(path.read_text())["estimator"]["theta"])
    assert back.tobytes() == est.theta.tobytes()


def test_write_checkpoint_refuses_nan(tmp_path):
    est = make_estimator("tiny_net", 4, width_factor=1)
    path = tmp_path / "checkpoint.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        _write_checkpoint(path, {"config": {"lr": float("nan")}}, est)
    assert list(tmp_path.iterdir()) == []  # refused before either file is opened


def _traced_peak(call) -> tuple:
    """``call()``'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_checkpoint_streams_theta(tmp_path):
    """Writing a 132,098-parameter checkpoint allocates well under theta's
    bytes: the theta file is hashed and written from theta's own buffer."""
    est = make_estimator("toy_cascade", 64, cascades=2, seed=1)
    path = tmp_path / "checkpoint.json"
    _, peak = _traced_peak(lambda: _write_checkpoint(path, {"config": {"seed": 1}}, est))
    assert path.read_bytes() == _expected_checkpoint_bytes({"config": {"seed": 1}}, est)
    assert peak < 0.1 * est.theta.nbytes, peak / est.theta.nbytes


def test_read_checkpoint_holds_theta_once(tmp_path):
    """Reading a 132,098-parameter checkpoint peaks under 1.5 times theta's
    bytes: the theta file is read once, into the array the estimator keeps."""
    est = make_estimator("toy_cascade", 64, cascades=2, seed=1)
    path = tmp_path / "checkpoint.json"
    _write_checkpoint(path, {"artifact_version": "v", "config": {"model": {}},
                             "method": M.ROBUST_SSDU, "alpha": 0.75}, est)
    (_, back), peak = _traced_peak(lambda: _read_checkpoint(path))
    assert back.theta.tobytes() == est.theta.tobytes()
    assert peak < 1.5 * est.theta.nbytes, peak / est.theta.nbytes


@pytest.mark.parametrize("damage,message", [
    ("truncated", "cannot be read as JSON"),
    ("no_config", "missing config"),
    ("no_model", "config.model"),
    ("estimator_no_q", "estimator.q"),
    ("estimator_not_object", "estimator must be an object"),
    ("estimator_q_null", "estimator.q"),
    ("estimator_patterns_int", "estimator.patterns"),
    ("alpha_string", "alpha must be a positive number"),
    ("theta_shortened", "checkpoint theta has 2 parameters"),
    ("estimator_other_q", "estimator dimension 4 does not match"),
    ("unknown_method", "unknown method 'bogus'"),
    ("model_degree_string", "config.model.degree must be a positive number"),
])
def test_reconstruct_rejects_damaged_checkpoint(tmp_path, capsys, trained_checkpoint,
                                                damage, message):
    checkpoint, raw = trained_checkpoint
    checkpoint = json.loads(json.dumps(checkpoint))
    if damage == "no_config":
        del checkpoint["config"]
    elif damage == "no_model":
        del checkpoint["config"]["model"]
    elif damage == "estimator_no_q":
        del checkpoint["estimator"]["q"]
    elif damage == "estimator_not_object":
        checkpoint["estimator"] = [checkpoint["estimator"]]
    elif damage == "estimator_q_null":
        checkpoint["estimator"]["q"] = None
    elif damage == "estimator_patterns_int":
        checkpoint["estimator"] = {**AffinePerPattern(8).to_checkpoint(), "patterns": 3,
                                   "theta": checkpoint["estimator"]["theta"]}
    elif damage == "alpha_string":
        checkpoint["alpha"] = "0.75"
    elif damage == "theta_shortened":  # a whole theta file of the wrong count
        raw = bytes(16)
        checkpoint["estimator"]["theta"] = _theta_ref(raw)
    elif damage == "estimator_other_q":
        raw = b""
        checkpoint["estimator"] = {**AffinePerPattern(4).to_checkpoint(),
                                   "theta": _theta_ref(raw)}
    elif damage == "unknown_method":
        checkpoint["method"] = "bogus"
    elif damage == "model_degree_string":
        checkpoint["config"]["model"]["degree"] = "8"
    text = json.dumps(checkpoint)
    ckpt, code, err = _reconstruct_from(tmp_path, capsys,
                                        text[:1000] if damage == "truncated" else text, raw)
    assert code == 2
    assert message in err and str(ckpt) in err


def test_reconstruct_rejects_checkpoint_from_another_model(tmp_path, capsys,
                                                           trained_checkpoint):
    checkpoint, raw = trained_checkpoint
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(checkpoint))
    (tmp_path / THETA_FILE).write_bytes(raw)
    cfg = json.loads(json.dumps(CKPT_CFG))
    cfg["model"]["sigma_n"] = 0.3
    code = main(["reconstruct", "--config", write_cfg(tmp_path, cfg),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert code == 2
    assert "model.sigma_n" in capsys.readouterr().err
    assert not (tmp_path / "reconstructions.csv").exists()


def test_reconstruct_compares_resolved_q(tmp_path):
    """The banded preset's own q = 8, written out or left to the preset, is one
    model: a checkpoint trained under either config reconstructs under the
    other, and writes the table of the matching config."""
    configs = {"default": CKPT_CFG,
               "explicit": {**CKPT_CFG, "model": {**CKPT_CFG["model"], "q": 8}}}
    paths = {}
    for name, cfg in configs.items():
        (tmp_path / name).mkdir()
        paths[name] = write_cfg(tmp_path / name, cfg)
        assert main(["train", "--config", paths[name],
                     "--out", str(tmp_path / name / "train")]) == 0
    tables = {}
    for trained, run in itertools.product(configs, configs):
        out = tmp_path / f"{trained}_{run}"
        assert main(["reconstruct", "--config", paths[run], "--checkpoint",
                     str(tmp_path / trained / "train" / "checkpoint.json"),
                     "--out", str(out)]) == 0
        tables[trained, run] = (out / "reconstructions.csv").read_bytes()
    assert tables["explicit", "default"] == tables["default", "default"]
    assert tables["default", "explicit"] == tables["explicit", "explicit"]


def _write_prior(path: Path) -> str:
    """A banded q = 8 prior file at ``path``, four times the preset's."""
    from kslab.synthetic import banded_prior_cov

    cov = 4.0 * banded_prior_cov(8)
    path.write_text(json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in cov]))
    return str(path)


@pytest.mark.parametrize("key,value", [
    ("degree", 2.0), ("R_omega", 3.0), ("R_lambda", 3.0), ("prior_file", "prior.json"),
])
def test_reconstruct_rejects_another_model_field(tmp_path, capsys, trained_checkpoint,
                                                 key, value):
    """A checkpoint trained on the default banded model does not reconstruct
    under another mask law or prior: the run exits 2 naming the field."""
    checkpoint, raw = trained_checkpoint
    if key == "prior_file":
        value = _write_prior(tmp_path / value)
    cfg = {**CKPT_CFG, "model": {**CKPT_CFG["model"], key: value}}
    _, code, err = _reconstruct_from(tmp_path, capsys, json.dumps(checkpoint), raw, cfg)
    assert code == 2
    assert f"model.{key}:" in err
    assert not (tmp_path / "reconstructions.csv").exists()


@pytest.mark.parametrize("trained,run", [
    ({}, {"q": 8, "R_omega": 2.0, "R_lambda": 2}),
    ({"q": 8, "R_omega": 2}, {}),
    ({"prior_file": "{dir}/./prior.json"}, {"prior_file": "{dir}/prior.json"}),
])
def test_reconstruct_compares_defaults_resolved_and_priors_as_paths(
        tmp_path, capsys, trained_checkpoint, trained, run):
    """A field null on one side and the preset's default on the other is one
    model, and so are two spellings of one prior file's path; ``alpha``,
    which reconstruct takes from the checkpoint, is not compared."""
    checkpoint, raw = trained_checkpoint
    checkpoint = json.loads(json.dumps(checkpoint))
    _write_prior(tmp_path / "prior.json")
    def fill(fields):
        return {key: value.format(dir=tmp_path) if isinstance(value, str) else value
                for key, value in fields.items()}

    checkpoint["config"]["model"].update(fill(trained))
    cfg = {**CKPT_CFG, "model": {**CKPT_CFG["model"], "alpha": 0.5, **fill(run)}}
    _, code, err = _reconstruct_from(tmp_path, capsys, json.dumps(checkpoint), raw, cfg)
    assert code == 0, err


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


def test_verify_exits_2_on_an_observation_of_variance_zero(tmp_path, capsys, monkeypatch):
    """A prior whose index-0 variance is 0 at sigma_n 0 leaves the
    conditional-noise regression without a slope: a configuration error
    before anything is drawn, not a traceback."""
    import kslab.oracles as oracles_mod

    drawn, channels = [], oracles_mod._channels
    monkeypatch.setattr(oracles_mod, "_channels",
                        lambda *args: drawn.append(args) or channels(*args))
    (tmp_path / "zero.json").write_text("[[[0.0, 0.0]]]")
    path = write_cfg(tmp_path, {"model": {"preset": "scalar", "sigma_n": 0,
                                          "prior_file": str(tmp_path / "zero.json")}})
    assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 2
    assert "observation variance" in capsys.readouterr().err
    assert drawn == []
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, output", [("verify", "report.json"),
                                             ("compare", "results.csv")])
def test_cli_exits_2_on_a_degree_that_underflows_the_density(tmp_path, capsys, command,
                                                             output):
    """At degree 1e6 the banded density is NaN off the center; the run is a
    configuration error, not a verify or compare on one mask pattern."""
    cfg = {**FAST_CFG, "model": {**FAST_CFG["model"], "degree": 1e6}}
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert "underflows the density" in capsys.readouterr().err
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("command, field, value", [
    ("verify", "model.sigma_n", 1e160),
    ("compare", "compare.sigma_n", [1e160]),
    ("verify", "model.alpha", 1e200),
    ("compare", "model.alpha", 1e200),
    ("verify", "model.alpha", 1e-170),
    ("compare", "model.alpha", 1e-170),
    ("verify", "model.alpha", 1e-160),
    ("compare", "model.alpha", 1e-160),
], ids=["verify-sigma_n-1e160", "compare-sigma_n-1e160", "verify-alpha-1e200",
        "compare-alpha-1e200", "verify-alpha-1e-170", "compare-alpha-1e-170",
        "verify-alpha-1e-160", "compare-alpha-1e-160"])
def test_cli_exits_2_on_a_noise_level_whose_square_leaves_the_float_range(
        tmp_path, capsys, command, field, value):
    """sigma_n^2 past the float range, and alpha^2 past it, 0 or subnormal,
    are configuration errors that name the field, not an overflow or a
    division by zero (exit 1), a divergence (exit 4) or a NaN in k-space."""
    section, key = field.split(".")
    cfg = {**FAST_CFG, "compare": {**FAST_CFG["compare"], "methods": [M.ROBUST_SSDU]}}
    cfg[section] = {**cfg[section], key: value}
    output = {"verify": "report.json", "compare": "results.csv"}[command]
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert f"configuration error: {field}" in capsys.readouterr().err
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "below_a_file"])
def test_cli_exits_2_on_an_out_that_cannot_be_a_directory(tmp_path, capsys, out):
    """An --out that names a file, or a path below one, is a configuration
    error naming --out, not a FileExistsError or NotADirectoryError."""
    (tmp_path / "taken").write_text("")
    assert main(["verify", "--out", str(tmp_path / out)]) == 2
    assert "configuration error: --out" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == ""


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
    out = run_alpha_sweep(cfg, tmp_path)
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    # header + benchmark + 4 corrected-method rows at the single alpha
    assert len(lines) == 1 + 1 + 4
    assert lines[1].split(",")[0] == M.FULLY_SUPERVISED
    # timings by stage: data per cell, train per stack (the five tiny_net
    # cells step as one), eval per cell, and no noisy_subsampled baseline
    timings = [l.split(",") for l in (tmp_path / "timings.csv").read_text().splitlines()
               if not l.startswith("#")]
    assert timings[0] == ["stage", "cells", "seconds"]
    cells = ["sweep_benchmark"] + [f"sweep_{m}_a1" for m in M.CORRECTED_METHODS]
    assert [row[:2] for row in timings[1:]] == (
        [["data", c] for c in cells] + [["train", " ".join(cells)]]
        + [["eval", c] for c in cells])
    assert all(float(row[2]) >= 0.0 for row in timings[1:])


def _strict_json(text: str):
    """``text`` parsed as strict JSON: a NaN or an infinity token is an error."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_verify_writes_a_non_finite_statistic_as_null_and_exits_3(tmp_path, capsys):
    """At sigma_n 1e150 the Monte Carlo sums of squares overflow and four
    standard errors are NaN: ``report.json`` is whole strict JSON with each
    of them null, those reports fail and name the field, stdout prints a FAIL
    line for each, and verify exits 3 rather than ending in a traceback."""
    cfg = {"model": {"preset": "banded", "sigma_n": 1e150},
           "verify": {"gradient_samples": 1000, "slope_samples": 1000, "mse_samples": 1000}}
    code = main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    report = _strict_json((tmp_path / "out" / "report.json").read_text())
    flagged = {r["name"]: r for r in report["reports"] if "non_finite" in r["notes"]}
    claims = (M.NOISIER2FULL, M.ROBUST_SSDU)
    assert sorted(flagged) == sorted(f"{check}[{claim}]" for check in
                                     ("corrected_mse", "gradient_equivalence") for claim in claims)
    for r in flagged.values():
        assert r["notes"]["non_finite"] == ["standard_error"]
        assert r["standard_error"] is None and r["passed"] is False
    assert report["all_proof_backed_passed"] is False
    out = capsys.readouterr().out
    assert all(f"[FAIL] {name}:" in out for name in flagged)
