"""Experiment configuration: one JSON document, validated with field paths.

Every run embeds the fully resolved configuration in its outputs so results
can be re-produced exactly from the files alone.
"""

import copy
import json
import math

import numpy as np

from . import methods as M
from .errors import ConfigError
from .estimators import FAMILIES, TinyNet

# Tuned further-noise ratios reported for the weighted and unweighted
# variants; used when a single-method run leaves alpha unset.
ALPHA_DEFAULTS = {
    M.NOISIER2FULL: 1.0,
    M.NOISIER2FULL_UNWEIGHTED: 1.25,
    M.ROBUST_SSDU: 0.75,
    M.ROBUST_SSDU_UNWEIGHTED: 0.5,
}

SWEEP_ALPHAS = [0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]

DEFAULT_CONFIG = {
    "model": {
        "preset": "banded",
        "q": None,
        "sigma_n": 0.3,
        "alpha": 1.0,
        "R_omega": None,
        "R_lambda": None,
        "degree": 8.0,
        "prior_file": None,
    },
    "estimator": {
        "family": TinyNet.family,
        "hidden_layers": 2,
        "width_factor": 2,
        "cascades": 2,
        "init_seed": 0,
    },
    "train": {
        "method": M.ROBUST_SSDU,
        "epochs": 150,
        "lr": 5e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "batch_size": 1,
        "n_train": 256,
        "lambda_n2r": 1.0,
        "alpha": None,
    },
    "eval": {"n_test": 160},
    "compare": {
        "methods": [M.FULLY_SUPERVISED, M.NOISIER2FULL, M.STANDARD_SSDU, M.ROBUST_SSDU],
        "sigma_n": [0.1, 0.3],
        "R_omega": [2.0],
    },
    "sweep": {
        "alphas": SWEEP_ALPHAS,
        "sigma_n": 0.3,
        "R_omega": 2.0,
    },
    "verify": {
        "gradient_samples": 20000,
        "slope_samples": 200000,
        "mse_samples": 20000,
    },
    "seed": 0,
    "mode": "practical",
}

_PRESETS = ("scalar", "diagonal", "banded", "bernoulli2d")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        _expect(key in base, here, "unknown configuration field")
        if isinstance(base[key], dict):
            _expect(isinstance(value, dict), here, "expected an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(raw: dict | None) -> dict:
    """Merge user config over defaults and validate every field."""
    cfg = _merge(DEFAULT_CONFIG, raw or {})

    m = cfg["model"]
    _expect(m["preset"] in _PRESETS, "model.preset", f"must be one of {_PRESETS}")
    _expect(m["q"] is None or (isinstance(m["q"], int) and m["q"] >= 1),
            "model.q", "must be a positive integer or null")
    _expect(m["preset"] != "bernoulli2d" or m["q"] is None or math.isqrt(m["q"]) ** 2 == m["q"],
            "model.q", "must be a perfect square (a side x side grid) for bernoulli2d")
    _expect(_is_number(m["sigma_n"]) and m["sigma_n"] >= 0, "model.sigma_n",
            "must be a number >= 0")
    _expect(_is_number(m["alpha"]) and m["alpha"] > 0, "model.alpha",
            "must be a positive number")
    for key in ("R_omega", "R_lambda"):
        _expect(m[key] is None or (_is_number(m[key]) and m[key] >= 1.0),
                f"model.{key}", "must be a number >= 1 or null")
    _expect(_is_number(m["degree"]) and m["degree"] > 0, "model.degree",
            "must be a positive number")

    e = cfg["estimator"]
    _expect(isinstance(e["family"], str) and e["family"] in FAMILIES,
            "estimator.family", "unknown family")
    # every family's bounded fields (the unbounded field seed is init_seed here)
    bounded = {name: minimum for cls in FAMILIES.values() for name, minimum in cls.fields
               if minimum is not None}
    for key, minimum in bounded.items():
        _expect(isinstance(e[key], int) and e[key] >= minimum, f"estimator.{key}",
                "must be a positive integer" if minimum == 1
                else f"must be an integer >= {minimum}")
    _expect(isinstance(e["init_seed"], int), "estimator.init_seed", "must be an integer")

    t = cfg["train"]
    _expect(t["method"] in M.ALL_METHODS, "train.method",
            f"must be one of {M.ALL_METHODS}")
    _expect(isinstance(t["epochs"], int) and t["epochs"] >= 1, "train.epochs",
            "must be an integer >= 1")
    _expect(_is_number(t["lr"]) and t["lr"] > 0, "train.lr", "must be a positive number")
    for key in ("beta1", "beta2"):
        _expect(_is_number(t[key]) and 0 <= t[key] < 1, f"train.{key}",
                "must be a number in [0, 1)")
    _expect(_is_number(t["eps"]) and t["eps"] > 0, "train.eps", "must be a positive number")
    _expect(isinstance(t["batch_size"], int) and t["batch_size"] >= 1,
            "train.batch_size", "must be an integer >= 1")
    _expect(isinstance(t["n_train"], int) and t["n_train"] >= 1, "train.n_train",
            "must be an integer >= 1")
    _expect(_is_number(t["lambda_n2r"]) and t["lambda_n2r"] >= 0, "train.lambda_n2r",
            "must be a number >= 0")
    _expect(t["alpha"] is None or (_is_number(t["alpha"]) and t["alpha"] > 0),
            "train.alpha", "must be a positive number or null")

    _expect(isinstance(cfg["eval"]["n_test"], int) and cfg["eval"]["n_test"] >= 1,
            "eval.n_test", "must be an integer >= 1")

    c = cfg["compare"]
    _expect(isinstance(c["methods"], list) and c["methods"], "compare.methods",
            "must be a nonempty list")
    for i, name in enumerate(c["methods"]):
        _expect(name in M.ALL_METHODS, f"compare.methods[{i}]", "unknown method")
    for key, low in (("sigma_n", 0), ("R_omega", 1)):
        _expect(isinstance(c[key], list) and c[key], f"compare.{key}",
                "must be a nonempty list of numbers")
        for i, value in enumerate(c[key]):
            _expect(_is_number(value) and value >= low, f"compare.{key}[{i}]",
                    f"must be a number >= {low}")

    s = cfg["sweep"]
    _expect(isinstance(s["alphas"], list) and s["alphas"], "sweep.alphas",
            "must be a nonempty list")
    for i, value in enumerate(s["alphas"]):
        _expect(_is_number(value) and value > 0, f"sweep.alphas[{i}]",
                "must be a positive number")
    _expect(_is_number(s["sigma_n"]) and s["sigma_n"] >= 0, "sweep.sigma_n",
            "must be a number >= 0")
    _expect(_is_number(s["R_omega"]) and s["R_omega"] >= 1, "sweep.R_omega",
            "must be a number >= 1")

    v = cfg["verify"]
    for key in ("gradient_samples", "slope_samples", "mse_samples"):
        _expect(isinstance(v[key], int) and v[key] >= 1000, f"verify.{key}",
                "must be an integer >= 1000")

    _expect(isinstance(cfg["seed"], int) and cfg["seed"] >= 0, "seed",
            "must be a nonnegative integer")
    _expect(cfg["mode"] in ("practical", "theory"), "mode",
            "must be 'practical' or 'theory'")
    return cfg


def load_config(path: str | None) -> dict:
    if path is None:
        return resolve_config(None)
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    return resolve_config(raw)


def config_json(cfg: dict) -> str:
    """Canonical one-line rendering, embedded in every output file."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
