"""Experiment configuration: one JSON document, validated with field paths.

Every run embeds the fully resolved configuration in its outputs so results
can be re-produced exactly from the files alone.
"""

import copy
import json

from . import methods as M
from .errors import SEED_RULE, ConfigError, Rule, integer, nonempty_list, number, one_of, or_null
from .estimators import FAMILIES, POSITIVE_INT, TinyNet
from .inference import MODES
from .noise import NOISE_RULES
from .oracles import VERIFY_SAMPLES
from .synthetic import PRESETS, preset_fields
from .training import SPEC_RULES

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
    "verify": dict(VERIFY_SAMPLES),
    "seed": 0,
    "mode": "practical",
}

_ACCEL, _SIGMA, _ALPHA = number(1), NOISE_RULES["sigma_n"], NOISE_RULES["alpha"]


def _estimator_key(field: str) -> str:
    """The config's name of an estimator field: the estimators' seed is init_seed."""
    return "init_seed" if field == "seed" else field


# The rule of every field, in the order they are checked; the estimator's and
# TrainSpec's fields use the rules their classes declare.
RULES = {
    "model.preset": one_of(PRESETS),
    "model.q": or_null(POSITIVE_INT),
    "model.sigma_n": _SIGMA,
    "model.alpha": _ALPHA,
    "model.R_omega": or_null(_ACCEL),
    "model.R_lambda": or_null(_ACCEL),
    "model.degree": number(positive=True),
    "model.prior_file": or_null(Rule(lambda x: isinstance(x, str) and x != "", "a file path")),
    "estimator.family": one_of(tuple(FAMILIES)),
    **{f"estimator.{_estimator_key(name)}": rule
       for cls in FAMILIES.values() for name, rule in cls.fields},
    **{f"train.{name}": rule for name, rule in SPEC_RULES.items()},
    "train.n_train": integer(1),
    "train.alpha": or_null(SPEC_RULES["alpha"]),  # null: the method's tuned default
    "eval.n_test": integer(1),
    "compare.methods": nonempty_list(SPEC_RULES["method"]),
    "compare.sigma_n": nonempty_list(_SIGMA),
    "compare.R_omega": nonempty_list(_ACCEL),
    "sweep.alphas": nonempty_list(_ALPHA),
    "sweep.sigma_n": _SIGMA,
    "sweep.R_omega": _ACCEL,
    **{f"verify.{key}": integer(1000) for key in VERIFY_SAMPLES},
    "seed": SEED_RULE,
    "mode": one_of(MODES),
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"{here}: unknown configuration field")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(raw: dict | None) -> dict:
    """Merge user config over defaults and check every field by its rule."""
    cfg = _merge(DEFAULT_CONFIG, raw or {})
    for path, rule in RULES.items():
        section, _, key = path.rpartition(".")
        rule.check((cfg[section] if section else cfg)[key], path, form="{name}: must be {must}")
    m = cfg["model"]
    preset_fields(m["preset"], m["q"], m["R_omega"], m["R_lambda"])  # the preset's own rules
    return cfg


def load_config(path: str | None) -> dict:
    if path is None:
        return resolve_config(None)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read ({exc.strerror})") from None
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level config must be an object")
    return resolve_config(raw)


def estimator_options(cfg: dict) -> dict:
    """The keyword fields of the config's estimator family, by their estimator names."""
    e = cfg["estimator"]
    return {name: e[_estimator_key(name)] for name, _ in FAMILIES[e["family"]].fields}


def config_json(cfg: dict) -> str:
    """Canonical one-line rendering, embedded in every output file."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
