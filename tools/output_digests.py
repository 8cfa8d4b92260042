"""Print the sha256 of every output file of a fixed, small run matrix, as JSON.

Runs, in a temporary directory and in this process:

* ``compare`` with all 8 methods, for each estimator family and mode, and
  once more with ``tiny_net`` in practical mode on the ``diagonal`` preset
  (q = 16), whose prior variances and 1-D mask density both come from
  ``sampling.center_distances``;
* ``compare`` with ``tiny_net``, Robust SSDU and Noisier2Full in practical
  mode over sigma_n [0.1, 0.3] x R_omega [2, 3], so each of the four grid
  points draws its own test set and writes its own baseline row;
* ``sweep-alpha``, and once more with ``model.R_lambda`` set to 1.5;
* ``train`` then ``reconstruct``, for each family and mode, and for
  ``toy_cascade`` on ``bernoulli2d`` with q = 64 (132,098 parameters, so the
  Adam step runs over several blocks of ``training.ADAM_BLOCK``) in each mode;
* ``train`` then ``reconstruct`` for ``tiny_net`` and ``toy_cascade`` with
  non-default hyperparameters (``NON_DEFAULT``) in each mode, so a field the
  config fails to hand to the estimator changes a checkpoint digest;
* ``train`` then ``reconstruct`` for ``toy_cascade`` with 3 cascades in
  each mode, so a network past the second cascade reads and writes its own
  span of the parameter row;
* ``train`` then ``reconstruct`` for ``toy_cascade`` at ``train.batch_size``
  2 in each mode, so a step sums two items' gradients over the pullback's
  pieces;
* ``verify`` on two seeds, on the ``scalar`` preset, whose q = 1 gives
  the stacked closed-form oracles an empty and a full support, and on
  ``banded`` at ``sigma_n`` 0, where the noise draws are signed zeros and
  a change in how they are formed can flip the sign of a reported zero;
* ``verify`` on ``banded`` with q = 12 (seed 1): 1,024 patterns per level,
  so both ``oracles.SOLVE_BLOCK`` and ``estimators.FIT_BLOCK`` split its
  stacks of one support size.

Keys are ``<run>/<file>``, plus ``<run>/exit`` for each subcommand's exit
code and ``<run>/stdout`` for what it printed (``verify``'s report lines
and each ``wrote ...`` line), with the temporary root written as
``<root>`` so the digest does not change from run to run. A ``train``
run's files are ``checkpoint.json`` and the raw theta file it names,
``checkpoint.theta.f64``, each with its own key; the JSON holds the theta
file's sha256, so a change in theta moves both digests.
``timings.csv`` holds wall-clock times and is left out. Two trees
produce the same outputs when their JSON is the same. Save the JSON at one
commit and compare another against it:

    python tools/output_digests.py > digests.json
    python tools/output_digests.py digests.json

Given a saved file, the script prints one line for each key whose digest
differs, is missing or is new, and exits 1 if there is any, 0 otherwise.

The script imports ``kslab`` from the ``src`` directory next to it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kslab import methods as M  # noqa: E402
from kslab.cli import main  # noqa: E402

FAMILIES = ("affine_per_pattern", "tiny_net", "toy_cascade")
NON_DEFAULT = {
    "tiny_net": {"hidden_layers": 1, "width_factor": 3, "init_seed": 7},
    "toy_cascade": {"cascades": 1, "init_seed": 7},
}
MODES = ("practical", "theory")
SMALL = {
    "model": {"preset": "banded", "sigma_n": 0.3},
    "train": {"epochs": 2, "n_train": 16},
    "eval": {"n_test": 16},
    "compare": {"methods": list(M.ALL_METHODS), "sigma_n": [0.3], "R_omega": [2.0]},
    "sweep": {"alphas": [0.5, 1.0]},
    "seed": 3,
}


def _config(root: Path, name: str, **sections) -> Path:
    cfg = json.loads(json.dumps(SMALL))
    for key, value in sections.items():
        cfg[key] = {**cfg.get(key, {}), **value}
    path = root / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def _run(root: Path, digests: dict, name: str, argv: list) -> Path:
    out = root / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    digests[f"{name}/exit"] = code
    text = stdout.getvalue().replace(str(root), "<root>")
    digests[f"{name}/stdout"] = hashlib.sha256(text.encode()).hexdigest()
    for path in sorted(out.iterdir()):
        if path.is_file() and path.name != "timings.csv":
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _train_reconstruct(root: Path, digests: dict, name: str, cfg: Path, mode: str):
    out = _run(root, digests, f"train_{name}_{mode}",
               ["train", "--config", str(cfg), "--mode", mode])
    _run(root, digests, f"reconstruct_{name}_{mode}",
         ["reconstruct", "--config", str(cfg), "--mode", mode,
          "--checkpoint", str(out / "checkpoint.json")])


def output_digests(root: Path) -> dict:
    digests = {}
    for family in FAMILIES:
        cfg = _config(root, family, estimator={"family": family})
        for mode in MODES:
            _run(root, digests, f"compare_{family}_{mode}",
                 ["compare", "--config", str(cfg), "--mode", mode])
            _train_reconstruct(root, digests, family, cfg, mode)
    cfg = _config(root, "toy_cascade_2d", model={"preset": "bernoulli2d", "q": 64},
                  estimator={"family": "toy_cascade"})
    for mode in MODES:
        _train_reconstruct(root, digests, "toy_cascade_2d", cfg, mode)
    for family, fields in NON_DEFAULT.items():
        cfg = _config(root, f"{family}_fields", estimator={"family": family, **fields})
        for mode in MODES:
            _train_reconstruct(root, digests, f"{family}_fields", cfg, mode)
    cfg = _config(root, "toy_cascade_3", estimator={"family": "toy_cascade", "cascades": 3})
    for mode in MODES:
        _train_reconstruct(root, digests, "toy_cascade_3", cfg, mode)
    cfg = _config(root, "toy_cascade_batch2", estimator={"family": "toy_cascade"},
                  train={"batch_size": 2})
    for mode in MODES:
        _train_reconstruct(root, digests, "toy_cascade_batch2", cfg, mode)
    diagonal = _config(root, "diagonal", model={"preset": "diagonal"},
                       estimator={"family": "tiny_net"})
    _run(root, digests, "compare_diagonal",
         ["compare", "--config", str(diagonal), "--mode", "practical"])
    grid = _config(root, "grid", estimator={"family": "tiny_net"},
                   compare={"methods": [M.ROBUST_SSDU, M.NOISIER2FULL],
                            "sigma_n": [0.1, 0.3], "R_omega": [2.0, 3.0]})
    _run(root, digests, "compare_grid",
         ["compare", "--config", str(grid), "--mode", "practical"])
    base = _config(root, "base")
    _run(root, digests, "sweep-alpha", ["sweep-alpha", "--config", str(base)])
    r_lambda = _config(root, "r_lambda", model={"R_lambda": 1.5})
    _run(root, digests, "sweep-alpha_R_lambda", ["sweep-alpha", "--config", str(r_lambda)])
    for seed in (1, 2):
        _run(root, digests, f"verify_seed{seed}",
             ["verify", "--config", str(base), "--seed", str(seed)])
    scalar = _config(root, "scalar", model={"preset": "scalar"})
    _run(root, digests, "verify_scalar", ["verify", "--config", str(scalar), "--seed", "1"])
    sigma0 = _config(root, "sigma0", model={"sigma_n": 0.0})
    _run(root, digests, "verify_sigma0", ["verify", "--config", str(sigma0), "--seed", "1"])
    q12 = _config(root, "banded_q12", model={"q": 12})
    _run(root, digests, "verify_banded_q12", ["verify", "--config", str(q12), "--seed", "1"])
    return digests


def differences(saved: dict, digests: dict) -> list[str]:
    """A line for each key whose digest differs from ``saved``'s, is missing
    from ``digests`` or is new in it."""
    return [f"{key}: " + ("missing" if key not in digests else "new" if key not in saved
                          else "differs")
            for key in sorted(saved.keys() | digests.keys()) if saved.get(key) != digests.get(key)]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Digest every output of a fixed run matrix.")
    ap.add_argument("saved", nargs="?", help="a saved digest JSON to compare against")
    args = ap.parse_args()
    saved = None if args.saved is None else json.loads(Path(args.saved).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(Path(tmp))
    if saved is None:
        json.dump(digests, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        lines = differences(saved, digests)
        for line in lines:
            print(line)
        sys.exit(1 if lines else 0)
