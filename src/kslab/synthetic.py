"""Synthetic measurement models with computable conditional expectations.

The ground truth is a zero-mean complex Gaussian in k-space with a known
covariance, which replaces real scan data at desk scale: every conditional
expectation the training methods claim to recover is then available in
closed form (see the oracles module).

Stock priors:

* "scalar"  - q = 1, unit variance. The minimal model for entrywise checks.
* "diagonal" - independent k-space entries with polynomially decaying
  variances (spectral energy concentrated at the center). No cross-index
  inference is possible, which isolates the denoising pathway.
* "banded"  - covariance of the transform of a compact-support image prior
  (a small variance floor keeps it invertible). K-space entries are
  correlated, so unsampled indices are inferable, exercising the
  reconstruction pathway.
* "bernoulli2d" - 16 x 16 flattened diagonal prior with 2-D Bernoulli
  sampling, the desk analog of the 2-D sampling experiment.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .kspace import dft_matrix
from .noise import NoiseSpec, complex_from_normals
from .sampling import (
    BERNOULLI2D_POLYNOMIAL,
    COLUMN_POLYNOMIAL,
    MaskDistribution,
    center_distances,
    default_n_center,
    validate_mask_conditions,
)

_PSD_TOL = 1e-10
# Image-domain variance profile of the banded prior: unit variance on a
# central block of this fraction of the indices, a small floor elsewhere so
# the covariance stays invertible.
BANDED_SUPPORT_FRAC = 0.5
BANDED_FLOOR = 0.05


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Joint law of ground truth, noise and the two sampling levels."""

    prior_cov: np.ndarray
    noise: NoiseSpec
    omega_dist: MaskDistribution
    lambda_dist: MaskDistribution
    shape: tuple | None = None

    def __post_init__(self):
        cov = np.asarray(self.prior_cov, dtype=np.complex128)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValidationError(f"prior covariance must be square, got {cov.shape}")
        if not np.allclose(cov, cov.conj().T, rtol=0.0, atol=_PSD_TOL):
            raise ValidationError("prior covariance must be Hermitian")
        evals, evecs = np.linalg.eigh(cov)
        if evals.min() < -_PSD_TOL:
            raise ValidationError(f"prior covariance not PSD (min eigenvalue {evals.min()})")
        cov.setflags(write=False)
        object.__setattr__(self, "prior_cov", cov)
        # Square-root factor for sampling, computed once.
        factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
        factor.setflags(write=False)
        object.__setattr__(self, "_sqrt_factor", factor)
        if self.omega_dist.q != cov.shape[0] or self.lambda_dist.q != cov.shape[0]:
            raise ValidationError("mask distributions disagree with prior dimension")
        validate_mask_conditions(self.omega_dist.probs(), self.lambda_dist.probs())

    @property
    def q(self) -> int:
        return self.prior_cov.shape[0]

    def omega_probs(self) -> np.ndarray:
        return self.omega_dist.probs()

    def lambda_probs(self) -> np.ndarray:
        return self.lambda_dist.probs()


def gaussian_ground_truth(model: MeasurementModel, rng: np.random.Generator,
                          count: int | None = None) -> np.ndarray:
    """Sample the ground truth: zero-mean complex Gaussian with the prior covariance.

    One length-q vector, or ``count`` independent draws as (count, q) rows.
    """
    if count is None:
        return ground_truth_from_normals(model, rng.standard_normal((1, model.q)),
                                         rng.standard_normal((1, model.q)))[0]
    white = complex_from_normals(rng.standard_normal((count, model.q)),
                                 rng.standard_normal((count, model.q)), 1.0)
    return white @ model._sqrt_factor.T


def ground_truth_from_normals(model: MeasurementModel, re: np.ndarray,
                              im: np.ndarray) -> np.ndarray:
    """Ground truth rows (n, q) from standard normal draws (n, q) of the two
    channels, each row transformed alone (one BLAS call per row)."""
    white = complex_from_normals(re, im, 1.0)
    return np.matmul(model._sqrt_factor, white[..., None])[..., 0]


def diagonal_prior_variances(q: int, shape=None) -> np.ndarray:
    return 1.0 / (1.0 + center_distances(q, shape)) ** 2


def banded_prior_cov(q: int) -> np.ndarray:
    width = max(1, int(round(BANDED_SUPPORT_FRAC * q)))
    lo = (q - width) // 2
    v_img = np.full(q, BANDED_FLOOR)
    v_img[lo:lo + width] = 1.0
    f = dft_matrix(q)
    return f @ np.diag(v_img.astype(np.complex128)) @ f.conj().T


# Each preset's q, R_omega and R_lambda where a model leaves them null.
PRESET_DEFAULTS = {
    "scalar": {"q": 1, "R_omega": 1.0, "R_lambda": 2.0},
    "diagonal": {"q": 16, "R_omega": 2.0, "R_lambda": 2.0},
    "banded": {"q": 8, "R_omega": 2.0, "R_lambda": 2.0},
    "bernoulli2d": {"q": 256, "R_omega": 4.0, "R_lambda": 1.5},
}
PRESETS = tuple(PRESET_DEFAULTS)  # what model_preset builds


def preset_fields(name: str, q: int | None, R_omega: float | None,
                  R_lambda: float | None) -> dict:
    """``{"q", "R_omega", "R_lambda"}`` of preset ``name``, each None filled in
    by the preset's default. ConfigError on an unknown preset, and on a
    bernoulli2d q that is not a perfect square; the message names the
    config's field."""
    if name not in PRESET_DEFAULTS:
        raise ConfigError(f"unknown model preset {name!r}")
    defaults = PRESET_DEFAULTS[name]
    fields = {key: defaults[key] if value is None else value
              for key, value in {"q": q, "R_omega": R_omega, "R_lambda": R_lambda}.items()}
    if name == "bernoulli2d" and math.isqrt(fields["q"]) ** 2 != fields["q"]:
        raise ConfigError("model.q: must be a perfect square (a side x side grid) for bernoulli2d")
    return fields


def model_preset(name: str, sigma_n: float, alpha: float, R_omega: float | None = None,
                 R_lambda: float | None = None, q: int | None = None,
                 degree: float = 8.0) -> MeasurementModel:
    """Build one of the stock models; ``preset_fields`` fills in q, R_omega and R_lambda."""
    noise = NoiseSpec(sigma_n, alpha)
    q, R_omega, R_lambda = preset_fields(name, q, R_omega, R_lambda).values()
    kind, n_center, shape = COLUMN_POLYNOMIAL, default_n_center(q), None
    if name == "scalar":
        cov, n_center = np.eye(q, dtype=np.complex128), 0
    elif name == "diagonal":
        cov = np.diag(diagonal_prior_variances(q))
    elif name == "banded":
        cov = banded_prior_cov(q)
    else:  # bernoulli2d: a side x side grid
        kind, shape = BERNOULLI2D_POLYNOMIAL, (math.isqrt(q),) * 2
        cov = np.diag(diagonal_prior_variances(q, shape))
    omega = MaskDistribution(kind, q, R_omega, n_center, degree, shape)
    lam = MaskDistribution(kind, q, R_lambda, n_center, degree, shape)
    return MeasurementModel(cov, noise, omega, lam, shape=shape)


def load_prior_cov(path) -> np.ndarray:
    """Load a covariance from a JSON file of nested [re, im] pairs; ConfigError
    naming the file if it cannot be read as JSON numbers or is not q x q x 2."""
    try:
        with open(path) as fh:
            arr = np.asarray(json.load(fh), dtype=np.float64)
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: cannot be read as a JSON array of numbers ({exc})") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{path}: covariance file must be a q x q matrix of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]
