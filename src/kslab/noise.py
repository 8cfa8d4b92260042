"""Complex Gaussian measurement noise, its specification, and whitening.

Noise follows the circularly-symmetric convention: a complex variance of
sigma^2 means each real channel has variance sigma^2 / 2. The network inputs
that carry the further noise are built from the method table
(``methods.Input.build``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kspace import as_kspace


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise level and further-noise ratio.

    sigma_n : standard deviation of the complex measurement noise per entry.
        Zero is allowed for noiseless simulations.
    alpha : further-noise ratio; the further noise has std alpha * sigma_n.
    """

    sigma_n: float
    alpha: float

    def __post_init__(self):
        if not np.isfinite(self.sigma_n) or self.sigma_n < 0.0:
            raise ValidationError(f"sigma_n must be finite and >= 0, got {self.sigma_n}")
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValidationError(f"alpha must be finite and positive, got {self.alpha}")


def complex_gaussian(q: int | tuple, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Draw CN(0, sigma^2 I): i.i.d. with total complex variance sigma^2 per entry.

    ``q`` is a length or an array shape such as (count, q).
    """
    if sigma < 0.0:
        raise ValidationError("sigma must be >= 0")
    scale = sigma / np.sqrt(2.0)
    return scale * (rng.standard_normal(q) + 1j * rng.standard_normal(q))


def add_complex_noise(v, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """v plus white complex Gaussian noise of per-entry variance sigma^2."""
    arr = as_kspace(v)
    if sigma == 0.0:
        return arr.copy()
    return arr + complex_gaussian(arr.shape[0], sigma, rng)


def _check_spd(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValidationError(f"covariance must be square, got shape {cov.shape}")
    if not np.allclose(cov, cov.conj().T, rtol=0.0, atol=1e-10):
        raise ValidationError("covariance must be Hermitian")
    evals, evecs = np.linalg.eigh(cov)
    if evals.min() <= 0.0:
        raise ValidationError(f"covariance not positive definite (min eigenvalue {evals.min()})")
    return evals, evecs


def whiten(v, cov) -> np.ndarray:
    """Apply the inverse matrix square root of a noise covariance.

    cov may be a scalar (c^2 * identity), a length-q diagonal, or a full
    Hermitian positive-definite q x q matrix. Noise drawn with covariance
    cov comes out with unit per-entry variance.
    """
    arr = as_kspace(v)
    cov = np.asarray(cov)
    if cov.ndim == 0:
        if cov <= 0:
            raise ValidationError("scalar covariance must be positive")
        return arr / np.sqrt(float(cov))
    if cov.ndim == 1:
        if cov.shape[0] != arr.shape[0]:
            raise ValidationError("diagonal covariance length mismatch")
        if np.any(cov.real <= 0) or np.any(np.abs(cov.imag) > 0):
            raise ValidationError("diagonal covariance must be real positive")
        return arr / np.sqrt(cov.real)
    evals, evecs = _check_spd(cov.astype(np.complex128))
    if cov.shape[0] != arr.shape[0]:
        raise ValidationError("covariance size does not match vector length")
    return evecs @ ((evecs.conj().T @ arr) / np.sqrt(evals))


def colored_complex_gaussian(cov, rng: np.random.Generator) -> np.ndarray:
    """Draw CN(0, cov) for a full Hermitian positive-definite covariance."""
    cov = np.asarray(cov, dtype=np.complex128)
    evals, evecs = _check_spd(cov)
    white = complex_gaussian(cov.shape[0], 1.0, rng)
    return evecs @ (np.sqrt(evals) * (evecs.conj().T @ white))
