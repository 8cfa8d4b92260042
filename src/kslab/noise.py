"""Complex Gaussian measurement noise, its specification, and the
per-item second-level draws (the mask Lambda and the further noise).

Noise follows the circularly-symmetric convention: a complex variance of
sigma^2 means each real channel has variance sigma^2 / 2. The network inputs
that carry the further noise are built from the method table
(``methods.Input.build``).
"""

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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
    return complex_from_normals(rng.standard_normal(q), rng.standard_normal(q), sigma)


def complex_from_normals(re: np.ndarray, im: np.ndarray, sigma: float) -> np.ndarray:
    """CN(0, sigma^2) entries from standard normal draws of the two channels."""
    return (sigma / np.sqrt(2.0)) * (re + 1j * im)


def second_level_draws(rngs: Iterable[np.random.Generator], n: int, q: int,
                       lambda_dist=None, sigma: float | None = None):
    """Second-level draws of n items, item i from the i-th of exactly n generators.

    Each item draws its second-level mask from ``lambda_dist`` (when given),
    then its further noise CN(0, sigma^2 I) (when ``sigma`` is given), exactly
    as ``lambda_dist.draw(rng)`` and ``complex_gaussian(q, sigma, rng)``
    would. Only the raw draws happen per item; returns the memberships and
    the noise as (n, q) rows, None where not drawn.
    """
    if sigma is not None and sigma < 0.0:
        raise ValidationError("sigma must be >= 0")
    uniforms = None if lambda_dist is None else np.empty((n, lambda_dist.site_probs().shape[0]))
    normals = None if sigma is None else np.empty((2, n, q))
    for i, rng in zip(range(n), rngs, strict=True):
        if uniforms is not None:
            rng.random(out=uniforms[i])
        if normals is not None:
            rng.standard_normal(out=normals[0, i])
            rng.standard_normal(out=normals[1, i])
    return (None if uniforms is None else lambda_dist.members(uniforms),
            None if normals is None else complex_from_normals(*normals, sigma))
