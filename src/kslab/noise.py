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

from .errors import ValidationError, number, or_null

# The rule of each NoiseSpec field; the config's noise levels and further-noise
# ratios, and TrainSpec's alpha, are checked by these same rules.
NOISE_RULES = {"sigma_n": number(), "alpha": number(positive=True)}


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
        for name, rule in NOISE_RULES.items():
            rule.check(getattr(self, name), name, ValidationError)


def complex_gaussian(q: int | tuple, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Draw CN(0, sigma^2 I): i.i.d. with total complex variance sigma^2 per entry.

    ``q`` is a length or an array shape such as (count, q).
    """
    NOISE_RULES["sigma_n"].check(sigma, "sigma", ValidationError)
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
    or_null(NOISE_RULES["sigma_n"]).check(sigma, "sigma", ValidationError)
    draw_u, draw_z = lambda_dist is not None, sigma is not None
    uniforms = np.empty((n, q if draw_u else 0))
    # both channels of an item in one call: standard_normal(2q) draws what two
    # consecutive standard_normal(q) calls draw
    normals = np.empty((n, 2 * q if draw_z else 0))
    for u, z, rng in zip(uniforms, normals, rngs, strict=True):
        if draw_u:
            rng.random(out=u)
        if draw_z:
            rng.standard_normal(out=z)
    return (lambda_dist.members(uniforms) if draw_u else None,
            complex_from_normals(normals[:, :q], normals[:, q:], sigma) if draw_z else None)
