"""The alpha-based correction and the assembled reconstruction entry point.

Two modes:

* "theory" - the network input is a freshly further-corrupted version of
  the data, exactly as in the recovery statements; the correction applies
  on the further-sampled set.
* "practical" - the raw data is fed to the network and the correction
  applies on the acquisition set. This deviates from the strict statements
  but is what the reported results use, and is the default.
"""

import numpy as np

from . import methods as M
from .errors import ConfigError, ValidationError
from .estimators import Estimator
from .kspace import SamplingMask, as_kspace
from .noise import complex_gaussian

MODE_THEORY = "theory"
MODE_PRACTICAL = "practical"
MODES = (MODE_THEORY, MODE_PRACTICAL)


def correct(f_out, input_used, member, alpha: float) -> np.ndarray:
    """((1 + a^2) f - input) / a^2 on the set ``member``, f elsewhere (bit-for-bit).

    Row by row: one output (q,) or a stack (n, q) with matching inputs and sets.
    """
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero for the correction")
    out = f_out.copy()
    out[member] = ((1.0 + alpha ** 2) * f_out[member] - input_used[member]) / alpha ** 2
    return out


def _require_supported(y: np.ndarray, omega: SamplingMask) -> None:
    off = ~omega.member
    if np.any(y[off] != 0.0):
        j = int(np.nonzero(off & (y != 0.0))[0][0])
        raise ValidationError(f"measurements nonzero off the sampling set (index {j})")


def reconstruct(method: str, est: Estimator, y, omega: SamplingMask, noise_spec,
                lambda_dist=None, mode: str = MODE_PRACTICAL,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Estimate of the ground truth from measured data, as the method's row prescribes.

    Methods whose training input carries the further noise are corrected.
    Theory mode feeds such a method a fresh input of its training kind: a
    second-level mask drawn from lambda_dist (Lambda ∩ Omega inputs only),
    then further noise, both from rng; practical mode feeds the data itself
    and corrects on Omega.
    """
    row = M.row(method)
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    arr = as_kspace(y, omega.q)
    if not row.input.further_noise:
        return est.forward(arr, omega)
    alpha = noise_spec.alpha
    if mode == MODE_PRACTICAL:
        return correct(est.forward(arr, omega), arr, omega.member, alpha)

    if rng is None:
        raise ConfigError("theory mode requires an rng for the fresh corruption draws")
    lam = None
    if row.input.on_intersect:
        if lambda_dist is None:
            raise ConfigError("theory mode for a Lambda ∩ Omega input requires lambda_dist")
        lam = lambda_dist.draw(rng)
    _require_supported(arr, omega)
    ntilde = complex_gaussian(omega.q, alpha * noise_spec.sigma_n, rng)
    y_in, m_in = row.input.build_masked(arr, omega, lam, ntilde)
    return correct(est.forward(y_in, m_in), y_in, m_in.member, alpha)
