"""The alpha-based correction and the assembled reconstruction entry point.

Two modes:

* "theory" - the network input is a freshly further-corrupted version of
  the data, exactly as in the recovery statements; the correction applies
  on the further-sampled set.
* "practical" - the raw data is fed to the network and the correction
  applies on the acquisition set. This deviates from the strict statements
  but is what the reported results use, and is the default.
"""

from collections.abc import Iterable

import numpy as np

from . import methods as M
from .errors import ConfigError, DimensionError, ValidationError
from .estimators import Estimator
from .kspace import SamplingMask, as_kspace, as_kspace_rows
from .noise import second_level_draws

MODE_THEORY = "theory"
MODE_PRACTICAL = "practical"
MODES = (MODE_THEORY, MODE_PRACTICAL)


def correct(f_out, input_used, member, alpha: float) -> np.ndarray:
    """((1 + a^2) f - input) / a^2 on the set ``member``, f elsewhere (bit-for-bit).

    Entry by entry, on arrays of any one shape: one output (q,), a stack
    (n, q), or coefficient maps (n, q, q) with the identity as the input.
    """
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero for the correction")
    out = f_out.copy()
    out[member] = ((1.0 + alpha ** 2) * f_out[member] - input_used[member]) / alpha ** 2
    return out


def _require_supported(y: np.ndarray, omega: np.ndarray) -> None:
    bad = ~omega & (y != 0.0)
    if np.any(bad):
        j = int(np.nonzero(bad)[-1][0])
        raise ValidationError(f"measurements nonzero off the sampling set (index {j})")


def estimate_rows(method: str, est: Estimator, y_in, m_in, alpha: float) -> np.ndarray:
    """The method's estimates (n, q) from network inputs y_in (n, q) with
    supports m_in (n, q): one stacked forward pass under the estimator's
    theta, broadcast without a copy, corrected on m_in when the method's
    input carries the further noise."""
    theta = np.broadcast_to(est.theta, (y_in.shape[0], est.theta.shape[0]))
    f = est.forward_vjp_stack(theta, y_in, m_in)[0]
    return correct(f, y_in, m_in, alpha) if method in M.CORRECTED_METHODS else f


def reconstruct_rows(method: str, est: Estimator, y, omega, noise_spec, lambda_dist=None,
                     mode: str = MODE_PRACTICAL, rngs: Iterable[np.random.Generator] | None = None
                     ) -> np.ndarray:
    """Estimates (n, q) of the ground truth from measured data y (n, q) with
    first-level memberships omega (n, q), as the method's row prescribes.

    Both modes require y to be zero off omega. Methods whose training input
    carries the further noise are corrected. Theory mode feeds such a method
    a fresh input of its training kind: for each row in turn, a second-level
    mask drawn from lambda_dist (Lambda ∩ Omega inputs only), then further
    noise, both from that row's generator in ``rngs`` (exactly one per row).
    Practical mode feeds the data itself, corrects on Omega and reads no
    generator. All rows then go through ``estimate_rows``, so each row gets
    the bits it gets alone.
    """
    row = M.row(method)
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    arr = as_kspace_rows(y, est.q)
    omega = np.asarray(omega, dtype=bool)
    if omega.shape != arr.shape:
        raise DimensionError(f"memberships {omega.shape} do not match the data {arr.shape}")
    _require_supported(arr, omega)
    alpha = noise_spec.alpha
    if mode == MODE_PRACTICAL or not row.input.further_noise:
        return estimate_rows(method, est, arr, omega, alpha)

    if rngs is None:
        raise ConfigError("theory mode requires an rng for the fresh corruption draws")
    if row.input.on_intersect and lambda_dist is None:
        raise ConfigError("theory mode for a Lambda ∩ Omega input requires lambda_dist")
    lam, ntilde = second_level_draws(rngs, *arr.shape,
                                     lambda_dist if row.input.on_intersect else None,
                                     alpha * noise_spec.sigma_n)
    y_in, m_in = row.input.build(arr, omega, lam, ntilde)
    return estimate_rows(method, est, y_in, m_in, alpha)


def reconstruct(method: str, est: Estimator, y, omega: SamplingMask, noise_spec,
                lambda_dist=None, mode: str = MODE_PRACTICAL,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Estimate of the ground truth from one measurement: the one-row case of
    ``reconstruct_rows``, with ``rng`` the row's generator (theory mode)."""
    arr = as_kspace(y, omega.q)
    return reconstruct_rows(method, est, arr[None], omega.member[None], noise_spec,
                            lambda_dist, mode, None if rng is None else [rng])[0]
