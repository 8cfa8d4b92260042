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

    Row by row: one output (q,) or a stack (n, q) with matching inputs and sets.
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


def reconstruct_rows(method: str, est: Estimator, y, omega, noise_spec, lambda_dist=None,
                     mode: str = MODE_PRACTICAL, rngs: Iterable[np.random.Generator] | None = None
                     ) -> np.ndarray:
    """Estimates (n, q) of the ground truth from measured data y (n, q) with
    first-level memberships omega (n, q), as the method's row prescribes.

    Methods whose training input carries the further noise are corrected.
    Theory mode feeds such a method a fresh input of its training kind: for
    each row in turn, a second-level mask drawn from lambda_dist (Lambda ∩
    Omega inputs only), then further noise, both from that row's generator
    in ``rngs`` (exactly one per row). Practical mode feeds the data itself,
    corrects on Omega and reads no generator. All rows are then forwarded
    in one stacked call under the estimator's theta, broadcast without a
    copy, so each row gets the bits it gets alone.
    """
    row = M.row(method)
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    arr = as_kspace_rows(y, est.q)
    omega = np.asarray(omega, dtype=bool)
    if omega.shape != arr.shape:
        raise DimensionError(f"memberships {omega.shape} do not match the data {arr.shape}")
    theta = np.broadcast_to(est.theta, (arr.shape[0], est.theta.shape[0]))
    if not row.input.further_noise:
        return est.forward_vjp_stack(theta, arr, omega)[0]
    alpha = noise_spec.alpha
    if mode == MODE_PRACTICAL:
        return correct(est.forward_vjp_stack(theta, arr, omega)[0], arr, omega, alpha)

    if rngs is None:
        raise ConfigError("theory mode requires an rng for the fresh corruption draws")
    if row.input.on_intersect and lambda_dist is None:
        raise ConfigError("theory mode for a Lambda ∩ Omega input requires lambda_dist")
    lam, ntilde = second_level_draws(rngs, *arr.shape,
                                     lambda_dist if row.input.on_intersect else None,
                                     alpha * noise_spec.sigma_n)
    _require_supported(arr, omega)
    y_in, m_in = row.input.build(arr, omega, lam, ntilde)
    return correct(est.forward_vjp_stack(theta, y_in, m_in)[0], y_in, m_in, alpha)


def reconstruct(method: str, est: Estimator, y, omega: SamplingMask, noise_spec,
                lambda_dist=None, mode: str = MODE_PRACTICAL,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Estimate of the ground truth from one measurement: the one-row case of
    ``reconstruct_rows``, with ``rng`` the row's generator (theory mode)."""
    arr = as_kspace(y, omega.q)
    return reconstruct_rows(method, est, arr[None], omega.member[None], noise_spec,
                            lambda_dist, mode, None if rng is None else [rng])[0]
