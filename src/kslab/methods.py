"""The method table: what each training method feeds the network and what it fits.

The methods differ in four things only: the network input (its support,
Omega or Lambda ∩ Omega, and whether it carries the further noise ntilde),
the target, and the loss weight. Noise2Recon-SS also adds a consistency
term between its input and a second one. A method applies the additive
alpha-based correction at inference exactly when its input carries ntilde.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .kspace import SamplingMask, mask_algebra

FULLY_SUPERVISED = "fully_supervised"
SUPERVISED_WO_DENOISING = "supervised_wo_denoising"
NOISIER2FULL = "noisier2full"
NOISIER2FULL_UNWEIGHTED = "noisier2full_unweighted"
STANDARD_SSDU = "standard_ssdu"
NOISE2RECON_SS = "noise2recon_ss"
ROBUST_SSDU = "robust_ssdu"
ROBUST_SSDU_UNWEIGHTED = "robust_ssdu_unweighted"

# targets
TARGET_Y0 = "y0"                # ground truth
TARGET_Y0_PLUS_N = "y0_plus_n"  # fully sampled noisy data
TARGET_Y = "y"                  # the measured data itself

# loss weights W (the loss is sum_j W_jj^2 |f_j - t_j|^2)
WEIGHT_ONE = "one"
WEIGHT_NOISIER2FULL = "weight_noisier2full"
WEIGHT_ROBUST_SSDU = "weight_robust_ssdu"
WEIGHT_HELD_OUT = "omega_minus_lambda"  # 1 on Omega \ Lambda
WEIGHT_OMEGA = "omega"                  # 1 on Omega


class Input(NamedTuple):
    """A network input: its support and whether it carries the further noise."""

    on_intersect: bool   # supported on Lambda ∩ Omega, else on Omega
    further_noise: bool  # carries ntilde

    def build(self, y, omega, lam, ntilde) -> tuple[np.ndarray, np.ndarray]:
        """The input and its support from membership arrays.

        Works row by row, on one item (q,) or a stack of draws (n, q). ``y``
        is measured data, zero off ``omega``; ``lam`` is read only for
        Lambda ∩ Omega inputs and ``ntilde`` only for noisy ones.
        """
        if not self.on_intersect:
            return (y + np.where(omega, ntilde, 0.0 + 0.0j) if self.further_noise else y), omega
        member = omega & lam
        return np.where(member, y + ntilde if self.further_noise else y, 0.0 + 0.0j), member

    def build_masked(self, y, omega: SamplingMask, lam: SamplingMask | None,
                     ntilde) -> tuple[np.ndarray, SamplingMask]:
        """``build`` for one item, with the support as the mask the estimator keys on."""
        y_in, _ = self.build(y, omega.member, None if lam is None else lam.member, ntilde)
        return y_in, mask_algebra(omega, lam).intersect if self.on_intersect else omega


OMEGA = Input(False, False)
OMEGA_NOISED = Input(False, True)
INTERSECT = Input(True, False)
INTERSECT_NOISED = Input(True, True)


class Method(NamedTuple):
    """One row of the method table."""

    input: Input
    target: str
    weight: str
    consistency: Input | None = None  # Noise2Recon-SS: also match f(this input) to f(input)


METHODS = {
    FULLY_SUPERVISED: Method(OMEGA, TARGET_Y0, WEIGHT_ONE),
    SUPERVISED_WO_DENOISING: Method(OMEGA, TARGET_Y0_PLUS_N, WEIGHT_ONE),
    NOISIER2FULL: Method(OMEGA_NOISED, TARGET_Y0_PLUS_N, WEIGHT_NOISIER2FULL),
    NOISIER2FULL_UNWEIGHTED: Method(OMEGA_NOISED, TARGET_Y0_PLUS_N, WEIGHT_ONE),
    STANDARD_SSDU: Method(INTERSECT, TARGET_Y, WEIGHT_HELD_OUT),
    NOISE2RECON_SS: Method(INTERSECT, TARGET_Y, WEIGHT_HELD_OUT, consistency=OMEGA_NOISED),
    ROBUST_SSDU: Method(INTERSECT_NOISED, TARGET_Y, WEIGHT_ROBUST_SSDU),
    ROBUST_SSDU_UNWEIGHTED: Method(INTERSECT_NOISED, TARGET_Y, WEIGHT_OMEGA),
}

ALL_METHODS = tuple(METHODS)

# Methods with a population-minimizer proof (all but Noise2Recon-SS).
PROOF_BACKED_METHODS = tuple(m for m in ALL_METHODS if m != NOISE2RECON_SS)


def row(method: str) -> Method:
    """The table row of a method; ConfigError for an unknown name."""
    try:
        return METHODS[method]
    except KeyError:
        raise ConfigError(f"unknown method {method!r}") from None
