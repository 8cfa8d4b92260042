"""Complex Gaussian noise and the further-noised network inputs."""

import numpy as np
import pytest

from kslab import methods as M
from kslab.errors import ConfigError, ValidationError
from kslab.estimators import AffinePerPattern
from kslab.inference import MODE_PRACTICAL, MODE_THEORY, reconstruct
from kslab.kspace import SamplingMask, apply_mask, full_mask
from kslab.noise import NoiseSpec, complex_gaussian
from kslab.rng import stream
from kslab.synthetic import model_preset
from kslab.training import TrainSpec


def test_noise_spec_validation():
    NoiseSpec(0.0, 1.0)  # noiseless simulations allowed
    with pytest.raises(ValidationError):
        NoiseSpec(-0.1, 1.0)
    with pytest.raises(ValidationError):
        NoiseSpec(1.0, 0.0)
    with pytest.raises(ValidationError, match="^sigma_n must be "):
        NoiseSpec(True, 1.0)
    with pytest.raises(ValidationError, match="^alpha must be "):
        NoiseSpec(0.3, True)


@pytest.mark.parametrize("sigma_n, alpha, field", [
    (1e160, 1.0, "sigma_n"),
    (0.3, 1e200, "alpha"),
    (0.3, 1e-170, "alpha"),
    (0.3, 1e-160, "alpha"),
])
def test_noise_rules_reject_a_square_outside_the_float_range(sigma_n, alpha, field):
    """sigma_n^2 must be finite and alpha^2 a finite normal float: the noise
    variances and the weight 1 / alpha^2 are formed from them. NoiseSpec and
    TrainSpec check by the same rules; the squares just inside pass."""
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        NoiseSpec(sigma_n, alpha)
    if field == "alpha":
        with pytest.raises(ConfigError, match="^alpha must be "):
            TrainSpec(method=M.ROBUST_SSDU, alpha=alpha)
    NoiseSpec(1e154, 1e154)
    NoiseSpec(0.0, 1.5e-154)


def test_add_noise_moments():
    rng = stream(1, "mc")
    n = 1_000_000
    sigma = 0.7
    noise = complex_gaussian(n, sigma, rng)
    var = np.mean(np.abs(noise) ** 2)
    assert abs(var - sigma ** 2) <= 0.01 * sigma ** 2
    se = sigma / np.sqrt(2 * n)
    assert abs(noise.real.mean()) <= 3 * se
    assert abs(noise.imag.mean()) <= 3 * se


def test_noise_channels_uncorrelated():
    rng = stream(2, "corr")
    n = 500_000
    noise = complex_gaussian(n, 1.0, rng)
    corr = np.mean(noise.real * noise.imag) / 0.5  # channel variance is 1/2
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_corrupt_noisier2full_support_and_variance():
    q, n = 8, 20_000
    omega = SamplingMask.from_indices(q, [0, 2, 5], np.full(q, 0.5))
    spec = NoiseSpec(0.5, 1.2)
    y = apply_mask(omega, np.ones(q, dtype=complex))
    ntilde = complex_gaussian((n, q), spec.alpha * spec.sigma_n, stream(4, "c"))
    out, member = M.OMEGA_NOISED.build(np.tile(y, (n, 1)), np.tile(omega.member, (n, 1)),
                                       None, ntilde)
    assert np.array_equal(member, np.tile(omega.member, (n, 1)))
    assert np.all(out[:, ~omega.member] == 0.0)
    var = np.mean(np.abs(out[:, omega.member] - y[omega.member]) ** 2)
    target = (spec.alpha * spec.sigma_n) ** 2
    assert abs(var - target) <= 0.01 * target


def test_corrupt_noisier2full_tiny_alpha_limit():
    q = 4
    omega = full_mask(q)
    y = np.ones(q, dtype=complex)
    ntilde = complex_gaussian(q, 1e-9 * 0.5, stream(5, "a"))
    out, _ = M.OMEGA_NOISED.build(y, omega.member, None, ntilde)
    assert np.abs(out - y).max() < 1e-8


def test_corrupt_rejects_unsupported_measurements():
    """Both modes reject data that is nonzero off the sampling set."""
    model = model_preset("banded", sigma_n=0.1, alpha=1.0)
    q = model.q
    omega = SamplingMask.from_indices(q, [0], np.full(q, 0.5))
    est = AffinePerPattern(q)
    est.ensure_pattern(omega)
    y = np.ones(q, dtype=complex)  # nonzero off omega
    for mode in (MODE_THEORY, MODE_PRACTICAL):
        for method in (M.NOISIER2FULL, M.ROBUST_SSDU):
            with pytest.raises(ValidationError, match="off the sampling set"):
                reconstruct(method, est, y, omega, model.noise, model.lambda_dist,
                            mode, stream(6, "b"))


def test_corrupt_robust_ssdu_support_and_variance():
    q, n = 8, 30_000
    omega = SamplingMask.from_indices(q, [0, 1, 4, 6], np.full(q, 0.5))
    lam = SamplingMask.from_indices(q, [1, 4, 7], np.full(q, 0.5))
    spec = NoiseSpec(0.4, 0.75)
    y = apply_mask(omega, (1 + 1j) * np.ones(q))
    inter = omega.member & lam.member
    ntilde = complex_gaussian((n, q), spec.alpha * spec.sigma_n, stream(7, "r"))
    out, member = M.INTERSECT_NOISED.build(y, omega.member, lam.member, ntilde)
    assert np.array_equal(member, inter)
    assert np.all(out[:, ~inter] == 0.0)
    var = np.mean(np.abs(out[:, inter] - y[inter]) ** 2)
    target = (spec.alpha * spec.sigma_n) ** 2
    assert abs(var - target) <= 0.01 * target


def test_corrupt_robust_ssdu_full_lambda_tiny_alpha():
    q = 5
    omega = full_mask(q)
    y = (2 - 1j) * np.ones(q, dtype=complex)
    ntilde = complex_gaussian(q, 1e-9 * 0.3, stream(8, "t"))
    out, member = M.INTERSECT_NOISED.build(y, omega.member, full_mask(q).member, ntilde)
    assert np.array_equal(member, omega.member)
    assert np.abs(out - y).max() < 1e-8
