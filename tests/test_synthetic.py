"""Synthetic measurement models and ground-truth generators."""

import json

import numpy as np
import pytest

from kslab.errors import ConfigError, ValidationError
from kslab.noise import NoiseSpec
from kslab.rng import stream
from kslab.sampling import MaskDistribution
from kslab.synthetic import (
    MeasurementModel,
    banded_prior_cov,
    diagonal_prior_variances,
    gaussian_ground_truth,
    load_prior_cov,
    model_preset,
)


def small_model(cov, sigma_n=0.2, alpha=1.0):
    q = cov.shape[0]
    omega = MaskDistribution("column_polynomial", q, 1.5, 0, 2.0)
    lam = MaskDistribution("column_polynomial", q, 2.0, 0, 2.0)
    return MeasurementModel(cov, NoiseSpec(sigma_n, alpha), omega, lam)


def test_model_rejects_non_hermitian():
    cov = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError):
        small_model(cov)


def test_model_rejects_indefinite():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    with pytest.raises(ValidationError):
        small_model(cov)


def test_model_rejects_mask_condition_violation():
    # ptilde = 1 at an undersampled index
    omega = MaskDistribution("column_polynomial", 4, 2.0, 0, 2.0)
    lam = MaskDistribution("column_polynomial", 4, 1.0, 0, 2.0)
    with pytest.raises(ValidationError):
        MeasurementModel(np.eye(4, dtype=complex), NoiseSpec(0.1, 1.0), omega, lam)


def test_gaussian_zero_covariance():
    model = small_model(np.zeros((3, 3), dtype=complex))
    out = gaussian_ground_truth(model, stream(0, "g"))
    assert np.array_equal(out, np.zeros(3, dtype=complex))


def test_gaussian_diagonal_moments():
    variances = np.array([1.0, 0.25, 4.0, 0.5])
    model = small_model(np.diag(variances).astype(complex))
    rng = stream(1, "diag")
    n = 100_000
    acc = np.zeros(4)
    for _ in range(n // 1000):
        draws = np.stack([gaussian_ground_truth(model, rng) for _ in range(1000)])
        acc += np.sum(np.abs(draws) ** 2, axis=0)
    acc /= n
    assert np.abs(acc / variances - 1.0).max() <= 0.02


def test_gaussian_correlated_covariance():
    cov = banded_prior_cov(4)
    model = small_model(cov)
    rng = stream(2, "corr")
    n = 60_000
    acc = np.zeros((4, 4), dtype=complex)
    for _ in range(n):
        d = gaussian_ground_truth(model, rng)
        acc += np.outer(d, np.conj(d))
    acc /= n
    # entrywise within 3 standard errors; for Gaussian entries the SE of a
    # covariance entry is bounded by sqrt(var_i * var_j / n)
    se = np.sqrt(np.outer(np.diag(cov).real, np.diag(cov).real) / n)
    assert np.all(np.abs(acc - cov) <= 3 * se + 1e-12)


@pytest.mark.parametrize("name,q", [("scalar", 1), ("diagonal", 16), ("banded", 8)])
def test_presets_build(name, q):
    model = model_preset(name, sigma_n=0.1, alpha=1.0)
    assert model.q == q
    assert np.all(np.linalg.eigvalsh(model.prior_cov) >= -1e-10)


def test_bernoulli2d_preset():
    model = model_preset("bernoulli2d", sigma_n=0.05, alpha=0.5)
    assert model.q == 256
    assert model.shape == (16, 16)
    assert model.lambda_dist.target_accel == 1.5
    assert model_preset("bernoulli2d", sigma_n=0.05, alpha=0.5, q=64).shape == (8, 8)
    with pytest.raises(ConfigError):
        model_preset("bernoulli2d", sigma_n=0.05, alpha=0.5, q=200)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        model_preset("mystery", sigma_n=0.1, alpha=1.0)


def test_load_prior_cov(tmp_path):
    cov = banded_prior_cov(3)
    payload = [[[float(z.real), float(z.imag)] for z in row] for row in cov]
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(payload))
    loaded = load_prior_cov(path)
    assert np.allclose(loaded, cov)


def test_diagonal_variances_decay_from_center():
    v = diagonal_prior_variances(9)
    center = np.argmax(v)
    assert center == 4
    assert v[0] < v[4] and v[-1] < v[4]
