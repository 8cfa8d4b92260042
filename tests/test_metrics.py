"""NMSE and SSIM behavior; the row functions equal their one-row cases bit for bit."""

import numpy as np
import pytest

from kslab.errors import DimensionError, ValidationError
from kslab.kspace import dft_matrix
from kslab.kspace import magnitude_image
from kslab.metrics import (SSIM_K1, SSIM_K2, SSIM_WINDOW, mean_and_se, nmse, nmse_rows, ssim,
                           ssim_rows)
from kslab.rng import stream


def test_nmse_trivial_cases():
    ref = np.array([1 + 1j, 2.0, -3j])
    assert nmse(ref, ref) == 0.0
    assert nmse(np.zeros(3, dtype=complex), ref) == 1.0


def test_nmse_scale_invariance():
    rng = stream(0, "n")
    est = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ref = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    c = 3.7 - 0.2j
    assert np.isclose(nmse(c * est, c * ref), nmse(est, ref))


def test_nmse_zero_reference_rejected():
    with pytest.raises(ValidationError):
        nmse(np.ones(3, dtype=complex), np.zeros(3, dtype=complex))


def test_nmse_length_mismatch():
    with pytest.raises(DimensionError):
        nmse(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


def test_ssim_identical_images():
    rng = stream(1, "s")
    img = rng.random(32)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_symmetry():
    rng = stream(2, "s")
    for _ in range(5):
        a, b = rng.random(20), rng.random(20)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_constant_images_luminance_term():
    l1, l2 = 0.8, 0.3
    a = np.full(16, l1)
    b = np.full(16, l2)
    dyn = max(l1, l2)
    c1 = (SSIM_K1 * dyn) ** 2
    expected = (2 * l1 * l2 + c1) / (l1 ** 2 + l2 ** 2 + c1)
    assert ssim(a, b) == pytest.approx(expected, rel=1e-12)


def test_ssim_at_most_one_and_one_iff_identical():
    rng = stream(3, "s")
    for _ in range(10):
        a, b = rng.random(24), rng.random(24)
        score = ssim(a, b)
        assert score <= 1.0
        assert score < 1.0 - 1e-12  # random pairs differ
    a = rng.random(24)
    assert ssim(a, a.copy()) > 1.0 - 1e-12


def test_ssim_2d_mode():
    rng = stream(4, "s")
    a = rng.random((10, 10))
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)
    b = rng.random((10, 10))
    assert ssim(a, b) < 1.0


def test_ssim_shape_mismatch():
    with pytest.raises(DimensionError):
        ssim(np.ones(4), np.ones(5))


def test_ssim_rejects_negative():
    with pytest.raises(ValidationError):
        ssim(np.array([-0.1, 0.5]), np.array([0.2, 0.3]))


def test_mean_aggregation_matches_per_item_average():
    rng = stream(5, "agg")
    refs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(7)]
    ests = [r + 0.1 * rng.standard_normal(6) for r in refs]
    per_item = [nmse(e, r) for e, r in zip(ests, refs)]
    mean, se = mean_and_se(per_item)
    assert mean == pytest.approx(np.mean(per_item))
    assert se == pytest.approx(np.std(per_item, ddof=1) / np.sqrt(len(per_item)))


def _rows_cases():
    rng = stream(6, "rows")
    one_d = rng.random((40, 8))
    two_d = rng.random((12, 16, 16))
    small = rng.random((9, 5))  # smaller than the 7-wide window
    small_2d = rng.random((6, 4, 3))
    for imgs in (one_d, two_d, small, small_2d):
        other = imgs + 0.3 * rng.random(imgs.shape)
        other[0] = imgs[0]
        imgs[1] = other[1] = 0.0  # both images zero: ssim = 1.0
        # faint images with one bright corner against dark ones: c1 weighs on
        # most windows, and (K1 * 1.121) ** 2 in Python floats differs from
        # NumPy's square of the same product
        imgs[2:6] *= 0.02
        other[2:6] = 0.0
        imgs.reshape(len(imgs), -1)[2:6, 0] = 1.121
        other.reshape(len(imgs), -1)[2:6, 0] = 0.5
        yield imgs, other


@pytest.mark.parametrize("case", range(4))
def test_ssim_rows_equal_ssim_per_row_bit_for_bit(case):
    a, b = list(_rows_cases())[case]
    rows = ssim_rows(a, b)
    assert np.array_equal(rows, np.array([ssim(x, y) for x, y in zip(a, b)]))
    assert rows[1] == 1.0 and rows[0] == pytest.approx(1.0, abs=1e-12)


def _reference_ssim(a, b):
    """The windowed formula with explicit per-window slices."""
    w = min(SSIM_WINDOW, min(a.shape))
    if a.ndim == 1:
        wa = np.stack([a[i:i + w] for i in range(a.shape[0] - w + 1)])
        wb = np.stack([b[i:i + w] for i in range(b.shape[0] - w + 1)])
    else:
        wa, wb = (np.stack([img[i:i + w, j:j + w].ravel()
                            for i in range(img.shape[0] - w + 1)
                            for j in range(img.shape[1] - w + 1)]) for img in (a, b))
    dyn = max(float(a.max()), float(b.max()))
    c1, c2 = (SSIM_K1 * dyn) ** 2, (SSIM_K2 * dyn) ** 2
    mu_a, mu_b = wa.mean(axis=1), wb.mean(axis=1)
    cov = ((wa - mu_a[:, None]) * (wb - mu_b[:, None])).mean(axis=1)
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (wa.var(axis=1) + wb.var(axis=1) + c2))
    return float(score.mean())


def test_ssim_windows_match_explicit_slices_bit_for_bit():
    for a, b in _rows_cases():
        got = ssim_rows(a, b)
        assert got[1] == 1.0  # both images zero
        assert all(got[i] == _reference_ssim(a[i], b[i]) for i in range(len(a)) if i != 1)


def test_nmse_rows_equal_nmse_per_row_bit_for_bit():
    rng = stream(7, "rows")
    for q in (8, 256):
        est = rng.standard_normal((30, q)) + 1j * rng.standard_normal((30, q))
        ref = rng.standard_normal((30, q)) + 1j * rng.standard_normal((30, q))
        rows = nmse_rows(est, ref)
        assert np.array_equal(rows, np.array([nmse(e, r) for e, r in zip(est, ref)]))
    with pytest.raises(ValidationError):
        nmse_rows(np.ones((2, 3), dtype=complex), np.zeros((2, 3), dtype=complex))
    with pytest.raises(DimensionError):
        nmse_rows(np.ones((2, 3), dtype=complex), np.ones((2, 4), dtype=complex))


@pytest.mark.parametrize("q,shape", [(8, None), (256, (16, 16))])
def test_magnitude_image_rows_equal_per_item_bit_for_bit(q, shape):
    rng = stream(8, "rows", q)
    k = rng.standard_normal((25, q)) + 1j * rng.standard_normal((25, q))
    k[3] = 0.0
    rows = magnitude_image(k, shape)
    assert rows.shape == (25,) + ((q,) if shape is None else shape)
    assert np.array_equal(rows, np.stack([magnitude_image(v, shape) for v in k]))
    # the per-item reference formula of the unitary inverse DFT
    if shape is None:
        expected = np.stack([np.abs(np.conj(dft_matrix(q)) @ v) for v in k])
    else:
        fx = np.conj(dft_matrix(shape[0]))
        expected = np.stack([np.abs(fx @ v.reshape(shape) @ fx.T) for v in k])
    assert np.array_equal(rows, expected)
