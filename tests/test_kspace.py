"""Core k-space vector, mask, and DFT behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.errors import DimensionError, ValidationError
from kslab.kspace import (
    SamplingMask,
    apply_mask,
    as_kspace,
    dft_matrix,
    full_mask,
    kspace_to_json,
    magnitude_image,
    mask_algebra,
)
from kslab.rng import stream


def random_vector(q, seed=0):
    rng = stream(seed, "vec")
    return rng.standard_normal(q) + 1j * rng.standard_normal(q)


def dft(v, inverse=False):
    """The unitary DFT (or its inverse) of a vector, by the matrix that
    ``magnitude_image`` and the banded prior apply."""
    f = dft_matrix(len(v))
    return (np.conj(f) if inverse else f) @ v


def test_apply_mask_full_and_empty():
    v = random_vector(5)
    assert np.array_equal(apply_mask(full_mask(5), v), v)
    empty = SamplingMask(np.zeros(5, dtype=bool), np.zeros(5))
    assert np.array_equal(apply_mask(empty, v), np.zeros(5, dtype=complex))


def test_apply_mask_definition():
    v = np.array([1 + 1j, 2 + 0j, 5j])
    mask = SamplingMask.from_indices(3, [0, 2], np.full(3, 0.5))
    out = apply_mask(mask, v)
    assert np.array_equal(out, np.array([1 + 1j, 0, 5j]))


def test_apply_mask_idempotent():
    v = random_vector(16, seed=3)
    rng = stream(4, "mask")
    member = rng.random(16) < 0.5
    mask = SamplingMask(member, np.full(16, 0.5))
    once = apply_mask(mask, v)
    assert np.array_equal(apply_mask(mask, once), once)


def test_apply_mask_length_mismatch():
    with pytest.raises(DimensionError):
        apply_mask(full_mask(4), random_vector(5))


def test_mask_algebra_sets():
    omega = SamplingMask.from_indices(2, [0, 1], [0.5, 0.5])
    lam = SamplingMask.from_indices(2, [0], [0.5, 0.5])
    alg = mask_algebra(omega, lam)
    assert alg.intersect.indices == (0,)
    assert alg.omega_minus_lambda.indices == (1,)


def test_mask_algebra_full_lambda():
    omega = SamplingMask.from_indices(6, [1, 3], np.full(6, 0.4))
    lam = full_mask(6)
    alg = mask_algebra(omega, lam)
    assert alg.omega_minus_lambda.indices == ()
    assert alg.intersect.indices == omega.indices


def test_mask_algebra_partition_identity():
    rng = stream(9, "alg")
    for trial in range(20):
        q = 12
        omega = SamplingMask(rng.random(q) < 0.6, np.full(q, 0.6))
        lam = SamplingMask(rng.random(q) < 0.5, np.full(q, 0.5))
        v = random_vector(q, seed=trial)
        alg = mask_algebra(omega, lam)
        lhs = apply_mask(alg.omega_minus_lambda, v) + apply_mask(alg.intersect, v)
        assert np.array_equal(lhs, apply_mask(omega, v))


def test_mask_algebra_derived_probs():
    omega = SamplingMask.from_indices(2, [0], [0.8, 0.4])
    lam = SamplingMask.from_indices(2, [1], [0.5, 0.25])
    alg = mask_algebra(omega, lam)
    assert np.allclose(alg.intersect.probs, [0.4, 0.1])
    assert np.allclose(alg.omega_minus_lambda.probs, [0.4, 0.3])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), q=st.integers(1, 16))
def test_mask_algebra_partition_property(data, q):
    """Omega ∩ Lambda and Omega \\ Lambda are disjoint and together make
    Omega, with probabilities p * ptilde and p * (1 - ptilde)."""
    def draw(elements):
        return np.array(data.draw(st.lists(elements, min_size=q, max_size=q)))

    omega = SamplingMask(draw(st.booleans()), draw(st.floats(0.0, 1.0)))
    lam = SamplingMask(draw(st.booleans()), draw(st.floats(0.0, 1.0)))
    alg = mask_algebra(omega, lam)
    assert not np.any(alg.intersect.member & alg.omega_minus_lambda.member)
    assert np.array_equal(alg.intersect.member | alg.omega_minus_lambda.member, omega.member)
    assert np.array_equal(alg.intersect.probs, omega.probs * lam.probs)
    assert np.array_equal(alg.omega_minus_lambda.probs, omega.probs * (1.0 - lam.probs))


def test_dft_delta_to_constant():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    out = dft(v)
    assert np.allclose(out, np.full(4, 0.5 + 0j), atol=1e-14)


@pytest.mark.parametrize("q", [1, 2, 7, 16, 64])
def test_dft_unitarity(q):
    v = random_vector(q, seed=q)
    assert abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) <= 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("q", [1, 3, 8, 64])
def test_dft_round_trip(q):
    v = random_vector(q, seed=100 + q)
    back = dft(dft(v), inverse=True)
    assert np.abs(back - v).max() <= 1e-12 * np.abs(v).max()


def test_magnitude_image_round_trip():
    rng = stream(7, "img")
    x = rng.random(12)
    k = dft(x.astype(complex))
    assert np.abs(magnitude_image(k) - x).max() < 1e-12


def test_magnitude_image_zero_and_scaling():
    assert np.array_equal(magnitude_image(np.zeros(6, dtype=complex)), np.zeros(6))
    k = random_vector(6, seed=2)
    c = -2.5 + 1.5j
    assert np.allclose(magnitude_image(c * k), abs(c) * magnitude_image(k))


def test_magnitude_image_2d_shape():
    rng = stream(8, "img2")
    x = rng.random((4, 4))
    # build 2-D k-space by transforming rows then columns with the 1-D DFT
    k = np.stack([dft(row.astype(complex)) for row in x])
    k = np.stack([dft(col) for col in k.T]).T
    img = magnitude_image(k.ravel(), shape=(4, 4))
    assert img.shape == (4, 4)
    assert np.abs(img - x).max() < 1e-12


def test_as_kspace_rejects_nonfinite():
    with pytest.raises(ValidationError):
        as_kspace(np.array([1.0, np.nan]))


def test_kspace_to_json_pairs():
    out = kspace_to_json(np.array([1.5 - 2j, complex(-0.0, 0.25), 3]))
    assert out == [[1.5, -2.0], [-0.0, 0.25], [3.0, 0.0]]
    assert all(type(x) is float for pair in out for x in pair)
    assert str(out[1][0]) == "-0.0"  # the sign of zero survives


def test_mask_json_round_trip():
    mask = SamplingMask.from_indices(4, [1, 3], [0.2, 0.4, 0.6, 0.8])
    obj = mask.to_json()
    assert obj == {"indices": [1, 3], "probs": [0.2, 0.4, 0.6, 0.8]}


def test_mask_rejects_bad_probs():
    with pytest.raises(ValidationError):
        SamplingMask(np.array([True]), np.array([1.5]))
    with pytest.raises(DimensionError):
        SamplingMask(np.array([True, False]), np.array([0.5]))


def test_mask_is_immutable():
    mask = full_mask(3)
    with pytest.raises(ValueError):
        mask.probs[0] = 0.2
