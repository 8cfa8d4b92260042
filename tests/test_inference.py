"""Correction operators and the reconstruction dispatch, one item or a stack of rows."""

import numpy as np
import pytest

from kslab import methods as M
from kslab.errors import ConfigError, DimensionError, ValidationError
from kslab.estimators import (AffinePerPattern, PatternFallbackWarning, TinyNet, ToyCascade,
                              closed_form_affine_fit)
from kslab.inference import MODE_PRACTICAL, MODE_THEORY, correct, reconstruct, reconstruct_rows
from kslab.kspace import SamplingMask, apply_mask, full_mask, mask_algebra
from kslab.noise import NoiseSpec, complex_gaussian
from kslab.rng import stream, streams
from kslab.synthetic import model_preset
from kslab.training import make_train_item


def rand_vec(q, seed):
    rng = stream(seed, "v")
    return rng.standard_normal(q) + 1j * rng.standard_normal(q)


def test_correction_fixpoint():
    q = 4
    omega = SamplingMask.from_indices(q, [0, 2], np.full(q, 0.5))
    v = rand_vec(q, 0)
    out = correct(v, v, omega.member, 1.0)
    # ((1+a^2) v - v)/a^2 = v on the corrected set
    assert np.allclose(out, v)


def test_correction_pass_through_bit_for_bit():
    q = 5
    omega = SamplingMask.from_indices(q, [1, 2], np.full(q, 0.5))
    f = rand_vec(q, 1)
    out = correct(f, rand_vec(q, 2), omega.member, 0.7)
    off = ~np.asarray(omega.member)
    assert np.array_equal(out[off], f[off])


def test_correction_scalar_composition():
    # f* coefficient 2/3 corrects to the clean posterior coefficient 1/3
    alpha = 1.0
    f_out = np.array([2.0 / 3.0 + 0j])
    y_in = np.array([1.0 + 0j])
    out = correct(f_out, y_in, full_mask(1).member, alpha)
    assert np.isclose(out[0], 1.0 / 3.0)


def test_correction_rejects_zero_alpha():
    with pytest.raises(ValidationError):
        correct(np.zeros(2, dtype=complex), np.zeros(2, dtype=complex),
                full_mask(2).member, 0.0)


def test_robust_theory_full_lambda_matches_noisier2full():
    """With Lambda covering everything, robust ssdu's theory-mode input and
    corrected set are those of noisier2full, so the estimates agree."""
    q = 6
    omega = SamplingMask.from_indices(q, [0, 3, 5], np.full(q, 0.5))
    y = apply_mask(omega, rand_vec(q, 4))
    ntilde = rand_vec(q, 7)
    f = rand_vec(q, 3)
    a_in, a_set = M.row(M.ROBUST_SSDU).input.build(y, omega.member, full_mask(q).member, ntilde)
    b_in, b_set = M.row(M.NOISIER2FULL).input.build(y, omega.member, None, ntilde)
    assert np.array_equal(a_in, b_in) and np.array_equal(a_set, b_set)
    assert np.array_equal(correct(f, a_in, a_set, 0.8), correct(f, b_in, b_set, 0.8))


def test_robust_theory_corrects_intersection_only():
    q = 4
    omega = SamplingMask.from_indices(q, [0, 1], np.full(q, 0.5))
    lam = SamplingMask.from_indices(q, [1, 2], np.full(q, 0.5))
    f = rand_vec(q, 5)
    y_in, member = M.row(M.ROBUST_SSDU).input.build(apply_mask(omega, rand_vec(q, 6)),
                                                    omega.member, lam.member, rand_vec(q, 8))
    inter = omega.member & lam.member
    assert np.array_equal(member, inter)
    out = correct(f, y_in, member, 1.0)
    assert np.array_equal(out[~inter], f[~inter])
    assert np.allclose(out[inter], 2.0 * f[inter] - y_in[inter])


@pytest.mark.parametrize("method", [M.NOISIER2FULL, M.ROBUST_SSDU])
def test_theory_mode_draw_order(method):
    """Theory mode draws Lambda (Lambda ∩ Omega inputs only), then the
    further noise, builds the training-kind input and corrects on its support."""
    model = model_preset("banded", sigma_n=0.2, alpha=0.8)
    est = TinyNet(model.q, width_factor=1, seed=0)
    item = make_train_item(model, stream(12, "i"))
    out = reconstruct(method, est, item.y, item.omega, model.noise, model.lambda_dist,
                      MODE_THEORY, stream(13, "r"))
    rng = stream(13, "r")
    row = M.row(method)
    lam = model.lambda_dist.draw(rng) if row.input.on_intersect else None
    ntilde = complex_gaussian(model.q, model.noise.alpha * model.noise.sigma_n, rng)
    lam_member = None if lam is None else lam.member
    y_in, _ = row.input.build(item.y, item.omega.member, lam_member, ntilde)
    m_in = mask_algebra(item.omega, lam).intersect if row.input.on_intersect else item.omega
    expected = correct(est.forward(y_in, m_in), y_in, m_in.member, model.noise.alpha)
    assert np.array_equal(out, expected)


def test_practical_mode_formula():
    q = 2
    omega = SamplingMask.from_indices(q, [0], np.full(q, 0.5))
    est = AffinePerPattern(q)
    a_mat = np.array([[0.5, 0.1], [0.0, 0.25]], dtype=complex)
    est.set_blocks(omega.member[None], a_mat[None], np.zeros((1, q), dtype=complex))
    y = np.array([1.0 + 1j, 0.0 + 0j])
    alpha = 0.5
    spec = NoiseSpec(0.1, alpha)
    out = reconstruct(M.ROBUST_SSDU, est, y, omega, spec, mode=MODE_PRACTICAL)
    f = a_mat @ y
    expected = f.copy()
    expected[0] = ((1 + alpha ** 2) * f[0] - y[0]) / alpha ** 2
    assert np.allclose(out, expected)


def test_uncorrected_methods_pass_through():
    model = model_preset("banded", sigma_n=0.2, alpha=1.0)
    est = TinyNet(model.q, width_factor=1, seed=0)
    item = make_train_item(model, stream(7, "i"))
    for method in (M.FULLY_SUPERVISED, M.SUPERVISED_WO_DENOISING,
                   M.STANDARD_SSDU, M.NOISE2RECON_SS):
        out = reconstruct(method, est, item.y, item.omega, model.noise,
                          model.lambda_dist, MODE_PRACTICAL)
        assert np.array_equal(out, est.forward(item.y, item.omega))


def test_theory_mode_requires_rng():
    model = model_preset("banded", sigma_n=0.2, alpha=1.0)
    est = TinyNet(model.q, width_factor=1, seed=0)
    item = make_train_item(model, stream(8, "i"))
    with pytest.raises(ConfigError):
        reconstruct(M.NOISIER2FULL, est, item.y, item.omega, model.noise,
                    model.lambda_dist, MODE_THEORY, rng=None)
    with pytest.raises(ConfigError, match="lambda_dist"):
        reconstruct(M.ROBUST_SSDU, est, item.y, item.omega, model.noise,
                    None, MODE_THEORY, stream(8, "r"))


def test_theory_mode_robust_runs_and_is_seeded():
    model = model_preset("banded", sigma_n=0.2, alpha=1.0)
    est = TinyNet(model.q, width_factor=1, seed=0)
    item = make_train_item(model, stream(9, "i"))
    a = reconstruct(M.ROBUST_SSDU, est, item.y, item.omega, model.noise,
                    model.lambda_dist, MODE_THEORY, stream(10, "r"))
    b = reconstruct(M.ROBUST_SSDU, est, item.y, item.omega, model.noise,
                    model.lambda_dist, MODE_THEORY, stream(10, "r"))
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_unknown_mode_rejected():
    model = model_preset("scalar", sigma_n=0.1, alpha=1.0)
    est = AffinePerPattern(1)
    est.ensure_pattern(full_mask(1))
    with pytest.raises(ConfigError):
        reconstruct(M.ROBUST_SSDU, est, np.zeros(1, dtype=complex), full_mask(1),
                    model.noise, model.lambda_dist, "hybrid")


def test_composed_population_estimate_matches_clean_posterior():
    """Fitted optimum plus correction equals the clean conditional mean."""
    from kslab.oracles import (COND_ON_YTILDE, TARGET_Y0, gaussian_conditional_mean)

    model = model_preset("banded", sigma_n=0.4, alpha=0.75)
    pattern = SamplingMask.from_indices(
        8, [2, 3, 4, 6], model.omega_probs() * model.lambda_probs())
    est = closed_form_affine_fit(model, M.ROBUST_SSDU, pattern)
    y_tilde = apply_mask(pattern, rand_vec(8, 11))
    f = est.forward(y_tilde, pattern)
    corrected = correct(f, y_tilde, pattern.member, model.noise.alpha)
    target = gaussian_conditional_mean(model, pattern, TARGET_Y0, COND_ON_YTILDE) @ y_tilde
    assert np.abs(corrected - target).max() < 1e-10


def _test_set(model, n, seed):
    from kslab.training import build_dataset

    return build_dataset(model, n, seed, label=("test", "rows"))


def _one_item(method, est, y, omega, model, rng=None):
    """One item's estimate from the primitives: the further-noised methods
    get a fresh training-kind input in theory mode and are corrected."""
    row = M.row(method)
    if not row.input.further_noise:
        return est.forward(y, omega)
    if rng is None:  # practical mode
        return correct(est.forward(y, omega), y, omega.member, model.noise.alpha)
    lam = model.lambda_dist.draw(rng) if row.input.on_intersect else None
    ntilde = complex_gaussian(model.q, model.noise.alpha * model.noise.sigma_n, rng)
    y_in, _ = row.input.build(y, omega.member, None if lam is None else lam.member, ntilde)
    m_in = mask_algebra(omega, lam).intersect if row.input.on_intersect else omega
    return correct(est.forward(y_in, m_in), y_in, m_in.member, model.noise.alpha)


@pytest.mark.parametrize("method", M.ALL_METHODS)
def test_reconstruct_rows_practical_equals_per_item_loop(method):
    model = model_preset("banded", sigma_n=0.2, alpha=0.8)
    est = TinyNet(model.q, width_factor=2, seed=3)
    test = _test_set(model, 40, 21)
    rows = reconstruct_rows(method, est, test.y, test.omega, model.noise, model.lambda_dist,
                            MODE_PRACTICAL)
    items = [test[i] for i in range(len(test))]
    assert np.array_equal(rows, np.stack([
        reconstruct(method, est, it.y, it.omega, model.noise, model.lambda_dist,
                    MODE_PRACTICAL) for it in items]))
    assert np.array_equal(rows, np.stack([_one_item(method, est, it.y, it.omega, model)
                                          for it in items]))


@pytest.mark.parametrize("method", [M.ROBUST_SSDU, M.NOISIER2FULL])
def test_reconstruct_rows_theory_equals_per_item_loop(method):
    """Each row draws its Lambda and further noise from its own substream,
    in the order of the per-item loop."""
    model = model_preset("banded", sigma_n=0.3, alpha=0.75)
    est = ToyCascade(model.q, cascades=2, seed=1)
    test = _test_set(model, 30, 22)
    rows = reconstruct_rows(method, est, test.y, test.omega, model.noise, model.lambda_dist,
                            MODE_THEORY, streams(5, "recon", "tag", count=len(test)))
    items = [test[i] for i in range(len(test))]
    assert np.array_equal(rows, np.stack([
        reconstruct(method, est, it.y, it.omega, model.noise, model.lambda_dist, MODE_THEORY,
                    stream(5, "recon", "tag", i)) for i, it in enumerate(items)]))
    assert np.array_equal(rows, np.stack([
        _one_item(method, est, it.y, it.omega, model, stream(5, "recon", "tag", i))
        for i, it in enumerate(items)]))
    with pytest.raises(ValueError):  # one generator per row
        reconstruct_rows(method, est, test.y, test.omega, model.noise, model.lambda_dist,
                         MODE_THEORY, streams(5, "recon", "tag", count=len(test) - 1))


def test_reconstruct_rows_rejects_memberships_of_another_shape():
    model = model_preset("banded", sigma_n=0.2, alpha=0.8)
    test = _test_set(model, 4, 23)
    with pytest.raises(DimensionError, match=r"memberships \(3, 8\) do not match the data "
                                             r"\(4, 8\)"):
        reconstruct_rows(M.ROBUST_SSDU, TinyNet(model.q), test.y, test.omega[:3], model.noise)


def test_reconstruct_rows_affine_with_fallback_equals_per_item_loop():
    """Rows with an enrolled pattern use its map; the others fall back to the
    nearest enrolled one, with the warning of the per-item path."""
    model = model_preset("banded", sigma_n=0.2, alpha=1.0)
    test = _test_set(model, 24, 23)
    est = AffinePerPattern(model.q)
    for i in range(0, len(test), 3):
        closed_form_affine_fit(model, M.ROBUST_SSDU, test[i].omega, into=est)
    with pytest.warns(PatternFallbackWarning):
        rows = reconstruct_rows(M.ROBUST_SSDU, est, test.y, test.omega, model.noise,
                                model.lambda_dist, MODE_PRACTICAL)
    with pytest.warns(PatternFallbackWarning):
        expected = np.stack([_one_item(M.ROBUST_SSDU, est, test[i].y, test[i].omega, model)
                             for i in range(len(test))])
    assert np.array_equal(rows, expected)


def test_reconstruct_rows_broadcasts_theta_without_a_copy():
    """The parameter rows are a stride-0 view of theta, also inside the network."""
    model = model_preset("banded", sigma_n=0.2, alpha=1.0)
    est = TinyNet(model.q, width_factor=1, seed=0)
    theta = np.broadcast_to(est.theta, (50, est.theta.shape[0]))
    w, _, _ = est.mlp._layers(theta)[0]
    assert w.strides[0] == 0 and np.shares_memory(w, est.theta)
