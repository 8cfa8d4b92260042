"""Conditional-mean oracles, population-minimizer checks, and MC identities."""

from itertools import product

import numpy as np
import pytest

from kslab import methods as M
from kslab.errors import ConfigError, ValidationError
from kslab.estimators import AffinePerPattern, TinyNet, closed_form_affine_fit
from kslab.kspace import SamplingMask, apply_mask, full_mask
from kslab.noise import NoiseSpec, complex_gaussian
from kslab.oracles import (
    COND_ON_Y,
    COND_ON_YTILDE,
    TARGET_Y0,
    TARGET_Y0_PLUS_N,
    DiscreteModel,
    OracleReport,
    analytic_posterior_mse,
    brute_force_conditional,
    check_appendix_identity,
    check_conditional_noise_identity,
    check_correction_algebra,
    check_correction_identity,
    check_gradient_equivalence,
    check_population_minimizer,
    draw_discrete,
    enumerate_patterns,
    gaussian_conditional_mean,
    gradient_check_model,
    input_level,
    mc_corrected_mse,
    posterior_error_trace,
    sample_patterns,
    two_point_noise_grid,
    _draw_shard,
    _gradient_moments,
    _mse_errors,
    _oracle_gradient,
)
from kslab import training
from kslab.inference import correct
from kslab.rng import stream
from kslab.sampling import MaskDistribution, compute_P
from kslab.synthetic import MeasurementModel, banded_prior_cov, model_preset
from kslab.training import TrainItem, TrainSpec, loss_and_grad


def test_conditional_mean_noiseless_identity():
    model = model_preset("banded", sigma_n=0.0, alpha=1.0)
    pattern = SamplingMask.from_indices(8, [2, 5], model.omega_probs())
    c = gaussian_conditional_mean(model, pattern, TARGET_Y0, COND_ON_Y)
    for j in (2, 5):
        row = np.zeros(8, dtype=complex)
        row[j] = 1.0
        assert np.abs(c[j] - row).max() < 1e-10


def test_conditional_mean_scalar_values():
    model = model_preset("scalar", sigma_n=1.0, alpha=1.0)
    c = gaussian_conditional_mean(model, full_mask(1), TARGET_Y0_PLUS_N, COND_ON_YTILDE)
    assert np.isclose(c[0, 0], 2.0 / 3.0)
    c = gaussian_conditional_mean(model, full_mask(1), TARGET_Y0, COND_ON_YTILDE)
    assert np.isclose(c[0, 0], 1.0 / 3.0)


def test_conditional_mean_diagonal_prior_unsampled_rows_zero():
    model = model_preset("diagonal", sigma_n=0.2, alpha=1.0)
    pattern = SamplingMask.from_indices(16, [7, 8], model.omega_probs())
    c = gaussian_conditional_mean(model, pattern, TARGET_Y0, COND_ON_Y)
    off = [j for j in range(16) if j not in (7, 8)]
    assert np.abs(c[off, :]).max() == 0.0


def test_conditional_mean_rejects_singular_block():
    q = 2
    omega = MaskDistribution("column_polynomial", q, 1.0, 0)
    lam = MaskDistribution("column_polynomial", q, 2.0, 0)
    model = MeasurementModel(np.zeros((q, q), dtype=complex), NoiseSpec(0.0, 1.0),
                             omega, lam)
    with pytest.raises(ValidationError):
        gaussian_conditional_mean(model, full_mask(q), TARGET_Y0, COND_ON_Y)


@pytest.mark.parametrize("method", M.PROOF_BACKED_METHODS)
def test_population_minimizer_all_proof_backed(method):
    model = model_preset("banded", sigma_n=0.3, alpha=0.75)
    report = check_population_minimizer(method, model)
    assert report.passed is True
    assert report.estimate <= 1e-8


def test_population_minimizer_noise2recon_descriptive():
    model = model_preset("banded", sigma_n=0.3, alpha=0.75)
    report = check_population_minimizer(M.NOISE2RECON_SS, model)
    assert report.passed is None
    assert "descriptive" in report.notes


def test_population_minimizer_standard_ssdu_marks_unconstrained():
    model = model_preset("banded", sigma_n=0.3, alpha=0.75)
    report = check_population_minimizer(M.STANDARD_SSDU, model)
    assert report.notes["unconstrained_rows"] > 0


@pytest.mark.parametrize("preset", ["scalar", "banded"])
@pytest.mark.parametrize("method", [M.NOISIER2FULL, M.ROBUST_SSDU])
def test_correction_identity(method, preset):
    model = model_preset(preset, sigma_n=0.3, alpha=0.75)
    report = check_correction_identity(method, model)
    assert report.passed is True
    assert report.estimate <= 1e-8


def test_oracle_suite_fits_each_pattern_once(monkeypatch):
    import kslab.oracles as oracles_mod

    model = model_preset("banded", sigma_n=0.3, alpha=0.75)
    fitted = []
    orig = oracles_mod.closed_form_affine_fit

    def counting_fit(model, method, pattern, into=None):
        fitted.append((method, pattern.key()))
        return orig(model, method, pattern, into=into)

    monkeypatch.setattr(oracles_mod, "closed_form_affine_fit", counting_fit)
    reports = oracles_mod.run_oracle_suite(model, seed=1, gradient_samples=200,
                                           slope_samples=2000, mse_samples=200)
    assert len(fitted) == len(set(fitted))
    expected = sum(len(enumerate_patterns(model, input_level(method)))
                   for method in M.ALL_METHODS if method != M.NOISE2RECON_SS)
    assert len(fitted) == expected
    names = [r.name for r in reports]
    assert f"correction_identity[{M.ROBUST_SSDU}]" in names
    assert f"corrected_mse[{M.NOISIER2FULL}]" in names


def test_correction_algebra_exact():
    model = model_preset("banded", sigma_n=0.5, alpha=1.25)
    report = check_correction_algebra(model)
    assert report.passed is True
    assert report.estimate <= 1e-10


def test_pattern_enumeration_probabilities_sum_to_one():
    model = model_preset("banded", sigma_n=0.3, alpha=1.0)
    for level in ("omega", "intersect"):
        pats = enumerate_patterns(model, level)
        assert np.isclose(sum(p for _, p in pats), 1.0)


def test_pattern_enumeration_cap_and_sampling():
    model = model_preset("bernoulli2d", sigma_n=0.05, alpha=0.5)
    with pytest.raises(ConfigError):
        enumerate_patterns(model, "omega")
    pats = sample_patterns(model, "omega", 8, stream(0, "p"))
    assert 1 <= len(pats) <= 8


def test_appendix_identity_report():
    report = check_appendix_identity(100, seed=5)
    assert report.passed is True
    assert report.estimate <= 1e-12


@pytest.mark.parametrize("alpha,expected_ratio", [(0.5, 0.25), (1.0, 1.0)])
def test_conditional_noise_identity_ratio(alpha, expected_ratio):
    model = model_preset("scalar", sigma_n=1.0, alpha=alpha)
    report = check_conditional_noise_identity(model, 400_000, seed=6)
    assert report.passed is True
    assert report.notes["slope_ratio"] == pytest.approx(expected_ratio, abs=0.02)


def test_conditional_noise_identity_sigma_zero():
    model = model_preset("scalar", sigma_n=0.0, alpha=1.0)
    report = check_conditional_noise_identity(model, 50_000, seed=7)
    assert report.passed is True
    assert report.notes["slope_further_noise"] == 0.0


@pytest.mark.parametrize("claim", [M.NOISIER2FULL, M.ROBUST_SSDU])
def test_gradient_equivalence_mc(claim):
    model = gradient_check_model(0.5, 0.75)
    est = AffinePerPattern(model.q)
    for pattern, _ in enumerate_patterns(model, input_level(claim)):
        est.ensure_pattern(pattern)
    est.theta = stream(8, "th", claim).standard_normal(est.theta.shape[0]) * 0.4
    report = check_gradient_equivalence(claim, est, model, 20_000, seed=9)
    assert report.passed is True
    assert report.estimate <= 3.0


def test_gradient_equivalence_zero_at_population_optimum():
    model = gradient_check_model(0.5, 1.0)
    est = AffinePerPattern(model.q)
    for pattern, _ in enumerate_patterns(model, input_level(M.ROBUST_SSDU)):
        closed_form_affine_fit(model, M.ROBUST_SSDU, pattern, into=est)
    report = check_gradient_equivalence(M.ROBUST_SSDU, est, model, 20_000, seed=10)
    assert report.passed is True
    # at the population optimum both gradient averages are themselves zero
    # within Monte Carlo error
    assert report.notes["surrogate_mean_standardized"] <= 3.0
    assert report.notes["oracle_mean_standardized"] <= 3.0


def test_gradient_equivalence_exact_per_sample_when_noiseless_full():
    """With no measurement noise and a fully sampled first level the
    surrogate and oracle gradients coincide draw by draw, so the Monte
    Carlo difference is exactly zero."""
    q = 2
    omega = MaskDistribution("column_polynomial", q, 1.0, 0)
    lam = MaskDistribution("column_polynomial", q, 2.0, 0)
    model = MeasurementModel(banded_prior_cov(q), NoiseSpec(0.0, 1.0), omega, lam)
    est = AffinePerPattern(q)
    for pattern, _ in enumerate_patterns(model, input_level(M.NOISIER2FULL)):
        est.ensure_pattern(pattern)
    est.theta = stream(12, "t").standard_normal(est.theta.shape[0]) * 0.5
    report = check_gradient_equivalence(M.NOISIER2FULL, est, model, 2_000, seed=13)
    assert report.passed is True
    from kslab.synthetic import gaussian_ground_truth

    spec = TrainSpec(method=M.NOISIER2FULL, alpha=model.noise.alpha)
    rng = stream(13, "draws")
    for _ in range(20):
        y0 = gaussian_ground_truth(model, rng)
        omega = model.omega_dist.draw(rng)
        lam = model.lambda_dist.draw(rng)
        zero = np.zeros(q, dtype=complex)
        item = TrainItem(y=y0.copy(), omega=omega, y0=y0, noise=zero,
                         lam=lam, ntilde=zero)
        _, g_surr = loss_and_grad(spec, est, item)
        g_orac = _oracle_gradient(M.NOISIER2FULL, est, model, y0, y0.copy(),
                                  omega, lam, zero)
        scale = max(1.0, np.abs(g_surr).max())
        assert np.abs(g_surr - g_orac).max() <= 1e-12 * scale


def test_gradient_equivalence_exact_enumeration():
    """Definitive check of the loss-weighting claims: exact expected
    gradients of the weighted surrogate and the corrected-estimate loss,
    enumerated over all mask cases with closed-form Gaussian moments, agree
    to machine precision. Also pins the Monte Carlo code paths to the same
    expectations."""
    q = 2
    omega_d = MaskDistribution("column_polynomial", q, 1.4, 0, 2.0)
    lam_d = MaskDistribution("column_polynomial", q, 1.8, 0, 2.0)
    model = MeasurementModel(banded_prior_cov(q), NoiseSpec(0.5, 0.75), omega_d, lam_d)
    p, pt = model.omega_probs(), model.lambda_probs()
    alpha = model.noise.alpha
    s2 = model.noise.sigma_n ** 2
    v_all = (1 + alpha ** 2) * s2
    scale = (1 + alpha ** 2) / alpha ** 2
    cov = model.prior_cov

    est = AffinePerPattern(q)
    for pat, _ in enumerate_patterns(model, "intersect"):
        est.ensure_pattern(pat)
    est.theta = stream(123, "t").standard_normal(est.theta.shape[0]) * 0.5
    bs = est.block_size
    p_weight = compute_P(p, pt)

    g_surr = np.zeros_like(est.theta)
    g_orac = np.zeros_like(est.theta)
    for om_bits in product((0, 1), repeat=q):
        for lm_bits in product((0, 1), repeat=q):
            prob = np.prod([p[j] if om_bits[j] else 1 - p[j] for j in range(q)])
            prob *= np.prod([pt[j] if lm_bits[j] else 1 - pt[j] for j in range(q)])
            om = np.array(om_bits, bool)
            lm = np.array(lm_bits, bool)
            s = om & lm
            key_mask = SamplingMask(s, p * pt)
            idx = est._patterns[key_mask.key()]
            a_blk, b_blk = est.get_block(key_mask)
            ps = np.diag(s.astype(float))
            eyy = ps @ (cov + v_all * np.eye(q)) @ ps
            ey_yt = np.zeros((q, q), complex)
            ey0_yt = np.zeros((q, q), complex)
            for j in range(q):
                for k in range(q):
                    if s[k]:
                        ey0_yt[j, k] = cov[j, k]
                        if om[j]:
                            ey_yt[j, k] = cov[j, k] + (s2 if j == k else 0.0)
            w2 = np.zeros(q)
            w2[s] = scale ** 2
            w2[om & ~lm] = p_weight[om & ~lm]
            x_s = a_blk @ eyy - ey_yt
            g = np.zeros(bs)
            g[:q * q] = (2 * w2[:, None] * x_s.real).ravel()
            g[q * q:2 * q * q] = (2 * w2[:, None] * x_s.imag).ravel()
            g[2 * q * q:2 * q * q + q] = 2 * w2 * b_blk.real
            g[2 * q * q + q:] = 2 * w2 * b_blk.imag
            g_surr[idx * bs:(idx + 1) * bs] += prob * g
            d = np.where(s, scale, 1.0)
            x_o = d[:, None] * (d[:, None] * (a_blk @ eyy)
                                - (ps @ eyy) / alpha ** 2 - ey0_yt)
            g = np.zeros(bs)
            g[:q * q] = (2 * x_o.real).ravel()
            g[q * q:2 * q * q] = (2 * x_o.imag).ravel()
            g[2 * q * q:2 * q * q + q] = 2 * d ** 2 * b_blk.real
            g[2 * q * q + q:] = 2 * d ** 2 * b_blk.imag
            g_orac[idx * bs:(idx + 1) * bs] += prob * g

    assert np.abs(g_surr - g_orac).max() < 1e-12 * max(1.0, np.abs(g_surr).max())

    # pin the production code paths to the same expectations
    from kslab.synthetic import gaussian_ground_truth

    spec = TrainSpec(method=M.ROBUST_SSDU, alpha=alpha)
    rng = stream(5, "mc")
    n_mc = 40_000
    acc_s = np.zeros_like(est.theta)
    acc_o = np.zeros_like(est.theta)
    for _ in range(n_mc):
        y0 = gaussian_ground_truth(model, rng)
        n = complex_gaussian(q, model.noise.sigma_n, rng)
        omega = model.omega_dist.draw(rng)
        lam = model.lambda_dist.draw(rng)
        nt = complex_gaussian(q, alpha * model.noise.sigma_n, rng)
        y = apply_mask(omega, y0 + n)
        item = TrainItem(y=y, omega=omega, y0=y0, noise=n, lam=lam, ntilde=nt)
        _, gs = loss_and_grad(spec, est, item)
        acc_s += gs
        acc_o += _oracle_gradient(M.ROBUST_SSDU, est, model, y0, y, omega, lam, nt)
    assert np.abs(acc_s / n_mc - g_surr).max() < 0.1
    assert np.abs(acc_o / n_mc - g_orac).max() < 0.1


def test_corrected_mse_matches_analytic():
    model = gradient_check_model(0.4, 0.75)
    est = AffinePerPattern(model.q)
    for pattern, _ in enumerate_patterns(model, input_level(M.ROBUST_SSDU)):
        closed_form_affine_fit(model, M.ROBUST_SSDU, pattern, into=est)
    mc, se = mc_corrected_mse(M.ROBUST_SSDU, est, model, 20_000, seed=3)
    analytic = analytic_posterior_mse(model, M.ROBUST_SSDU)
    assert abs(mc - analytic) <= 0.02 * analytic


def _draw_masks(model, draws, i):
    return (SamplingMask(draws.omega[i], model.omega_probs()),
            SamplingMask(draws.lam[i], model.lambda_probs()))


@pytest.mark.parametrize("method", [M.NOISIER2FULL, M.ROBUST_SSDU])
def test_batched_mse_matches_per_draw_library_path(method):
    """The vectorized corrected-MSE oracle equals, draw by draw, the
    per-draw input builder, forward pass and correction on the same draws."""
    model = model_preset("banded", sigma_n=0.3, alpha=0.75)
    est = AffinePerPattern(model.q)
    for pattern, _ in enumerate_patterns(model, input_level(method)):
        closed_form_affine_fit(model, method, pattern, into=est)
    draws = _draw_shard(model, stream(17, "batch_vs_draw"), 200)
    batched = _mse_errors(method, est, model, draws)
    alpha = model.noise.alpha
    ref = np.empty(200)
    for i in range(200):
        omega, lam = _draw_masks(model, draws, i)
        y_in, m_in = M.row(method).input.build_masked(draws.y[i], omega, lam, draws.ntilde[i])
        est_y = correct(est.forward(y_in, m_in), y_in, m_in.member, alpha)
        ref[i] = np.sum(np.abs(est_y - draws.y0[i]) ** 2)
    assert np.all(np.abs(batched - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("claim", [M.NOISIER2FULL, M.ROBUST_SSDU])
def test_batched_gradients_match_per_draw_library_path(claim):
    """The vectorized gradient sums equal the sums of the per-draw training
    gradients (loss_and_grad) and oracle gradients on the same draws."""
    model = gradient_check_model(0.5, 0.75)
    est = AffinePerPattern(model.q)
    for pattern, _ in enumerate_patterns(model, input_level(claim)):
        est.ensure_pattern(pattern)
    est.theta = stream(18, "th", claim).standard_normal(est.theta.shape[0]) * 0.4
    draws = _draw_shard(model, stream(19, "batch_vs_draw"), 200)
    sums, sums_sq, crosscheck = _gradient_moments(claim, est, model, draws)
    assert crosscheck <= 1e-12

    spec = TrainSpec(method=claim, alpha=model.noise.alpha)
    ref = {k: np.zeros_like(est.theta) for k in ("surr", "oracle", "diff")}
    ref_sq = {k: np.zeros_like(est.theta) for k in ("surr", "oracle", "diff")}
    for i in range(200):
        omega, lam = _draw_masks(model, draws, i)
        item = TrainItem(y=draws.y[i], omega=omega, y0=draws.y0[i], noise=draws.noise[i],
                         lam=lam, ntilde=draws.ntilde[i])
        g_surr = loss_and_grad(spec, est, item)[1]
        g_orac = _oracle_gradient(claim, est, model, draws.y0[i], draws.y[i], omega, lam,
                                  draws.ntilde[i])
        for key, g in (("surr", g_surr), ("oracle", g_orac), ("diff", g_surr - g_orac)):
            ref[key] += g
            ref_sq[key] += g * g
    for key in ref:
        for got, want in ((sums[key], ref[key]), (sums_sq[key], ref_sq[key])):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _weight_defect(name):
    """Monkeypatch targets in the training module for one injected defect."""
    compute_p = training.compute_P
    weight = training.weight_robust_ssdu

    def p_one(p, pt):
        return np.ones_like(compute_p(p, pt))

    def p_squared(p, pt):
        return compute_p(p, pt) ** 2

    def linear_intersect_weight(omega, lam, alpha, P):
        w = weight(omega, lam, alpha, P)
        w[omega.member & lam.member] = (1.0 + alpha) / alpha
        return w

    return {"P_to_one": ("compute_P", p_one),
            "P_to_P_squared": ("compute_P", p_squared),
            "intersect_weight_linear": ("weight_robust_ssdu", linear_intersect_weight)}[name]


@pytest.mark.parametrize("defect", [None, "P_to_one", "P_to_P_squared",
                                    "intersect_weight_linear"])
def test_gradient_equivalence_catches_training_weight_defects(defect, monkeypatch):
    """The check tests the training module's weighting: each injected
    defect there fails it on statistics alone (the batched and per-draw
    paths still agree), while the clean code passes. Settings are those of
    the verify suite at seed 7."""
    if defect is not None:
        monkeypatch.setattr(training, *_weight_defect(defect))
    model = gradient_check_model(0.5, 0.75)
    est = AffinePerPattern(model.q)
    for pattern, _ in enumerate_patterns(model, input_level(M.ROBUST_SSDU)):
        est.ensure_pattern(pattern)
    est.theta = stream(7, "gradeq_theta", M.ROBUST_SSDU).standard_normal(
        est.theta.shape[0]) * 0.3
    report = check_gradient_equivalence(M.ROBUST_SSDU, est, model, 20_000, seed=7)
    assert "crosscheck_failure" not in report.notes
    if defect is None:
        assert report.passed is True
    else:
        assert report.passed is False
        assert report.estimate > 3.0


@pytest.mark.parametrize("claim", [M.NOISIER2FULL, M.ROBUST_SSDU])
def test_gradient_crosscheck_catches_misgrouped_rows(claim, monkeypatch):
    """A batch whose rows sit in the wrong pattern group (outputs still
    right) fails the cross-check against the per-draw training code."""
    forward_batch = AffinePerPattern.forward_batch

    def swapped_groups(self, y_in, member):
        batch = forward_batch(self, y_in, member)
        (i0, rows0), (i1, rows1) = batch._groups[:2]
        batch._groups[:2] = [(i1, rows0), (i0, rows1)]
        return batch

    monkeypatch.setattr(AffinePerPattern, "forward_batch", swapped_groups)
    model = gradient_check_model(0.5, 0.75)
    est = AffinePerPattern(model.q)
    for pattern, _ in enumerate_patterns(model, input_level(claim)):
        est.ensure_pattern(pattern)
    est.theta = stream(7, "gradeq_theta", claim).standard_normal(est.theta.shape[0]) * 0.3
    report = check_gradient_equivalence(claim, est, model, 4096, seed=7)
    assert report.passed is False
    assert "crosscheck_failure" in report.notes


def test_monte_carlo_oracles_reject_unsupported_inputs():
    model = gradient_check_model(0.5, 0.75)
    with pytest.raises(ConfigError):
        mc_corrected_mse(M.ROBUST_SSDU, TinyNet(model.q), model, 1000, seed=0)
    with pytest.raises(ConfigError):
        mc_corrected_mse(M.STANDARD_SSDU, AffinePerPattern(model.q), model, 1000, seed=0)
    with pytest.raises(ConfigError):
        check_gradient_equivalence(M.ROBUST_SSDU, TinyNet(model.q), model, 1000, seed=0)


def test_posterior_error_trace_empty_pattern_is_prior_energy():
    model = model_preset("banded", sigma_n=0.3, alpha=1.0)
    empty = SamplingMask(np.zeros(8, dtype=bool), model.omega_probs())
    trace = posterior_error_trace(model, empty, COND_ON_YTILDE)
    assert trace == pytest.approx(float(np.trace(model.prior_cov).real))


def test_oracle_report_finalize():
    report = OracleReport(name="x", estimate=1.0, reference=1.05, tolerance=0.1)
    assert report.finalize().passed is True
    report = OracleReport(name="x", estimate=1.0, reference=2.0, tolerance=0.1)
    assert report.finalize().passed is False


# ---------------------------------------------------------------------------
# Brute-force discrete oracle
# ---------------------------------------------------------------------------

def two_atom_model(q=2, noise_sigma=0.0, further_sigma=0.0, p=0.7, pt=0.6):
    return DiscreteModel(
        atoms=((1.0 + 0j, 0.5), (-1.0 + 0j, 0.5)),
        noise_grid=two_point_noise_grid(noise_sigma),
        further_grid=two_point_noise_grid(further_sigma),
        p=(p,) * q,
        ptilde=(pt,) * q,
    )


def test_brute_force_single_atom_prior():
    model = DiscreteModel(
        atoms=((0.5 + 0.5j, 1.0),),
        noise_grid=two_point_noise_grid(0.0),
        further_grid=two_point_noise_grid(0.0),
        p=(0.5, 0.5),
        ptilde=(0.5, 0.5),
    )
    out = brute_force_conditional(model, np.zeros(2, dtype=complex), TARGET_Y0)
    assert np.allclose(out, [0.5 + 0.5j, 0.5 + 0.5j])


def test_brute_force_exact_observation():
    model = two_atom_model(noise_sigma=0.0, further_sigma=0.0)
    obs = np.array([1.0 + 0j, 0.0 + 0j])
    out = brute_force_conditional(model, obs, TARGET_Y0)
    assert np.isclose(out[0], 1.0)  # observed exactly, no noise
    assert np.isclose(out[1], 0.0)  # symmetric prior, nothing observed


def test_brute_force_matches_monte_carlo():
    model = two_atom_model(noise_sigma=0.4, further_sigma=0.3)
    rng = stream(11, "draw")
    y0, n, nt, omega, lam, ytilde = draw_discrete(model, rng)
    exact = brute_force_conditional(model, ytilde, TARGET_Y0)
    n_mc = 400_000
    acc = np.zeros(2, dtype=complex)
    acc_sq = np.zeros(2)
    hits = 0
    for _ in range(n_mc):
        d_y0, _, _, _, _, d_yt = draw_discrete(model, rng)
        if np.abs(d_yt - ytilde).max() < 1e-12:
            hits += 1
            acc += d_y0
            acc_sq += np.abs(d_y0) ** 2
    assert hits > 100
    mc_mean = acc / hits
    var = np.maximum(acc_sq / hits - np.abs(mc_mean) ** 2, 0.0)
    se = np.sqrt(var / hits) + 1e-12
    assert np.all(np.abs(mc_mean - exact) <= 3 * se)


def test_brute_force_rejects_oversized_alphabet():
    with pytest.raises(ConfigError):
        DiscreteModel(
            atoms=tuple((float(i), 0.2) for i in range(5)),
            noise_grid=two_point_noise_grid(0.0),
            further_grid=two_point_noise_grid(0.0),
            p=(0.5,),
            ptilde=(0.5,),
        )


def test_brute_force_impossible_observation():
    model = two_atom_model(noise_sigma=0.0, further_sigma=0.0)
    with pytest.raises(ValidationError):
        brute_force_conditional(model, np.array([5.0 + 0j, 0.0 + 0j]), TARGET_Y0)
