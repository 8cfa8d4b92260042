"""Losses, weightings, Adam, and the epoch loop."""

import numpy as np
import pytest

from kslab import methods as M
from kslab.errors import ConfigError
from kslab.estimators import AffinePerPattern, TinyNet
from kslab.kspace import SamplingMask, apply_mask, full_mask, mask_algebra
from kslab.noise import NoiseSpec, complex_gaussian
from kslab.rng import stream
from kslab.sampling import MaskDistribution, compute_P
from kslab.synthetic import MeasurementModel, gaussian_ground_truth, model_preset
from kslab.training import (
    AdamState,
    TrainItem,
    TrainSpec,
    adam_step,
    build_dataset,
    loss_and_grad,
    make_train_item,
    train,
    weight_noisier2full,
    weight_robust_ssdu,
)


def mask_of(q, indices, probs):
    return SamplingMask.from_indices(q, indices, probs)


def test_weight_noisier2full_values():
    omega = mask_of(4, [0, 2], np.full(4, 0.5))
    w = weight_noisier2full(omega, 1.0)
    assert np.array_equal(w, [2.0, 1.0, 2.0, 1.0])
    w = weight_noisier2full(omega, 1e3)
    assert np.abs(w[np.asarray(omega.member)] - 1.0).max() <= 1e-6
    w = weight_noisier2full(full_mask(3), 1.0)
    assert np.array_equal(w, [2.0, 2.0, 2.0])


def test_weight_robust_ssdu_worked_example():
    # q=2, both indices sampled, second level keeps only the first
    omega = mask_of(2, [0, 1], [1.0, 1.0])
    lam = mask_of(2, [0], [0.5, 0.5])
    P = compute_P(omega.probs, lam.probs)
    w = weight_robust_ssdu(omega, lam, 1.0, P)
    assert np.allclose(w, [2.0, 1.0])


def test_weight_robust_ssdu_lambda_to_zero_limit():
    q = 3
    omega = mask_of(q, [0, 1, 2], [0.5, 0.25, 0.8])
    lam = mask_of(q, [], np.full(q, 1e-12))
    P = compute_P(omega.probs, lam.probs)
    w = weight_robust_ssdu(omega, lam, 1.0, P)
    assert np.allclose(w, 1.0 / np.sqrt(omega.probs), rtol=1e-6)


def test_weight_robust_ssdu_lambda_superset_reduces_to_noisier2full():
    # a drawn second-level mask covering all of omega puts the noisier2full
    # weight on every sampled index (and the loss is masked off omega)
    q = 4
    omega = mask_of(q, [0, 3], np.full(q, 0.5))
    lam = mask_of(q, [0, 1, 2, 3], np.full(q, 0.9))
    P = compute_P(omega.probs, lam.probs)
    w = weight_robust_ssdu(omega, lam, 1.0, P)
    expected = np.where(omega.member, 2.0, 0.0)
    assert np.array_equal(w, expected)


def test_weight_zero_off_omega():
    omega = mask_of(4, [1], np.full(4, 0.5))
    lam = mask_of(4, [1, 2], np.full(4, 0.5))
    w = weight_robust_ssdu(omega, lam, 0.7, compute_P(omega.probs, lam.probs))
    assert np.all(w[~np.asarray(omega.member)] == 0.0)


def item_for(q, omega, y0, noise, lam=None, ntilde=None):
    y = apply_mask(omega, y0 + noise)
    return TrainItem(y=y, omega=omega, y0=y0, noise=noise, lam=lam, ntilde=ntilde)


def test_standard_ssdu_zero_loss_when_matching():
    q = 3
    omega = mask_of(q, [0, 1, 2], np.full(q, 1.0))
    lam = mask_of(q, [0], np.full(q, 0.5))
    y0 = np.array([1 + 1j, 2.0, -1j])
    item = item_for(q, omega, y0, np.zeros(q, dtype=complex), lam=lam,
                    ntilde=np.zeros(q, dtype=complex))
    est = AffinePerPattern(q)
    inter = mask_algebra(omega, lam).intersect
    est.set_block(inter, np.zeros((q, q), dtype=complex), item.y)  # constant = y
    spec = TrainSpec(method=M.STANDARD_SSDU, alpha=1.0)
    loss, grad = loss_and_grad(spec, est, item)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(grad))


def test_robust_ssdu_hand_evaluated_loss():
    # weights: (1+a^2)/a^2 = 2 on the kept index, sqrt(P) = 1 on the held-out one
    q = 2
    omega = mask_of(q, [0, 1], [1.0, 1.0])
    lam = mask_of(q, [0], [0.5, 0.5])
    y0 = np.array([1.0 + 0j, 2.0 + 0j])
    n = np.array([0.1 + 0j, -0.2 + 0j])
    ntilde = np.array([0.05 + 0j, 0.0 + 0j])
    item = item_for(q, omega, y0, n, lam=lam, ntilde=ntilde)
    est = AffinePerPattern(q)
    inter = mask_algebra(omega, lam).intersect
    f_const = np.array([0.5 + 0j, 1.0 + 0j])
    est.set_block(inter, np.zeros((q, q), dtype=complex), f_const)
    spec = TrainSpec(method=M.ROBUST_SSDU, alpha=1.0)
    loss, _ = loss_and_grad(spec, est, item)
    y = item.y
    expected = abs(2.0 * (f_const[0] - y[0])) ** 2 + abs(f_const[1] - y[1]) ** 2
    assert np.isclose(loss, expected)


def test_noise2recon_constant_function():
    q = 3
    omega = mask_of(q, [0, 1, 2], np.full(q, 1.0))
    lam = mask_of(q, [1], np.full(q, 0.5))
    y0 = np.array([1.0, 1j, 2.0 - 1j])
    item = item_for(q, omega, y0, np.zeros(q, dtype=complex), lam=lam,
                    ntilde=np.zeros(q, dtype=complex))
    c = np.array([0.3 - 0.1j] * q)
    est = AffinePerPattern(q)
    est.set_block(mask_algebra(omega, lam).intersect, np.zeros((q, q), dtype=complex), c)
    est.set_block(omega, np.zeros((q, q), dtype=complex), c)
    spec = TrainSpec(method=M.NOISE2RECON_SS, alpha=1.0, lambda_n2r=1.0)
    loss, _ = loss_and_grad(spec, est, item)
    held = mask_algebra(omega, lam).omega_minus_lambda
    expected = float(np.sum(np.abs(apply_mask(held, c - item.y)) ** 2))
    assert np.isclose(loss, expected)  # consistency term vanishes for constant f


def test_losses_nonnegative_finite():
    model = model_preset("banded", sigma_n=0.4, alpha=0.75)
    est = TinyNet(model.q, width_factor=1, seed=0)
    rng = stream(33, "items")
    for method in M.ALL_METHODS:
        spec = TrainSpec(method=method, alpha=0.75)
        item = make_train_item(model, rng)
        item.lam = model.lambda_dist.draw(rng)
        item.ntilde = complex_gaussian(model.q, 0.3, rng)
        loss, grad = loss_and_grad(spec, est, item)
        assert loss >= 0.0 and np.isfinite(loss)
        assert np.all(np.isfinite(grad))


@pytest.mark.parametrize("family", ["tiny_net", "affine_per_pattern"])
@pytest.mark.parametrize("method", M.ALL_METHODS)
def test_loss_gradient_matches_finite_differences(method, family):
    """The assembled loss (input, target, weight including sqrt(P), and the
    Noise2Recon consistency term) has the gradient loss_and_grad returns."""
    q = 4
    omega = mask_of(q, [0, 1, 3], [0.9, 0.6, 0.5, 0.7])
    lam = mask_of(q, [1, 2], [0.5, 0.4, 0.6, 0.3])  # Omega \ Lambda = {0, 3}, P != 1 there
    rng = stream(41, "fd")
    y0, noise, ntilde = (rng.standard_normal(q) + 1j * rng.standard_normal(q) for _ in range(3))
    item = item_for(q, omega, y0, 0.3 * noise, lam=lam, ntilde=0.4 * ntilde)
    spec = TrainSpec(method=method, alpha=0.75, lambda_n2r=0.7)
    if family == "tiny_net":
        est = TinyNet(q, width_factor=1, seed=5)
    else:
        est = AffinePerPattern(q)
        loss_and_grad(spec, est, item)  # enroll the input patterns
        est.theta = 0.5 * stream(42, "theta", method).standard_normal(est.theta.shape[0])
    _, grad = loss_and_grad(spec, est, item)
    base = est.theta.copy()
    fd = np.zeros_like(base)
    step = 1e-6
    for i in range(base.shape[0]):
        for sign in (1.0, -1.0):
            est.theta = base.copy()
            est.theta[i] += sign * step
            fd[i] += sign * loss_and_grad(spec, est, item)[0]
    est.theta = base
    fd /= 2 * step
    assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_loss_requires_fields():
    model = model_preset("banded", sigma_n=0.4, alpha=1.0)
    est = TinyNet(model.q, width_factor=1, seed=0)
    item = make_train_item(model, stream(1, "i"))
    item.y0 = None
    with pytest.raises(ConfigError):
        loss_and_grad(TrainSpec(method=M.FULLY_SUPERVISED), est, item)
    item2 = make_train_item(model, stream(2, "i"))
    item2.lam = None
    with pytest.raises(ConfigError):
        loss_and_grad(TrainSpec(method=M.STANDARD_SSDU), est, item2)


def test_adam_zero_gradient_keeps_params():
    state = AdamState(lr=0.1)
    params = np.array([1.0, -2.0])
    adam_step(state, params, np.zeros(2))
    assert np.array_equal(params, [1.0, -2.0])


def test_adam_first_step_magnitude():
    state = AdamState(lr=0.01, eps=1e-8)
    params = np.zeros(3)
    grad = np.array([5.0, -0.3, 1e-4])
    adam_step(state, params, grad)
    # bias-corrected first step is -lr * g / (|g| + eps): sign-like of size lr
    expected = -0.01 * grad / (np.abs(grad) + 1e-8)
    assert np.allclose(params, expected)


def test_adam_deterministic():
    grads = [stream(4, "g", i).standard_normal(5) for i in range(10)]
    outs = []
    for _ in range(2):
        state = AdamState(lr=0.05)
        params = np.zeros(5)
        for g in grads:
            adam_step(state, params, g)
        outs.append(params.copy())
    assert np.array_equal(outs[0], outs[1])


def test_adam_state_grows_with_params():
    state = AdamState(lr=0.1)
    params = np.zeros(2)
    adam_step(state, params, np.ones(2))
    params = np.concatenate([params, np.zeros(3)])
    adam_step(state, params, np.ones(5))
    assert state.m.shape == (5,)


def test_adam_step_matches_out_of_place_formula_bitwise():
    """The in-place step reproduces the out-of-place update to the bit."""

    def reference(state, params, grad):
        n = params.shape[0]
        if state["m"].shape[0] < n:
            pad = np.zeros(n - state["m"].shape[0])
            state["m"] = np.concatenate([state["m"], pad])
            state["v"] = np.concatenate([state["v"], pad])
        state["t"] += 1
        b1, b2 = 0.9, 0.999
        state["m"] = b1 * state["m"] + (1.0 - b1) * grad
        state["v"] = b2 * state["v"] + (1.0 - b2) * grad * grad
        m_hat = state["m"] / (1.0 - b1 ** state["t"])
        v_hat = state["v"] / (1.0 - b2 ** state["t"])
        return params - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)

    state = AdamState(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    ref_state = {"m": np.zeros(0), "v": np.zeros(0), "t": 0}
    params = stream(7, "p").standard_normal(6)
    ref = params.copy()
    for step in range(8):
        if step == 3:  # lazy pattern enrollment grows the parameter vector
            params = np.concatenate([params, np.zeros(4)])
            ref = np.concatenate([ref, np.zeros(4)])
        grad = stream(7, "g", step).standard_normal(params.shape[0]) * 10.0 ** (step - 4)
        out = adam_step(state, params, grad)
        ref = reference(ref_state, ref, grad)
        assert out is params
        assert params.tobytes() == ref.tobytes()
        assert state.m.tobytes() == ref_state["m"].tobytes()
        assert state.v.tobytes() == ref_state["v"].tobytes()


def test_train_validate_every_zero_skips_validation():
    model = model_preset("scalar", sigma_n=0.1, alpha=1.0)
    spec = TrainSpec(method=M.FULLY_SUPERVISED, epochs=2, lr=1e-3, seed=0)
    _, hist = train(spec, AffinePerPattern(model.q), build_dataset(model, 3, seed=0),
                    model, validate_every=0)
    assert len(hist) == 2
    assert all("val_nmse" not in row for row in hist)
    with pytest.raises(ConfigError, match="validate_every"):
        train(spec, AffinePerPattern(model.q), build_dataset(model, 3, seed=0),
              model, validate_every=-1)


def test_train_rejects_zero_epochs():
    with pytest.raises(ConfigError):
        TrainSpec(method=M.FULLY_SUPERVISED, epochs=0)


def test_train_epoch_count_contract(monkeypatch):
    import kslab.training as training_mod

    model = model_preset("scalar", sigma_n=0.1, alpha=1.0)
    ds = build_dataset(model, 5, seed=0)
    spec = TrainSpec(method=M.SUPERVISED_WO_DENOISING, epochs=1, lr=1e-3, seed=0)
    est = AffinePerPattern(model.q)
    calls = []
    orig = training_mod.adam_step
    monkeypatch.setattr(training_mod, "adam_step",
                        lambda *a, **k: (calls.append(1), orig(*a, **k))[1])
    _, hist = train(spec, est, ds, model, validate_every=10 ** 9)
    # one epoch at batch size 1 performs exactly one optimizer step per item
    assert len(calls) == 5
    assert len(hist) == 1


def test_train_identity_convergence():
    q = 4
    omega = MaskDistribution("column_polynomial", q, 1.0, 0)
    lam = MaskDistribution("column_polynomial", q, 2.0, 0)
    model = MeasurementModel(np.eye(q, dtype=complex), NoiseSpec(0.0, 1.0), omega, lam)
    ds = build_dataset(model, 8, seed=1)
    spec = TrainSpec(method=M.FULLY_SUPERVISED, epochs=300, lr=1e-2, seed=2)
    est = AffinePerPattern(q)
    est, _ = train(spec, est, ds, model, validate_every=10 ** 9)
    a, b = est.get_block(full_mask(q))
    err = max(np.abs(a - np.eye(q)).max(), np.abs(b).max())
    assert err < 1e-3


def test_train_history_bit_identical():
    model = model_preset("banded", sigma_n=0.3, alpha=1.0)
    histories = []
    for _ in range(2):
        ds = build_dataset(model, 6, seed=9)
        spec = TrainSpec(method=M.ROBUST_SSDU, epochs=4, lr=1e-3, seed=9, alpha=1.0)
        est = TinyNet(model.q, width_factor=1, seed=9)
        _, hist = train(spec, est, ds, model)
        histories.append(hist)
    assert histories[0] == histories[1]


def test_train_noise2recon_with_lazy_enrollment():
    # two input patterns per step enroll lazily and grow the optimizer state
    model = model_preset("banded", sigma_n=0.3, alpha=1.0)
    ds = build_dataset(model, 5, seed=14)
    spec = TrainSpec(method=M.NOISE2RECON_SS, epochs=2, lr=1e-3, seed=14, alpha=1.0)
    est = AffinePerPattern(model.q)
    est, hist = train(spec, est, ds, model, validate_every=10 ** 9)
    assert est.n_patterns >= 2
    assert all(np.isfinite(h["train_loss"]) for h in hist)


def test_train_toy_cascade_end_to_end():
    from kslab.estimators import ToyCascade
    from kslab.inference import MODE_PRACTICAL, reconstruct

    model = model_preset("banded", sigma_n=0.3, alpha=1.0)
    ds = build_dataset(model, 6, seed=15)
    spec = TrainSpec(method=M.ROBUST_SSDU, epochs=3, lr=1e-3, seed=15, alpha=1.0)
    est = ToyCascade(model.q, cascades=2, seed=15)
    est, hist = train(spec, est, ds, model, validate_every=10 ** 9)
    assert hist[-1]["train_loss"] < hist[0]["train_loss"] * 2  # sane, finite
    rec = reconstruct(M.ROBUST_SSDU, est, ds[0].y, ds[0].omega, model.noise,
                      model.lambda_dist, MODE_PRACTICAL)
    assert np.all(np.isfinite(rec))


def test_item_construction_invariant():
    model = model_preset("banded", sigma_n=0.5, alpha=1.0)
    item = make_train_item(model, stream(3, "it"))
    assert np.array_equal(item.y, apply_mask(item.omega, item.y0 + item.noise))


def test_robust_reduction_to_noisier2full_on_full_omega():
    """With a fully sampled first level, per-draw robust-ssdu losses equal
    noisier2full losses under the mask relabeling, exactly."""
    q = 6
    rng = stream(77, "red")
    model = model_preset("banded", sigma_n=0.4, alpha=0.8, q=q, R_omega=2.0)
    pt = model.lambda_probs()
    est = TinyNet(q, width_factor=1, seed=5)
    for trial in range(25):
        y0 = gaussian_ground_truth(model, rng)
        n = complex_gaussian(q, model.noise.sigma_n, rng)
        nt = complex_gaussian(q, model.noise.alpha * model.noise.sigma_n, rng)
        lam = model.lambda_dist.draw(rng)

        omega_full = full_mask(q)
        item_rs = TrainItem(y=y0 + n, omega=omega_full, y0=y0, noise=n,
                            lam=lam, ntilde=nt)
        spec_rs = TrainSpec(method=M.ROBUST_SSDU, alpha=model.noise.alpha)
        loss_rs, grad_rs = loss_and_grad(spec_rs, est, item_rs)

        omega_relabeled = SamplingMask(lam.member, pt)
        item_n2f = TrainItem(y=apply_mask(omega_relabeled, y0 + n),
                             omega=omega_relabeled, y0=y0, noise=n, ntilde=nt)
        spec_n2f = TrainSpec(method=M.NOISIER2FULL, alpha=model.noise.alpha)
        loss_n2f, grad_n2f = loss_and_grad(spec_n2f, est, item_n2f)

        assert loss_rs == loss_n2f
        assert np.array_equal(grad_rs, grad_n2f)
