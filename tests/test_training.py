"""Losses, weightings, Adam, and the epoch loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kslab import methods as M
from kslab import training
from kslab.errors import ConfigError, DimensionError
from kslab.estimators import AffinePerPattern, Mlp, OuterPiece, TinyNet, ToyCascade, gather_pieces
from kslab.inference import reconstruct
from kslab.kspace import SamplingMask, apply_mask, full_mask, mask_algebra
from kslab.metrics import nmse
from kslab.noise import NoiseSpec, complex_gaussian, second_level_draws
from kslab.rng import stream, streams
from kslab.sampling import MaskDistribution, compute_P
from kslab.synthetic import MeasurementModel, gaussian_ground_truth, model_preset
from kslab.training import (
    ADAM_BLOCK,
    STACK_MAX_PARAMS,
    AdamState,
    Cell,
    TrainItem,
    TrainSpec,
    adam_step,
    build_dataset,
    loss_and_grad,
    make_train_item,
    method_rows,
    train,
    train_cells,
    weight_noisier2full,
    weight_robust_ssdu,
)


def mask_of(q, indices, probs):
    return SamplingMask.from_indices(q, indices, probs)


def test_weight_noisier2full_values():
    omega = mask_of(4, [0, 2], np.full(4, 0.5))
    w = weight_noisier2full(omega.member, 1.0)
    assert np.array_equal(w, [2.0, 1.0, 2.0, 1.0])
    w = weight_noisier2full(omega.member, 1e3)
    assert np.abs(w[np.asarray(omega.member)] - 1.0).max() <= 1e-6
    w = weight_noisier2full(full_mask(3).member, 1.0)
    assert np.array_equal(w, [2.0, 2.0, 2.0])


def test_weight_robust_ssdu_worked_example():
    # q=2, both indices sampled, second level keeps only the first
    omega = mask_of(2, [0, 1], [1.0, 1.0])
    lam = mask_of(2, [0], [0.5, 0.5])
    P = compute_P(omega.probs, lam.probs)
    w = weight_robust_ssdu(omega.member, lam.member, 1.0, P)
    assert np.allclose(w, [2.0, 1.0])


def test_weight_robust_ssdu_lambda_to_zero_limit():
    q = 3
    omega = mask_of(q, [0, 1, 2], [0.5, 0.25, 0.8])
    lam = mask_of(q, [], np.full(q, 1e-12))
    P = compute_P(omega.probs, lam.probs)
    w = weight_robust_ssdu(omega.member, lam.member, 1.0, P)
    assert np.allclose(w, 1.0 / np.sqrt(omega.probs), rtol=1e-6)


def test_weight_robust_ssdu_lambda_superset_reduces_to_noisier2full():
    # a drawn second-level mask covering all of omega puts the noisier2full
    # weight on every sampled index (and the loss is masked off omega)
    q = 4
    omega = mask_of(q, [0, 3], np.full(q, 0.5))
    lam = mask_of(q, [0, 1, 2, 3], np.full(q, 0.9))
    P = compute_P(omega.probs, lam.probs)
    w = weight_robust_ssdu(omega.member, lam.member, 1.0, P)
    expected = np.where(omega.member, 2.0, 0.0)
    assert np.array_equal(w, expected)


def test_weight_zero_off_omega():
    omega = mask_of(4, [1], np.full(4, 0.5))
    lam = mask_of(4, [1, 2], np.full(4, 0.5))
    w = weight_robust_ssdu(omega.member, lam.member, 0.7, compute_P(omega.probs, lam.probs))
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
    est.set_blocks(inter.member[None], np.zeros((1, q, q), dtype=complex),
                   item.y[None])  # constant = y
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
    est.set_blocks(inter.member[None], np.zeros((1, q, q), dtype=complex), f_const[None])
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
    est.set_blocks(np.array([mask_algebra(omega, lam).intersect.member, omega.member]),
                   np.zeros((2, q, q), dtype=complex), np.array([c, c]))
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


@pytest.mark.parametrize("field", ["y0", "noise", "lam", "ntilde"])
def test_loss_requires_fields(field):
    """A method whose loss reads a field that an item or a record lacks is
    a configuration error naming the field, on either route to the loss."""
    method = {"y0": M.FULLY_SUPERVISED, "noise": M.SUPERVISED_WO_DENOISING,
              "lam": M.STANDARD_SSDU, "ntilde": M.NOISIER2FULL}[field]
    message = rf"^method '{method}' requires item field '{field}'$"
    model = model_preset("banded", sigma_n=0.4, alpha=1.0)
    rng = stream(1, "i")
    data = replace(build_dataset(model, 3, seed=1), lam=model.lambda_dist.draw_members(rng, 3),
                   lam_probs=model.lambda_probs(), ntilde=complex_gaussian((3, model.q), 0.4, rng))
    data = replace(data, **{field: None})
    with pytest.raises(ConfigError, match=message):
        method_rows(method, 1.0, data)
    with pytest.raises(ConfigError, match=message):
        loss_and_grad(TrainSpec(method=method), TinyNet(model.q, width_factor=1, seed=0), data[0])


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


def test_adam_state_given_moments_steps_like_a_fresh_one():
    grad = stream(9, "g").standard_normal(5)
    fresh, given = np.zeros(5), np.zeros(5)
    adam_step(AdamState(lr=0.1), fresh, grad)
    adam_step(AdamState(lr=0.1, m=np.zeros(5), v=np.zeros(5)), given, grad)
    assert given.any() and given.tobytes() == fresh.tobytes()


def test_adam_step_matches_out_of_place_formula_bitwise():
    """The blocked in-place step reproduces the out-of-place update to the bit:
    within one block, over blocks with a short last one, on a stack whose
    blocks are column ranges of every row, on a strided view, and as the
    parameters grow mid-run (lazy pattern enrollment)."""

    def reference(state, params, grad):
        """The out-of-place Adam update, rows (..., P) growing along the last axis."""
        n = params.shape[-1]
        if state["m"].shape[-1] < n:
            pad = np.zeros((*params.shape[:-1], n - state["m"].shape[-1]))
            state["m"] = np.concatenate([state["m"], pad], axis=-1)
            state["v"] = np.concatenate([state["v"], pad], axis=-1)
        state["t"] += 1
        b1, b2 = 0.9, 0.999
        state["m"] = b1 * state["m"] + (1.0 - b1) * grad
        state["v"] = b2 * state["v"] + (1.0 - b2) * grad * grad
        m_hat = state["m"] / (1.0 - b1 ** state["t"])
        v_hat = state["v"] / (1.0 - b2 ** state["t"])
        return params - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)

    cases = [  # name, initial shape, growth at step 3, strided view of a wider array
        ("one_block", (6,), 4, False),
        ("blocks", (3 * ADAM_BLOCK + 123,), 0, False),
        ("blocks_growing", (2 * ADAM_BLOCK - 5,), ADAM_BLOCK + 9, False),
        ("stack", (3, ADAM_BLOCK - 5), 0, False),
        ("stack_growing", (2, 5), ADAM_BLOCK, False),
        ("strided", (3 * ADAM_BLOCK + 7,), 0, True),
        ("strided_stack", (3, ADAM_BLOCK + 1), 0, True),
    ]
    for name, shape, grow, strided in cases:
        state = AdamState(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        empty = np.zeros((*shape[:-1], 0))
        ref_state = {"m": empty, "v": empty, "t": 0}
        init = stream(7, "p", name).standard_normal(shape)
        base = None
        if strided:
            base = np.zeros((*shape[:-1], 2 * shape[-1]))
            params = base[..., ::2]
            params[...] = init
            assert not params.flags.c_contiguous
        else:
            params = init
        ref = init.copy()
        for step in range(8):
            if step == 3 and grow:
                pad = np.zeros((*shape[:-1], grow))
                params = np.concatenate([params, pad], axis=-1)
                ref = np.concatenate([ref, pad], axis=-1)
            grad = (stream(7, "g", name, step).standard_normal(params.shape)
                    * 10.0 ** (step - 4))
            out = adam_step(state, params, grad)
            ref = reference(ref_state, ref, grad)
            assert out is params, name
            assert params.tobytes() == ref.tobytes(), name
            assert state.m.tobytes() == ref_state["m"].tobytes(), name
            assert state.v.tobytes() == ref_state["v"].tobytes(), name
        if strided:  # the update reached the viewed array, and only its entries
            assert base[..., ::2].tobytes() == ref.tobytes(), name
            assert not base[..., 1::2].any(), name


def test_adam_step_on_pieces_matches_the_whole_gradient_bitwise():
    """A gradient handed over in pieces, out of order, with spans that
    straddle block boundaries and a one-entry span, steps a stack's params
    and moments to the bits of the same gradient as one array; a piece of
    the wrong shape, or pieces that leave a column out, raise."""
    n = 3 * ADAM_BLOCK + 11
    cuts = [0, 1, ADAM_BLOCK // 2 + 3, ADAM_BLOCK + 5, ADAM_BLOCK + 6, n]
    spans = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])][::-1]
    init = stream(12, "p").standard_normal((2, n))
    whole, pieced = init.copy(), init.copy()
    whole_state, pieced_state = AdamState(lr=0.01), AdamState(lr=0.01)
    for step in range(4):
        grad = stream(12, "g", step).standard_normal((2, n)) * 10.0 ** (step - 2)
        adam_step(whole_state, whole, grad)
        adam_step(pieced_state, pieced, ((span, grad[:, span].copy()) for span in spans))
        assert pieced.tobytes() == whole.tobytes()
        assert pieced_state.m.tobytes() == whole_state.m.tobytes()
        assert pieced_state.v.tobytes() == whole_state.v.tobytes()
    with pytest.raises(DimensionError, match="shape"):
        adam_step(pieced_state, pieced, [(slice(0, 1), np.zeros((1, 1)))])
    with pytest.raises(DimensionError, match="cover"):
        adam_step(pieced_state, pieced, [(slice(0, n - 1), np.zeros((2, n - 1)))])


@pytest.mark.parametrize("block", [ADAM_BLOCK, 8, 26])
def test_adam_step_on_outer_pieces_matches_the_gathered_gradient_bitwise(monkeypatch, block):
    """A network's pieces, weights as unformed outer products, step a stack
    of two rows to the bits of its gathered gradient, also when blocks
    start and end inside a row of W: blocks of 8 and 26 entries are 4 and
    13 columns wide, over rows of W of 6 and 5 entries, so a block may lie
    within one row, cut two rows with none whole between, or hold whole
    rows between cut ones."""
    monkeypatch.setattr(training, "ADAM_BLOCK", block)
    net = Mlp((6, 5, 4), 3)
    rng = stream(13, "outer")
    init = rng.standard_normal((2, net.end + 2))
    whole, pieced = init.copy(), init.copy()
    whole_state, pieced_state = AdamState(lr=0.01), AdamState(lr=0.01)
    for step in range(3):
        _, cache = net.forward(pieced, rng.standard_normal((2, 6)))
        pieces, _ = net.backward(cache, rng.standard_normal((2, 4)) * 10.0 ** (step - 1))
        pieces += [(slice(0, 3), rng.standard_normal((2, 3))),
                   (slice(net.end, net.end + 2), rng.standard_normal((2, 2)))]
        assert any(isinstance(g, OuterPiece) for _, g in pieces)
        adam_step(whole_state, whole, gather_pieces(pieces, whole.shape))
        adam_step(pieced_state, pieced, pieces)
        assert pieced.tobytes() == whole.tobytes()
        assert pieced_state.m.tobytes() == whole_state.m.tobytes()
        assert pieced_state.v.tobytes() == whole_state.v.tobytes()


def test_adam_step_allocates_no_full_length_temporary():
    """After the first step sizes the moments and scratch blocks, a step on
    2^21 parameters allocates at most a few blocks' worth of memory."""
    import tracemalloc

    n = 2 ** 21
    params = stream(8, "p").standard_normal(n)
    grads = [stream(8, "g", i).standard_normal(n) for i in range(2)]
    state = AdamState(lr=0.01)
    adam_step(state, params, grads[0])
    tracemalloc.start()
    try:
        adam_step(state, params, grads[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * ADAM_BLOCK * 8, peak


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


def _lockstep_cells(batch_size):
    """A mixed tiny_net stack of all 8 methods plus a Noise2Recon-SS cell at
    lambda_n2r = 0, a 2-cell toy_cascade stack and an affine cell
    (Noise2Recon-SS: two patterns enroll per step)."""
    models = [model_preset("banded", sigma_n=s, alpha=0.75) for s in (0.1, 0.3)]
    plan = [(TinyNet, {"width_factor": 1}, m, 0.7) for m in M.ALL_METHODS]
    plan += [(TinyNet, {"width_factor": 1}, M.NOISE2RECON_SS, 0.0)]
    plan += [(ToyCascade, {"cascades": 2}, m, 0.7) for m in (M.NOISE2RECON_SS, M.ROBUST_SSDU)]
    plan += [(AffinePerPattern, {}, M.NOISE2RECON_SS, 0.7)]
    cells = []
    for k, (family, opts, method, lambda_n2r) in enumerate(plan):
        model = models[k % 2]
        opts = opts if family is AffinePerPattern else {**opts, "seed": k}
        spec = TrainSpec(method=method, epochs=3, lr=5e-3, seed=80 + k, alpha=0.75,
                         lambda_n2r=lambda_n2r, batch_size=batch_size)
        cells.append(Cell(spec, family(model.q, **opts), build_dataset(model, 5, seed=80 + k),
                          model))
    return cells


def _per_item_reference(cell, validate_every):
    """The per-item epoch loop: loss_and_grad item by item, grads folded in
    order; the validation NMSE item by item, summed in order."""
    spec, est, data, model = cell
    state, history, val = AdamState.from_spec(spec), [], []
    items = [data[i] for i in range(len(data))]
    for epoch in range(spec.epochs):
        for i, item in enumerate(items):
            rng = stream(spec.seed, "epoch", epoch, "item", i)
            item.lam = model.lambda_dist.draw(rng)
            item.ntilde = complex_gaussian(model.q, model.noise.alpha * model.noise.sigma_n, rng)
        order = stream(spec.seed, "epoch", epoch, "shuffle").permutation(len(items))
        total = 0.0
        for start in range(0, len(items), spec.batch_size):
            grad = None
            for idx in order[start:start + spec.batch_size]:
                loss, g = loss_and_grad(spec, est, items[idx])
                total += loss
                if grad is not None and grad.shape != g.shape:
                    grad = np.concatenate([grad, np.zeros(g.shape[0] - grad.shape[0])])
                grad = g if grad is None else grad + g
            adam_step(state, est.theta, grad)
        history.append(total / len(items))
        if epoch % validate_every == 0:
            total = 0.0  # added in order (builtin sum compensates from Python 3.12)
            for item in items:
                total += nmse(reconstruct(spec.method, est, item.y, item.omega, model.noise),
                              item.y0)
            val.append(total / len(items))
    return history, val


@pytest.mark.parametrize("batch_size", [1, 2])
def test_lockstep_stacks_match_cells_trained_alone(batch_size):
    """Cells trained as rows of a stack end with the parameters and histories,
    to the bit, of the same cells trained alone and of the per-item loop."""
    together = _lockstep_cells(batch_size)
    initial = [cell.est.theta.copy() for cell in together]
    stacked = list(train_cells(together, validate_every=2))
    assert sorted(len(positions) for positions, _, _ in stacked) == [1, 2, 9]
    histories = {k: history for positions, stack_histories, _ in stacked
                 for k, history in zip(positions, stack_histories)}
    for k, cell in enumerate(together):
        history = histories[k]
        alone = _lockstep_cells(batch_size)[k]
        assert train(*alone, validate_every=2)[1] == history
        assert np.array_equal(alone.est.theta, cell.est.theta)
        reference = _lockstep_cells(batch_size)[k]
        losses, val = _per_item_reference(reference, validate_every=2)
        assert losses == [row["train_loss"] for row in history]
        assert val == [row["val_nmse"] for row in history if "val_nmse" in row]
        assert np.array_equal(reference.est.theta, cell.est.theta)
        start = np.zeros_like(cell.est.theta)  # affine blocks enroll as zeros
        start[:initial[k].shape[0]] = initial[k]
        assert not np.array_equal(cell.est.theta, start)
        assert [("val_nmse" in row) for row in history] == [True, False, True]


def _view_cuts(monkeypatch, family, opts, methods):
    """Train one cell per method (``family`` with ``opts``) as one stack of 10
    steps, counting ``Mlp._layers`` calls and each network's view cuts; the
    stack must train as its cells alone do. Returns the number of calls and
    the sorted cuts per network."""
    cut, calls = {}, []
    layers = Mlp._layers

    def counting(self, theta):
        calls.append(self)
        if self._theta is not theta:
            cut[id(self)] = cut.get(id(self), 0) + 1
        return layers(self, theta)

    def cells():
        model = model_preset("banded", sigma_n=0.2, alpha=0.75)
        return [Cell(TrainSpec(method=method, epochs=1, seed=k, alpha=0.75),
                     family(model.q, seed=k, **opts), build_dataset(model, 10, k), model)
                for k, method in enumerate(methods)]

    monkeypatch.setattr(Mlp, "_layers", counting)
    stacked = cells()
    [(positions, _, _)] = train_cells(stacked, validate_every=0)
    assert positions == list(range(len(methods)))
    counts = len(calls), sorted(cut.values())
    for cell, alone in zip(stacked, cells()):
        train(*alone, validate_every=0)
        assert np.array_equal(cell.est.theta, alone.est.theta)
    return counts


def test_toy_cascade_stack_cuts_layer_views_once(monkeypatch):
    """Over 10 stacked steps of one parameter array, each network of
    a 2-cascade stack cuts its layer views once, not on each of the 40
    network forward passes, and the stack trains as its cells alone do."""
    assert _view_cuts(monkeypatch, ToyCascade, {"cascades": 2},
                      (M.NOISIER2FULL, M.ROBUST_SSDU)) == (40, [1, 1, 1, 1])


def test_mixed_stack_with_consistency_cuts_layer_views_once(monkeypatch):
    """A tiny_net stack holding a Noise2Recon-SS cell among others runs its
    consistency forward pass on the stack's own parameter array, so over 10
    steps (20 forward passes) its network cuts its layer views once."""
    assert _view_cuts(monkeypatch, TinyNet, {"width_factor": 1},
                      (M.NOISIER2FULL, M.NOISE2RECON_SS, M.ROBUST_SSDU)) == (20, [1])


def _training_peak(make_estimator, batch_size: int):
    """The estimator, built and trained under ``tracemalloc`` for 2 epochs
    on 6 items of bernoulli2d q = 64, and the traced peak in bytes."""
    import tracemalloc

    model = model_preset("bernoulli2d", q=64, sigma_n=0.1, alpha=0.75)
    data = build_dataset(model, 6, seed=3)
    spec = TrainSpec(method=M.ROBUST_SSDU, epochs=2, batch_size=batch_size, seed=4, alpha=0.75)
    tracemalloc.start()
    try:
        est = make_estimator(model.q)
        train(spec, est, data, model)
        return est, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("batch_size,gradients", [(1, 1), (2, 2)])
def test_training_holds_one_gradient(batch_size, gradients):
    """Training a large single cell (toy_cascade on bernoulli2d q = 64,
    132,098 parameters) holds theta, the Adam moments m and v, Adam's two
    scratch blocks and, per step, ``gradients`` items' gradients. At batch
    size 1 Adam consumes the one gradient as the pullback hands it over,
    forming each block of a weight's outer product in its scratch, so no
    gradient span exists: the slack for everything else, a quarter
    parameter array, is one network's span (264 KB), and that span of live
    gradient beside what the step holds exceeds it. A batch gathers its
    first item's gradient and adds each later item's into it in place, so
    it holds the sum and at most one item's gradient, with half a parameter
    array of slack."""
    est, peak = _training_peak(lambda q: ToyCascade(q, cascades=2, seed=1), batch_size)
    array = est.theta.nbytes
    assert est.theta.shape == (132_098,)
    d_net = est.nets[0][1]
    assert (d_net.end - d_net.spans[0][0].start) * 8 <= array // 4 + 4
    slack = array // 4 if batch_size == 1 else gradients * array + array // 2
    assert peak < 3 * array + 2 * ADAM_BLOCK * 8 + slack, peak / array


def test_training_a_one_piece_family_holds_one_gradient():
    """A large tiny_net cell (bernoulli2d q = 64, 131,712 parameters), whose
    pullback hands over the whole row as one piece, holds theta, m, v and
    one gradient: the previous step's gradient goes before the next
    pullback builds one. The slack is half a parameter array."""
    est, peak = _training_peak(lambda q: TinyNet(q, seed=1), 1)
    array = est.theta.nbytes
    assert est.theta.shape == (131_712,)
    assert peak < 4 * array + 2 * ADAM_BLOCK * 8 + array // 2, peak / array


def test_train_cells_draws_each_cell_as_its_stack_forms():
    """Consecutive small cells of one layout stack; a larger network or an
    affine cell trains alone, before the next cell is drawn."""
    model = model_preset("banded", sigma_n=0.1, alpha=0.75)
    plan = [TinyNet(model.q, width_factor=8), TinyNet(model.q, width_factor=1),
            TinyNet(model.q, width_factor=1, seed=1), AffinePerPattern(model.q),
            TinyNet(model.q, width_factor=1, seed=2)]
    assert plan[0].theta.shape[0] > STACK_MAX_PARAMS >= plan[1].theta.shape[0]
    drawn = []

    def cells():
        for k, est in enumerate(plan):
            drawn.append(k)
            yield Cell(TrainSpec(method=M.ROBUST_SSDU, epochs=1, seed=k, alpha=0.75), est,
                       build_dataset(model, 2, seed=k), model)

    seen = [(positions, len(drawn)) for positions, _, _ in train_cells(cells(), 0)]
    assert seen == [([0], 1), ([1, 2], 4), ([3], 4), ([4], 5)]


def test_train_cells_rejects_cells_sharing_an_estimator():
    """Two cells of one stack that share an estimator would step one theta twice."""
    model = model_preset("banded", sigma_n=0.1, alpha=0.75)
    est = TinyNet(model.q, width_factor=1)
    cells = [Cell(TrainSpec(method=M.ROBUST_SSDU, epochs=1, seed=k, alpha=0.75), est,
                  build_dataset(model, 2, seed=k), model) for k in range(2)]
    with pytest.raises(ConfigError, match="each cell needs its own estimator"):
        list(train_cells(cells, 0))


@pytest.mark.parametrize("field, value", [("beta1", 1.0), ("beta2", 1.0), ("beta1", -0.1),
                                          ("eps", 0.0), ("lr", math.nan), ("lr", math.inf),
                                          ("eps", math.inf), ("lr", True), ("beta1", False)])
def test_train_spec_rejects_adam_settings_that_train_to_nan(field, value):
    """Adam's bias correction divides by 1 - beta^t, which is 0 at beta 1,
    at eps 0 a zero step is 0/0, a NaN learning rate makes every step NaN,
    an infinite one sends the parameters to inf or NaN, and an infinite eps
    makes every step zero: a spec built directly keeps the ranges the
    config applies, which admit finite values only, and never a bool."""
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        TrainSpec(method=M.ROBUST_SSDU, **{field: value})


@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("epochs", True),
                                          ("batch_size", 1.5), ("seed", 2.5), ("seed", True),
                                          ("seed", -3), ("seed", "7"), ("seed", 2 ** 64)])
def test_train_spec_rejects_counts_that_are_not_integers(field, value):
    """Epochs, the batch size and the seed are integers, as in the config:
    never a float, and never a bool; the seed, by the rule of the config's
    top-level seed, is in [0, 2^64), so 2.5 is not trained as seed 2 and
    2^64 not as seed 0."""
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        TrainSpec(method=M.ROBUST_SSDU, **{field: value})


@pytest.mark.parametrize("field, value", [("lambda_n2r", math.nan), ("lambda_n2r", math.inf),
                                          ("alpha", 0.0), ("alpha", math.nan), ("alpha", -1.0)])
def test_train_spec_rejects_loss_settings_outside_the_config_ranges(field, value):
    """The Noise2Recon weight and the further-noise ratio keep the ranges
    ``resolve_config`` applies to ``train.lambda_n2r`` and ``train.alpha``,
    NaN and infinity included, and the error names the field."""
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        TrainSpec(method=M.ROBUST_SSDU, **{field: value})


@pytest.mark.parametrize("method", [M.NOISIER2FULL, M.ROBUST_SSDU])
def test_train_rejects_weight_alpha_other_than_model_alpha(method):
    """A weighted loss at one alpha and further noise (and correction) at
    another would train a loss whose weights do not match its own noise."""
    model = model_preset("banded", sigma_n=0.3, alpha=0.75)
    with pytest.raises(ConfigError, match="alpha 1 but .* alpha 0.75"):
        train(TrainSpec(method=method, epochs=1), TinyNet(model.q), build_dataset(model, 2, 0),
              model)


@pytest.mark.parametrize("preset", ["banded", "bernoulli2d"])
def test_dataset_and_second_level_rows_equal_items_drawn_alone(preset):
    """Each row has the bits of its item simulated alone from its own
    substream: ground truth, measurement noise, first-level mask for a
    dataset; second-level mask, further noise for an epoch's draws."""
    model = model_preset(preset, sigma_n=0.3, alpha=0.75)
    q, n = model.q, 7
    data = build_dataset(model, n, seed=4, label=("test", "rows"))
    lam, ntilde = second_level_draws(streams(4, "epoch", 2, "item", count=n), n, q,
                                     model.lambda_dist, 0.2)
    for i in range(n):
        rng = stream(4, "test", "rows", i)
        white = (1.0 / np.sqrt(2.0)) * (rng.standard_normal(q) + 1j * rng.standard_normal(q))
        y0 = model._sqrt_factor @ white
        noise = (0.3 / np.sqrt(2.0)) * (rng.standard_normal(q) + 1j * rng.standard_normal(q))
        omega = rng.random(q) < model.omega_probs()
        assert np.array_equal(data.y0[i], y0) and np.array_equal(data.noise[i], noise)
        assert np.array_equal(data.omega[i], omega)
        assert np.array_equal(data.y[i], apply_mask(mask_of(q, np.nonzero(omega)[0],
                                                            model.omega_probs()), y0 + noise))
        rng = stream(4, "epoch", 2, "item", i)
        assert np.array_equal(lam[i], rng.random(q) < model.lambda_probs())
        assert np.array_equal(ntilde[i], complex_gaussian(q, 0.2, rng))


def test_validation_nmse_adds_item_scores_in_order():
    """The validation NMSE adds the items' scores in order, as a loop over
    the items does (a pairwise sum of 40 scores rounds differently)."""
    model = model_preset("banded", sigma_n=0.3, alpha=1.0)
    data = build_dataset(model, 40, seed=1)
    spec = TrainSpec(method=M.NOISIER2FULL, epochs=1, seed=1)
    est, history = train(spec, TinyNet(model.q, width_factor=1, seed=0), data, model)
    total = 0.0
    for i in range(len(data)):
        total += nmse(reconstruct(spec.method, est, data[i].y, data[i].omega, model.noise),
                      data.y0[i])
    assert history[0]["val_nmse"] == total / len(data)
