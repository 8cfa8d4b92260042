"""Estimator families: forward semantics, exact gradients, rank checks, fits."""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kslab import methods as M
from kslab.errors import ConfigError, DimensionError, ValidationError
from kslab.estimators import (
    FAMILIES,
    AffinePerPattern,
    Estimator,
    Mlp,
    OuterPiece,
    PatternFallbackWarning,
    TinyNet,
    ToyCascade,
    _sigmoid,
    closed_form_affine_fit,
    formed,
    gather_pieces,
    group_rows,
    load_checkpoint,
    make_estimator,
)
from kslab.kspace import SamplingMask, full_mask
from kslab.noise import NoiseSpec
from kslab.rng import stream
from kslab.sampling import MaskDistribution
from kslab.synthetic import MeasurementModel, model_preset


def rand_vec(q, seed):
    rng = stream(seed, "v")
    return rng.standard_normal(q) + 1j * rng.standard_normal(q)


def fd_gradient(est, y, m, cot, step=1e-5):
    """Central finite differences of Re<cot, forward> in theta."""
    base = est.theta.copy()
    out = np.zeros_like(base)
    for i in range(base.shape[0]):
        for sign in (1.0, -1.0):
            theta = base.copy()
            theta[i] += sign * step
            est.theta = theta
            f = est.forward(y, m)
            out[i] += sign * float(np.sum(cot.real * f.real + cot.imag * f.imag))
    est.theta = base
    return out / (2 * step)


def make_mask(q, indices, prob=0.6):
    return SamplingMask.from_indices(q, indices, np.full(q, prob))


@pytest.mark.parametrize("family,opts", [
    ("affine_per_pattern", {}),
    ("tiny_net", {"hidden_layers": 2, "width_factor": 2, "seed": 3}),
    ("toy_cascade", {"cascades": 2, "seed": 4}),
    ("toy_cascade", {"cascades": 3, "seed": 5}),
])
def test_vjp_matches_finite_differences(family, opts):
    q = 4
    est = make_estimator(family, q, **opts)
    m = make_mask(q, [0, 2, 3])
    est.ensure_pattern(m)
    base = est.theta.copy() if est.theta.size else np.zeros(0)
    for trial in range(10):  # 10 random (theta, input) pairs
        est.theta = base + 0.3 * stream(1, "t", trial).standard_normal(base.shape[0])
        y = rand_vec(q, 50 + trial)
        cot = rand_vec(q, 90 + trial)
        g = est.vjp(y, m, cot)
        fd = fd_gradient(est, y, m, cot)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(g - fd).max() / denom < 1e-6


def test_vjp_zero_cotangent():
    est = TinyNet(3, seed=0)
    g = est.vjp(rand_vec(3, 1), full_mask(3), np.zeros(3, dtype=complex))
    assert np.array_equal(g, np.zeros_like(est.theta))


def test_affine_identity_forward():
    q = 3
    est = AffinePerPattern(q)
    m = full_mask(q)
    est.set_blocks(m.member[None], np.eye(q, dtype=complex)[None],
                   np.zeros((1, q), dtype=complex))
    y = rand_vec(q, 2)
    assert np.allclose(est.forward(y, m), y)


def test_affine_gradient_independent_of_theta():
    q = 2
    est = AffinePerPattern(q)
    m = full_mask(q)
    est.ensure_pattern(m)
    y, cot = rand_vec(q, 3), rand_vec(q, 4)
    g0 = est.vjp(y, m, cot)
    est.theta = stream(5, "t").standard_normal(est.theta.shape[0])
    assert np.allclose(g0, est.vjp(y, m, cot))


def test_affine_fallback_warns_and_uses_nearest():
    q = 4
    est = AffinePerPattern(q)
    near = make_mask(q, [0, 1])
    far = make_mask(q, [3])
    est.set_blocks(np.array([near.member, far.member]),
                   np.array([2.0, 5.0])[:, None, None] * np.eye(q, dtype=complex),
                   np.zeros((2, q)))
    y = rand_vec(q, 6)
    probe = make_mask(q, [0, 1, 2])  # distance 1 from `near`, 4 from `far`
    with pytest.warns(PatternFallbackWarning):
        out = est.forward(y, probe)
    assert np.allclose(out, 2.0 * y)
    # stacked: the fallback row and the enrolled row share one block
    theta = np.broadcast_to(est.theta, (2, est.theta.shape[0]))
    with pytest.warns(PatternFallbackWarning):
        out, pullback = est.forward_vjp_stack(theta, np.stack([y, y]),
                                              np.stack([probe.member, near.member]))
    assert np.allclose(out, 2.0 * np.stack([y, y]))
    cot = np.stack([rand_vec(q, 7), rand_vec(q, 8)])
    grad = gather_pieces(pullback(cot), theta.shape)
    assert np.allclose(grad[0], est.vjp(y, probe, cot[0]))
    assert np.allclose(grad[1], est.vjp(y, near, cot[1]))


def _affine_stack_case(q, n, seed):
    """An affine estimator with three enrolled patterns and a (n, q) stack of
    inputs whose supports cycle through them."""
    est = AffinePerPattern(q)
    patterns = [make_mask(q, idx) for idx in ([0, 1], [2], [0, 2, 3])]
    for m in patterns:
        est.ensure_pattern(m)
    est.theta = stream(seed, "theta").standard_normal(est.theta.shape[0])
    members = np.stack([patterns[c % 3].member for c in range(n)])
    rng = stream(seed, "rows")
    y = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    cot = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    return est, np.where(members, y, 0.0), members, cot


def _assert_rows_alone(est, theta, y, members, cot):
    """Each output and gradient row of one stacked call equals, bit for bit,
    the same row computed as a stack of one."""
    out, pullback = est.forward_vjp_stack(theta, y, members)
    grad = gather_pieces(pullback(cot), theta.shape)
    for c in range(len(y)):
        out_c, pullback_c = est.forward_vjp_stack(theta[c:c + 1], y[c:c + 1], members[c:c + 1])
        assert np.array_equal(out[c], out_c[0])
        assert np.array_equal(grad[c], gather_pieces(pullback_c(cot[c:c + 1]),
                                                     (1, theta.shape[1]))[0])


def test_affine_get_blocks_rejects_a_pattern_not_enrolled():
    """Reading blocks never falls back to the nearest enrolled pattern."""
    est = AffinePerPattern(4)
    est.ensure_patterns(np.array([[True, False, True, False]]))
    with pytest.raises(ValidationError, match="pattern not enrolled"):
        est.get_blocks(np.array([[True, False, True, False], [True, True, False, False]]))


def test_affine_stack_rejects_distinct_theta_rows():
    """The family has no stack layout: it takes one parameter vector (one
    row, or rows broadcast from it), and distinct rows raise rather than
    run under row 0."""
    est, y, members, _ = _affine_stack_case(4, 12, 1)
    theta = stream(2, "rows_theta").standard_normal((12, est.theta.shape[0]))
    with pytest.raises(DimensionError, match="one theta"):
        est.forward_vjp_stack(theta, y, members)


def test_affine_stack_rows_match_rows_alone_broadcast_theta():
    est, y, members, cot = _affine_stack_case(4, 12, 3)
    theta = np.broadcast_to(est.theta, (12, est.theta.shape[0]))
    _assert_rows_alone(est, theta, y, members, cot)
    out, pullback = est.forward_vjp_stack(theta, y, members)
    grad = gather_pieces(pullback(cot), theta.shape)
    for c in range(12):  # the per-item library path under the estimator's own theta
        mask = SamplingMask(members[c], np.full(4, 0.6))
        assert np.array_equal(out[c], est.forward(y[c], mask))
        assert np.array_equal(grad[c], est.vjp(y[c], mask, cot[c]))


def test_affine_stack_mixed_unknown_patterns_warn_once_each():
    q = 4
    est, y, members, cot = _affine_stack_case(q, 12, 4)
    unknown = [make_mask(q, [0, 1, 2]).member, make_mask(q, [3]).member]
    members = members.copy()
    members[[1, 5, 9]] = unknown[0]   # nearest: {0, 1} (block 0)
    members[[4, 10]] = unknown[1]     # nearest: {2} and {0, 2, 3} tie; argmin takes {2}
    y = np.where(members, y, 0.0)
    theta = np.broadcast_to(est.theta, (12, est.theta.shape[0]))
    with pytest.warns(PatternFallbackWarning) as record:
        out, pullback = est.forward_vjp_stack(theta, y, members)
    assert sum(w.category is PatternFallbackWarning for w in record) == 2
    grad = gather_pieces(pullback(cot), theta.shape)
    bs = est.block_size
    for rows, block in (([1, 5, 9], 0), ([4, 10], 1)):
        for c in rows:
            alone = est.forward_vjp_stack(theta[:1], y[c:c + 1],
                                          est._members[block][None])
            assert np.array_equal(out[c], alone[0][0])
            assert np.array_equal(grad[c], gather_pieces(alone[1](cot[c:c + 1]),
                                                         theta[:1].shape)[0])
            assert np.count_nonzero(grad[c][:block * bs]) == 0
            assert np.count_nonzero(grad[c][(block + 1) * bs:]) == 0


def _group_rows_reference(rows):
    """Groups of equal rows keyed by each row's bytes, in order of first appearance."""
    raw = np.ascontiguousarray(rows).tobytes()
    width = len(raw) // max(len(rows), 1)
    groups = {}
    for c in range(len(rows)):
        groups.setdefault(raw[c * width:(c + 1) * width], []).append(c)
    return [np.array(idx) for idx in groups.values()]


def _assert_same_groups(rows):
    got, want = group_rows(rows), _group_rows_reference(rows)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 256), n_distinct=st.integers(1, 6))
def test_group_rows_matches_dict_of_bytes_reference(data, width, n_distinct):
    """Same groups in the same order as keying rows by their bytes, for 0, 1
    and many rows of any width (a few distinct rows, so groups repeat)."""
    distinct = data.draw(arrays(bool, (n_distinct, width)))
    picks = data.draw(st.lists(st.integers(0, n_distinct - 1), max_size=64))
    _assert_same_groups(distinct[np.array(picks, dtype=int)])


@pytest.mark.parametrize("q", [1, 8, 64, 128])
def test_group_rows_on_mask_pair_rows(q):
    """Width 2q: the (Omega, Lambda) rows the gradient oracle groups."""
    rng = stream(q, "pairs")
    omega = rng.random((4096, q)) < 0.9
    lam = rng.random((4096, q)) < 0.9
    _assert_same_groups(np.concatenate([omega, lam], axis=1))


def _sigmoid_reference(z):
    """The logistic function by boolean indexing: 1 / (1 + exp(-z)) on z >= 0,
    exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_boolean_index_reference_bitwise():
    edges = [0.0, -0.0, 700.0, -700.0, 746.0, -746.0, np.inf, -np.inf]
    z = np.concatenate([30.0 * stream(5, "sigmoid").standard_normal(10 ** 6), edges])
    with np.errstate(over="ignore"):
        expected = _sigmoid_reference(z)
    assert np.array_equal(_sigmoid(z).view(np.int64), expected.view(np.int64))
    assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


def test_layer_views_follow_the_parameter_array():
    """Views cut for one parameter array serve only that array, and see its
    in-place updates: each call matches a freshly built estimator."""
    q, n = 4, 3
    est = TinyNet(q, width_factor=2, seed=3)
    rng = stream(6, "views")
    y = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    members = np.ones((n, q), dtype=bool)
    cot = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    a = rng.standard_normal((n, est.theta.shape[0]))
    b = rng.standard_normal((n, est.theta.shape[0]))

    def check(theta):
        out, pullback = est.forward_vjp_stack(theta, y, members)
        fresh = TinyNet(q, width_factor=2, seed=3)
        fresh_out, fresh_pullback = fresh.forward_vjp_stack(theta.copy(), y, members)
        assert np.array_equal(out, fresh_out)
        assert np.array_equal(gather_pieces(pullback(cot), theta.shape),
                              gather_pieces(fresh_pullback(cot), theta.shape))

    check(a)
    a *= 0.5  # an in-place update, as Adam's, seen through the kept views
    check(a)
    check(b)  # a distinct array of the same shape
    a *= 0.5
    check(a)


def test_pullback_stays_valid_after_a_later_forward():
    q, n = 4, 3
    est = TinyNet(q, width_factor=2, seed=3)
    rng = stream(7, "later")
    y = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    members = np.ones((n, q), dtype=bool)
    cot = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    theta = rng.standard_normal((n, est.theta.shape[0]))
    _, pullback = est.forward_vjp_stack(theta, y, members)
    expected = gather_pieces(pullback(cot), theta.shape)
    est.forward_vjp_stack(rng.standard_normal(theta.shape), 2.0 * y, members)
    assert np.array_equal(gather_pieces(pullback(cot), theta.shape), expected)


def test_toy_cascade_rows_match_rows_alone():
    """A cascade's stacked pullback carries each network's input gradient
    into the earlier cascade, as the rows alone do; with 3 cascades the
    networks of cascade k = 2 read and write their spans of the row too."""
    q, n = 4, 6
    for cascades in (2, 3):
        est = ToyCascade(q, cascades=cascades, seed=4)
        rng = stream(8, "cascade_rows")
        members = rng.random((n, q)) < 0.6
        noise = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        y = np.where(members, noise, 0.0)
        cot = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        theta = est.theta + 0.1 * rng.standard_normal((n, est.theta.shape[0]))
        _assert_rows_alone(est, theta, y, members, cot)
        # and the gradient is right: a directional derivative per row, by central differences
        step = 1e-6
        grad = gather_pieces(est.forward_vjp_stack(theta, y, members)[1](cot), theta.shape)
        d = rng.standard_normal(theta.shape)
        plus, minus = (est.forward_vjp_stack(theta + sign * step * d, y, members)[0]
                       for sign in (1.0, -1.0))
        fd = np.sum((np.conj(cot) * (plus - minus)).real, axis=1) / (2 * step)
        assert np.allclose(np.sum(grad * d, axis=1), fd, rtol=1e-6, atol=1e-8)


def _outer_formed(g) -> np.ndarray:
    """An ``OuterPiece`` formed by broadcasting, not by its ``block``; an
    array as it is."""
    if isinstance(g, OuterPiece):
        return (g.g[:, :, None] * g.h[:, None, :]).reshape(g.shape)
    return g


def _cascade_whole_gradient(est, theta, y, members, cot):
    """The cascade's gradient written into one (C, P) array: the forward
    pass again, then each cascade's eta, G_D and G_R gradients into their
    columns of the whole rows (each outer product formed by broadcasting),
    and the cotangent carried back."""
    x = np.concatenate([y.real, y.imag], axis=-1)
    mvec = np.concatenate([members, members], axis=-1).astype(np.float64)
    states, caches, s = [x], [], x
    for i_eta, d_net, r_net in est.nets:
        (d_out, d_cache), (r_out, r_cache) = d_net.forward(theta, s), r_net.forward(theta, s)
        s = s - theta[:, i_eta, None] * mvec * (s - x) + mvec * d_out + (1.0 - mvec) * r_out
        states.append(s)
        caches.append((d_cache, r_cache))
    grad = np.full(theta.shape, np.nan)
    a = np.concatenate([cot.real, cot.imag], axis=-1)
    for k in range(len(est.nets) - 1, -1, -1):
        (i_eta, d_net, r_net), (d_cache, r_cache) = est.nets[k], caches[k]
        grad[:, i_eta] = -np.matmul(a[:, None, :], (mvec * (states[k] - x))[:, :, None])[:, 0, 0]
        d_pieces, ax_d = d_net.backward(d_cache, mvec * a)
        r_pieces, ax_r = r_net.backward(r_cache, (1.0 - mvec) * a)
        for span, g in d_pieces + r_pieces:
            grad[:, span] = _outer_formed(g)
        a = a * (1.0 - theta[:, i_eta, None] * mvec) + ax_d + ax_r
    return grad


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("cascades", [1, 2, 3])
def test_toy_cascade_pullback_hands_over_each_span_once_it_is_read(cascades, rows):
    """The pieces' spans cover the parameter row once, each network's
    weights as an ``OuterPiece``; gathered, the pieces are the whole-row
    gradient bit for bit; and a consumer that overwrites each handed-over
    span of theta (with NaN) before asking for the next piece changes no
    later piece: a span is handed over only once the rest of the pullback
    reads none of its parameters."""
    q = 4
    est = ToyCascade(q, cascades=cascades, seed=cascades)
    rng = stream(10, "pieces", cascades, rows)
    members = rng.random((rows, q)) < 0.6
    y = np.where(members, rng.standard_normal((rows, q)) + 1j * rng.standard_normal((rows, q)),
                 0.0)
    cot = rng.standard_normal((rows, q)) + 1j * rng.standard_normal((rows, q))
    theta = est.theta + 0.1 * rng.standard_normal((rows, est.theta.shape[0]))
    _, pullback = est.forward_vjp_stack(theta, y, members)
    pieces = list(pullback(cot))
    covered = np.zeros(theta.shape[1], dtype=int)
    for span, g in pieces:
        assert g.shape == (rows, span.stop - span.start)
        covered[span] += 1
    assert (covered == 1).all()
    assert sum(isinstance(g, OuterPiece) for _, g in pieces) == 2 * 2 * cascades
    pieces = [(span, formed(g)) for span, g in pieces]
    whole = _cascade_whole_gradient(est, theta, y, members, cot)
    assert gather_pieces(pullback(cot), theta.shape).tobytes() == whole.tobytes()
    spoiled = theta.copy()
    _, pullback = est.forward_vjp_stack(spoiled, y, members)
    for (span, g), (want_span, want) in zip(pullback(cot), pieces, strict=True):
        assert span == want_span and formed(g).tobytes() == want.tobytes()
        spoiled[:, span] = np.nan
    assert np.isnan(spoiled).all()


def test_outer_piece_forms_every_column_range_as_broadcasting_does():
    """``OuterPiece.block`` forms any range lo:hi of a row, whether it lies
    in one row of W, cuts rows at either end or holds whole ones, to the
    bits of the broadcast product; ``formed`` and ``gather_pieces`` form
    the whole piece."""
    rng = stream(14, "outer_block")
    piece = OuterPiece(rng.standard_normal((2, 3)), rng.standard_normal((2, 4)))
    whole = _outer_formed(piece)
    assert piece.shape == whole.shape == (2, 12)
    for lo in range(12):
        for hi in range(lo + 1, 13):
            out = np.full((2, hi - lo), np.nan)
            assert piece.block(lo, hi, out) is out
            assert out.tobytes() == whole[:, lo:hi].tobytes()
    assert formed(piece).tobytes() == whole.tobytes()
    grad = gather_pieces([(slice(1, 13), piece), (slice(0, 1), np.ones((2, 1)))], (2, 13))
    assert grad[:, 1:].tobytes() == whole.tobytes() and (grad[:, 0] == 1.0).all()


def test_tiny_net_and_affine_hand_over_the_whole_row_as_one_piece():
    """One piece, the whole row, which gathering returns without a copy."""
    est, y, members, cot = _affine_stack_case(4, 5, 6)
    affine = (est, np.broadcast_to(est.theta, (5, est.theta.shape[0])))
    net = TinyNet(4, width_factor=2, seed=1)
    for est, theta in (affine, (net, np.tile(net.theta, (5, 1)))):
        [(span, g)] = est.forward_vjp_stack(theta, y, members)[1](cot)
        assert span == slice(0, theta.shape[1]) and g.shape == theta.shape
        assert gather_pieces([(span, g)], theta.shape) is g


def test_mlp_at_an_offset_matches_mlp_on_its_span():
    """A network at a nonzero start of a wider row computes the bits that a
    network at 0 computes on that span alone, and its backward pass hands
    over the gradient of its span, as pieces of the wider row, and nothing
    else: each layer's W as the outer product of its delta and input, and
    its b as that delta."""
    sizes, start, n = (6, 5, 4), 7, 3
    inner = Mlp(sizes, 0)
    net = Mlp(sizes, start)
    rng = stream(9, "mlp_offset")
    theta = rng.standard_normal((n, net.end + 4))
    span = theta[:, start:net.end].copy()
    x = rng.standard_normal((n, sizes[0]))
    gy = rng.standard_normal((n, sizes[-1]))
    y, cache = net.forward(theta, x)
    y_inner, cache_inner = inner.forward(span, x)
    assert np.array_equal(y, y_inner)
    pieces, gx = net.backward(cache, gy)
    inner_pieces, gx_inner = inner.backward(cache_inner, gy)
    assert np.array_equal(gx, gx_inner)
    out = np.full(theta.shape, np.nan)
    for (piece_span, g), (inner_span, g_inner) in zip(pieces, inner_pieces, strict=True):
        assert (piece_span.start, piece_span.stop) == (inner_span.start + start,
                                                       inner_span.stop + start)
        assert type(g) is type(g_inner) and np.array_equal(formed(g), formed(g_inner))
        out[:, piece_span] = _outer_formed(g)
    assert [type(g) for _, g in pieces] == [OuterPiece, np.ndarray] * 2
    assert np.array_equal(out[:, start:net.end], gather_pieces(inner_pieces, span.shape))
    assert np.isnan(out[:, :start]).all() and np.isnan(out[:, net.end:]).all()


def _reference_init(rng, sizes) -> list:
    """One network's parameters as the per-layer draws standard_normal(n) /
    sqrt(fan_in), each followed by zero biases."""
    parts = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        parts.append(rng.standard_normal(fan_out * fan_in) / np.sqrt(fan_in))
        parts.append(np.zeros(fan_out))
    return parts


@pytest.mark.parametrize("q,hidden_layers,width_factor,seed", [(3, 2, 4, 0), (5, 1, 3, 7)])
def test_tiny_net_init_matches_per_layer_reference(q, hidden_layers, width_factor, seed):
    est = TinyNet(q, hidden_layers=hidden_layers, width_factor=width_factor, seed=seed)
    sizes = [2 * q] + [max(2, width_factor * q)] * hidden_layers + [2 * q]
    want = np.concatenate(_reference_init(stream(seed, "tiny_net_init"), sizes))
    assert est.theta.tobytes() == want.tobytes()


@pytest.mark.parametrize("q,cascades,seed", [(3, 2, 0), (4, 3, 5)])
def test_toy_cascade_init_matches_per_layer_reference(q, cascades, seed):
    """eta = 1, then G_D and G_R of each cascade, drawn in that order from
    one generator."""
    est = ToyCascade(q, cascades=cascades, seed=seed)
    rng = stream(seed, "toy_cascade_init")
    parts = []
    for _ in range(cascades):
        parts.append(np.ones(1))
        for _net in range(2):
            parts += _reference_init(rng, [2 * q, 2 * q, 2 * q])
    assert est.theta.tobytes() == np.concatenate(parts).tobytes()


def test_affine_no_patterns_raises():
    est = AffinePerPattern(2)
    with pytest.raises(ValidationError):
        est.forward(rand_vec(2, 7), full_mask(2))


def test_cascade_data_consistency_fixpoint():
    q = 5
    est = ToyCascade(q, cascades=1, seed=0)
    est.theta = np.zeros_like(est.theta)
    est.theta[0] = 1.0  # step size 1, refinement networks zeroed
    m = make_mask(q, [1, 3])
    y = rand_vec(q, 8)
    out = est.forward(y, m)
    assert np.array_equal(out, y)
    assert np.array_equal(out[np.asarray(m.member)], y[np.asarray(m.member)])


@dataclass(frozen=True)
class RankReport:
    rank: int
    n_rows: int
    n_params: int
    smallest_retained_sv: float

    @property
    def full_rank(self) -> bool:
        return self.rank == self.n_rows


def jacobian_rank_check(est: Estimator, y_in, m_in: SamplingMask) -> RankReport:
    """Numerical rank of the output-vs-parameter Jacobian at (y_in, m_in).

    The 2q rows (real and imaginary output channels) are assembled from one
    forward pass and 2q pullbacks of unit cotangents. A deficient rank
    is reported, not raised: it flags an estimator that cannot satisfy the
    population-minimizer theory at this point.
    """
    q = est.q
    n = est.theta.shape[0]
    if n < 2 * q:
        raise ValidationError(f"need at least 2q = {2 * q} parameters, got {n}")
    rows = np.empty((2 * q, n))
    eye = np.eye(q, dtype=np.complex128)
    _, pullback = est.forward_vjp(y_in, m_in)
    for j in range(q):
        rows[j] = pullback(eye[j])
        rows[q + j] = pullback(1j * eye[j])
    sv = np.linalg.svd(rows, compute_uv=False)
    tol = max(rows.shape) * np.finfo(np.float64).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.count_nonzero(sv > tol))
    smallest = float(sv[rank - 1]) if rank > 0 else 0.0
    return RankReport(rank, 2 * q, n, smallest)



def test_jacobian_rank_affine_full():
    q = 3
    est = AffinePerPattern(q)
    m = make_mask(q, [0, 1])
    est.ensure_pattern(m)
    report = jacobian_rank_check(est, rand_vec(q, 9), m)
    assert report.full_rank and report.rank == 2 * q
    assert report.smallest_retained_sv > 0


def test_jacobian_rank_tiny_net_random_init():
    q = 4
    est = TinyNet(q, seed=1)
    report = jacobian_rank_check(est, rand_vec(q, 10), full_mask(q))
    assert report.full_rank


class GatedToy(Estimator):
    """Multiplicative gating: output = (theta[0] * theta[1]) * y."""

    family = "gated_toy"

    def __init__(self, q):
        super().__init__(q, np.zeros(2 * q))

    def forward_vjp(self, y_in, m_in):
        y = np.asarray(y_in, dtype=complex)

        def pullback(cotangent):
            c = np.asarray(cotangent, dtype=complex)
            inner = float(np.sum(c.real * y.real + c.imag * y.imag))
            g = np.zeros_like(self.theta)
            g[0] = self.theta[1] * inner
            g[1] = self.theta[0] * inner
            return g

        return (self.theta[0] * self.theta[1]) * y, pullback


def test_jacobian_rank_deficiency_reported_not_raised():
    est = GatedToy(2)  # all-zero parameters zero the Jacobian
    report = jacobian_rank_check(est, rand_vec(2, 11), full_mask(2))
    assert report.rank == 0
    assert not report.full_rank


def test_fit_fully_supervised_noiseless_identity():
    q = 4
    omega = MaskDistribution("column_polynomial", q, 1.0, 0)
    lam = MaskDistribution("column_polynomial", q, 2.0, 0)
    model = MeasurementModel(np.eye(q, dtype=complex), NoiseSpec(0.0, 1.0), omega, lam)
    est = closed_form_affine_fit(model, M.FULLY_SUPERVISED, full_mask(q))
    a, b = est.get_block(full_mask(q))
    assert np.abs(a - np.eye(q)).max() < 1e-10
    assert np.abs(b).max() == 0.0


def test_fit_scalar_robust_ssdu_coefficient():
    model = model_preset("scalar", sigma_n=1.0, alpha=1.0)
    pattern = full_mask(1)
    est = closed_form_affine_fit(model, M.ROBUST_SSDU, pattern)
    a, _ = est.get_block(pattern)
    # (sigma0^2 + sigma_n^2) / (sigma0^2 + (1 + alpha^2) sigma_n^2) = 2/3
    assert abs(a[0, 0] - 2.0 / 3.0) < 1e-12


def test_fit_supervised_wo_denoising_sampled_coefficient_one():
    model = model_preset("banded", sigma_n=0.3, alpha=1.0)
    pattern = SamplingMask.from_indices(8, [2, 3, 4], model.omega_probs())
    est = closed_form_affine_fit(model, M.SUPERVISED_WO_DENOISING, pattern)
    a, _ = est.get_block(pattern)
    for j in (2, 3, 4):
        row = np.zeros(8, dtype=complex)
        row[j] = 1.0
        assert np.abs(a[j] - row).max() < 1e-10


def test_fit_standard_ssdu_flags_unconstrained_rows():
    model = model_preset("banded", sigma_n=0.3, alpha=1.0)
    pattern = SamplingMask.from_indices(8, [3, 4], model.omega_probs() * model.lambda_probs())
    est = closed_form_affine_fit(model, M.STANDARD_SSDU, pattern)
    info = est.fit_info[pattern.member.tobytes()]
    assert info["unconstrained_rows"] == [3, 4]
    a, _ = est.get_block(pattern)
    assert np.abs(a[[3, 4], :]).max() == 0.0


def test_fit_rejects_noise2recon():
    model = model_preset("scalar", sigma_n=0.5, alpha=1.0)
    with pytest.raises(ConfigError):
        closed_form_affine_fit(model, M.NOISE2RECON_SS, full_mask(1))


def test_fit_singular_normal_equations_ridge_flagged():
    # zero prior and zero noise make the observed-block Gram singular
    q = 2
    omega = MaskDistribution("column_polynomial", q, 1.0, 0)
    lam = MaskDistribution("column_polynomial", q, 2.0, 0)
    model = MeasurementModel(np.zeros((q, q), dtype=complex), NoiseSpec(0.0, 1.0),
                             omega, lam)
    pattern = full_mask(q)
    est = closed_form_affine_fit(model, M.FULLY_SUPERVISED, pattern)
    info = est.fit_info[pattern.member.tobytes()]
    assert info["ridge_rows"] == [0, 1]
    a, _ = est.get_block(pattern)
    assert np.all(np.isfinite(a))


def test_unknown_method_names_are_config_errors():
    """An unknown or unhashable method name is a ConfigError where the method
    table is read, the closed-form fit included."""
    model = model_preset("banded", sigma_n=0.3, alpha=0.75)
    for name in ("bogus", [M.ROBUST_SSDU]):
        with pytest.raises(ConfigError, match="unknown method"):
            M.row(name)
        with pytest.raises(ConfigError, match="unknown method"):
            closed_form_affine_fit(model, name, np.ones((1, model.q), dtype=bool))


@pytest.mark.parametrize("family,opts", [
    ("affine_per_pattern", {}),
    ("tiny_net", {"hidden_layers": 1, "width_factor": 2, "seed": 2}),
    ("toy_cascade", {"cascades": 2, "seed": 3}),
])
def test_checkpoint_round_trip(family, opts):
    q = 3
    est = make_estimator(family, q, **opts)
    m = make_mask(q, [0, 2])
    est.ensure_pattern(m)
    if est.theta.shape[0]:
        est.theta = est.theta + 0.1 * stream(12, "t").standard_normal(est.theta.shape[0])
    back = load_checkpoint(json.loads(json.dumps(est.to_checkpoint())), est.theta.copy())
    assert np.array_equal(back.theta, est.theta)
    y = rand_vec(q, 13)
    assert np.array_equal(back.forward(y, m), est.forward(y, m))
    assert back.family == est.family
    back.theta += 1.0  # the loaded vector is writable (training updates it in place)


@pytest.mark.parametrize("family,opts", [
    ("affine_per_pattern", {}),
    ("tiny_net", {"hidden_layers": 1, "width_factor": 2, "seed": 2}),
    ("toy_cascade", {"cascades": 2, "seed": 3}),
])
def test_checkpoint_rejects_wrong_theta_length(family, opts):
    est = make_estimator(family, 3, **opts)
    est.ensure_pattern(make_mask(3, [0, 2]))
    with pytest.raises(ValidationError, match="parameters"):
        load_checkpoint(est.to_checkpoint(), est.theta[:-1].copy())


@pytest.mark.parametrize("family,opts,field,value", [
    ("affine_per_pattern", {}, "q", None),
    ("affine_per_pattern", {}, "q", "3"),
    ("affine_per_pattern", {}, "patterns", 2),
    ("affine_per_pattern", {}, "patterns", [[0, 3]]),
    ("affine_per_pattern", {}, "patterns", [[0, 1.5]]),
    ("tiny_net", {"hidden_layers": 1, "width_factor": 2, "seed": 2}, "hidden_layers", 0),
    ("tiny_net", {"hidden_layers": 1, "width_factor": 2, "seed": 2}, "width_factor", 2.0),
    ("tiny_net", {"hidden_layers": 1, "width_factor": 2, "seed": 2}, "seed", None),
    ("toy_cascade", {"cascades": 2, "seed": 3}, "cascades", True),
    ("toy_cascade", {"cascades": 2, "seed": 3}, "seed", "3"),
    ("toy_cascade", {"cascades": 2, "seed": 3}, "q", [3]),
    ("affine_per_pattern", {}, "patterns", [[0, 2], [0, 2]]),
    ("tiny_net", {"hidden_layers": 1, "width_factor": 2, "seed": 2}, "seed", -1),
    ("toy_cascade", {"cascades": 2, "seed": 3}, "seed", 2 ** 64),
])
def test_checkpoint_rejects_field_of_wrong_type(family, opts, field, value):
    est = make_estimator(family, 3, **opts)
    est.ensure_pattern(make_mask(3, [0, 2]))
    data = {**est.to_checkpoint(), field: value}
    with pytest.raises(ConfigError, match=f"estimator.{field}"):
        load_checkpoint(data, est.theta)


@pytest.mark.parametrize("family,opts", [
    ("affine_per_pattern", {}),
    ("tiny_net", {"hidden_layers": 1, "width_factor": 3, "seed": 7}),
    ("toy_cascade", {"cascades": 1, "seed": 7}),
])
def test_checkpoint_keys_are_the_declared_fields(family, opts):
    est = make_estimator(family, 3, **opts)
    est.ensure_pattern(make_mask(3, [0, 2]))
    data = est.to_checkpoint()
    extra = {"patterns"} if family == "affine_per_pattern" else set()
    assert set(data) == {"family", "q", *(name for name, _ in est.fields), *extra}
    assert {name: data[name] for name, _ in est.fields} == opts
    if extra:
        assert data["patterns"] == [[0, 2]]


@pytest.mark.parametrize("family,opts,field", [
    ("toy_cascade", {"cascades": 0}, "cascades"),
    ("tiny_net", {"hidden_layers": 2.7}, "hidden_layers"),
    ("tiny_net", {"width_factor": True}, "width_factor"),
    ("tiny_net", {"seed": 1.5}, "seed"),
    ("affine_per_pattern", {"q": 0}, "q"),
    ("tiny_net", {"q": 0}, "q"),
    ("toy_cascade", {"q": 2.0}, "q"),
])
def test_construction_checks_each_field_by_its_rule(family, opts, field):
    """A constructor applies the rule its class declares for q and each
    field, as the checkpoint reader does, so no field is truncated to an
    integer or found bad only later."""
    opts = {"q": 4, **opts}
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        make_estimator(family, **opts)
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        FAMILIES[family](**opts)


def test_make_estimator_rejects_unknown_family():
    with pytest.raises(ConfigError, match="unknown estimator family 'mlp'"):
        make_estimator("mlp", 3)
    with pytest.raises(ConfigError, match=r"unknown estimator family \['tiny_net'\]"):
        load_checkpoint({"family": ["tiny_net"], "q": 3}, np.zeros(0))


@pytest.mark.parametrize("family", ["tiny_net", "toy_cascade"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_estimator_seed_is_one_64_bit_word(family, seed):
    """``rng.stream`` keeps a seed's low 64 bits, so a seed outside
    [0, 2^64) would draw another seed's initialization: -1 that of 2^64 - 1."""
    with pytest.raises(ConfigError, match=rf"^seed must be an integer >= 0 and < {2 ** 64},"):
        make_estimator(family, 3, seed=seed)


@pytest.mark.parametrize("call,exc,message", [
    (lambda: AffinePerPattern(4).forward(np.zeros(4), full_mask(3)), DimensionError,
     "mask length 3 != estimator q 4"),
    (lambda: closed_form_affine_fit(model_preset("banded", sigma_n=0.3, alpha=1.0),
                                    M.ROBUST_SSDU, np.ones((1, 3), dtype=bool)),
     DimensionError, "pattern length does not match model"),
], ids=["input_mask", "fit_patterns"])
def test_estimator_guards_raise_their_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
