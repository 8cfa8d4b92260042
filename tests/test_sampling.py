"""Mask distributions, density scaling, and the k / P weighting quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab.errors import ConfigError, ValidationError
from kslab.rng import stream
from kslab.sampling import (
    MaskDistribution,
    build_density,
    compute_P,
    compute_k,
    validate_mask_conditions,
)


def test_density_no_acceleration():
    dist = MaskDistribution("column_polynomial", 16, 1.0, 2)
    assert np.array_equal(build_density(dist), np.ones(16))


def test_density_accel_target():
    dist = MaskDistribution("column_polynomial", 32, 4.0, 4)
    probs = build_density(dist)
    assert abs(probs.sum() - 8.0) <= 0.08
    assert np.all(probs > 0) and np.all(probs <= 1)


def test_density_center_always_one():
    for accel in (1.5, 3.0, 8.0):
        dist = MaskDistribution("column_polynomial", 32, accel, 4)
        probs = build_density(dist)
        center = np.argsort(np.abs(np.arange(32) - 15.5), kind="stable")[:4]
        assert np.all(probs[center] == 1.0)


def test_density_unattainable_accel():
    with pytest.raises(ConfigError):
        MaskDistribution("column_polynomial", 16, 10.0, 4)


@pytest.mark.parametrize("kind, q, shape", [("column_polynomial", 8, None),
                                            ("bernoulli2d_polynomial", 64, (8, 8))])
def test_density_rejects_a_degree_that_underflows_to_zero(kind, q, shape):
    """At degree 1e6 the density underflows to 0 off the center: the
    bisection bracket is infinite and the scaled probabilities would be NaN,
    which every comparison lets through."""
    dist = MaskDistribution(kind, q, 2.0, 2, degree=1e6, shape=shape)
    with pytest.raises(ConfigError, match=r"degree 1e\+06 underflows the density"):
        dist.probs()


def test_density_with_every_index_forced_takes_any_degree():
    """The bracket is taken off the forced center: with every index forced
    there is nothing to scale, and no degree is too large."""
    dist = MaskDistribution("column_polynomial", 4, 1.0, 4, degree=1e6)
    assert np.array_equal(dist.probs(), np.ones(4))


def test_density_2d_bernoulli():
    dist = MaskDistribution("bernoulli2d_polynomial", 64, 3.0, 4, shape=(8, 8))
    probs = build_density(dist)
    assert probs.shape == (64,)
    assert abs(64 / probs.sum() - 3.0) <= 0.03


@pytest.mark.parametrize("dist", [
    MaskDistribution("column_polynomial", 16, 2.0, 2),
    MaskDistribution("column_polynomial", 24, 2.0, 2),
    MaskDistribution("bernoulli2d_polynomial", 64, 3.0, 4, shape=(8, 8)),
])
def test_draw_members_rows_match_single_draws(dist):
    """Batched membership rows keep the per-mask stream layout: the rows of
    one batch are consecutive single draws (one uniform per index, compared
    with its probability)."""
    rows = dist.draw_members(stream(2, "rows"), 5)
    assert rows.shape == (5, dist.q) and rows.dtype == bool
    rng = stream(2, "rows")
    for row in rows:
        assert np.array_equal(row, rng.random(dist.q) < dist.probs())
    assert np.array_equal(dist.draw(stream(3, "one")).member,
                          dist.draw_members(stream(3, "one"), 1)[0])


def test_draw_mask_empirical_frequency():
    probs = build_density(MaskDistribution("column_polynomial", 24, 3.0, 2))
    rng = stream(7, "freq")
    n = 100_000
    hits = (rng.random((n, 24)) < probs).mean(axis=0)
    assert np.abs(hits - probs).max() <= 0.01


def test_distribution_empirical_acceleration():
    dist = MaskDistribution("column_polynomial", 32, 4.0, 2)
    rng = stream(3, "accel")
    sizes = [np.count_nonzero(dist.draw(rng).member) for _ in range(10_000)]
    got = 32 / np.mean(sizes)
    assert abs(got - 4.0) <= 0.08


def test_compute_k_examples():
    assert compute_k([1.0], [0.7])[0] == 0.0
    assert np.isclose(compute_k([0.5], [0.5])[0], 2.0 / 3.0)
    assert np.isclose(compute_k([0.3], [0.0])[0], 0.7)


def test_compute_k_range():
    rng = stream(5, "k")
    for _ in range(200):
        p = rng.uniform(0.01, 1.0, 8)
        pt = rng.uniform(0.0, 0.99, 8)
        k = compute_k(p, pt)
        assert np.all(k >= 0.0) and np.all(k < 1.0)


def test_compute_k_precondition_errors():
    with pytest.raises(ValidationError, match="p must be positive"):
        compute_k([0.0, 0.5], [0.2, 0.2])
    with pytest.raises(ValidationError, match="index 1"):
        compute_k([1.0, 0.5], [1.0, 1.0])


def test_compute_P_examples():
    assert np.isclose(compute_P([1.0], [0.5])[0], 1.0)
    assert np.isclose(compute_P([0.5], [0.5])[0], 3.0)
    # weight defined as 1 where the loss never uses it
    assert compute_P([1.0], [1.0])[0] == 1.0


def test_P_times_one_minus_k_identity():
    rng = stream(11, "pk")
    for _ in range(100):
        q = int(rng.integers(1, 12))
        p = rng.uniform(0.05, 1.0, q)
        pt = rng.uniform(0.0, 0.95, q)
        ident = compute_P(p, pt) * (1.0 - compute_k(p, pt))
        assert np.abs(ident - 1.0).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data(), q=st.integers(1, 16))
def test_P_times_one_minus_k_identity_property(data, q):
    """P (1 - k) = 1 over the ranges of the appendix-identity check."""
    p = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=q, max_size=q)))
    pt = np.array(data.draw(st.lists(st.floats(0.0, 0.95), min_size=q, max_size=q)))
    ident = compute_P(p, pt) * (1.0 - compute_k(p, pt))
    assert np.abs(ident - 1.0).max() <= 1e-12


def test_validate_mask_conditions_passes_center():
    # p = 1 at the center permits ptilde = 1 there
    validate_mask_conditions([1.0, 0.5], [1.0, 0.5])


@pytest.mark.parametrize("p, ptilde", [([np.nan, 0.5], [0.5, 0.5]),
                                       ([0.5, 0.5], [0.5, np.nan]),
                                       ([np.inf, 0.5], [0.5, 0.5])],
                         ids=["nan_p", "nan_ptilde", "inf_p"])
def test_validate_mask_conditions_rejects_non_finite_probabilities(p, ptilde):
    """The conditions are comparisons, which a NaN passes: finiteness is
    checked first."""
    with pytest.raises(ValidationError, match="must be finite"):
        validate_mask_conditions(p, ptilde)


def test_mask_distribution_rejects_bad_kind():
    """An unknown kind, and a shape given with any kind but the 2-D one or
    missing from it: every law draws one Bernoulli per index."""
    for kind, q, shape in [("poisson_disc", 8, None),
                           ("column_polynomial", 24, (4, 6)),
                           ("bernoulli2d_polynomial", 64, None)]:
        with pytest.raises(ConfigError):
            MaskDistribution(kind, q, 2.0, 2, shape=shape)


@pytest.mark.parametrize("field, value", [("degree", float("nan")), ("degree", 0.0),
                                          ("n_center", True), ("n_center", 1.5),
                                          ("target_accel", float("inf"))])
def test_mask_distribution_checks_its_numbers_by_the_config_rules(field, value):
    """A mask law built directly takes what the config's model.degree and
    acceleration rules take: a NaN degree would give NaN probabilities, and
    a boolean or fractional n_center a density of the wrong center."""
    args = {"kind": "column_polynomial", "q": 8, "target_accel": 2.0, "n_center": 0,
            **{field: value}}
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        MaskDistribution(**args)


@pytest.mark.parametrize("call,exc,message", [
    (lambda: MaskDistribution("bernoulli2d_polynomial", 16, 2.0, 2, 8.0, (3, 3)), ConfigError,
     "shape (3, 3) does not flatten to q=16"),
    (lambda: validate_mask_conditions([0.5, 0.5], [0.5]), ValidationError,
     "probability vectors disagree in length: (2,) vs (1,)"),
], ids=["shape", "lengths"])
def test_sampling_guards_raise_their_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
