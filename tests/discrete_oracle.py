"""Brute-force discrete oracle: a non-Gaussian reference for the tests.

A small fully-discrete measurement model whose conditional means are
computed by enumerating every configuration of ground truth, both noise
layers and both masks, and a sampler for Monte Carlo comparison against it.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from kslab.errors import ConfigError, ValidationError
from kslab.kspace import as_kspace
from kslab.oracles import TARGET_Y0, TARGET_Y0_PLUS_N
from kslab.sampling import validate_mask_conditions



@dataclass(frozen=True)
class DiscreteModel:
    """Small fully-discrete measurement model for exhaustive conditioning.

    Per entry: the ground truth takes one of at most four complex atoms;
    both noise layers take values on small documented complex grids. Masks
    are independent Bernoulli with the given probabilities. Everything is
    enumerable, so conditional means are computable by direct summation.
    """

    atoms: tuple          # ((value, prob), ...) shared by all entries
    noise_grid: tuple     # ((value, prob), ...) measurement noise
    further_grid: tuple   # ((value, prob), ...) further noise
    p: tuple              # P[j in Omega]
    ptilde: tuple         # P[j in Lambda]

    def __post_init__(self):
        if len(self.atoms) > 4:
            raise ConfigError("discrete alphabet capped at 4 symbols per entry")
        if len(self.p) > 4:
            raise ConfigError("discrete models capped at q = 4")
        for dist in (self.atoms, self.noise_grid, self.further_grid):
            total = sum(prob for _, prob in dist)
            if abs(total - 1.0) > 1e-12:
                raise ValidationError("distribution weights must sum to 1")
        validate_mask_conditions(np.asarray(self.p), np.asarray(self.ptilde))

    @property
    def q(self) -> int:
        return len(self.p)


def two_point_noise_grid(sigma: float) -> tuple:
    """Four-point complex grid (+-g +-ig)/..., matching variance sigma^2.

    Each real channel takes +-sigma/sqrt(2) with probability 1/2, the
    discrete analog of the circular Gaussian convention.
    """
    if sigma == 0.0:
        return ((0.0 + 0.0j, 1.0),)
    g = sigma / math.sqrt(2.0)
    return tuple((complex(sr * g, si * g), 0.25) for sr in (-1, 1) for si in (-1, 1))


def _entry_tables(model: DiscreteModel, ytilde_j: complex, in_intersect: bool,
                  target: str):
    """Sum of config probabilities and probability-weighted targets for entry j."""
    weight = 0.0
    num = 0.0 + 0.0j
    for (a, pa), (nn, pn), (nt, pt) in product(model.atoms, model.noise_grid,
                                               model.further_grid):
        prob = pa * pn * pt
        obs = a + nn + nt if in_intersect else 0.0 + 0.0j
        if abs(obs - ytilde_j) > 1e-12:
            continue
        weight += prob
        if target == TARGET_Y0:
            num += prob * a
        else:
            num += prob * (a + nn)
    return weight, num


def brute_force_conditional(model: DiscreteModel, ytilde, target: str = TARGET_Y0) -> np.ndarray:
    """Exact conditional mean of the target given the further-corrupted data.

    Enumerates the joint law of ground truth, both noise layers and both
    masks, conditioning on the exact observed vector. Masks are conditioned
    through the observation only: in a discrete model a measured zero has
    positive probability, and this oracle resolves that ambiguity by honest
    enumeration rather than by assuming mask knowledge.
    """
    if target not in (TARGET_Y0, TARGET_Y0_PLUS_N):
        raise ConfigError(f"unknown target {target!r}")
    q = model.q
    obs = as_kspace(ytilde, q)
    total_like = 0.0
    total_num = np.zeros(q, dtype=np.complex128)
    for omega_bits in product((False, True), repeat=q):
        p_omega = math.prod(model.p[j] if omega_bits[j] else 1.0 - model.p[j]
                            for j in range(q))
        if p_omega == 0.0:
            continue
        for lam_bits in product((False, True), repeat=q):
            p_lam = math.prod(model.ptilde[j] if lam_bits[j] else 1.0 - model.ptilde[j]
                              for j in range(q))
            if p_lam == 0.0:
                continue
            weights = np.empty(q)
            nums = np.empty(q, dtype=np.complex128)
            for j in range(q):
                inter = omega_bits[j] and lam_bits[j]
                weights[j], nums[j] = _entry_tables(model, obs[j], inter, target)
            like = float(np.prod(weights))
            if like == 0.0:
                continue
            p_masks = p_omega * p_lam
            total_like += p_masks * like
            for j in range(q):
                rest = like / weights[j]
                total_num[j] += p_masks * rest * nums[j]
    if total_like == 0.0:
        raise ValidationError("observation has zero probability under the model")
    return total_num / total_like


def draw_discrete(model: DiscreteModel, rng: np.random.Generator, count: int | None = None):
    """A joint draw (y0, n, ntilde, omega, lam, ytilde) from the discrete model.

    One draw of length-q vectors, or ``count`` draws as (count, q) rows. Each
    alphabet is sampled with one ``rng.choice`` call, in the order y0, n,
    ntilde, then the two masks; a single draw is the ``count=1`` row.
    """
    shape = (model.q,) if count is None else (count, model.q)

    def pick(dist):
        values = np.array([v for v, _ in dist], dtype=np.complex128)
        return values[rng.choice(len(dist), size=shape, p=[p for _, p in dist])]

    y0 = pick(model.atoms)
    n = pick(model.noise_grid)
    nt = pick(model.further_grid)
    omega = rng.random(shape) < np.asarray(model.p)
    lam = rng.random(shape) < np.asarray(model.ptilde)
    ytilde = np.where(omega & lam, y0 + n + nt, 0.0 + 0.0j)
    return y0, n, nt, omega, lam, ytilde
