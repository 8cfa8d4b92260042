"""Mask distributions and the distribution-level weighting quantities.

Masks are drawn from a variable-density Bernoulli law: each index is
included independently with probability ``min(cap, s * (1 - d_j)^degree)``
where ``d_j`` is the distance from the k-space center normalized so the
farthest index has d = 0.5 (keeping every probability strictly positive),
a block of ``n_center`` central indices is always sampled, and the scale
``s`` is found by bisection so the acceleration factor q / sum(probs) hits
its target within 1%. The two kinds differ only in the distance
(``center_distances``): along one axis for ``column_polynomial``, on a
flattened 2-D grid for ``bernoulli2d_polynomial``. Either way there is one
inclusion probability per index.

For accelerated densities (target > 1) the cap is 1 - 1e-3 rather than 1:
only the forced center is sampled with certainty. Without the cap, a
weakly accelerated second-level density (e.g. the 2-D default) saturates a
region to probability exactly 1, violating the mask requirement that the
second level leaves every undersampled index reachable and making the
density-compensation weight undefined there. At target 1 (no acceleration)
every probability is exactly 1.

Two distribution-level diagonals drive the self-supervised loss theory:

* ``compute_k``:  k_j = (1 - p_j) / (1 - ptilde_j * p_j), the probability
  that index j was unsampled in the first level given that it is missing
  from the second-level data.
* ``compute_P``:  P_jj = (1 - p_j ptilde_j) / (p_j (1 - ptilde_j)), the
  density-compensation weight applied on Omega \\ Lambda. The two satisfy
  P_jj * (1 - k_j) = 1 identically.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ValidationError, integer, number, one_of
from .kspace import SamplingMask

COLUMN_POLYNOMIAL = "column_polynomial"
BERNOULLI2D_POLYNOMIAL = "bernoulli2d_polynomial"

_BISECT_ITERS = 60
_ACCEL_RTOL = 0.01
_PROB_CAP = 1.0 - 1e-3  # off-center ceiling for accelerated densities


def default_n_center(q: int) -> int:
    """Desk-scale stand-in for a fully sampled central band of k-space."""
    return max(2, q // 16)


def center_distances(q: int, shape: tuple | None = None) -> np.ndarray:
    """Distance of each index from the k-space center: |j - (q - 1) / 2| in
    1-D, the distance from the grid center on a flattened (nx, ny) grid."""
    if shape is None:
        return np.abs(np.arange(q) - (q - 1) / 2.0)
    nx, ny = shape
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return np.hypot(gx - cx, gy - cy).ravel()


@dataclass(frozen=True)
class MaskDistribution:
    """Variable-density Bernoulli mask law: one independent draw per index.

    kind : "column_polynomial" (1-D) or "bernoulli2d_polynomial" (a
        flattened 2-D grid); the two differ only in ``center_distances``
    q : total number of k-space indices
    target_accel : desired q / sum(probs)
    n_center : count of always-sampled central indices
    degree : polynomial decay exponent of the density
    shape : (nx, ny) of the grid, given exactly for "bernoulli2d_polynomial"
    """

    kind: str
    q: int
    target_accel: float
    n_center: int
    degree: float = 8.0
    shape: tuple | None = None

    def __post_init__(self):
        one_of((COLUMN_POLYNOMIAL, BERNOULLI2D_POLYNOMIAL)).check(self.kind, "kind")
        integer(1).check(self.q, "q")
        if (self.shape is not None) != (self.kind == BERNOULLI2D_POLYNOMIAL):
            raise ConfigError(f"a 2-D shape goes with {BERNOULLI2D_POLYNOMIAL} only: "
                              f"got kind {self.kind!r}, shape {self.shape}")
        if self.shape is not None and self.shape[0] * self.shape[1] != self.q:
            raise ConfigError(f"shape {self.shape} does not flatten to q={self.q}")
        if not (integer(0).test(self.n_center) and self.n_center <= self.q):
            raise ConfigError(f"n_center must be an integer in [0, {self.q}]")
        number(1).check(self.target_accel, "target_accel")
        number(positive=True).check(self.degree, "degree")
        if self.n_center > 0 and self.target_accel > self.q / self.n_center + 1e-12:
            raise ConfigError(
                f"target_accel {self.target_accel} unattainable with "
                f"{self.n_center} always-sampled indices out of {self.q}"
            )

    def probs(self) -> np.ndarray:
        """Length-q per-index inclusion probabilities, bisected once per
        distribution; the returned array is read-only and shared."""
        return _density(self)

    def draw(self, rng: np.random.Generator) -> SamplingMask:
        """Draw one mask."""
        return SamplingMask(self.draw_members(rng, 1)[0], self.probs())

    def draw_members(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Membership rows of ``count`` independent masks, shape (count, q)."""
        return self.members(rng.random((count, self.q)))

    def members(self, uniforms: np.ndarray) -> np.ndarray:
        """Membership rows (count, q) of masks from uniform draws (count, q):
        an index is sampled when its draw falls below its probability."""
        return uniforms < self.probs()


@lru_cache(maxsize=64)
def _density(dist: MaskDistribution) -> np.ndarray:
    n = dist.q
    distance = center_distances(n, dist.shape)
    center = np.zeros(n, dtype=bool)
    if dist.n_center > 0:
        order = np.lexsort((np.arange(n), distance))
        center[order[: dist.n_center]] = True
    dmax = distance.max()
    d = distance / (2.0 * dmax) if dmax > 0 else distance
    weight = (1.0 - d) ** dist.degree
    cap = 1.0 if dist.target_accel == 1.0 else _PROB_CAP

    def probs_at(s):
        p = np.minimum(cap, s * weight)
        p[p >= 1.0 - 1e-9] = 1.0  # reachable only when cap is 1
        p[center] = 1.0
        return p

    def accel_at(s):
        return n / probs_at(s).sum()

    # the scale acts only off the forced center; a weight there that
    # underflows to 0 leaves no finite bracket
    with np.errstate(divide="ignore", over="ignore"):
        hi = 4.0 / weight.min(initial=np.inf, where=~center)
    if not np.isfinite(hi):
        raise ConfigError(f"density scale bracket is not finite: degree {dist.degree:g} "
                          f"underflows the density to 0 off the center")
    if accel_at(hi) > dist.target_accel:
        raise ConfigError("density scale bracket failed; target_accel too low")
    lo = 0.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if accel_at(mid) > dist.target_accel:
            lo = mid
        else:
            hi = mid
    probs = probs_at(hi)
    got = n / probs.sum()
    if abs(got - dist.target_accel) > _ACCEL_RTOL * dist.target_accel:
        raise ConfigError(
            f"density scaling missed target acceleration: {got} vs {dist.target_accel}"
        )
    if not np.all(np.isfinite(probs) & (probs > 0.0)):
        raise ConfigError("density scaling produced a zero or non-finite probability")
    probs.setflags(write=False)
    return probs


def build_density(dist: MaskDistribution) -> np.ndarray:
    """Probability vector of the distribution (length q)."""
    return dist.probs()


def validate_mask_conditions(p, ptilde) -> None:
    """Check the first/second-level mask requirements.

    Requires finite p and ptilde, p_j > 0 everywhere and ptilde_j < 1
    wherever p_j < 1; the self-supervision identities below are only valid
    under these conditions.
    """
    p = np.asarray(p, dtype=np.float64)
    pt = np.asarray(ptilde, dtype=np.float64)
    if p.shape != pt.shape:
        raise ValidationError(f"probability vectors disagree in length: {p.shape} vs {pt.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(pt))):
        raise ValidationError("inclusion probabilities p and ptilde must be finite")
    bad = np.nonzero(p <= 0.0)[0]
    if bad.size:
        raise ValidationError(f"p must be positive everywhere; p[{bad[0]}] = {p[bad[0]]}")
    bad = np.nonzero((p < 1.0) & (pt >= 1.0))[0]
    if bad.size:
        raise ValidationError(
            f"ptilde must be < 1 wherever p < 1; index {bad[0]} has "
            f"p = {p[bad[0]]}, ptilde = {pt[bad[0]]}"
        )


def compute_k(p, ptilde) -> np.ndarray:
    """k_j = (1 - p_j) / (1 - ptilde_j p_j), entrywise in [0, 1).

    Fully sampled indices (p_j = 1) give k_j = 0 regardless of ptilde_j.
    """
    validate_mask_conditions(p, ptilde)
    p = np.asarray(p, dtype=np.float64)
    pt = np.asarray(ptilde, dtype=np.float64)
    k = np.zeros_like(p)
    free = p < 1.0
    k[free] = (1.0 - p[free]) / (1.0 - pt[free] * p[free])
    return k


def compute_P(p, ptilde) -> np.ndarray:
    """Density-compensation diagonal P_jj = (1 - p_j ptilde_j) / (p_j (1 - ptilde_j)).

    At indices with p_j = ptilde_j = 1 the weight is never applied (the
    index is almost surely absent from Omega \\ Lambda), so 1 is returned
    there. Satisfies P_jj (1 - k_j) = 1 wherever the weight is defined.
    """
    validate_mask_conditions(p, ptilde)
    p = np.asarray(p, dtype=np.float64)
    pt = np.asarray(ptilde, dtype=np.float64)
    out = np.ones_like(p)
    used = pt < 1.0
    denom = p[used] * (1.0 - pt[used])
    bad = np.nonzero(denom == 0.0)[0]
    if bad.size:
        j = np.nonzero(used)[0][bad[0]]
        raise ValidationError(f"P weight undefined at index {j}: p={p[j]}, ptilde={pt[j]}")
    out[used] = (1.0 - p[used] * pt[used]) / denom
    return out
