"""Ground-truth verifiers for the self-supervised training theory.

Everything the training methods claim to recover is computable here by an
independent route:

* exact joint-Gaussian conditional means and error traces (Schur complement
  on the observed block), one ``Posterior`` per distinct pattern table;
* closed-form population minimizers of each method's loss (from the
  estimators module) checked against those conditional means;
* Monte Carlo checks of the conditional-noise identity and of the
  gradient-equivalence claims behind the loss weightings.

Monte Carlo checks use the uniform statistical tolerance of three combined
standard errors and always report the standard error alongside the
estimate. Sampling is sharded: each shard of ``SHARD_SIZE`` draws comes
from its own derived substream as stacked arrays, is drawn once for every
method or claim that a check covers, and shards are reduced in a fixed
order, so results are reproducible.
"""

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import methods as M
from . import training
from .errors import ConfigError, ValidationError
from .estimators import (
    AffinePerPattern,
    Estimator,
    closed_form_affine_fit,
    gather_pieces,
    group_rows,
)
from .inference import correct, estimate_rows
from .kspace import SamplingMask, apply_mask, mask_algebra
from .methods import TARGET_Y0, TARGET_Y0_PLUS_N  # re-exported: the method table's targets
from .noise import NoiseSpec, complex_gaussian
from .rng import stream
from .sampling import COLUMN_POLYNOMIAL, MaskDistribution, compute_P, compute_k
from .synthetic import MeasurementModel, banded_prior_cov, gaussian_ground_truth

COND_ON_Y = "on_Y"
COND_ON_YTILDE = "on_ytilde"

N_SIGMA = 3.0
PATTERN_ENUM_CAP = 12  # exhaustive enumeration up to 2^12 patterns
SHARD_SIZE = 4096  # Monte Carlo draws per shard, each shard from its own substream
CROSSCHECK_RTOL = 1e-12  # batched vs per-draw library gradients
MOMENT_BLOCK = 1 << 18  # gradient entries (rows x parameters) reduced at a time
SOLVE_BLOCK = 1 << 16  # entries (patterns x q x size^2) of one stacked oracle solve
# Tolerances of the exact checks: largest absolute entrywise deviation
MINIMIZER_TOL = 1e-8  # fitted maps vs conditional-mean coefficients
CORRECTION_TOL = 1e-8  # corrected fitted maps vs the clean conditional mean
ALGEBRA_TOL = 1e-10  # corrected noisy-target vs clean conditional means
APPENDIX_TOL = 1e-12  # P (1 - k) vs 1
GRADIENT_CHECK_Q = 2  # indices of the gradient-check model


@dataclass
class OracleReport:
    """Outcome of one verification check.

    ``passed`` is None for descriptive checks that carry no pass/fail
    semantics (methods without a proof); ``estimate`` is None for those
    that estimate nothing.
    """

    name: str
    estimate: float | None
    reference: float
    tolerance: float
    standard_error: float | None = None
    passed: bool | None = None
    notes: dict = field(default_factory=dict)

    def finalize(self) -> "OracleReport":
        if self.passed is None:
            self.passed = bool(abs(self.estimate - self.reference) <= self.tolerance)
        return self

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Analytic Gaussian posterior
# ---------------------------------------------------------------------------

class Posterior:
    """The exact Gaussian posterior at the rows ``members`` (n, q) of
    ``pattern``, a ``SamplingMask`` or pattern rows of bool, given
    observations with per-entry noise sigma_n^2 (``COND_ON_Y``) or
    (1 + alpha^2) sigma_n^2 (``COND_ON_YTILDE``), zero-filled off the pattern.

    Each conditioning's observed blocks are built and checked for
    singularity, and each mean and error trace is solved, once, when first
    asked; what is returned is read-only. Patterns of one support size are
    solved in one call, each with the bits it gets alone. The fit in
    ``estimators`` stacks with its own code, so a stacking defect in either
    route shows against the other."""

    def __init__(self, model: MeasurementModel, pattern):
        members = (pattern.member[None] if isinstance(pattern, SamplingMask)
                   else np.asarray(pattern, dtype=bool))
        if members.ndim != 2 or members.shape[1] != model.q:
            raise ValidationError("pattern length does not match model")
        self.model = model
        self.members = members
        self._blocks, self._means, self._traces = {}, {}, {}

    def _observed(self, conditioning: str) -> list:
        """Read-only ``(rows, observed, gram, cross)`` of each stack of one
        nonempty support size, ascending: rows (m,), observed indices (m, size),
        the observed block's covariance (m, size, size) and the prior covariance
        (m, q, size) of all indices with the observed ones. A size is split
        beyond ``SOLVE_BLOCK`` entries of its (m, q, size, size) stack."""
        if conditioning not in self._blocks:
            noise, q, cov = self.model.noise, self.model.q, self.model.prior_cov
            factors = {COND_ON_Y: 1.0, COND_ON_YTILDE: 1.0 + noise.alpha ** 2}
            if conditioning not in factors:
                raise ConfigError(f"unknown conditioning {conditioning!r}")
            v = factors[conditioning] * noise.sigma_n ** 2
            sizes = np.count_nonzero(self.members, axis=1)
            blocks = []
            for size in sorted(set(sizes[sizes > 0].tolist())):
                rows = np.flatnonzero(sizes == size)
                observed = np.nonzero(self.members[rows])[1].reshape(len(rows), size)
                step = max(1, SOLVE_BLOCK // (q * size * size))
                for start in range(0, len(rows), step):
                    s = observed[start:start + step]
                    gram = cov[s[:, :, None], s[:, None, :]] + v * np.eye(size)
                    eigs = np.linalg.eigvalsh(gram)
                    if np.any(eigs.min(axis=1) <= 1e-14 * np.maximum(1.0, eigs.max(axis=1))):
                        raise ValidationError("observed-block covariance is singular")
                    cross = cov[np.arange(q)[:, None], s[:, None, :]]
                    gram.setflags(write=False)
                    cross.setflags(write=False)
                    blocks.append((rows[start:start + step], s, gram, cross))
            self._blocks[conditioning] = blocks
        return self._blocks[conditioning]

    def mean(self, target: str, conditioning: str) -> np.ndarray:
        """Exact conditional-mean coefficient matrices C (n, q, q), zero
        columns off each pattern: the MMSE estimate of the target given the
        observation is C[i] @ observation at pattern i."""
        if (target, conditioning) not in self._means:
            if target not in (TARGET_Y0, TARGET_Y0_PLUS_N):
                raise ConfigError(f"unknown target {target!r}")
            q, sigma2 = self.model.q, self.model.noise.sigma_n ** 2
            c = np.zeros((len(self.members), q, q), dtype=np.complex128)
            for rows, s, gram, cross in self._observed(conditioning):
                m, size = s.shape
                if target == TARGET_Y0_PLUS_N:
                    cross = cross.copy()
                    cross[np.arange(m)[:, None], s, np.arange(size)] += sigma2
                c[rows[:, None, None], np.arange(q)[:, None], s[:, None, :]] = np.linalg.solve(
                    gram.swapaxes(-1, -2), cross.swapaxes(-1, -2)).swapaxes(-1, -2)
            c.setflags(write=False)
            self._means[target, conditioning] = c
        return self._means[target, conditioning]

    def error_trace(self, conditioning: str) -> np.ndarray:
        """E || Y0 - E[Y0 | observation] ||^2 at each pattern (n,)."""
        if conditioning not in self._traces:
            cov = self.model.prior_cov
            out = np.full(len(self.members), float(np.trace(cov).real))
            for rows, _s, gram, cross in self._observed(conditioning):
                err = cov - cross @ np.linalg.solve(gram, cross.conj().swapaxes(-1, -2))
                out[rows] = np.trace(err, axis1=-2, axis2=-1).real
            out.setflags(write=False)
            self._traces[conditioning] = out
        return self._traces[conditioning]


def gaussian_conditional_mean(model: MeasurementModel, pattern, target: str,
                              conditioning: str) -> np.ndarray:
    """``Posterior(model, pattern).mean``, or its one (q, q) at a ``SamplingMask``."""
    c = Posterior(model, pattern).mean(target, conditioning)
    return c[0] if isinstance(pattern, SamplingMask) else c


# ---------------------------------------------------------------------------
# Pattern enumeration
# ---------------------------------------------------------------------------

LEVEL_OMEGA = "omega"
LEVEL_INTERSECT = "intersect"


def _level_probs(model: MeasurementModel, level: str) -> np.ndarray:
    if level == LEVEL_OMEGA:
        return model.omega_probs()
    if level == LEVEL_INTERSECT:
        return model.omega_probs() * model.lambda_probs()
    raise ConfigError(f"unknown pattern level {level!r}")


def input_level(method: str) -> str:
    return LEVEL_INTERSECT if M.row(method).input.on_intersect else LEVEL_OMEGA


@dataclass(frozen=True)
class PatternTable:
    """The support patterns of one level with positive probability.

    ``members`` (n, q) holds one pattern per row and ``probs`` (n,) their
    probabilities, both read-only; ``level_probs`` (q,) are the level's
    inclusion probabilities. Iterating yields ``(SamplingMask, prob)`` pairs.
    """

    members: np.ndarray
    probs: np.ndarray
    level_probs: np.ndarray

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        for member, prob in zip(self.members, self.probs.tolist()):
            yield SamplingMask(member, self.level_probs), prob

    def average(self, values: np.ndarray) -> float:
        """The probability-weighted sum of per-pattern values (n,), added in table order."""
        return float(np.cumsum(self.probs * values)[-1])


def enumerate_patterns(model: MeasurementModel, level: str) -> PatternTable:
    """All support patterns of positive probability, with their probabilities.

    Exhaustive enumeration of the free (0 < prob < 1) indices, capped at
    2^12 patterns (``PATTERN_ENUM_CAP`` free indices), in the order of
    ``itertools.product((False, True), repeat=free)``: the first free index
    is the slowest-varying bit.
    """
    r = _level_probs(model, level)
    forced = np.nonzero(r >= 1.0)[0]
    free = np.nonzero((r > 0.0) & (r < 1.0))[0]
    if free.size > PATTERN_ENUM_CAP:
        raise ConfigError(
            f"{free.size} free indices exceed the exhaustive enumeration cap "
            f"({PATTERN_ENUM_CAP})")
    bits = ((np.arange(1 << free.size)[:, None] >> np.arange(free.size)[::-1]) & 1).astype(bool)
    members = np.zeros((len(bits), model.q), dtype=bool)
    members[:, forced] = True
    members[:, free] = bits
    probs = np.prod(np.where(bits, r[free], 1.0 - r[free]), axis=1)
    members.setflags(write=False)
    probs.setflags(write=False)
    return PatternTable(members, probs, r)


# ---------------------------------------------------------------------------
# Population-minimizer checks
# ---------------------------------------------------------------------------

def _expected_coefficients(method: str, post: Posterior) -> tuple[np.ndarray, np.ndarray]:
    """Proven target matrices (n, q, q) at the posterior's patterns, and
    which of their rows (n, q) the proof constrains."""
    members = post.members
    compare = np.ones(members.shape, dtype=bool)
    if method == M.FULLY_SUPERVISED:
        return post.mean(TARGET_Y0, COND_ON_Y), compare
    if method == M.SUPERVISED_WO_DENOISING:
        # Pseudo-denoising: identity rows on the sampled set, conditional
        # mean of the ground truth elsewhere.
        c = post.mean(TARGET_Y0, COND_ON_Y).copy()
        pat, j = np.nonzero(members)
        c[pat, j, :] = 0.0
        c[pat, j, j] = 1.0
        return c, compare
    if method in (M.NOISIER2FULL, M.NOISIER2FULL_UNWEIGHTED,
                  M.ROBUST_SSDU, M.ROBUST_SSDU_UNWEIGHTED):
        return post.mean(TARGET_Y0_PLUS_N, COND_ON_YTILDE), compare
    if method == M.STANDARD_SSDU:
        # The recovery statement covers only indices outside the training
        # input support; rows on it are unconstrained.
        return post.mean(TARGET_Y0, COND_ON_Y), ~members
    raise ConfigError(f"no proven population target for {method!r}")


def check_population_minimizer(method: str, post: Posterior,
                               fit: AffinePerPattern | None) -> OracleReport:
    """Closed-form loss minimizer vs the method's proven conditional-mean target.

    ``post`` is the posterior at the method's input level and ``fit`` the
    method's ``closed_form_affine_fit`` there, compared as one stack.
    Noise2Recon-SS has no proof: its report is descriptive, and ``fit`` is None.
    """
    if method == M.NOISE2RECON_SS:
        return OracleReport(
            name=f"population_minimizer[{method}]",
            estimate=None, reference=0.0, tolerance=MINIMIZER_TOL, passed=None,
            notes={"descriptive": "no population-minimizer proof; the method "
                                  "applies no inference correction"},
        )
    members = post.members
    a_fit, _b = fit.get_blocks(members)
    expected, compare = _expected_coefficients(method, post)
    diff = np.abs(a_fit[compare] - expected[compare])
    return OracleReport(
        name=f"population_minimizer[{method}]",
        estimate=float(diff.max()) if diff.size else 0.0, reference=0.0, tolerance=MINIMIZER_TOL,
        notes={"patterns": len(members),
               "unconstrained_rows": int(np.count_nonzero(~compare))},
    ).finalize()


def corrected_coefficients(a_fit: np.ndarray, pattern, alpha: float) -> np.ndarray:
    """``inference.correct`` applied to fitted coefficient matrices.

    Column k of A is the output on input e_k, so A is corrected entry by
    entry with the identity as the input and the pattern along each column.
    ``a_fit`` is (q, q) for a ``SamplingMask`` ``pattern``, or (n, q, q) for
    pattern rows (n, q) of bool.
    """
    member = pattern.member if isinstance(pattern, SamplingMask) else pattern
    eye = np.broadcast_to(np.eye(a_fit.shape[-1], dtype=np.complex128), a_fit.shape)
    return correct(a_fit, eye, np.broadcast_to(member[..., None], a_fit.shape), alpha)


def check_correction_identity(method: str, post: Posterior,
                              fit: AffinePerPattern) -> OracleReport:
    """Fitted map composed with the correction vs the clean conditional mean.

    ``post`` and ``fit`` are as in ``check_population_minimizer``.
    """
    if method not in (M.NOISIER2FULL, M.ROBUST_SSDU):
        raise ConfigError("correction identity applies to the corrected methods")
    members = post.members
    corrected = corrected_coefficients(fit.get_blocks(members)[0], members,
                                       post.model.noise.alpha)
    target = post.mean(TARGET_Y0, COND_ON_YTILDE)
    return OracleReport(
        name=f"correction_identity[{method}]",
        estimate=float(np.abs(corrected - target).max()), reference=0.0, tolerance=CORRECTION_TOL,
        notes={"patterns": len(members)},
    ).finalize()


def check_correction_algebra(posts: Iterable[Posterior]) -> OracleReport:
    """Exact algebra linking the two conditional means on the observed set.

    The clean conditional mean equals the alpha-corrected transform of the
    noisy-target conditional mean, row by row on the pattern, at every
    pattern of ``posts`` (the suite passes each distinct one of its levels).
    """
    worst = 0.0
    for post in posts:
        noisy = post.mean(TARGET_Y0_PLUS_N, COND_ON_YTILDE)
        clean = post.mean(TARGET_Y0, COND_ON_YTILDE)
        corrected = corrected_coefficients(noisy, post.members, post.model.noise.alpha)
        worst = max(worst, float(np.abs(corrected - clean).max()))
    return OracleReport(
        name="correction_algebra", estimate=worst, reference=0.0, tolerance=ALGEBRA_TOL,
    ).finalize()


def analytic_posterior_mse(model: MeasurementModel, method: str) -> float:
    """Pattern-averaged E || Y0 - E[Y0 | further-corrupted observation] ||^2,
    the probability-weighted traces added in enumeration order."""
    table = enumerate_patterns(model, input_level(method))
    return table.average(Posterior(model, table.members).error_trace(COND_ON_YTILDE))


def _draw_shard(model: MeasurementModel, rng: np.random.Generator,
                count: int) -> training.Dataset:
    """``count`` joint draws, one row each, taken from ``rng`` as whole
    arrays in the order y0, n, Omega, Lambda, ntilde."""
    shape = (count, model.q)
    y0 = gaussian_ground_truth(model, rng, count)
    n = complex_gaussian(shape, model.noise.sigma_n, rng)
    omega = model.omega_dist.draw_members(rng, count)
    lam = model.lambda_dist.draw_members(rng, count)
    ntilde = complex_gaussian(shape, model.noise.alpha * model.noise.sigma_n, rng)
    return training.Dataset(np.where(omega, y0 + n, 0.0 + 0.0j), omega, model.omega_probs(),
                            y0, n, lam, model.lambda_probs(), ntilde)


def _shards(seed: int, label: str, samples: int):
    """(substream, draw count) of each shard of a Monte Carlo run."""
    for shard, start in enumerate(range(0, samples, SHARD_SIZE)):
        yield stream(seed, label, shard), min(SHARD_SIZE, samples - start)


def _require_affine(est: Estimator) -> None:
    if not isinstance(est, AffinePerPattern):
        raise ConfigError("Monte Carlo oracles run on an affine_per_pattern estimator")


def _mse_errors(method: str, est: AffinePerPattern, model: MeasurementModel,
                draws: training.Dataset) -> np.ndarray:
    """Per-draw || theory-mode corrected reconstruction - ground truth ||^2."""
    y_in, m_in = M.row(method).input.build(draws.y, draws.omega, draws.lam, draws.ntilde)
    est_y = estimate_rows(method, est, y_in, m_in, model.noise.alpha)
    return np.sum(np.abs(est_y - draws.y0) ** 2, axis=1)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two long vectors, summed in an order that does not
    depend on the BLAS thread count (``np.dot`` sums in threaded BLAS)."""
    return float(np.einsum("i,i->", a, b))


def _mean_se(total, total_sq, samples: int):
    """Monte Carlo mean and standard error from the sum and the sum of
    squares of ``samples`` draws, a float or entrywise over an array."""
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0)
    return mean, np.sqrt(var / samples)


def mc_corrected_mses(ests: dict[str, Estimator], model: MeasurementModel,
                      samples: int, seed: int) -> dict[str, tuple[float, float]]:
    """Theory-mode reconstruction MSE (mean, standard error) of each entry of
    ``{method: estimator}`` over one set of fresh draws.

    Every entry is checked before anything is drawn. Each shard is drawn
    once and handed to the entries in mapping order; each entry adds its
    sums in shard order, so its result is that of a run of its own.
    """
    for method, est in ests.items():
        if method not in M.CORRECTED_METHODS:
            raise ConfigError(f"{method!r} applies no correction")
        _require_affine(est)
    total = dict.fromkeys(ests, 0.0)
    total_sq = dict.fromkeys(ests, 0.0)
    for rng, count in _shards(seed, "mse", samples):
        draws = _draw_shard(model, rng, count)
        for method, est in ests.items():
            err = _mse_errors(method, est, model, draws)
            total[method] += float(err.sum())
            total_sq[method] += _dot(err, err)
        del draws  # one shard alive at a time
    return {method: tuple(map(float, _mean_se(total[method], total_sq[method], samples)))
            for method in ests}


def mc_corrected_mse(method: str, est: Estimator, model: MeasurementModel,
                     samples: int, seed: int) -> tuple[float, float]:
    """Theory-mode reconstruction MSE over fresh draws (mean, standard error)."""
    return mc_corrected_mses({method: est}, model, samples, seed)[method]


# ---------------------------------------------------------------------------
# Conditional-noise identity (Monte Carlo regression)
# ---------------------------------------------------------------------------

def _origin_slope(x: np.ndarray, y: np.ndarray, sxx: float,
                  resid: np.ndarray) -> tuple[float, float]:
    """Least-squares slope through the origin (``sxx`` = x . x) and its
    standard error; the residual y - slope * x is written into ``resid``."""
    slope = _dot(x, y) / sxx
    np.multiply(x, slope, out=resid)
    np.subtract(y, resid, out=resid)
    se = math.sqrt(_dot(resid, resid) / (x.size - 1) / sxx)
    return slope, se


def _channels(rng: np.random.Generator, samples: int, sigma: float) -> np.ndarray:
    """The channels of ``z = complex_gaussian(samples, sigma, rng)`` as one
    (2, samples) draw, flattened: the values of
    ``np.concatenate([z.real, z.imag])``, up to the signs of zeros at sigma 0."""
    ch = rng.standard_normal((2, samples))
    ch *= sigma / np.sqrt(2.0)
    return ch.reshape(-1)


def check_conditional_noise_identity(model: MeasurementModel, samples: int,
                                     seed: int) -> OracleReport:
    """Regression slopes of the two noise layers against the corrupted data.

    On sampled indices the further noise regresses on the observation with
    alpha^2 times the slope of the measurement noise; equivalently the
    combination (further - alpha^2 * measurement) has zero slope. Also
    checks each slope against its closed-form Gaussian regression value.
    Real and imaginary channels are independent scalar samples; the check
    holds four channel vectors (x, n, ntilde and one residual). An
    observation of variance 0 has no slope: ValidationError, before any draw.
    """
    sigma0_sq = float(model.prior_cov[0, 0].real)
    sigma_n = model.noise.sigma_n
    alpha = model.noise.alpha
    var_ytilde = sigma0_sq + (1.0 + alpha ** 2) * sigma_n ** 2
    if var_ytilde == 0.0:
        raise ValidationError("the conditional-noise regression is undefined: the observation "
                              "variance sigma0^2 + (1 + alpha^2) sigma_n^2 at index 0 is 0")
    rng = stream(seed, "noise_identity")
    x = _channels(rng, samples, math.sqrt(sigma0_sq))
    n_ch = _channels(rng, samples, sigma_n)
    nt_ch = _channels(rng, samples, alpha * sigma_n)
    # x = y0 + n + ntilde, added in that order
    x += n_ch
    x += nt_ch

    sxx = _dot(x, x)
    resid = np.empty_like(x)
    slope_n, se_n = _origin_slope(x, n_ch, sxx, resid)
    slope_nt, se_nt = _origin_slope(x, nt_ch, sxx, resid)
    n_ch *= alpha ** 2
    nt_ch -= n_ch
    slope_diff, se_diff = _origin_slope(x, nt_ch, sxx, resid)
    ref_n = sigma_n ** 2 / var_ytilde
    ref_nt = alpha ** 2 * ref_n

    ok = (abs(slope_diff) <= N_SIGMA * se_diff if se_diff > 0 else slope_diff == 0.0)
    ok = ok and (abs(slope_n - ref_n) <= N_SIGMA * se_n if se_n > 0 else slope_n == ref_n)
    ok = ok and (abs(slope_nt - ref_nt) <= N_SIGMA * se_nt if se_nt > 0 else slope_nt == ref_nt)
    return OracleReport(
        name="conditional_noise_identity",
        estimate=slope_diff, reference=0.0,
        tolerance=N_SIGMA * se_diff, standard_error=se_diff, passed=bool(ok),
        notes={
            "alpha": alpha,
            "slope_further_noise": slope_nt,
            "slope_measurement_noise": slope_n,
            "analytic_slopes": [ref_nt, ref_n],
            "slope_ratio": (slope_nt / slope_n) if slope_n != 0.0 else None,
        },
    )


# ---------------------------------------------------------------------------
# Gradient-equivalence checks (loss-weighting claims)
# ---------------------------------------------------------------------------

def _oracle_gradient(method: str, est: Estimator, model: MeasurementModel,
                     item: training.TrainItem) -> np.ndarray:
    """Per-draw gradient of || corrected estimate - ground truth ||^2."""
    alpha = model.noise.alpha
    y0, y, omega, lam, ntilde = item.y0, item.y, item.omega, item.lam, item.ntilde
    if method in (M.NOISIER2FULL, M.NOISIER2FULL_UNWEIGHTED):
        m_in = omega
        y_tilde = y + apply_mask(omega, ntilde)
    else:
        m_in = mask_algebra(omega, lam).intersect
        y_tilde = apply_mask(m_in, y + ntilde)
    out, pullback = est.forward_vjp(y_tilde, m_in)
    est_y = correct(out, y_tilde, m_in.member, alpha)
    # The correction's derivative is written out here, not read from
    # training: the check compares it with training's loss weights, and a
    # defect in one shared definition would pass on both sides.
    d = np.where(m_in.member, (1.0 + alpha ** 2) / alpha ** 2, 1.0)
    return 2.0 * pullback(d * (est_y - y0))


def _gradient_moments(claim: str, est: AffinePerPattern, model: MeasurementModel,
                      draws: training.Dataset, sums: dict, sums_sq: dict) -> float:
    """Add one shard's per-draw surrogate, oracle and difference gradients
    into ``sums`` and their squares into ``sums_sq`` (each ``{key: (n_params,)}``,
    keys "surr", "oracle" and "diff").

    Every drawn input pattern must be enrolled in ``est``: one that is not
    raises ``ValidationError`` before anything is added. Rows go in blocks
    of ``MOMENT_BLOCK`` gradient entries, and each block runs one forward
    pass. The surrogate gradients are training's own
    weighted loss (``training.method_rows`` and
    ``training.weighted_loss_and_grad`` on that pass); the oracle gradients
    come from the same pass's pullback.
    The first draw of each distinct (Omega, Lambda) pair is recomputed
    through ``training.loss_and_grad`` and ``_oracle_gradient``; the return
    value is the largest deviation of a batched gradient row from its
    per-draw gradient, relative to the latter's largest entry.
    """
    alpha = model.noise.alpha
    rows = training.method_rows(claim, alpha, draws)
    first = np.array([g[0] for g in group_rows(np.concatenate([draws.omega, draws.lam], axis=1))])
    est.get_blocks(rows.m_in[first])  # raises on a drawn pattern not enrolled
    spec = training.TrainSpec(method=claim, alpha=alpha)
    n, n_params = draws.y.shape[0], est.theta.shape[0]
    worst = 0.0
    step = max(1, MOMENT_BLOCK // max(n_params, 1))
    for start in range(0, n, step):
        block = slice(start, min(start + step, n))
        part = training.Rows(*(None if a is None else a[block] for a in rows))
        theta = np.broadcast_to(est.theta, (part.y_in.shape[0], n_params))
        f, pullback = est.forward_vjp_stack(theta, part.y_in, part.m_in)
        grads = {"surr": gather_pieces(training.weighted_loss_and_grad(f, pullback, part)[1],
                                       theta.shape)}
        # written out, not shared with training, as in _oracle_gradient
        d = np.where(part.m_in, (1.0 + alpha ** 2) / alpha ** 2, 1.0)
        est_y = correct(f, part.y_in, part.m_in, alpha)
        grads["oracle"] = 2.0 * gather_pieces(pullback(d * (est_y - draws.y0[block])),
                                              theta.shape)
        grads["diff"] = grads["surr"] - grads["oracle"]
        for key, g in grads.items():
            sums[key] += g.sum(axis=0)
            sums_sq[key] += np.einsum("ij,ij->j", g, g)
        for i in first[(first >= block.start) & (first < block.stop)]:
            item = draws[i]
            refs = {"surr": training.loss_and_grad(spec, est, item)[1],
                    "oracle": _oracle_gradient(claim, est, model, item)}
            for key, ref in refs.items():
                scale = max(float(np.abs(ref).max()), np.finfo(float).tiny)
                worst = max(worst, float(np.abs(grads[key][i - start] - ref).max()) / scale)
    return worst


def gradient_check_model(sigma_n: float, alpha: float) -> MeasurementModel:
    """Small well-posed model for the Monte Carlo gradient checks.

    The gradient-equivalence claims hold for any mask law satisfying the
    sampling conditions, but the 3-standard-error entrywise test needs a
    healthy effective sample count for every support pattern; extreme
    variable density (near-zero inclusion probabilities) turns the
    per-pattern weights into rare heavy-tailed events that normal-theory
    error bars cannot cover at practical sample sizes. This companion model
    keeps every pattern probability moderate while retaining a correlated
    prior, distinct first/second-level densities, and noise.
    """
    q = GRADIENT_CHECK_Q
    omega = MaskDistribution(COLUMN_POLYNOMIAL, q, 1.4, 0, 2.0)
    lam = MaskDistribution(COLUMN_POLYNOMIAL, q, 1.8, 0, 2.0)
    return MeasurementModel(banded_prior_cov(q), NoiseSpec(sigma_n, alpha), omega, lam)


def _gradient_report(claim: str, sums: dict, sums_sq: dict, crosscheck: float,
                     samples: int) -> OracleReport:
    """The report of one claim from its gradient sums over all shards."""
    n_params = sums["diff"].shape[0]
    mean_s, se_s = _mean_se(sums["surr"], sums_sq["surr"], samples)
    mean_o, se_o = _mean_se(sums["oracle"], sums_sq["oracle"], samples)
    mean_d, se_d = _mean_se(sums["diff"], sums_sq["diff"], samples)
    combined = np.sqrt(se_s ** 2 + se_o ** 2)
    live = combined > 0
    standardized = np.zeros(n_params)
    standardized[live] = np.abs(mean_s[live] - mean_o[live]) / combined[live]
    ok = bool(np.all(standardized[live] <= N_SIGMA))
    ok = ok and bool(np.all(mean_d[~live] == 0.0))
    worst = float(standardized.max()) if n_params else 0.0
    paired = np.zeros(n_params)
    paired_live = se_d > 0
    paired[paired_live] = np.abs(mean_d[paired_live]) / se_d[paired_live]

    def stream_std(mean, se):
        alive = se > 0
        vals = np.abs(mean[alive]) / se[alive]
        return float(vals.max()) if vals.size else 0.0

    report = OracleReport(
        name=f"gradient_equivalence[{claim}]",
        estimate=worst, reference=0.0, tolerance=N_SIGMA,
        standard_error=float(combined.max()) if n_params else 0.0,
        passed=ok and crosscheck <= CROSSCHECK_RTOL,
        notes={"samples": samples, "components": int(n_params),
               "checked_components": int(np.count_nonzero(live)),
               "max_paired_standardized": float(paired.max()) if n_params else 0.0,
               "max_abs_mean_surrogate": float(np.abs(mean_s).max()) if n_params else 0.0,
               "max_abs_mean_oracle": float(np.abs(mean_o).max()) if n_params else 0.0,
               "surrogate_mean_standardized": stream_std(mean_s, se_s),
               "oracle_mean_standardized": stream_std(mean_o, se_o)},
    )
    if crosscheck > CROSSCHECK_RTOL:
        report.notes["crosscheck_failure"] = (
            f"batched gradients deviate from the per-draw training and oracle "
            f"gradients by {crosscheck:.3e} relative (tolerance {CROSSCHECK_RTOL:g})")
    return report


def check_gradient_equivalences(ests: dict[str, Estimator], model: MeasurementModel,
                                samples: int, seed: int) -> dict[str, OracleReport]:
    """Monte Carlo test that the weighted surrogate loss has the oracle
    gradient, for each entry of ``{claim: estimator}``.

    Averages, over fresh draws of ground truth, noises and masks, the
    per-draw difference between the gradient of the method's weighted
    surrogate loss and the gradient of the corrected-estimate loss against
    the ground truth. Every component must be within three combined
    standard errors of zero; the maximum standardized discrepancy is
    reported. Use a model with moderate inclusion probabilities (see
    ``gradient_check_model``) so every pattern is well sampled. Each
    estimator must arrive enrolled at every input pattern of its claim's
    level (``enumerate_patterns(model, input_level(claim))``); a drawn
    pattern it lacks raises ``ValidationError``, and nothing is enrolled or
    resolved to a nearest pattern here.

    Draws are evaluated a shard at a time through training's own stacked
    step (see ``_gradient_moments``); in each shard one draw per distinct
    (Omega, Lambda) pair is recomputed through the per-draw training code,
    and the check fails if its batched gradient row deviates from it by
    more than ``CROSSCHECK_RTOL`` relative.

    Every entry is checked before anything is drawn. Each shard is drawn
    once and handed to the entries in mapping order; each entry adds its
    sums in shard order, so its report is that of a run of its own.
    """
    for claim, est in ests.items():
        if claim not in (M.NOISIER2FULL, M.ROBUST_SSDU):
            raise ConfigError("gradient equivalence is claimed for the weighted methods")
        _require_affine(est)

    def zeros(est):
        return {key: np.zeros(est.theta.shape[0]) for key in ("surr", "oracle", "diff")}

    sums = {claim: zeros(est) for claim, est in ests.items()}
    sums_sq = {claim: zeros(est) for claim, est in ests.items()}
    crosscheck = dict.fromkeys(ests, 0.0)
    for rng, count in _shards(seed, "gradeq", samples):
        draws = _draw_shard(model, rng, count)
        for claim, est in ests.items():
            worst_rel = _gradient_moments(claim, est, model, draws, sums[claim], sums_sq[claim])
            crosscheck[claim] = max(crosscheck[claim], worst_rel)
        del draws  # one shard alive at a time
    return {claim: _gradient_report(claim, sums[claim], sums_sq[claim], crosscheck[claim],
                                    samples)
            for claim in ests}


def check_gradient_equivalence(claim: str, est: Estimator, model: MeasurementModel,
                               samples: int, seed: int) -> OracleReport:
    """``check_gradient_equivalences`` of the one entry ``{claim: est}``."""
    return check_gradient_equivalences({claim: est}, model, samples, seed)[claim]


# ---------------------------------------------------------------------------
# Appendix identity
# ---------------------------------------------------------------------------

def check_appendix_identity(n_pairs: int, seed: int) -> OracleReport:
    """P_jj (1 - k_j) = 1 on random probability pairs."""
    rng = stream(seed, "appendix_identity")
    worst = 0.0
    for _ in range(n_pairs):
        q = int(rng.integers(1, 17))
        p = rng.uniform(0.05, 1.0, q)
        pt = rng.uniform(0.0, 0.95, q)
        ident = compute_P(p, pt) * (1.0 - compute_k(p, pt))
        worst = max(worst, float(np.abs(ident - 1.0).max()))
    return OracleReport(
        name="appendix_identity_P_times_one_minus_k",
        estimate=worst, reference=0.0, tolerance=APPENDIX_TOL, notes={"pairs": n_pairs},
    ).finalize()


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------

def run_oracle_suite(model: MeasurementModel, seed: int = 0,
                     gradient_samples: int = 20000,
                     slope_samples: int = 200000,
                     mse_samples: int = 20000) -> list[OracleReport]:
    """All oracle checks on one model; descriptive reports carry passed=None.

    Each pattern level is enumerated once, levels whose tables hold the
    same pattern rows share one posterior, and each proof-backed method is
    fitted once over its input level; the exact checks read those
    posteriors and fits.

    The conditional-noise check runs right after the enumerations (so an
    unsupported model still fails before anything is drawn), before any
    posterior, fit or Monte Carlo shard exists: its four channel vectors
    are the suite's largest transient, and the peak is that transient plus
    whatever is resident when it starts. Its draws come from its own
    substream, and its report keeps its place in the list.
    """
    tables = {level: enumerate_patterns(model, level) for level in (LEVEL_OMEGA, LEVEL_INTERSECT)}
    noise_identity = check_conditional_noise_identity(model, slope_samples, seed)
    shared = {}  # one posterior per distinct table of pattern rows
    posts = {level: shared.setdefault(table.members.tobytes(), Posterior(model, table.members))
             for level, table in tables.items()}
    fits = {method: closed_form_affine_fit(model, method, tables[input_level(method)].members)
            for method in M.PROOF_BACKED_METHODS}
    reports = [check_appendix_identity(100, seed), check_correction_algebra(shared.values())]
    for method in M.ALL_METHODS:
        reports.append(check_population_minimizer(method, posts[input_level(method)],
                                                  fits.get(method)))
    corrected = {method: fits[method] for method in (M.NOISIER2FULL, M.ROBUST_SSDU)}
    mses = mc_corrected_mses(corrected, model, mse_samples, seed)
    for method, fit in corrected.items():
        level = input_level(method)
        reports.append(check_correction_identity(method, posts[level], fit))
        mc_mean, mc_se = mses[method]
        analytic = tables[level].average(posts[level].error_trace(COND_ON_YTILDE))
        rel = abs(mc_mean - analytic) / analytic if analytic > 0 else 0.0
        reports.append(OracleReport(
            name=f"corrected_mse[{method}]",
            estimate=mc_mean, reference=analytic,
            tolerance=0.02 * analytic if analytic > 0 else 0.0,
            standard_error=mc_se,
            notes={"relative_error": rel, "samples": mse_samples},
        ).finalize())
    del posts, shared  # their cached solves are not held through the gradient check below
    reports.append(noise_identity)
    grad_model = gradient_check_model(model.noise.sigma_n or 0.5, model.noise.alpha)
    ests = {}
    for claim in (M.NOISIER2FULL, M.ROBUST_SSDU):
        est = ests[claim] = AffinePerPattern(grad_model.q)
        est.ensure_patterns(enumerate_patterns(grad_model, input_level(claim)).members)
        est.theta = stream(seed, "gradeq_theta", claim).standard_normal(
            est.theta.shape[0]) * 0.3
    for report in check_gradient_equivalences(ests, grad_model, gradient_samples,
                                              seed).values():
        report.notes["model"] = "dedicated well-posed gradient-check model"
        reports.append(report)
    return reports
