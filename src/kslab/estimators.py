"""Estimator families with exact reverse-mode gradients.

Three families share one interface: ``forward_vjp(y_in, m_in)`` maps a
length-q complex input to a length-q complex output ``out`` and returns it
with a pullback: ``pullback(cot)`` is the gradient of ``Re <cot, out>`` with
respect to the flat real parameter vector ``theta``. ``forward`` and ``vjp``
are built on it. Complex parameters are stored as real/imaginary pairs, so
all losses and gradients live in ordinary real calculus.

* affine_per_pattern - one affine map per input support pattern, enrolled
  lazily during training. Quadratic losses then have closed-form population
  optima (``closed_form_affine_fit``), which is the rigorous path for
  verifying what each training method recovers.
* tiny_net - a small fully-connected network on stacked real/imaginary
  channels with softplus activations.
* toy_cascade - an unrolled data-consistency cascade whose refinement step
  is partitioned into a denoising network on sampled indices and a
  reconstruction network on unsampled ones.
"""

import base64
import warnings
from dataclasses import dataclass

import numpy as np

from . import methods as M
from .errors import ConfigError, DimensionError, ValidationError
from .kspace import SamplingMask, as_kspace
from .rng import stream
from .sampling import compute_P, compute_k

AFFINE_PER_PATTERN = "affine_per_pattern"
TINY_NET = "tiny_net"
TOY_CASCADE = "toy_cascade"

THETA_DTYPE = "<f8"


class PatternFallbackWarning(UserWarning):
    """An affine estimator saw an unknown pattern and used the nearest one."""


def complex_to_real(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def real_to_complex(x: np.ndarray) -> np.ndarray:
    q = x.shape[0] // 2
    return x[:q] + 1j * x[q:]


def encode_theta(theta: np.ndarray) -> dict:
    """Checkpoint form of a parameter vector: base64 of its little-endian float64 bytes."""
    raw = np.ascontiguousarray(theta, dtype=THETA_DTYPE).tobytes()
    return {"dtype": THETA_DTYPE, "base64": base64.b64encode(raw).decode("ascii")}


def decode_theta(payload, n_params: int) -> np.ndarray:
    """Inverse of ``encode_theta``; rejects malformed payloads and wrong lengths."""
    if isinstance(payload, list):
        raise ValidationError("checkpoint theta is a list of numbers, an older checkpoint "
                              "format; re-run `kslab train` to write a current checkpoint")
    if not isinstance(payload, dict):
        raise ValidationError("checkpoint theta must be an object {dtype, base64}")
    if payload.get("dtype") != THETA_DTYPE:
        raise ValidationError(f"checkpoint theta dtype must be {THETA_DTYPE!r}, "
                              f"got {payload.get('dtype')!r}")
    try:
        raw = base64.b64decode(payload.get("base64"), validate=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"checkpoint theta is not valid base64: {exc}") from None
    if len(raw) % 8:
        raise ValidationError(f"checkpoint theta has {len(raw)} bytes, not a multiple of 8")
    if len(raw) // 8 != n_params:
        raise ValidationError(f"checkpoint theta has {len(raw) // 8} parameters, "
                              f"the estimator needs {n_params}")
    # astype copies: the buffer is read-only and training updates theta in place
    return np.frombuffer(raw, dtype=THETA_DTYPE).astype(np.float64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Mlp:
    """Plain fully-connected real network with softplus hidden units.

    Operates on an externally owned flat parameter segment; packing order is
    W1, b1, W2, b2, ... with W of shape (out, in).
    """

    def __init__(self, sizes):
        self.sizes = tuple(int(s) for s in sizes)
        self.offsets = []  # start of each layer's W in the segment
        off = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            self.offsets.append(off)
            off += fan_out * fan_in + fan_out
        self.n_params = off

    def init(self, rng: np.random.Generator) -> np.ndarray:
        theta = np.zeros(self.n_params)
        off = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            n_w = fan_out * fan_in
            theta[off:off + n_w] = rng.standard_normal(n_w) / np.sqrt(fan_in)
            off += n_w + fan_out  # biases stay zero
        return theta

    def _layers(self, theta: np.ndarray):
        for off, fan_in, fan_out in zip(self.offsets, self.sizes[:-1], self.sizes[1:]):
            n_w = fan_out * fan_in
            w = theta[off:off + n_w].reshape(fan_out, fan_in)
            yield w, theta[off + n_w:off + n_w + fan_out]

    def forward(self, theta: np.ndarray, x: np.ndarray):
        layers = list(self._layers(theta))
        hs, zs = [x], []
        h = x
        for w, b in layers[:-1]:
            z = w @ h + b
            h = np.logaddexp(0.0, z)  # softplus
            zs.append(z)
            hs.append(h)
        w, b = layers[-1]
        y = w @ h + b
        return y, (hs, zs)

    def backward(self, theta: np.ndarray, cache, gy: np.ndarray):
        """Gradients of <gy, output> w.r.t. the segment and the input."""
        hs, zs = cache
        layers = list(self._layers(theta))
        grad = np.zeros(self.n_params)
        g = gy
        for k in range(len(layers) - 1, -1, -1):
            w, _ = layers[k]
            if k < len(layers) - 1:
                g = g * _sigmoid(zs[k])
            o = self.offsets[k]
            n_w = w.size
            grad[o:o + n_w] = np.outer(g, hs[k]).ravel()
            grad[o + n_w:o + n_w + w.shape[0]] = g
            g = w.T @ g
        return grad, g


class Estimator:
    """Common interface of the parameterized families."""

    family = "base"

    def __init__(self, q: int, theta: np.ndarray):
        self.q = int(q)
        self.theta = np.asarray(theta, dtype=np.float64)

    def forward_vjp(self, y_in, m_in: SamplingMask):
        """Output on (y_in, m_in) and its pullback: cot -> d Re<cot, out> / d theta."""
        raise NotImplementedError

    def forward(self, y_in, m_in: SamplingMask) -> np.ndarray:
        return self.forward_vjp(y_in, m_in)[0]

    def vjp(self, y_in, m_in: SamplingMask, cotangent) -> np.ndarray:
        return self.forward_vjp(y_in, m_in)[1](cotangent)

    def ensure_pattern(self, m_in: SamplingMask) -> None:
        """Hook for families that key parameters on the input pattern."""

    def to_checkpoint(self) -> dict:
        raise NotImplementedError

    def _check_input(self, y_in, m_in) -> np.ndarray:
        arr = as_kspace(y_in, self.q)
        if m_in.q != self.q:
            raise DimensionError(f"mask length {m_in.q} != estimator q {self.q}")
        return arr


class AffinePerPattern(Estimator):
    """One complex affine map A_s y + b_s per input support pattern."""

    family = AFFINE_PER_PATTERN

    def __init__(self, q: int):
        super().__init__(q, np.zeros(0))
        self._patterns: dict[bytes, int] = {}
        self._members: list[np.ndarray] = []
        self.fit_info: dict[bytes, dict] = {}

    @property
    def block_size(self) -> int:
        return 2 * self.q * self.q + 2 * self.q

    @property
    def n_patterns(self) -> int:
        return len(self._members)

    def ensure_pattern(self, m_in: SamplingMask) -> int:
        key = m_in.key()
        if key not in self._patterns:
            self._patterns[key] = len(self._members)
            self._members.append(np.asarray(m_in.member, dtype=bool).copy())
            self.theta = np.concatenate([self.theta, np.zeros(self.block_size)])
        return self._patterns[key]

    def _resolve(self, m_in: SamplingMask) -> tuple[int, bool]:
        key = m_in.key()
        if key in self._patterns:
            return self._patterns[key], False
        if not self._members:
            raise ValidationError("affine estimator has no enrolled patterns")
        member = np.asarray(m_in.member, dtype=bool)
        dists = [int(np.count_nonzero(m ^ member)) for m in self._members]
        return int(np.argmin(dists)), True

    def _block(self, idx: int):
        q = self.q
        seg = self.theta[idx * self.block_size:(idx + 1) * self.block_size]
        a = seg[:q * q].reshape(q, q) + 1j * seg[q * q:2 * q * q].reshape(q, q)
        b = seg[2 * q * q:2 * q * q + q] + 1j * seg[2 * q * q + q:]
        return a, b

    def set_block(self, m_in: SamplingMask, a: np.ndarray, b: np.ndarray) -> None:
        idx = self.ensure_pattern(m_in)
        q = self.q
        seg = self.theta[idx * self.block_size:(idx + 1) * self.block_size]
        seg[:q * q] = a.real.ravel()
        seg[q * q:2 * q * q] = a.imag.ravel()
        seg[2 * q * q:2 * q * q + q] = np.asarray(b).real
        seg[2 * q * q + q:] = np.asarray(b).imag

    def get_block(self, m_in: SamplingMask):
        idx, fallback = self._resolve(m_in)
        if fallback:
            raise ValidationError("pattern not enrolled")
        return self._block(idx)

    def forward_vjp(self, y_in, m_in: SamplingMask):
        arr = self._check_input(y_in, m_in)
        idx, fallback = self._resolve(m_in)
        if fallback:
            warnings.warn(
                "input pattern not enrolled; using nearest enrolled pattern",
                PatternFallbackWarning, stacklevel=3,
            )
        a, b = self._block(idx)

        def pullback(cotangent) -> np.ndarray:
            grad = np.zeros_like(self.theta)
            grad[idx * self.block_size:(idx + 1) * self.block_size] = _block_grads(
                as_kspace(cotangent, self.q), arr)
            return grad

        return a @ arr + b, pullback

    def forward_batch(self, y_in, member) -> "AffineBatch":
        """Apply the maps to stacked inputs y_in (n, q) with input patterns member (n, q).

        Rows are grouped by pattern and each distinct pattern is resolved
        once, with the nearest-pattern fallback and warning of ``forward``.
        The returned batch holds the outputs and sums gradients per group.
        """
        arr = np.asarray(y_in, dtype=np.complex128)
        member = np.asarray(member, dtype=bool)
        if arr.ndim != 2 or arr.shape[1] != self.q or member.shape != arr.shape:
            raise DimensionError(f"expected (n, {self.q}) inputs and patterns, "
                                 f"got {arr.shape} and {member.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("k-space batch contains NaN or Inf")
        patterns, inverse = np.unique(member, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse, minlength=len(patterns)))[:-1]
        out = np.empty_like(arr)
        groups = []
        for pattern, rows in zip(patterns, np.split(order, bounds)):
            idx, fallback = self._resolve(SamplingMask(pattern, np.ones(self.q)))
            if fallback:
                warnings.warn(
                    "input pattern not enrolled; using nearest enrolled pattern",
                    PatternFallbackWarning, stacklevel=2,
                )
            a, b = self._block(idx)
            out[rows] = arr[rows] @ a.T + b
            groups.append((idx, rows))
        return AffineBatch(self, arr, groups, out)

    def to_checkpoint(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "patterns": [sorted(int(j) for j in np.nonzero(m)[0]) for m in self._members],
            "theta": encode_theta(self.theta),
        }

    @staticmethod
    def from_checkpoint(data: dict) -> "AffinePerPattern":
        est = AffinePerPattern(data["q"])
        for idx_list in data["patterns"]:
            member = np.zeros(data["q"], dtype=bool)
            member[np.asarray(idx_list, dtype=int)] = True
            est.ensure_pattern(SamplingMask(member, np.ones(data["q"])))
        est.theta = decode_theta(data["theta"], est.theta.shape[0])
        return est


def _block_grads(cot: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Block gradient of Re <cot, A arr + b>, per row for stacked (n, q) inputs.

    Block layout: Re A, Im A (row-major), Re b, Im b.
    """
    outer = np.conj(cot)[..., :, None] * arr[..., None, :]  # d Re<c, A y> / dA = conj pairing
    lead = outer.shape[:-2]
    return np.concatenate([outer.real.reshape(lead + (-1,)), -outer.imag.reshape(lead + (-1,)),
                           cot.real, cot.imag], axis=-1)


class AffineBatch:
    """Outputs of an ``AffinePerPattern`` on stacked inputs, rows grouped by pattern."""

    def __init__(self, est: AffinePerPattern, y_in: np.ndarray, groups: list, out: np.ndarray):
        self._est = est
        self._y_in = y_in
        self._groups = groups  # (block index, row indices) per distinct pattern
        self.out = out

    def vjp_moments(self, cotangent) -> tuple[np.ndarray, np.ndarray]:
        """Sums over rows of the per-row vjp and of its elementwise square.

        Gradients are formed one pattern group at a time, so no
        (rows x parameters) matrix is built.
        """
        cot = np.asarray(cotangent, dtype=np.complex128)
        if cot.shape != self._y_in.shape:
            raise DimensionError(f"cotangent shape {cot.shape} != input shape {self._y_in.shape}")
        bs = self._est.block_size
        total = np.zeros_like(self._est.theta)
        total_sq = np.zeros_like(self._est.theta)
        for idx, rows in self._groups:
            g = _block_grads(cot[rows], self._y_in[rows])
            total[idx * bs:(idx + 1) * bs] += g.sum(axis=0)
            total_sq[idx * bs:(idx + 1) * bs] += (g * g).sum(axis=0)
        return total, total_sq


class TinyNet(Estimator):
    """Fully-connected network on stacked real/imaginary channels.

    Default: 2 hidden layers of width 4q, softplus units, weights drawn
    N(0, 1/fan_in) from the given seed, zero biases. The sampling mask is
    not an input; the support of y_in carries the pattern information.
    """

    family = TINY_NET

    def __init__(self, q: int, hidden_layers: int = 2, width_factor: int = 4,
                 seed: int = 0, theta=None):
        self.hidden_layers = int(hidden_layers)
        self.width_factor = int(width_factor)
        self.seed = int(seed)
        width = max(2, self.width_factor * q)
        self.mlp = Mlp([2 * q] + [width] * self.hidden_layers + [2 * q])
        if theta is None:
            theta = self.mlp.init(stream(self.seed, "tiny_net_init"))
        super().__init__(q, theta)

    def forward_vjp(self, y_in, m_in: SamplingMask):
        arr = self._check_input(y_in, m_in)
        theta = self.theta
        out, cache = self.mlp.forward(theta, complex_to_real(arr))

        def pullback(cotangent) -> np.ndarray:
            cot = as_kspace(cotangent, self.q)
            return self.mlp.backward(theta, cache, complex_to_real(cot))[0]

        return real_to_complex(out), pullback

    def to_checkpoint(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "hidden_layers": self.hidden_layers,
            "width_factor": self.width_factor,
            "seed": self.seed,
            "theta": encode_theta(self.theta),
        }

    @staticmethod
    def from_checkpoint(data: dict) -> "TinyNet":
        est = TinyNet(data["q"], data["hidden_layers"], data["width_factor"],
                      data["seed"], theta=np.zeros(0))
        est.theta = decode_theta(data["theta"], est.mlp.n_params)
        return est


class ToyCascade(Estimator):
    """Unrolled cascade with a partitioned refinement module.

    Each of K cascades applies a data-consistency step with trainable step
    size eta_k and adds M_in G_D(y_k) + (1 - M_in) G_R(y_k), with G_D and
    G_R one-hidden-layer networks specializing to sampled (denoising) and
    unsampled (reconstruction) indices respectively.
    """

    family = TOY_CASCADE

    def __init__(self, q: int, cascades: int = 2, seed: int = 0, theta=None):
        self.cascades = int(cascades)
        self.seed = int(seed)
        self.net = Mlp([2 * q, 2 * q, 2 * q])
        self.block = 1 + 2 * self.net.n_params  # eta, G_D, G_R per cascade
        if theta is None:
            rng = stream(self.seed, "toy_cascade_init")
            parts = []
            for _ in range(self.cascades):
                parts.append(np.array([1.0]))
                parts.append(self.net.init(rng))
                parts.append(self.net.init(rng))
            theta = np.concatenate(parts)
        super().__init__(q, theta)

    def _segments(self, k: int):
        base = k * self.block
        n = self.net.n_params
        return base, (base + 1, base + 1 + n), (base + 1 + n, base + 1 + 2 * n)

    def _run(self, arr: np.ndarray, m_in: SamplingMask):
        x = complex_to_real(arr)
        mvec = np.concatenate([m_in.member, m_in.member]).astype(np.float64)
        states, caches = [x], []
        s = x
        for k in range(self.cascades):
            i_eta, (d0, d1), (r0, r1) = self._segments(k)
            eta = self.theta[i_eta]
            d_out, d_cache = self.net.forward(self.theta[d0:d1], s)
            r_out, r_cache = self.net.forward(self.theta[r0:r1], s)
            s = s - eta * mvec * (s - x) + mvec * d_out + (1.0 - mvec) * r_out
            states.append(s)
            caches.append((d_cache, r_cache))
        return states, caches, mvec

    def forward_vjp(self, y_in, m_in: SamplingMask):
        arr = self._check_input(y_in, m_in)
        theta = self.theta
        states, caches, mvec = self._run(arr, m_in)

        def pullback(cotangent) -> np.ndarray:
            x = states[0]
            grad = np.zeros_like(theta)
            a = complex_to_real(as_kspace(cotangent, self.q))
            for k in range(self.cascades - 1, -1, -1):
                i_eta, (d0, d1), (r0, r1) = self._segments(k)
                d_cache, r_cache = caches[k]
                grad[i_eta] = -np.dot(a, mvec * (states[k] - x))
                g_d, ax_d = self.net.backward(theta[d0:d1], d_cache, mvec * a)
                g_r, ax_r = self.net.backward(theta[r0:r1], r_cache, (1.0 - mvec) * a)
                grad[d0:d1] = g_d
                grad[r0:r1] = g_r
                a = a * (1.0 - theta[i_eta] * mvec) + ax_d + ax_r
            return grad

        return real_to_complex(states[-1]), pullback

    def to_checkpoint(self) -> dict:
        return {
            "family": self.family,
            "q": self.q,
            "cascades": self.cascades,
            "seed": self.seed,
            "theta": encode_theta(self.theta),
        }

    @staticmethod
    def from_checkpoint(data: dict) -> "ToyCascade":
        est = ToyCascade(data["q"], data["cascades"], data["seed"], theta=np.zeros(0))
        est.theta = decode_theta(data["theta"], est.cascades * est.block)
        return est


def make_estimator(family: str, q: int, **opts) -> Estimator:
    if family == AFFINE_PER_PATTERN:
        return AffinePerPattern(q)
    if family == TINY_NET:
        return TinyNet(q, **opts)
    if family == TOY_CASCADE:
        return ToyCascade(q, **opts)
    raise ConfigError(f"unknown estimator family {family!r}")


def load_checkpoint(data: dict) -> Estimator:
    loaders = {
        AFFINE_PER_PATTERN: AffinePerPattern.from_checkpoint,
        TINY_NET: TinyNet.from_checkpoint,
        TOY_CASCADE: ToyCascade.from_checkpoint,
    }
    family = data.get("family")
    if family not in loaders:
        raise ConfigError(f"unknown estimator family {family!r} in checkpoint")
    return loaders[family](data)


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

    The 2q rows (real and imaginary output channels) are assembled
    column-by-column from vjp calls with unit cotangents. A deficient rank
    is reported, not raised: it flags an estimator that cannot satisfy the
    population-minimizer theory at this point.
    """
    q = est.q
    n = est.theta.shape[0]
    if n < 2 * q:
        raise ValidationError(f"need at least 2q = {2 * q} parameters, got {n}")
    rows = np.empty((2 * q, n))
    eye = np.eye(q, dtype=np.complex128)
    for j in range(q):
        rows[j] = est.vjp(y_in, m_in, eye[j])
        rows[q + j] = est.vjp(y_in, m_in, 1j * eye[j])
    sv = np.linalg.svd(rows, compute_uv=False)
    tol = max(rows.shape) * np.finfo(np.float64).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.count_nonzero(sv > tol))
    smallest = float(sv[rank - 1]) if rank > 0 else 0.0
    return RankReport(rank, 2 * q, n, smallest)


def _fit_row_factors(method: str, s_member: np.ndarray, p: np.ndarray,
                     pt: np.ndarray, alpha: float) -> np.ndarray:
    """E[loss row weight * mask indicator | input pattern] per output index.

    These scalars multiply each row's normal equations. They cancel wherever
    positive, but building them from the method's actual weighting keeps
    this fit independent of the conditional-mean oracle it is checked
    against; a zero marks a row the method's loss never constrains.
    """
    q = s_member.shape[0]
    w_on = ((1.0 + alpha ** 2) / alpha ** 2) ** 2
    c = np.ones(q)
    if method in (M.FULLY_SUPERVISED, M.SUPERVISED_WO_DENOISING, M.NOISIER2FULL_UNWEIGHTED):
        return c
    if method == M.NOISIER2FULL:
        c[s_member] = w_on
        return c
    one_minus_k = 1.0 - compute_k(p, pt)
    if method == M.STANDARD_SSDU:
        c[s_member] = 0.0
        c[~s_member] = one_minus_k[~s_member]
        return c
    if method == M.ROBUST_SSDU:
        c[s_member] = w_on
        off = ~s_member
        c[off] = compute_P(p, pt)[off] * one_minus_k[off]
        return c
    if method == M.ROBUST_SSDU_UNWEIGHTED:
        c[s_member] = 1.0
        c[~s_member] = one_minus_k[~s_member]
        return c
    raise ConfigError(f"no closed-form fit for method {method!r}")


def closed_form_affine_fit(model, method: str, pattern: SamplingMask,
                           into: AffinePerPattern | None = None) -> AffinePerPattern:
    """Population-optimal affine map for a method's loss at one input pattern.

    Solves the normal equations of the expected loss under the Gaussian
    model, conditioned on the input support pattern. The offset b is zero
    under the zero-mean prior. Rows whose normal equations are singular are
    solved with a 1e-10 ridge and flagged in ``fit_info`` (``ridge_rows``
    for ill-conditioned systems, ``unconstrained_rows`` for rows the loss
    never touches, which the theory leaves free).
    """
    if method == M.NOISE2RECON_SS:
        raise ConfigError("noise2recon_ss has no closed-form fit (its loss couples "
                          "two input patterns); it is reported descriptively only")
    if method not in M.ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}")
    q = model.q
    if pattern.q != q:
        raise DimensionError("pattern length does not match model")
    sigma2 = model.noise.sigma_n ** 2
    alpha = model.noise.alpha
    v_in = sigma2 if method in (M.FULLY_SUPERVISED, M.SUPERVISED_WO_DENOISING,
                                M.STANDARD_SSDU) else (1.0 + alpha ** 2) * sigma2
    target_y0 = method == M.FULLY_SUPERVISED

    s = np.nonzero(pattern.member)[0]
    cov = model.prior_cov
    gram = cov[np.ix_(s, s)] + v_in * np.eye(s.size)
    t_mat = cov[:, s].copy()
    if not target_y0:
        for col, j in enumerate(s):
            t_mat[j, col] += sigma2

    c = _fit_row_factors(method, pattern.member, model.omega_probs(),
                         model.lambda_probs(), alpha)

    a = np.zeros((q, q), dtype=np.complex128)
    info = {"ridge_rows": [], "unconstrained_rows": []}
    if s.size:
        eigs = np.linalg.eigvalsh(gram)
        gram_singular = eigs.min() <= 1e-12 * max(1.0, eigs.max())
        for j in range(q):
            if c[j] == 0.0:
                info["unconstrained_rows"].append(int(j))
                continue  # ridge solve of the zero system: row stays zero
            lhs = c[j] * gram
            rhs = c[j] * t_mat[j]
            if gram_singular:
                lhs = lhs + 1e-10 * np.eye(s.size)
                info["ridge_rows"].append(int(j))
            a[j, s] = np.linalg.solve(lhs.T, rhs)  # row solve: a_j @ lhs = rhs
    else:
        # Nothing observed: the population optimum is the prior mean, zero.
        info["unconstrained_rows"] = [int(j) for j in range(q) if c[j] == 0.0]
    est = into if into is not None else AffinePerPattern(q)
    est.set_block(pattern, a, np.zeros(q, dtype=np.complex128))
    est.fit_info[pattern.key()] = info
    return est
