"""Estimator families with exact reverse-mode gradients.

Three families share one interface: ``forward_vjp_stack(theta, y_in,
member)`` maps C complex inputs (C, q) with input supports (C, q) to C
outputs ``out``, row c under the parameter row ``theta[c]``, and returns them
with a pullback. ``pullback(cot)`` hands over the (C, P) gradients of
``Re <cot_c, out_c>`` with respect to each row in pieces ``(span, g)``:
``span`` is a column slice of the parameter row and ``g`` its (C, len)
gradient, an array or an ``OuterPiece``, a weight gradient left as the
outer product of its two factors. The pieces cover every column once. A
family hands a piece over only when the rest of the pullback reads none of
that span's parameters, so the consumer may update them in place at once;
training's Adam step does, forming each block of an outer product as it
reads it, and so holds no gradient span. ``tiny_net`` and
``affine_per_pattern`` hand over one piece, the whole row; ``toy_cascade``
hands over each layer of each network and each step size as its cascade's
backward pass finishes. A caller that needs the whole gradient gathers it
(``gather_pieces``), which returns a whole-row array as it is and forms
each outer product into its span. Training steps a stack of cells that share a
parameter layout through one such call. The per-item
``forward_vjp(y_in, m_in)`` is its one-row case under the estimator's own
``theta``, with a pullback that returns the whole gradient, and ``forward``
and ``vjp`` are built on that. Complex parameters are stored as
real/imaginary pairs, so all losses and gradients live in ordinary real
calculus.

* affine_per_pattern - one affine map per input support pattern, enrolled
  lazily during training. Quadratic losses then have closed-form population
  optima (``closed_form_affine_fit``), which is the rigorous path for
  verifying what each training method recovers.
* tiny_net - a small fully-connected network on stacked real/imaginary
  channels with softplus activations.
* toy_cascade - an unrolled data-consistency cascade whose refinement step
  is partitioned into a denoising network on sampled indices and a
  reconstruction network on unsampled ones.

``FAMILIES`` maps each family name to its class. A class declares its integer
hyperparameters and their rules once, in ``fields``; the constructors and
``from_checkpoint`` check q and each field by them (``_checked``), and
``to_checkpoint``, the config table and the CLI read that declaration.
"""

import math
import warnings

import numpy as np

from . import methods as M
from .errors import SEED_RULE, ConfigError, DimensionError, ValidationError, integer
from .kspace import SamplingMask, as_kspace
from .rng import stream
from .sampling import compute_P, compute_k

# Entries (patterns x q x size^2) of one stacked closed-form solve, at most;
# on banded q = 8 (at most 20 patterns of one size) each size is one call.
FIT_BLOCK = 1 << 16


class PatternFallbackWarning(UserWarning):
    """An affine estimator saw an unknown pattern and used the nearest one."""


def complex_to_real(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def real_to_complex(x: np.ndarray) -> np.ndarray:
    q = x.shape[-1] // 2
    return x[..., :q] + 1j * x[..., q:]


POSITIVE_INT, INDEX = integer(1), integer(0)  # the rules of q and of a sampled index


def aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte boundary.

    malloc aligns to 16 bytes only; at a 16-byte offset, an (8, 816) Adam step
    took 47.7 us against 42.0 us and a 2.1 M-entry one 17.7 ms against 16.6
    ms (best of 7, one BLAS thread, 2-core Xeon; CHANGES.md, item 22).
    """
    n = math.prod(shape)
    buf = np.empty(n + 7)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + n].reshape(shape)


class OuterPiece:
    """A weight-gradient piece not yet formed: row c of the (C, out * in)
    piece is the row-major outer product of ``g[c]`` (out,) and ``h[c]``
    (in,), its entry ``i * in + j`` being ``g[c, i] * h[c, j]``."""

    __slots__ = ("g", "h", "shape")

    def __init__(self, g: np.ndarray, h: np.ndarray):
        self.g, self.h = g, h
        self.shape = (g.shape[0], g.shape[1] * h.shape[1])

    def block(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Form entries ``lo:hi`` of every row into ``out`` (C, hi - lo) and
        return it. Each entry is its one product, however the rows are cut:
        whole rows of W in one multiply, a row cut by ``lo`` or ``hi`` in
        its own."""
        g, h, n_in = self.g, self.h, self.h.shape[1]
        r0, c0 = divmod(lo, n_in)
        r1, c1 = divmod(hi, n_in)
        if r0 == r1:
            return np.multiply(g[:, r0, None], h[:, c0:c1], out=out)
        rows = out  # the columns of the whole rows between the cut ones
        if c0:
            np.multiply(g[:, r0, None], h[:, c0:], out=out[:, :n_in - c0])
            rows = rows[:, n_in - c0:]
            r0 += 1
        if c1:
            np.multiply(g[:, r1, None], h[:, :c1], out=out[:, out.shape[1] - c1:])
            rows = rows[:, :rows.shape[1] - c1]
        # splitting the last axis of a column slice is always a view
        np.multiply(g[:, r0:r1, None], h[:, None, :],
                    out=rows.reshape(len(g), r1 - r0, n_in))
        return out


def formed(piece) -> np.ndarray:
    """A piece's gradient as an array: an array as it is, an ``OuterPiece``
    formed into a new one."""
    if isinstance(piece, OuterPiece):
        return piece.block(0, piece.shape[1], np.empty(piece.shape))
    return piece


def gather_pieces(pieces, shape: tuple) -> np.ndarray:
    """The whole (C, P) gradient of ``shape`` from a pullback's pieces.

    A piece that covers the row (an array: a weight's ``OuterPiece`` never
    does, its bias beside it) is returned as it is, without a copy; other
    pieces are written in as they come, each ``OuterPiece`` formed in place.
    """
    grad = None
    for span, g in pieces:
        if g.shape == shape:
            return g
        if grad is None:
            grad = np.empty(shape)
        if isinstance(g, OuterPiece):
            g.block(0, g.shape[1], grad[:, span])
        else:
            grad[:, span] = g
    return grad


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, both
    from one ``exp(-|z|)`` and without boolean indexing."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class Mlp:
    """Plain fully-connected real network with softplus hidden units.

    Operates on externally owned parameter rows, one network per row of a
    (C, P) array. Its parameters fill columns ``start`` to ``end`` (exclusive)
    of every row, packed W1, b1, W2, b2, ... with W of shape (out, in), so
    several networks share one array at disjoint spans and each reads its
    own span in place; ``backward`` hands the span's gradient over as
    pieces of the whole row. Inputs and outputs carry the same leading
    row axis. Each row's matrix-vector products are single BLAS calls, so a
    row computes the same bits in a stack as alone.
    """

    def __init__(self, sizes, start: int):
        self.sizes = tuple(sizes)
        self.spans = []  # each layer's (W, b) columns of the row
        off = start
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            n_w = fan_out * fan_in
            self.spans.append((slice(off, off + n_w), slice(off + n_w, off + n_w + fan_out)))
            off += n_w + fan_out
        self.end = off
        # the parameter array whose layer views ``_views`` holds; holding it
        # keeps its id from being reused, and views see in-place updates
        self._theta = None
        self._views = None

    def init(self, rng: np.random.Generator, theta: np.ndarray) -> None:
        """Draw the weights N(0, 1/fan_in) into this network's span of a
        zeroed parameter vector ``theta``, layer by layer; the biases stay zero."""
        for (w_span, _), fan_in in zip(self.spans, self.sizes[:-1]):
            seg = theta[w_span]
            rng.standard_normal(out=seg)
            seg /= np.sqrt(fan_in)

    def _layers(self, theta: np.ndarray) -> list:
        """(W, b, W^T) views of each layer for the rows of theta, cut once per
        parameter array: a stack steps one array through all of its steps.
        Cut on every call, they made the AC-7 stack's forward pass and
        pullback 80.9 us against 61.6 us (best of 7; CHANGES.md, item 22)."""
        if self._theta is not theta:
            rows = theta.shape[0]
            self._views = []
            for (w_span, b_span), fan_in, fan_out in zip(self.spans, self.sizes[:-1],
                                                          self.sizes[1:]):
                w = theta[:, w_span].reshape(rows, fan_out, fan_in)
                self._views.append((w, theta[:, b_span], w.transpose(0, 2, 1)))
            self._theta = theta
        return self._views

    def forward(self, theta: np.ndarray, x: np.ndarray):
        """Outputs (C, out) for parameter rows theta (C, P) and inputs
        x (C, in), and the cache ``backward`` reads."""
        layers = self._layers(theta)
        hs, zs = [x], []
        h = x
        for w, b, _ in layers[:-1]:
            z = np.matmul(w, h[..., None])[..., 0]
            z += b
            h = np.logaddexp(0.0, z)  # softplus
            zs.append(z)
            hs.append(h)
        w, b, _ = layers[-1]
        y = np.matmul(w, h[..., None])[..., 0]
        y += b
        return y, (layers, hs, zs)

    def backward(self, cache, gy: np.ndarray, input_grad: bool = True):
        """Gradients of <gy_c, output_c> w.r.t. each parameter row and input row.

        Returns the parameter gradients as pieces ``(span, g)`` of the whole
        row, last layer first: each layer's W as the ``OuterPiece`` of its
        delta (C, out) and input (C, in), and its b as the delta itself,
        every piece made after the layer's input-gradient product has read
        W; and the input gradient, or None unless ``input_grad``.
        """
        layers, hs, zs = cache
        pieces = []
        g = gy
        for k in range(len(layers) - 1, -1, -1):
            if k < len(layers) - 1:
                g = _sigmoid(zs[k]) * g
            delta = g
            g = np.matmul(layers[k][2], g[..., None])[..., 0] if k or input_grad else None
            w_span, b_span = self.spans[k]
            pieces += ((w_span, OuterPiece(delta, hs[k])), (b_span, delta))
        return pieces, g


# Multiplying a word of eight 0/1 bytes by this constant (mod 2^64) gathers
# byte i's bit into bit 56 + i: every partial product lands on its own bit.
_GATHER_BYTES = np.uint64(0x0102040810204080)


def group_rows(rows: np.ndarray) -> list[np.ndarray]:
    """Indices of each distinct row of a (C, q) bool array, in order of first appearance.

    Each row is packed to bits and read as an unsigned integer key (a row of
    64-bit words beyond q = 64), and the rows are sorted stably by key, so
    every group lists its rows in increasing order. On a 4096-row shard
    (q = 8 or 16) this takes 46-139 us, against 650-1,030 us for
    ``np.unique`` over ``packbits`` void keys and 1,000-1,180 us for a dict
    of row bytes (best of 7; CHANGES.md, item 22).
    """
    n, q = rows.shape
    if n < 2:
        return [np.arange(n)] if n else []
    width = max(8, -(-q // 8) * 8)
    raw = np.zeros((n, width), dtype=np.uint8)
    raw[:, :q] = rows
    packed = (raw.view(np.uint64) * _GATHER_BYTES >> np.uint64(56)).astype(np.uint8)
    nbytes = packed.shape[1]
    size = 1 << (nbytes - 1).bit_length() if nbytes <= 8 else -(-nbytes // 8) * 8
    keys = np.zeros((n, size), dtype=np.uint8)
    keys[:, :nbytes] = packed
    if size <= 8:
        keys = keys.view(f"<u{size}")[:, 0]
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    else:
        keys = keys.view(np.uint64)
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        starts = np.flatnonzero(np.any(ordered[1:] != ordered[:-1], axis=1)) + 1
    bounds = [0, *starts.tolist(), n]
    groups = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return [groups[g] for g in np.argsort(order[bounds[:-1]]).tolist()]


class Estimator:
    """Common interface of the parameterized families."""

    family = "base"
    # (name, rule) of each integer hyperparameter: a constructor keyword, an
    # attribute, a checkpoint field and a config field (seed is init_seed there).
    fields = ()
    # Hashable key shared by estimators whose theta rows can step as one
    # stack; None trains each estimator as a stack of one.
    layout = None

    def __init__(self, q: int, theta: np.ndarray):
        self.q = q
        self.theta = np.asarray(theta, dtype=np.float64)

    @classmethod
    def _checked(cls, values: dict, prefix: str = "") -> list:
        """q and each of ``fields`` from ``values``, each passed by its rule:
        else ConfigError naming it ``prefix + name`` (KeyError if missing)."""
        return [rule.check(values[name], prefix + name)
                for name, rule in (("q", POSITIVE_INT), *cls.fields)]

    def forward_vjp_stack(self, theta: np.ndarray, y_in: np.ndarray, member: np.ndarray):
        """Outputs (C, q) of the parameter rows theta (C, P) on y_in (C, q) with
        supports member (C, q), and their pullback.

        ``pullback(cot)`` hands over the (C, P) gradients of
        ``Re <cot_c, out_c>``, one parameter row each, from cotangents (C, q)
        of every row, as an iterable of pieces ``(span, g)``: ``span`` a
        column slice of the row and ``g`` the (C, len) gradient of those
        columns, an array or an ``OuterPiece`` (an unformed outer product;
        ``block`` forms any of its column ranges). The spans cover every
        column once. A piece is handed over only once the rest of the
        pullback reads none of its span's parameters: the consumer may
        update them in place before asking for the next. Nothing is
        validated: callers pass finite complex128 and bool arrays.
        """
        raise NotImplementedError

    def forward_vjp(self, y_in, m_in: SamplingMask):
        """Output on (y_in, m_in) and its pullback: cot -> d Re<cot, out> / d theta.

        The one-row case of ``forward_vjp_stack`` under this estimator's
        theta; the pullback gathers the whole gradient (P,).
        """
        arr = self._check_input(y_in, m_in)
        theta = self.theta[None]
        out, pullback = self.forward_vjp_stack(theta, arr[None], m_in.member[None])
        return out[0], lambda cot: gather_pieces(pullback(as_kspace(cot, self.q)[None]),
                                                 theta.shape)[0]

    def forward(self, y_in, m_in: SamplingMask) -> np.ndarray:
        return self.forward_vjp(y_in, m_in)[0]

    def vjp(self, y_in, m_in: SamplingMask, cotangent) -> np.ndarray:
        return self.forward_vjp(y_in, m_in)[1](cotangent)

    def ensure_patterns(self, members: np.ndarray):
        """Hook for families that key parameters on the input pattern: enroll
        pattern rows (n, q) in row order. Other families ignore it."""

    def ensure_pattern(self, m_in: SamplingMask):
        """``ensure_patterns`` of the one pattern row of a mask."""
        return self.ensure_patterns(m_in.member[None])

    @property
    def n_params(self) -> int:
        """Length of theta that this estimator's fields (and patterns) imply."""
        raise NotImplementedError

    def to_checkpoint(self) -> dict:
        """JSON form of everything but theta: family, q and each of ``fields``."""
        return {"family": self.family, "q": self.q,
                **{name: getattr(self, name) for name, _ in self.fields}}

    @classmethod
    def from_checkpoint(cls, data: dict, theta: np.ndarray) -> "Estimator":
        """Inverse of ``to_checkpoint``, taking ``theta`` as it is (not copied):
        ConfigError naming a bad field, KeyError a missing one, ValidationError
        a theta of the wrong length. No initialization is drawn."""
        cls._checked(data, "estimator.")
        est = cls._from_fields(data)
        if theta.shape != (est.n_params,):
            raise ValidationError(f"checkpoint theta has {theta.size} parameters, "
                                  f"the estimator needs {est.n_params}")
        est.theta = theta
        return est

    @classmethod
    def _from_fields(cls, data: dict) -> "Estimator":
        """The estimator of a checkpoint's checked q and fields, with an empty theta."""
        return cls(data["q"], **{name: data[name] for name, _ in cls.fields}, theta=np.zeros(0))

    def _check_input(self, y_in, m_in) -> np.ndarray:
        arr = as_kspace(y_in, self.q)
        if m_in.q != self.q:
            raise DimensionError(f"mask length {m_in.q} != estimator q {self.q}")
        return arr


class AffinePerPattern(Estimator):
    """One complex affine map A_s y + b_s per input support pattern."""

    family = "affine_per_pattern"

    def __init__(self, q: int):
        super().__init__(*self._checked({"q": q}), np.zeros(0))
        self._patterns: dict[bytes, int] = {}
        self._members: list[np.ndarray] = []
        self.fit_info: dict[bytes, dict] = {}

    @property
    def block_size(self) -> int:
        return 2 * self.q * self.q + 2 * self.q

    @property
    def n_patterns(self) -> int:
        return len(self._members)

    @property
    def n_params(self) -> int:
        return self.n_patterns * self.block_size

    def ensure_patterns(self, members: np.ndarray) -> np.ndarray:
        """Block index of each pattern row (n, q), enrolling new ones in row order."""
        idx = np.empty(len(members), dtype=np.intp)
        new = []
        for i, member in enumerate(members):
            key = member.tobytes()
            if key not in self._patterns:
                self._patterns[key] = len(self._members)
                self._members.append(np.array(member, dtype=bool))
                new.append(key)
            idx[i] = self._patterns[key]
        if new:
            self.theta = np.concatenate([self.theta, np.zeros(len(new) * self.block_size)])
        return idx

    def _resolve(self, member: np.ndarray) -> int:
        """Block index of an input pattern; the nearest enrolled one, with a warning."""
        key = member.tobytes()
        if key in self._patterns:
            return self._patterns[key]
        if not self._members:
            raise ValidationError("affine estimator has no enrolled patterns")
        warnings.warn("input pattern not enrolled; using nearest enrolled pattern",
                      PatternFallbackWarning, stacklevel=2)
        dists = [int(np.count_nonzero(m ^ member)) for m in self._members]
        return int(np.argmin(dists))

    def _blocks(self, seg: np.ndarray):
        """The maps (..., q, q) and offsets (..., q) of block segments (..., block_size)."""
        q = self.q
        lead = seg.shape[:-1] + (q, q)
        a = seg[..., :q * q].reshape(lead) + 1j * seg[..., q * q:2 * q * q].reshape(lead)
        b = seg[..., 2 * q * q:2 * q * q + q] + 1j * seg[..., 2 * q * q + q:]
        return a, b

    def set_blocks(self, members: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """Write the maps a (n, q, q) and offsets b (n, q) of pattern rows (n, q)."""
        q = self.q
        idx = self.ensure_patterns(members)
        seg = self.theta.reshape(-1, self.block_size)
        seg[idx, :q * q] = a.real.reshape(len(idx), q * q)
        seg[idx, q * q:2 * q * q] = a.imag.reshape(len(idx), q * q)
        seg[idx, 2 * q * q:2 * q * q + q] = b.real
        seg[idx, 2 * q * q + q:] = b.imag

    def get_block(self, m_in: SamplingMask):
        a, b = self.get_blocks(m_in.member[None])
        return a[0], b[0]

    def get_blocks(self, members: np.ndarray):
        """The maps (n, q, q) and offsets (n, q) of enrolled pattern rows (n, q)."""
        try:
            idx = [self._patterns[member.tobytes()] for member in members]
        except KeyError:
            raise ValidationError("pattern not enrolled") from None
        return self._blocks(self.theta.reshape(-1, self.block_size)[idx])

    def forward_vjp_stack(self, theta, y_in, member):
        """Rows grouped by input pattern, each distinct one resolved (and
        warned about) once; one map per group and one BLAS gemv per row, so
        each row gets the bits it gets alone. Without a stack layout, theta
        is one vector: one row, or rows broadcast from it (stride 0)."""
        if theta.shape[0] > 1 and theta.strides[0] != 0:
            raise DimensionError("affine_per_pattern takes one theta, not distinct rows")
        bs = self.block_size
        groups = [(self._resolve(member[rows[0]]) * bs, rows) for rows in group_rows(member)]
        out = np.empty_like(y_in)
        for start, rows in groups:
            a, b = self._blocks(theta[0, start:start + bs])
            out[rows] = np.matmul(a, y_in[rows, :, None])[..., 0] + b

        def pullback(cot) -> list:
            grad = np.zeros(theta.shape)
            for start, rows in groups:
                grad[rows, start:start + bs] = _block_grads(cot[rows], y_in[rows])
            return [(slice(0, theta.shape[1]), grad)]

        return out, pullback

    def to_checkpoint(self) -> dict:
        """The common checkpoint plus ``patterns``: each enrolled pattern's
        sampled indices, in enrollment (theta block) order."""
        data = super().to_checkpoint()
        data["patterns"] = [np.flatnonzero(m).tolist() for m in self._members]
        return data

    @classmethod
    def _from_fields(cls, data: dict) -> "AffinePerPattern":
        est = cls(data["q"])
        q, patterns = est.q, data["patterns"]
        if not (isinstance(patterns, list) and all(
                isinstance(idx_list, list) and all(
                    INDEX.test(j) and j < q for j in idx_list)
                for idx_list in patterns)):
            raise ConfigError(f"estimator.patterns must be a list of index lists "
                              f"in [0, {q}), got {patterns!r:.80}")
        members = np.zeros((len(patterns), q), dtype=bool)
        for member, idx_list in zip(members, patterns):
            member[np.asarray(idx_list, dtype=int)] = True
        est.ensure_patterns(members)
        if est.n_patterns != len(patterns):
            raise ConfigError(f"estimator.patterns must list distinct patterns; "
                              f"{len(patterns) - est.n_patterns} of its {len(patterns)} "
                              f"index lists repeat an earlier one")
        return est


def _block_grads(cot: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Block gradient of Re <cot, A arr + b>, per row for stacked (n, q) inputs.

    Block layout: Re A, Im A (row-major), Re b, Im b.
    """
    outer = np.conj(cot)[..., :, None] * arr[..., None, :]  # d Re<c, A y> / dA = conj pairing
    flat = outer.shape[:-2] + (outer.shape[-1] ** 2,)
    return np.concatenate([outer.real.reshape(flat), -outer.imag.reshape(flat),
                           cot.real, cot.imag], axis=-1)


class TinyNet(Estimator):
    """Fully-connected network on stacked real/imaginary channels.

    Default: 2 hidden layers of width 4q, softplus units, weights drawn
    N(0, 1/fan_in) from the given seed, zero biases. The sampling mask is
    not an input; the support of y_in carries the pattern information.
    """

    family = "tiny_net"
    fields = (("hidden_layers", POSITIVE_INT), ("width_factor", POSITIVE_INT), ("seed", SEED_RULE))

    def __init__(self, q: int, hidden_layers: int = 2, width_factor: int = 4,
                 seed: int = 0, theta=None):
        q, self.hidden_layers, self.width_factor, self.seed = self._checked(
            {"q": q, "hidden_layers": hidden_layers, "width_factor": width_factor, "seed": seed})
        width = max(2, self.width_factor * q)
        self.mlp = Mlp([2 * q] + [width] * self.hidden_layers + [2 * q], 0)
        self.layout = (self.family, self.mlp.sizes)
        if theta is None:
            theta = np.zeros(self.mlp.end)
            self.mlp.init(stream(self.seed, "tiny_net_init"), theta)
        super().__init__(q, theta)

    def forward_vjp_stack(self, theta, y_in, member):
        out, cache = self.mlp.forward(theta, complex_to_real(y_in))

        def pullback(cot) -> list:
            # gathered: writing the products in place saves a few us a step but
            # takes a second backward pass beside toy_cascade's, or a flag
            pieces, _ = self.mlp.backward(cache, complex_to_real(cot), input_grad=False)
            return [(slice(0, theta.shape[1]), gather_pieces(pieces, theta.shape))]

        return real_to_complex(out), pullback

    @property
    def n_params(self) -> int:
        return self.mlp.end


class ToyCascade(Estimator):
    """Unrolled cascade with a partitioned refinement module.

    Each of K cascades applies a data-consistency step with trainable step
    size eta_k and adds M_in G_D(y_k) + (1 - M_in) G_R(y_k), with G_D and
    G_R one-hidden-layer networks specializing to sampled (denoising) and
    unsampled (reconstruction) indices respectively. Cascade k's eta, G_D
    and G_R lie in that order in one parameter row, and every network reads
    its own span of the whole row. A fresh theta starts on a 64-byte
    boundary.

    The pullback runs the cascades in reverse and hands over, per cascade,
    G_D's pieces after its backward pass, G_R's after its own and then
    eta, after the cascade's input-gradient update has read it. Nothing
    reads cascade 0's input gradient, so there neither network computes
    one and no update runs. A network's weight gradients stay outer
    products (``Mlp.backward``), so the pullback forms no gradient span.
    """

    family = "toy_cascade"
    fields = (("cascades", POSITIVE_INT), ("seed", SEED_RULE))

    def __init__(self, q: int, cascades: int = 2, seed: int = 0, theta=None):
        q, self.cascades, self.seed = self._checked({"q": q, "cascades": cascades, "seed": seed})
        sizes = [2 * q, 2 * q, 2 * q]
        self.nets = []  # (eta index, G_D, G_R) of each cascade
        end = 0
        for _ in range(self.cascades):
            d_net = Mlp(sizes, end + 1)
            r_net = Mlp(sizes, d_net.end)
            self.nets.append((end, d_net, r_net))
            end = r_net.end
        self.layout = (self.family, self.cascades, tuple(sizes))
        if theta is None:
            rng = stream(self.seed, "toy_cascade_init")
            theta = aligned_empty((end,))
            theta[...] = 0.0
            for i_eta, d_net, r_net in self.nets:
                theta[i_eta] = 1.0
                d_net.init(rng, theta)
                r_net.init(rng, theta)
        super().__init__(q, theta)

    def forward_vjp_stack(self, theta, y_in, member):
        x = complex_to_real(y_in)
        mvec = np.concatenate([member, member], axis=-1).astype(np.float64)
        states, caches = [x], []
        s = x
        for i_eta, d_net, r_net in self.nets:
            d_out, d_cache = d_net.forward(theta, s)
            r_out, r_cache = r_net.forward(theta, s)
            s = s - theta[:, i_eta, None] * mvec * (s - x) + mvec * d_out + (1.0 - mvec) * r_out
            states.append(s)
            caches.append((d_cache, r_cache))

        def pullback(cot):
            a = complex_to_real(cot)
            for k in range(self.cascades - 1, -1, -1):
                (i_eta, d_net, r_net), (d_cache, r_cache) = self.nets[k], caches[k]
                # row-wise dot products, each the BLAS dot of the one-row case
                g_eta = -np.matmul(a[:, None, :], (mvec * (states[k] - x))[:, :, None])[:, 0]
                pieces, ax_d = d_net.backward(d_cache, mvec * a, input_grad=k > 0)
                yield from pieces
                pieces, ax_r = r_net.backward(r_cache, (1.0 - mvec) * a, input_grad=k > 0)
                yield from pieces
                if k:
                    a = a * (1.0 - theta[:, i_eta, None] * mvec) + ax_d + ax_r
                yield slice(i_eta, i_eta + 1), g_eta

        return real_to_complex(states[-1]), pullback

    @property
    def n_params(self) -> int:
        return self.nets[-1][2].end


FAMILIES = {cls.family: cls for cls in (AffinePerPattern, TinyNet, ToyCascade)}


def make_estimator(family: str, q: int, **opts) -> Estimator:
    """A fresh estimator of ``family``; ``opts`` are its fields as keywords."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown estimator family {family!r}")
    return FAMILIES[family](q, **opts)


def load_checkpoint(data: dict, theta: np.ndarray) -> Estimator:
    """The estimator of a checkpoint's ``estimator`` object and its theta."""
    family = data.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown estimator family {family!r} in checkpoint")
    try:
        return FAMILIES[family].from_checkpoint(data, theta)
    except KeyError as exc:
        raise ConfigError(f"estimator.{exc.args[0]} is missing") from None


def _fit_input_variance(method: str, noise) -> float:
    """Per-entry noise variance of the method's input: sigma_n^2 on the
    measured data, (1 + alpha^2) sigma_n^2 on the further-corrupted data."""
    factor = 1.0 + noise.alpha ** 2 if M.row(method).input.further_noise else 1.0
    return factor * noise.sigma_n ** 2


def _fit_row_factors(method: str, members: np.ndarray, p: np.ndarray,
                     pt: np.ndarray, alpha: float) -> np.ndarray:
    """E[loss row weight * mask indicator | input pattern] per pattern row and
    output index, for pattern rows (n, q).

    These scalars multiply each row's normal equations. They cancel wherever
    positive, but building them from the method's actual weighting keeps
    this fit independent of the conditional-mean oracle it is checked
    against; a zero marks a row the method's loss never constrains.
    """
    w_on = ((1.0 + alpha ** 2) / alpha ** 2) ** 2
    if method in (M.FULLY_SUPERVISED, M.SUPERVISED_WO_DENOISING, M.NOISIER2FULL_UNWEIGHTED):
        return np.ones(members.shape)
    if method == M.NOISIER2FULL:
        return np.where(members, w_on, 1.0)
    one_minus_k = 1.0 - compute_k(p, pt)
    if method == M.STANDARD_SSDU:
        return np.where(members, 0.0, one_minus_k)
    if method == M.ROBUST_SSDU:
        return np.where(members, w_on, compute_P(p, pt) * one_minus_k)
    if method == M.ROBUST_SSDU_UNWEIGHTED:
        return np.where(members, 1.0, one_minus_k)
    raise ConfigError(f"no closed-form fit for method {method!r}")


def _support_groups(members: np.ndarray):
    """(rows, supports) of pattern rows (n, q) stacked by support size.

    Yields, in increasing nonempty size, pattern rows of one size and their
    observed indices (rows, size), ascending. A size's rows come in one
    piece unless their (pattern, row) systems exceed ``FIT_BLOCK`` entries.
    """
    q = members.shape[1]
    sizes = np.count_nonzero(members, axis=1)
    for size in sorted(set(sizes[sizes > 0].tolist())):
        rows = np.flatnonzero(sizes == size)
        supports = np.nonzero(members[rows])[1].reshape(len(rows), size)
        step = max(1, FIT_BLOCK // (q * size * size))
        for start in range(0, len(rows), step):
            yield rows[start:start + step], supports[start:start + step]


def closed_form_affine_fit(model, method: str, patterns,
                           into: AffinePerPattern | None = None) -> AffinePerPattern:
    """Population-optimal affine maps of a method's loss at a stack of input patterns.

    ``patterns`` is one ``SamplingMask`` or pattern rows (n, q) of bool.
    Solves the normal equations of the expected loss under the Gaussian
    model, conditioned on each input support pattern. The offset b is zero
    under the zero-mean prior. Rows whose normal equations are singular are
    solved with a 1e-10 ridge and flagged in ``fit_info`` (``ridge_rows``
    for ill-conditioned systems, ``unconstrained_rows`` for rows the loss
    never touches, which the theory leaves free).

    Patterns are stacked by support size: one ``eigvalsh`` over the grams of
    a size, then one ``solve`` over all its (pattern, constrained row)
    systems. Each system is built, and gets the bits, as when its pattern is
    fitted alone; a single pattern is the one-row stack.
    """
    if method == M.NOISE2RECON_SS:
        raise ConfigError("noise2recon_ss has no closed-form fit (its loss couples "
                          "two input patterns); it is reported descriptively only")
    M.row(method)  # ConfigError for an unknown method
    q = model.q
    members = (patterns.member[None] if isinstance(patterns, SamplingMask)
               else np.asarray(patterns, dtype=bool))
    if members.ndim != 2 or members.shape[1] != q:
        raise DimensionError("pattern length does not match model")
    sigma2 = model.noise.sigma_n ** 2
    v_in = _fit_input_variance(method, model.noise)
    target_y0 = M.row(method).target == M.TARGET_Y0
    c = _fit_row_factors(method, members, model.omega_probs(), model.lambda_probs(),
                         model.noise.alpha)
    cov = model.prior_cov
    a = np.zeros((len(members), q, q), dtype=np.complex128)
    ridge = np.zeros(members.shape, dtype=bool)
    for rows, s in _support_groups(members):
        m, size = s.shape
        gram = cov[s[:, :, None], s[:, None, :]] + v_in * np.eye(size)
        t_mat = cov[np.arange(q)[:, None], s[:, None, :]]  # (m, q, size)
        if not target_y0:
            t_mat[np.arange(m)[:, None], s, np.arange(size)] += sigma2
        eigs = np.linalg.eigvalsh(gram)
        singular = eigs.min(axis=1) <= 1e-12 * np.maximum(1.0, eigs.max(axis=1))
        # one system per constrained (pattern, row); a row with c_j = 0 stays zero
        pat, row = np.nonzero(c[rows] != 0.0)
        c_j = c[rows[pat], row]
        lhs = c_j[:, None, None] * gram[pat]
        rhs = c_j[:, None] * t_mat[pat, row]
        ridged = singular[pat]
        lhs[ridged] += 1e-10 * np.eye(size)
        ridge[rows[pat[ridged]], row[ridged]] = True
        # row solve: a_j @ lhs = rhs, right-hand sides with an explicit trailing axis
        a[rows[pat, None], row[:, None], s[pat]] = np.linalg.solve(
            lhs.swapaxes(-1, -2), rhs[..., None])[..., 0]
    est = into if into is not None else AffinePerPattern(q)
    est.set_blocks(members, a, np.zeros((len(members), q), dtype=np.complex128))
    for member, ridge_rows, free_rows in zip(members, _true_columns(ridge),
                                             _true_columns(c == 0.0)):
        est.fit_info[member.tobytes()] = {"ridge_rows": ridge_rows,
                                          "unconstrained_rows": free_rows}
    return est


def _true_columns(flags: np.ndarray) -> list[list[int]]:
    """The True column indices of each row of a (n, q) bool array, as lists."""
    row, col = np.nonzero(flags)
    ends = np.cumsum(np.bincount(row, minlength=len(flags))).tolist()
    col = col.tolist()
    return [col[a:b] for a, b in zip([0, *ends[:-1]], ends)]
