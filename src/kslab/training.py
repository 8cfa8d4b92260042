"""Training losses, loss weightings, the Adam optimizer, and the epoch loop.

Each method's loss is the squared l2 norm of a (possibly weighted) complex
residual, summed over entries: ``sum_j W_jj^2 |f_j - t_j|^2``, with the
input, target and weight read from the method table. Weights multiply the
residual before squaring. Gradients are exact, from the estimator's pullback.

The epoch loop follows the simulation protocol: the first-level mask and
measurement noise of each item are fixed once, while the second-level mask
and the further noise are regenerated once per epoch.

Training steps a sequence of cells in lockstep. A cell is a spec, an
estimator, a dataset and a model; consecutive cells whose small estimators
share a parameter layout and whose optimizer schedules agree form a stack
that holds its parameters as the rows of one (C, P) array. Each epoch
builds every cell's inputs, supports, targets and squared weights as (n, q)
arrays once; each step then runs one stacked forward pass, one pullback
and one Adam update for the whole stack. Rows never mix, and every
row-wise operation is the one a cell trained alone performs, so a cell's
parameters and history are the same to the bit in any stack.

A pullback hands its gradient over in pieces, one span of the parameter
row at a time (see ``estimators``). When a step's gradient is one item's
single pullback (batch size 1, no consistency term in the stack), the
step computes the loss and checks that it is finite first; then
``adam_step`` updates each span as it is handed over, forming each block
of an outer-product piece in its own scratch, so no gradient span is
allocated. A large ``toy_cascade`` cell thus holds its parameters and the
two Adam moments (16.8 and 33.6 MB on the 2.1 M-parameter cascade on
bernoulli2d q = 256) and Adam's two block-sized scratch arrays. A batch
gathers its first item's gradient and adds each later item's pieces into
it in place; a step with a consistency term gathers its main gradient and
adds the consistency pullbacks into it piece by piece, each formed as it
comes. Either sum goes to Adam as one piece.
"""

import math
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import methods as M
from .errors import (SEED_RULE, ConfigError, DimensionError, TrainingDiverged, ValidationError,
                     integer, number, one_of)
from .estimators import Estimator, OuterPiece, aligned_empty, formed, gather_pieces
from .inference import MODE_PRACTICAL, reconstruct_rows
from .kspace import SamplingMask, as_kspace
from .metrics import nmse_rows
from .noise import NOISE_RULES, complex_from_normals, second_level_draws
from .rng import stream, streams
from .sampling import compute_P
from .synthetic import MeasurementModel, ground_truth_from_normals

# Cells stack only when each has at most this many parameters. Stacking
# saves per-call overhead: a stacked step of 8 such cells is 3-8x cheaper per
# cell than a step alone, while from about 6000 parameters the batched
# matrix products run slower than each cell's own (measured in CHANGES.md),
# and a stack only multiplies the optimizer's memory.
STACK_MAX_PARAMS = 4096

# The Adam step streams over the parameters in blocks of at most this many
# entries, so that a block's gradient, moments, parameters and two scratch
# arrays (1.5 MB at 2^15) stay in L2 through all of the step's passes. On a
# 2.1 M-parameter step, blocks of 2^14 to 2^16 entries ran fastest (sweep in
# CHANGES.md); a stack of at most this many entries steps as one block.
ADAM_BLOCK = 2 ** 15


# The rule of each checked TrainSpec field: the config's train section is
# checked by these same rules, so a spec keeps the ranges the config applies.
SPEC_RULES = {
    "method": one_of(M.ALL_METHODS),
    "epochs": integer(1),
    "lr": number(positive=True),
    "beta1": number(below=1),
    "beta2": number(below=1),
    "eps": number(positive=True),
    "batch_size": integer(1),
    "lambda_n2r": number(),
    "alpha": NOISE_RULES["alpha"],
}


@dataclass(frozen=True)
class TrainSpec:
    """A training method (a row of ``methods.METHODS``) plus optimizer settings."""

    method: str
    epochs: int = 300
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 1
    seed: int = 0
    lambda_n2r: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        for name, rule in SPEC_RULES.items():
            rule.check(getattr(self, name), name)
        SEED_RULE.check(self.seed, "seed")  # the config's top-level seed, not train.*


@dataclass
class TrainItem:
    """One training example: fixed acquisition, per-epoch second-level draws.

    y = M_Omega (y0 + n) by construction. y0 is held only where a method or
    the evaluation needs it; noise holds the measurement-noise draw n so the
    fully sampled noisy target y0 + n can be formed for the methods that
    train on it. lam and ntilde are the second-level draws a loss reads.
    """

    y: np.ndarray
    omega: SamplingMask
    y0: np.ndarray | None = None
    noise: np.ndarray | None = None
    lam: SamplingMask | None = None
    ntilde: np.ndarray | None = None


def make_train_item(model: MeasurementModel, rng: np.random.Generator,
                    keep_ground_truth: bool = True) -> TrainItem:
    """Simulate one acquisition from the measurement model (``draw_dataset`` of one)."""
    return draw_dataset(model, [rng], 1, keep_ground_truth)[0]


@dataclass
class Dataset:
    """Drawn acquisitions as (n, q) rows: data y, first-level membership
    omega and its probabilities (q,), the ground truth y0 and noise draw when
    kept, and the second-level membership lam, its probabilities (q,) and
    the further noise ntilde when drawn. A training set and a Monte Carlo
    shard are both one."""

    y: np.ndarray
    omega: np.ndarray
    omega_probs: np.ndarray
    y0: np.ndarray | None = None
    noise: np.ndarray | None = None
    lam: np.ndarray | None = None
    lam_probs: np.ndarray | None = None
    ntilde: np.ndarray | None = None

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, i: int) -> TrainItem:
        y0, noise, ntilde = (None if a is None else a[i]
                             for a in (self.y0, self.noise, self.ntilde))
        lam = None if self.lam is None else SamplingMask(self.lam[i], self.lam_probs)
        return TrainItem(self.y[i], SamplingMask(self.omega[i], self.omega_probs), y0, noise, lam,
                         ntilde)


def draw_dataset(model: MeasurementModel, rngs: Iterable[np.random.Generator], n_items: int,
                 keep_ground_truth: bool = True) -> Dataset:
    """``n_items`` acquisitions, item i from the i-th of exactly ``n_items`` generators.

    Each item draws its ground truth y0, its measurement noise n and its
    first-level mask, in that order; y = M_Omega (y0 + n). Only the raw
    draws happen per item, the transforms run on all rows at once, and each
    row has the bits of its item simulated alone.
    """
    q = model.q
    # an item's four channels in one call, as one standard_normal(4q) draws
    # what four consecutive standard_normal(q) calls draw
    normals = np.empty((n_items, 4 * q))
    uniforms = np.empty((n_items, q))
    for z, u, rng in zip(normals, uniforms, rngs, strict=True):
        rng.standard_normal(out=z)
        rng.random(out=u)
    y0 = ground_truth_from_normals(model, normals[:, :q], normals[:, q:2 * q])
    noise = complex_from_normals(normals[:, 2 * q:3 * q], normals[:, 3 * q:],
                                 model.noise.sigma_n)
    omega = model.omega_dist.members(uniforms)
    y = np.where(omega, y0 + noise, 0.0 + 0.0j)
    return Dataset(y=y, omega=omega, omega_probs=model.omega_probs(),
                   y0=y0 if keep_ground_truth else None,
                   noise=noise if keep_ground_truth else None)


def build_dataset(model: MeasurementModel, n_items: int, seed: int,
                  label: str | tuple = "train", keep_ground_truth: bool = True) -> Dataset:
    """``n_items`` acquisitions, item i drawn from ``stream(seed, label, i)``;
    a tuple ``label`` is a longer path, ``stream(seed, *label, i)``."""
    if n_items < 1:
        raise ConfigError("dataset must be nonempty")
    path = label if isinstance(label, tuple) else (label,)
    return draw_dataset(model, streams(seed, *path, count=n_items), n_items,
                        keep_ground_truth)


def weight_noisier2full(omega: np.ndarray, alpha: float) -> np.ndarray:
    """Diagonal W_Omega = ((1 + a^2) / a^2) M_Omega + M_Omega^c, row-wise on memberships."""
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero for the noisier2full weighting")
    return np.where(omega, (1.0 + alpha ** 2) / alpha ** 2, 1.0)


def weight_robust_ssdu(omega: np.ndarray, lam: np.ndarray, alpha: float,
                       P: np.ndarray) -> np.ndarray:
    """Diagonal W = ((1 + a^2) / a^2) M_{Lambda ∩ Omega} + P^(1/2) M_{Omega \\ Lambda}.

    Row-wise on memberships; zero off Omega, where the loss is masked anyway.
    """
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero for the robust-ssdu weighting")
    return np.where(omega & lam, (1.0 + alpha ** 2) / alpha ** 2,
                    np.where(omega & ~lam, np.sqrt(P), 0.0))


def loss_weight(method: M.Method, omega: np.ndarray, lam: np.ndarray | None,
                alpha: float, P: np.ndarray | None = None) -> np.ndarray:
    """Diagonal of the method's loss weight W, for one item (q,) or rows (n, q).

    ``omega`` and ``lam`` are memberships; ``P`` (from ``compute_P``) is read
    only by the robust-ssdu weight.
    """
    if method.weight == M.WEIGHT_ONE:
        return np.ones(omega.shape)
    if method.weight == M.WEIGHT_NOISIER2FULL:
        return weight_noisier2full(omega, alpha)
    if method.weight == M.WEIGHT_ROBUST_SSDU:
        return weight_robust_ssdu(omega, lam, alpha, P)
    if method.weight == M.WEIGHT_HELD_OUT:
        return (omega & ~lam).astype(np.float64)
    return omega.astype(np.float64)  # WEIGHT_OMEGA


class Rows(NamedTuple):
    """What a loss step reads, one row per item: the input and its support,
    the target, the squared weight and, for Noise2Recon-SS, the consistency
    input and its support. One item (q,), an epoch (n, q) or a step (C, q)."""

    y_in: np.ndarray
    m_in: np.ndarray
    target: np.ndarray
    w2: np.ndarray
    y_c: np.ndarray | None = None
    m_c: np.ndarray | None = None


def _require(data, attr: str, method: str):
    value = getattr(data, attr)
    if value is None:
        raise ConfigError(f"method {method!r} requires item field {attr!r}")
    return value


def method_rows(name: str, alpha: float, data: Dataset) -> Rows:
    """The loss inputs of method ``name`` from drawn rows, row by row: the
    input and its support, the target (y, y0 or y0 + n), the square of the
    weight (``sqrt(P)**2 != P`` bitwise; P from the record's probabilities)
    and any consistency input. ConfigError names a field the method reads
    that ``data`` lacks."""
    method = M.row(name)
    omega = data.omega
    lam = _require(data, "lam", name) if method.reads_lam else None
    ntilde = _require(data, "ntilde", name) if method.reads_ntilde else None
    target = data.y
    if method.target != M.TARGET_Y:
        target = _require(data, "y0", name)
        if method.target == M.TARGET_Y0_PLUS_N:
            target = target + _require(data, "noise", name)
    P = (compute_P(data.omega_probs, data.lam_probs)
         if method.weight == M.WEIGHT_ROBUST_SSDU else None)
    y_in, m_in = method.input.build(data.y, omega, lam, ntilde)
    w2 = loss_weight(method, omega, lam, alpha, P) ** 2
    if method.consistency is None:
        return Rows(y_in, m_in, target, w2)
    return Rows(y_in, m_in, target, w2, *method.consistency.build(data.y, omega, lam, ntilde))


def weighted_loss_and_grad(f: np.ndarray, pullback, rows: Rows):
    """Losses ``sum_j W_jj^2 |f_j - t_j|^2`` (C,) and the pieces of their
    exact gradients (C, P) from a forward pass f (C, q) on ``rows.y_in`` and
    its pullback (a lazy pullback has not run yet when the losses return)."""
    r = f - rows.target
    loss = (rows.w2 * np.square(np.abs(r))).sum(axis=-1)
    # 2 pullback(w2 r) to the bit: the pullback is linear and doubling is exact
    return loss, pullback((rows.w2 * r) * 2.0)


def stack_loss_and_grad(est: Estimator, theta: np.ndarray, rows: Rows, cons, lambda_n2r):
    """Losses (C,) and the pieces of the exact gradients (C, P) of C cells,
    one item each.

    Row c of ``theta`` and of every array in ``rows`` belongs to cell c. One
    forward pass f and its pullback give the weighted loss and its gradient
    (``weighted_loss_and_grad``), whose pieces are the pullback's own. When
    ``rows.y_c`` is given, a consistency pass runs on every row, and the
    cells where the bool mask ``cons`` (C,) is set add
    ``lambda_n2r ||f_c - f||^2`` for the output f_c on their consistency
    input; the other rows of loss and gradient are left as they are. The
    gradient is then gathered, the consistency pullbacks are added into it
    piece by piece, and it is handed over as one piece.
    """
    f, pullback = est.forward_vjp_stack(theta, rows.y_in, rows.m_in)
    loss, pieces = weighted_loss_and_grad(f, pullback, rows)
    if rows.y_c is None:
        return loss, pieces
    grad = gather_pieces(pieces, theta.shape)
    f_c, pullback_c = est.forward_vjp_stack(theta, rows.y_c, rows.m_c)
    rc = f_c - f
    np.add(loss, lambda_n2r * np.square(np.abs(rc)).sum(axis=-1),
           out=loss, where=cons)
    scale, rowwise = (2.0 * lambda_n2r)[:, None], cons[:, None]
    for update, consistency in ((np.add, pullback_c), (np.subtract, pullback)):
        for span, g in consistency(rc):
            update(grad[:, span], scale * formed(g), out=grad[:, span], where=rowwise)
    return loss, [(slice(0, theta.shape[1]), grad)]


def loss_and_grad(spec: TrainSpec, est: Estimator, item: TrainItem) -> tuple[float, np.ndarray]:
    """Per-item loss and exact parameter gradient for the selected method.

    The one-row case of ``stack_loss_and_grad`` under the estimator's theta,
    on the item as a one-row ``Dataset``.
    """
    lam = item.lam
    y0, noise = (None if a is None else a[None] for a in (item.y0, item.noise))
    data = Dataset(as_kspace(item.y)[None], item.omega.member[None], item.omega.probs, y0, noise,
                   None if lam is None else lam.member[None], None if lam is None else lam.probs,
                   None if item.ntilde is None else as_kspace(item.ntilde)[None])
    rows = method_rows(spec.method, spec.alpha, data)
    _enroll(est, rows)
    theta = est.theta[None]
    loss, pieces = stack_loss_and_grad(est, theta, rows, np.array([True]),
                                       np.array([spec.lambda_n2r]))
    return float(loss[0]), gather_pieces(pieces, theta.shape)[0]


def _enroll(est: Estimator, rows: Rows) -> None:
    """Enroll the supports of one step (C, q) or of every step (n, C, q) with
    an estimator that keys parameters on them, in one call: step by step,
    each step's input supports, then its consistency supports."""
    members = rows.m_in if rows.m_c is None else np.concatenate([rows.m_in, rows.m_c], axis=-2)
    est.ensure_patterns(members.reshape(-1, members.shape[-1]))


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # the two block-sized scratch arrays, made when m and v are sized, and the
    # blocks of each gradient span (start, stop) seen since: each block's
    # index into params, into the piece and its (lo, hi) within the piece,
    # its views of m and v and of the scratch arrays. Steps write m and v
    # through these views: set m and v before the first step.
    scratch: tuple = field(default=(), repr=False)
    blocks: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def from_spec(spec: TrainSpec) -> "AdamState":
        return AdamState(lr=spec.lr, beta1=spec.beta1, beta2=spec.beta2, eps=spec.eps)


def _adam_blocks(state: AdamState, span: slice, n: int) -> list:
    """The blocks of a gradient span of the last axis (length ``n``), each
    as wide as the scratch arrays but the last. Cached per span in
    ``AdamState.blocks``: cut anew each step, compare-banded's median wall
    time read 0.277 s against 0.262 s (IQR 0.254-0.275; CHANGES.md, item 22)."""
    s1, s2 = state.scratch
    bounds = [*range(span.start, span.stop, s1.shape[-1]), span.stop]
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # slices are views, also of non-contiguous params (reshape could
        # copy); a block of a whole axis takes the cheaper [...]
        k = (..., slice(lo, hi)) if hi - lo < n else ...
        whole = (lo, hi) == (span.start, span.stop)
        kg = ... if whole else (..., slice(lo - span.start, hi - span.start))
        blocks.append((k, kg, (lo - span.start, hi - span.start), state.m[k], state.v[k],
                       s1[..., :hi - lo], s2[..., :hi - lo]))
    return blocks


def adam_step(state: AdamState, params: np.ndarray, grad) -> np.ndarray:
    """One bias-corrected Adam update; params are updated in place and returned.

    ``params`` is one parameter vector or a stack of rows (C, P) that share
    the step count. ``grad`` is the gradient, of params' shape, or a
    pullback's pieces ``(span, g)`` over the last axis (see
    ``estimators``): each piece's span of params is updated before the next
    piece is asked for, so the whole gradient need never exist. Moment
    arrays are zero-padded if the parameters have grown since the previous
    step (lazy pattern enrollment). The step sets its scalars once, then
    streams over each piece in blocks of at most ``ADAM_BLOCK`` entries (all
    rows of a stack at once), cut once per span, and updates each block's
    moments and params in place through two block-sized scratch arrays, in
    the operation order of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + ((1 - b2) g) g`` and
    ``params -= (lr m_hat) / (sqrt(v_hat) + eps)``. A block of an
    ``OuterPiece`` is formed into the second scratch array, which the step
    next writes at ``v / h2``, after its last read of g. Every entry gets
    the float operations of that out-of-place formula, so the result is the
    same to the bit, however the gradient is cut or formed; no full-length
    temporary is allocated.
    """
    n = params.shape[-1]
    if isinstance(grad, np.ndarray):
        grad = [(slice(0, n), grad)]
    if state.m.shape != params.shape or not state.scratch:
        # the first step, or the parameters grew: pad the moments, cut anew
        for name in ("m", "v"):
            grown = aligned_empty(params.shape)
            old = getattr(state, name)
            grown[..., :old.shape[-1]] = old
            grown[..., old.shape[-1]:] = 0.0
            setattr(state, name, grown)
        width = max(1, min(n, ADAM_BLOCK // max(1, math.prod(params.shape[:-1]))))
        state.scratch = tuple(aligned_empty((*params.shape[:-1], width)) for _ in range(2))
        state.blocks = {}
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    c1, c2, h1, h2 = 1.0 - b1, 1.0 - b2, 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    covered = 0
    for span, piece in grad:
        if piece.shape != (*params.shape[:-1], span.stop - span.start):
            raise DimensionError("gradient shape does not match parameters")
        key = span.start, span.stop
        blocks = state.blocks.get(key)
        if blocks is None:
            blocks = state.blocks[key] = _adam_blocks(state, span, n)
        outer = isinstance(piece, OuterPiece)
        for k, kg, (lo, hi), m, v, s1, s2 in blocks:
            g = piece.block(lo, hi, s2) if outer else piece[kg]
            p = params[k]
            np.multiply(g, c1, s1)
            m *= b1
            m += s1
            np.multiply(g, c2, s1)
            s1 *= g
            v *= b2
            v += s1
            np.divide(v, h2, s2)
            np.sqrt(s2, s2)
            s2 += eps
            np.divide(m, h1, s1)
            s1 *= lr
            s1 /= s2
            p -= s1
        covered += span.stop - span.start
    if covered != n:
        raise DimensionError("gradient pieces do not cover the parameters")
    return params


class Cell(NamedTuple):
    """One training run: method and optimizer settings, estimator, data, model."""

    spec: TrainSpec
    est: Estimator
    data: Dataset
    model: MeasurementModel


def _stack_key(cell: Cell):
    """What a cell must share with the cells it stacks with, or None to train alone.

    Estimators must share a parameter layout of at most ``STACK_MAX_PARAMS``
    parameters, and the optimizer schedules must agree (items, epochs, batch
    size, Adam settings).
    """
    est, s = cell.est, cell.spec
    if est.layout is None or est.theta.shape[0] > STACK_MAX_PARAMS:
        return None
    return (est.layout, len(cell.data), s.epochs, s.batch_size,
            s.lr, s.beta1, s.beta2, s.eps)


def _epoch_rows(cell: Cell, epoch: int) -> tuple[Rows, np.ndarray]:
    """A cell's loss inputs for every item in an epoch, and the item order."""
    spec, data, model = cell.spec, cell.data, cell.model
    method = M.row(spec.method)
    n, q = data.y.shape
    if method.reads_lam or method.reads_ntilde:
        # every such method draws Lambda, so the noise sits at one stream position
        lam, ntilde = second_level_draws(
            streams(spec.seed, "epoch", epoch, "item", count=n), n, q, model.lambda_dist,
            model.noise.alpha * model.noise.sigma_n if method.reads_ntilde else None)
        data = replace(data, lam=lam, lam_probs=model.lambda_probs(), ntilde=ntilde)
    order = stream(spec.seed, "epoch", epoch, "shuffle").permutation(n)
    return method_rows(spec.method, spec.alpha, data), order


def _validation_nmse(cell: Cell) -> float:
    """Mean NMSE of the practical-mode reconstructions of a cell's training data."""
    spec, est, data, model = cell
    rec = reconstruct_rows(spec.method, est, data.y, data.omega, model.noise,
                           mode=MODE_PRACTICAL)
    # the running sum of the items in order, as a loop over items adds them
    return float(np.cumsum(nmse_rows(rec, data.y0))[-1]) / len(data)


def _stack_epoch(cells: list[Cell], epoch: int, consistency: bool) -> Rows:
    """Every cell's epoch rows in its item order, as (n, C, q) arrays: step s reads [s].

    With ``consistency`` (some cell has a consistency term), a cell without
    one repeats its own input and support (an enrolled pattern) as its
    consistency rows. Cells are built one at a time, so only one cell's
    epoch arrays exist beside the stack's.
    """
    fields = [None] * len(Rows._fields)
    for c, cell in enumerate(cells):
        rows, order = _epoch_rows(cell, epoch)
        if consistency and rows.y_c is None:
            rows = rows._replace(y_c=rows.y_in, m_c=rows.m_in)
        for k, arr in enumerate(rows):
            if arr is None:
                continue
            if fields[k] is None:
                fields[k] = np.empty((arr.shape[0], len(cells), arr.shape[1]), dtype=arr.dtype)
            fields[k][:, c] = arr[order]
    return Rows(*fields)


def _consistency_cells(cells: list[Cell]) -> tuple[np.ndarray, np.ndarray]:
    """A mask (C,) of the cells with a consistency term, from the method table
    (a cell at lambda_n2r = 0 still gets its ``+ 0 * ...`` update), and their
    weights (C,), 0 elsewhere."""
    has = np.array([M.row(cell.spec.method).consistency is not None for cell in cells])
    return has, np.where(has, [cell.spec.lambda_n2r for cell in cells], 0.0)


def _train_stack(cells: list[Cell], validate_every: int) -> list[list[dict]]:
    """Train one stack in lockstep, its cells in plan order."""
    cons, lambda_n2r = _consistency_cells(cells)
    est = cells[0].est
    spec = cells[0].spec
    theta = None  # a stack of one steps est.theta, which may grow
    if len(cells) > 1:
        theta = np.empty((len(cells), est.theta.shape[0]))
        for c, cell in enumerate(cells):
            theta[c] = cell.est.theta
            cell.est.theta = theta[c]
    state = AdamState.from_spec(spec)
    n = len(cells[0].data)
    histories = [[] for _ in cells]
    for epoch in range(spec.epochs):
        rows = _stack_epoch(cells, epoch, cons.any())
        if theta is None:
            # Only a stack of one can grow its parameters. Its patterns enroll
            # in step order before the epoch's first step; a block not yet
            # stepped has a zero gradient, which leaves it and its Adam
            # moments exactly zero, as if it enrolled at its own step.
            _enroll(est, rows)
        steps = [Rows(*(None if a is None else a[s] for a in rows)) for s in range(n)]
        params = est.theta[None] if theta is None else theta
        totals = np.zeros(len(cells))
        for start in range(0, n, spec.batch_size):
            batch = range(start, min(start + spec.batch_size, n))
            # the previous step's gradient goes before the next is built
            grad = pieces = None
            for s in batch:
                loss, pieces = stack_loss_and_grad(est, params, steps[s], cons, lambda_n2r)
                if not np.isfinite(loss).all():
                    bad = cells[int(np.argmin(np.isfinite(loss)))]
                    raise TrainingDiverged(
                        f"method {bad.spec.method!r} at sigma_n "
                        f"{bad.model.noise.sigma_n:g}, epoch {epoch}, step "
                        f"{start // spec.batch_size}: the training loss is not finite")
                totals += loss
                if len(batch) > 1:  # a batch sums its items' gradients
                    if grad is None:
                        grad = gather_pieces(pieces, params.shape)
                    else:  # in place: the float operation of grad + g, piece by piece
                        for span, g in pieces:
                            np.add(grad[:, span], formed(g), out=grad[:, span])
                    pieces = g = None  # grad alone holds the sum
            # one item's pieces are consumed as its pullback hands them over
            adam_step(state, params, pieces if grad is None else grad)
        del rows, steps, grad, pieces  # before the next epoch's are built
        for cell, history, total in zip(cells, histories, totals):
            row = {"epoch": epoch, "train_loss": float(total) / n}
            if validate_every and epoch % validate_every == 0 and cell.data.y0 is not None:
                row["val_nmse"] = _validation_nmse(cell)
            history.append(row)
    return histories


def _run_stack(stack: list[tuple[int, Cell]], validate_every: int):
    """Train a stack of (position, cell); the positions, histories and seconds."""
    t0 = time.perf_counter()
    if len({id(cell.est) for _, cell in stack}) != len(stack):
        raise ConfigError("each cell needs its own estimator")
    for _, cell in stack:
        spec, model = cell.spec, cell.model
        if (M.row(spec.method).weight in (M.WEIGHT_NOISIER2FULL, M.WEIGHT_ROBUST_SSDU)
                and spec.alpha != model.noise.alpha):
            raise ConfigError(f"method {spec.method!r} weights its loss at alpha {spec.alpha:g} "
                              f"but draws its further noise at alpha {model.noise.alpha:g}")
    histories = _train_stack([cell for _, cell in stack], validate_every)
    return [position for position, _ in stack], histories, time.perf_counter() - t0


def train_cells(cells: Iterable[Cell], validate_every: int = 1
                ) -> Iterator[tuple[list[int], list[list[dict]], float]]:
    """Run the epoch loop for every cell, stack by stack.

    Consecutive cells with the same ``_stack_key`` form a stack; a cell
    without one trains alone. Cells are drawn from ``cells`` only as their
    stack forms, and each stack is trained and let go before the next cell
    is drawn past it, so a caller that builds cells lazily and releases
    them once trained holds one stack at a time. Yields, per stack, the
    positions of its cells in ``cells``, their histories and the stack's
    training time in seconds.

    Per epoch and cell: each item's second-level mask and further noise are
    redrawn from named substreams (only where the method reads them), the
    item order is reshuffled, and one Adam step is taken per batch
    (per-item losses are summed within a batch). A history records the mean
    per-item train loss and, when the dataset holds the ground truth, the
    validation NMSE of the practical-mode reconstruction every
    ``validate_every`` epochs (never when it is 0). The estimators'
    parameters are updated in place; after a stack of several cells, each
    estimator's ``theta`` is its row of the stack's parameter array.

    Everything is a deterministic function of each cell's seed. A non-finite
    training loss raises ``TrainingDiverged``.
    """
    if validate_every < 0:
        raise ConfigError("validate_every must be >= 0")
    stack, key, position = [], None, -1
    for cell in cells:  # not enumerate: its reused tuple would hold the last cell
        position += 1
        cell_key = _stack_key(cell)
        if stack and cell_key != key:
            trained, stack = _run_stack(stack, validate_every), []
            yield trained
        stack.append((position, cell))
        key = cell_key
        del cell  # the stack is the only holder once the next cell is drawn
        if key is None:
            trained, stack = _run_stack(stack, validate_every), []
            yield trained
    if stack:
        yield _run_stack(stack, validate_every)


def train(spec: TrainSpec, est: Estimator, dataset: Dataset, model: MeasurementModel,
          validate_every: int = 1) -> tuple[Estimator, list[dict]]:
    """Train one cell (see ``train_cells``); returns the estimator and its history."""
    [(_, [history], _)] = train_cells([Cell(spec, est, dataset, model)], validate_every)
    return est, history
