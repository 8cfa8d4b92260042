"""Training losses, loss weightings, the Adam optimizer, and the epoch loop.

Each method's loss is the squared l2 norm of a (possibly weighted) complex
residual, summed over entries: ``sum_j W_jj^2 |f_j - t_j|^2``, with the
input, target and weight read from the method table. Weights multiply the
residual before squaring. Gradients are exact, from the estimator's pullback.

The epoch loop follows the simulation protocol: the first-level mask and
measurement noise of each item are fixed once, while the second-level mask
and the further noise are regenerated once per epoch.
"""

from dataclasses import dataclass, field

import numpy as np

from . import methods as M
from .errors import ConfigError, DimensionError, ValidationError
from .estimators import Estimator
from .kspace import SamplingMask, apply_mask, as_kspace, mask_algebra
from .noise import complex_gaussian
from .rng import stream
from .sampling import compute_P
from .synthetic import MeasurementModel, gaussian_ground_truth


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
        if self.method not in M.ALL_METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lambda_n2r < 0:
            raise ConfigError("lambda_n2r must be >= 0")


@dataclass
class TrainItem:
    """One training example: fixed acquisition, per-epoch second-level draws.

    y = M_Omega (y0 + n) by construction. y0 is held only where a method or
    the evaluation needs it; noise holds the measurement-noise draw n so the
    fully sampled noisy target y0 + n can be formed for the methods that
    train on it. lam and ntilde are regenerated once per epoch.
    """

    y: np.ndarray
    omega: SamplingMask
    y0: np.ndarray | None = None
    noise: np.ndarray | None = None
    lam: SamplingMask | None = None
    ntilde: np.ndarray | None = None


def make_train_item(model: MeasurementModel, rng: np.random.Generator,
                    keep_ground_truth: bool = True) -> TrainItem:
    """Simulate one acquisition from the measurement model."""
    y0 = gaussian_ground_truth(model, rng)
    n = complex_gaussian(model.q, model.noise.sigma_n, rng)
    omega = model.omega_dist.draw(rng)
    y = apply_mask(omega, y0 + n)
    return TrainItem(y=y, omega=omega,
                     y0=y0 if keep_ground_truth else None,
                     noise=n if keep_ground_truth else None)


def build_dataset(model: MeasurementModel, n_items: int, seed: int,
                  label: str = "train") -> list[TrainItem]:
    return [make_train_item(model, stream(seed, label, i)) for i in range(n_items)]


def weight_noisier2full(omega: SamplingMask, alpha: float) -> np.ndarray:
    """Diagonal W_Omega = ((1 + a^2) / a^2) M_Omega + M_Omega^c."""
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero for the noisier2full weighting")
    w = np.ones(omega.q)
    w[omega.member] = (1.0 + alpha ** 2) / alpha ** 2
    return w


def weight_robust_ssdu(omega: SamplingMask, lam: SamplingMask, alpha: float,
                       P: np.ndarray) -> np.ndarray:
    """Diagonal W = ((1 + a^2) / a^2) M_{Lambda ∩ Omega} + P^(1/2) M_{Omega \\ Lambda}.

    Zero off Omega, where the loss is masked anyway.
    """
    if alpha == 0.0:
        raise ValidationError("alpha must be nonzero for the robust-ssdu weighting")
    if omega.q != lam.q:
        raise DimensionError("mask length mismatch")
    P = np.asarray(P, dtype=np.float64)
    alg = mask_algebra(omega, lam)
    w = np.zeros(omega.q)
    w[alg.intersect.member] = (1.0 + alpha ** 2) / alpha ** 2
    off = alg.omega_minus_lambda.member
    w[off] = np.sqrt(P[off])
    return w


def loss_weight(method: M.Method, omega: SamplingMask, lam: SamplingMask | None,
                alpha: float) -> np.ndarray:
    """Diagonal of the method's loss weight W for one item."""
    if method.weight == M.WEIGHT_ONE:
        return np.ones(omega.q)
    if method.weight == M.WEIGHT_NOISIER2FULL:
        return weight_noisier2full(omega, alpha)
    if method.weight == M.WEIGHT_ROBUST_SSDU:
        return weight_robust_ssdu(omega, lam, alpha, compute_P(omega.probs, lam.probs))
    if method.weight == M.WEIGHT_HELD_OUT:
        return (omega.member & ~lam.member).astype(np.float64)
    return omega.member.astype(np.float64)  # WEIGHT_OMEGA


def _require(item: TrainItem, attr: str, method: str):
    value = getattr(item, attr)
    if value is None:
        raise ConfigError(f"method {method!r} requires item field {attr!r}")
    return value


def regenerate_second_level(item: TrainItem, model: MeasurementModel,
                            rng: np.random.Generator) -> TrainItem:
    """Fresh second-level mask and further-noise draw for one item."""
    item.lam = model.lambda_dist.draw(rng)
    item.ntilde = complex_gaussian(model.q, model.noise.alpha * model.noise.sigma_n, rng)
    return item


def loss_and_grad(spec: TrainSpec, est: Estimator, item: TrainItem) -> tuple[float, np.ndarray]:
    """Per-item loss and exact parameter gradient for the selected method.

    The method's row gives the network input, the target t and the weight
    W; one forward pass f and its pullback give the loss
    ``sum_j W_jj^2 |f_j - t_j|^2`` and its gradient. Noise2Recon-SS adds
    ``lambda_n2r ||f_c - f||^2`` for the output f_c on its consistency input.
    """
    name = spec.method
    method = M.row(name)
    y = as_kspace(item.y)
    omega = item.omega
    lam = _require(item, "lam", name) if method.input.on_intersect else None
    ntilde = None
    if method.input.further_noise or method.consistency is not None:
        ntilde = as_kspace(_require(item, "ntilde", name))

    if method.target == M.TARGET_Y:
        target = y
    else:
        target = as_kspace(_require(item, "y0", name))
        if method.target == M.TARGET_Y0_PLUS_N:
            target = target + as_kspace(_require(item, "noise", name))
    w2 = loss_weight(method, omega, lam, spec.alpha) ** 2

    y_in, m_in = method.input.build_masked(y, omega, lam, ntilde)
    est.ensure_pattern(m_in)
    if method.consistency is not None:
        y_c, m_c = method.consistency.build_masked(y, omega, lam, ntilde)
        est.ensure_pattern(m_c)

    f, pullback = est.forward_vjp(y_in, m_in)
    r = f - target
    loss = np.sum(w2 * np.abs(r) ** 2)
    grad = 2.0 * pullback(w2 * r)
    if method.consistency is not None:
        f_c, pullback_c = est.forward_vjp(y_c, m_c)
        rc = f_c - f
        loss = loss + spec.lambda_n2r * np.sum(np.abs(rc) ** 2)
        grad += 2.0 * spec.lambda_n2r * pullback_c(rc)
        grad -= 2.0 * spec.lambda_n2r * pullback(rc)
    return float(loss), grad


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @staticmethod
    def from_spec(spec: TrainSpec) -> "AdamState":
        return AdamState(lr=spec.lr, beta1=spec.beta1, beta2=spec.beta2, eps=spec.eps)


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update; params are updated in place and returned.

    Moment vectors are zero-padded if the parameter vector has grown since
    the previous step (lazy pattern enrollment). The moments and params are
    updated in place through two scratch vectors, in the operation order of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + ((1 - b2) g) g`` and
    ``params -= (lr m_hat) / (sqrt(v_hat) + eps)``, so the result is the same
    to the bit as that out-of-place formula.
    """
    n = params.shape[0]
    if grad.shape[0] != n:
        raise DimensionError("gradient length does not match parameters")
    if state.m.shape[0] < n:
        pad = n - state.m.shape[0]
        state.m = np.concatenate([state.m, np.zeros(pad)])
        state.v = np.concatenate([state.v, np.zeros(pad)])
    state.t += 1
    m, v = state.m, state.v
    s1 = np.multiply(grad, 1.0 - state.beta1)
    m *= state.beta1
    m += s1
    np.multiply(grad, 1.0 - state.beta2, out=s1)
    s1 *= grad
    v *= state.beta2
    v += s1
    s2 = np.divide(v, 1.0 - state.beta2 ** state.t)
    np.sqrt(s2, out=s2)
    s2 += state.eps
    np.divide(m, 1.0 - state.beta1 ** state.t, out=s1)
    s1 *= state.lr
    s1 /= s2
    params -= s1
    return params


def train(spec: TrainSpec, est: Estimator, dataset: list[TrainItem],
          model: MeasurementModel, master_seed: int | None = None,
          validate_every: int = 1) -> tuple[Estimator, list[dict]]:
    """Run the epoch loop, mutating the estimator's parameters in place.

    Per epoch: each item's second-level mask and further noise are redrawn
    from named substreams, the item order is reshuffled, and one Adam step
    is taken per batch (per-item losses are summed within a batch). The
    history records the mean per-item train loss and, when ground truth is
    available, the validation NMSE of the practical-mode reconstruction
    every ``validate_every`` epochs (never when it is 0).

    Everything is a deterministic function of the seed.
    """
    from .inference import MODE_PRACTICAL, reconstruct
    from .metrics import nmse

    if not dataset:
        raise ConfigError("dataset must be nonempty")
    if validate_every < 0:
        raise ConfigError("validate_every must be >= 0")
    seed = spec.seed if master_seed is None else master_seed
    history = []
    state = AdamState.from_spec(spec)
    n = len(dataset)
    has_truth = all(item.y0 is not None for item in dataset)
    for epoch in range(spec.epochs):
        for i, item in enumerate(dataset):
            regenerate_second_level(item, model, stream(seed, "epoch", epoch, "item", i))
        order = stream(seed, "epoch", epoch, "shuffle").permutation(n)
        total = 0.0
        for start in range(0, n, spec.batch_size):
            batch = order[start:start + spec.batch_size]
            grad = None
            for idx in batch:
                loss, g = loss_and_grad(spec, est, dataset[idx])
                total += loss
                if grad is None:
                    grad = g
                elif grad.shape[0] != g.shape[0]:
                    # a later item enrolled a new pattern; earlier grads are
                    # zero on the new block
                    grown = np.zeros_like(g)
                    grown[:grad.shape[0]] = grad
                    grad = grown + g
                else:
                    grad = grad + g
            adam_step(state, est.theta, grad)
        row = {"epoch": epoch, "train_loss": total / n}
        if has_truth and validate_every and epoch % validate_every == 0:
            val = 0.0
            for i, item in enumerate(dataset):
                est_y = reconstruct(spec.method, est, item.y, item.omega, model.noise,
                                    model.lambda_dist, MODE_PRACTICAL,
                                    stream(seed, "epoch", epoch, "val", i))
                val += nmse(est_y, item.y0)
            row["val_nmse"] = val / n
        history.append(row)
    return est, history
