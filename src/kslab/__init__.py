"""Desk-scale lab for self-supervised k-space reconstruction and denoising.

Implements the training-method zoo (supervised baselines, further-noise and
further-sub-sampling self-supervision with alpha-based inference
corrections, and their loss-weighted variants) on synthetic Gaussian
measurement models where every quantity the methods claim to recover is
analytically or exhaustively computable, plus the oracle suite that
verifies those claims.
"""

__version__ = "0.1.0"

from . import methods
from .errors import ConfigError, DimensionError, ValidationError
from .kspace import (
    SamplingMask,
    apply_mask,
    as_kspace,
    dft_unitary,
    empty_mask,
    full_mask,
    magnitude_image,
    mask_algebra,
)
from .noise import NoiseSpec, add_complex_noise, whiten
from .sampling import MaskDistribution, build_density, compute_P, compute_k, draw_mask
from .synthetic import MeasurementModel, gaussian_ground_truth, model_preset, phantom_ground_truth
from .estimators import (
    AffinePerPattern,
    TinyNet,
    ToyCascade,
    closed_form_affine_fit,
    jacobian_rank_check,
    load_checkpoint,
    make_estimator,
)
from .training import (
    AdamState,
    TrainItem,
    TrainSpec,
    adam_step,
    build_dataset,
    loss_and_grad,
    train,
    weight_noisier2full,
    weight_robust_ssdu,
)
from .inference import (
    MODE_PRACTICAL,
    MODE_THEORY,
    correct,
    reconstruct,
)
from .metrics import nmse, ssim
from .rng import stream
