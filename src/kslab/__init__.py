"""Desk-scale lab for self-supervised k-space reconstruction and denoising.

Implements the training-method zoo (supervised baselines, further-noise and
further-sub-sampling self-supervision with alpha-based inference
corrections, and their loss-weighted variants) on synthetic Gaussian
measurement models where every quantity the methods claim to recover is
analytically or exhaustively computable, plus the oracle suite that
verifies those claims.
"""

__version__ = "0.1.0"

# The names callers read as ``kslab.<name>``; every other name is imported
# from its module.
from .estimators import AffinePerPattern, make_estimator
from .synthetic import model_preset
