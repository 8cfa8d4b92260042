"""Reconstruction quality metrics: k-space NMSE and mean local SSIM.

NMSE is computed in k-space per item; test-set scores are the mean of the
per-item values. SSIM uses a uniform sliding window (length 7 in 1-D, 7x7
in 2-D), K1 = 0.01, K2 = 0.03, and dynamic range equal to the maximum over
both images, which keeps the score symmetric in its arguments.
``nmse_rows`` and ``ssim_rows`` score a stack of items at once, each row to
the bit of its one-row case ``nmse`` or ``ssim``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, ValidationError
from .kspace import as_kspace, as_kspace_rows

SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def nmse_rows(estimate, reference) -> np.ndarray:
    """Row-wise || estimate - reference ||^2 / || reference ||^2 of two (n, q) stacks."""
    est = as_kspace_rows(estimate)
    ref = as_kspace_rows(reference)
    if est.shape != ref.shape:
        raise DimensionError(f"shape mismatch: {est.shape} vs {ref.shape}")
    denom = np.sum(np.abs(ref) ** 2, axis=-1)
    if np.any(denom == 0.0):
        raise ValidationError("reference vector has zero norm")
    return np.sum(np.abs(est - ref) ** 2, axis=-1) / denom


def nmse(estimate, reference) -> float:
    """|| estimate - reference ||^2 / || reference ||^2; the one-row case of ``nmse_rows``."""
    est = as_kspace(estimate)
    ref = as_kspace(reference)
    if est.shape != ref.shape:
        raise DimensionError(f"length mismatch: {est.shape[0]} vs {ref.shape[0]}")
    return float(nmse_rows(est[None], ref[None])[0])


def _windows(imgs: np.ndarray, w: int) -> np.ndarray:
    """All fully interior sliding windows of each image in a stack, flattened
    per window and contiguous: (n, windows, w) in 1-D, (n, windows, w * w) in 2-D."""
    axes = tuple(range(1, imgs.ndim))
    view = sliding_window_view(imgs, (w,) * len(axes), axis=axes)
    n_windows = int(np.prod(view.shape[1:imgs.ndim]))
    return np.ascontiguousarray(view.reshape(imgs.shape[0], n_windows, w ** len(axes)))


def ssim_rows(a, b) -> np.ndarray:
    """Mean local structural similarity of each pair of nonnegative images.

    Accepts stacks (n, L) of 1-D signals or (n, nx, ny) of 2-D images of
    the same shape. For images smaller than the window, the window shrinks
    to the full extent. Each row's score is the bits ``ssim`` gives it alone.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise DimensionError("ssim_rows expects a stack of 1-D or 2-D real arrays")
    if np.any(a < 0) or np.any(b < 0):
        raise ValidationError("ssim expects nonnegative magnitude images")
    w = min(SSIM_WINDOW, min(a.shape[1:]))
    axes = tuple(range(1, a.ndim))
    dyn = np.maximum(a.max(axis=axes), b.max(axis=axes))
    out = np.ones(a.shape[0])  # rows where both images are identically zero
    live = dyn != 0.0
    # the constants as Python floats: their ** is C pow(), which differs from
    # NumPy's square in about 1 of 1000 values
    dyn_live = dyn[live].tolist()
    c1 = np.array([(SSIM_K1 * d) ** 2 for d in dyn_live])[:, None]
    c2 = np.array([(SSIM_K2 * d) ** 2 for d in dyn_live])[:, None]
    wa = _windows(a[live], w)
    wb = _windows(b[live], w)
    mu_a = wa.mean(axis=-1)
    mu_b = wb.mean(axis=-1)
    var_a = wa.var(axis=-1)
    var_b = wb.var(axis=-1)
    cov = ((wa - mu_a[..., None]) * (wb - mu_b[..., None])).mean(axis=-1)
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    out[live] = score.mean(axis=-1)
    return out


def ssim(a, b) -> float:
    """Mean local structural similarity between two nonnegative images.

    Accepts 1-D signals or 2-D images of the same shape; the one-row case
    of ``ssim_rows``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim not in (1, 2):
        raise DimensionError("ssim expects a 1-D or 2-D real array")
    return float(ssim_rows(a[None], b[None])[0])


def mean_and_se(values) -> tuple[float, float]:
    """Sample mean and standard error of a sequence of scores."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("no values to aggregate")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))
