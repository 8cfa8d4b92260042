"""Complex k-space vectors, sampling masks, and the unitary DFT.

A k-space vector is a plain 1-D ``numpy`` array of ``complex128`` of fixed
length ``q``. Masks are value types carrying both the sampled index set and
the per-index inclusion probabilities, so that downstream loss weightings
need no side channel.

The DFT is a direct O(q^2) matrix application; at desk scale (q <= 64) an
FFT buys nothing and the dense unitary matrix keeps the adjoint/inverse
relationship explicit.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError


def as_kspace(v, q: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D complex128 vector, optionally of length q."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    if q is not None and arr.shape[0] != q:
        raise DimensionError(f"expected length {q}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("k-space vector contains NaN or Inf")
    return arr


def as_kspace_rows(v, q: int | None = None) -> np.ndarray:
    """Coerce to a finite (n, q) stack of complex128 vectors, optionally of length q."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"expected a stack of vectors (n, q), got shape {arr.shape}")
    if q is not None and arr.shape[1] != q:
        raise DimensionError(f"expected length {q}, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("k-space vector contains NaN or Inf")
    return arr


def kspace_to_json(v) -> list:
    """Serialize a complex vector as a list of [re, im] pairs."""
    arr = as_kspace(v)
    return [[float(z.real), float(z.imag)] for z in arr]


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """A sampled index set with its inclusion-probability vector.

    ``member[j]`` is True when index j is in the set; ``probs[j]`` is the
    probability P[j in set] under the distribution the mask was drawn from.
    Applying a mask is idempotent by construction (diagonal 0/1 matrix).
    """

    member: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        member = np.asarray(self.member, dtype=bool)
        probs = np.asarray(self.probs, dtype=np.float64)
        if member.ndim != 1 or probs.ndim != 1:
            raise DimensionError("mask member and probs must be 1-D")
        if member.shape != probs.shape:
            raise DimensionError(
                f"mask member/probs length mismatch: {member.shape[0]} vs {probs.shape[0]}"
            )
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValidationError("mask probabilities must lie in [0, 1]")
        member.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "probs", probs)

    @property
    def q(self) -> int:
        return self.member.shape[0]

    @property
    def indices(self) -> tuple:
        return tuple(int(j) for j in np.nonzero(self.member)[0])

    def to_json(self) -> dict:
        return {"indices": list(self.indices), "probs": [float(p) for p in self.probs]}

    @staticmethod
    def from_indices(q: int, indices, probs) -> "SamplingMask":
        member = np.zeros(q, dtype=bool)
        member[np.asarray(list(indices), dtype=int)] = True
        return SamplingMask(member, np.asarray(probs, dtype=np.float64))


def full_mask(q: int) -> SamplingMask:
    return SamplingMask(np.ones(q, dtype=bool), np.ones(q))


def apply_mask(mask: SamplingMask, v) -> np.ndarray:
    """M v: keep entries in the mask, zero the rest."""
    arr = as_kspace(v)
    if arr.shape[0] != mask.q:
        raise DimensionError(f"mask length {mask.q} != vector length {arr.shape[0]}")
    return np.where(mask.member, arr, 0.0 + 0.0j)


class MaskAlgebra(NamedTuple):
    intersect: SamplingMask            # Lambda ∩ Omega
    omega_minus_lambda: SamplingMask   # Omega \ Lambda


def mask_algebra(omega: SamplingMask, lam: SamplingMask) -> MaskAlgebra:
    """Set algebra of the two sampling levels.

    Probability vectors of the derived masks assume the two masks are drawn
    independently (intersect prob p * ptilde, and so on).
    """
    if omega.q != lam.q:
        raise DimensionError(f"mask length mismatch: {omega.q} vs {lam.q}")
    p, pt = omega.probs, lam.probs
    return MaskAlgebra(SamplingMask(omega.member & lam.member, p * pt),
                       SamplingMask(omega.member & ~lam.member, p * (1.0 - pt)))


@lru_cache(maxsize=16)
def dft_matrix(q: int) -> np.ndarray:
    jk = np.outer(np.arange(q), np.arange(q))
    return np.exp(-2j * np.pi * jk / q) / np.sqrt(q)


def magnitude_image(k, shape=None) -> np.ndarray:
    """Entrywise modulus of the inverse unitary DFT, of one vector (q,) or a stack (n, q).

    Single-coil specialization: the root-sum-of-squares estimate reduces to
    the modulus of the inverse transform. For the flattened 2-D mode pass
    ``shape=(nx, ny)``; each image then has that shape. A stack is
    transformed by stacked matrix products, one BLAS call per row, so a row
    gets the bits it gets alone.
    """
    arr = np.asarray(k, dtype=np.complex128)
    rows = as_kspace_rows(arr if arr.ndim != 1 else arr[None])
    q = rows.shape[1]
    if shape is None:
        img = np.matmul(np.conj(dft_matrix(q)), rows[..., None])[..., 0]
    else:
        nx, ny = shape
        if nx * ny != q:
            raise DimensionError(f"shape {shape} does not flatten to length {q}")
        grid = rows.reshape(-1, nx, ny)
        img = np.matmul(np.matmul(np.conj(dft_matrix(nx)), grid), np.conj(dft_matrix(ny)).T)
    return np.abs(img if arr.ndim != 1 else img[0])
