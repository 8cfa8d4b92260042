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


def kspace_to_json(v) -> list:
    """Serialize a complex vector as a list of [re, im] pairs."""
    arr = as_kspace(v)
    return [[float(z.real), float(z.imag)] for z in arr]


def kspace_from_json(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("expected a list of [re, im] pairs")
    return as_kspace(arr[:, 0] + 1j * arr[:, 1])


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

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.member))

    def key(self) -> bytes:
        """Hashable identifier of the support pattern (not the probs)."""
        return self.member.tobytes()

    def to_json(self) -> dict:
        return {"indices": list(self.indices), "probs": [float(p) for p in self.probs]}

    @staticmethod
    def from_json(obj: dict) -> "SamplingMask":
        probs = np.asarray(obj["probs"], dtype=np.float64)
        member = np.zeros(probs.shape[0], dtype=bool)
        member[np.asarray(obj["indices"], dtype=int)] = True
        return SamplingMask(member, probs)

    @staticmethod
    def from_indices(q: int, indices, probs) -> "SamplingMask":
        member = np.zeros(q, dtype=bool)
        member[np.asarray(list(indices), dtype=int)] = True
        return SamplingMask(member, np.asarray(probs, dtype=np.float64))


def _mask_unchecked(member: np.ndarray, probs: np.ndarray) -> SamplingMask:
    """Constructor bypassing validation for internally produced masks."""
    member.setflags(write=False)
    probs.setflags(write=False)
    mask = object.__new__(SamplingMask)
    object.__setattr__(mask, "member", member)
    object.__setattr__(mask, "probs", probs)
    return mask


def full_mask(q: int) -> SamplingMask:
    return SamplingMask(np.ones(q, dtype=bool), np.ones(q))


def empty_mask(q: int) -> SamplingMask:
    return SamplingMask(np.zeros(q, dtype=bool), np.zeros(q))


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
    both = omega.member & lam.member
    inter = _mask_unchecked(both, p * pt)
    minus = _mask_unchecked(omega.member & ~lam.member, p * (1.0 - pt))
    return MaskAlgebra(inter, minus)


@lru_cache(maxsize=16)
def _dft_matrix(q: int) -> np.ndarray:
    jk = np.outer(np.arange(q), np.arange(q))
    return np.exp(-2j * np.pi * jk / q) / np.sqrt(q)


def dft_unitary(v, inverse: bool = False) -> np.ndarray:
    """Unitary DFT (or its inverse) of a length-q complex vector."""
    arr = as_kspace(v)
    f = _dft_matrix(arr.shape[0])
    if inverse:
        return np.conj(f) @ arr
    return f @ arr


def _idft_2d(k: np.ndarray, shape) -> np.ndarray:
    nx, ny = shape
    grid = k.reshape(nx, ny)
    fx = np.conj(_dft_matrix(nx))
    fy = np.conj(_dft_matrix(ny))
    return fx @ grid @ fy.T


def magnitude_image(k, shape=None) -> np.ndarray:
    """Entrywise modulus of the inverse unitary DFT.

    Single-coil specialization: the root-sum-of-squares estimate reduces to
    the modulus of the inverse transform. For the flattened 2-D mode pass
    ``shape=(nx, ny)``; the result then has that shape.
    """
    arr = as_kspace(k)
    if shape is None:
        return np.abs(dft_unitary(arr, inverse=True))
    nx, ny = shape
    if nx * ny != arr.shape[0]:
        raise DimensionError(f"shape {shape} does not flatten to length {arr.shape[0]}")
    return np.abs(_idft_2d(arr, (nx, ny)))
