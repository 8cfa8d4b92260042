"""Reproducible random streams.

All randomness in the package flows through `stream`, which derives an
independent counter-based Philox generator from a 64-bit master seed and a
named path such as ``("item", 3, "omega")`` or ``("epoch", 12, "shuffle")``.
Any component of an experiment can therefore be re-drawn in isolation, and
concurrent consumers of disjoint streams are reproducible regardless of
execution order.

String path elements are hashed with SHA-256 (Python's builtin ``hash`` is
salted per process and must not be used here). The key (seed, *path) goes
to ``SeedSequence`` as the uint32 words it would itself make of each
integer, least significant first; the words of recently used strings, such
as ``"epoch"`` and ``"item"``, are cached.
"""

import hashlib
from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative integer, least significant first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


@lru_cache(maxsize=256)
def _string_words(part: str) -> tuple[int, ...]:
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return tuple(_words(int.from_bytes(digest[:8], "little")))


def _path_words(part):
    if isinstance(part, (int, np.integer)):
        return _words(int(part) & _MASK64)
    if isinstance(part, str):
        return _string_words(part)
    raise TypeError(f"stream path elements must be int or str, got {type(part)!r}")


def stream(master_seed: int, *path) -> np.random.Generator:
    """Derive a named substream of the master seed.

    Parameters
    ----------
    master_seed : int
        64-bit master seed of the experiment.
    *path : int or str
        Substream name, e.g. ``stream(seed, "item", 3, "noise")``.

    Returns
    -------
    numpy.random.Generator backed by the counter-based Philox bit generator.
    """
    words = _words(int(master_seed) & _MASK64)
    for part in path:
        words.extend(_path_words(part))
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
