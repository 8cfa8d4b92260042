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

``streams`` fans one path out over the item indices ``0 .. count - 1``: it
computes every item's Philox key at once with a vectorized port of
``SeedSequence``'s hash and re-keys a single reused generator, so an epoch
of item streams costs a few microseconds per item instead of a
``SeedSequence`` and a ``Philox`` construction each.
"""

import hashlib
from collections.abc import Iterator
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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


class _Hash:
    """SeedSequence's running hash constant. Values are Python ints or uint64
    arrays of uint32 words; every product is reduced mod 2^32, and a product
    of two words fits in 64 bits."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _philox_keys(entropy: list, count: int) -> np.ndarray:
    """Philox keys (count, 2) that ``SeedSequence(entropy).generate_state(2, uint64)``
    gives, for entropy words that are ints or (count,) uint64 arrays."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    out = _Hash(_INIT_B, _MULT_B)
    state = [out(word) for word in pool]  # generate_state: 4 uint32 words, cycling the pool
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << 32)
    keys[:, 1] = state[2] | (state[3] << 32)
    return keys


def streams(master_seed: int, *path, count: int) -> Iterator[np.random.Generator]:
    """The substreams ``stream(master_seed, *path, i)`` for ``i in range(count)``, in order.

    Each yielded generator draws exactly what the corresponding ``stream``
    call would. One generator is re-keyed for every item, so each is valid
    only until the next one is drawn: consume an item's draws before
    advancing, and never keep a yielded generator.
    """
    if not 0 <= count <= 1 << 32:
        raise ValueError(f"count must be in [0, 2^32], got {count}")
    prefix = _words(int(master_seed) & _MASK64)
    for part in path:
        prefix.extend(_path_words(part))
    # indices below 2^32 are one entropy word each
    keys = _philox_keys([*prefix, np.arange(count, dtype=np.uint64)], count)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # the state setter reads the words one by one: from Python ints it takes
    # about half the time it takes from uint64 arrays
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys.tolist():
        state["state"]["key"] = key
        bitgen.state = state
        yield gen
