"""Named substreams: derivation is stable across versions, and the
vectorized fan-out ``streams`` draws what ``stream`` draws, item by item."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kslab.rng import stream, streams


@pytest.mark.parametrize("path,expected", [
    ((0, "epoch", 0, "item", 0), [0.5213475343618985, 0.9699995523323364, 0.40819227159086535]),
    ((5, "epoch", 2, "item", 17), [0.6047659858053509, 0.6238621542452951, 0.9858165891006255]),
    ((2 ** 40 + 3, "epoch", 149, "item", 255),
     [0.3379266483861726, 0.4872162386642559, 0.7384636157988163]),
    ((2 ** 64 + 5, "x", -1, np.int64(3), "émoji"), [0.1079246757977892, 0.06784921468623184]),
])
def test_stream_draws_are_pinned(path, expected):
    """Draws recorded with the original derivation (SHA-256 of each string,
    the integer key passed to SeedSequence as a tuple); repeated calls, which
    hit the string cache, give them again."""
    for _ in range(2):
        assert stream(*path).random(len(expected)).tolist() == expected


def test_stream_rejects_other_path_types():
    with pytest.raises(TypeError):
        stream(0, 1.5)


def _draws(gen):
    return (gen.standard_normal(3).tolist(), gen.random(2).tolist(),
            gen.permutation(6).tolist())


_seeds = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]),
                   st.integers(0, 2 ** 64 - 1))
_paths = st.lists(st.one_of(st.text(max_size=6), st.integers(-2 ** 63, 2 ** 64 - 1)),
                  max_size=5)


@settings(max_examples=60, deadline=None)
@given(seed=_seeds, path=_paths, count=st.integers(0, 5))
@example(seed=0, path=[], count=0)
@example(seed=2 ** 32 - 1, path=[], count=1)  # one seed word: the pool is zero-filled
@example(seed=2 ** 32, path=["epoch"], count=3)
@example(seed=2 ** 64 - 1, path=[3, "item"], count=2)
@example(seed=5, path=["epoch", 2 ** 40, "item", -1, "x"], count=2)
def test_streams_equal_stream_item_by_item(seed, path, count):
    """Seeds of one and two words, paths shorter and longer than the 4-word
    pool, string and integer elements, count 0 and 1 included."""
    fanned = [_draws(gen) for gen in streams(seed, *path, count=count)]
    assert fanned == [_draws(stream(seed, *path, i)) for i in range(count)]


def test_streams_long_fanout():
    """Item indices past one byte, as an epoch of 256 items reaches."""
    gens = streams(5, "epoch", 2, "item", count=300)
    assert [g.random() for g in gens] == [stream(5, "epoch", 2, "item", i).random()
                                          for i in range(300)]


@pytest.mark.parametrize("count", [-1, (1 << 32) + 1])
def test_streams_rejects_a_count_outside_its_range(count):
    """The bound is checked when the first substream is asked for, before
    any is keyed."""
    with pytest.raises(ValueError) as info:
        next(streams(0, "x", count=count))
    assert str(info.value) == f"count must be in [0, 2^32], got {count}"
