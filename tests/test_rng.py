"""Named substreams: derivation is stable across versions."""

import numpy as np
import pytest

from kslab.rng import stream


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
