import random

import numpy as np
import pytest

from vps.seeds import child_seeds, derive_seed, first_uniforms

EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5, 2**200, 5_000_000_000]


def seeds_of_every_width(n, rng):
    """Edge seeds, then seeds of 1 to 7 32-bit words."""
    return EDGES + [rng.getrandbits(rng.choice([8, 32, 33, 64, 65, 96, 128, 160, 200])) for _ in range(n)]


class TestNumpyBits:
    """The batch functions give every row the bits of numpy's own call."""

    def test_child_seeds(self):
        rng = random.Random(0)
        seeds = seeds_of_every_width(2500, rng)
        indices = [rng.choice([0, 1, 7, 2**32 - 1, 2**32, 2**40, 2**140, rng.getrandbits(32)]) for _ in seeds]
        indices[:len(EDGES)] = EDGES[::-1]
        assert child_seeds(seeds, indices) == [derive_seed(s, i) for s, i in zip(seeds, indices)]

    def test_first_uniforms(self):
        seeds = seeds_of_every_width(2500, random.Random(1))
        assert first_uniforms(seeds) == [np.random.default_rng(s).random() for s in seeds]

    @pytest.mark.parametrize("seed", EDGES)
    def test_one_row(self, seed):
        assert child_seeds([seed], [3]) == [derive_seed(seed, 3)]
        assert first_uniforms([seed]) == [np.random.default_rng(seed).random()]

    def test_no_rows(self):
        assert child_seeds([], []) == []
        assert first_uniforms([]) == []


class TestRefusals:
    @pytest.mark.parametrize("bad", [None, -1, -2**40])
    def test_a_seed_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError, match="non-negative integer"):
            first_uniforms([3, bad])
        with pytest.raises(ValueError, match="non-negative integer"):
            child_seeds([3, bad], [0, 1])
        with pytest.raises(ValueError, match="non-negative integer"):
            child_seeds([3, 4], [0, bad])

    def test_one_index_per_seed(self):
        with pytest.raises(ValueError, match="2 seeds for 3 indices"):
            child_seeds([1, 2], [0, 1, 2])
