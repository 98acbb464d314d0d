import math
import random

import numpy as np
import pytest

from vps.seeds import child_seeds, first_uniforms

EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5, 2**200, 5_000_000_000]
M64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def mix(z):
    """SplitMix64's finaliser on one Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def fold(n):
    """``n`` as one 64-bit word: its 64-bit words folded from the lowest up."""
    h = n & M64
    while n := n >> 64:
        h = mix((h + GAMMA) & M64) ^ (n & M64)
    return h


def reference_child(seed, index):
    return mix(mix((fold(seed) + GAMMA) & M64) ^ (((fold(index) + 1) * GAMMA) & M64))


def reference_uniform(seed):
    return (mix((fold(seed) + GAMMA) & M64) >> 11) * 2.0**-53


def seeds_of_every_width(n, rng):
    """Edge seeds, then seeds of 1 to 7 32-bit words."""
    return EDGES + [rng.getrandbits(rng.choice([8, 32, 33, 64, 65, 96, 128, 160, 200])) for _ in range(n)]


class TestNumpyBits:
    """The numpy ``uint64`` path gives every row the bits of the Python-int
    SplitMix64 written out above."""

    def test_child_seeds(self):
        rng = random.Random(0)
        seeds = seeds_of_every_width(2500, rng)
        indices = [rng.choice([0, 1, 7, 2**32 - 1, 2**32, 2**40, 2**140, rng.getrandbits(32)]) for _ in seeds]
        indices[:len(EDGES)] = EDGES[::-1]
        assert child_seeds(seeds, indices) == [reference_child(s, i) for s, i in zip(seeds, indices)]

    def test_first_uniforms(self):
        seeds = seeds_of_every_width(2500, random.Random(1))
        assert first_uniforms(seeds) == [reference_uniform(s) for s in seeds]

    @pytest.mark.parametrize("seed", EDGES)
    def test_one_row(self, seed):
        assert child_seeds([seed], [3]) == [reference_child(seed, 3)]
        assert first_uniforms([seed]) == [reference_uniform(seed)]

    def test_no_rows(self):
        assert child_seeds([], []) == []
        assert first_uniforms([]) == []

    def test_the_reference_is_splitmix64(self):
        # the first three outputs of SplitMix64 seeded with 0 are mix(γ), mix(2γ), mix(3γ)
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [mix(k * GAMMA & M64) for k in (1, 2, 3)] == published
        assert first_uniforms([0, GAMMA, 2 * GAMMA & M64]) == [(z >> 11) * 2.0**-53 for z in published]

    def test_a_wide_seed_is_not_its_low_word(self):
        assert first_uniforms([2**64 + 5]) != first_uniforms([5])
        assert child_seeds([2**64 + 5, 5], [2**64, 0]) != child_seeds([5, 5], [0, 0])


def chi2_999(dof):
    """The 99.9 % point of χ² with ``dof`` degrees of freedom (Wilson–Hilferty)."""
    c = 2 / (9 * dof)
    return dof * (1 - c + 3.090232 * math.sqrt(c)) ** 3


class TestStatistics:
    """Uniforms of consecutive seeds, and of a (seed, step) grid of child
    seeds, look independent and uniform over 10⁶ rows."""

    N, BINS = 10**6, 1000

    def assert_uniform(self, u):
        u = np.asarray(u)
        assert len(u) == self.N and u.min() >= 0.0 and u.max() < 1.0
        counts = np.bincount((u * self.BINS).astype(np.int64), minlength=self.BINS)
        expected = self.N / self.BINS
        assert ((counts - expected) ** 2 / expected).sum() < chi2_999(self.BINS - 1)
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 3 / math.sqrt(self.N)

    def test_sequential_seeds(self):
        self.assert_uniform(first_uniforms(range(self.N)))

    def test_a_grid_of_child_seeds(self):
        seeds, steps = np.divmod(np.arange(self.N), 1000)
        self.assert_uniform(first_uniforms(child_seeds(seeds.tolist(), steps.tolist())))

    def test_the_children_of_one_seed_are_distinct(self):
        assert len(set(child_seeds([7] * self.N, range(self.N)))) == self.N


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
