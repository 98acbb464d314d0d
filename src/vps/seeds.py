"""Seeds for a batch of rows in one array pass, by a counter-based hash.

``derive_seed(seed, index)``, numpy's ``SeedSequence([seed, index])``, seeds
a run's items and the toy episodes. A sampled token's seeds come from
SplitMix64's finaliser ``mix`` (Steele, Lea & Flood, OOPSLA 2014) on
``uint64`` columns, so one row and a stack take the same path: ``child_seeds``
is ``mix(mix(seed + γ) ^ (index + 1)·γ)`` and ``first_uniforms`` is
``(mix(seed + γ) >> 11)·2⁻⁵³``, in [0, 1). Arithmetic wraps modulo 2⁶⁴, with
γ = ``0x9E3779B97F4A7C15``; a seed or index wider than 64 bits is first
folded from its lowest 64-bit word up, ``h = mix(h + γ) ^ word``.
"""

import operator
from typing import Sequence

import numpy as np

__all__ = ["derive_seed", "child_seeds", "first_uniforms"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # 2⁶⁴ over the golden ratio, odd
_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """The ``index``-th child seed of ``seed``: stable across runs and
    platforms (independent of hash randomization)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser: an invertible scramble of every ``uint64``."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _column(values: Sequence[int]) -> np.ndarray:
    """Each non-negative integer as one ``uint64``, folded if it is wider."""
    for n in values:
        if n is None or n < 0:
            raise ValueError(f"a seed must be a non-negative integer, not {n!r}")
    rest = [operator.index(n) for n in values]
    out = np.array([n & _MASK64 for n in rest], dtype=np.uint64)
    while any(rest := [n >> 64 for n in rest]):
        wide = [k for k, n in enumerate(rest) if n]
        out[wide] = _mix(out[wide] + _GAMMA) ^ np.array([rest[k] & _MASK64 for k in wide], dtype=np.uint64)
    return out


def child_seeds(seeds: Sequence[int], indices: Sequence[int]) -> list[int]:
    """The ``indices[k]``-th child seed of ``seeds[k]`` for every row ``k``."""
    if len(seeds) != len(indices):
        raise ValueError(f"{len(seeds)} seeds for {len(indices)} indices")
    return _mix(_mix(_column(seeds) + _GAMMA) ^ (_column(indices) + np.uint64(1)) * _GAMMA).tolist()


def first_uniforms(seeds: Sequence[int]) -> list[float]:
    """A uniform float in [0, 1) for every row's seed."""
    return ((_mix(_column(seeds) + _GAMMA) >> np.uint64(11)) * 2.0**-53).tolist()
