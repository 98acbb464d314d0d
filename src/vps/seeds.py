"""Seeds for a batch of rows in one array pass, with numpy's bits.

``derive_seed(seed, index)`` is numpy's ``SeedSequence([seed, index])``, and a
draw is ``default_rng(seed).random()``; each costs a row mostly object set-up.
SeedSequence's hash and PCG64's seeding are fixed integer recurrences, so
:func:`child_seeds` and :func:`first_uniforms` run them on ``uint32`` columns,
one row per seed. ``derive_seed`` and ``default_rng(seed).random()`` stay the
definition, against which the tests check every row.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

__all__ = ["derive_seed", "child_seeds", "first_uniforms"]

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # its output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, in words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def derive_seed(seed: int, index: int) -> int:
    """The ``index``-th child seed of ``seed``: stable across runs and
    platforms (independent of hash randomization)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _words(n) -> list[int]:
    """The little-endian 32-bit words numpy's SeedSequence takes from ``n``."""
    if n is None or n < 0:
        raise ValueError(f"a seed must be a non-negative integer, not {n!r}")
    n = operator.index(n)
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a running hash constant (``uint32`` wraps as SeedSequence's does)."""
    return np.cumprod(np.array([init] + [mult] * (count - 1), dtype=np.uint32), dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of successive columns: column ``i`` xor
    ``consts[i]``, times ``consts[i + 1]``, xor its own top half."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> np.uint32(16))


def _states(entropy: Sequence[list[int]], n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words)`` for each entropy word list
    ``e``, one row each; rows of one length are hashed as one array."""
    out = np.empty((len(entropy), n_words), dtype=np.uint32)
    by_length: dict[int, list[int]] = {}
    for k, row in enumerate(entropy):
        by_length.setdefault(len(row), []).append(k)
    for length, rows in by_length.items():
        words = np.zeros((len(rows), max(length, _POOL)), dtype=np.uint32)  # a short entropy hashes zeros
        words[:, :length] = [entropy[k] for k in rows]
        consts = _constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(length - _POOL, 0) + 1)
        pool = _hashmix(words[:, :_POOL], consts[:_POOL + 1])
        k = _POOL
        for src in range(_POOL):  # mix every pool word into every other one
            dst = [i for i in range(_POOL) if i != src]
            pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, [src]], consts[k:k + _POOL]))
            k += _POOL - 1
        for src in range(_POOL, length):  # entropy past the pool is mixed into each pool word
            pool = _mix(pool, _hashmix(words[:, [src]], consts[k:k + _POOL + 1]))
            k += _POOL
        out[rows] = _hashmix(pool[:, np.arange(n_words) % _POOL], _constants(_INIT_B, _MULT_B, n_words + 1))
    return out


def child_seeds(seeds: Sequence[int], indices: Sequence[int]) -> list[int]:
    """``derive_seed(seeds[k], indices[k])`` for every row ``k``."""
    if len(seeds) != len(indices):
        raise ValueError(f"{len(seeds)} seeds for {len(indices)} indices")
    return _states([_words(s) + _words(i) for s, i in zip(seeds, indices)], 1)[:, 0].tolist()


def first_uniforms(seeds: Sequence[int]) -> list[float]:
    """``np.random.default_rng(seeds[k]).random()`` for every row ``k``:
    PCG64 seeded from the row's four 64-bit state words, stepped once, its
    XSL-RR output's top 53 bits as a float in [0, 1)."""
    uniforms = []
    for a, b, c, d in _states([_words(s) for s in seeds], 8).astype("<u4").view("<u8").tolist():
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        # seeding steps state 0, adds initstate a:b and steps again; the draw takes one more step
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) * _PCG_MULT + inc & _MASK128
        xored, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        uniforms.append((((xored >> rot | xored << (-rot & 63)) & _MASK64) >> 11) * 2.0**-53)
    return uniforms
