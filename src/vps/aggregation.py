"""Fusing per-stream next-token distributions into one decoding distribution.

Streams are combined either as probabilities (convex mixture) or as raw
scores (weighted mean of pre-normalization scores, i.e. a normalized weighted
geometric mean of the probabilities). Contrastive adjustment against a
degraded negative stream and equal-weight original/augmented view fusion
operate on single streams before mixing.

Every function works row by row on a stack of distributions, giving each row
its own bits. All reductions over streams run in a fixed balanced tree over
ascending stream index, so results are bit-reproducible regardless of caller
concurrency, and mixing identical streams with uniform weights over a
power-of-two stream count is exact in IEEE754.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Literal, Sequence

import numpy as np

from .seeds import first_uniforms

__all__ = [
    "PROB_TOL",
    "WEIGHT_TOL",
    "Distribution",
    "Weights",
    "TcdConfig",
    "softmax",
    "mix_probs",
    "mix_logits",
    "tcd_adjust",
    "ritual_combine",
    "argmax_token",
    "sample_token",
]

PROB_TOL = 1e-9
WEIGHT_TOL = 1e-12

# log(_TINY) is a large negative but finite stand-in for log(0)
_TINY = 1e-300


def softmax(scores: np.ndarray) -> np.ndarray:
    """Exponential normalization along the last axis, stable under large or -inf scores."""
    z = np.asarray(scores, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A validated probability distribution over a vocabulary of ``size`` tokens,
    or a dense stack of D of them (``values`` of shape ``(D, V)``, each row
    checked on its own). A scorer may return a round as one such stack
    (:class:`vps.backends.StackedRound`); a round read lazily gives 1-D
    replies. Sparse rows do not stack: a row's union of supports has a width
    of its own.

    Dense form (the default): ``values`` is the whole probability vector.
    Sparse form (``support`` given, with ``size``): ``values`` are the
    probabilities of the strictly ascending token ids in ``support``, and
    every other token has probability 0. Top-m scorer replies take the sparse
    form, so probability-space TCD, probability mixing and greedy sampling
    work on supports only. ``probs`` is always the dense vector: a plain
    attribute of the dense form, built once on first read for the sparse one.

    ``flags`` name any lossy conversion the scorer made to produce it (for
    example ``topm_renormalized``); they travel with the distribution into
    the decode trace.
    """

    values: np.ndarray
    support: np.ndarray | None = field(default=None, kw_only=True)
    size: int | None = field(default=None, kw_only=True)
    flags: tuple[str, ...] = field(default=(), kw_only=True)
    _logits: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", p)
        _check_probs(p)
        if self.support is None:
            if self.size is not None and self.size != p.shape[-1]:
                raise ValueError(f"{p.shape[-1]} probabilities for a vocabulary of {self.size}")
            object.__setattr__(self, "size", p.shape[-1])
            object.__setattr__(self, "probs", p)
            return
        s = np.asarray(self.support)
        object.__setattr__(self, "support", s)
        if s.dtype.kind not in "iu" or s.ndim != 1 or s.shape != p.shape:
            raise ValueError("support must be an integer vector as long as the values")
        if self.size is None or self.size < 1:
            raise ValueError("a sparse distribution needs a vocabulary size of at least 1")
        if (s[1:] <= s[:-1]).any():
            raise ValueError("support must be strictly ascending")
        if s[0] < 0 or s[-1] >= self.size:
            raise ValueError(f"support must lie in [0, {self.size})")

    def __len__(self) -> int:
        return self.size

    @cached_property
    def probs(self) -> np.ndarray:
        """The dense probability vector (set at construction for the dense form)."""
        p = np.zeros(self.size)
        p[self.support] = self.values
        return p

    @property
    def raw_scores(self) -> np.ndarray:
        """Pre-normalization scores: the logits this was built from, else
        ``log(probs)`` with zeros mapped to a finite floor."""
        if self._logits is not None:
            return self._logits
        return np.log(np.maximum(self.probs, _TINY))

    @classmethod
    def from_probs(cls, probs: Sequence[float] | np.ndarray) -> "Distribution":
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("probs must be one vector, not a stack")
        return cls(p)

    @classmethod
    def from_logits(cls, scores: Sequence[float] | np.ndarray) -> "Distribution":
        z = np.asarray(scores, dtype=np.float64)
        dist = cls(softmax(z))
        object.__setattr__(dist, "_logits", z)
        return dist

    def rows(self, index: int | slice | np.ndarray) -> "Distribution":
        """The rows of a stack at ``index``, not checked again: for an int,
        one row as a 1-D distribution; for a slice or an integer index array,
        a stack (a view, or for an array a copy)."""
        dist = type(self).__new__(type(self))
        vars(dist).update({k: v[index] if isinstance(v, np.ndarray) else v for k, v in vars(self).items()})
        vars(dist)["probs"] = dist.values  # one array, as in any dense distribution
        return dist


def _check_probs(p: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``p`` is a vector or a stack of them whose
    every vector is non-empty, non-negative and sums to 1 within
    ``PROB_TOL``. A stack's sum error names its first bad row."""
    if p.ndim not in (1, 2) or p.shape[-1] == 0:
        raise ValueError("probs must be a non-empty vector or a stack of them")
    if (p < 0).any():
        raise ValueError("probs must be non-negative")
    sums = p.sum(axis=-1)
    ok = abs(sums - 1.0) <= PROB_TOL  # written so that a NaN or infinite sum fails too
    if not (ok if p.ndim == 1 else ok.all()):
        i = int(np.argmin(ok))
        at = f" in row {i}" if p.ndim == 2 else ""
        raise ValueError(f"probs sum to {float(sums.flat[i])}{at}, expected 1 within {PROB_TOL}")


def _probs_at(d: Distribution, ids: np.ndarray) -> np.ndarray:
    """``d.probs[ids]`` for ascending ``ids``, without densifying a sparse ``d``."""
    if d.support is None:
        return d.probs[ids]
    at = np.minimum(np.searchsorted(d.support, ids), d.support.size - 1)
    return np.where(d.support[at] == ids, d.values[at], 0.0)


@dataclass(frozen=True, eq=False)
class Weights:
    """Non-negative per-stream weights on the simplex (sum 1 within 1e-12)."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within {WEIGHT_TOL}")

    def __len__(self) -> int:
        return self.w.size

    @classmethod
    def uniform(cls, streams: int) -> "Weights":
        """Equal weights; one shared, read-only instance per stream count."""
        return _uniform_weights(streams)

    @classmethod
    def normalized(cls, values: Sequence[float] | np.ndarray) -> "Weights":
        v = np.asarray(values, dtype=np.float64)
        total = v.sum()
        if total <= 0:
            raise ValueError("weights must have positive total mass")
        return cls(v / total)


@lru_cache
def _uniform_weights(streams: int) -> Weights:
    if streams < 1:
        raise ValueError("streams must be positive")
    w = np.full(streams, 1.0 / streams)
    w.flags.writeable = False
    return Weights(w)


@dataclass(frozen=True)
class TcdConfig:
    """Contrastive adjustment settings.

    ``contrast_strength`` in [0, 1) scales the push away from the negative
    stream; ``plausibility_threshold`` in [0, 1] keeps only tokens whose
    positive probability reaches that fraction of the positive maximum.
    ``space`` selects whether the contrast acts on probabilities or on logs.
    """

    contrast_strength: float = 0.5
    plausibility_threshold: float = 0.1
    space: Literal["probability", "log"] = "probability"

    def __post_init__(self) -> None:
        if not 0.0 <= self.contrast_strength < 1.0:
            raise ValueError("contrast_strength must lie in [0, 1)")
        if not 0.0 <= self.plausibility_threshold <= 1.0:
            raise ValueError("plausibility_threshold must lie in [0, 1]")
        if self.space not in ("probability", "log"):
            raise ValueError(f"unknown contrast space {self.space!r}")


def _tree_reduce(arrays: list[np.ndarray]) -> np.ndarray:
    """Balanced pairwise sum in ascending stream order (deterministic)."""
    while len(arrays) > 1:
        arrays = [
            arrays[i] + arrays[i + 1] if i + 1 < len(arrays) else arrays[i]
            for i in range(0, len(arrays), 2)
        ]
    return arrays[0]


def _check_mix_args(dists: Sequence[Distribution], w: Weights) -> None:
    if not dists:
        raise ValueError("need at least one stream distribution")
    if len(dists) != len(w):
        raise ValueError(f"{len(dists)} distributions but {len(w)} weights")
    size = len(dists[0])
    for j, d in enumerate(dists):
        if len(d) != size:
            raise ValueError(f"stream {j} has vocabulary size {len(d)}, expected {size}")


def mix_probs(dists: Sequence[Distribution], w: Weights) -> Distribution:
    """Convex combination of the streams' probability vectors.

    When every stream is sparse the mixture is sparse over the union of their
    supports, and each token's sum is the same balanced tree as in the dense
    mixture (absent tokens add exact zeros). One stream of weight 1 is
    returned as it is: 1.0 * p is p.
    """
    _check_mix_args(dists, w)
    if len(dists) == 1 and w.w[0] == 1.0:
        return dists[0]
    if any(d.support is None for d in dists):
        return Distribution(_tree_reduce([w.w[j] * d.probs for j, d in enumerate(dists)]))
    support = np.unique(np.concatenate([d.support for d in dists]))
    terms = []
    for j, d in enumerate(dists):
        term = np.zeros(support.size)
        term[np.searchsorted(support, d.support)] = w.w[j] * d.values
        terms.append(term)
    return Distribution(_tree_reduce(terms), support=support, size=len(dists[0]))


def mix_logits(dists: Sequence[Distribution], w: Weights) -> Distribution:
    """Weighted mean of raw scores, then exponential normalization.

    Equivalent to the normalized weighted geometric mean of the streams'
    probabilities.
    """
    _check_mix_args(dists, w)
    # zero-weight streams are skipped: 0 * -inf would poison the sum with NaN
    terms = [w.w[j] * d.raw_scores for j, d in enumerate(dists) if w.w[j] > 0.0]
    if not terms:
        raise ValueError("all weights are zero")
    combined = _tree_reduce(terms)
    if (combined.max(axis=-1) == -np.inf).any():
        raise ValueError("streams share no plausible token: every combined score is -inf")
    return Distribution.from_logits(combined)


def tcd_adjust(pos: Distribution, neg: Distribution, cfg: TcdConfig) -> Distribution:
    """Contrast a positive stream against its frame-degraded negative.

    Tokens below ``plausibility_threshold * max(pos)`` are zeroed. On the
    plausible set, probability space scores ``(1+a)*pos - a*neg`` (negatives
    clamped to zero) are renormalized; log space scores
    ``(1+a)*log(pos) - a*log(neg)`` are exponential-normalized. With zero
    contrast strength and a threshold that excludes nothing the input is
    returned unchanged (row by row in a stack, raw scores included). If the
    contrast clamps every plausible token of a row to zero mass, that row of
    the positive stream is renormalized over its plausible set instead.
    In probability space a sparse positive gives a sparse result on its own
    support.
    """
    if len(pos) != len(neg):
        raise ValueError(f"vocabulary mismatch: {len(pos)} vs {len(neg)}")
    a = cfg.contrast_strength
    # probability space works on a sparse positive's support: every token off
    # it has pos = 0, so its score (1+a)*0 - a*neg clamps to 0
    on_support = cfg.space == "probability" and pos.support is not None
    p = pos.values if on_support else pos.probs
    cut = cfg.plausibility_threshold * p.max(axis=-1, keepdims=True)
    plausible = p >= cut
    keep = None  # the rows returned as they are: no contrast, and no token cut
    if a == 0.0:  # tokens off a sparse support (p = 0) are plausible only when the cut is 0
        keep = plausible.all(axis=-1, keepdims=True) & ((cut <= 0.0) | (p.shape[-1] == len(pos)))
        if keep.all():
            return pos
    if cfg.space == "probability":
        n = _probs_at(neg, pos.support) if on_support else neg.probs
        scores = (1.0 + a) * p - a * n
        scores = np.where(plausible, np.maximum(scores, 0.0), 0.0)
        total = scores.sum(axis=-1, keepdims=True)
        if total.min() <= 0.0:
            scores = np.where(total <= 0.0, np.where(plausible, p, 0.0), scores)
            total = scores.sum(axis=-1, keepdims=True)
        out = Distribution(scores / total, support=pos.support, size=len(pos))
    else:
        log_pos = np.log(np.maximum(pos.probs, _TINY))
        log_neg = np.log(np.maximum(neg.probs, _TINY))
        out = Distribution.from_logits(np.where(plausible, (1.0 + a) * log_pos - a * log_neg, -np.inf))
    if keep is not None and keep.any():  # the rows left alone are the positive's own, raw scores too
        kept = Distribution(np.where(keep, p, out.values), support=out.support, size=len(pos))
        object.__setattr__(kept, "_logits", np.where(keep, pos.raw_scores, out.raw_scores))
        out = kept
    return out


def ritual_combine(
    original: Distribution,
    augmented: Distribution,
    space: Literal["probability", "logit"] = "probability",
) -> Distribution:
    """Equal-weight fusion of the original view and an augmented view."""
    pair = [original, augmented]
    w = Weights.uniform(2)
    return mix_probs(pair, w) if space == "probability" else mix_logits(pair, w)


def argmax_token(d: Distribution) -> int | list[int]:
    """Index of the maximum probability (a list of one per row of a stack);
    ties go to the lowest token id."""
    best = np.argmax(d.values, axis=-1)
    if d.support is not None:
        best = d.support[best]
    return best.tolist()


def sample_token(d: Distribution, temperature: float, seed) -> int | list[int]:
    """Sample a token id from the temperature-scaled distribution; from a
    stack, a list of one per row, row ``i`` drawn with ``seed[i]``, a
    non-negative integer (see :mod:`vps.seeds`).

    Temperature 0 is greedy (argmax). Otherwise the distribution is scaled as
    ``p ** (1/temperature)`` and renormalized; zero-probability tokens stay
    impossible at every temperature. Deterministic given ``seed``.
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if d.values.ndim > 1 and len(seed) != len(d.values):
        raise ValueError(f"{len(seed)} seeds for a stack of {len(d.values)} rows")
    if temperature == 0.0:
        return argmax_token(d)
    if temperature == 1.0:
        q = d.probs
    else:
        support = d.probs > 0.0
        scaled = np.where(support, np.log(np.maximum(d.probs, _TINY)) / temperature, -np.inf)
        q = softmax(scaled)
    q = q.reshape(-1, d.size)
    u = np.array(first_uniforms(seed if d.values.ndim > 1 else [seed]))[:, None]
    # per row, the cdf steps at or below u (searchsorted, side="right"); a u that
    # rounded past the final positive step takes the last positive token
    idx = np.minimum((np.cumsum(q, axis=-1) <= u).sum(axis=-1, keepdims=True), d.size - 1)
    last_positive = np.maximum.accumulate(np.where(q > 0.0, np.arange(d.size), 0), axis=-1)
    tokens = np.take_along_axis(last_positive, idx, axis=-1)[:, 0].tolist()
    return tokens if d.values.ndim > 1 else tokens[0]
