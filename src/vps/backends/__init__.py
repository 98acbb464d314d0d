"""Pluggable scorers turning a decoder step's queries into next-token distributions.

A scorer implements one method, ``score_batch(steps, jobs)``: for a round of
:class:`ScoreStep` s, an iterable of one distribution per query, read in step
then query order, with ``jobs`` as the most queries it may keep in flight at
once (a scorer that does not pipeline ignores it). A :class:`StackedRound`
holds every reply as a row of one checked dense stack, fused by row index;
any other iterable is read lazily, and a failed query raises at its reply,
after the replies before it. An exception from the call itself propagates. A scorer that converts lossily names the conversion in the
distribution's ``flags``. The decode engine's round is the one reader of the
replies. Shipped scorers: an exact-Bayes toy video world
(:mod:`vps.backends.toyworld`) and an HTTP client for external inference
servers (:mod:`vps.backends.wire`). :class:`ScoreRequest` is one query on its
own, for the one-query ``score`` conveniences of the two; no decode builds
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from ..aggregation import Distribution

__all__ = [
    "ScoreRequest",
    "ScoreStep",
    "ScoreResponse",
    "Scorer",
    "StackedRound",
]


@dataclass(frozen=True)
class ScoreRequest:
    """Everything a backend needs to score the next token for one stream.

    ``top_m=None`` requests the full score vector; a positive value asks a
    wire backend for only the m most likely tokens.
    """

    video_ref: str
    frame_set: tuple[int, ...]
    view: str
    prompt_text: str
    generated: tuple[int, ...]
    top_m: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "frame_set", tuple(int(i) for i in self.frame_set))
        object.__setattr__(self, "generated", tuple(int(t) for t in self.generated))
        check_query(self.frame_set, self.top_m)


def check_query(frame_set: tuple[int, ...], top_m: int | None) -> None:
    """Raise ``ValueError`` unless ``frame_set`` ascends and ``top_m`` is None or positive."""
    if any(a >= b for a, b in zip(frame_set, frame_set[1:])):
        raise ValueError(f"frame_set must be ascending, got {frame_set}")
    if top_m is not None and top_m < 1:
        raise ValueError("top_m must be positive when given")


@dataclass(frozen=True)
class ScoreStep:
    """One decoder step: its queries' ``(frame_set, view)`` pairs in query order, and what
    they share, held once. Whoever builds a step has checked it with :func:`check_query`."""

    video_ref: str
    prompt_text: str
    generated: tuple[int, ...]
    top_m: int | None
    queries: tuple[tuple[tuple[int, ...], str], ...]

    def __len__(self) -> int:
        return len(self.queries)

    @classmethod
    def of(cls, req: ScoreRequest) -> "ScoreStep":
        """The one-query step of ``req``."""
        return cls(req.video_ref, req.prompt_text, req.generated, req.top_m, ((req.frame_set, req.view),))


@dataclass(frozen=True, eq=False)
class ScoreResponse:
    """A backend's reply: full log-score vector, or top-m pairs plus remainder.

    ``scores`` is a 1-D float64 array; ``top`` an ``(m, 2)`` float64 array of
    (token id, log probability) rows by descending log probability, with
    ``remainder`` the mass outside them. The reply's distribution is built
    once, here: top-m pairs become a sparse distribution on the reported
    tokens, renormalized (flag ``topm_renormalized``).
    """

    vocab_size: int
    scores: np.ndarray | None = None
    top: np.ndarray | None = None
    remainder: float | None = None
    _dist: Distribution = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if (self.scores is None) == (self.top is None):
            raise ValueError("exactly one of scores/top must be present")
        if self.scores is not None:
            scores = np.asarray(self.scores, dtype=np.float64)
            object.__setattr__(self, "scores", scores)
            if scores.ndim != 1 or scores.size != self.vocab_size:
                raise ValueError("scores must be a vector of length vocab_size")
            if not np.isfinite(scores).all():
                raise ValueError("full scores must be finite")
            object.__setattr__(self, "_dist", Distribution.from_logits(scores))
            return
        top = np.asarray(self.top, dtype=np.float64)
        object.__setattr__(self, "top", top)
        if top.ndim != 2 or top.shape[1] != 2 or not top.size:
            raise ValueError("top responses must report at least one (token id, log-probability) pair")
        ids, lps = top.T
        # before the int cast, so that a NaN fails quietly and a fraction is not truncated
        if not ((ids >= 0) & (ids < self.vocab_size) & (ids == np.floor(ids))).all():
            raise ValueError("top token ids must be integers in [0, vocab_size)")
        if np.isnan(lps).any():
            raise ValueError("top log-probabilities must not be NaN")
        if (lps[1:] > lps[:-1]).any():
            raise ValueError("top pairs must be sorted by descending log-probability")
        if self.remainder is None:
            raise ValueError("top responses must report the remainder mass")
        order = np.argsort(ids)
        values = np.exp(lps[order])
        mass = values.sum()
        if not self.remainder >= -1e-9 or mass - 1.0 > 1e-9:
            raise ValueError("top probabilities exceed total mass 1")
        if not mass > 0.0:
            raise ValueError("top probabilities report no mass")
        support = ids[order].astype(np.int64)  # a repeated id fails the constructor's ascending check
        dist = Distribution(values / mass, support=support, size=self.vocab_size, flags=("topm_renormalized",))
        object.__setattr__(self, "_dist", dist)

    def to_distribution(self) -> tuple[Distribution, tuple[str, ...]]:
        """The reply's distribution, built once at construction, and its
        flags, which name any lossy conversion."""
        return self._dist, self._dist.flags


class StackedRound(Sequence[Distribution]):
    """A round's replies as the rows of one checked dense ``(Q, V)``
    :class:`Distribution`, ``stack``. ``len`` is the number of queries Q, and
    item ``k`` is ``stack.rows(k)``, built only when it is read; a slice is a
    round of its own."""

    def __init__(self, stack: Distribution) -> None:
        self.stack = stack

    def __len__(self) -> int:
        return len(self.stack.values)  # len(stack) is its vocabulary size

    def __getitem__(self, k):
        return StackedRound(self.stack.rows(k)) if isinstance(k, slice) else self.stack.rows(k)

    def __iter__(self) -> Iterator[Distribution]:
        return map(self.stack.rows, range(len(self)))


@runtime_checkable
class Scorer(Protocol):
    def score_batch(self, steps: Sequence[ScoreStep], jobs: int = 1) -> Iterable[Distribution]: ...
