"""Pluggable scorers turning a decoder step's queries into next-token distributions.

A scorer implements one method, ``score_batch(steps, jobs)``: for a round of
:class:`ScoreStep` s, one distribution per query in step then query order, as
a list or as an iterator that scores lazily, with ``jobs`` as the most
queries it may keep in flight at once (a scorer that does not pipeline
ignores it). A failed query is reported at that query: the scorer yields the
replies before it, then raises. An exception from the call itself
propagates. A scorer that converts lossily names the conversion in the
distribution's ``flags``. :func:`score_batch` is the one place that calls
it. Shipped scorers: a deterministic table-driven mock, an exact-Bayes toy
video world (:mod:`vps.backends.toyworld`), and an HTTP client for external
inference servers (:mod:`vps.backends.wire`). :class:`ScoreRequest` is one
query on its own, for the one-query ``score`` conveniences of the last two;
no decode builds one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from ..aggregation import Distribution

__all__ = [
    "ScoreRequest",
    "ScoreStep",
    "ScoreResponse",
    "Scorer",
    "score_batch",
    "FixtureMissError",
    "MockBackend",
    "CallCounter",
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

    ``scores`` is kept as a 1-D float64 array (converted without a copy when
    it already is one). ``top`` pairs are (token id, log probability) sorted
    by descending log probability; ``remainder`` is the probability mass
    outside the reported tokens.
    """

    vocab_size: int
    scores: np.ndarray | None = None
    top: tuple[tuple[int, float], ...] | None = None
    remainder: float | None = None

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
        else:
            assert self.top is not None
            if not self.top:
                raise ValueError("top responses must report at least one token")
            ids = [t for t, _ in self.top]
            lps = np.array([lp for _, lp in self.top], dtype=np.float64)
            if np.isnan(lps).any():
                raise ValueError("top log-probabilities must not be NaN")
            if (lps[1:] > lps[:-1]).any():
                raise ValueError("top pairs must be sorted by descending log-probability")
            if len(set(ids)) != len(ids):
                raise ValueError("top pairs contain duplicate token ids")
            if any(not 0 <= t < self.vocab_size for t in ids):
                raise ValueError("top token id out of range")
            mass = float(np.exp(lps).sum())
            if self.remainder is None:
                raise ValueError("top responses must report the remainder mass")
            if not self.remainder >= -1e-9 or mass - 1.0 > 1e-9:
                raise ValueError("top probabilities exceed total mass 1")
            if not mass > 0.0:
                raise ValueError("top probabilities report no mass")

    def to_distribution(self) -> tuple[Distribution, tuple[str, ...]]:
        """Convert to a proper distribution; flags name any lossy conversion
        and are carried on the distribution too.

        Top-m responses become a sparse distribution on the reported tokens:
        their probabilities are exponentiated and renormalized, and every
        unreported token gets zero. No vocabulary-length array is built.
        """
        if self.scores is not None:
            return Distribution.from_logits(self.scores), ()
        assert self.top is not None
        pairs = np.array(self.top, dtype=np.float64)
        order = np.argsort(pairs[:, 0])
        values = np.exp(pairs[order, 1])
        flags = ("topm_renormalized",)
        dist = Distribution(
            values / values.sum(),
            support=pairs[order, 0].astype(np.int64),
            size=self.vocab_size,
            flags=flags,
        )
        return dist, flags


@runtime_checkable
class Scorer(Protocol):
    def score_batch(self, steps: Sequence[ScoreStep], jobs: int = 1) -> Iterable[Distribution]: ...


def score_batch(scorer: Scorer, steps: Sequence[ScoreStep], jobs: int = 1) -> Iterator[Distribution]:
    """One distribution per query of ``steps``, in step then query order.

    The scorer scores the whole round in one call, made here, with ``jobs``
    passed on as the keyword ``jobs``. When it returns a list, a reply count
    other than one per query raises ``ValueError`` here; an iterator is
    passed on as it is, and a failed query raises when its reply is read.
    An exception from the call itself propagates.
    """
    replies = scorer.score_batch(steps, jobs=jobs)
    if isinstance(replies, list) and len(replies) != (queries := sum(map(len, steps))):
        raise ValueError(f"score_batch returned {len(replies)} replies for {queries} queries")
    return iter(replies)


class FixtureMissError(KeyError):
    """The mock backend has no fixture for the requested key."""

    def __init__(self, key: tuple) -> None:
        super().__init__(f"no fixture for (frame_set, view, generated) = {key!r}")
        self.key = key


class MockBackend:
    """Deterministic scorer backed by a fixture table.

    Fixtures are keyed by ``(frame_set, view, generated-prefix)`` tuples and
    returned verbatim. ``vocab`` optionally maps token ids to text for answer
    extraction.
    """

    def __init__(
        self,
        fixtures: Mapping[tuple[tuple[int, ...], str, tuple[int, ...]], Distribution],
        vocab: Sequence[str] | None = None,
    ) -> None:
        self.fixtures = dict(fixtures)
        self.vocab = tuple(vocab) if vocab is not None else None

    def score_batch(self, steps: Sequence[ScoreStep], jobs: int = 1) -> Iterator[Distribution]:
        """The fixture of each query, lazily; a query without one raises
        :class:`FixtureMissError` when its reply is read."""
        for step in steps:
            for frame_set, view in step.queries:
                key = (frame_set, view, step.generated)
                if key not in self.fixtures:
                    raise FixtureMissError(key)
                yield self.fixtures[key]

    def token_text(self, token: int) -> str:
        if self.vocab is None:
            return str(token)
        return self.vocab[token]


class CallCounter:
    """Wrap a scorer and count its queries (compute-audit helper, thread-safe).

    A batch returned as a list counts one call per query. A batch returned
    as an iterator counts each query whose reply was read or whose query
    failed, and none that was never read. A call that raises counts
    nothing. Every other attribute is the inner scorer's.
    """

    def __init__(self, inner: Scorer) -> None:
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def _count(self, n: int) -> None:
        with self._lock:
            self.calls += n

    def score_batch(self, steps: Sequence[ScoreStep], jobs: int = 1) -> Iterable[Distribution]:
        replies = self.inner.score_batch(steps, jobs=jobs)
        if isinstance(replies, list):
            self._count(sum(map(len, steps)))
            return replies
        return self._counted(replies)

    def _counted(self, replies: Iterable[Distribution]) -> Iterator[Distribution]:
        try:
            for reply in replies:
                self._count(1)
                yield reply
                del reply  # hold no reply while the next query is scored
        except Exception:  # the next query failed
            self._count(1)
            raise

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
