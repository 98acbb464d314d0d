"""Test scorers written one query at a time, over the one scorer protocol,
a fixture-table mock, and the dense stack of a whole round."""

from typing import Iterator, Mapping, Sequence

import numpy as np

from vps.aggregation import Distribution
from vps.backends import ScoreRequest, ScoreStep


def stack_of(dists):
    """The dense 1-D ``dists``, of one vocabulary, as one checked stack, a row
    each, raw scores too."""
    stack = Distribution(np.stack([d.probs for d in dists]))
    if any(d._logits is not None for d in dists):
        object.__setattr__(stack, "_logits", np.stack([d.raw_scores for d in dists]))
    return stack


def requests_of(step):
    """The single-query requests of ``step``, in query order."""
    return [ScoreRequest(step.video_ref, frame_set, view, step.prompt_text, step.generated, step.top_m)
            for frame_set, view in step.queries]


def score_one(scorer, req):
    """``scorer``'s distribution for the one query ``req``."""
    return next(iter(scorer.score_batch([ScoreStep.of(req)])))


class Counting:
    """Wraps a scorer and counts at its boundary: each reply read, and each
    failed query. The call itself is made at once, so an error from it
    propagates uncounted."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def score_batch(self, steps, jobs=1):
        return self._counted(iter(self.inner.score_batch(steps, jobs=jobs)))

    def _counted(self, replies):
        try:
            for reply in replies:
                self.calls += 1
                yield reply
        except Exception:  # the next query failed
            self.calls += 1
            raise


class PerQuery:
    """A scorer defined by ``score(req)`` for one query: ``score_batch`` calls
    it lazily, once per query in step then query order, when the reply is read."""

    def score_batch(self, steps, jobs=1):
        for step in steps:
            for req in requests_of(step):
                yield self.score(req)


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
