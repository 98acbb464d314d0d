"""Test scorers written one query at a time, over the one scorer protocol."""

from vps.backends import ScoreRequest, ScoreStep


def requests_of(step):
    """The single-query requests of ``step``, in query order."""
    return [ScoreRequest(step.video_ref, frame_set, view, step.prompt_text, step.generated, step.top_m)
            for frame_set, view in step.queries]


def score_one(scorer, req):
    """``scorer``'s distribution for the one query ``req``."""
    return next(iter(scorer.score_batch([ScoreStep.of(req)])))


class PerQuery:
    """A scorer defined by ``score(req)`` for one query: ``score_batch`` calls
    it lazily, once per query in step then query order, when the reply is read."""

    def score_batch(self, steps, jobs=1):
        for step in steps:
            for req in requests_of(step):
                yield self.score(req)
