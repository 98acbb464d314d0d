"""The parallel-stream decode loop.

Per token: send one scoring query per stream (plus a frame-degraded
negative query per stream when contrastive adjustment is on, plus an
augmented-view query per stream when view fusion is on), adjust and mix the
stream distributions, sample a single token, and append it to the one
generated suffix all streams share. Every query goes to the scorer's
``score_batch``, which may keep up to ``jobs`` of them in flight; replies
are reduced in ascending stream order, so traces are bit-identical
regardless of ``jobs``.

A decode is one :class:`Decoder`, built from the frame plan, and its
``tokens`` are that suffix. Its queries, fixed at construction, come out of
``pending()`` as one :class:`~vps.backends.ScoreStep` per step, and their
replies go back in through ``advance()``, so the caller decides how they
are scored. The unit of scoring is the round: the pending steps of some
decoders, scored by one ``score_batch`` call; only a round reads replies.
:func:`step` scores a round of one decoder, and :func:`decode` runs one
decoder with it; :func:`run_lockstep` runs many, a round of all at a time.

A round is fused as it comes back. A :class:`~vps.backends.StackedRound`
(the toy's) holds every reply as a row of one dense stack, so the decoders of
one config are fused together: each role's rows are gathered by one index
array, and each fusion function runs once on all their streams' rows. Any
other iterable (the wire's, or a list) is read lazily, so each decoder is
fused once its own are in, stream by stream. Both give the same bits.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 - unused; perfbench/tracer.py swaps it
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Literal, Sequence

import numpy as np

from .aggregation import (
    Distribution,
    TcdConfig,
    Weights,
    mix_logits,
    mix_probs,
    ritual_combine,
    sample_token,
    tcd_adjust,
)
from .backends import Scorer, ScoreStep, StackedRound, check_query
from .frame_selection import FrameSelectionPlan
from .seeds import child_seeds, derive_seed
from .views import IDENTITY, augmented_view, zero_view

__all__ = [
    "DecodeConfig",
    "StreamStepRecord",
    "StepRecord",
    "DecodeTrace",
    "DecodeError",
    "negative_view",
    "derive_seed",
    "Decoder",
    "run_lockstep",
    "step",
    "decode",
]


@dataclass(frozen=True)
class DecodeConfig:
    """Settings for one decode: stream count, fusion space, sampling.

    The streams are mixed with equal weights. ``temperature`` 0 decodes
    greedily. ``tcd`` switches on contrastive adjustment per stream;
    ``ritual_views`` (one augmentation tag per stream) switches on per-stream
    view fusion. ``score_top_m`` asks backends for truncated score vectors
    (the flags a backend puts on its distributions reach the trace).
    """

    streams: int
    space: Literal["probability", "logit"] = "probability"
    temperature: float = 0.0
    max_tokens: int = 1
    stop_tokens: frozenset[int] = frozenset()
    tcd: TcdConfig | None = None
    ritual_views: tuple[str, ...] | None = None
    score_top_m: int | None = None

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError("streams must be positive")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")
        if self.space not in ("probability", "logit"):
            raise ValueError(f"unknown aggregation space {self.space!r}")
        if self.ritual_views is not None:
            object.__setattr__(self, "ritual_views", tuple(self.ritual_views))
            if len(self.ritual_views) != self.streams:
                raise ValueError("need one ritual view tag per stream")
        object.__setattr__(self, "stop_tokens", frozenset(self.stop_tokens))


@dataclass(frozen=True, eq=False)
class StreamStepRecord:
    """One stream's contribution to a step: ``dist``, the distribution that
    entered the mixture (after any adjustment). The trace stores it as
    ``probs``, its dense vector, which a sparse ``dist`` builds on first
    read, so a record nobody reads costs no vocabulary-length array.
    ``flags`` name lossy conversions by the engine or the backend."""

    stream_id: int
    dist: Distribution = field(repr=False)
    flags: tuple[str, ...] = ()
    top = None  # a trace stores no top-m pairs; perfbench/tracer.py:trace_floats is the only reader

    @property
    def probs(self) -> np.ndarray:
        return self.dist.probs


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One step: the sampled token, ``mixed``, the distribution it was
    sampled from, and the stream records. ``aggregated``, the dense vector of
    ``mixed``, is built on first read."""

    index: int
    token: int
    mixed: Distribution = field(repr=False)
    streams: tuple[StreamStepRecord, ...]

    @property
    def aggregated(self) -> np.ndarray:
        return self.mixed.probs


@dataclass
class DecodeTrace:
    """Per-step records: everything needed to audit and replay a decode."""

    steps: list[StepRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = []
        for rec in self.steps:
            entry: dict = {
                "step": rec.index,
                "token": rec.token,
                "aggregated": rec.aggregated.tolist(),
                "streams": [
                    {
                        "stream": s.stream_id,
                        "probs": s.probs.tolist(),
                        **({"flags": list(s.flags)} if s.flags else {}),
                    }
                    for s in rec.streams
                ],
            }
            lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "DecodeTrace":
        """The trace :meth:`to_jsonl` wrote; every stored vector goes through
        the ``Distribution`` constructor, so one that is no distribution raises."""
        steps = []
        for line in text.splitlines():
            if not line.strip():
                continue
            raw = json.loads(line)
            streams = tuple(
                StreamStepRecord(
                    s["stream"], Distribution.from_probs(s["probs"]), tuple(s.get("flags", ()))
                )
                for s in raw["streams"]
            )
            steps.append(
                StepRecord(
                    index=raw["step"],
                    token=raw["token"],
                    mixed=Distribution.from_probs(raw["aggregated"]),
                    streams=streams,
                )
            )
        return cls(steps)


class DecodeError(RuntimeError):
    """A query failed and ended the decode, with nothing appended for its
    step. It names the query's ``stream_id`` and ``role`` and the scorer's
    exception, ``cause`` (also ``__cause__``), and carries the partial
    ``trace`` and ``tokens``."""

    def __init__(self, stream_id: int, role: str, cause: Exception, trace: DecodeTrace, tokens: list[int]) -> None:
        super().__init__(f"stream {stream_id} {role} query failed: {cause}")
        self.stream_id = stream_id
        self.role = role
        self.cause = self.__cause__ = cause
        self.trace = trace
        self.tokens = tokens


def negative_view(frame_set: Sequence[int]) -> str:
    """Descriptor for the frame-degraded negative stream.

    Every other kept frame is zeroed, by slot position (odd slots), not by
    index value. A single-frame set zeroes nothing: blanking the only frame
    would leave the negative stream contentless.
    """
    frames = tuple(frame_set)
    if not frames:
        raise ValueError("frame_set must be non-empty")
    if len(frames) == 1:
        return zero_view(())
    return zero_view(frames[1::2])


class Decoder:
    """One decode as a state machine, and the whole state of it.

    Stream ``j`` sees ``plan.sets[j]``; every stream conditions on the one
    generated suffix, ``tokens``. :meth:`pending` returns the next step, its
    queries fixed at construction (none once the decode is ``done``), and
    :meth:`advance` takes their distributions, in query order, and finishes
    the step: it adjusts and mixes the streams and samples one token. The
    decode is done after a stop token (recorded in the trace, not appended
    to ``tokens``) or ``cfg.max_tokens`` steps. Step ``t`` samples with a
    seed derived from (``seed``, ``t``), which must be non-negative; a
    greedy decode (temperature 0) derives none. With ``keep_trace`` off no
    step record is built, and ``trace`` stays empty. ``calls`` counts the
    replies read, a failed one too.
    """

    def __init__(
        self,
        video_ref: str,
        prompt: str,
        plan: FrameSelectionPlan,
        cfg: DecodeConfig,
        seed: int = 0,
        *,
        keep_trace: bool = True,
    ) -> None:
        if plan.streams != cfg.streams:
            raise ValueError(f"plan has {plan.streams} streams, config expects {cfg.streams}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.video_ref = video_ref
        self.prompt = prompt
        self.plan = plan
        self.cfg = cfg
        self.seed = seed
        self.keep_trace = keep_trace
        self.trace = DecodeTrace()
        self.tokens: list[int] = []
        self.steps = 0
        self.calls = 0
        self.done = False
        self._queries, self._roles = _queries(plan, cfg)
        self._pending = 0  # queries of the step handed out and not yet finished

    def pending(self) -> ScoreStep:
        """The next step; it has no query once the decode is done."""
        self._pending = 0 if self.done else len(self._queries)
        # a stop token ends the decode, so the suffix is the emitted tokens
        return ScoreStep(self.video_ref, self.prompt, tuple(self.tokens), self.cfg.score_top_m,
                         self._queries[:self._pending])

    def advance(self, replies: Sequence[Distribution]) -> int:
        """Finish the pending step with one distribution per query; returns its token."""
        (token,) = _fuse([self], replies)
        return token

    def _record(
        self, token: int, mixed: Distribution, per_stream: list[Distribution], replies: Sequence[Distribution]
    ) -> StepRecord:
        width = len(self._roles)
        stream_records = []
        for j, (frame_set, dist) in enumerate(zip(self.plan.sets, per_stream)):
            flags: list[str] = []
            if self.cfg.tcd is not None and len(frame_set) == 1:
                flags.append("tcd_negative_degenerate")
            for reply in replies[j * width:(j + 1) * width]:
                flags.extend(reply.flags)
            stream_records.append(StreamStepRecord(j, dist, tuple(dict.fromkeys(flags))))
        return StepRecord(index=self.steps, token=token, mixed=mixed, streams=tuple(stream_records))

    def fail(self, k: int, cause: Exception) -> DecodeError:
        """End the decode because its ``k``-th pending query raised ``cause``."""
        stream_id, position = divmod(k, len(self._roles))
        self._pending = 0
        self.calls += k + 1
        self.done = True
        return DecodeError(stream_id, self._roles[position], cause, self.trace, self.tokens)


@lru_cache(maxsize=256)
def _queries(plan: FrameSelectionPlan, cfg: DecodeConfig) -> tuple[tuple, tuple[str, ...]]:
    """The checked ``(frame_set, view)`` queries of every step of a decode of
    ``plan`` under ``cfg``, and the roles of a stream's run of them."""
    # each stream is a run of queries: positive, then augmented under view fusion, then negative under TCD
    queries: tuple[tuple[tuple[int, ...], str], ...] = ()
    for j, frame_set in enumerate(plan.sets):
        check_query(frame_set, cfg.score_top_m)
        views = {"positive": IDENTITY}
        if cfg.ritual_views is not None:
            views["augmented"] = augmented_view(cfg.ritual_views[j])
        if cfg.tcd is not None:
            views["negative"] = negative_view(frame_set)
        queries += tuple((frame_set, view) for view in views.values())
    return queries, tuple(views)  # the roles are the same for every stream


def _fuse(decoders: Sequence[Decoder], replies: Sequence[Distribution], starts: np.ndarray | None = None) -> list[int]:
    """Finish the pending step of each of ``decoders``, all of one config;
    returns their tokens. With no ``starts``, ``replies`` are one decoder's,
    fused a stream at a time. Otherwise they are a stacked round, decoder
    ``i``'s from row ``starts[i]``, and each role's rows, in stream then
    decoder order (a stream's rows are one slice), are gathered into one stack."""
    cfg, width, n = decoders[0].cfg, len(decoders[0]._roles), len(decoders)
    for decoder in decoders:
        got = len(replies) if starts is None else decoder._pending
        if not decoder._pending or got != decoder._pending:
            raise ValueError(f"{got} replies for {decoder._pending} pending requests")
        decoder._pending = 0
        decoder.calls += got
    if starts is None:
        runs = [replies[k:k + width] for k in range(0, len(replies), width)]
    else:
        at = (np.arange(0, cfg.streams * width, width)[:, None] + starts).ravel()
        runs = [[replies.stack.rows(at + r) for r in range(width)]]
    fused = []
    for run in runs:
        dist = run[0]
        if cfg.ritual_views is not None:
            dist = ritual_combine(dist, run[1], space=cfg.space)
        if cfg.tcd is not None:
            dist = tcd_adjust(dist, run[-1], cfg.tcd)
        fused.append(dist)
    per_stream = fused if starts is None else [fused[0].rows(slice(j * n, (j + 1) * n)) for j in range(cfg.streams)]
    w = Weights.uniform(cfg.streams)
    mixed = mix_probs(per_stream, w) if cfg.space == "probability" else mix_logits(per_stream, w)
    seeds = (child_seeds([d.seed for d in decoders], [d.steps for d in decoders]) if cfg.temperature > 0
             else [None] * n)  # a greedy step derives none
    tokens = (sample_token(mixed, cfg.temperature, seeds) if starts is not None
              else [sample_token(mixed, cfg.temperature, seeds[0])])
    for i, (decoder, token) in enumerate(zip(decoders, tokens)):
        if decoder.keep_trace:
            row = (lambda d: d) if starts is None else (lambda d: d.rows(i))
            own = replies if starts is None else replies[starts[i]:starts[i] + len(decoder._queries)]
            decoder.trace.steps.append(decoder._record(token, row(mixed), [row(d) for d in per_stream], own))
        decoder.steps += 1
        if token in cfg.stop_tokens:
            decoder.done = True
        else:
            decoder.tokens.append(token)
            decoder.done = decoder.steps >= cfg.max_tokens
    return tokens


_END = object()  # what a read past a round's last reply must find


def _round(decoders: Sequence[Decoder], scorer: Scorer, jobs: int) -> list[int | DecodeError]:
    """Score the pending steps of ``decoders`` in one ``score_batch`` call,
    read one reply per query, and advance each decoder: each one's token, up
    to a failed query, whose decoder's :class:`DecodeError` ends the list and
    the round (the decoders after it keep their pending step). A stacked
    round is fused by groups of one config; any other is read one decoder at
    a time. Too few or too many replies raise ``ValueError``."""
    steps = [decoder.pending() for decoder in decoders]
    replies = scorer.score_batch(steps, jobs=jobs)
    if isinstance(replies, StackedRound):
        starts = np.cumsum([0] + [len(pending) for pending in steps])
        if len(replies) != starts[-1]:
            raise ValueError(f"score_batch ran {'short' if len(replies) < starts[-1] else 'long'}: "
                             f"{len(replies)} replies for the round's {starts[-1]} queries")
        groups: dict[DecodeConfig, list[int]] = {}
        for i, decoder in enumerate(decoders):
            groups.setdefault(decoder.cfg, []).append(i)
        tokens: dict[int, int] = {}
        for members in groups.values():
            tokens.update(zip(members, _fuse([decoders[i] for i in members], replies, starts[members])))
        return [tokens[i] for i in range(len(decoders))]
    replies = iter(replies)
    outcomes: list[int | DecodeError] = []
    for decoder, pending in zip(decoders, steps):
        got: list[Distribution] = []
        try:
            got.extend(islice(replies, len(pending)))  # a failed reply leaves the ones before it in got
        except Exception as exc:  # noqa: BLE001 - returned as the decoder's DecodeError
            outcomes.append(decoder.fail(len(got), exc))
            return outcomes
        if len(got) < len(pending):
            raise ValueError(f"score_batch ran short: {len(got)} replies for a step of {len(pending)} queries")
        outcomes.append(decoder.advance(got))
    if next(replies, _END) is not _END:
        raise ValueError(f"score_batch ran long: more replies than the round's {sum(map(len, steps))} queries")
    return outcomes


def run_lockstep(
    groups: Sequence[Sequence[Decoder]], scorer: Scorer, jobs: int = 1
) -> list[DecodeError | None]:
    """Run every decoder of ``groups`` to its end, all in lock step.

    Each round is the pending steps of every live decoder, in group then
    decoder order, scored by one ``score_batch`` call of the scorer, with
    ``jobs`` as the most queries it may keep in flight at once. Each
    decoder advances as soon as its own replies are in. A failed query ends
    its decoder's whole group, and its group's entry of the returned list is
    the :class:`DecodeError`. It also ends the round: no later query of the
    round is read (up to ``jobs`` - 1 of them may already be in flight), and
    the decoders the round did not reach go into the next round with their
    step still pending. A group that finishes gets None. A call that raises,
    and the ``ValueError`` of a wrong number of replies, propagate.
    """
    errors: list[DecodeError | None] = [None] * len(groups)
    while live := [(g, d) for g, group in enumerate(groups) if errors[g] is None for d in group if not d.done]:
        outcomes = _round([decoder for _, decoder in live], scorer, jobs)
        if isinstance(outcomes[-1], DecodeError):
            errors[live[len(outcomes) - 1][0]] = outcomes[-1]
    return errors


def step(decoder: Decoder, scorer: Scorer, jobs: int = 1) -> int:
    """Score, mix and sample the next step of ``decoder``; returns its token.

    The step is a round of its own: it goes to the scorer in one
    ``score_batch`` call, with ``jobs`` as the most queries it may keep in
    flight at once. Aggregation waits for all of them (the mixture
    is synchronous) and reduces in ascending stream order. A failed query
    ends the decode with nothing appended: the decoder's
    :class:`DecodeError` for the first failure in query order is raised, and
    no later query is sent (up to ``jobs`` - 1 of them may already be in
    flight). A call that raises, and the ``ValueError`` of a wrong number
    of replies, propagate.
    """
    (outcome,) = _round([decoder], scorer, jobs)
    if isinstance(outcome, DecodeError):
        raise outcome
    return outcome


def decode(
    video_ref: str,
    prompt: str,
    plan: FrameSelectionPlan,
    backend: Scorer,
    cfg: DecodeConfig,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[list[int], DecodeTrace]:
    """Run one :class:`Decoder` to a stop token or ``max_tokens``, a
    :func:`step` per token.

    Returns the emitted tokens (a terminal stop token is recorded in the
    trace but not included in the returned sequence) and the full trace. A
    failed query raises the decoder's :class:`DecodeError`, which carries
    the partial trace and tokens. Deterministic given (plan, config, seed,
    backend) for any ``jobs``, the most queries the scorer may keep in
    flight at once.
    """
    decoder = Decoder(video_ref, prompt, plan, cfg, seed)
    while not decoder.done:
        step(decoder, backend, jobs)
    return decoder.tokens, decoder.trace
