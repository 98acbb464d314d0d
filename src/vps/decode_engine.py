"""The parallel-stream decode loop.

Per token: send one scoring query per stream (plus a frame-degraded
negative query per stream when contrastive adjustment is on, plus an
augmented-view query per stream when view fusion is on), adjust and mix the
stream distributions, sample a single token, and append it to the one
generated suffix all streams share. Every query goes through
:func:`vps.backends.score_batch`, which may keep up to ``jobs`` of them in
flight; replies are reduced in ascending stream order, so traces are
bit-identical regardless of ``jobs``.

A decode is one :class:`Decoder`, built from the frame plan, and its
``tokens`` are that suffix. Its queries, fixed at construction, come out of
``pending()`` as one :class:`~vps.backends.ScoreStep` per step, and their
replies go back in through ``advance()``, so the caller decides how they
are scored. :func:`step` scores one step of one decoder, and :func:`decode`
runs one decoder with it; :func:`run_lockstep` scores a round of many
decoders' steps as one batch.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 - unused; perfbench/tracer.py swaps it
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Literal, Sequence

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
from .backends import Scorer, ScoreStep, check_query, score_batch
from .frame_selection import FrameSelectionPlan
from .views import IDENTITY, augmented_view, zero_view

__all__ = [
    "DecodeConfig",
    "StreamStepRecord",
    "StepRecord",
    "DecodeTrace",
    "StepError",
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
    ``probs``, its dense vector, built on first read, so a record nobody
    reads costs no vocabulary-length array. ``flags`` name lossy
    conversions by the engine or the backend."""

    stream_id: int
    dist: Distribution | None = field(repr=False)
    flags: tuple[str, ...] = ()
    top = None  # a trace stores no top-m pairs; perfbench/tracer.py:trace_floats is the only reader

    @classmethod
    def stored(cls, stream_id: int, probs: np.ndarray, flags=()) -> "StreamStepRecord":
        """A record of what a trace stored, without the distribution (see
        :meth:`DecodeTrace.from_jsonl`)."""
        record = cls(stream_id, None, flags=tuple(flags))
        vars(record)["probs"] = probs  # fills the cached property
        return record

    @cached_property
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
        steps = []
        for line in text.splitlines():
            if not line.strip():
                continue
            raw = json.loads(line)
            streams = tuple(
                StreamStepRecord.stored(
                    s["stream"], np.array(s["probs"], dtype=np.float64), s.get("flags", ()),
                )
                for s in raw["streams"]
            )
            steps.append(
                StepRecord(
                    index=raw["step"],
                    token=raw["token"],
                    mixed=Distribution(np.array(raw["aggregated"], dtype=np.float64)),
                    streams=streams,
                )
            )
        return cls(steps)


class StepError(RuntimeError):
    """A backend query failed; the step was aborted with nothing appended."""

    def __init__(self, stream_id: int, role: str, cause: Exception) -> None:
        super().__init__(f"stream {stream_id} {role} query failed: {cause}")
        self.stream_id = stream_id
        self.role = role
        self.cause = cause


class DecodeError(RuntimeError):
    """A step failed mid-decode; carries the partial trace."""

    def __init__(self, cause: StepError, trace: DecodeTrace, tokens: list[int]) -> None:
        super().__init__(str(cause))
        self.cause = cause
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


def derive_seed(seed: int, index: int) -> int:
    """The ``index``-th child seed of ``seed``: stable across runs and
    platforms (independent of hash randomization)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Decoder:
    """One decode as a state machine, and the whole state of it.

    Stream ``j`` sees ``plan.sets[j]``; every stream conditions on the one
    generated suffix, ``tokens``. :meth:`pending` returns the next step, its
    queries fixed at construction (none once the decode is ``done``), and
    :meth:`advance` takes their distributions, in query order, and finishes
    the step: it adjusts and mixes the streams and samples one token. The
    decode is done after a stop token (recorded in the trace, not appended
    to ``tokens``) or ``cfg.max_tokens`` steps. Step ``t`` samples with a
    seed derived from (``seed``, ``t``); a greedy decode (temperature 0)
    derives none. With ``keep_trace`` off no step record is built, and
    ``trace`` stays empty.
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
        self.video_ref = video_ref
        self.prompt = prompt
        self.plan = plan
        self.cfg = cfg
        self.seed = seed
        self.keep_trace = keep_trace
        self.trace = DecodeTrace()
        self.tokens: list[int] = []
        self.steps = 0
        self.done = False
        # one positive query per stream, plus its augmented and negative ones under view fusion and TCD
        self._roles: list[tuple[int, str]] = []  # (stream id, role) of each query
        self._queries: tuple[tuple[tuple[int, ...], str], ...] = ()
        for j, frame_set in enumerate(plan.sets):
            check_query(frame_set, cfg.score_top_m)
            views = [("positive", IDENTITY)]
            if cfg.ritual_views is not None:
                views.append(("augmented", augmented_view(cfg.ritual_views[j])))
            if cfg.tcd is not None:
                views.append(("negative", negative_view(frame_set)))
            self._roles += [(j, role) for role, _ in views]
            self._queries += tuple((frame_set, view) for _, view in views)
        self._pending = 0  # queries of the step handed out and not yet finished

    def pending(self) -> ScoreStep:
        """The next step; it has no query once the decode is done."""
        self._pending = 0 if self.done else len(self._queries)
        # a stop token ends the decode, so the suffix is the emitted tokens
        return ScoreStep(self.video_ref, self.prompt, tuple(self.tokens), self.cfg.score_top_m,
                         self._queries[:self._pending])

    def advance(self, replies: Sequence[Distribution]) -> int:
        """Finish the pending step with one distribution per query; returns its token."""
        cfg = self.cfg
        if not self._pending or len(replies) != self._pending:
            raise ValueError(f"{len(replies)} replies for {self._pending} pending requests")
        results = dict(zip(self._roles, replies))
        self._pending = 0
        per_stream: list[Distribution] = []
        for j in range(cfg.streams):
            dist = results[(j, "positive")]
            if cfg.ritual_views is not None:
                dist = ritual_combine(dist, results[(j, "augmented")], space=cfg.space)
            if cfg.tcd is not None:
                dist = tcd_adjust(dist, results[(j, "negative")], cfg.tcd)
            per_stream.append(dist)

        w = Weights.uniform(cfg.streams)
        mixed = mix_probs(per_stream, w) if cfg.space == "probability" else mix_logits(per_stream, w)
        seed = derive_seed(self.seed, self.steps) if cfg.temperature > 0 else None
        token = sample_token(mixed, cfg.temperature, seed)

        if self.keep_trace:
            self.trace.steps.append(self._record(token, mixed, per_stream, results))
        self.steps += 1
        if token in cfg.stop_tokens:
            self.done = True
        else:
            self.tokens.append(token)
            self.done = self.steps >= cfg.max_tokens
        return token

    def _record(
        self,
        token: int,
        mixed: Distribution,
        per_stream: list[Distribution],
        results: dict[tuple[int, str], Distribution],
    ) -> StepRecord:
        stream_records = []
        for j, (frame_set, dist) in enumerate(zip(self.plan.sets, per_stream)):
            flags: list[str] = []
            if self.cfg.tcd is not None and len(frame_set) == 1:
                flags.append("tcd_negative_degenerate")
            for role in ("positive", "augmented", "negative"):
                if (j, role) in results:
                    flags.extend(results[(j, role)].flags)
            stream_records.append(StreamStepRecord(j, dist, tuple(dict.fromkeys(flags))))
        return StepRecord(index=self.steps, token=token, mixed=mixed, streams=tuple(stream_records))

    def fail(self, k: int, cause: Exception) -> DecodeError:
        """End the decode because its ``k``-th pending query raised ``cause``."""
        stream_id, role = self._roles[k]
        self._pending = 0
        self.done = True
        error = StepError(stream_id, role, cause)
        error.__cause__ = cause
        failure = DecodeError(error, self.trace, self.tokens)
        failure.__cause__ = error
        return failure


def _advance(decoder: Decoder, count: int, replies: Iterator[Distribution]) -> int | DecodeError:
    """Finish ``decoder``'s pending step with the next ``count`` of
    ``replies``: its token, or, after a failed reply, the decoder's
    :class:`DecodeError` (and nothing more is read). Replies that run out
    raise ``ValueError``, as a short list does in :func:`score_batch`."""
    got: list[Distribution] = []
    try:
        for _ in range(count):
            got.append(next(replies))
    except StopIteration:
        raise ValueError(f"score_batch ran short: {len(got)} replies for a step of {count} queries") from None
    except Exception as exc:  # noqa: BLE001 - returned as the decoder's DecodeError
        return decoder.fail(len(got), exc)
    return decoder.advance(got)


def run_lockstep(
    groups: Sequence[Sequence[Decoder]], scorer: Scorer, jobs: int = 1
) -> list[DecodeError | None]:
    """Run every decoder of ``groups`` to its end, all in lock step.

    Each round gathers the pending step of every live decoder, in group
    then decoder order, and the scorer gets them in one call through
    :func:`score_batch`, with ``jobs`` as the most queries it may keep in
    flight at once. Each decoder advances as soon as its own replies are
    in. A failed query ends its decoder's whole group: the group sends no
    later query (up to ``jobs`` - 1 of them may already be in flight), its
    entry of the returned list is the :class:`DecodeError`, and the rest of
    the round is scored by one more call. A group that finishes gets None.
    A call that raises, and a wrong number of replies, propagate.
    """
    errors: list[DecodeError | None] = [None] * len(groups)
    while True:
        # the round: (group index, decoder, its pending step) per live decoder, grouped
        batch = [
            (g, decoder, decoder.pending())
            for g, group in enumerate(groups)
            if errors[g] is None
            for decoder in group
            if not decoder.done
        ]
        if not batch:
            return errors
        # the whole round as one batch; after a failed query, the rest of the round as another
        while batch:
            replies = score_batch(scorer, [pending for _, _, pending in batch], jobs)
            for n, (g, decoder, pending) in enumerate(batch):
                outcome = _advance(decoder, len(pending), replies)
                if isinstance(outcome, DecodeError):
                    errors[g] = outcome
                    break
            batch = [entry for entry in batch[n + 1:] if errors[entry[0]] is None]


def step(decoder: Decoder, scorer: Scorer, jobs: int = 1) -> int:
    """Score, mix and sample the next step of ``decoder``; returns its token.

    The step goes to the scorer in one call through :func:`score_batch`,
    with ``jobs`` as the most queries it may keep in flight at once.
    Aggregation waits for all of them (the mixture is synchronous) and
    reduces in ascending stream order. A failed query ends the decode with
    nothing appended: the decoder's :class:`DecodeError` is raised, its
    ``cause`` the :class:`StepError` of the first failure in query order,
    and no later query is sent (up to ``jobs`` - 1 of them may already be
    in flight). A call that raises, and a wrong number of replies,
    propagate.
    """
    pending = decoder.pending()
    outcome = _advance(decoder, len(pending), score_batch(scorer, [pending], jobs))
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
