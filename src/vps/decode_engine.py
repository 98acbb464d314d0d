"""The parallel-stream decode loop.

Per token: fan out one scoring query per stream (plus a frame-degraded
negative query per stream when contrastive adjustment is on, plus an
augmented-view query per stream when view fusion is on), adjust and mix the
stream distributions, sample a single token, and append that same token to
every stream. Stream queries within a step may run concurrently; results are
buffered and reduced in ascending stream order, so traces are bit-identical
regardless of thread count.
"""

from __future__ import annotations

import json
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
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
from .backends import ScoreRequest, Scorer
from .frame_selection import FrameSelectionPlan
from .views import IDENTITY, augmented_view, parse_view, zero_view

__all__ = [
    "StreamContext",
    "DecodeConfig",
    "StreamStepRecord",
    "StepRecord",
    "DecodeTrace",
    "StepError",
    "DecodeError",
    "negative_view",
    "step",
    "decode",
]


@dataclass
class StreamContext:
    """One stream's conditioning: its frame subset, view, prompt, and the
    shared generated suffix (identical across streams at step boundaries)."""

    stream_id: int
    frame_set: tuple[int, ...]
    view: str
    prompt: str
    generated: list[int]
    video_ref: str = ""


@dataclass(frozen=True)
class DecodeConfig:
    """Settings for one decode: stream count, weights, fusion space, sampling.

    ``temperature`` 0 decodes greedily. ``tcd`` switches on contrastive
    adjustment per stream; ``ritual_views`` (one augmentation tag per stream)
    switches on per-stream view fusion. ``trace_top_m`` truncates per-stream
    distributions in the trace for storage; ``score_top_m`` asks backends for
    truncated score vectors (the flags a backend puts on its distributions
    reach the trace).
    """

    streams: int
    weights: Weights | None = None
    space: Literal["probability", "logit"] = "probability"
    temperature: float = 0.0
    max_tokens: int = 1
    stop_tokens: frozenset[int] = frozenset()
    tcd: TcdConfig | None = None
    ritual_views: tuple[str, ...] | None = None
    trace_top_m: int | None = None
    score_top_m: int | None = None

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError("streams must be positive")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")
        if self.weights is not None and len(self.weights) != self.streams:
            raise ValueError(f"{len(self.weights)} weights for {self.streams} streams")
        if self.space not in ("probability", "logit"):
            raise ValueError(f"unknown aggregation space {self.space!r}")
        if self.ritual_views is not None:
            object.__setattr__(self, "ritual_views", tuple(self.ritual_views))
            if len(self.ritual_views) != self.streams:
                raise ValueError("need one ritual view tag per stream")
        object.__setattr__(self, "stop_tokens", frozenset(self.stop_tokens))

    def resolved_weights(self) -> Weights:
        return self.weights if self.weights is not None else Weights.uniform(self.streams)


@dataclass(frozen=True, eq=False)
class StreamStepRecord:
    """One stream's contribution to a step: the distribution that entered the
    mixture (after any adjustment), top-m truncated for storage if configured.
    ``flags`` name lossy conversions by the engine or the backend."""

    stream_id: int
    probs: np.ndarray | None
    top: tuple[tuple[int, float], ...] | None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One step: the sampled token, the mixture it was sampled from, and the
    stream records. Vectors stay arrays until :meth:`DecodeTrace.to_jsonl`."""

    index: int
    token: int
    aggregated: np.ndarray
    streams: tuple[StreamStepRecord, ...]


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
                        **({"probs": s.probs.tolist()} if s.probs is not None else {}),
                        **({"top": [[t, p] for t, p in s.top]} if s.top is not None else {}),
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
                StreamStepRecord(
                    stream_id=s["stream"],
                    probs=np.array(s["probs"], dtype=np.float64) if "probs" in s else None,
                    top=tuple((t, p) for t, p in s["top"]) if "top" in s else None,
                    flags=tuple(s.get("flags", ())),
                )
                for s in raw["streams"]
            )
            steps.append(
                StepRecord(
                    index=raw["step"],
                    token=raw["token"],
                    aggregated=np.array(raw["aggregated"], dtype=np.float64),
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


def negative_view(frame_set: Sequence[int], scheme: str = "interleaved_zero") -> str:
    """Descriptor for the frame-degraded negative stream.

    Every other kept frame is zeroed, by slot position (odd slots), not by
    index value. A single-frame set zeroes nothing: blanking the only frame
    would leave the negative stream contentless.
    """
    if scheme != "interleaved_zero":
        raise ValueError(f"unknown negative-view scheme {scheme!r}")
    frames = tuple(frame_set)
    if not frames:
        raise ValueError("frame_set must be non-empty")
    if len(frames) == 1:
        return zero_view(())
    return zero_view(frames[1::2])


def _truncate(dist: Distribution, top_m: int | None) -> tuple[np.ndarray | None, tuple[tuple[int, float], ...] | None]:
    if top_m is None or top_m >= len(dist):
        return dist.probs, None
    order = np.argsort(-dist.probs, kind="stable")[:top_m]
    return None, tuple((int(t), float(dist.probs[t])) for t in order)


def _step_seed(seed: int, index: int) -> int:
    # stable per-step derivation, independent of platform hash randomization
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def step(
    streams: Sequence[StreamContext],
    backend: Scorer,
    cfg: DecodeConfig,
    seed: int,
    executor: Executor | None = None,
    index: int = 0,
) -> tuple[int, StepRecord]:
    """Score all streams, mix, sample one token, append it to every stream.

    Backend queries may run on ``executor``; aggregation waits for all of
    them (the mixture is synchronous) and reduces in ascending stream order.
    A failed query aborts the step with no token appended anywhere: the
    first failure in query order is raised once the queries already running
    have finished, and queries not yet started are dropped.
    """
    if not streams:
        raise ValueError("need at least one stream")
    if len(streams) != cfg.streams:
        raise ValueError(f"{len(streams)} stream contexts for streams={cfg.streams}")

    queries: list[tuple[int, str, ScoreRequest]] = []
    flags: dict[int, list[str]] = {s.stream_id: [] for s in streams}
    for s in streams:
        base = dict(
            video_ref=s.video_ref,
            frame_set=s.frame_set,
            prompt_text=s.prompt,
            generated=tuple(s.generated),
            top_m=cfg.score_top_m,
        )
        queries.append((s.stream_id, "positive", ScoreRequest(view=s.view, **base)))
        if cfg.ritual_views is not None:
            aug = augmented_view(cfg.ritual_views[s.stream_id])
            queries.append((s.stream_id, "augmented", ScoreRequest(view=aug, **base)))
        if cfg.tcd is not None:
            neg = negative_view(s.frame_set)
            if parse_view(neg)[1] == ():
                flags[s.stream_id].append("tcd_negative_degenerate")
            queries.append((s.stream_id, "negative", ScoreRequest(view=neg, **base)))

    futures = [executor.submit(backend.score, req) for _, _, req in queries] if executor is not None else []
    results: dict[tuple[int, str], Distribution] = {}
    for k, (stream_id, role, req) in enumerate(queries):
        try:
            dist = futures[k].result() if futures else backend.score(req)
        except Exception as exc:  # noqa: BLE001 - surfaced as StepError
            for future in futures:
                future.cancel()
            wait(futures)  # the queries already running finish before the step returns
            raise StepError(stream_id, role, exc) from exc
        results[(stream_id, role)] = dist
        flags[stream_id].extend(dist.flags)

    per_stream: list[Distribution] = []
    for s in streams:
        dist = results[(s.stream_id, "positive")]
        if cfg.ritual_views is not None:
            dist = ritual_combine(dist, results[(s.stream_id, "augmented")], space=cfg.space)
        if cfg.tcd is not None:
            dist = tcd_adjust(dist, results[(s.stream_id, "negative")], cfg.tcd)
        per_stream.append(dist)

    w = cfg.resolved_weights()
    mixed = mix_probs(per_stream, w) if cfg.space == "probability" else mix_logits(per_stream, w)
    token = sample_token(mixed, cfg.temperature, seed)

    for s in streams:
        s.generated.append(token)

    stream_records = []
    for s, dist in zip(streams, per_stream):
        probs, top = _truncate(dist, cfg.trace_top_m)
        stream_records.append(
            StreamStepRecord(s.stream_id, probs, top, flags=tuple(dict.fromkeys(flags[s.stream_id])))
        )
    record = StepRecord(
        index=index,
        token=token,
        aggregated=mixed.probs,
        streams=tuple(stream_records),
    )
    return token, record


def build_streams(
    video_ref: str, prompt: str, plan: FrameSelectionPlan
) -> list[StreamContext]:
    return [
        StreamContext(
            stream_id=j,
            frame_set=plan.sets[j],
            view=IDENTITY,
            prompt=prompt,
            generated=[],
            video_ref=video_ref,
        )
        for j in range(plan.streams)
    ]


def decode(
    video_ref: str,
    prompt: str,
    plan: FrameSelectionPlan,
    backend: Scorer,
    cfg: DecodeConfig,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[list[int], DecodeTrace]:
    """Run the decode loop until a stop token or ``max_tokens``.

    Returns the emitted tokens (a terminal stop token is recorded in the
    trace and appended to the streams, per the shared-suffix rule, but not
    included in the returned sequence) and the full trace. Deterministic
    given (plan, config, seed, backend) for any ``jobs`` count.
    """
    if plan.streams != cfg.streams:
        raise ValueError(f"plan has {plan.streams} streams, config expects {cfg.streams}")
    streams = build_streams(video_ref, prompt, plan)
    trace = DecodeTrace()
    tokens: list[int] = []
    executor = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        for t in range(cfg.max_tokens):
            try:
                token, record = step(
                    streams, backend, cfg, _step_seed(seed, t), executor=executor, index=t
                )
            except StepError as exc:
                raise DecodeError(exc, trace, tokens) from exc
            trace.steps.append(record)
            if token in cfg.stop_tokens:
                break
            tokens.append(token)
    finally:
        if executor is not None:
            executor.shutdown(wait=False)
    return tokens, trace
