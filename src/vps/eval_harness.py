"""Benchmark procedures: items, prompt scaffolds, answer extraction, voting.

Ingests line-delimited JSON datasets of multiple-choice, binary, and
description items, builds the fixed prompt scaffolds, extracts answers
robustly (an unparseable output counts as wrong, never crashes), and runs
the compute-matched method comparison: parallel frame-subset streams versus
majority voting over samples that all saw the same frames.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 - unused; perfbench/tracer.py swaps it
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .aggregation import TcdConfig
from .backends import Scorer
from .decode_engine import DecodeConfig, DecodeError, Decoder, DecodeTrace, run_lockstep
from .decode_engine import decode  # noqa: F401 - unused; perfbench/tracer.py swaps it
from .frame_selection import (
    FrameSelectionPlan,
    bolt_plan,
    BoltConfig,
    dense_chunk_plan,
    identical_sets_plan,
    uniform_offset_plan,
)
from .seeds import child_seeds, derive_seed

__all__ = [
    "TASKS",
    "toy_benchmark",
    "score_description_results",
    "description_rows",
    "MC_SCAFFOLD",
    "BINARY_SCAFFOLD",
    "DESCRIPTION_SCAFFOLD",
    "EvalItem",
    "MethodResult",
    "MethodSpec",
    "DatasetError",
    "build_prompt",
    "extract_answer",
    "majority_vote",
    "accuracy",
    "load_dataset",
    "save_dataset",
    "tokens_to_text",
    "method_decodes",
    "evaluate_item",
    "run_benchmark",
]

TASKS = ("multiple_choice", "binary", "description")

MC_SCAFFOLD = (
    "Your response should be a single character: A, B, C, or D. "
    "Do not include any other text or explanation."
)
BINARY_SCAFFOLD = "Please answer yes or no."
DESCRIPTION_SCAFFOLD = "Summarize the video in one sentence."

RITUAL_TAG_POOL = ("hflip", "vflip", "rot180", "color_jitter", "gaussian_blur")

# items whose decodes run_benchmark drives in lock step at a time: it bounds
# the requests, replies and decoders held at once
LOCKSTEP_ITEMS = 16


class DatasetError(ValueError):
    """A dataset record failed validation; names the line and field."""

    def __init__(self, line: int, fieldname: str, message: str) -> None:
        super().__init__(f"line {line}, field {fieldname!r}: {message}")
        self.line = line
        self.fieldname = fieldname


@dataclass(frozen=True)
class EvalItem:
    """One benchmark item; ``options`` present iff the task is multiple choice."""

    id: str
    video_ref: str
    total_frames: int
    task: str
    question: str
    reference: str
    category: str = ""
    options: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.total_frames < 1:
            raise ValueError("total_frames must be positive")
        if self.task == "multiple_choice":
            if not self.options or len(self.options) > 4:  # MC_SCAFFOLD and _MC_ANSWER name A-D
                raise ValueError(f"multiple_choice items need 1 to 4 options, got {len(self.options or ())}")
            object.__setattr__(self, "options", tuple(self.options))
            letters = string.ascii_uppercase[: len(self.options)]
            if self.reference.upper() not in letters:
                raise ValueError(f"reference {self.reference!r} is not an option letter")
        else:
            if self.options is not None:
                raise ValueError(f"{self.task} items must not carry options")
            if self.task == "binary" and self.reference.lower() not in ("yes", "no"):
                raise ValueError(f"binary reference must be yes/no, got {self.reference!r}")


@dataclass(frozen=True)
class MethodResult:
    """One method's output on one item, with extracted answer and scores.

    ``error`` is set when a decode failed: the backend exception's class,
    the stream and role of the failed query, and its message; ``extracted``
    is then None.
    """

    item_id: str
    method: str
    raw_output: str
    extracted: str | None
    scores: dict[str, float] = field(default_factory=dict)
    error: dict[str, object] | None = None

    def to_json(self) -> str:
        record = {
            "item_id": self.item_id,
            "method": self.method,
            "raw_output": self.raw_output,
            "extracted": self.extracted,
            "scores": self.scores,
        }
        if self.error is not None:
            record["error"] = self.error
        return json.dumps(record, sort_keys=True)


def build_prompt(item: EvalItem) -> str:
    """Question (plus lettered options) followed by the task's exact scaffold."""
    parts = []
    if item.question:
        parts.append(item.question)
    if item.task == "multiple_choice":
        assert item.options is not None
        letters = string.ascii_uppercase
        parts.extend(f"{letters[i]}. {opt}" for i, opt in enumerate(item.options))
        parts.append(MC_SCAFFOLD)
    elif item.task == "binary":
        parts.append(BINARY_SCAFFOLD)
    else:
        parts.append(DESCRIPTION_SCAFFOLD)
    return "\n".join(parts)


_MC_ANSWER = re.compile(r"\b([A-Da-d])\b")
_BINARY_ANSWER = re.compile(r"^\W*(yes|no)\b", re.IGNORECASE)


def extract_answer(raw: str, task: str) -> str | None:
    """Pull the answer out of a raw model output; None when unparseable.

    Multiple choice: the first standalone A-D letter, case-insensitive.
    Binary: the leading yes/no token. Description: the text itself.
    """
    if task == "multiple_choice":
        match = _MC_ANSWER.search(raw)
        return match.group(1).upper() if match else None
    if task == "binary":
        match = _BINARY_ANSWER.match(raw)
        return match.group(1).lower() if match else None
    if task == "description":
        return raw
    raise ValueError(f"unknown task {task!r}")


def majority_vote(answers: Sequence[str | None]) -> str | None:
    """Most common parseable answer; ties broken lexicographically."""
    votes = [a for a in answers if a is not None]
    if not votes:
        return None
    counts = Counter(votes)
    best = max(counts.values())
    return min(a for a, c in counts.items() if c == best)


def tokens_to_text(tokens: Sequence[int], backend: Scorer) -> str:
    """Join token texts via the backend's vocabulary when it has one."""
    to_text: Callable[[int], str] = getattr(backend, "token_text", str)
    return "".join(to_text(t) for t in tokens)


# one decode of an item: its frame plan, its settings and its seed
Decode = tuple[FrameSelectionPlan, DecodeConfig, int]


def _run_decodes(
    work: Sequence[tuple[EvalItem, Sequence[Decode]]],
    backend: Scorer,
    jobs: int = 1,
    trace: DecodeTrace | None = None,
) -> tuple[list[list[str] | DecodeError], int]:
    """Run every item's (plan, config, seed) decodes, all in lock step (see
    :func:`vps.decode_engine.run_lockstep`). Per item: the text each of its
    decodes emits, or the :class:`DecodeError` that ended them; and the
    replies all decodes read. Only the first item's first decode is traced,
    and only when ``trace`` is given: its steps are appended to ``trace``,
    up to a failure."""
    groups = []
    for item, decodes in work:
        prompt = build_prompt(item)
        groups.append([
            Decoder(item.video_ref, prompt, plan, cfg, s, keep_trace=trace is not None and not groups and k == 0)
            for k, (plan, cfg, s) in enumerate(decodes)
        ])
    errors = run_lockstep(groups, backend, jobs)
    if trace is not None:
        trace.steps.extend(groups[0][0].trace.steps)
    outcomes = [
        error if error is not None else [tokens_to_text(d.tokens, backend) for d in decoders]
        for decoders, error in zip(groups, errors)
    ]
    return outcomes, sum(d.calls for decoders in groups for d in decoders)


def _is_correct(item: EvalItem, extracted: str | None) -> bool:
    if extracted is None:
        return False
    if item.task == "multiple_choice":
        return extracted.upper() == item.reference.upper()
    if item.task == "binary":
        return extracted.lower() == item.reference.lower()
    return extracted == item.reference


def accuracy(
    results: Sequence[MethodResult], items: Sequence[EvalItem]
) -> dict[str, dict[str, float]]:
    """Fraction correct per method, per category and overall.

    Unparseable outputs and failed decodes count as incorrect; the
    denominator is always the number of scored items.
    """
    by_id = {item.id: item for item in items}
    table: dict[str, dict[str, list[bool]]] = {}
    for res in results:
        item = by_id[res.item_id]
        if item.task == "description":
            continue
        outcomes = table.setdefault(res.method, {})
        correct = _is_correct(item, res.extracted)
        outcomes.setdefault(item.category or "uncategorized", []).append(correct)
        outcomes.setdefault("overall", []).append(correct)
    return {
        method: {cat: float(np.mean(vals)) for cat, vals in cats.items()}
        for method, cats in table.items()
    }


_ITEM_FIELDS = ("id", "video_ref", "total_frames", "task", "question", "reference")


def load_dataset(path) -> list[EvalItem]:
    """Read line-delimited JSON items, validating each record; item ids must be unique."""
    items: dict[str, EvalItem] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(lineno, "-", f"not valid JSON: {exc}") from None
            for fieldname in _ITEM_FIELDS:
                if fieldname not in raw:
                    raise DatasetError(lineno, fieldname, "missing")
            try:
                item = EvalItem(
                    id=str(raw["id"]),
                    video_ref=str(raw["video_ref"]),
                    total_frames=int(raw["total_frames"]),
                    task=str(raw["task"]),
                    question=str(raw["question"]),
                    reference=str(raw["reference"]),
                    category=str(raw.get("category", "")),
                    options=tuple(raw["options"]) if raw.get("options") is not None else None,
                )
            except ValueError as exc:
                raise DatasetError(lineno, "options" if "options" in str(exc) else "record", str(exc)) from None
            if item.id in items:
                raise DatasetError(lineno, "id", f"{item.id!r} repeats an earlier item's id")
            items[item.id] = item
    return list(items.values())


def save_dataset(items: Sequence[EvalItem], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            record = {
                "id": item.id,
                "video_ref": item.video_ref,
                "total_frames": item.total_frames,
                "task": item.task,
                "question": item.question,
                "reference": item.reference,
                "category": item.category,
            }
            if item.options is not None:
                record["options"] = list(item.options)
            fh.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass(frozen=True)
class MethodSpec:
    """Parsed method tag: baseline | vps:J | sc:J, with +tcd / +ritual add-ons."""

    kind: str
    streams: int = 1
    tcd: bool = False
    ritual: bool = False

    @classmethod
    def parse(cls, tag: str) -> "MethodSpec":
        base, *mods = tag.strip().split("+")
        base = base.strip()
        if base == "baseline":
            kind, streams = "baseline", 1
        elif base.startswith(("vps:", "sc:")):
            kind, _, j = base.partition(":")
            try:
                streams = int(j)
            except ValueError:
                raise ValueError(f"bad stream count in method tag {tag!r}") from None
            if streams < 1:
                raise ValueError(f"stream count must be positive in {tag!r}")
        else:
            raise ValueError(f"unknown method tag {tag!r}")
        tcd = ritual = False
        for mod in mods:
            mod = mod.strip()
            if mod == "tcd":
                tcd = True
            elif mod == "ritual":
                ritual = True
            else:
                raise ValueError(f"unknown method modifier {mod!r} in {tag!r}")
        if kind == "sc" and (tcd or ritual):
            raise ValueError("tcd/ritual modifiers do not apply to self-consistency")
        return cls(kind, streams, tcd, ritual)

    @property
    def tag(self) -> str:
        base = "baseline" if self.kind == "baseline" else f"{self.kind}:{self.streams}"
        return base + ("+tcd" if self.tcd else "") + ("+ritual" if self.ritual else "")


# the frame plan strategies of _build_plan, by name
STRATEGIES = ("uniform", "dense", "bolt")


def _build_plan(
    strategy: str,
    total_frames: int,
    frames_per_stream: int,
    streams: int,
    seed: int,
    bolt: BoltConfig | None = None,
) -> FrameSelectionPlan:
    """The frame plan of a named strategy; ``bolt`` carries BOLT's scores."""
    if strategy == "uniform":
        return uniform_offset_plan(total_frames, frames_per_stream, streams)
    if strategy == "dense":
        return dense_chunk_plan(total_frames, frames_per_stream, streams)
    if strategy == "bolt":
        if bolt is None:
            raise ValueError("bolt strategy needs per-frame relevance scores")
        return bolt_plan(bolt, frames_per_stream, streams, seed)
    raise ValueError(f"unknown strategy {strategy!r}")


def method_decodes(
    item: EvalItem,
    method: MethodSpec,
    frames_per_stream: int,
    seed: int,
    strategy: str = "uniform",
    space: str = "probability",
    temperature: float = 1.0,
    max_tokens: int = 8,
    stop_tokens: frozenset[int] = frozenset(),
    bolt_scores: Sequence[float] | None = None,
) -> list[Decode]:
    """The (plan, config, seed) of every decode ``method`` runs on ``item``.

    A mixture method runs one greedy J-stream decode; ``sc:J`` runs J
    single-stream samples at ``temperature`` over one frame set (sample
    ``s`` seeded ``child_seeds([seed], [s])``), so a difference from the
    frame-subset mixture comes from the inputs, not the voting.
    """
    decodes = _method_decodes(method, frames_per_stream, strategy, space, temperature, max_tokens, stop_tokens)
    (got,) = decodes([(item, seed, bolt_scores)])
    return got


def _method_decodes(
    method: MethodSpec, frames_per_stream: int, strategy: str, space: str, temperature: float, max_tokens: int,
    stop_tokens: frozenset[int],
) -> Callable[[Sequence[tuple[EvalItem, int, Sequence[float] | None]]], list[list[Decode]]]:
    """:func:`method_decodes` for each (item, seed, BOLT scores) of a chunk
    of one method: its config is built once, its plan once per frame count
    (BOLT's, seeded and scored per item, once per item), and the chunk's
    ``sc:J`` sample seeds in one :func:`~vps.seeds.child_seeds` call."""
    sc = method.kind == "sc"
    cfg = DecodeConfig(
        streams=1 if sc else method.streams,
        space="probability" if sc else space,  # type: ignore[arg-type]
        temperature=temperature if sc else 0.0,
        max_tokens=max_tokens,
        stop_tokens=stop_tokens,
        tcd=TcdConfig() if method.tcd else None,
        ritual_views=tuple(RITUAL_TAG_POOL[j % len(RITUAL_TAG_POOL)] for j in range(method.streams))
        if method.ritual else None,
    )
    plans: dict[int, FrameSelectionPlan] = {}  # by frame count: items of one length share a plan

    def plan(item: EvalItem, seed: int, bolt_scores: Sequence[float] | None) -> FrameSelectionPlan:
        frames = item.total_frames
        if sc:
            return plans.get(frames) or plans.setdefault(frames, identical_sets_plan(frames, frames_per_stream, 1))
        bolt = BoltConfig(tuple(bolt_scores)) if bolt_scores is not None else None
        if strategy == "bolt":
            return _build_plan(strategy, frames, frames_per_stream, method.streams, seed, bolt)
        return plans.get(frames) or plans.setdefault(
            frames, _build_plan(strategy, frames, frames_per_stream, method.streams, seed))

    def decodes(chunk: Sequence[tuple[EvalItem, int, Sequence[float] | None]]) -> list[list[Decode]]:
        if not sc:
            return [[(plan(*work), cfg, work[1])] for work in chunk]
        j = method.streams
        seeds = iter(child_seeds([seed for _, seed, _ in chunk for _ in range(j)], list(range(j)) * len(chunk)))
        return [[(plan(*work), cfg, next(seeds)) for _ in range(j)] for work in chunk]

    return decodes


def evaluate_item(
    item: EvalItem,
    method: MethodSpec,
    backend: Scorer,
    frames_per_stream: int,
    seed: int,
    strategy: str = "uniform",
    space: str = "probability",
    temperature: float = 1.0,
    max_tokens: int = 8,
    stop_tokens: frozenset[int] = frozenset(),
    bolt_scores: Sequence[float] | None = None,
) -> MethodResult:
    """Run one method (``sc:J`` included) on one item and extract its answer.

    ``temperature`` only applies to the self-consistency samples; mixture
    methods decode greedily from the fused distribution. Seeded with item
    ``i``'s seed of a run, ``derive_seed(run_seed, i)``, this is that item's
    :func:`run_benchmark` result; a failed decode raises its
    :class:`DecodeError`.
    """
    decodes = method_decodes(
        item, method, frames_per_stream, seed, strategy=strategy, space=space, temperature=temperature,
        max_tokens=max_tokens, stop_tokens=stop_tokens, bolt_scores=bolt_scores,
    )
    (outcome,), _ = _run_decodes([(item, decodes)], backend)
    if isinstance(outcome, DecodeError):
        raise outcome
    return _method_result(item, method, outcome)


def _method_result(item: EvalItem, method: MethodSpec, outputs: Sequence[str]) -> MethodResult:
    """The answer a method extracts from its decodes' texts: a vote for ``sc:J``."""
    if method.kind == "sc":
        vote = majority_vote([extract_answer(text, item.task) for text in outputs])
        return MethodResult(item.id, method.tag, raw_output="", extracted=vote)
    return MethodResult(item.id, method.tag, raw_output=outputs[0], extracted=extract_answer(outputs[0], item.task))


def _failed_result(item: EvalItem, method: MethodSpec, failure: DecodeError) -> MethodResult:
    error = {"type": type(failure.cause).__name__, "stream": failure.stream_id, "role": failure.role,
             "message": str(failure.cause)}
    return MethodResult(item.id, method.tag, raw_output="", extracted=None, error=error)


def run_benchmark(
    items: Sequence[EvalItem],
    backend: Scorer,
    methods: Sequence[MethodSpec],
    frames_per_stream: int,
    seed: int,
    strategy: str = "uniform",
    space: str = "probability",
    temperature: float = 1.0,
    max_tokens: int = 8,
    stop_tokens: frozenset[int] = frozenset(),
    bolt_scores: Mapping[str, Sequence[float]] | None = None,
    jobs: int = 1,
    trace: DecodeTrace | None = None,
) -> tuple[list[MethodResult], dict[str, int]]:
    """Evaluate every method over the dataset; returns results plus call audit.

    The decodes of a method (every item, every ``sc:J`` sample) run in lock
    step, ``LOCKSTEP_ITEMS`` items at a time: each round's pending steps of
    all of them go to the scorer's ``score_batch`` in one call, with up to
    ``jobs`` queries in flight at once (see
    :func:`vps.decode_engine.run_lockstep`). Results are ordered by
    (method, item) regardless of schedule. The audit maps each method tag
    to the replies its decodes read, a failed query included, for
    compute-matched comparisons. A failed query fails only its item x
    method: its result carries the ``error`` and the run goes on. Any other
    exception, a ``score_batch`` call that raises or a wrong number of
    replies included, aborts the run. Given a ``trace``, the run records
    into it the steps of its first decode: the first item under the first
    method (for ``sc:J``, its first sample), up to a failure.
    """
    audit: dict[str, int] = {}
    results: list[MethodResult] = []
    seeds = [derive_seed(seed, i) for i in range(len(items))]
    for method in methods:
        audit[method.tag] = 0
        method_results = []
        decodes = _method_decodes(method, frames_per_stream, strategy, space, temperature, max_tokens, stop_tokens)
        for start in range(0, len(items), LOCKSTEP_ITEMS):
            chunk = items[start:start + LOCKSTEP_ITEMS]
            work = list(zip(chunk, decodes([
                (item, seeds[idx], bolt_scores.get(item.video_ref) if bolt_scores else None)
                for idx, item in enumerate(chunk, start)
            ])))
            outcomes, calls = _run_decodes(work, backend, jobs, trace)
            audit[method.tag] += calls
            method_results.extend(
                _failed_result(item, method, outcome) if isinstance(outcome, DecodeError)
                else _method_result(item, method, outcome)
                for (item, _), outcome in zip(work, outcomes)
            )
            trace = None  # only the run's first decode is traced
        method_results.sort(key=lambda r: r.item_id)
        results.extend(method_results)
    return results, audit


def toy_benchmark(
    world, n_episodes: int, total_frames: int, seed: int
) -> tuple[list[EvalItem], "ToyBackend"]:
    """Generate a toy-world dataset plus the backend that can score it."""
    from .backends.toyworld import ToyBackend, toy_episode

    backend = ToyBackend(world)
    items = []
    for e in range(n_episodes):
        episode = toy_episode(world, total_frames, derive_seed(seed, e))
        backend.add_episode(episode)
        items.append(
            EvalItem(
                id=f"toy-{e:05d}",
                video_ref=episode.video_ref,
                total_frames=total_frames,
                task="multiple_choice",
                question=episode.question,
                reference=episode.answer_letter,
                category="toy",
                options=episode.options,
            )
        )
    return items, backend


def score_description_results(
    results: Sequence[MethodResult],
    items: Sequence[EvalItem],
    embed_client=None,
    judge_client=None,
) -> None:
    """Attach rouge_l (always) and sts/judge (when clients given) to
    description-task results. Metric failures leave the entry absent."""
    from . import metrics

    by_id = {item.id: item for item in items}
    for res in results:
        item = by_id[res.item_id]
        if item.task != "description" or res.extracted is None:
            continue
        res.scores["rouge_l"] = metrics.rouge_l(res.extracted, item.reference)
        if embed_client is not None:
            sts = metrics.sts_score(res.extracted, item.reference, embed_client)
            if sts is not None:
                res.scores["sts"] = sts
        if judge_client is not None:
            rating = metrics.judge_score(res.extracted, item.reference, judge_client)
            if rating is not None:
                res.scores["llm_judge"] = float(rating)


def description_rows(
    results: Sequence[MethodResult],
    items: Sequence[EvalItem],
    frames_per_stream: int,
) -> list[dict[str, object]]:
    """Per-(method, nframe) means of the description metrics (table rows)."""
    by_id = {item.id: item for item in items}
    grouped: dict[str, dict[str, list[float]]] = {}
    for res in results:
        if by_id[res.item_id].task != "description":
            continue
        cell = grouped.setdefault(res.method, {})
        for name, value in res.scores.items():
            cell.setdefault(name, []).append(value)
    rows = []
    for method, cell in sorted(grouped.items()):
        row: dict[str, object] = {"method": method, "nframe": frames_per_stream}
        for name in ("llm_judge", "sts", "rouge_l"):
            values = cell.get(name)
            row[name] = float(np.mean(values)) if values else None
        row["sts_x100"] = row["sts"] * 100.0 if row["sts"] is not None else None
        rows.append(row)
    return rows
