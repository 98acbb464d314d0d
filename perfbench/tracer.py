"""In-memory spans around vps's public functions, and the per-layer metrics built from them.

Tracing is on only inside :func:`instrument`, which swaps each traced
function at the module or class attribute its caller looks up (for example
``vps.eval_harness.decode`` and ``vps.decode_engine.mix_probs``) and puts the
originals back on exit. A span records its name, start, end, parent span and
request id; the spans of one request (an item-method evaluation, a decode or a
grid run) share the id of their root span. Thread pools that vps creates are
replaced by one that hands the submitting span to the worker thread, so a
stream query scored on a pool thread still has its step as parent.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator

from percentiles import percentile

# span record fields, kept as a list per span for a small memory footprint
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Collects spans and event counts; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple[int, int] | None:
        """(span id, request id) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def adopt(self, context: tuple[int, int] | None) -> Iterator[None]:
        """Open spans on this thread as children of ``context`` (from another thread)."""
        if context is None:
            yield
            return
        stack = self._stack()
        stack.append(context)
        try:
            yield
        finally:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), None, None, None]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(record)
        record[PARENT] = parent[0] if parent else None
        record[REQUEST] = parent[1] if parent else span_id
        stack.append((span_id, record[REQUEST]))
        try:
            yield span_id
        finally:
            stack.pop()
            record[END] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.count(name + ".failed")
                    raise
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, record in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, **dict(zip(keys, record))}) + "\n")


def tracing_executor(tracer: Tracer) -> type[ThreadPoolExecutor]:
    """A ThreadPoolExecutor whose tasks run under the span that submitted them."""

    class TracingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            context = tracer.context()

            def run():
                with tracer.adopt(context):
                    return fn(*args, **kwargs)

            return super().submit(run)

    return TracingExecutor


@contextlib.contextmanager
def patched(target: object, attr: str, value: object) -> Iterator[None]:
    original = getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, original)


def trace_floats(trace) -> int:
    """Floats a DecodeTrace holds: the aggregated vector plus every stream record."""
    total = 0
    for rec in trace.steps:
        total += len(rec.aggregated)
        for s in rec.streams:
            total += (len(s.probs) if s.probs is not None else 0) + 2 * len(s.top or ())
    return total


def record_trace(tracer: Tracer, trace) -> None:
    tracer.count("decode_engine.trace.steps", len(trace.steps))
    tracer.count("decode_engine.trace.floats", trace_floats(trace))


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Trace vps's public functions for the duration of the block."""
    import vps.aggregation as aggregation
    import vps.backends as backends
    import vps.backends.toyworld as toyworld
    import vps.backends.wire as wire
    import vps.decode_engine as decode_engine
    import vps.eval_harness as eval_harness
    import vps.scaling_law as scaling_law

    wire_instances: dict[object, int] = {}  # WireBackend -> retries_total when first traced
    wire_lock = threading.Lock()

    def first_sighting(fn):
        def traced(self, *args, **kwargs):
            with wire_lock:
                wire_instances.setdefault(self, self.retries_total)
            return fn(self, *args, **kwargs)

        return traced

    def note_flags(_args, result) -> None:
        if "topm_renormalized" in result[1]:
            tracer.count("backends.wire.topm_renormalized")

    executor = tracing_executor(tracer)
    swaps = [
        (eval_harness, "ThreadPoolExecutor", executor),
        (decode_engine, "ThreadPoolExecutor", executor),
        (eval_harness, "run_benchmark", tracer.wrap("eval_harness.run_benchmark", eval_harness.run_benchmark)),
        (eval_harness, "evaluate_item", tracer.wrap("eval_harness.evaluate_item", eval_harness.evaluate_item)),
        (eval_harness, "decode", tracer.wrap(
            "decode_engine.decode", eval_harness.decode, lambda _a, r: record_trace(tracer, r[1]))),
        (decode_engine, "step", tracer.wrap("decode_engine.step", decode_engine.step)),
        (decode_engine, "mix_probs", tracer.wrap("aggregation.mix", decode_engine.mix_probs)),
        (decode_engine, "mix_logits", tracer.wrap("aggregation.mix", decode_engine.mix_logits)),
        (decode_engine, "tcd_adjust", tracer.wrap("aggregation.tcd_adjust", decode_engine.tcd_adjust)),
        (decode_engine, "ritual_combine", tracer.wrap("aggregation.ritual_combine", decode_engine.ritual_combine)),
        (decode_engine, "sample_token", tracer.wrap("aggregation.sample_token", decode_engine.sample_token)),
        (aggregation.Distribution, "__post_init__", tracer.wrap(
            "aggregation.distribution.validate", aggregation.Distribution.__post_init__)),
        (toyworld.ToyBackend, "score", tracer.wrap("backends.score", toyworld.ToyBackend.score)),
        (toyworld, "toy_posterior", tracer.wrap("backends.toyworld.posterior", toyworld.toy_posterior)),
        (wire.WireBackend, "score", tracer.wrap("backends.score", wire.WireBackend.score)),
        (wire.WireBackend, "score_response", first_sighting(
            tracer.wrap("backends.wire.transport", wire.WireBackend.score_response))),
        (backends.ScoreResponse, "to_distribution", tracer.wrap(
            "backends.wire.convert", backends.ScoreResponse.to_distribution, note_flags)),
    ]
    for name in ("uniform_offset_plan", "dense_chunk_plan", "bolt_plan", "identical_sets_plan"):
        swaps.append((eval_harness, name, tracer.wrap("frame_selection.plan", getattr(eval_harness, name))))
    # simulate_ce_grid's only public stage is the whole sweep; these are two private helpers it calls,
    # traced while they exist (a refactor that drops one lowers trace.coverage on mc-grid, nothing else)
    accumulator = getattr(scaling_law, "_Accumulator", None)
    for target, attr, name in ((scaling_law, "_mix_equicorrelated", "scaling_law.mix_normals"),
                               (accumulator, "add", "scaling_law.accumulate")):
        if hasattr(target, attr):
            swaps.append((target, attr, tracer.wrap(name, getattr(target, attr))))

    with contextlib.ExitStack() as stack:
        for target, attr, value in swaps:
            stack.enter_context(patched(target, attr, value))
        try:
            yield
        finally:
            retries = sum(b.retries_total - start for b, start in wire_instances.items())
            tracer.count("backends.wire.retries", retries)


# ---------------------------------------------------------------- interval maths


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[list]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for span_id, record in enumerate(spans):
        if record[PARENT] is not None:
            children[record[PARENT]].append(span_id)
    return children


def self_time(spans: list[list], span_id: int, children: dict[int, list[int]]) -> float:
    """Span duration minus the part of its interval its child spans cover."""
    start, end = spans[span_id][START], spans[span_id][END]
    covered = union_length(
        (max(start, spans[c][START]), min(end, spans[c][END]))
        for c in children.get(span_id, ())
        if spans[c][START] < end and spans[c][END] > start
    )
    return (end - start) - covered


# ---------------------------------------------------------------- per-layer metrics

# the vps entry point each operation calls; trace.coverage is the share of their time that layer spans cover
ENTRY_POINTS = ("cli.main", "decode_engine.decode", "scaling_law.simulate_ce_grid")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    items: int,
    overhead_ratio: float,
    server: dict | None = None,
    resampled_ratio: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric named in BENCHMARK.json; a layer that did not run reads 0.

    ``items`` counts the traced run's item-method evaluations (decodes on
    wire-topm), ``server`` is the change in the fixture's counters over the
    traced run.
    """
    spans_all = tracer.spans
    children = children_of(spans_all)
    by_name: dict[str, list[int]] = defaultdict(list)
    for span_id, record in enumerate(spans_all):
        if record[END] is not None:
            by_name[record[NAME]].append(span_id)

    def durations_ms(name: str) -> list[float]:
        return [(spans_all[i][END] - spans_all[i][START]) * 1e3 for i in by_name[name]]

    def self_ms(name: str) -> list[float]:
        return [self_time(spans_all, i, children) * 1e3 for i in by_name[name]]

    def p(values: list[float], q: float) -> float:
        value = percentile(values, q)
        return 0.0 if value is None else value

    steps = len(by_name["decode_engine.step"])
    scores = len(by_name["backends.score"])
    waits, span_sum, span_union = [], 0.0, 0.0
    for step_id in by_name["decode_engine.step"]:
        intervals = [
            (spans_all[c][START], spans_all[c][END])
            for c in children.get(step_id, ())
            if spans_all[c][NAME] == "backends.score"
        ]
        if intervals:
            union = union_length(intervals)
            waits.append(union * 1e3)
            span_union += union
            span_sum += sum(e - s for s, e in intervals)
    entries = [i for name in ENTRY_POINTS for i in by_name[name] if spans_all[i][PARENT] is None]
    entry_s = sum(spans_all[i][END] - spans_all[i][START] for i in entries)
    uncovered_s = sum(self_time(spans_all, i, children) for i in entries)
    server = server or {}
    requests = server.get("requests", 0)
    trace_steps = tracer.counts["decode_engine.trace.steps"]

    metrics = {
        "cli.main.self_ms_per_item": _ratio(sum(self_ms("cli.main")), items),
        "eval_harness.evaluate_item.calls": len(by_name["eval_harness.evaluate_item"]),
        "eval_harness.evaluate_item.self_ms_p50": p(self_ms("eval_harness.evaluate_item"), 50),
        "frame_selection.plan.calls": len(by_name["frame_selection.plan"]),
        "frame_selection.plan.ms_per_item": _ratio(sum(durations_ms("frame_selection.plan")), items),
        "decode_engine.step.calls": steps,
        "decode_engine.step.self_ms_p50": p(self_ms("decode_engine.step"), 50),
        "decode_engine.step.backend_wait_ms_p50": p(waits, 50),
        "decode_engine.step.fanout_overlap": _ratio(span_sum, span_union),
        "decode_engine.trace.floats_per_step": _ratio(tracer.counts["decode_engine.trace.floats"], trace_steps),
        "backends.score.ms_p50": p(durations_ms("backends.score"), 50),
        "backends.score.ms_p90": p(durations_ms("backends.score"), 90),
        "backends.score.calls_per_item": _ratio(scores, items),
        "backends.score.failed": tracer.counts["backends.score.failed"],
        "backends.wire.retries": tracer.counts["backends.wire.retries"],
        "backends.wire.transport_ms_p50": p(durations_ms("backends.wire.transport"), 50),
        "backends.wire.convert_ms_p50": p(durations_ms("backends.wire.convert"), 50),
        "backends.wire.connections_per_request": _ratio(server.get("connections", 0), requests),
        "backends.wire.reply_bytes_per_request": _ratio(server.get("reply_bytes", 0), requests),
        "backends.wire.topm_renormalized_per_request": _ratio(
            tracer.counts["backends.wire.topm_renormalized"], len(by_name["backends.wire.convert"])),
        "backends.toyworld.posterior_ms_per_call": _ratio(
            sum(durations_ms("backends.toyworld.posterior")), len(by_name["backends.toyworld.posterior"])),
        "aggregation.distribution.constructions_per_score": _ratio(
            len(by_name["aggregation.distribution.validate"]), scores),
        "aggregation.distribution.validate_ms_per_step": _ratio(
            sum(durations_ms("aggregation.distribution.validate")), steps),
        "aggregation.mix.ms_per_step": _ratio(sum(durations_ms("aggregation.mix")), steps),
        "aggregation.tcd_adjust.ms_per_step": _ratio(sum(durations_ms("aggregation.tcd_adjust")), steps),
        "aggregation.ritual_combine.ms_per_step": _ratio(sum(durations_ms("aggregation.ritual_combine")), steps),
        "aggregation.sample_token.ms_per_step": _ratio(sum(durations_ms("aggregation.sample_token")), steps),
        "scaling_law.simulate_ce_grid.s": p(durations_ms("scaling_law.simulate_ce_grid"), 50) / 1e3,
        "scaling_law.resampled_ratio": resampled_ratio,
        "server.busy_ms_per_request": _ratio(server.get("busy_s", 0.0) * 1e3, requests),
        "trace.coverage": _ratio(entry_s - uncovered_s, entry_s),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: float(value) for name, value in metrics.items()}
