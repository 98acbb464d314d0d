"""The four benchmark workloads, each driving vps only through a public entry point.

A workload builds its inputs from the benchmark seed in :meth:`setup`, then
:meth:`op` runs one timed unit of work and checks its outputs. Check failures
are counted and reported, never raised. Throughput is counted in ``work``
units: item-method evaluations (toy-eval, wire-full), decoded tokens
(wire-topm) and Monte Carlo samples (mc-grid).

- ``toy-eval``: ``vps run --backend toy``; per-call Python overhead.
- ``wire-full``: ``vps run --backend wire`` with full V=32000 score vectors.
- ``wire-topm``: ``decode()`` against top-20 replies with J=8 and TCD.
- ``mc-grid``: ``simulate_ce_grid`` at the criterion-4 shape.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vps.cli
import vps.decode_engine
import vps.scaling_law
from vps.aggregation import TcdConfig
from vps.backends import ScoreRequest
from vps.backends.wire import WireBackend, WireConfig
from vps.frame_selection import uniform_offset_plan

from tracer import record_trace

TOTAL_FRAMES = 64
FRAMES_PER_STREAM = 4
WIRE_VOCAB = 32000
TOP_M = 20


@dataclass
class OpResult:
    """One timed unit: work done, operations attempted and failed, latencies."""

    work: float
    attempted: int
    failed: int = 0
    latency_ms: float | None = None  # wall time per unit of work
    problems: list[str] = field(default_factory=list)
    requests: int = 0  # backend requests the client issued, for the wire workloads


class Workload:
    name = ""
    work_unit = ""
    server_vocab: int | None = None  # start the fixture server with this vocabulary

    def __init__(self, seed: int, work_dir: Path, endpoint: str | None = None) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.endpoint = endpoint
        self.tracer = None  # set by the runner for the traced run

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def setup(self) -> None:
        """Build inputs and backends, up to and including the first connection."""

    def op(self) -> OpResult:
        raise NotImplementedError

    def loop_checks(self, results: list[OpResult], server: dict | None) -> list[str]:
        """The fixture must have received exactly the requests the client issued."""
        if server is None or any(r.failed for r in results):
            return []
        issued = sum(r.requests for r in results)
        if server["requests"] != issued:
            return [f"server received {server['requests']} requests, the client issued {issued}"]
        return []

    def sizes(self) -> dict:
        return {}

    def info(self, results: list[OpResult], server: dict | None) -> dict:
        """Workload-specific figures printed beside the metrics."""
        return {}

    def first_connection(self, backend: WireBackend) -> None:
        backend.score(ScoreRequest("setup", (0,), "identity", "setup", (), top_m=TOP_M))

    def run_cli(self, argv: list[str]) -> int:
        with self.span("cli.main"):
            return vps.cli.main(argv)


class ToyEval(Workload):
    name = "toy-eval"
    work_unit = "item-method evaluations"
    episodes = 100
    methods = ("vps:1", "vps:8", "sc:8", "vps:8+tcd+ritual")
    calls_per_item = {"vps:1": 1, "vps:8": 8, "sc:8": 8, "vps:8+tcd+ritual": 24}

    def setup(self) -> None:
        self.out_dir = self.work_dir / "toy-run"
        self.first_accuracy: dict | None = None

    def sizes(self) -> dict:
        return {"episodes": self.episodes, "methods": list(self.methods), "labels": 4,
                "match_prob": 0.55, "T": TOTAL_FRAMES, "k": FRAMES_PER_STREAM, "max_tokens": 1}

    def op(self) -> OpResult:
        evaluations = self.episodes * len(self.methods)
        argv = [
            "run", "--backend", "toy", "--toy-episodes", str(self.episodes), "--toy-labels", "4",
            "--toy-match-prob", "0.55", "--toy-total-frames", str(TOTAL_FRAMES),
            "--k", str(FRAMES_PER_STREAM), "--max-tokens", "1", "--jobs", "1",
            "--methods", ",".join(self.methods), "--seed", str(self.seed), "--out-dir", str(self.out_dir),
        ]
        start = time.perf_counter()
        code = self.run_cli(argv)
        wall_ms = (time.perf_counter() - start) * 1e3
        if code != 0:
            return OpResult(work=0, attempted=evaluations, failed=evaluations,
                            problems=[f"vps run exited with {code}"])
        result = OpResult(work=evaluations, attempted=evaluations, latency_ms=wall_ms / evaluations)
        summary = json.loads((self.out_dir / "summary.json").read_text(encoding="utf-8"))
        acc = {m: summary["accuracy"][m]["overall"] for m in self.methods}
        if not acc["vps:1"] <= acc["vps:8"]:
            result.problems.append(f"vps:1 accuracy {acc['vps:1']} above vps:8 {acc['vps:8']}")
        if not acc["vps:8"] > acc["sc:8"]:
            result.problems.append(f"vps:8 accuracy {acc['vps:8']} not above sc:8 {acc['sc:8']}")
        for method, per_item in self.calls_per_item.items():
            expected = per_item * self.episodes
            if summary["backend_calls"].get(method) != expected:
                result.problems.append(
                    f"{method}: {summary['backend_calls'].get(method)} backend calls, expected {expected}")
        if self.first_accuracy is None:
            self.first_accuracy = acc
        elif acc != self.first_accuracy:
            result.problems.append("accuracy changed between identical runs")
        return result

    def info(self, results, server) -> dict:
        return {"accuracy": self.first_accuracy["vps:8"] if self.first_accuracy else None}


def answer_vocab(size: int) -> list[str]:
    return ["A", "B", "C", "D", " "] + [f"<t{i}>" for i in range(5, size)]


class WireFull(Workload):
    name = "wire-full"
    work_unit = "item-method evaluations"
    server_vocab = WIRE_VOCAB
    items = 2
    methods = ("baseline", "vps:8+tcd")
    jobs = 1  # two would overlap only whole items, and made runs swing with slow spells on the second core (README)

    def sizes(self) -> dict:
        return {"items": self.items, "methods": list(self.methods), "V": WIRE_VOCAB, "T": TOTAL_FRAMES,
                "k": FRAMES_PER_STREAM, "max_tokens": 2, "jobs": self.jobs}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.dataset = self.work_dir / "wire-items.jsonl"
        self.vocab = self.work_dir / "wire-vocab.json"
        self.out_dir = self.work_dir / "wire-run"
        lines = []
        for i in range(self.items):
            lines.append(json.dumps({
                "id": f"item-{i:03d}",
                "video_ref": f"video-{self.seed}-{i}",
                "total_frames": TOTAL_FRAMES,
                "task": "multiple_choice",
                "question": f"What happens in clip {rng.randrange(10**6)}?",
                "options": [f"event {rng.randrange(100)}" for _ in range(4)],
                "reference": rng.choice("ABCD"),
                "category": rng.choice(("action", "object", "count")),
            }))
        self.dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.vocab.write_text(json.dumps(answer_vocab(WIRE_VOCAB)), encoding="utf-8")
        self.first_connection(WireBackend(WireConfig(self.endpoint)))

    def op(self) -> OpResult:
        evaluations = self.items * len(self.methods)
        argv = [
            "run", "--backend", "wire", "--endpoint", self.endpoint, "--dataset", str(self.dataset),
            "--vocab", str(self.vocab), "--methods", ",".join(self.methods),
            "--k", str(FRAMES_PER_STREAM), "--max-tokens", "2", "--jobs", str(self.jobs),
            "--seed", str(self.seed), "--out-dir", str(self.out_dir),
        ]
        start = time.perf_counter()
        code = self.run_cli(argv)
        wall_ms = (time.perf_counter() - start) * 1e3
        if code != 0:
            return OpResult(work=0, attempted=evaluations, failed=evaluations,
                            problems=[f"vps run exited with {code}"])
        result = OpResult(work=evaluations, attempted=evaluations, latency_ms=wall_ms / evaluations)
        summary = json.loads((self.out_dir / "summary.json").read_text(encoding="utf-8"))
        result.requests = sum(summary["backend_calls"].values())
        lines = (self.out_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
        seen = {(r["item_id"], r["method"]) for r in map(json.loads, lines)}
        expected = {(f"item-{i:03d}", m) for i in range(self.items) for m in self.methods}
        if seen != expected:
            result.problems.append(f"{len(expected - seen)} item-method pairs have no result")
        return result

    def info(self, results, server) -> dict:
        evaluations = sum(r.attempted for r in results)
        return {"requests_per_item": server["requests"] / evaluations if server and evaluations else None}


class WireTopM(Workload):
    name = "wire-topm"
    work_unit = "decoded tokens"
    server_vocab = WIRE_VOCAB
    streams = 8
    max_tokens = 4
    videos = 16
    jobs = 2

    def sizes(self) -> dict:
        return {"J": self.streams, "tcd": True, "score_top_m": TOP_M, "V": WIRE_VOCAB, "jobs": self.jobs,
                "max_tokens": self.max_tokens, "videos": self.videos, "space": "probability"}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.inputs = [
            (f"video-{self.seed}-{i}", f"Describe clip {rng.randrange(10**6)}.", rng.randrange(2**31))
            for i in range(self.videos)
        ]
        self.plan = uniform_offset_plan(TOTAL_FRAMES, FRAMES_PER_STREAM, self.streams)
        self.cfg = vps.decode_engine.DecodeConfig(
            streams=self.streams, space="probability", max_tokens=self.max_tokens,
            tcd=TcdConfig(), score_top_m=TOP_M,
        )
        self.backend = WireBackend(WireConfig(self.endpoint))
        self.next_input = 0
        self.first_connection(self.backend)

    def op(self) -> OpResult:
        video_ref, prompt, seed = self.inputs[self.next_input % len(self.inputs)]
        self.next_input += 1
        start = time.perf_counter()
        try:
            with self.span("decode_engine.decode"):
                tokens, trace = vps.decode_engine.decode(
                    video_ref, prompt, self.plan, self.backend, self.cfg, seed=seed, jobs=self.jobs)
        except vps.decode_engine.DecodeError as exc:
            return OpResult(work=0, attempted=1, failed=1, problems=[f"decode failed: {exc}"])
        wall_ms = (time.perf_counter() - start) * 1e3
        steps = len(trace.steps)
        result = OpResult(work=steps, attempted=1, latency_ms=wall_ms / max(steps, 1),
                          requests=steps * self.streams * 2)  # J positive and J negative queries per step
        if self.tracer is not None:
            record_trace(self.tracer, trace)
        if steps != self.max_tokens or len(tokens) != steps:
            result.problems.append(f"{steps} steps and {len(tokens)} tokens, expected {self.max_tokens}")
        for rec in trace.steps:
            aggregated = np.asarray(rec.aggregated)
            if rec.token != int(np.argmax(aggregated)):
                result.problems.append(f"step {rec.index}: token {rec.token} is not the argmax")
            if abs(aggregated.sum() - 1.0) > 1e-9:
                result.problems.append(f"step {rec.index}: aggregated sums to {aggregated.sum()!r}")
        return result

    def info(self, results, server) -> dict:
        tokens = sum(r.work for r in results)
        return {"requests_per_token": server["requests"] / tokens if server and tokens else None}


class McGrid(Workload):
    name = "mc-grid"
    work_unit = "Monte Carlo samples"
    samples = 1 << 13
    streams = (1, 2, 4, 8)
    correlations = (0.0, 0.5, 1.0)
    capacity = 1e-3

    def sizes(self) -> dict:
        return {"V": 64, "samples": self.samples, "J": list(self.streams), "rho": list(self.correlations),
                "dtype": "float32"}

    def setup(self) -> None:
        self.params = vps.scaling_law.ScalingParams(0.0, self.capacity, 1.0, 1.0, 0.0, (0.0,) * max(self.streams))
        self.spec = vps.scaling_law.SimSpec(64, self.samples, self.seed, self.params)
        self.resampled = 0

    def op(self) -> OpResult:
        start = time.perf_counter()
        try:
            with self.span("scaling_law.simulate_ce_grid"):
                grid = vps.scaling_law.simulate_ce_grid(
                    self.spec, self.streams, self.correlations, dtype=np.float32)
        except (ValueError, vps.scaling_law.ScaleError) as exc:
            return OpResult(work=0, attempted=1, failed=1, problems=[f"grid failed: {exc}"])
        wall_ms = (time.perf_counter() - start) * 1e3
        result = OpResult(work=self.samples, attempted=1, latency_ms=wall_ms)
        for rho in self.correlations:
            for J in self.streams:
                params = vps.scaling_law.ScalingParams(0.0, self.capacity, 1.0, 1.0, rho, (0.0,) * J)
                predicted = vps.scaling_law.vps_loss(params, J)
                rel = abs(grid[(rho, J)].mixture_excess - predicted) / predicted
                if rel >= 0.10:
                    result.problems.append(f"rho={rho} J={J}: {rel:.2%} from the closed form")
        self.resampled = grid[(self.correlations[0], self.streams[0])].resampled
        return result

    def info(self, results, server) -> dict:
        return {"resampled_ratio": self.resampled / self.samples}


WORKLOADS = {w.name: w for w in (ToyEval, WireFull, WireTopM, McGrid)}
