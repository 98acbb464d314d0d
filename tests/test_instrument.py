"""The per-layer instrument of ``perfbench/`` still sees a decode: the names
it patches on vps exist, its spans fire, and leaving it restores them; and
one short traced benchmark run of each workload passes its checks."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from vps import decode_engine
from vps.decode_engine import DecodeConfig
from vps.frame_selection import uniform_offset_plan

from test_decode_engine import HashBackend

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from tracer import NAME, Tracer, instrument  # noqa: E402


def test_decode_records_one_step_span_per_token():
    plan = uniform_offset_plan(16, 2, 2)
    cfg = DecodeConfig(streams=2, max_tokens=2)
    tracer = Tracer()
    step, mix = decode_engine.step, decode_engine.mix_probs
    with instrument(tracer):
        _, trace = decode_engine.decode("v", "p", plan, HashBackend(5), cfg)
    names = Counter(span[NAME] for span in tracer.spans)
    assert len(trace.steps) == 2
    assert names["decode_engine.step"] == 2
    assert names["aggregation.mix"] >= 1
    assert (decode_engine.step, decode_engine.mix_probs) == (step, mix)


def traced_run_verdict(workload: str) -> dict:
    """The verdict of one short traced run of a benchmark workload, which must exit 0."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    verdict = json.loads(done.stdout.splitlines()[-1])
    assert verdict["correct"] is True
    assert verdict["failed"] == 0
    assert verdict["attempted"] > 0
    return verdict


def test_traced_toy_eval_benchmark_run_is_correct():
    traced_run_verdict("toy-eval")


def test_traced_wire_topm_benchmark_run_is_correct():
    # the fixture server included
    traced_run_verdict("wire-topm")


def test_traced_wire_full_benchmark_run_is_correct():
    # the one workload that scores a query through WireBackend.score in its set-up
    traced_run_verdict("wire-full")


def test_traced_mc_grid_benchmark_run_is_correct():
    # the tracer swaps scaling_law's private helpers while they exist
    traced_run_verdict("mc-grid")
