"""The benchmark's own checks at tiny sizes: percentiles, fixture, spans, failure counting."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import fixture_server  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from percentiles import percentile, samples_beyond  # noqa: E402
from tracer import (  # noqa: E402
    END, PARENT, REQUEST, START, Tracer, children_of, layer_metrics, self_time, tracing_executor,
)


class TestPercentileRule:
    def test_median_needs_one_sample(self):
        assert percentile([3.0], 50) == 3.0
        assert percentile([1.0, 2.0, 10.0, 11.0], 50) == 6.0
        assert percentile([], 50) is None

    def test_tail_needs_ten_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert percentile([float(i) for i in range(99)], 90) is None
        assert percentile([float(i) for i in range(100)], 90) == 89.0
        assert percentile([float(i) for i in range(999)], 99) is None
        assert percentile([float(i) for i in range(1000)], 99) == 989.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 100)


def valid_body(**changes):
    body = {"video_ref": "v", "frame_set": [0, 4], "view": "identity", "prompt_text": "p",
            "generated": [1], "want": "full"}
    body.update(changes)
    return body


class TestFixtureProtocol:
    @pytest.mark.parametrize("body", [
        valid_body(),
        valid_body(want="top:20"),
        valid_body(frame_set=[], generated=[]),
    ])
    def test_accepts_valid_requests(self, body):
        assert fixture_server.protocol_error(body) is None

    @pytest.mark.parametrize("body", [
        [],
        {k: v for k, v in valid_body().items() if k != "view"},
        valid_body(extra=1),
        valid_body(want="top:0"),
        valid_body(want="top:x"),
        valid_body(want="all"),
        valid_body(frame_set=[4, 0]),
        valid_body(frame_set=[1, 1]),
        valid_body(generated=[-1]),
        valid_body(generated=[True]),
        valid_body(prompt_text=3),
    ])
    def test_rejects_malformed_requests(self, body):
        assert fixture_server.protocol_error(body) is not None

    def test_server_rejects_and_counts(self):
        import requests

        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "fixture_server.py"), "--vocab", "24", "--seed", "1"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            url = "http://127.0.0.1:" + proc.stdout.readline().split()[1]
            with requests.Session() as session:
                bad = session.post(url + "/v1/score", json=valid_body(want="top:0"), timeout=10)
                not_json = session.post(url + "/v1/score", data=b"{", timeout=10)
                full = session.post(url + "/v1/score", json=valid_body(), timeout=10)
                top = session.post(url + "/v1/score", json=valid_body(want="top:20"), timeout=10)
                other_m = session.post(url + "/v1/score", json=valid_body(want="top:3"), timeout=10)
                stats = session.get(url + "/stats", timeout=10).json()
            assert bad.status_code == not_json.status_code == other_m.status_code == 400
            assert full.status_code == 200 and len(full.json()["scores"]) == 24
            assert top.status_code == 200 and len(top.json()["top"]) == 20
            assert stats["requests"] == 2 and stats["rejected"] == 3
            assert stats["connections"] == 1  # keep-alive: one connection for six requests
            assert stats["reply_bytes"] == len(full.content) + len(top.content)
        finally:
            proc.stdin.close()
            proc.wait(timeout=10)
            proc.stdout.close()
        assert proc.returncode == 0

    def test_reply_choice_is_deterministic(self):
        pool = fixture_server.ReplyPool(vocab=24, seed=3)
        raw = json.dumps(valid_body()).encode()
        assert pool.reply("full", raw) == fixture_server.ReplyPool(24, 3).reply("full", raw)
        top = json.loads(pool.reply("top:20", raw))
        assert top["remainder"] >= 0.0 and len(top["top"]) == 20
        assert pool.reply("top:3", raw) is None


def span(start, end, parent=None):
    return ["s", start, end, parent, 0]


class TestSpans:
    def test_self_time_subtracts_union_of_children(self):
        spans = [
            span(0.0, 10.0),
            span(1.0, 3.0, parent=0),
            span(2.0, 5.0, parent=0),  # overlaps its sibling: counted once
            span(7.0, 8.0, parent=0),
            span(7.2, 7.8, parent=3),  # grandchild: inside its parent, not subtracted twice
            span(9.5, 12.0, parent=0),  # runs past the parent: clipped
        ]
        children = children_of(spans)
        assert self_time(spans, 0, children) == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
        assert self_time(spans, 3, children) == pytest.approx(1.0 - 0.6)
        assert self_time(spans, 1, children) == pytest.approx(2.0)

    def test_nested_spans_share_request_and_cross_threads(self):
        tracer = Tracer()
        executor_cls = tracing_executor(tracer)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with executor_cls(max_workers=2) as pool:
                    ids = list(pool.map(lambda _: _open(tracer), range(3)))
        with tracer.span("second") as second:
            pass
        spans = tracer.spans
        assert spans[child][PARENT] == root
        assert all(spans[i][PARENT] == child and spans[i][REQUEST] == root for i in ids)
        assert spans[second][PARENT] is None and spans[second][REQUEST] == second
        assert all(s[END] >= s[START] for s in spans)


    def test_coverage_is_the_share_of_entry_points_under_layer_spans(self):
        tracer = Tracer()
        tracer.spans = [
            ["cli.main", 0.0, 10.0, None, 0],
            ["eval_harness.run_benchmark", 1.0, 9.0, 0, 0],
            ["eval_harness.evaluate_item", 2.0, 3.0, 1, 0],  # a grandchild adds nothing
            ["scaling_law.simulate_ce_grid", 20.0, 30.0, None, 3],  # no layer span below: uncovered
        ]
        assert layer_metrics(tracer, items=1, overhead_ratio=1.0)["trace.coverage"] == pytest.approx(8.0 / 20.0)


def _open(tracer):
    with tracer.span("backends.score") as span_id:
        return span_id


class TestFailureCounting:
    @pytest.mark.parametrize("cls", [workloads.ToyEval, workloads.WireFull])
    def test_failed_vps_run_fails_every_evaluation(self, cls, tmp_path, monkeypatch):
        monkeypatch.setattr(workloads.vps.cli, "main", lambda argv: 1)
        workload = cls(seed=1, work_dir=tmp_path, endpoint="http://127.0.0.1:9")
        workload.out_dir = workload.dataset = workload.vocab = tmp_path
        workload.first_accuracy = None
        result = workload.op()
        evaluations = len(cls.methods) * (cls.episodes if cls is workloads.ToyEval else cls.items)
        assert result.attempted == result.failed == evaluations
        assert result.problems == ["vps run exited with 1"]

    def test_toy_eval_checks_pass_on_a_small_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workloads.ToyEval, "episodes", 40)
        workload = workloads.ToyEval(seed=5, work_dir=tmp_path)
        workload.setup()
        result = workload.op()
        assert result.failed == 0 and result.problems == []
        assert result.attempted == 40 * 4

    def test_run_reports_failures_and_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(run, "OUT", tmp_path)
        monkeypatch.setattr(run, "SETUP_PROBES", 1)
        monkeypatch.setattr(workloads.ToyEval, "episodes", 10)
        monkeypatch.setattr(workloads.vps.cli, "main", lambda argv: 1)
        code = run.main(["--workload", "toy-eval", "--seed", "1", "--seconds", "0.01"])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert result["correct"] is False
        assert result["attempted"] == result["failed"] > 0
        assert list(result["metrics"]) == list(run.metric_units("end_to_end"))
