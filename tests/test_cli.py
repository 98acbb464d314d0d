"""Command surface: plan/run/simulate/fit/report, exit codes, file outputs."""

import csv
import json

import numpy as np
import pytest

from vps.cli import main
from vps.frame_selection import plan_from_text

from scorers import PerQuery


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPlanCommand:
    def test_canonical_plan(self, capsys):
        assert main(["plan", "--T", "64", "--k", "4", "--J", "4", "--strategy", "uniform"]) == 0
        out = capsys.readouterr().out
        plan = plan_from_text(out)
        assert plan.sets == (
            (0, 16, 32, 48),
            (4, 20, 36, 52),
            (8, 24, 40, 56),
            (12, 28, 44, 60),
        )

    def test_infeasible_exits_2(self, capsys):
        assert main(["plan", "--T", "8", "--k", "4", "--J", "4"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_dense_strategy(self, capsys):
        assert main(["plan", "--strategy", "dense", "--T", "8", "--k", "2", "--J", "2"]) == 0
        plan = plan_from_text(capsys.readouterr().out)
        assert plan.sets == ((0, 2), (4, 6))

    def test_bolt_strategy_from_scores_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([0.1] * 12))
        assert main([
            "plan", "--T", "12", "--k", "3", "--J", "2",
            "--strategy", "bolt", "--scores", str(scores), "--seed", "4",
        ]) == 0
        plan = plan_from_text(capsys.readouterr().out)
        flat = sorted(i for s in plan.sets for i in s)
        assert len(set(flat)) == 6

    def test_plan_written_to_file(self, tmp_path):
        out = tmp_path / "plan.txt"
        assert main(["plan", "--T", "10", "--k", "2", "--J", "2", "--out", str(out)]) == 0
        assert plan_from_text(out.read_text()).sets == ((0, 5), (2, 7))

    def test_disjointness_audit_printed(self, capsys):
        main(["plan", "--T", "64", "--k", "4", "--J", "4"])
        assert "disjointness audit: ok" in capsys.readouterr().err

    def test_non_positive_size_exits_2(self, capsys):
        assert main(["plan", "--T", "4", "--k", "0", "--J", "2"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_negative_bolt_score_exits_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([0.5, -0.1, 0.2, 0.3]))
        assert main([
            "plan", "--T", "4", "--k", "1", "--J", "2", "--strategy", "bolt", "--scores", str(scores),
        ]) == 2
        assert "scores must be non-negative" in capsys.readouterr().err


class TestRunCommand:
    def test_toy_run_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "run", "--backend", "toy", "--toy-episodes", "40",
            "--methods", "baseline,vps:4", "--k", "4",
            "--seed", "11", "--out-dir", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "accuracy.csv")
        assert rows[0] == ["method", "toy", "overall"]
        table = {row[0]: float(row[-1]) for row in rows[1:]}
        assert set(table) == {"baseline", "vps:4"}
        assert table["vps:4"] >= table["baseline"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["backend_calls"]["vps:4"] == 40 * 4
        assert (out / "results.jsonl").exists()

    def test_method_sweep_table_shape(self, tmp_path):
        out = tmp_path / "run"
        assert main([
            "run", "--backend", "toy", "--toy-episodes", "20",
            "--methods", "vps:2,vps:4", "--k", "4", "--out-dir", str(out),
        ]) == 0
        rows = read_csv(out / "accuracy.csv")
        assert [r[0] for r in rows[1:]] == ["vps:2", "vps:4"]

    def test_trace_flag_writes_replayable_trace(self, tmp_path):
        out = tmp_path / "run"
        assert main([
            "run", "--backend", "toy", "--toy-episodes", "5",
            "--methods", "vps:2", "--k", "4", "--out-dir", str(out), "--trace",
        ]) == 0
        from vps.decode_engine import DecodeTrace

        text = (out / "trace.jsonl").read_text()
        assert DecodeTrace.from_jsonl(text).to_jsonl() == text

    @pytest.mark.parametrize("method", ["vps:2+tcd+ritual", "sc:2"])
    def test_trace_records_the_runs_own_first_decode(self, tmp_path, monkeypatch, method):
        from vps import eval_harness
        from vps.backends.toyworld import ToyWorld
        from vps.decode_engine import decode, derive_seed

        decoders = []

        class RecordingDecoder(eval_harness.Decoder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                decoders.append(self)

        monkeypatch.setattr(eval_harness, "Decoder", RecordingDecoder)
        out = tmp_path / "run"
        assert main([
            "run", "--backend", "toy", "--toy-episodes", "3", "--methods", method, "--k", "4",
            "--max-tokens", "2", "--seed", "5", "--jobs", "1", "--out-dir", str(out), "--trace",
        ]) == 0
        # only the run's first decode keeps a trace: item 0's (for sc:2, its first sample)
        assert [d for d in decoders if d.keep_trace] == [decoders[0]]
        text = (out / "trace.jsonl").read_text()
        assert text == decoders[0].trace.to_jsonl()
        assert len(text.splitlines()) == len(decoders[0].trace.steps) > 0
        # the same trace as one decode() of that item's plan, config and seed
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = eval_harness.toy_benchmark(world, 3, 64, 5)
        plan, cfg, seed = eval_harness.method_decodes(
            items[0], eval_harness.MethodSpec.parse(method), 4, derive_seed(5, 0),
            max_tokens=2, stop_tokens=frozenset({world.stop_token}),
        )[0]
        assert decode(items[0].video_ref, eval_harness.build_prompt(items[0]), plan, backend, cfg,
                      seed=seed)[1].to_jsonl() == text

    def test_trace_is_the_same_at_any_jobs(self, tmp_path):
        texts = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs-{jobs}"
            assert main([
                "run", "--backend", "toy", "--toy-episodes", "20", "--methods", "vps:4+tcd,sc:2", "--k", "4",
                "--max-tokens", "2", "--seed", "3", "--jobs", str(jobs), "--out-dir", str(out), "--trace",
            ]) == 0
            texts.append((out / "trace.jsonl").read_bytes())
        assert texts[0] == texts[1]
        assert len(texts[0].splitlines()) >= 1

    def test_empty_dataset_exits_2(self, tmp_path, capsys):
        assert main([
            "run", "--backend", "toy", "--toy-episodes", "0",
            "--methods", "baseline", "--out-dir", str(tmp_path / "x"),
        ]) == 2

    def test_infeasible_frames_exit_2(self, tmp_path):
        assert main([
            "run", "--backend", "toy", "--toy-episodes", "4",
            "--toy-total-frames", "8", "--methods", "vps:4", "--k", "4",
            "--out-dir", str(tmp_path / "x"),
        ]) == 2
        # zero frames per stream, tokens or jobs are usage errors too, caught before any run directory exists
        for flag in ("--k", "--max-tokens", "--jobs"):
            assert main([
                "run", "--backend", "toy", "--toy-episodes", "4", "--methods", "baseline",
                flag, "0", "--out-dir", str(tmp_path / "y"),
            ]) == 2
        assert not (tmp_path / "y").exists()

    def test_wire_backend_requires_endpoint(self, tmp_path):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps({
            "id": "a", "video_ref": "v", "total_frames": 8, "task": "binary",
            "question": "q?", "reference": "yes",
        }) + "\n")
        assert main([
            "run", "--backend", "wire", "--dataset", str(dataset),
            "--out-dir", str(tmp_path / "x"),
        ]) == 2

    def test_bad_method_tag_exits_2(self, tmp_path):
        assert main([
            "run", "--backend", "toy", "--toy-episodes", "4",
            "--methods", "warp:9", "--out-dir", str(tmp_path / "x"),
        ]) == 2

    def test_backend_hard_down_exits_1(self, tmp_path):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps({
            "id": "a", "video_ref": "v", "total_frames": 8, "task": "binary",
            "question": "q?", "reference": "yes",
        }) + "\n")
        assert main([
            "run", "--backend", "wire", "--dataset", str(dataset),
            "--endpoint", "http://127.0.0.1:1", "--methods", "baseline",
            "--k", "2", "--out-dir", str(tmp_path / "x"),
        ]) == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_item_keeps_partial_results(self, tmp_path, monkeypatch, capsys, jobs):
        from vps import cli

        build_toy = cli._build_toy

        class FailingScorer(PerQuery):
            """The toy backend, except that one video's queries fail."""

            def __init__(self, backend, bad_ref):
                self.backend, self.bad_ref = backend, bad_ref

            def score(self, req):
                if req.video_ref == self.bad_ref:
                    raise ConnectionError("scorer down")
                return self.backend.score(req)

            def token_text(self, token):
                return self.backend.token_text(token)

        def failing_toy(args):
            items, backend, stop_tokens = build_toy(args)
            return items, FailingScorer(backend, items[1].video_ref), stop_tokens

        argv = [
            "run", "--backend", "toy", "--toy-episodes", "4", "--methods", "baseline,vps:2",
            "--k", "4", "--seed", "3", "--jobs", jobs,
        ]
        monkeypatch.setattr(cli, "_build_toy", failing_toy)
        out = tmp_path / "partial"
        assert main(argv + ["--out-dir", str(out)]) == 1
        assert "2 of 8 item x method evaluations failed" in capsys.readouterr().err
        monkeypatch.undo()
        clean = tmp_path / "clean"
        assert main(argv + ["--out-dir", str(clean)]) == 0

        error = {"type": "ConnectionError", "stream": 0, "role": "positive", "message": "scorer down"}
        partial_lines = (out / "results.jsonl").read_text().splitlines()
        clean_lines = (clean / "results.jsonl").read_text().splitlines()
        assert len(partial_lines) == len(clean_lines) == 8
        failed = []
        for partial, full in zip(partial_lines, clean_lines):
            record = json.loads(partial)
            if record["item_id"] == "toy-00001":
                assert record["extracted"] is None and record["error"] == error
                failed.append({"item_id": record["item_id"], "method": record["method"], "error": error})
            else:
                assert partial == full
        assert [f["method"] for f in failed] == ["baseline", "vps:2"]
        assert json.loads((out / "summary.json").read_text())["failed"] == failed
        assert read_csv(out / "accuracy.csv")[0] == ["method", "toy", "overall"]
        # a run without failures writes neither key
        assert "failed" not in json.loads((clean / "summary.json").read_text())
        assert not any("error" in json.loads(line) for line in clean_lines)

    def test_jobs_flag_matches_serial(self, tmp_path):
        outs = []
        for jobs, name in ((1, "serial"), (4, "parallel")):
            out = tmp_path / name
            assert main([
                "run", "--backend", "toy", "--toy-episodes", "16",
                "--methods", "baseline,vps:4,sc:4", "--k", "4",
                "--seed", "9", "--jobs", str(jobs), "--out-dir", str(out),
            ]) == 0
            outs.append((out / "results.jsonl").read_text())
        assert outs[0] == outs[1]


class TestWireRunIntegration:
    def test_run_over_stub_server_with_description_metrics(self, tmp_path):
        import math

        from vps.backends.stub_server import StubServer

        # stub model: binary item answered "yes", description item captioned
        vocab = ["yes", "no", " a", " cat", " sat", "</s>"]

        def score_handler(body):
            n = len(body["generated"])
            if body["video_ref"] == "vid-bin":
                target = ["yes", "</s>"]
            else:
                target = [" a", " cat", " sat", "</s>"]
            token = target[min(n, len(target) - 1)]
            scores = [math.log(1e-9)] * len(vocab)
            scores[vocab.index(token)] = 0.0
            return {"vocab_size": len(vocab), "scores": scores}

        dataset = tmp_path / "data.jsonl"
        records = [
            {"id": "b1", "video_ref": "vid-bin", "total_frames": 8, "task": "binary",
             "question": "Is it a cat?", "reference": "yes", "category": "entire"},
            {"id": "d1", "video_ref": "vid-desc", "total_frames": 8, "task": "description",
             "question": "", "reference": "a cat sat", "category": "entire"},
        ]
        dataset.write_text("".join(json.dumps(r) + "\n" for r in records))

        vocab_file = tmp_path / "vocab.json"
        vocab_file.write_text(json.dumps(vocab))
        embeddings = {" a cat sat": [1.0, 0.0], "a cat sat": [1.0, 0.0]}
        with StubServer(
            score_handler=score_handler,
            judge_replies=["[5]"],
            embeddings=embeddings,
        ) as server:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({
                "endpoint": server.url,
                "judge_endpoint": server.url,
                "embed_endpoint": server.url,
            }))
            out = tmp_path / "run"
            code = main([
                "run", "--backend", "wire", "--dataset", str(dataset),
                "--config", str(config), "--methods", "baseline",
                "--k", "2", "--max-tokens", "6", "--vocab", str(vocab_file),
                "--stop-tokens", str(vocab.index("</s>")), "--out-dir", str(out),
            ])
        assert code == 0
        rows = read_csv(out / "accuracy.csv")
        assert rows[1][-1] == "1.000000"  # binary item answered correctly
        metric_rows = read_csv(out / "metrics.csv")
        header, row = metric_rows[0], metric_rows[1]
        metrics = dict(zip(header, row))
        assert float(metrics["rouge_l"]) == 1.0
        assert float(metrics["llm_judge"]) == 5.0
        assert float(metrics["sts"]) == 1.0

    def test_flag_overrides_config_endpoint(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"endpoint": "http://127.0.0.1:1"}))
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps({
            "id": "a", "video_ref": "v", "total_frames": 8, "task": "binary",
            "question": "q?", "reference": "yes",
        }) + "\n")
        # flag endpoint also unreachable, but on a different port: the error
        # proves the flag won over the config
        code = main([
            "run", "--backend", "wire", "--dataset", str(dataset),
            "--config", str(config), "--endpoint", "http://127.0.0.1:2",
            "--methods", "baseline", "--k", "2", "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1


class TestSimulateCommand:
    def test_table_columns(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main([
            "simulate", "--samples", "20000", "--streams", "1,2,4",
            "--correlation", "0.5", "--seed", "1", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == ["J", "predicted", "empirical", "stderr"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "4"]

    def test_full_correlation_sweep_is_flat(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main([
            "simulate", "--samples", "20000", "--streams", "1,2,4,8",
            "--correlation", "1", "--seed", "2", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        predicted = [float(r[1]) for r in rows[1:]]
        assert np.allclose(predicted, predicted[0])

    def test_uncorrelated_sweep_strictly_decreasing(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main([
            "simulate", "--samples", "20000", "--streams", "1,2,4,8",
            "--correlation", "0", "--seed", "3", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        predicted = [float(r[1]) for r in rows[1:]]
        empirical = [float(r[2]) for r in rows[1:]]
        assert all(a > b for a, b in zip(predicted, predicted[1:]))
        assert all(a > b for a, b in zip(empirical, empirical[1:]))

    def test_simulate_fit_round_trip_recovers_correlation(self, tmp_path):
        sim_csv = tmp_path / "sim.csv"
        assert main([
            "simulate", "--samples", "200000", "--streams", "1,2,3,4,6,8",
            "--correlation", "0.3", "--seed", "5", "--float32", "--out", str(sim_csv),
        ]) == 0
        data = [(int(r[0]), float(r[2])) for r in read_csv(sim_csv)[1:]]
        fit_csv = tmp_path / "fit_input.csv"
        with open(fit_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["J", "loss"])
            writer.writerows(data)
        fit_out = tmp_path / "fit.json"
        assert main([
            "fit", "--input", str(fit_csv), "--mode", "streams",
            "--fix", "irreducible_entropy=0", "--out", str(fit_out),
        ]) == 0
        fitted = json.loads(fit_out.read_text())
        assert abs(fitted["params"]["correlation"] - 0.3) < 0.05

    @pytest.mark.parametrize("args", [
        ["--streams", "0,2"],
        ["--streams=-1,2"],
        ["--samples", "0"],
        ["--vocab", "1"],
        ["--correlation", "1.5"],
    ])
    def test_invalid_sizes_exit_2(self, args, capsys):
        assert main(["simulate", "--samples", "100", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_infeasible_bias_exits_1(self, capsys):
        assert main(["simulate", "--samples", "100", "--bias", "1"]) == 1
        assert "biases must be < 1" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "[0.1, ", '{"v": ["x"]}'], ids=["missing", "bad-json", "not-numbers"])
@pytest.mark.parametrize("command", ["plan", "run"])
def test_unreadable_bolt_scores_exit_2(command, content, tmp_path, capsys):
    path = tmp_path / "scores.json"
    if content is not None:
        path.write_text(content)
    argv = {
        "plan": ["plan", "--T", "8", "--k", "2", "--J", "2", "--strategy", "bolt", "--scores", str(path)],
        "run": ["run", "--strategy", "bolt", "--bolt-scores", str(path), "--out-dir", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 2
    assert f"cannot read BOLT scores {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestFitCommand:
    def test_fit_exact_curve(self, tmp_path, capsys):
        from vps.scaling_law import vps_loss, ScalingParams

        path = tmp_path / "losses.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["J", "loss"])
            for J in (1, 2, 4, 8):
                params = ScalingParams(1.0, 0.4, 1.0, 1.0, 0.5, (0.0,) * J)
                writer.writerow([J, vps_loss(params, J)])
        assert main([
            "fit", "--input", str(path), "--fix", "irreducible_entropy=1.0",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["correlation"] == pytest.approx(0.5, rel=1e-5)
        assert payload["params"]["capacity_term"] == pytest.approx(0.4, rel=1e-5)

    def test_under_determined_fit_exits_1(self, tmp_path, capsys):
        path = tmp_path / "losses.csv"
        path.write_text("J,loss\n1,1.0\n2,0.9\n4,0.85\n")
        assert main(["fit", "--input", str(path)]) == 1
        assert "fit failed" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_unknown_fix_name_exits_2(self, tmp_path, capsys):
        path = tmp_path / "losses.csv"
        path.write_text("J,loss\n1,1.5\n2,1.25\n4,1.125\n")
        assert main([
            "fit", "--input", str(path), "--fix", "irreducible_entropy=1", "--fix", "corelation=0.3",
        ]) == 2
        assert "corelation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, fix",
        [
            ("1,1.5\n2\n4,1.125\n", "irreducible_entropy=1"),  # a short row
            ("1,1.5\n2,nan\n4,1.125\n", "irreducible_entropy=1"),
            ("1,1.5\n2,inf\n4,1.125\n", "irreducible_entropy=1"),
            ("1,1.5\n2,1.25\n4,1.125\n", "irreducible_entropy=one"),
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, rows, fix):
        path = tmp_path / "losses.csv"
        path.write_text("J,loss\n" + rows)
        assert main(["fit", "--input", str(path), "--fix", fix]) == 2
        assert "error:" in capsys.readouterr().err


class TestReportCommand:
    @staticmethod
    def toy_runs(tmp_path, *methods):
        """One toy run directory per method list, the n-th at seed n and k=2n."""
        runs = []
        for seed, tags in enumerate(methods, 1):
            out = tmp_path / f"run-{seed}"
            assert main([
                "run", "--backend", "toy", "--toy-episodes", "10",
                "--methods", tags, "--k", str(2 * seed),
                "--seed", str(seed), "--out-dir", str(out),
            ]) == 0
            runs.append(out)
        return runs

    def test_merges_run_directories(self, tmp_path):
        runs = self.toy_runs(tmp_path, "baseline,vps:2", "vps:4,sc:2")
        report = tmp_path / "report"
        assert main(["report", *map(str, runs), "--out", str(report)]) == 0
        rows = read_csv(report / "accuracy.csv")
        run_rows = [read_csv(run / "accuracy.csv") for run in runs]
        assert rows[0] == run_rows[0][0] == run_rows[1][0]
        assert {r[0] for r in rows[1:]} == {"baseline", "vps:2", "vps:4", "sc:2"}
        assert sorted(rows[1:]) == sorted(run_rows[0][1:] + run_rows[1][1:])

    def test_refuses_a_method_reported_by_two_runs(self, tmp_path, capsys):
        runs = self.toy_runs(tmp_path, "baseline,vps:2", "vps:2")
        capsys.readouterr()
        assert main(["report", *map(str, runs), "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert "'vps:2'" in err and str(runs[0]) in err and str(runs[1]) in err
        assert not (tmp_path / "report").exists()

    def test_refuses_description_rows_reported_by_two_runs(self, tmp_path, capsys):
        from vps.backends.stub_server import StubServer

        vocab = [" a", " cat", "</s>"]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(json.dumps({"id": "d1", "video_ref": "vid-desc", "total_frames": 8, "task": "description",
                                       "question": "", "reference": "a cat"}) + "\n")
        vocab_file = tmp_path / "vocab.json"
        vocab_file.write_text(json.dumps(vocab))
        runs = [tmp_path / "run-a", tmp_path / "run-b"]
        with StubServer(score_handler=lambda body: {"vocab_size": 3, "scores": [0.0, -1.0, -2.0]}) as server:
            for run in runs:
                assert main([
                    "run", "--backend", "wire", "--endpoint", server.url, "--dataset", str(dataset),
                    "--vocab", str(vocab_file), "--methods", "baseline", "--k", "2", "--max-tokens", "2",
                    "--out-dir", str(run),
                ]) == 0
        capsys.readouterr()
        assert main(["report", *map(str, runs), "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert "'baseline'" in err and str(runs[0]) in err and str(runs[1]) in err
        assert not (tmp_path / "report").exists()

    def test_single_run_report_reproduces_the_run_tables(self, tmp_path):
        from vps.backends.stub_server import StubServer

        vocab = ["yes", "no", " a", " cat", "</s>"]

        def score_handler(body):
            target = ["yes", "</s>"] if body["video_ref"] == "vid-bin" else [" a", " cat", "</s>"]
            token = target[min(len(body["generated"]), len(target) - 1)]
            return {"vocab_size": len(vocab), "scores": [0.0 if t == token else -20.0 for t in vocab]}

        records = [
            {"id": "b1", "video_ref": "vid-bin", "total_frames": 8, "task": "binary",
             "question": "Is it a cat?", "reference": "yes", "category": "object"},
            {"id": "b2", "video_ref": "vid-bin", "total_frames": 8, "task": "binary",
             "question": "Is it a dog?", "reference": "no", "category": "action"},
            {"id": "d1", "video_ref": "vid-desc", "total_frames": 8, "task": "description",
             "question": "", "reference": "a cat", "category": "entire"},
        ]
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
        vocab_file = tmp_path / "vocab.json"
        vocab_file.write_text(json.dumps(vocab))
        run, report = tmp_path / "run", tmp_path / "report"
        with StubServer(score_handler=score_handler) as server:
            assert main([
                "run", "--backend", "wire", "--endpoint", server.url, "--dataset", str(dataset),
                "--vocab", str(vocab_file), "--stop-tokens", "4", "--methods", "baseline,vps:2",
                "--k", "2", "--max-tokens", "4", "--out-dir", str(run),
            ]) == 0
        assert main(["report", str(run), "--out", str(report)]) == 0
        for name in ("accuracy.csv", "metrics.csv"):
            assert (report / name).read_bytes() == (run / name).read_bytes()

    def test_rejects_non_run_directory(self, tmp_path):
        assert main(["report", str(tmp_path), "--out", str(tmp_path / "r")]) == 2
