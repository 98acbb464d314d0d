"""Prompts, answer extraction, voting, accuracy tables, dataset I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vps.aggregation import Distribution
from vps.backends import MockBackend
from vps.backends.toyworld import ToyWorld
from vps.decode_engine import derive_seed
from vps.eval_harness import (
    BINARY_SCAFFOLD,
    DESCRIPTION_SCAFFOLD,
    MC_SCAFFOLD,
    DatasetError,
    EvalItem,
    MethodResult,
    MethodSpec,
    accuracy,
    build_prompt,
    description_rows,
    evaluate_item,
    extract_answer,
    load_dataset,
    majority_vote,
    run_benchmark,
    save_dataset,
    score_description_results,
    toy_benchmark,
)
from vps.frame_selection import identical_sets_plan


def mc_item(**kw):
    defaults = dict(
        id="q1",
        video_ref="v1",
        total_frames=64,
        task="multiple_choice",
        question="What happens?",
        options=("red", "blue", "green", "white"),
        reference="B",
        category="short",
    )
    defaults.update(kw)
    return EvalItem(**defaults)


class TestEvalItem:
    def test_options_required_for_multiple_choice(self):
        with pytest.raises(ValueError):
            mc_item(options=None)

    def test_options_forbidden_otherwise(self):
        with pytest.raises(ValueError):
            EvalItem(
                id="b1", video_ref="v", total_frames=8, task="binary",
                question="q?", reference="yes", options=("a", "b"),
            )

    def test_binary_reference_checked(self):
        with pytest.raises(ValueError):
            EvalItem(
                id="b1", video_ref="v", total_frames=8, task="binary",
                question="q?", reference="maybe",
            )

    def test_mc_reference_must_be_an_option_letter(self):
        with pytest.raises(ValueError):
            mc_item(reference="E")

    def test_at_most_four_options(self):
        # the scaffold and the answer pattern name A-D: an E answer would be extracted as None
        assert len(mc_item(options=("a", "b", "c", "d"), reference="D").options) == 4
        with pytest.raises(ValueError, match="1 to 4 options, got 5"):
            mc_item(options=("a", "b", "c", "d", "e"), reference="E")


class TestBuildPrompt:
    def test_multiple_choice_scaffold(self):
        prompt = build_prompt(mc_item())
        assert prompt.endswith(MC_SCAFFOLD)
        assert "A. red" in prompt and "D. white" in prompt
        assert prompt.startswith("What happens?")

    def test_binary_scaffold(self):
        item = EvalItem(
            id="b", video_ref="v", total_frames=8, task="binary",
            question="Is it raining?", reference="no",
        )
        assert build_prompt(item).endswith(BINARY_SCAFFOLD)

    def test_description_scaffold(self):
        item = EvalItem(
            id="d", video_ref="v", total_frames=8, task="description",
            question="", reference="A cat sits.",
        )
        assert build_prompt(item) == DESCRIPTION_SCAFFOLD


class TestExtractAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("B.", "B"),
            ("the answer is  c", "C"),
            ("(D)", "D"),
            ("A", "A"),
            ("Answer: b", "B"),
            ("Because of the rain", None),  # no standalone letter
            ("either E or F", None),
            ("", None),
        ],
    )
    def test_multiple_choice(self, raw, expected):
        assert extract_answer(raw, "multiple_choice") == expected

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Yes!", "yes"),
            ("no", "no"),
            (" NO, never", "no"),
            ("Yesterday", None),
            ("maybe yes", None),  # not leading
            ("", None),
        ],
    )
    def test_binary(self, raw, expected):
        assert extract_answer(raw, "binary") == expected

    def test_description_is_identity(self):
        assert extract_answer("A cat sits on a mat.", "description") == "A cat sits on a mat."

    @given(st.text(max_size=80), st.sampled_from(["multiple_choice", "binary", "description"]))
    @settings(max_examples=200, deadline=None)
    def test_total_and_idempotent(self, raw, task):
        first = extract_answer(raw, task)
        if first is not None:
            assert extract_answer(first, task) == first


class TestMajorityVote:
    def test_plain_majority(self):
        assert majority_vote(["A", "A", "B"]) == "A"

    def test_tie_breaks_lexicographically(self):
        assert majority_vote(["A", "B"]) == "A"
        assert majority_vote(["D", "C", "C", "D"]) == "C"

    def test_unparseable_filtered(self):
        assert majority_vote([None, "B", None, "B", "A"]) == "B"

    def test_all_unparseable(self):
        assert majority_vote([None, None]) is None


class TestSelfConsistency:
    def test_zero_temperature_odd_streams_equals_greedy(self):
        item = mc_item(reference="C")
        plan = identical_sets_plan(64, 4, 3)
        probs = np.array([0.1, 0.2, 0.6, 0.1, 0.0])
        backend = MockBackend(
            {(plan.sets[0], "identity", ()): Distribution.from_probs(probs)},
            vocab=("A", "B", "C", "D", "</s>"),
        )
        for seed in range(10):
            result = evaluate_item(
                item, MethodSpec.parse("sc:3"), backend, 4, seed=seed, temperature=0.0, max_tokens=1
            )
            assert result.extracted == "C"

    def test_sampled_majority_tracks_dominant_mass(self):
        item = mc_item(reference="A")
        plan = identical_sets_plan(64, 4, 9)
        probs = np.array([0.7, 0.1, 0.1, 0.1, 0.0])
        backend = MockBackend(
            {(plan.sets[0], "identity", ()): Distribution.from_probs(probs)},
            vocab=("A", "B", "C", "D", "</s>"),
        )
        wins = sum(
            evaluate_item(item, MethodSpec.parse("sc:9"), backend, 4, seed=s, max_tokens=1).extracted == "A"
            for s in range(40)
        )
        assert wins >= 36

    @pytest.mark.parametrize("tag", ["sc:3", "vps:2+tcd+ritual"])
    def test_evaluate_item_is_the_runs_result_for_the_item(self, tag):
        world = ToyWorld.symmetric(4, 0.6)
        items, backend = toy_benchmark(world, 1, total_frames=64, seed=2)
        kw = dict(temperature=0.8, max_tokens=2, stop_tokens=frozenset({world.stop_token}))
        method = MethodSpec.parse(tag)
        for s in range(6):
            (expected,), _ = run_benchmark(items, backend, [method], 4, seed=s, **kw)
            assert evaluate_item(items[0], method, backend, 4, seed=derive_seed(s, 0), **kw) == expected


class TestAccuracy:
    def test_all_correct(self):
        items = [mc_item(id=f"q{i}", category="short") for i in range(4)]
        results = [MethodResult(f"q{i}", "baseline", "B", "B") for i in range(4)]
        table = accuracy(results, items)
        assert table["baseline"]["short"] == 1.0
        assert table["baseline"]["overall"] == 1.0

    def test_half_correct(self):
        items = [mc_item(id=f"q{i}") for i in range(4)]
        results = [
            MethodResult(f"q{i}", "m", "x", "B" if i % 2 == 0 else "A") for i in range(4)
        ]
        assert accuracy(results, items)["m"]["overall"] == 0.5

    def test_unparseable_counts_wrong(self):
        items = [mc_item(id="q0"), mc_item(id="q1")]
        results = [MethodResult("q0", "m", "", None), MethodResult("q1", "m", "B", "B")]
        assert accuracy(results, items)["m"]["overall"] == 0.5

    def test_matches_brute_force_grouping_oracle(self):
        rng = np.random.default_rng(99)
        categories = ["short", "medium", "long"]
        items, results = [], []
        for i in range(100):
            cat = categories[int(rng.integers(3))]
            ref = "ABCD"[int(rng.integers(4))]
            items.append(mc_item(id=f"q{i}", category=cat, reference=ref))
            guess = "ABCD"[int(rng.integers(4))] if rng.random() > 0.1 else None
            results.append(MethodResult(f"q{i}", "m", guess or "", guess))
        table = accuracy(results, items)

        # brute force oracle: independent grouping pass
        oracle = {}
        for cat in categories + ["overall"]:
            pairs = [
                (it, res)
                for it, res in zip(items, results)
                if cat == "overall" or it.category == cat
            ]
            oracle[cat] = sum(
                1 for it, res in pairs if res.extracted == it.reference
            ) / len(pairs)
        for cat, value in oracle.items():
            assert table["m"][cat] == pytest.approx(value)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        items = [mc_item(id=f"q{i}", reference="ABCD"[i % 4]) for i in range(20)]
        results = [
            MethodResult(f"q{i}", "m", "", "ABCD"[int(rng.integers(4))]) for i in range(20)
        ]
        base = accuracy(results, items)
        shuffled = list(results)
        rng.shuffle(shuffled)
        assert accuracy(shuffled, items) == base


class TestDatasetIO:
    def test_bundled_sample_loads(self):
        import importlib.resources as resources

        with resources.as_file(resources.files("vps").joinpath("data/sample_eval.jsonl")) as p:
            items = load_dataset(p)
        assert len(items) == 12
        tasks = {i.task for i in items}
        assert tasks == {"multiple_choice", "binary", "description"}

    def test_round_trip_identity(self, tmp_path):
        items = [
            mc_item(id="a"),
            EvalItem(id="b", video_ref="v", total_frames=16, task="binary",
                     question="q?", reference="no", category="mix"),
            EvalItem(id="c", video_ref="v", total_frames=16, task="description",
                     question="", reference="A dog runs."),
        ]
        path = tmp_path / "data.jsonl"
        save_dataset(items, path)
        assert load_dataset(path) == items

    def test_validation_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "video_ref": "v", "total_frames": 8, "task": "binary",
                "question": "q?", "reference": "yes"}
        bad = dict(good, id="b", options=["x", "y"])
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_repeated_id_named(self, tmp_path):
        # results are matched to items by id, so a second "q" would be judged against the first's reference
        path = tmp_path / "bad.jsonl"
        record = {"id": "q", "video_ref": "v", "total_frames": 8, "task": "binary", "question": "q?", "reference": "yes"}
        path.write_text(json.dumps(record) + "\n\n" + json.dumps(dict(record, reference="no")) + "\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert (err.value.line, err.value.fieldname) == (3, "id")

    def test_more_than_four_options_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "video_ref": "v", "total_frames": 8, "task": "multiple_choice",
                                    "question": "q?", "reference": "A", "options": list("abcde")}) + "\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert (err.value.line, err.value.fieldname) == (1, "options")

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert err.value.fieldname == "video_ref"

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(DatasetError):
            load_dataset(path)


class TestMethodSpec:
    @pytest.mark.parametrize(
        "tag,kind,streams,tcd,ritual",
        [
            ("baseline", "baseline", 1, False, False),
            ("vps:4", "vps", 4, False, False),
            ("sc:8", "sc", 8, False, False),
            ("vps:2+tcd", "vps", 2, True, False),
            ("vps:4+ritual", "vps", 4, False, True),
            ("vps:4+tcd+ritual", "vps", 4, True, True),
        ],
    )
    def test_parse(self, tag, kind, streams, tcd, ritual):
        spec = MethodSpec.parse(tag)
        assert (spec.kind, spec.streams, spec.tcd, spec.ritual) == (kind, streams, tcd, ritual)
        assert spec.tag == tag

    def test_rejects_garbage(self):
        for tag in ("vps", "vps:x", "sc:0", "magic:3", "vps:4+glitter", "sc:4+tcd"):
            with pytest.raises(ValueError):
                MethodSpec.parse(tag)


class TestRunBenchmark:
    def test_compute_matched_call_audit(self):
        world = ToyWorld.symmetric(4, 0.6)
        items, backend = toy_benchmark(world, 20, total_frames=64, seed=1)
        methods = [MethodSpec.parse("vps:4"), MethodSpec.parse("sc:4")]
        results, audit = run_benchmark(
            items, backend, methods, frames_per_stream=4, seed=0,
            max_tokens=1, stop_tokens=frozenset({world.stop_token}),
        )
        # one token per item, J calls per token for both methods
        assert audit["vps:4"] == audit["sc:4"] == 20 * 4
        assert len(results) == 40

    def test_parallel_items_equal_serial(self):
        world = ToyWorld.symmetric(4, 0.6)
        items, backend = toy_benchmark(world, 12, total_frames=64, seed=2)
        methods = [MethodSpec.parse("baseline"), MethodSpec.parse("vps:2")]
        kw = dict(
            frames_per_stream=4, seed=5, max_tokens=1,
            stop_tokens=frozenset({world.stop_token}),
        )
        serial, _ = run_benchmark(items, backend, methods, **kw)
        threaded, _ = run_benchmark(items, backend, methods, jobs=8, **kw)
        assert serial == threaded

    def test_item_seeds_are_derived_once_per_run(self, monkeypatch):
        from vps import eval_harness

        world = ToyWorld.symmetric(4, 0.6)
        items, backend = toy_benchmark(world, 20, total_frames=64, seed=1)
        methods = [MethodSpec.parse(tag) for tag in ("vps:4", "sc:3", "vps:2+tcd")]
        kw = dict(frames_per_stream=4, seed=9, max_tokens=2, stop_tokens=frozenset({world.stop_token}))
        expected = run_benchmark(items, backend, methods, **kw)
        calls = []
        derive = eval_harness.child_seeds
        monkeypatch.setattr(eval_harness, "child_seeds", lambda seeds, indices: calls.extend(seeds) or derive(seeds, indices))
        assert run_benchmark(items, backend, methods, **kw) == expected
        # one seed per item for the whole run, plus one per sc:3 sample, derived from its item's seed
        assert calls.count(9) == len(items)
        assert len(calls) == len(items) + 3 * len(items)

    def test_vps_beats_baseline_on_toy_world(self):
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = toy_benchmark(world, 150, total_frames=64, seed=3)
        methods = [MethodSpec.parse("baseline"), MethodSpec.parse("vps:4")]
        results, _ = run_benchmark(
            items, backend, methods, frames_per_stream=4, seed=0,
            max_tokens=1, stop_tokens=frozenset({world.stop_token}),
        )
        table = accuracy(results, items)
        assert table["vps:4"]["overall"] > table["baseline"]["overall"]


class TestDescriptionScoring:
    def test_rouge_attached_without_clients(self):
        item = EvalItem(
            id="d", video_ref="v", total_frames=8, task="description",
            question="", reference="a cat sat",
        )
        res = MethodResult("d", "baseline", "the cat sat", "the cat sat")
        score_description_results([res], [item])
        assert res.scores["rouge_l"] == pytest.approx(2 / 3)
        assert "sts" not in res.scores

    def test_description_rows_table(self):
        item = EvalItem(
            id="d", video_ref="v", total_frames=8, task="description",
            question="", reference="a cat sat",
        )
        res = MethodResult("d", "vps:4", "a cat sat", "a cat sat", scores={"rouge_l": 1.0, "sts": 0.5})
        rows = description_rows([res], [item], frames_per_stream=4)
        assert rows == [
            {
                "method": "vps:4",
                "nframe": 4,
                "llm_judge": None,
                "sts": 0.5,
                "rouge_l": 1.0,
                "sts_x100": 50.0,
            }
        ]
