"""Decode loop: mixing per step, token broadcast, traces, concurrency."""

import json
import warnings
import zlib

import numpy as np
import pytest

from vps.aggregation import Distribution, TcdConfig, Weights, argmax_token, mix_probs
from vps.backends import FixtureMissError, MockBackend, ScoreRequest
from vps.backends.toyworld import ToyBackend, ToyWorld, toy_episode
from vps.decode_engine import (
    DecodeConfig,
    DecodeError,
    DecodeTrace,
    Decoder,
    decode,
    negative_view,
    run_lockstep,
    step,
)
from vps.frame_selection import FrameSelectionPlan, uniform_offset_plan

from scorers import Counting, PerQuery, requests_of


class HashBackend(PerQuery):
    """Deterministic procedural scorer: distribution from a request digest."""

    def __init__(self, vocab_size, salt=0):
        self.vocab_size = vocab_size
        self.salt = salt

    def score(self, req):
        key = f"{self.salt}|{req.frame_set}|{req.view}|{req.generated}".encode()
        rng = np.random.default_rng(zlib.crc32(key))
        return Distribution.from_logits(rng.normal(size=self.vocab_size))


def fixtures_for_plan(plan, per_stream_probs, view="identity", generated=()):
    return {
        (plan.sets[j], view, tuple(generated)): Distribution.from_probs(p)
        for j, p in enumerate(per_stream_probs)
    }


class TestNegativeView:
    def test_odd_slots_zeroed(self):
        assert negative_view((0, 16, 32, 48)) == "zero:16,48"

    def test_position_based_not_value_based(self):
        assert negative_view((3, 5, 9)) == "zero:5"

    def test_single_frame_degenerate(self):
        assert negative_view((7,)) == "zero:"

    def test_empty_frame_set(self):
        with pytest.raises(ValueError):
            negative_view(())


def step_once(plan, backend, cfg):
    """The first step of a fresh decoder: its token and its step record."""
    decoder = Decoder("v", "p", plan, cfg)
    token = step(decoder, backend)
    return token, decoder.trace.steps[-1]


class TestStep:
    def test_single_stream_matches_backend(self):
        plan = uniform_offset_plan(8, 2, 1)
        probs = [[0.1, 0.7, 0.2]]
        backend = MockBackend(fixtures_for_plan(plan, probs))
        decoder = Decoder("v", "p", plan, DecodeConfig(streams=1, max_tokens=2))
        assert step(decoder, backend) == 1
        assert np.allclose(decoder.trace.steps[0].aggregated, probs[0])
        assert decoder.tokens == [1]
        assert [req.generated for req in requests_of(decoder.pending())] == [(1,)]

    def test_identical_frame_sets_match_single_stream(self):
        plan1 = uniform_offset_plan(64, 4, 1)
        plan4 = FrameSelectionPlan(64, 4, 4, plan1.sets * 4)
        probs = [0.2, 0.5, 0.3]
        backend = MockBackend({(plan1.sets[0], "identity", ()): Distribution.from_probs(probs)})
        t1, _ = step_once(plan1, backend, DecodeConfig(streams=1))
        t4, rec4 = step_once(plan4, backend, DecodeConfig(streams=4))
        assert t1 == t4
        assert np.allclose(rec4.aggregated, probs)

    def test_mixture_matches_hand_computation(self):
        plan = uniform_offset_plan(8, 2, 2)
        probs = [[0.8, 0.1, 0.1], [0.0, 0.2, 0.8]]
        backend = MockBackend(fixtures_for_plan(plan, probs))
        token, record = step_once(plan, backend, DecodeConfig(streams=2))
        expected = mix_probs(
            [Distribution.from_probs(p) for p in probs], Weights.uniform(2)
        )
        assert np.allclose(record.aggregated, expected.probs)
        assert token == argmax_token(expected)

    def test_backend_failure_aborts_without_append(self):
        plan = uniform_offset_plan(8, 2, 2)
        backend = MockBackend(fixtures_for_plan(plan, [[1.0, 0.0]] * 2))
        # second stream's fixture removed: its query must fail
        del backend.fixtures[(plan.sets[1], "identity", ())]
        decoder = Decoder("v", "p", plan, DecodeConfig(streams=2))
        with pytest.raises(DecodeError) as err:
            step(decoder, backend)
        assert err.value.stream_id == 1 and isinstance(err.value.__cause__, FixtureMissError)
        assert decoder.tokens == [] and decoder.trace.steps == []

    def test_failed_query_stops_the_step(self):
        plan = uniform_offset_plan(8, 2, 4)
        backend = Counting(MockBackend(fixtures_for_plan(plan, [[1.0, 0.0]] * 4)))
        del backend.inner.fixtures[(plan.sets[0], "identity", ())]
        with pytest.raises(DecodeError) as err:
            step_once(plan, backend, DecodeConfig(streams=4))
        assert err.value.stream_id == 0
        assert backend.calls == 1

    def test_mock_decodes_build_no_request(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a ScoreRequest was built")

        monkeypatch.setattr(ScoreRequest, "__post_init__", refuse)
        plan = uniform_offset_plan(8, 2, 2)
        backend = MockBackend(fixtures_for_plan(plan, [[0.2, 0.8], [0.4, 0.6]]))
        assert decode("v", "p", plan, backend, DecodeConfig(streams=2))[0] == [1]
        del backend.fixtures[(plan.sets[1], "identity", ())]
        with pytest.raises(DecodeError) as err:
            decode("v", "p", plan, backend, DecodeConfig(streams=2))
        assert isinstance(err.value.cause, FixtureMissError) and err.value.stream_id == 1

    def test_step_raises_the_first_failure_in_query_order(self):
        plan = uniform_offset_plan(8, 2, 4)
        backend = MockBackend(fixtures_for_plan(plan, [[1.0, 0.0]] * 4))
        for j in (1, 3):
            del backend.fixtures[(plan.sets[j], "identity", ())]
        decoder = Decoder("v", "p", plan, DecodeConfig(streams=4))
        with pytest.raises(DecodeError) as err:
            step(decoder, backend)
        assert (err.value.stream_id, err.value.role) == (1, "positive")
        assert decoder.tokens == [] and decoder.trace.steps == []

    def test_step_of_a_finished_decode_raises(self):
        plan = uniform_offset_plan(8, 2, 1)
        decoder = Decoder("v", "p", plan, DecodeConfig(streams=1))
        step(decoder, HashBackend(3))
        with pytest.raises(ValueError, match="0 pending requests"):
            step(decoder, HashBackend(3))
        assert decoder.steps == 1 and len(decoder.trace.steps) == 1

    def test_decoder_checks_its_queries_once(self):
        with pytest.raises(ValueError, match="ascending"):
            Decoder("v", "p", FrameSelectionPlan(8, 2, 1, ((5, 2),)), DecodeConfig(streams=1))
        with pytest.raises(ValueError, match="top_m"):
            Decoder("v", "p", uniform_offset_plan(8, 2, 1), DecodeConfig(streams=1, score_top_m=0))

    def test_tcd_negative_query_per_stream(self):
        plan = uniform_offset_plan(8, 2, 2)
        fixtures = fixtures_for_plan(plan, [[0.7, 0.2, 0.1], [0.6, 0.2, 0.2]])
        for j in range(2):
            fixtures[(plan.sets[j], negative_view(plan.sets[j]), ())] = Distribution.from_probs(
                [0.4, 0.5, 0.1]
            )
        backend = Counting(MockBackend(fixtures))
        cfg = DecodeConfig(streams=2, tcd=TcdConfig(0.5, 0.1))
        token, record = step_once(plan, backend, cfg)
        assert backend.calls == 4  # J * (1 + tcd)
        assert token == 0

    def test_ritual_augmented_query_per_stream(self):
        plan = uniform_offset_plan(8, 2, 2)
        fixtures = fixtures_for_plan(plan, [[1.0, 0.0], [1.0, 0.0]])
        for j in range(2):
            fixtures[(plan.sets[j], "aug:hflip", ())] = Distribution.from_probs([0.0, 1.0])
        backend = Counting(MockBackend(fixtures))
        cfg = DecodeConfig(streams=2, ritual_views=("hflip", "hflip"))
        _, record = step_once(plan, backend, cfg)
        assert backend.calls == 4  # J * (1 + ritual)
        assert np.allclose(record.aggregated, [0.5, 0.5])

    def test_backend_call_count_with_both(self):
        plan = uniform_offset_plan(16, 2, 2)
        backend = Counting(HashBackend(4))
        cfg = DecodeConfig(streams=2, tcd=TcdConfig(), ritual_views=("hflip", "vflip"))
        step_once(plan, backend, cfg)
        assert backend.calls == 2 * (1 + 1 + 1)

    def test_logit_space_mixing_uses_geometric_mean(self):
        plan = uniform_offset_plan(8, 2, 2)
        fixtures = {
            (plan.sets[0], "identity", ()): Distribution.from_logits(np.log([0.9, 0.1])),
            (plan.sets[1], "identity", ()): Distribution.from_logits(np.log([0.5, 0.5])),
        }
        backend = MockBackend(fixtures)
        cfg = DecodeConfig(streams=2, space="logit")
        _, record = step_once(plan, backend, cfg)
        assert np.allclose(record.aggregated, [0.75, 0.25], atol=1e-12)

    def test_score_top_m_adds_no_flag_the_backend_did_not_set(self):
        plan = uniform_offset_plan(16, 2, 2)
        backend = MockBackend(fixtures_for_plan(plan, [[0.6, 0.4], [0.3, 0.7]]))
        cfg = DecodeConfig(streams=2, score_top_m=3)
        _, record = step_once(plan, backend, cfg)
        for srec in record.streams:
            assert srec.flags == ()

    def test_degenerate_negative_flagged(self):
        plan = uniform_offset_plan(4, 1, 2)
        backend = HashBackend(4)
        cfg = DecodeConfig(streams=2, tcd=TcdConfig())
        _, record = step_once(plan, backend, cfg)
        for srec in record.streams:
            assert "tcd_negative_degenerate" in srec.flags


class TestDecode:
    def test_single_token_decode(self):
        plan = uniform_offset_plan(8, 2, 1)
        backend = MockBackend(fixtures_for_plan(plan, [[0.1, 0.9]]))
        tokens, trace = decode("v", "p", plan, backend, DecodeConfig(streams=1, max_tokens=1))
        assert tokens == [1]
        assert len(trace.steps) == 1

    def test_stop_token_ends_output(self):
        plan = uniform_offset_plan(8, 2, 1)
        key = plan.sets[0]
        fixtures = {
            (key, "identity", ()): Distribution.from_probs([1.0, 0.0]),
            (key, "identity", (0,)): Distribution.from_probs([1.0, 0.0]),
            (key, "identity", (0, 0)): Distribution.from_probs([1.0, 0.0]),
            (key, "identity", (0, 0, 0)): Distribution.from_probs([0.0, 1.0]),
        }
        backend = MockBackend(fixtures)
        cfg = DecodeConfig(streams=1, max_tokens=10, stop_tokens=frozenset({1}))
        tokens, trace = decode("v", "p", plan, backend, cfg)
        assert tokens == [0, 0, 0]
        assert len(trace.steps) == 4  # the stop step is recorded
        assert trace.steps[-1].token == 1

    def test_disjoint_plausible_sets_raise_before_softmax(self):
        # stream j keeps its mass on tokens 2j and 2j+1 of 9, so the TCD
        # log-space plausible sets of the four streams share no token
        plan = uniform_offset_plan(32, 2, 4)
        stream_of = {frames: j for j, frames in enumerate(plan.sets)}

        class DisjointBackend(PerQuery):
            def score(self, req):
                p = np.zeros(9)
                p[2 * stream_of[req.frame_set]: 2 * stream_of[req.frame_set] + 2] = (0.7, 0.3)
                return Distribution(p)

        cfg = DecodeConfig(streams=4, space="logit", tcd=TcdConfig(0.3, 0.05, "log"), max_tokens=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="streams share no plausible token"):
                decode("v", "p", plan, DisjointBackend(), cfg)

    def test_token_identity_across_streams(self):
        seen = []

        class AuditBackend(HashBackend):
            def score(self, req):
                seen.append(req.generated)
                return super().score(req)

        plan = uniform_offset_plan(64, 4, 4)
        decoder = Decoder("v", "p", plan, DecodeConfig(streams=4, max_tokens=5, temperature=0.7))
        while not decoder.done:
            emitted = tuple(rec.token for rec in decoder.trace.steps)
            seen.clear()
            step(decoder, AuditBackend(6))
            assert seen == [emitted] * 4
        assert decoder.steps == 5

    def test_context_never_exceeds_frames_per_stream(self):
        seen = []

        class AuditBackend(HashBackend):
            def score(self, req):
                seen.append(len(req.frame_set))
                return super().score(req)

        plan = uniform_offset_plan(64, 4, 8)
        decode("v", "p", plan, AuditBackend(5), DecodeConfig(streams=8, max_tokens=4))
        assert seen and all(n == 4 for n in seen)

    def test_plan_config_stream_mismatch(self):
        plan = uniform_offset_plan(8, 2, 2)
        with pytest.raises(ValueError):
            decode("v", "p", plan, HashBackend(3), DecodeConfig(streams=4))

    def test_decode_error_carries_partial_trace(self):
        plan = uniform_offset_plan(8, 2, 1)
        key = plan.sets[0]
        fixtures = {
            (key, "identity", ()): Distribution.from_probs([1.0, 0.0]),
            (key, "identity", (0,)): Distribution.from_probs([0.3, 0.7]),
        }
        backend = MockBackend(fixtures)  # no fixture for step 2: it fails
        cfg = DecodeConfig(streams=1, max_tokens=5)
        with pytest.raises(DecodeError) as err:
            decode("v", "p", plan, backend, cfg)
        assert len(err.value.trace.steps) == 2
        assert err.value.tokens == [0, 1]

    def test_trace_round_trip(self):
        plan = uniform_offset_plan(16, 2, 2)
        backend = HashBackend(4)
        _, trace = decode("v", "p", plan, backend, DecodeConfig(streams=2, max_tokens=3))
        text = trace.to_jsonl()
        assert DecodeTrace.from_jsonl(text).to_jsonl() == text

    def test_loaded_stream_vectors_are_checked(self):
        line = {"step": 0, "token": 0, "aggregated": [1.0, 0.0], "streams": [{"stream": 0, "probs": [0.25, 0.25]}]}
        with pytest.raises(ValueError, match=r"^probs sum to 0\.5, expected 1"):  # a Python float, no numpy repr
            DecodeTrace.from_jsonl(json.dumps(line))
        with pytest.raises(ValueError, match=r"^probs sum to 0\.5 in row 1, expected 1"):  # a stack names its row
            Distribution(np.array([[1.0, 0.0], [0.25, 0.25], [0.5, 0.0]]))
        line["streams"][0]["probs"] = [[1.0, 0.0]]  # a valid stack, but a trace stores vectors
        with pytest.raises(ValueError, match="one vector"):
            DecodeTrace.from_jsonl(json.dumps(line))


class TestToyWorldOracle:
    def test_trace_matches_direct_bayes_enumeration(self):
        # every per-stream distribution and the mixture recomputed by hand
        from vps.backends.toyworld import toy_posterior

        world = ToyWorld.symmetric(4, 0.7)
        backend = ToyBackend(world)
        episode = toy_episode(world, 64, seed=31)
        backend.add_episode(episode)
        plan = uniform_offset_plan(64, 4, 2)
        cfg = DecodeConfig(streams=2, max_tokens=1)
        tokens, trace = decode(episode.video_ref, "q", plan, backend, cfg, seed=0)

        posteriors = [
            toy_posterior(world, [(t, episode.frames[t]) for t in plan.sets[j]])
            for j in range(2)
        ]
        record = trace.steps[0]
        for j, post in enumerate(posteriors):
            assert np.allclose(record.streams[j].probs, post.probs)
        expected = mix_probs(posteriors, Weights.uniform(2))
        assert np.allclose(record.aggregated, expected.probs)
        assert tokens[0] == argmax_token(expected)

    def test_complementary_evidence_recovered_by_engine(self):
        # no single stream's argmax is the truth, but the decode returns it
        plan = uniform_offset_plan(64, 4, 4)
        truth = 0
        fixtures = {}
        for j, wrong in enumerate((1, 2, 3, 4)):
            probs = np.full(5, 0.1)
            probs[truth], probs[wrong] = 0.3, 0.4
            fixtures[(plan.sets[j], "identity", ())] = Distribution.from_probs(probs)
        backend = MockBackend(fixtures, vocab=("A", "B", "C", "D", "E"))
        tokens, trace = decode("v", "p", plan, backend, DecodeConfig(streams=4), seed=0)
        per_stream_argmax = {int(np.argmax(s.probs)) for s in trace.steps[0].streams}
        assert truth not in per_stream_argmax
        assert tokens == [truth]


class TestDeterminism:
    @pytest.mark.parametrize("streams", [1, 2, 4, 8])
    def test_bit_identical_across_runs_and_thread_counts(self, streams):
        plan = uniform_offset_plan(64, 4, streams)
        cfg = DecodeConfig(
            streams=streams, max_tokens=4, temperature=0.8, tcd=TcdConfig()
        )
        texts = []
        for jobs in (1, 1, 8):
            backend = HashBackend(6, salt=streams)
            _, trace = decode("v", "p", plan, backend, cfg, seed=123, jobs=jobs)
            texts.append(trace.to_jsonl())
        assert texts[0] == texts[1] == texts[2]

    def test_toy_backend_threaded_equals_serial(self):
        world = ToyWorld.symmetric(4, 0.6)
        backend = ToyBackend(world)
        episode = toy_episode(world, 64, seed=5)
        backend.add_episode(episode)
        plan = uniform_offset_plan(64, 4, 4)
        cfg = DecodeConfig(streams=4, max_tokens=2, stop_tokens=frozenset({world.stop_token}))
        runs = [
            decode(episode.video_ref, "q", plan, backend, cfg, seed=7, jobs=jobs)
            for jobs in (1, 8)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1].to_jsonl() == runs[1][1].to_jsonl()


class TestGreedySeed:
    def test_greedy_decodes_derive_no_sampling_seed(self, monkeypatch, tmp_path):
        from vps import decode_engine
        from vps.cli import main

        plan = uniform_offset_plan(64, 4, 4)
        cfg = DecodeConfig(streams=4, max_tokens=4, tcd=TcdConfig())
        want = decode("v", "p", plan, HashBackend(6), cfg, seed=3)[1].to_jsonl()
        argv = ["run", "--backend", "toy", "--toy-episodes", "6", "--methods", "baseline,vps:4,vps:2+tcd+ritual",
                "--k", "4", "--max-tokens", "2", "--seed", "2", "--out-dir"]
        assert main(argv + [str(tmp_path / "seeded")]) == 0

        def refuse(seed, index):
            raise AssertionError("a greedy step derived a sampling seed")

        monkeypatch.setattr(decode_engine, "derive_seed", refuse)
        monkeypatch.setattr(decode_engine, "child_seeds", refuse)  # a round of several decoders
        for jobs in (1, 2):
            assert decode("v", "p", plan, HashBackend(6), cfg, seed=3, jobs=jobs)[1].to_jsonl() == want
        assert main(argv + [str(tmp_path / "greedy")]) == 0
        for name in ("results.jsonl", "summary.json", "accuracy.csv"):
            assert (tmp_path / "greedy" / name).read_bytes() == (tmp_path / "seeded" / name).read_bytes()
        sampled = DecodeConfig(streams=4, max_tokens=1, temperature=0.5)
        with pytest.raises(AssertionError, match="derived a sampling seed"):
            decode("v", "p", plan, HashBackend(6), sampled, seed=3)
        world = ToyWorld.symmetric(4, 0.6)
        toy = ToyBackend(world)
        episode = toy_episode(world, 64, seed=5)
        toy.add_episode(episode)
        with pytest.raises(AssertionError, match="derived a sampling seed"):  # a toy round is fused whole
            run_lockstep([[Decoder(episode.video_ref, "q", plan, sampled, seed=s)] for s in (3, 4)], toy)

    def test_a_negative_seed_is_refused_when_the_decoder_is_built(self):
        plan = uniform_offset_plan(64, 4, 2)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            Decoder("v", "p", plan, DecodeConfig(streams=2, temperature=0.5), seed=-1)
