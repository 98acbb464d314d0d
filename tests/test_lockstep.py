"""Lock-step decoding: batched toy scoring, equivalence with decoding one
decode at a time, and what a failed query does to a lock-step run."""

import dataclasses
import threading
import weakref
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vps.aggregation import Distribution, TcdConfig, argmax_token
from vps.backends import ScoreRequest, ScoreStep, StackedRound
from vps.backends.toyworld import ToyBackend, ToyWorld, toy_episode
from vps.backends.wire import WireBackend, WireConfig
from vps.decode_engine import DecodeConfig, DecodeError, Decoder, DecodeTrace, decode, negative_view, run_lockstep
from vps.eval_harness import (
    RITUAL_TAG_POOL,
    EvalItem,
    MethodResult,
    MethodSpec,
    build_prompt,
    extract_answer,
    majority_vote,
    method_decodes,
    run_benchmark,
    tokens_to_text,
    toy_benchmark,
)
from vps.frame_selection import uniform_offset_plan
from vps.seeds import derive_seed
from vps.views import IDENTITY, augmented_view

from scorers import Counting, MockBackend, PerQuery, requests_of, stack_of
from test_decode_engine import HashBackend


class ScoreOnly(PerQuery):
    """A scorer's ``score`` and vocabulary, scored one query at a time."""

    def __init__(self, inner):
        self.inner = inner

    def score(self, req):
        return self.inner.score(req)

    def token_text(self, token):
        return getattr(self.inner, "token_text", str)(token)


class Failing(ScoreOnly):
    """Records every request it is sent; the requests ``bad`` picks raise."""

    def __init__(self, inner, bad, exc=ConnectionError("scorer down")):
        super().__init__(inner)
        self.bad, self.exc, self.sent = bad, exc, []

    def score(self, req):
        self.sent.append(req)
        if self.bad(req):
            raise self.exc
        return self.inner.score(req)


def steps_of(requests):
    """One single-query step per request, in request order."""
    return [ScoreStep.of(req) for req in requests]


def oracle_posterior(world, symbols):
    """The answer-token posterior, one frame's log likelihood added at a time."""
    log_post = world.log_prior
    for s in symbols:
        log_post = log_post + world.log_emission[:, s]
    finite = np.isfinite(log_post)
    post = np.exp(log_post - log_post[finite].max())
    post[~finite] = 0.0
    post /= post.sum()
    probs = np.zeros(len(world.vocab))
    for z, token in enumerate(world.answer_tokens):
        probs[token] += post[z]
    return probs


class TestToyScoreBatch:
    @pytest.mark.parametrize("labels,match", [(4, 0.55), (9, 0.3)])
    def test_batch_equals_per_request_scores(self, labels, match):
        world = ToyWorld.symmetric(labels, match)
        backend = ToyBackend(world)
        episodes = [toy_episode(world, 32, seed) for seed in (3, 4)]
        for ep in episodes:
            backend.add_episode(ep)
        steps, oracle = [], []
        for ep in episodes:
            for frames in ((5,), (0, 9), (1, 8, 16, 30), (2, 3, 5, 7, 11, 13, 17)):
                # view -> the frames it drops (None: an augmentation, checked below)
                views = {"identity": (), negative_view(frames): frames[1::2]}
                views["zero:" + ",".join(map(str, frames))] = frames
                views.update({f"aug:{tag}": None for tag in RITUAL_TAG_POOL})
                for view, dropped in views.items():
                    kept = None if dropped is None else [ep.frames[t] for t in frames if t not in dropped]
                    oracle.append(None if kept is None else oracle_posterior(world, kept))
                steps.append(ScoreStep(ep.video_ref, "q", (), None, tuple((frames, view) for view in views)))
                steps.append(ScoreStep(ep.video_ref, "q", (2,), None, ((frames, "identity"),)))
                stop = np.zeros(len(world.vocab))
                stop[world.stop_token] = 1.0
                oracle.append(stop)
        requests = [req for step in steps for req in requests_of(step)]
        batch = backend.score_batch(steps)
        assert len(batch) == len(requests)
        for req, got, want in zip(requests, batch, oracle):
            assert np.array_equal(got.probs, backend.score(req).probs), req
            if want is not None:
                assert np.array_equal(got.probs, want), req
        # an augmented view preserves content: its posterior is the identity's
        for req, got in zip(requests, batch):
            if req.view.startswith("aug:"):
                plain = backend.score(ScoreRequest(req.video_ref, req.frame_set, "identity", "q", ()))
                assert np.allclose(got.probs, plain.probs, rtol=0, atol=1e-15)

    def test_batch_order_and_unknown_video(self):
        world = ToyWorld.symmetric(4, 0.6)
        backend = ToyBackend(world)
        ep = toy_episode(world, 16, 1)
        backend.add_episode(ep)
        requests = [ScoreRequest(ep.video_ref, (t, t + 4), "identity", "q", ()) for t in range(8)]
        forward = backend.score_batch(steps_of(requests))
        backward = backend.score_batch(steps_of(requests[::-1]))
        for a, b in zip(forward, backward[::-1]):
            assert np.array_equal(a.probs, b.probs)
        assert list(backend.score_batch([])) == []
        replies = backend.score_batch(steps_of(requests + [ScoreRequest("toy:missing", (0,), "identity", "q", ())]))
        for a, b in zip(forward, replies):  # the rows before the unknown video, then its error
            assert np.array_equal(a.probs, b.probs)
        with pytest.raises(KeyError):
            next(replies)


def one_decode_at_a_time(items, scorer, methods, frames_per_stream, seed, **kw):
    """run_benchmark's results and audit, decoding each decode on its own; a
    failed decode fails its item x method. The audit is counted at the scorer."""
    results, audit = [], {}
    for method in methods:
        counter = Counting(scorer)
        rows = []
        for idx, item in enumerate(items):
            try:
                outputs = [
                    tokens_to_text(decode(item.video_ref, build_prompt(item), plan, counter, cfg, seed=s)[0], scorer)
                    for plan, cfg, s in method_decodes(item, method, frames_per_stream, derive_seed(seed, idx), **kw)
                ]
            except DecodeError as exc:
                error = {"type": type(exc.cause).__name__, "stream": exc.stream_id, "role": exc.role,
                         "message": str(exc.cause)}
                rows.append(MethodResult(item.id, method.tag, "", None, error=error))
                continue
            if method.kind == "sc":
                vote = majority_vote([extract_answer(text, item.task) for text in outputs])
                rows.append(MethodResult(item.id, method.tag, "", vote))
            else:
                rows.append(MethodResult(item.id, method.tag, outputs[0], extract_answer(outputs[0], item.task)))
        results.extend(sorted(rows, key=lambda r: r.item_id))
        audit[method.tag] = counter.calls
    return results, audit


METHODS = ("baseline", "vps:4", "sc:4", "vps:4+tcd", "vps:4+ritual", "vps:2+tcd+ritual")


class TestLockstepEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("space", ["probability", "logit"])
    @pytest.mark.parametrize("batching", [True, False])
    def test_toy_run_equals_one_decode_at_a_time(self, jobs, space, batching):
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = toy_benchmark(world, 12, total_frames=64, seed=8)
        scorer = backend if batching else ScoreOnly(backend)
        methods = [MethodSpec.parse(tag) for tag in METHODS]
        kw = dict(space=space, temperature=0.8, max_tokens=3, stop_tokens=frozenset({world.stop_token}))
        results, audit = run_benchmark(items, scorer, methods, 4, seed=21, jobs=jobs, **kw)
        expected, expected_audit = one_decode_at_a_time(items, ScoreOnly(backend), methods, 4, 21, **kw)
        assert [r.to_json() for r in results] == [r.to_json() for r in expected]
        assert audit == expected_audit

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_multi_token_run_equals_one_decode_at_a_time(self, jobs):
        items = [
            EvalItem(id=f"d{i}", video_ref=f"v{i}", total_frames=32, task="description", question="", reference="x")
            for i in range(5)
        ]
        scorer = HashBackend(7, salt=3)
        methods = [MethodSpec.parse(tag) for tag in ("vps:4+tcd", "sc:3", "vps:2+ritual")]
        kw = dict(temperature=0.9, max_tokens=3, stop_tokens=frozenset({0}))
        results, audit = run_benchmark(items, scorer, methods, 4, seed=2, jobs=jobs, **kw)
        expected, expected_audit = one_decode_at_a_time(items, scorer, methods, 4, 2, **kw)
        assert [r.to_json() for r in results] == [r.to_json() for r in expected]
        assert audit == expected_audit
        assert any(len(r.raw_output) > 1 for r in results)  # some decodes ran several steps


class TestOneSchedulingPath:
    def test_toy_run_scores_in_batches_at_every_job_count(self, monkeypatch):
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = toy_benchmark(world, 6, total_frames=64, seed=8)
        methods = [MethodSpec.parse(tag) for tag in ("vps:4+tcd+ritual", "sc:4")]
        kw = dict(max_tokens=2, stop_tokens=frozenset({world.stop_token}))
        serial = run_benchmark(items, backend, methods, 4, seed=3, **kw)

        def refuse(self, req):
            raise AssertionError("ToyBackend.score called: a round was scored query by query")

        monkeypatch.setattr(ToyBackend, "score", refuse)
        assert run_benchmark(items, backend, methods, 4, seed=3, jobs=2, **kw) == serial

    def test_no_thread_is_started(self, monkeypatch):
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = toy_benchmark(world, 4, total_frames=64, seed=8)
        methods = [MethodSpec.parse(tag) for tag in ("vps:4+tcd", "sc:2")]
        plan = uniform_offset_plan(64, 4, 4)
        cfg = DecodeConfig(streams=4, max_tokens=3, temperature=0.7, tcd=TcdConfig())

        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        results, _ = run_benchmark(items, ScoreOnly(backend), methods, 4, seed=3, jobs=4)
        assert len(results) == 8 and all(r.error is None for r in results)
        _, trace = decode("v", "p", plan, HashBackend(6), cfg, seed=5, jobs=8)
        assert len(trace.steps) == 3


def parent_requests(decoder):
    """The requests of the decoder's next step as they were built one by one
    before steps existed, in the same order."""
    cfg, requests = decoder.cfg, []
    for j, frame_set in enumerate(decoder.plan.sets):
        views = [IDENTITY]
        if cfg.ritual_views is not None:
            views.append(augmented_view(cfg.ritual_views[j]))
        if cfg.tcd is not None:
            views.append(negative_view(frame_set))
        requests += [
            ScoreRequest(decoder.video_ref, frame_set, view, decoder.prompt, tuple(decoder.tokens), cfg.score_top_m)
            for view in views
        ]
    return requests


class Recording(ScoreOnly):
    """Records every request it is sent."""

    def __init__(self, inner):
        super().__init__(inner)
        self.sent = []

    def score(self, req):
        self.sent.append(req)
        return self.inner.score(req)


class TestStepPath:
    def test_toy_round_is_one_native_call_and_builds_no_request(self, monkeypatch):
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = toy_benchmark(world, 6, total_frames=64, seed=8)
        methods = [MethodSpec.parse("vps:4+tcd+ritual")]
        expected = run_benchmark(items, ScoreOnly(backend), methods, 4, seed=3, max_tokens=1)
        rounds = []
        native = ToyBackend.score_batch

        def recording(self, steps, jobs=1):
            rounds.append([len(step) for step in steps])
            return native(self, steps, jobs)

        def refuse(self):
            raise AssertionError("a ScoreRequest was built")

        monkeypatch.setattr(ToyBackend, "score_batch", recording)
        monkeypatch.setattr(ScoreRequest, "__post_init__", refuse)
        assert run_benchmark(items, backend, methods, 4, seed=3, max_tokens=1) == expected
        assert rounds == [[12] * 6]  # one round: a step of 4 x 3 queries per item, in one call
        assert expected[1] == {"vps:4+tcd+ritual": 6 * 12}

    @pytest.mark.parametrize("tags", [("vps:4+tcd+ritual", "sc:3", "baseline"), ("vps:2+ritual", "vps:3+tcd")])
    def test_score_only_scorer_gets_the_requests_sent_one_by_one(self, monkeypatch, tags):
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = toy_benchmark(world, 5, total_frames=64, seed=8)
        expected = []
        pending = Decoder.pending

        def noting(decoder):
            if not decoder.done:
                expected.extend(parent_requests(decoder))
            return pending(decoder)

        monkeypatch.setattr(Decoder, "pending", noting)
        scorer = Recording(backend)
        methods = [MethodSpec.parse(tag) for tag in tags]
        run_benchmark(items, scorer, methods, 4, seed=3, temperature=0.7, max_tokens=3,
                      stop_tokens=frozenset({world.stop_token}))
        cfg = DecodeConfig(streams=3, max_tokens=3, tcd=TcdConfig(), ritual_views=RITUAL_TAG_POOL[:3], score_top_m=2)
        decode(items[0].video_ref, "q", uniform_offset_plan(64, 4, 3), scorer, cfg)
        assert any(req.top_m == 2 and req.generated for req in expected)
        assert scorer.sent == expected

    def test_one_query_step_round_trip(self):
        req = ScoreRequest("v", (1, 5), "zero:5", "p", (3, 4), top_m=7)
        assert requests_of(ScoreStep.of(req)) == [req]
        assert len(ScoreStep.of(req)) == 1


def manual_decode(video_ref, prompt, plan, scorer, cfg, seed):
    """The decode loop driven by hand, one ``score`` call per request."""
    decoder = Decoder(video_ref, prompt, plan, cfg, seed)
    while not decoder.done:
        decoder.advance([scorer.score(req) for req in requests_of(decoder.pending())])
    return decoder.tokens, decoder.trace.to_jsonl()


class TestDecodeTraces:
    @pytest.mark.parametrize("cfg", [
        DecodeConfig(streams=4, max_tokens=4, temperature=0.8, tcd=TcdConfig()),
        DecodeConfig(streams=4, max_tokens=3, space="logit", ritual_views=RITUAL_TAG_POOL[:4], tcd=TcdConfig()),
        DecodeConfig(streams=2, max_tokens=5, stop_tokens=frozenset({1})),
    ])
    def test_traces_identical_at_every_job_count(self, cfg):
        plan = uniform_offset_plan(64, 4, cfg.streams)
        scorer = HashBackend(6, salt=cfg.streams)
        expected = manual_decode("v", "p", plan, scorer, cfg, seed=11)
        for jobs in (1, 2, 4):
            tokens, trace = decode("v", "p", plan, scorer, cfg, seed=11, jobs=jobs)
            assert (tokens, trace.to_jsonl()) == expected

    def test_toy_traces_identical_at_every_job_count(self):
        world = ToyWorld.symmetric(4, 0.6)
        backend = ToyBackend(world)
        episode = toy_episode(world, 64, seed=9)
        backend.add_episode(episode)
        plan = uniform_offset_plan(64, 4, 8)
        cfg = DecodeConfig(
            streams=8, max_tokens=3, stop_tokens=frozenset({world.stop_token}), tcd=TcdConfig(),
            ritual_views=tuple(RITUAL_TAG_POOL[j % 5] for j in range(8)),
        )
        expected = manual_decode(episode.video_ref, "q", plan, backend, cfg, seed=4)
        for jobs in (1, 2, 4):
            for scorer in (backend, ScoreOnly(backend)):
                tokens, trace = decode(episode.video_ref, "q", plan, scorer, cfg, seed=4, jobs=jobs)
                assert (tokens, trace.to_jsonl()) == expected


def toy_run(scorer_of, tags, jobs=1, items=4):
    world = ToyWorld.symmetric(4, 0.55)
    toy_items, backend = toy_benchmark(world, items, total_frames=64, seed=13)
    scorer = scorer_of(backend, toy_items)
    methods = [MethodSpec.parse(tag) for tag in tags]
    results, audit = run_benchmark(
        toy_items, scorer, methods, 4, seed=5, jobs=jobs, max_tokens=2, stop_tokens=frozenset({world.stop_token}),
    )
    return toy_items, scorer, results, audit


class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_failed_query_fails_only_its_item_method(self, jobs):
        plan = uniform_offset_plan(64, 4, 4)

        def bad(items):
            return lambda req: req.video_ref == items[1].video_ref and req.frame_set == plan.sets[2] and (
                req.view.startswith("zero:"))

        tags = ("vps:4+tcd", "baseline")
        items, scorer, results, _ = toy_run(lambda b, items: Failing(b, bad(items)), tags, jobs)
        _, _, clean, _ = toy_run(lambda b, items: b, tags, jobs)
        error = {"type": "ConnectionError", "stream": 2, "role": "negative", "message": "scorer down"}
        for got, want in zip(results, clean):
            if (got.item_id, got.method) == (items[1].id, "vps:4+tcd"):
                assert got.extracted is None and got.error == error
            else:
                assert got == want

    def test_failed_decode_sends_no_later_query(self):
        plan = uniform_offset_plan(64, 4, 4)

        def failing(backend, items):
            return Failing(backend, lambda req: req.video_ref == items[1].video_ref and req.frame_set == plan.sets[1])

        items, scorer, _, audit = toy_run(failing, ("vps:4+tcd",))
        sent = [(req.frame_set, req.view) for req in scorer.sent if req.video_ref == items[1].video_ref]
        # stream 0's two queries, then stream 1's positive, which fails
        assert sent == [
            (plan.sets[0], "identity"), (plan.sets[0], negative_view(plan.sets[0])), (plan.sets[1], "identity"),
        ]
        # the other items ran both steps (the answer, then the stop token)
        assert audit["vps:4+tcd"] == len(scorer.sent) == 3 * 2 * 8 + 3

    def test_failed_sample_stops_its_siblings(self):
        def failing(backend, items):
            return Failing(backend, lambda req: req.video_ref == items[2].video_ref)

        items, scorer, results, audit = toy_run(failing, ("sc:4",))
        assert sum(req.video_ref == items[2].video_ref for req in scorer.sent) == 1
        assert audit["sc:4"] == 3 * 4 * 2 + 1
        assert [r.error is not None for r in results] == [False, False, True, False]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_always_failing_scorer_audit(self, jobs):
        tags = ("baseline", "vps:4", "sc:4", "vps:2+tcd+ritual")
        items, _, results, audit = toy_run(lambda b, items: Failing(b, lambda req: True), tags, jobs, items=5)
        # each item x method sends its first query, which fails and ends it, as one decode at a time did
        assert audit == {tag: 5 for tag in tags}
        assert all(r.error == {"type": "ConnectionError", "stream": 0, "role": "positive",
                               "message": "scorer down"} for r in results)

    def test_failed_native_batch_is_attributed_to_its_request(self):
        class BatchRefusing(Failing):
            """Scores natively, and raises lazily at a batch's first bad request,
            after the replies before it."""

            def score_batch(self, steps, jobs=1):
                requests = [req for step in steps for req in requests_of(step)]
                for req, reply in zip(requests, self.inner.score_batch(steps)):
                    if self.bad(req):
                        raise self.exc
                    yield reply

        def bad(items):
            return lambda req: req.video_ref == items[2].video_ref and req.view == "aug:vflip"

        tags = ("vps:4+ritual", "vps:2")
        exc = ValueError("bad view")
        items, _, results, audit = toy_run(lambda b, items: BatchRefusing(b, bad(items), exc), tags)
        _, _, expected, expected_audit = toy_run(lambda b, items: Failing(b, bad(items), exc), tags)
        assert [r.to_json() for r in results] == [r.to_json() for r in expected]
        assert audit == expected_audit
        failed = [r for r in results if r.error is not None]
        assert [(r.item_id, r.method) for r in failed] == [(items[2].id, "vps:4+ritual")]
        assert failed[0].error == {"type": "ValueError", "stream": 1, "role": "augmented", "message": "bad view"}

    def test_failed_round_is_scored_once(self, monkeypatch):
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = toy_benchmark(world, 16, total_frames=64, seed=8)
        items[5] = dataclasses.replace(items[5], video_ref="toy:unregistered")
        methods = [MethodSpec.parse("vps:4+tcd")]
        expected = run_benchmark(items, ScoreOnly(backend), methods, 4, seed=3, max_tokens=1)
        rounds = []
        native = ToyBackend.score_batch

        def recording(self, steps, jobs=1):
            rounds.append(sum(map(len, steps)))
            return native(self, steps, jobs)

        def refuse(self):
            raise AssertionError("a ScoreRequest was built")

        monkeypatch.setattr(ToyBackend, "score_batch", recording)
        monkeypatch.setattr(ScoreRequest, "__post_init__", refuse)
        results, audit = run_benchmark(items, backend, methods, 4, seed=3, max_tokens=1)
        assert (results, audit) == expected
        # the round ends at item 5's first query, and the 10 items after it are the next round
        assert rounds == [16 * 8, 10 * 8]
        assert audit == {"vps:4+tcd": 5 * 8 + 1 + 10 * 8}
        assert [(r.item_id, r.error["type"]) for r in results if r.error] == [(items[5].id, "KeyError")]

    def test_failed_query_ends_the_round(self, monkeypatch):
        # six items, each a 3-step vps:2+tcd decode (4 queries a step) over its own frames
        items = [
            EvalItem(id=f"d{i}", video_ref=f"v{i}", total_frames=32 + 8 * i, task="description", question="",
                     reference="x")
            for i in range(6)
        ]
        method = MethodSpec.parse("vps:2+tcd")
        (plan, _, _), = method_decodes(items[2], method, 4, 0)

        def bad(req):  # item 2's step 2 fails at its last query, stream 1's negative
            return req.video_ref == "v2" and len(req.generated) == 1 and req.view == negative_view(plan.sets[1])

        scorer = Failing(HashBackend(7, salt=3), bad)
        expected, expected_audit = one_decode_at_a_time(items, scorer, [method], 4, 2, max_tokens=3)
        (plan0, cfg0, seed0), = method_decodes(items[0], method, 4, derive_seed(2, 0), max_tokens=3)
        expected_trace = decode("v0", build_prompt(items[0]), plan0, scorer, cfg0, seed=seed0)[1]
        rounds = []
        native = Failing.score_batch

        def recording(self, steps, jobs=1):
            rounds.append(sum(map(len, steps)))
            return native(self, steps, jobs)

        monkeypatch.setattr(Failing, "score_batch", recording)
        trace = DecodeTrace()
        results, audit = run_benchmark(items, scorer, [method], 4, seed=2, max_tokens=3, trace=trace)
        assert [r.to_json() for r in results] == [r.to_json() for r in expected]
        assert audit == expected_audit == {"vps:2+tcd": 5 * 3 * 4 + 4 + 4}
        assert trace.to_jsonl() == expected_trace.to_jsonl()
        assert [(r.item_id, r.error) for r in results if r.error] == [
            ("d2", {"type": "ConnectionError", "stream": 1, "role": "negative", "message": "scorer down"})]
        # round 2 ends at item 2's failure; items 3-5 score their step 2 with items 0-1's step 3
        assert rounds == [6 * 4, 6 * 4, 5 * 4, 3 * 4]

    @pytest.mark.parametrize("form", [list, iter, lambda replies: StackedRound(stack_of(replies))],
                             ids=["list", "iter", "stacked"])
    def test_wrong_reply_count_propagates(self, form):
        class Miscounting(ScoreOnly):
            """A batching scorer that drops the last reply of every batch, or
            with ``extra`` repeats it."""

            def __init__(self, inner, extra):
                super().__init__(inner)
                self.extra = extra

            def score_batch(self, steps, jobs=1):
                replies = list(self.inner.score_batch(steps))
                return form(replies + replies[-1:] if self.extra else replies[:-1])

        world = ToyWorld.symmetric(4, 0.55)
        backend = ToyBackend(world)
        episode = toy_episode(world, 64, seed=9)
        backend.add_episode(episode)
        plan, cfg = uniform_offset_plan(64, 4, 2), DecodeConfig(streams=2)
        for extra, match in ((False, "ran short"), (True, "ran long")):
            with pytest.raises(ValueError, match=match):
                toy_run(lambda b, items: Miscounting(b, extra), ("vps:2",))
            with pytest.raises(ValueError, match=match):
                decode(episode.video_ref, "q", plan, Miscounting(backend, extra), cfg)
            with pytest.raises(ValueError, match=match):
                run_lockstep([[Decoder(episode.video_ref, "q", plan, cfg)]], Miscounting(backend, extra))

    def test_replies_are_released_once_their_decoder_advanced(self):
        class Holding(ScoreOnly):
            """Counts, at each call, the replies it returned that are still alive."""

            def __init__(self, inner):
                super().__init__(inner)
                self.refs, self.alive = [], []

            def score(self, req):
                self.alive.append(sum(ref() is not None for ref in self.refs))
                dist = self.inner.score(req)
                self.refs.append(weakref.ref(dist))
                return dist

        # a round holds no more replies than one decoder's step, as one decode at a time did
        for tag, per_step in (("sc:4", 1), ("vps:4+tcd", 8)):
            _, scorer, _, _ = toy_run(lambda b, items: Holding(b), (tag,))
            assert max(scorer.alive) == per_step - 1

    def test_hard_down_backend_exhausts_one_query_per_item_method(self):
        items = [
            EvalItem(id=f"i{n}", video_ref=f"v{n}", total_frames=8, task="binary", question="q?", reference="yes")
            for n in range(2)
        ]
        backend = WireBackend(WireConfig("http://127.0.0.1:1", timeout=2.0, max_retries=3, backoff=0.001))
        methods = [MethodSpec.parse("baseline"), MethodSpec.parse("vps:2")]
        results, audit = run_benchmark(items, backend, methods, 2, seed=0)
        assert audit == {"baseline": 2, "vps:2": 2}
        assert backend.retries_total == 4 * 3
        assert all(r.error["type"] == "WireTransportError" and r.error["stream"] == 0 for r in results)


class Whole:
    """Reads each round of ``inner`` whole. A round of dense replies of one
    vocabulary goes back as the toy's does, one stack; any other as a list,
    which is read lazily. A round with a failed query goes back, as the toy's
    does, as an iterator over the replies before it, which then raises."""

    def __init__(self, inner):
        self.inner = inner

    def score_batch(self, steps, jobs=1):
        replies = []
        try:
            replies.extend(self.inner.score_batch(steps, jobs))
        except Exception as exc:  # noqa: BLE001 - raised again at its reply
            return then_raise(replies, exc)
        if len({len(d) for d in replies}) == 1 and all(d.support is None for d in replies):
            return StackedRound(stack_of(replies))
        return replies


def then_raise(replies, exc):
    yield from replies
    raise exc


def fixture(key, vocab, sparse):
    """A reply for ``key``: dense probabilities (some zero, some nearly one
    token's), dense logits (some -inf) or, when ``sparse``, a top-m reply whose
    width depends on the key. Half the negative views put 0.92 on their
    positive's top token, so that a strong contrast can clamp every plausible
    token to zero."""
    frame_set, view, prefix = key
    rng = np.random.default_rng(zlib.crc32(repr(key).encode()))
    if view.startswith("zero:") and rng.random() < 0.5:
        p = np.full(vocab, 0.02)
        p[argmax_token(fixture((frame_set, IDENTITY, prefix), vocab, sparse))] = 0.92
        return Distribution.from_probs(p)
    kind = rng.integers(3 if sparse else 2)
    if kind == 0:
        p = rng.dirichlet(np.ones(vocab)) * (rng.random(vocab) < 0.8)
        p[rng.integers(vocab)] += rng.choice([0.0, 0.5, 20.0])
        return Distribution.from_probs(p / p.sum())
    if kind == 1:
        z = np.where(rng.random(vocab) < 0.2, -np.inf, rng.normal(size=vocab))
        z[rng.integers(vocab)] = 1.0
        return Distribution.from_logits(z)
    support = np.sort(rng.choice(vocab, size=rng.integers(1, vocab + 1), replace=False))
    return Distribution(rng.dirichlet(np.ones(support.size)), support=support, size=vocab)


class TestWholeAndLazyRounds:
    """A stacked round is fused whole, any other read lazily, one decoder at a
    time; both must give every decoder the same bits."""

    VOCAB = 5

    @settings(max_examples=60, deadline=None)
    # a stack where the contrast clamps some rows to zero mass, and one where it leaves some rows alone
    @example(streams=8, space="probability", tcd="probability", contrast=0.9, threshold=1.0, ritual=False,
             temperature=0.0, max_tokens=2, stop=False, sparse=False, missing=400, seed=0)
    @example(streams=3, space="logit", tcd="probability", contrast=0.0, threshold=0.1, ritual=False,
             temperature=0.7, max_tokens=2, stop=True, sparse=False, missing=400, seed=0)
    @given(
        streams=st.sampled_from([1, 2, 3, 8]),
        space=st.sampled_from(["probability", "logit"]),
        tcd=st.sampled_from([None, "probability", "log"]),
        contrast=st.sampled_from([0.0, 0.5, 0.9]),
        threshold=st.sampled_from([0.0, 0.1, 1.0]),
        ritual=st.booleans(),
        temperature=st.sampled_from([0.0, 0.7, 1.0]),
        max_tokens=st.integers(1, 3),
        stop=st.booleans(),
        sparse=st.booleans(),
        missing=st.integers(0, 400),
        seed=st.integers(0, 2**20),
    )
    def test_run_lockstep_gives_the_same_bits_either_way(
        self, streams, space, tcd, contrast, threshold, ritual, temperature, max_tokens, stop, sparse, missing, seed
    ):
        # two configs whose decoders alternate in the round, each decoder over frames of its own
        cfg = DecodeConfig(
            streams=streams, space=space, temperature=temperature, max_tokens=max_tokens,
            stop_tokens=frozenset({self.VOCAB - 1} if stop else ()),
            tcd=None if tcd is None else TcdConfig(contrast, threshold, tcd),
            ritual_views=RITUAL_TAG_POOL[:1] * streams if ritual else None,
        )
        other = dataclasses.replace(cfg, streams=2, tcd=TcdConfig(), ritual_views=None)

        def decoders():
            return [[Decoder("v", "p", uniform_offset_plan(32 + 8 * i, 2, c.streams), c, seed + i)]
                    for i, c in enumerate([cfg, other, cfg, cfg, other])]

        prefixes = [()]
        for _ in range(max_tokens - 1):
            prefixes += [p + (t,) for p in prefixes if len(p) == len(prefixes[-1]) for t in range(self.VOCAB)]
        pairs = sorted({query for (d,) in decoders() for query in d.pending().queries})
        keys = [(frame_set, view, prefix) for frame_set, view in pairs for prefix in prefixes]
        fixtures = {key: fixture(key, self.VOCAB, sparse) for k, key in enumerate(keys) if k != missing}

        outcomes = []
        for scorer in (Whole(MockBackend(fixtures)), Counting(MockBackend(fixtures))):
            groups = decoders()
            try:
                errors = run_lockstep(groups, scorer)
            except ValueError as exc:  # no token is plausible in every stream
                outcomes.append(str(exc))
                continue
            outcomes.append((
                [None if e is None else (e.stream_id, e.role, repr(e.cause)) for e in errors],
                [(d.tokens, d.calls, d.steps, d.trace.to_jsonl()) for (d,) in groups],
            ))
        assert outcomes[0] == outcomes[1]


class TestWholeRoundCalls:
    def test_a_toy_round_fuses_each_config_once_and_parses_each_view_once(self, monkeypatch):
        import vps.backends.toyworld as toyworld
        import vps.decode_engine as decode_engine

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((decode_engine, "mix_probs"), (decode_engine, "tcd_adjust"),
                             (toyworld, "parse_view")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        rounds = []
        native = ToyBackend.score_batch

        def recording(self, steps, jobs=1):
            rounds.append({view for step in steps for _, view in step.queries})
            return native(self, steps, jobs)

        monkeypatch.setattr(ToyBackend, "score_batch", recording)
        world = ToyWorld.symmetric(4, 0.55)
        items, backend = toy_benchmark(world, 16, total_frames=64, seed=8)
        results, audit = run_benchmark(items, backend, [MethodSpec.parse("vps:8+tcd+ritual")], 4, seed=3, max_tokens=1)
        assert audit == {"vps:8+tcd+ritual": 16 * 24} and all(r.error is None for r in results)
        (views,) = rounds  # one round of 16 decoders of one config
        assert calls == {"mix_probs": 1, "tcd_adjust": 1, "parse_view": len(views)}

    def test_a_toy_round_builds_no_per_query_distribution(self, monkeypatch):
        world = ToyWorld.symmetric(4, 0.55)
        backend = ToyBackend(world)
        episodes = [toy_episode(world, 64, seed=s) for s in range(16)]
        for ep in episodes:
            backend.add_episode(ep)
        plan, cfg = uniform_offset_plan(64, 4, 4), DecodeConfig(streams=4, temperature=0.7, tcd=TcdConfig())
        built = Counter()
        rows, check = Distribution.rows, Distribution.__post_init__

        def counted_rows(self, index):
            built["row" if isinstance(index, int) else "rows"] += 1
            return rows(self, index)

        def counted_check(self):
            built["checked"] += 1
            return check(self)

        monkeypatch.setattr(Distribution, "rows", counted_rows)
        monkeypatch.setattr(Distribution, "__post_init__", counted_check)
        counts = []
        for n in (4, 16):
            built.clear()
            decoders = [Decoder(ep.video_ref, "q", plan, cfg, seed=k, keep_trace=k == 0)
                        for k, ep in enumerate(episodes[:n])]
            assert run_lockstep([decoders], backend) == [None]
            assert all(d.steps == 1 for d in decoders)
            # only the traced decoder's rows are built: its mixture, 4 streams and the flags of 4 x 2 replies
            assert built["row"] == 1 + 4 + 4 * 2
            counts.append(dict(built))
        assert counts[0] == counts[1]  # a round of 64 queries builds what a round of 16 does


class LazyToy(Counting):
    """A toy backend whose rounds are read lazily, through :class:`Counting`."""

    def token_text(self, token):
        return self.inner.token_text(token)


class TestStackedAndLazyRuns:
    @pytest.mark.parametrize("space", ["probability", "logit"])
    @pytest.mark.parametrize("temperature", ["0", "0.7"])
    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_vps_run_writes_the_same_files_either_way(self, monkeypatch, tmp_path, space, temperature, jobs):
        import vps.decode_engine as decode_engine
        from vps import cli

        forms = []
        fuse = decode_engine._fuse

        def noting(decoders, replies, starts=None):
            forms.append("stacked" if starts is not None else "lazy")
            return fuse(decoders, replies, starts)

        monkeypatch.setattr(decode_engine, "_fuse", noting)
        argv = ["run", "--backend", "toy", "--toy-episodes", "6", "--k", "4", "--max-tokens", "2", "--seed", "5",
                "--methods", "baseline,vps:1,vps:8,sc:8,vps:4+tcd,vps:8+tcd+ritual", "--space", space,
                "--temperature", temperature, "--jobs", jobs, "--trace", "--out-dir"]
        assert cli.main(argv + [str(tmp_path / "stacked")]) == 0
        assert set(forms) == {"stacked"}
        build = cli._build_toy

        def lazily(args):
            items, backend, stop_tokens = build(args)
            return items, LazyToy(backend), stop_tokens

        monkeypatch.setattr(cli, "_build_toy", lazily)
        forms.clear()
        assert cli.main(argv + [str(tmp_path / "lazy")]) == 0
        assert set(forms) == {"lazy"}
        for name in ("results.jsonl", "summary.json", "accuracy.csv", "trace.jsonl"):
            assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "stacked" / name).read_bytes(), name
