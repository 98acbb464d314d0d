"""ROUGE-L, sentence similarity, and the bracketed-integer judge."""

import numpy as np
import pytest

from vps.metrics import (
    HttpEmbedClient,
    HttpJudgeClient,
    JUDGE_SYSTEM_PROMPT,
    JUDGE_USER_PROMPT,
    StubEmbedClient,
    StubJudgeClient,
    judge_score,
    rouge_l,
    sts_score,
)

from stub_server import StubServer


class TestRougeL:
    def test_identical_sentences(self):
        assert rouge_l("The cat sat on the mat.", "The cat sat on the mat.") == 1.0

    def test_disjoint_vocabularies(self):
        assert rouge_l("alpha beta gamma", "delta epsilon zeta") == 0.0

    def test_worked_example(self):
        assert rouge_l("the cat sat", "the cat ran") == pytest.approx(2 / 3)

    def test_case_and_punctuation_normalized(self):
        assert rouge_l("The CAT sat!", "the cat sat") == 1.0

    def test_empty_either_side(self):
        assert rouge_l("", "something") == 0.0
        assert rouge_l("something", "") == 0.0
        assert rouge_l("...", "!!") == 0.0

    def test_bounds_and_self_similarity(self):
        rng = np.random.default_rng(1)
        words = ["cat", "dog", "runs", "sits", "fast", "slow", "red", "blue"]
        for _ in range(100):
            a = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            b = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            score = rouge_l(a, b)
            assert 0.0 <= score <= 1.0
            assert rouge_l(a, a) == 1.0

    def test_subsequence_not_substring(self):
        # LCS skips over gaps
        assert rouge_l("a x b y c", "a b c") == pytest.approx(2 * (3 / 5) * 1.0 / (3 / 5 + 1.0))


class TestStsScore:
    def test_identical_strings(self):
        client = StubEmbedClient({"hello world": [0.3, 0.4]})
        assert sts_score("hello world", "hello world", client) == pytest.approx(1.0)

    def test_case_insensitive_stub(self):
        client = StubEmbedClient({"hello": [1.0, 2.0]}, casefold=True)
        assert sts_score("HELLO", "hello", client) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        client = StubEmbedClient({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        assert sts_score("a", "b", client) == pytest.approx(0.0)

    def test_opposite_vectors(self):
        client = StubEmbedClient({"a": [1.0, 0.0], "b": [-1.0, 0.0]})
        assert sts_score("a", "b", client) == pytest.approx(-1.0)

    def test_failure_returns_none(self):
        client = StubEmbedClient({})
        assert sts_score("missing", "also missing", client) is None


class TestJudgeScore:
    def test_parses_bracketed_integer(self):
        assert judge_score("cand", "ref", StubJudgeClient(["[4]"])) == 4

    def test_retry_once_on_parse_failure(self):
        client = StubJudgeClient(["Score: [evaluation] 5", "[5]"])
        assert judge_score("cand", "ref", client) == 5
        assert client.calls == 2

    def test_unparseable_after_retry(self):
        client = StubJudgeClient(["no score here", "still nothing"])
        assert judge_score("cand", "ref", client) is None
        assert client.calls == 2

    def test_out_of_range_unavailable(self):
        assert judge_score("cand", "ref", StubJudgeClient(["[7]", "[7]"])) is None
        assert judge_score("cand", "ref", StubJudgeClient(["[0]", "[0]"])) is None

    def test_prompts_sent_verbatim_with_captions(self):
        captured = {}

        class Recorder:
            def complete(self, system, user):
                captured["system"] = system
                captured["user"] = user
                return "[3]"

        assert judge_score("a candidate", "a reference", Recorder()) == 3
        assert captured["system"] == JUDGE_SYSTEM_PROMPT
        assert captured["user"].startswith(JUDGE_USER_PROMPT)
        assert "Reference caption: a reference" in captured["user"]
        assert "Predicted caption: a candidate" in captured["user"]

    def test_client_failure_unavailable(self):
        class Exploder:
            def complete(self, system, user):
                raise RuntimeError("down")

        assert judge_score("c", "r", Exploder()) is None


class TestHttpClients:
    def test_judge_over_http(self):
        with StubServer(judge_replies=["[2]"]) as server:
            client = HttpJudgeClient(server.url)
            assert judge_score("cand", "ref", client) == 2
            path, body = server.requests_seen[0]
            assert path == "/v1/judge"
            assert body["system"] == JUDGE_SYSTEM_PROMPT

    def test_judge_retry_over_http(self):
        with StubServer(judge_replies=["nope", "[5]"]) as server:
            assert judge_score("cand", "ref", HttpJudgeClient(server.url)) == 5

    def test_embed_over_http(self):
        vectors = {"a": [1.0, 0.0], "b": [1.0, 0.0]}
        with StubServer(embeddings=vectors) as server:
            client = HttpEmbedClient(server.url)
            assert sts_score("a", "b", client) == pytest.approx(1.0)

    def test_embed_failure_makes_metric_unavailable(self):
        with StubServer(embeddings={}) as server:
            assert sts_score("a", "b", HttpEmbedClient(server.url)) is None
