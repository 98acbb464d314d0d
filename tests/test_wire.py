"""Wire client against the bundled stub server: round trips, retries, errors,
pipelined batches and `vps run --backend wire`."""

import contextlib
import http.client
import json
import math
import select
import shutil
import socket
import ssl
import subprocess
import threading
import time
import types
import warnings
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from vps import jsonhttp
from vps.aggregation import TcdConfig
from vps.backends import ScoreRequest, ScoreStep
from vps.backends.stub_server import StubServer
from vps.backends.wire import (
    BackendError,
    WireBackend,
    WireConfig,
    WireParseError,
    WireTransportError,
)
from vps.cli import main
from vps.decode_engine import DecodeConfig, DecodeError, DecodeTrace, decode, negative_view
from vps.frame_selection import uniform_offset_plan

from scorers import PerQuery


def req(top_m=None):
    return ScoreRequest("vid", (0, 16), "identity", "prompt", (1, 2), top_m)


def fixture_handler(body):
    if body["want"] == "full":
        return {"vocab_size": 3, "scores": [0.0, 1.0, -1.0]}
    return {
        "vocab_size": 4,
        "top": [[0, math.log(0.6)], [1, math.log(0.3)]],
        "remainder": 0.1,
    }


def fast_config(url, retries=3):
    return WireConfig(url, timeout=5.0, max_retries=retries, backoff=0.01, backoff_factor=1.5)


@contextlib.contextmanager
def scripted_server(replies, close_after_reply=False):
    """/v1/score answered from a script of (status, headers, payload), the
    last reply repeating; yields the URL and the list of statuses sent."""
    sent = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            status, headers, payload = replies[min(len(sent), len(replies) - 1)]
            sent.append(status)
            data = json.dumps(payload).encode()
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            # closes the socket without a Connection: close header
            self.close_connection = close_after_reply

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", sent
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


FULL_REPLY = (200, {}, {"vocab_size": 3, "scores": [0.0, 1.0, -1.0]})


class TestRoundTrip:
    def test_full_scores(self):
        with StubServer(score_handler=fixture_handler) as server:
            resp = WireBackend(fast_config(server.url)).score_response(req())
            assert resp.vocab_size == 3
            assert np.array_equal(resp.scores, (0.0, 1.0, -1.0))
            path, body = server.requests_seen[0]
            assert path == "/v1/score"
            assert body == {
                "video_ref": "vid",
                "frame_set": [0, 16],
                "view": "identity",
                "prompt_text": "prompt",
                "generated": [1, 2],
                "want": "full",
            }

    def test_top_m_conversion(self):
        with StubServer(score_handler=fixture_handler) as server:
            backend = WireBackend(fast_config(server.url))
            dist = backend.score(req(top_m=2))
            assert np.allclose(dist.probs, [2 / 3, 1 / 3, 0.0, 0.0])
            assert server.requests_seen[0][1]["want"] == "top:2"

    def test_score_distribution_from_full(self):
        with StubServer(score_handler=fixture_handler) as server:
            dist = WireBackend(fast_config(server.url)).score(req())
            expected = np.exp([0.0, 1.0, -1.0])
            assert np.allclose(dist.probs, expected / expected.sum())

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("VPS_BACKEND_TOKEN", "sekrit")

        def handler(body):
            return {"vocab_size": 2, "scores": [0.0, 0.0]}

        with StubServer(score_handler=handler) as server:
            backend = WireBackend(fast_config(server.url))
            backend.score_response(req())
            assert server.headers_seen[0]["Authorization"] == "Bearer sekrit"
            assert server.headers_seen[0]["Content-Type"] == "application/json"

    def test_endpoint_path_prefix_is_kept(self):
        with StubServer(score_handler=fixture_handler) as server:
            with pytest.raises(BackendError) as err:
                WireBackend(fast_config(server.url + "/api/")).score_response(req())
            assert err.value.status == 404
            assert server.requests_seen[0][0] == "/api/v1/score"


class TestTopMDecode:
    """Decodes over top-m replies, in both fusion spaces."""

    def run(self, cfg):
        plan = uniform_offset_plan(32, 2, cfg.streams)
        with StubServer(score_handler=fixture_handler) as server:
            return decode("vid", "prompt", plan, WireBackend(fast_config(server.url)), cfg)

    def test_logit_mixing_of_top_m_replies_returns_tokens(self):
        tokens, trace = self.run(DecodeConfig(streams=2, space="logit", score_top_m=2, max_tokens=2))
        assert tokens == [0, 0]
        assert np.allclose(trace.steps[0].aggregated, [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)

    def test_every_stream_record_carries_the_wire_flag(self):
        for space in ("probability", "logit"):
            cfg = DecodeConfig(streams=2, space=space, score_top_m=2, tcd=TcdConfig())
            _tokens, trace = self.run(cfg)
            for srec in trace.steps[0].streams:
                assert srec.flags == ("topm_renormalized",)


class TestRetries:
    def test_three_failures_then_success(self):
        with StubServer(score_handler=fixture_handler, fail_first=3) as server:
            backend = WireBackend(fast_config(server.url, retries=3))
            resp = backend.score_response(req())
            assert np.array_equal(resp.scores, (0.0, 1.0, -1.0))
            assert backend.retries_total == 3

    def test_exhausted_retries_raise_transport_error(self):
        with StubServer(score_handler=fixture_handler, fail_first=10) as server:
            backend = WireBackend(fast_config(server.url, retries=2))
            with pytest.raises(WireTransportError) as err:
                backend.score_response(req())
            assert isinstance(err.value.__cause__, (OSError, http.client.HTTPException))

    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("vps.backends.wire.time", types.SimpleNamespace(sleep=slept.append))
        return slept

    def test_503_with_retry_after_is_retried(self, sleeps):
        busy = (503, {"Retry-After": "0"}, {"error": "busy"})
        with scripted_server([busy, busy, FULL_REPLY]) as (url, sent):
            backend = WireBackend(fast_config(url, retries=3))
            resp = backend.score_response(req())
            assert np.array_equal(resp.scores, (0.0, 1.0, -1.0))
            assert backend.retries_total == 2
            assert sent == [503, 503, 200]
            assert sleeps == [0, 0]

    def test_429_without_retry_after_backs_off_until_the_budget_runs_out(self, sleeps):
        slow = (429, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}, {"error": "slow down"})
        with scripted_server([(429, {}, {"error": "slow down"}), slow]) as (url, sent):
            backend = WireBackend(fast_config(url, retries=2))
            with pytest.raises(BackendError) as err:
                backend.score_response(req())
            assert err.value.status == 429
            assert "slow down" in err.value.body
            assert backend.retries_total == 2
            assert sent == [429, 429, 429]
            assert sleeps == [0.01, 0.01 * 1.5]

    def test_404_is_not_retried(self):
        with scripted_server([(404, {}, {"error": "nope"}), FULL_REPLY]) as (url, sent):
            backend = WireBackend(fast_config(url, retries=3))
            with pytest.raises(BackendError) as err:
                backend.score_response(req())
            assert err.value.status == 404
            assert backend.retries_total == 0
            assert sent == [404]

    def test_unreachable_endpoint(self):
        backend = WireBackend(WireConfig("http://127.0.0.1:1", timeout=0.2, max_retries=1, backoff=0.01))
        with pytest.raises(WireTransportError):
            backend.score_response(req())


class TestTransport:
    """Pooled keep-alive connections, observed from the server side."""

    def decode_twice(self, server, jobs, retries=3):
        backend = WireBackend(fast_config(server.url, retries=retries))
        cfg = DecodeConfig(streams=4, max_tokens=2)
        plan = uniform_offset_plan(32, 2, cfg.streams)
        for _ in range(2):
            tokens, _trace = decode("vid", "prompt", plan, backend, cfg, jobs=jobs)
            assert tokens == [1, 1]
        return backend

    def test_decodes_reuse_at_most_jobs_connections(self):
        with StubServer(score_handler=fixture_handler) as server:
            self.decode_twice(server, jobs=2)
            assert len(server.requests_seen) == 16
            assert 1 <= server.connections <= 2

    def test_retries_total_exact_under_concurrency(self):
        with StubServer(score_handler=fixture_handler, fail_first=3) as server:
            backend = self.decode_twice(server, jobs=4)
            assert backend.retries_total == 3
            assert len(server.requests_seen) == 16

    @pytest.mark.parametrize("check", [True, False], ids=["readability-check", "replay-only"])
    def test_server_closing_each_connection_silently(self, monkeypatch, check):
        if not check:  # the stale socket is then only found when the request fails on it
            monkeypatch.setattr(jsonhttp, "_readable", lambda sock: False)
        with scripted_server([FULL_REPLY], close_after_reply=True) as (url, sent):
            backend = WireBackend(fast_config(url, retries=3))
            for _ in range(5):
                assert np.array_equal(backend.score_response(req()).scores, (0.0, 1.0, -1.0))
            assert backend.retries_total == 0
            assert sent == [200] * 5

    @pytest.mark.parametrize("server_closes", [False, True])
    def test_idle_connection_is_reused_unless_the_server_closed_it(self, server_closes):
        with scripted_server([FULL_REPLY], close_after_reply=server_closes) as (url, _sent):
            endpoint = jsonhttp.JsonEndpoint(url, timeout=5.0)
            endpoint.post("/v1/score", {}, {})
            (conn,) = endpoint._idle
            if server_closes:  # wait for the server's FIN to arrive
                assert select.select([conn.sock], [], [], 5.0)[0]
            assert (endpoint._take_idle() is None) == server_closes
            conn.close()

    def test_connection_class_follows_the_scheme(self):
        secure = jsonhttp.JsonEndpoint("https://scorer.example:8443/api", timeout=1.0)._new_connection()
        assert isinstance(secure, http.client.HTTPSConnection)
        assert (secure.host, secure.port) == ("scorer.example", 8443)
        plain = jsonhttp.JsonEndpoint("http://127.0.0.1:1", timeout=1.0)._new_connection()
        assert type(plain) is http.client.HTTPConnection
        with pytest.raises(ValueError):
            WireBackend(WireConfig("ftp://127.0.0.1/"))


class TestProtocolErrors:
    def test_non_success_status(self):
        def handler(body):
            raise RuntimeError("model exploded")

        with StubServer(score_handler=handler) as server:
            with pytest.raises(BackendError) as err:
                WireBackend(fast_config(server.url)).score_response(req())
            assert err.value.status == 500
            assert "model exploded" in err.value.body

    def test_missing_route_is_backend_error(self):
        with StubServer() as server:
            with pytest.raises(BackendError) as err:
                WireBackend(fast_config(server.url)).score_response(req())
            assert err.value.status == 404

    def test_malformed_payload(self):
        def handler(body):
            return {"nonsense": True}

        with StubServer(score_handler=handler) as server:
            with pytest.raises(WireParseError):
                WireBackend(fast_config(server.url)).score_response(req())

    def test_bad_top_payload(self):
        def handler(body):
            return {"vocab_size": 2, "top": [[0, "x"]], "remainder": 0.0}

        with StubServer(score_handler=handler) as server:
            with pytest.raises(WireParseError):
                WireBackend(fast_config(server.url)).score_response(req())

    @pytest.mark.parametrize("scores", [[0.0, "x"], [[0.0, 1.0]], [0.0], "01", [0.0, None]])
    def test_bad_full_scores(self, scores):
        with StubServer(score_handler=lambda body: {"vocab_size": 2, "scores": scores}) as server:
            with pytest.raises(WireParseError):
                WireBackend(fast_config(server.url)).score_response(req())

    @pytest.mark.parametrize("payload", [
        {"vocab_size": 3.7, "scores": [0.0, 0.0, 0.0]},
        {"vocab_size": 3.0, "scores": [0.0, 0.0, 0.0]},
        {"vocab_size": True, "scores": [0.0]},
        {"vocab_size": "3", "top": [[0, -1.0]], "remainder": 0.5},
    ], ids=["fraction", "float", "bool", "string"])
    def test_non_integer_vocab_size(self, payload):
        # int() would have truncated each of these to a vocabulary
        with StubServer(score_handler=lambda body: payload) as server:
            with pytest.raises(WireParseError, match="vocab_size"):
                WireBackend(fast_config(server.url)).score_response(req())

    def test_non_finite_full_scores(self):
        def handler(body):
            return {"vocab_size": 2, "scores": [0.0, math.nan]}

        with StubServer(score_handler=handler) as server:
            with pytest.raises(WireParseError, match="finite"):
                WireBackend(fast_config(server.url)).score_response(req())

    @pytest.mark.parametrize(
        "payload",
        [
            {"vocab_size": 4, "top": [[0, math.nan], [1, -1.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [], "remainder": 1.0},
            {"vocab_size": 4, "top": [[0, -math.inf], [1, -math.inf]], "remainder": 1.0},
            {"vocab_size": 4, "top": [[1, -1.0], [1, -2.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [[4, -1.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [[-1, -1.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [[math.nan, -1.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [[1e30, -1.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [[2, -1.0], [1.5, -2.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [[0], [1, -1.0, 0.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [[0, -1.0, 0.0, 0.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [0, -1.0], "remainder": 0.5},
            {"vocab_size": 10**400, "top": [[0, -1.0]], "remainder": 0.5},
            {"vocab_size": 4, "top": [[0, -1.0]], "remainder": 10**400},
        ],
        ids=["nan-logprob", "empty-top", "no-mass", "duplicate-id", "id-at-vocab-size", "negative-id", "nan-id",
             "huge-id", "fractional-id", "entries-of-1-and-3", "entry-of-4", "flat-list", "huge-vocab-size", "huge-remainder"],
    )
    def test_malformed_top_replies_fail_at_the_boundary(self, payload):
        # the stub sends NaN and -Infinity literals, which json.loads accepts
        with StubServer(score_handler=lambda body: payload) as server:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(WireParseError):
                    WireBackend(fast_config(server.url)).score(req(top_m=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WireConfig("http://x", max_retries=-1)
        with pytest.raises(ValueError):
            WireConfig("http://x", backoff_factor=0.5)


@contextlib.contextmanager
def keyed_server(reply_of, delay=0.0):
    """/v1/score answered by ``reply_of(body, n)`` -> (status, headers,
    payload), where n counts earlier requests with the same body. Yields
    the URL and a record of the statuses sent (in arrival order), the
    connections accepted and the most requests handled at once."""
    seen = {
        "sent": [], "connections": 0, "active": 0, "max_active": 0, "attempts": {}, "lock": threading.Lock(),
    }

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True  # the reply's headers and body are two writes

        def log_message(self, *args):
            pass

        def setup(self):
            super().setup()
            with seen["lock"]:
                seen["connections"] += 1

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            key = json.dumps(body, sort_keys=True)
            with seen["lock"]:
                n = seen["attempts"].get(key, 0)
                seen["attempts"][key] = n + 1
                seen["active"] += 1
                seen["max_active"] = max(seen["max_active"], seen["active"])
            try:
                time.sleep(delay)
                status, headers, payload = reply_of(body, n)
                with seen["lock"]:
                    seen["sent"].append(status)
            finally:
                with seen["lock"]:
                    seen["active"] -= 1
            data = json.dumps(payload).encode()
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}", seen
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def hashed_scores(body, vocab=6):
    """Full scores that differ with every field of the request."""
    key = json.dumps(body, sort_keys=True).encode()
    return {"vocab_size": vocab, "scores": np.random.default_rng(zlib.crc32(key)).normal(size=vocab).tolist()}


def ok(body, _n):
    return 200, {}, hashed_scores(body)


def batch_requests(n):
    return [ScoreRequest(f"vid-{k}", (k, k + 8), "identity", "prompt", (1,) * (k % 3)) for k in range(n)]


def steps_of(requests):
    """One single-query step per request, in request order."""
    return [ScoreStep.of(r) for r in requests]


def probs(dists):
    return [d.probs.tolist() for d in dists]


@pytest.fixture
def slept(monkeypatch):
    """The backoff sleeps of the wire backend, recorded instead of slept."""
    slept = []
    monkeypatch.setattr("vps.backends.wire.time", types.SimpleNamespace(sleep=slept.append))
    return slept


class TestPipeline:
    """``WireBackend.score_batch``: up to ``jobs`` requests in flight from one thread."""

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_at_most_jobs_connections_and_requests_in_flight(self, jobs):
        requests = batch_requests(12)
        with keyed_server(ok, delay=0.02) as (url, seen):
            backend = WireBackend(fast_config(url))
            replies = backend.score_batch(steps_of(requests), jobs=jobs)
            assert seen["sent"] == []  # nothing goes out before the first reply is asked for
            got = list(replies)
            assert seen["connections"] <= jobs
            assert seen["max_active"] == jobs
            assert probs(got) == probs(backend.score(req) for req in requests)
            assert backend.retries_total == 0

    def test_replies_are_read_lazily(self):
        requests = batch_requests(6)
        with keyed_server(ok) as (url, seen):
            replies = WireBackend(fast_config(url)).score_batch(steps_of(requests), jobs=2)
            next(replies)
            time.sleep(0.05)
            assert len(seen["sent"]) == 3  # requests 0 and 1, then 2 once reply 0 was read
            replies.close()

    @pytest.mark.parametrize("status,headers,delay", [(503, {}, 0.01), (429, {"Retry-After": "0"}, 0)])
    def test_busy_reply_mid_batch_is_retried_once(self, slept, status, headers, delay):
        def busy_once(body, n):
            if body["video_ref"] == "vid-3" and n == 0:
                return status, headers, {"error": "busy"}
            return ok(body, n)

        requests = batch_requests(8)
        with keyed_server(busy_once) as (url, seen):
            backend = WireBackend(fast_config(url))
            got = list(backend.score_batch(steps_of(requests), jobs=2))
            assert backend.retries_total == 1
            assert slept == [delay]
            assert sorted(seen["sent"]) == [200] * 8 + [status]
            assert probs(got) == probs(backend.score(req) for req in requests)

    @pytest.mark.parametrize("check", [True, False], ids=["readability-check", "replay-only"])
    def test_stale_idle_connection_is_replayed_without_a_retry(self, monkeypatch, check):
        if not check:
            monkeypatch.setattr(jsonhttp, "_readable", lambda sock: False)
        with scripted_server([FULL_REPLY], close_after_reply=True) as (url, sent):
            backend = WireBackend(fast_config(url))
            for jobs in (1, 2):
                got = list(backend.score_batch(steps_of([req()] * 5), jobs=jobs))
                assert all(np.array_equal(d.probs, got[0].probs) for d in got)
            assert backend.retries_total == 0
            assert sent == [200] * 10

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_404_fails_only_its_own_request(self, jobs):
        def missing(body, n):
            return (404, {}, {"error": "no such video"}) if body["video_ref"] == "vid-4" else ok(body, n)

        requests = batch_requests(8)
        with keyed_server(missing) as (url, seen):
            backend = WireBackend(fast_config(url))
            replies = backend.score_batch(steps_of(requests), jobs=jobs)
            got = [next(replies) for _ in range(4)]
            with pytest.raises(BackendError) as err:
                next(replies)
            assert err.value.status == 404
            assert next(replies, None) is None
            assert backend.retries_total == 0
            time.sleep(0.05)
            # requests 0-4, plus at most jobs - 1 sent before reply 4 was read
            assert 5 <= len(seen["sent"]) <= 4 + jobs
            assert probs(got) == probs(backend.score(r) for r in requests[:4])

    def test_404_fails_the_stream_and_role_of_its_request(self):
        plan = uniform_offset_plan(32, 2, 3)
        negative = negative_view(plan.sets[1])

        def missing(body, n):
            if body["view"] == negative and len(body["generated"]) == 1:
                return 404, {}, {"error": "no such view"}
            return ok(body, n)

        cfg = DecodeConfig(streams=3, max_tokens=3, tcd=TcdConfig(), ritual_views=("hflip", "vflip", "rot180"))
        for jobs in (1, 2, 8):
            with keyed_server(missing) as (url, _seen):
                with pytest.raises(DecodeError) as err:
                    decode("vid", "prompt", plan, WireBackend(fast_config(url)), cfg, jobs=jobs)
            assert (err.value.stream_id, err.value.role) == (1, "negative")
            assert isinstance(err.value.cause, BackendError)
            assert len(err.value.trace.steps) == 1  # step 0 is done; step 1 failed

    def test_decode_traces_identical_at_any_jobs(self, monkeypatch):
        monkeypatch.setattr("vps.decode_engine.ThreadPoolExecutor", None)  # a batching scorer needs no pool
        plan = uniform_offset_plan(64, 4, 4)
        cfg = DecodeConfig(streams=4, max_tokens=4, temperature=0.7, tcd=TcdConfig(),
                           ritual_views=("hflip", "vflip", "rot180", "hflip"))
        traces = []
        with keyed_server(ok) as (url, seen):
            for jobs in (1, 2, 8):
                before = seen["connections"]
                backend = WireBackend(fast_config(url))
                traces.append(decode("vid", "prompt", plan, backend, cfg, seed=5, jobs=jobs)[1].to_jsonl())
                assert seen["connections"] - before <= jobs
        assert traces[0] == traces[1] == traces[2]
        assert len(traces[0].splitlines()) == 4


WIRE_VOCAB = ["yes", "no", " a", " b", " c", "</s>"]


def wire_run(tmp_path, url, jobs, name, methods="baseline,vps:2+tcd,sc:2", *options):
    """``vps run --backend wire`` over two binary items and a description
    item, with any further ``options``; returns (exit code, run directory)."""
    dataset, vocab = tmp_path / "items.jsonl", tmp_path / "vocab.json"
    dataset.write_text("".join(
        json.dumps({"id": f"i{n}", "video_ref": f"vid-{n}", "total_frames": 16, "task": task,
                    "question": f"q{n}?", "reference": reference}) + "\n"
        for n, (task, reference) in enumerate([("binary", "yes"), ("binary", "no"), ("description", " a b")])
    ))
    vocab.write_text(json.dumps(WIRE_VOCAB))
    out = tmp_path / name
    code = main([
        "run", "--backend", "wire", "--endpoint", url, "--dataset", str(dataset), "--vocab", str(vocab),
        "--methods", methods, "--k", "2", "--max-tokens", "3", "--seed", "4", "--jobs", str(jobs),
        "--out-dir", str(out), *options,
    ])
    return code, out


def run_files(out):
    return {name: (out / name).read_bytes() for name in ("results.jsonl", "summary.json", "accuracy.csv", "metrics.csv")}


class TestWireRun:
    """``vps run --backend wire`` pipelined, against the same run scored one request at a time."""

    def per_request(self, monkeypatch, tmp_path, handler):
        with monkeypatch.context() as patch:
            patch.setattr(WireBackend, "score_batch", PerQuery.score_batch)  # WireBackend.score, query by query
            with StubServer(score_handler=handler) as server:
                code, out = wire_run(tmp_path, server.url, 1, "per-request")
        return code, run_files(out)

    def test_outputs_and_audit_match_the_per_request_path(self, monkeypatch, tmp_path):
        def handler(body):
            return hashed_scores(body, len(WIRE_VOCAB))

        _, want = self.per_request(monkeypatch, tmp_path, handler)
        for jobs in (1, 2):
            with StubServer(score_handler=handler) as server:
                code, out = wire_run(tmp_path, server.url, jobs, f"jobs-{jobs}")
                assert code == 0
                assert run_files(out) == want
                audit = json.loads((out / "summary.json").read_text())["backend_calls"]
                assert sum(audit.values()) == len(server.requests_seen)
                assert server.connections <= jobs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_costs_no_extra_request(self, tmp_path, jobs):
        with StubServer(score_handler=lambda body: hashed_scores(body, len(WIRE_VOCAB))) as server:
            code, out = wire_run(tmp_path, server.url, jobs, "traced", "vps:2+tcd,baseline", "--trace")
            assert code == 0
            audit = json.loads((out / "summary.json").read_text())["backend_calls"]
            assert len(server.requests_seen) == sum(audit.values())
        trace = DecodeTrace.from_jsonl((out / "trace.jsonl").read_text())
        assert len(trace.steps) >= 1
        assert [s.stream_id for s in trace.steps[0].streams] == [0, 1]

    def test_trace_of_a_failed_first_decode_keeps_its_steps(self, tmp_path):
        def handler(body):
            if body["video_ref"] == "vid-0" and len(body["generated"]) == 1:
                raise KeyError("no such video")  # answered 404 at step 1
            return hashed_scores(body, len(WIRE_VOCAB))

        with StubServer(score_handler=handler) as server:
            code, out = wire_run(tmp_path, server.url, 2, "failed", "vps:2", "--trace")
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert [(f["item_id"], f["method"]) for f in summary["failed"]] == [("i0", "vps:2")]
        assert [step.index for step in DecodeTrace.from_jsonl((out / "trace.jsonl").read_text()).steps] == [0]

    def test_one_failed_query_is_audited_as_on_the_per_request_path(self, monkeypatch, tmp_path):
        def handler(body):
            if body["video_ref"] == "vid-1" and body["view"] != "identity" and len(body["generated"]) == 1:
                raise KeyError("no such view")  # answered 404
            return hashed_scores(body, len(WIRE_VOCAB))

        code, want = self.per_request(monkeypatch, tmp_path, handler)
        assert code == 1
        summary = json.loads(want["summary.json"])
        assert [(f["item_id"], f["method"]) for f in summary["failed"]] == [("i1", "vps:2+tcd")]

        def refuse(self):
            raise AssertionError("a ScoreRequest was built")

        monkeypatch.setattr(ScoreRequest, "__post_init__", refuse)
        audit = sum(summary["backend_calls"].values())
        for jobs in (1, 2, 4):
            with StubServer(score_handler=handler) as server:
                code, out = wire_run(tmp_path, server.url, jobs, f"jobs-{jobs}")
            assert code == 1
            assert run_files(out) == want
            # the round's up to jobs - 1 unread requests in flight at the failure are sent again
            assert audit <= len(server.requests_seen) <= audit + jobs - 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hard_down_backend_spends_one_retry_budget_per_evaluation(self, slept, tmp_path, jobs):
        code, out = wire_run(tmp_path, "http://127.0.0.1:1", jobs, "down", methods="baseline,vps:2")
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["backend_calls"] == {"baseline": 3, "vps:2": 3}
        assert len(summary["failed"]) == 6
        assert slept == [0.5, 1.0, 2.0] * 6  # WireConfig's default budget, once per failed evaluation


def _read_request(conn):
    """One request off ``conn`` (head and Content-Length body), or None at EOF."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1]) for line in head.split(b"\r\n") if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        body += chunk
    return head + b"\r\n\r\n" + body


@contextlib.contextmanager
def raw_server(replies, tls=None):
    """A server scripted over a raw socket: each request, read whole, gets
    the next of ``replies`` (the last repeating) as raw bytes, or, for None,
    the connection closed without a reply. A reply that ends with CLOSE is
    followed by closing the connection. Each connection is served on a
    thread of its own, over TLS with the server context ``tls`` when given.
    Yields the URL and a record of the requests read and the connections
    accepted."""
    seen = {"requests": [], "connections": 0}
    lock = threading.Lock()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()
    accepted: list[socket.socket] = []
    threads: list[threading.Thread] = []

    def answer(conn):
        with contextlib.suppress(OSError):
            if tls is not None:
                conn = tls.wrap_socket(conn, server_side=True)
                accepted.append(conn)
            with conn:
                while (request := _read_request(conn)) is not None:
                    with lock:
                        reply = replies[min(len(seen["requests"]), len(replies) - 1)]
                        seen["requests"].append(request)
                    if reply is None:
                        break
                    conn.sendall(reply.removesuffix(CLOSE))
                    if reply.endswith(CLOSE):
                        break

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with lock:
                seen["connections"] += 1
            accepted.append(conn)
            threads.append(threading.Thread(target=answer, args=(conn,), daemon=True))
            threads[-1].start()

    threads.append(threading.Thread(target=serve, daemon=True))
    threads[0].start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{listener.getsockname()[1]}", seen
    finally:
        stop.set()
        threads[0].join(timeout=5)
        for conn in accepted:  # ends a read on a connection the client keeps idle
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        for thread in threads:
            thread.join(timeout=5)
        listener.close()
    assert not any(thread.is_alive() for thread in threads)


CLOSE = b"<close>"
BODY = json.dumps(FULL_REPLY[2]).encode()


def reply(status_line=b"HTTP/1.1 200 OK", headers=(), body=BODY, length=True):
    lines = [status_line, *headers] + ([b"Content-Length: %d" % len(body)] if length else [])
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def chunked(body, sizes):
    out, at = [], 0
    for size in sizes:
        out.append(b"%x;ext=1\r\n%s\r\n" % (size, body[at:at + size]))
        at += size
    return b"".join(out) + b"0\r\nX-Trailer: 1\r\n\r\n"


def outcome(call):
    """('ok', status, body) of ``call()``, or the type of what it raised."""
    try:
        status, _headers, body = call()
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)
    return "ok", status, body


class TestRawReplies:
    """The lean reply reader against a server scripted byte by byte."""

    def post(self, url, n=1):
        endpoint = jsonhttp.JsonEndpoint(url, timeout=5.0)
        replies = [endpoint.post("/v1/score", {"k": k}, {"Content-Type": "application/json"}) for k in range(n)]
        return endpoint, replies

    @pytest.mark.parametrize("raw", [
        reply(),
        reply(headers=[b"Transfer-Encoding: chunked"], body=chunked(BODY, [5, 1, len(BODY) - 6]), length=False),
        reply(headers=[b"transfer-encoding: Chunked", b"Content-Length: 3"], body=chunked(BODY, [len(BODY)]),
              length=False),
        b"HTTP/1.1 100 Continue\r\nX-Skip: 1\r\n\r\n" + reply(),
    ], ids=["content-length", "chunked", "chunked-over-length", "100-continue"])
    def test_body_is_read_and_the_connection_kept(self, raw):
        with raw_server([raw]) as (url, seen):
            endpoint, replies = self.post(url, 3)
            assert [(status, body) for status, _, body in replies] == [(200, BODY)] * 3
            assert seen["connections"] == 1
            assert len(endpoint._idle) == 1

    @pytest.mark.parametrize("raw", [
        reply(b"HTTP/1.0 200 OK", length=False) + CLOSE,
        reply(b"HTTP/1.1 200 OK", length=False) + CLOSE,
        reply(b"HTTP/1.0 200 OK") + CLOSE,
        reply(headers=[b"Connection: close"]) + CLOSE,
    ], ids=["http10-to-eof", "http11-to-eof", "http10-with-length", "connection-close"])
    def test_a_closing_reply_closes_the_connection(self, raw):
        with raw_server([raw]) as (url, seen):
            endpoint, replies = self.post(url, 3)
            assert [(status, body) for status, _, body in replies] == [(200, BODY)] * 3
            assert seen["connections"] == 3
            assert endpoint._idle == []

    def test_http10_keep_alive_keeps_the_connection(self):
        with raw_server([reply(b"HTTP/1.0 200 OK", headers=[b"Connection: Keep-Alive"])]) as (url, seen):
            endpoint, _ = self.post(url, 3)
            assert seen["connections"] == 1

    def test_204_has_no_body(self):
        with raw_server([reply(b"HTTP/1.1 204 No Content", body=b"", length=False), reply()]) as (url, seen):
            _, replies = self.post(url, 2)
            assert [(status, body) for status, _, body in replies] == [(204, b""), (200, BODY)]
            assert seen["connections"] == 1

    def test_headers_are_found_whatever_their_case(self):
        raw = reply(headers=[b"X-Request-ID: abc", b"retry-AFTER:  7 ", b"X-Folded: one", b"\ttwo", b"X-Request-Id: x"])
        with raw_server([raw]) as (url, _seen):
            (_, headers, _), = self.post(url)[1]
            assert headers["x-request-id"] == "abc"
            assert headers["retry-after"] == "7 "
            assert headers["x-folded"] == "one two"

    @pytest.mark.parametrize("name", ["Retry-After", "retry-after", "RETRY-AFTER"])
    def test_retry_after_is_found_case_insensitively(self, slept, name):
        busy = reply(b"HTTP/1.1 503 Service Unavailable", headers=[name.encode() + b": 3"])
        with raw_server([busy, reply()]) as (url, seen):
            backend = WireBackend(fast_config(url))
            assert np.array_equal(backend.score_response(req()).scores, (0.0, 1.0, -1.0))
            assert slept == [3]
            assert backend.retries_total == 1

    def test_truncated_body_is_a_transport_error_and_retried(self, slept):
        truncated = reply(headers=[b"Content-Length: 500"], length=False) + CLOSE
        with raw_server([truncated]) as (url, _seen):
            with pytest.raises(http.client.IncompleteRead):
                jsonhttp.JsonEndpoint(url, timeout=5.0).post("/v1/score", {}, {})
        with raw_server([truncated, reply()]) as (url, seen):
            backend = WireBackend(fast_config(url))
            assert np.array_equal(backend.score_response(req()).scores, (0.0, 1.0, -1.0))
            assert backend.retries_total == 1
            assert slept == [0.01]

    def test_truncated_chunked_body_is_incomplete(self):
        raw = reply(headers=[b"Transfer-Encoding: chunked"], body=b"10\r\nshort", length=False) + CLOSE
        with raw_server([raw]) as (url, _seen):
            with pytest.raises(http.client.IncompleteRead):
                jsonhttp.JsonEndpoint(url, timeout=5.0).post("/v1/score", {}, {})

    def test_empty_status_line_on_a_reused_socket_is_replayed_without_a_retry(self, slept):
        # the server reads the second request, then closes without a reply
        with raw_server([reply(), None, reply()]) as (url, seen):
            backend = WireBackend(fast_config(url))
            for _ in range(2):
                assert np.array_equal(backend.score_response(req()).scores, (0.0, 1.0, -1.0))
            assert backend.retries_total == 0
            assert slept == []
            assert len(seen["requests"]) == 3
            assert seen["connections"] == 2

    def test_empty_status_line_on_a_fresh_socket_is_a_retried_transport_error(self, slept):
        with raw_server([None, reply()]) as (url, seen):
            with pytest.raises(http.client.RemoteDisconnected):
                jsonhttp.JsonEndpoint(url, timeout=5.0).post("/v1/score", {}, {})
        with raw_server([None, reply()]) as (url, seen):
            backend = WireBackend(fast_config(url))
            assert np.array_equal(backend.score_response(req()).scores, (0.0, 1.0, -1.0))
            assert backend.retries_total == 1

    @pytest.mark.parametrize("raw", [
        reply(b"HTTP/1.1 200 " + b"O" * 65536),
        reply(b"HTTP/1.1 200 " + b"O" * 65520),
        reply(headers=[b"X-Long: " + b"v" * 65536]),
        reply(headers=[b"X-Long: " + b"v" * 65520]),
        *(reply(headers=[b"X-H%d: %d" % (i, i) for i in range(n)]) for n in (98, 99, 100, 101)),
        reply(b"ICY 200 OK"),
        reply(b"HTTP/1.1 2x0 OK"),
        reply(b"HTTP/1.1 99 Low"),
        reply(b"HTTP/2.0 200 OK"),
        reply(b"HTTP/1.1"),
        reply(headers=[b"Transfer-Encoding: chunked"], body=b"zz\r\n", length=False) + CLOSE,
    ])
    def test_limits_and_malformed_replies_as_http_client(self, raw):
        with raw_server([raw]) as (url, _seen):
            ours = outcome(lambda: jsonhttp.JsonEndpoint(url, timeout=5.0).post("/v1/score", {}, {}))

        def stdlib():
            conn = http.client.HTTPConnection("127.0.0.1", int(url.rsplit(":", 1)[1]), timeout=5.0)
            try:
                conn.request("POST", "/v1/score", body=b"{}")
                resp = conn.getresponse()
                return resp.status, resp.headers, resp.read()
            finally:
                conn.close()

        with raw_server([raw]) as (url, _seen):
            assert ours == outcome(stdlib)

    def test_one_socket_write_per_request(self, monkeypatch):
        writes = []
        with raw_server([reply()]) as (url, seen):
            port = int(url.rsplit(":", 1)[1])
            for name in ("send", "sendall", "sendmsg"):
                original = getattr(socket.socket, name)

                def counted(sock, *args, _original=original, _name=name, **kwargs):
                    if sock.getpeername()[1] == port:  # the client's writes, not the server's
                        writes.append(_name)
                    return _original(sock, *args, **kwargs)

                monkeypatch.setattr(socket.socket, name, counted)
            backend = WireBackend(fast_config(url))
            backend.score_response(req())  # a fresh connection
            list(backend.score_batch(steps_of([req()] * 4), jobs=2))  # pooled and fresh, pipelined
            assert len(seen["requests"]) == 5
            assert writes == ["sendall"] * 5

    def test_request_head(self, monkeypatch):
        monkeypatch.setenv("VPS_BACKEND_TOKEN", "sekrit")
        with raw_server([reply()]) as (url, seen):
            WireBackend(fast_config(url + "/api")).score_response(req())
        head, _, body = seen["requests"][0].partition(b"\r\n\r\n")
        port = url.rsplit(":", 1)[1]
        assert head.split(b"\r\n") == [
            b"POST /api/v1/score HTTP/1.1", b"Host: 127.0.0.1:" + port.encode(), b"Accept-Encoding: identity",
            b"Content-Length: %d" % len(body), b"Content-Type: application/json", b"Authorization: Bearer sekrit",
        ]
        assert json.loads(body)["want"] == "full"

    @pytest.mark.parametrize("headers", [{"X-Bad": "a\r\nInjected: 1"}, {"Bad:Name": "x"}, {"X-é": "x"}])
    def test_bad_header_is_refused_before_sending(self, headers):
        with raw_server([reply()]) as (url, seen):
            with pytest.raises(ValueError):
                jsonhttp.JsonEndpoint(url, timeout=5.0).post("/v1/score", {}, headers)
            assert seen["requests"] == []


@pytest.fixture(scope="module")
def tls_context(tmp_path_factory):
    """A server context whose self-signed certificate names only localhost."""
    openssl = shutil.which("openssl") or pytest.skip("needs the openssl command")
    where = tmp_path_factory.mktemp("tls")
    cert, key = where / "cert.pem", where / "key.pem"
    subprocess.run([
        openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
        "-keyout", str(key), "-out", str(cert), "-days", "1", "-subj", "/CN=localhost",
        "-addext", "subjectAltName=DNS:localhost",
    ], check=True, capture_output=True, timeout=60)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    return context, cert


class TestTls:
    """https:// endpoints: the lean exchange runs on the verified TLS socket."""

    def test_round_trip_on_one_verified_connection(self, tls_context, monkeypatch):
        context, cert = tls_context
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))  # trust the test certificate
        with raw_server([reply()], tls=context) as (url, seen):
            endpoint = jsonhttp.JsonEndpoint(url.replace("127.0.0.1", "localhost"), timeout=5.0)
            replies = [endpoint.post("/v1/score", {"k": k}, {}) for k in range(3)]
            assert [(status, body) for status, _, body in replies] == [(200, BODY)] * 3
            assert seen["connections"] == 1
            assert seen["requests"][0].split(b"\r\n")[1] == b"Host: localhost:" + url.rsplit(":", 1)[1].encode()
            endpoint.close()

    def test_new_connections_share_one_context(self, tls_context, monkeypatch):
        _, cert = tls_context
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        server = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        server.load_cert_chain(cert, cert.parent / "key.pem")
        server.set_alpn_protocols(["http/1.1"])
        built = []
        default = ssl._create_default_https_context
        monkeypatch.setattr(ssl, "_create_default_https_context", lambda: built.append(default()) or built[-1])
        with raw_server([reply() + CLOSE], tls=server) as (url, seen):
            endpoint = jsonhttp.JsonEndpoint(url.replace("127.0.0.1", "localhost"), timeout=5.0)
            for k in range(2):
                assert endpoint.post("/v1/score", {"k": k}, {})[2] == BODY
                (conn,) = endpoint._idle  # the server closed the previous one: this is a new connection
                assert conn._context is built[0]
                assert conn.sock.selected_alpn_protocol() == "http/1.1"
            assert seen["connections"] == 2
            assert len(built) == 1 and built[0].post_handshake_auth in (True, None)
            endpoint.close()

    @pytest.mark.parametrize("trusted", [True, False], ids=["wrong-host-name", "untrusted-certificate"])
    def test_certificate_checks_hold(self, tls_context, monkeypatch, trusted):
        context, cert = tls_context
        if trusted:  # trusted, but issued to localhost, not 127.0.0.1
            monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        with raw_server([reply()], tls=context) as (url, seen):
            with pytest.raises(ssl.SSLCertVerificationError):
                jsonhttp.JsonEndpoint(url, timeout=5.0).post("/v1/score", {}, {})
            assert seen["requests"] == []
