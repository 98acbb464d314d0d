"""Score-server fixture for the wire workloads: a /v1/score endpoint in its own process.

Run it as a script; it prints ``READY <port>`` on stdout once it listens and
exits when its stdin closes, so a parent that dies cannot leave it behind::

    python3 perfbench/fixture_server.py --vocab 32000 --seed 7

Every reply is pre-encoded at start-up from a seeded pool (full score vectors
and top-20 pairs) and chosen per request by a hash of the request body, so the
handler's own cost stays small next to the client's; a request for any other
top-m is answered 400. The server speaks
HTTP/1.1 keep-alive with TCP_NODELAY, validates every request body against
the /v1/score protocol (400 on a violation) and counts requests, connections,
reply bytes and handler time; ``GET /stats`` returns the counters as JSON.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import random
import sys
import threading
import time
import urllib.parse
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SCORE_PATH = "/v1/score"
STATS_PATH = "/stats"
REQUEST_FIELDS = frozenset({"video_ref", "frame_set", "view", "prompt_text", "generated", "want"})
# tokens 0..ANSWER_TOKENS-1 carry extra score so greedy decodes often emit an answer letter
ANSWER_TOKENS = 5
ANSWER_BOOST = 8.0
TOP_M = 20  # the only top-m the pool pre-encodes
POOL_SIZE = 8  # distinct replies per kind


def protocol_error(body: object) -> str | None:
    """Why ``body`` is not a valid /v1/score request, or None when it is."""
    if not isinstance(body, dict):
        return "body must be a JSON object"
    if set(body) != REQUEST_FIELDS:
        return f"fields must be exactly {sorted(REQUEST_FIELDS)}, got {sorted(body)}"
    for name in ("video_ref", "view", "prompt_text", "want"):
        if not isinstance(body[name], str):
            return f"{name} must be a string"
    for name in ("frame_set", "generated"):
        values = body[name]
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values
        ):
            return f"{name} must be a list of non-negative integers"
    frames = body["frame_set"]
    if any(a >= b for a, b in zip(frames, frames[1:])):
        return "frame_set must be strictly ascending"
    want = body["want"]
    if want != "full":
        kind, _, m = want.partition(":")
        if kind != "top" or not m.isdigit() or int(m) < 1:
            return f"want must be 'full' or 'top:<m>' with m >= 1, got {want!r}"
    return None


def make_log_probs(rng: random.Random, vocab: int) -> list[float]:
    """Normalised log-probabilities: unit normal scores plus a boost on the answer tokens."""
    scores = [rng.gauss(0.0, 1.0) for _ in range(vocab)]
    for t in range(min(ANSWER_TOKENS, vocab)):
        scores[t] += ANSWER_BOOST
    top = max(scores)
    log_z = top + math.log(math.fsum(math.exp(s - top) for s in scores))
    return [s - log_z for s in scores]


def encode_top(log_probs: list[float], m: int) -> bytes:
    order = sorted(range(len(log_probs)), key=lambda t: (-log_probs[t], t))[:m]
    top = [[t, log_probs[t]] for t in order]
    remainder = max(0.0, 1.0 - math.fsum(math.exp(lp) for _, lp in top))
    return json.dumps({"vocab_size": len(log_probs), "top": top, "remainder": remainder}).encode()


class ReplyPool:
    """Seeded pool of log-probability vectors with their full and top-20 replies pre-encoded."""

    def __init__(self, vocab: int, seed: int) -> None:
        rng = random.Random(seed)
        vectors = [make_log_probs(rng, vocab) for _ in range(POOL_SIZE)]
        self.replies = {
            "full": [json.dumps({"vocab_size": vocab, "scores": v}).encode() for v in vectors],
            f"top:{TOP_M}": [encode_top(v, TOP_M) for v in vectors],
        }

    def reply(self, want: str, raw_body: bytes) -> bytes | None:
        """The pre-encoded reply for ``raw_body``, or None for a ``want`` the pool does not hold."""
        replies = self.replies.get(want)
        return None if replies is None else replies[zlib.crc32(raw_body) % len(replies)]


class Counters:
    """Server-side counts, updated under one lock by the handler threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values = {"requests": 0, "rejected": 0, "connections": 0, "reply_bytes": 0, "busy_s": 0.0}

    def add(self, **deltas: float) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self.values[name] += delta

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.values)


class StatsClient:
    """Reads the fixture's counters over one keep-alive connection (counted once, on first use)."""

    def __init__(self, endpoint: str) -> None:
        url = urllib.parse.urlsplit(endpoint)
        self._conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)

    def read(self) -> dict:
        self._conn.request("GET", STATS_PATH)
        return json.loads(self._conn.getresponse().read())

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "StatsClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def stats_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


def make_handler(pool: ReplyPool, counters: Counters) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def setup(self) -> None:
            super().setup()
            counters.add(connections=1)

        def log_message(self, *args) -> None:
            pass

        def _send(self, status: int, data: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            if self.path != STATS_PATH:
                self._send(404, b'{"error": "no route"}')
                return
            self._send(200, json.dumps(counters.snapshot()).encode())

        def do_POST(self) -> None:
            start = time.perf_counter()
            raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            if self.path != SCORE_PATH:
                self._send(404, b'{"error": "no route"}')
                counters.add(rejected=1, busy_s=time.perf_counter() - start)
                return
            try:
                body = json.loads(raw)
            except (UnicodeDecodeError, json.JSONDecodeError):
                body = None
            error = "body is not JSON" if body is None else protocol_error(body)
            if error is not None:
                self._send(400, json.dumps({"error": error}).encode())
                counters.add(rejected=1, busy_s=time.perf_counter() - start)
                return
            data = pool.reply(body["want"], raw)
            if data is None:
                self._send(400, json.dumps({"error": f"this fixture serves only 'full' and 'top:{TOP_M}'"}).encode())
                counters.add(rejected=1, busy_s=time.perf_counter() - start)
                return
            self._send(200, data)
            counters.add(requests=1, reply_bytes=len(data), busy_s=time.perf_counter() - start)

    return Handler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vocab", type=int, default=32000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.vocab < ANSWER_TOKENS:
        parser.error(f"--vocab must be at least {ANSWER_TOKENS}")

    pool = ReplyPool(args.vocab, args.seed)
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(pool, Counters()))
    httpd.daemon_threads = True
    serving = threading.Thread(target=httpd.serve_forever, daemon=True)
    serving.start()
    print(f"READY {httpd.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin or exits
    except KeyboardInterrupt:
        pass
    httpd.shutdown()
    httpd.server_close()
    serving.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
