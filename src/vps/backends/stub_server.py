"""In-process HTTP stub for the scoring, judge, and embedding endpoints.

The reference server for offline tests and demos: serves /v1/score from a
fixture table, /v1/judge from a scripted reply list, and /v1/embed from a
text-to-vector map. It speaks HTTP/1.1 with keep-alive, records each
request's path, body and headers, and counts accepted connections. It can
also drop the first N requests to exercise client retry behavior.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping, Sequence

__all__ = ["StubServer"]


class StubServer:
    """Context-managed localhost HTTP stub.

    ``score_handler`` maps a decoded /v1/score request body to a response
    dict (or raises to produce a 500). ``judge_replies`` are consumed one per
    /v1/judge call (the last is repeated). ``embeddings`` maps text to a
    vector for /v1/embed.
    """

    def __init__(
        self,
        score_handler: Callable[[dict], dict] | None = None,
        judge_replies: Sequence[str] = (),
        embeddings: Mapping[str, Sequence[float]] | None = None,
        fail_first: int = 0,
    ) -> None:
        self.score_handler = score_handler
        self.judge_replies = list(judge_replies)
        self.embeddings = dict(embeddings or {})
        self.fail_first = fail_first
        self.requests_seen: list[tuple[str, dict]] = []
        self.headers_seen: list[dict[str, str]] = []
        self.connections = 0
        self._judge_index = 0
        self._failures_left = fail_first
        self._lock = threading.Lock()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        assert self._httpd is not None, "server not started"
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServer":
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # a reply goes out as two writes (headers, body); with Nagle's
            # algorithm on, the body waits ~40 ms for the client's delayed ACK
            disable_nagle_algorithm = True

            def log_message(self, *args) -> None:  # keep test output clean
                pass

            def setup(self) -> None:
                super().setup()
                with stub._lock:
                    stub.connections += 1

            def do_POST(self) -> None:
                with stub._lock:
                    if stub._failures_left > 0:
                        stub._failures_left -= 1
                        # drop the connection: clients see a transport failure
                        self.close_connection = True
                        self.connection.close()
                        return
                length = int(self.headers.get("Content-Length", "0"))
                try:
                    body = json.loads(self.rfile.read(length) or b"{}")
                except json.JSONDecodeError:
                    self._reply(400, {"error": "bad json"})
                    return
                with stub._lock:
                    stub.requests_seen.append((self.path, body))
                    stub.headers_seen.append(dict(self.headers))
                try:
                    if self.path == "/v1/score":
                        self._reply(200, stub._score(body))
                    elif self.path == "/v1/judge":
                        self._reply(200, {"text": stub._judge()})
                    elif self.path == "/v1/embed":
                        self._reply(200, {"embedding": stub._embed(body)})
                    else:
                        self._reply(404, {"error": f"no route {self.path}"})
                except KeyError as exc:
                    self._reply(404, {"error": str(exc)})
                except Exception as exc:  # noqa: BLE001 - stub surfaces any handler bug
                    self._reply(500, {"error": str(exc)})

            def _reply(self, status: int, payload: dict) -> None:
                data = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _score(self, body: dict) -> dict:
        if self.score_handler is None:
            raise KeyError("no score handler configured")
        return self.score_handler(body)

    def _judge(self) -> str:
        with self._lock:
            if not self.judge_replies:
                raise KeyError("no judge replies configured")
            reply = self.judge_replies[min(self._judge_index, len(self.judge_replies) - 1)]
            self._judge_index += 1
            return reply

    def _embed(self, body: dict) -> list[float]:
        text = body.get("text", "")
        if text not in self.embeddings:
            raise KeyError(f"no embedding fixture for {text!r}")
        return [float(x) for x in self.embeddings[text]]
