"""JSON POSTs over pooled keep-alive HTTP(S) connections, on the stdlib only.

One :class:`JsonEndpoint` serves every HTTP client in vps: the wire scorer
and the judge and embedding clients. It keeps the idle connections of one
endpoint in a pool shared by all threads, so N concurrent callers hold at
most N sockets. A request may also be sent now and its reply read later
(:meth:`JsonEndpoint.send`), so that one thread keeps several requests in
flight, one per connection. An idle connection the server has already closed
is dropped before reuse by a zero-timeout readability check; a reused
connection that the server closed between that check and the request is
replaced once by a fresh one, since every vps endpoint is idempotent. Proxy
settings in the environment are not read.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import threading
import weakref
from typing import Iterable, Mapping
from urllib.parse import urlsplit

__all__ = ["BackendError", "WireTransportError", "JsonEndpoint", "Exchange", "Reply", "auth_headers"]


class BackendError(RuntimeError):
    """The server answered with a non-success status."""

    def __init__(self, status: int, body: str) -> None:
        super().__init__(f"backend returned status {status}: {body[:200]}")
        self.status = status
        self.body = body


class WireTransportError(ConnectionError):
    """No reply arrived: the connection failed on every allowed attempt."""


# OSError covers refused and reset connections, timeouts and TLS failures;
# HTTPException covers malformed or truncated replies.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}

# a whole reply: status, headers, body
Reply = tuple[int, http.client.HTTPMessage, bytes]


def auth_headers(env_var: str) -> dict[str, str]:
    """JSON content type plus a bearer token from ``env_var`` when it is set."""
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(env_var)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


def _close_all(connections: Iterable[http.client.HTTPConnection]) -> None:
    for conn in connections:
        conn.close()


def _readable(sock) -> bool:
    """True when an idle socket has data or EOF pending, i.e. it is unusable."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class JsonEndpoint:
    """POSTs JSON bodies to paths under one ``http://`` or ``https://`` URL.

    The URL's path is kept as a prefix of every request path. Safe to share
    between threads.
    """

    def __init__(self, url: str, timeout: float) -> None:
        parts = urlsplit(url)
        if parts.scheme not in _CONNECTIONS or not parts.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {url!r}")
        self._connection_class = _CONNECTIONS[parts.scheme]
        self._host = parts.hostname
        # an explicit port stops http.client from parsing one out of an IPv6 host
        self._port = parts.port or self._connection_class.default_port
        self._prefix = parts.path.rstrip("/")
        self._timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        # an endpoint dropped without close() still closes its idle sockets
        weakref.finalize(self, _close_all, self._idle)

    def post(self, path: str, body: object, headers: Mapping[str, str]) -> Reply:
        """Send one request and read the whole reply: (status, headers, body).

        Raises one of ``TRANSPORT_ERRORS`` when no complete reply arrives.
        """
        return self.send(path, body, headers).reply()

    def send(self, path: str, body: object, headers: Mapping[str, str]) -> "Exchange":
        """Send one request on a connection of its own; read the reply with
        :meth:`Exchange.reply`, which also raises a failure to send."""
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        return Exchange(self, self._prefix + path, data, headers)

    def close(self) -> None:
        """Close the idle connections; later calls open new ones."""
        with self._lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)

    def _new_connection(self) -> http.client.HTTPConnection:
        return self._connection_class(self._host, self._port, timeout=self._timeout)

    def _take_idle(self) -> http.client.HTTPConnection | None:
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if conn.sock is not None and not _readable(conn.sock):
                return conn
            conn.close()

    def _receive(self, conn: http.client.HTTPConnection) -> Reply:
        """Read the reply to the request sent on ``conn``, then pool or close it."""
        try:
            resp = conn.getresponse()
            payload = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return resp.status, resp.headers, payload


class Exchange:
    """One request sent on a connection that nothing else uses until
    :meth:`reply` has read the reply (or :meth:`close` dropped it).

    The request goes out on an idle pooled connection when there is one.
    If the server had closed that connection, which shows as a
    ``ConnectionError`` when sending or before any reply, :meth:`reply`
    sends the request once more on a fresh connection. A request that could
    not be sent otherwise raises its error from :meth:`reply`.
    """

    def __init__(self, endpoint: JsonEndpoint, url: str, data: bytes, headers: Mapping[str, str]) -> None:
        self._endpoint = endpoint
        self._request = (url, data, headers)
        self._error: Exception | None = None
        idle = endpoint._take_idle()
        self._replayable = idle is not None
        self._conn = idle if idle is not None else endpoint._new_connection()
        try:
            self._send()
        except TRANSPORT_ERRORS as exc:
            self._error = exc

    def _send(self) -> None:
        url, data, headers = self._request
        try:
            self._conn.request("POST", url, body=data, headers=headers)
        except BaseException:
            self._conn.close()
            raise

    def reply(self) -> Reply:
        """Read the whole reply: (status, headers, body). Raises one of
        ``TRANSPORT_ERRORS`` when no complete reply arrives."""
        try:
            if self._error is not None:
                raise self._error
            return self._endpoint._receive(self._conn)
        except ConnectionError:
            if not self._replayable:
                raise
        # closed by the server after the readability check
        self._replayable = False
        self._conn = self._endpoint._new_connection()
        self._send()
        return self._endpoint._receive(self._conn)

    def close(self) -> None:
        """Drop the connection without reading the reply."""
        self._conn.close()
