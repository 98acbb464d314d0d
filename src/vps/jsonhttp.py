"""JSON POSTs over pooled keep-alive HTTP/1.1 connections, on the stdlib only.

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

``http.client.HTTPConnection`` and ``HTTPSConnection`` only open the
sockets: they connect, verify TLS certificates and host names, set the
timeout and ``TCP_NODELAY``. The exchange itself is lean: each request goes
out as one write of head and body, and the reply is read by a small
status-line and header parser that keeps ``http.client``'s rules and limits
(100 Continue skipped, Content-Length, chunked or read-to-EOF bodies,
HTTP/1.0 and ``Connection: close`` closing the connection, lines of at most
65 536 bytes, fewer than 100 header lines) and raises its exceptions.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import ssl
import threading
import weakref
from typing import BinaryIO, Iterable, Mapping
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

# a whole reply: status, headers (names lower-cased), body
Reply = tuple[int, Mapping[str, str], bytes]

# http.client's limits on one line and on the lines of a header block
_MAX_LINE = 65536
_MAX_HEADERS = 100
# http.client's checks of a request target and of header names and values
_BAD_TARGET_CHAR = re.compile("[\x00-\x20\x7f]").search
_LEGAL_HEADER_NAME = re.compile(r"[^:\s][^:\r\n]*").fullmatch
_ILLEGAL_HEADER_VALUE = re.compile(r"\n(?![ \t])|\r(?![ \t\n])").search


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


def _host_header(host: str, port: int, default_port: int) -> str:
    """The Host header http.client sends for ``host``:``port``."""
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    if ":" in host:  # an IPv6 address, bracketed and without its zone
        host = f"[{host.partition('%')[0]}]"
    return host if port == default_port else f"{host}:{port}"


def _read_line(fp: BinaryIO, what: str) -> bytes:
    line = fp.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_exact(fp: BinaryIO, size: int) -> bytes:
    data = fp.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_status(fp: BinaryIO) -> tuple[str, int]:
    line = str(_read_line(fp, "status line"), "iso-8859-1")
    if not line:  # the server closed the connection before replying
        raise http.client.RemoteDisconnected("Remote end closed connection without response")
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise http.client.BadStatusLine(line)
    try:
        status = int(parts[1])
    except ValueError:
        raise http.client.BadStatusLine(line) from None
    if not 100 <= status <= 999:
        raise http.client.BadStatusLine(line)
    return parts[0], status


def _read_headers(fp: BinaryIO) -> dict[str, str]:
    """A header block as lower-cased names to values; the first of repeated names wins."""
    fields: list[list[str]] = []
    for count in range(1, _MAX_HEADERS + 2):
        line = _read_line(fp, "header line")
        if count > _MAX_HEADERS:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            break
        text = line.decode("iso-8859-1").rstrip("\r\n")
        if text[:1] in (" ", "\t"):  # a folded continuation line
            if fields:
                fields[-1][1] += " " + text.strip(" \t")
            continue
        name, colon, value = text.partition(":")
        if colon:
            fields.append([name.lower(), value.lstrip(" \t")])
    return dict(reversed(fields))


def _read_chunked(fp: BinaryIO) -> bytes:
    chunks: list[bytes] = []
    try:
        while True:
            line = _read_line(fp, "chunk size")
            try:
                size = int(line.partition(b";")[0], 16)
                if size < 0:
                    raise ValueError(size)
            except ValueError:
                raise http.client.IncompleteRead(b"") from None
            if size == 0:
                break
            chunks.append(_read_exact(fp, size))
            _read_exact(fp, 2)  # the CRLF after the chunk
    except http.client.IncompleteRead as exc:
        raise http.client.IncompleteRead(b"".join(chunks)) from exc
    while _read_line(fp, "trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def _read_reply(fp: BinaryIO) -> tuple[int, dict[str, str], bytes, bool]:
    """Read one reply as http.client reads it: (status, headers, body, whether
    the connection closes after it)."""
    version, status = _read_status(fp)
    while status == 100:
        _read_headers(fp)
        version, status = _read_status(fp)
    if version in ("HTTP/1.0", "HTTP/0.9"):
        http10 = True
    elif version.startswith("HTTP/1."):
        http10 = False
    else:
        raise http.client.UnknownProtocol(version)
    headers = _read_headers(fp)
    connection = headers.get("connection", "").lower()
    if http10:
        will_close = not (
            headers.get("keep-alive")
            or "keep-alive" in connection
            or "keep-alive" in headers.get("proxy-connection", "").lower()
        )
    else:
        will_close = "close" in connection
    if headers.get("transfer-encoding", "").lower() == "chunked":
        return status, headers, _read_chunked(fp), will_close
    if status in (204, 304) or status < 200:
        return status, headers, b"", will_close
    try:
        length = int(headers.get("content-length", ""))
    except ValueError:
        length = -1
    if length < 0:  # no usable length: the body runs to EOF
        return status, headers, fp.read(), True
    return status, headers, _read_exact(fp, length), will_close


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
        self._host_header = _host_header(self._host, self._port, self._connection_class.default_port)
        self._prefix = parts.path.rstrip("/")
        self._options: dict = {"timeout": timeout}
        if parts.scheme == "https":  # one TLS context for every connection, as http.client would set it up
            context = self._options["context"] = ssl._create_default_https_context()
            context.set_alpn_protocols(["http/1.1"])
            if context.post_handshake_auth is not None:
                context.post_handshake_auth = True
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
        return Exchange(self, self._head(self._prefix + path, len(data), headers) + data)

    def close(self) -> None:
        """Close the idle connections; later calls open new ones."""
        with self._lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)

    def _head(self, target: str, length: int, headers: Mapping[str, str]) -> bytes:
        """The request line and headers of a POST, checked as http.client checks them."""
        if _BAD_TARGET_CHAR(target) or not target.isascii():
            raise http.client.InvalidURL(f"URL must be ASCII without control characters or spaces: {target!r}")
        lines = [f"POST {target} HTTP/1.1", f"Host: {self._host_header}", "Accept-Encoding: identity",
                 f"Content-Length: {length}"]
        for name, value in headers.items():
            if not (name.isascii() and _LEGAL_HEADER_NAME(name)):
                raise ValueError(f"Invalid header name {name!r}")
            if _ILLEGAL_HEADER_VALUE(value):
                raise ValueError(f"Invalid header value {value!r}")
            lines.append(f"{name}: {value}")
        lines.append("\r\n")
        return "\r\n".join(lines).encode("latin-1")

    def _new_connection(self) -> http.client.HTTPConnection:
        return self._connection_class(self._host, self._port, **self._options)

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
            with conn.sock.makefile("rb") as fp:
                status, headers, payload, will_close = _read_reply(fp)
        except BaseException:
            conn.close()
            raise
        if will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return status, headers, payload


class Exchange:
    """One request sent on a connection that nothing else uses until
    :meth:`reply` has read the reply (or :meth:`close` dropped it).

    The request, head and body, goes out in one write on an idle pooled
    connection when there is one. If the server had closed that connection,
    which shows as a ``ConnectionError`` when sending or before any reply,
    :meth:`reply` sends the request once more on a fresh connection. A
    request that could not be sent otherwise raises its error from
    :meth:`reply`.
    """

    def __init__(self, endpoint: JsonEndpoint, message: bytes) -> None:
        self._endpoint = endpoint
        self._message = message
        self._error: Exception | None = None
        idle = endpoint._take_idle()
        self._replayable = idle is not None
        self._conn = idle if idle is not None else endpoint._new_connection()
        try:
            self._send()
        except TRANSPORT_ERRORS as exc:
            self._error = exc

    def _send(self) -> None:
        conn = self._conn
        try:
            if conn.sock is None:
                conn.connect()
            conn.sock.sendall(self._message)
        except BaseException:
            conn.close()
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
