"""HTTP client for external inference servers speaking the /v1/score protocol.

The request body is JSON with fields ``video_ref``, ``frame_set``, ``view``,
``prompt_text``, ``generated``, and ``want`` ("full" or "top:<m>"); the
response carries ``vocab_size`` plus either a full ``scores`` vector or
``top`` (token, log-probability) pairs with a ``remainder`` mass. Requests
travel over the pooled keep-alive connections of :mod:`vps.jsonhttp`, each
in one socket write, with replies read by its lean HTTP/1.1 parser and
decoded by :func:`vps.jsonhttp.loads` (orjson, with ``json.loads`` deciding
the bodies orjson refuses, such as NaN and Infinity literals).
:meth:`WireBackend.score_batch` is the scorer: a round of decoder steps is
one request per query, ``jobs`` in flight at a time, and a failed request
raises at its reply, after the replies before it. ``score`` and
``score_response`` are one-query conveniences that no decode calls.
Transport failures and 429/503 replies are retried idempotently with
exponential backoff (a 429/503 ``Retry-After`` of whole seconds replaces the
backoff); other non-success statuses are not retried.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from ..aggregation import Distribution
from ..jsonhttp import (
    TRANSPORT_ERRORS,
    BackendError,
    Exchange,
    JsonEndpoint,
    Reply,
    WireTransportError,
    auth_headers,
    loads,
)
from . import ScoreRequest, ScoreResponse, ScoreStep

__all__ = [
    "WireConfig",
    "BackendError",
    "WireParseError",
    "WireTransportError",
    "WireBackend",
]

TOKEN_ENV = "VPS_BACKEND_TOKEN"
SCORE_PATH = "/v1/score"
# statuses that say "try again later" rather than "this request is wrong"
RETRY_STATUSES = frozenset({429, 503})


class WireParseError(RuntimeError):
    """The server's reply did not match the protocol."""


@dataclass(frozen=True)
class WireConfig:
    endpoint: str
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.backoff < 0 or self.backoff_factor < 1:
            raise ValueError("retry settings must be non-negative (factor >= 1)")


def _encode_want(top_m: int | None) -> str:
    return "full" if top_m is None else f"top:{top_m}"


def _retry_after(headers) -> int | None:
    """The ``Retry-After`` header when it is a whole number of seconds."""
    value = headers.get("retry-after", "").strip()
    return int(value) if value.isascii() and value.isdigit() else None


class WireBackend:
    """Pooled-connection scorer for a remote /v1/score endpoint.

    Safe for concurrent in-flight requests; the only shared state is the
    pool of idle connections and the monotonic ``retries_total`` counter.
    """

    def __init__(self, config: WireConfig, vocab: Sequence[str] | None = None) -> None:
        self.config = config
        self.vocab = tuple(vocab) if vocab is not None else None
        self._endpoint = JsonEndpoint(config.endpoint, config.timeout)
        self._lock = threading.Lock()
        self.retries_total = 0

    def token_text(self, token: int) -> str:
        if self.vocab is None:
            return str(token)
        return self.vocab[token]

    def close(self) -> None:
        """Close the idle pooled connections."""
        self._endpoint.close()

    def score_response(self, req: ScoreRequest) -> ScoreResponse:
        """POST the request; retry transport failures and 429/503 replies up
        to the configured limit."""
        (body,) = _bodies(ScoreStep.of(req))
        return self._response(lambda: self._endpoint.post(SCORE_PATH, body, auth_headers(TOKEN_ENV)))

    def score(self, req: ScoreRequest) -> Distribution:
        return self.score_response(req).to_distribution()[0]

    def score_batch(self, steps: Sequence[ScoreStep], jobs: int = 1) -> Iterator[Distribution]:
        """One distribution per query of ``steps``, in step then query order, read lazily.

        Each query is one request, with the body and the retry policy of
        :meth:`score_response`, sent over at most ``jobs`` pooled connections
        from the calling thread: the first ``jobs`` when the first reply is
        asked for, request k+``jobs`` once reply k has been read and parsed.
        A request that fails raises at its reply; the at most ``jobs`` - 1
        requests still in flight then are dropped with their connections.
        """
        bodies = [body for step in steps for body in _bodies(step)]
        jobs, headers = max(1, jobs), auth_headers(TOKEN_ENV)
        in_flight: deque[Exchange] = deque()
        try:
            in_flight.extend(self._endpoint.send(SCORE_PATH, body, headers) for body in bodies[:jobs])
            for k, body in enumerate(bodies):
                sent = in_flight.popleft()
                response = self._response(sent.reply, lambda: self._endpoint.post(SCORE_PATH, body, headers))
                if k + jobs < len(bodies):
                    in_flight.append(self._endpoint.send(SCORE_PATH, bodies[k + jobs], headers))
                yield response.to_distribution()[0]
        finally:
            for sent in in_flight:
                sent.close()

    def _response(self, attempt: Callable[[], Reply], retry: Callable[[], Reply] | None = None) -> ScoreResponse:
        """The parsed reply of ``attempt``, made again by ``retry`` (default:
        ``attempt``) after a transport failure or a 429/503 reply, up to the
        retry budget. The raw reply is dropped here, so a caller that holds
        the result holds no reply bytes."""
        cfg = self.config
        retries = 0
        try:
            while True:
                try:
                    status, headers, data = attempt()
                except TRANSPORT_ERRORS as exc:
                    if retries >= cfg.max_retries:
                        raise WireTransportError(
                            f"POST {SCORE_PATH} failed after {retries} retries: {exc!r}"
                        ) from exc
                    delay = None
                else:
                    if status not in RETRY_STATUSES or retries >= cfg.max_retries:
                        break
                    delay = _retry_after(headers)
                time.sleep(cfg.backoff * cfg.backoff_factor**retries if delay is None else delay)
                retries += 1
                attempt = retry or attempt
        finally:
            with self._lock:
                self.retries_total += retries
        if status != 200:
            raise BackendError(status, data.decode("utf-8", "replace"))
        try:
            payload = loads(data)
        except ValueError as exc:  # also bad UTF-8 and integers past the digit limit
            raise WireParseError(f"malformed response body: {data[:200]!r}") from exc
        return _parse_payload(payload)


def _bodies(step: ScoreStep) -> list[dict]:
    """The request body of each query of ``step``, in query order."""
    generated, want = list(step.generated), _encode_want(step.top_m)
    return [{"video_ref": step.video_ref, "frame_set": list(frame_set), "view": view, "prompt_text": step.prompt_text,
             "generated": generated, "want": want} for frame_set, view in step.queries]


def _parse_payload(payload: object) -> ScoreResponse:
    if not isinstance(payload, dict) or "vocab_size" not in payload:
        raise WireParseError(f"response missing vocab_size: {payload!r}")
    vocab_size = payload["vocab_size"]
    # a float, or a bool, would be truncated to a vocabulary; 2**63 and up is no index
    if type(vocab_size) is not int or not 0 < vocab_size < 2**63:
        raise WireParseError(f"vocab_size must be a positive integer below 2**63: {vocab_size!r}")
    try:
        if "scores" in payload and payload["scores"] is not None:
            return ScoreResponse(vocab_size, scores=payload["scores"])
        return ScoreResponse(vocab_size, top=payload["top"], remainder=float(payload["remainder"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise WireParseError(f"bad response payload: {exc}") from exc

