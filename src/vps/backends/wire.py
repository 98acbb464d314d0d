"""HTTP client for external inference servers speaking the /v1/score protocol.

The request body is JSON with fields ``video_ref``, ``frame_set``, ``view``,
``prompt_text``, ``generated``, and ``want`` ("full" or "top:<m>"); the
response carries ``vocab_size`` plus either a full ``scores`` vector or
``top`` (token, log-probability) pairs with a ``remainder`` mass. Transport
failures are retried idempotently with exponential backoff; non-success
statuses are not retried.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import requests

from ..aggregation import Distribution
from . import ScoreRequest, ScoreResponse

__all__ = ["WireConfig", "BackendError", "WireParseError", "WireBackend", "wire_score"]

TOKEN_ENV = "VPS_BACKEND_TOKEN"
SCORE_PATH = "/v1/score"


class BackendError(RuntimeError):
    """The server answered with a non-success status."""

    def __init__(self, status: int, body: str) -> None:
        super().__init__(f"backend returned status {status}: {body[:200]}")
        self.status = status
        self.body = body


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


class WireBackend:
    """Pooled-connection scorer for a remote /v1/score endpoint.

    Safe for concurrent in-flight requests; the only shared state is the
    underlying connection pool and the monotonic ``retries_total`` counter.
    """

    def __init__(
        self,
        config: WireConfig,
        session: requests.Session | None = None,
        vocab: Sequence[str] | None = None,
    ) -> None:
        self.config = config
        self.vocab = tuple(vocab) if vocab is not None else None
        self._session = session or requests.Session()
        self._lock = threading.Lock()
        self.retries_total = 0

    def token_text(self, token: int) -> str:
        if self.vocab is None:
            return str(token)
        return self.vocab[token]

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def score_response(self, req: ScoreRequest) -> ScoreResponse:
        """POST the request; retry transport failures up to the configured limit."""
        body = {
            "video_ref": req.video_ref,
            "frame_set": list(req.frame_set),
            "view": req.view,
            "prompt_text": req.prompt_text,
            "generated": list(req.generated),
            "want": _encode_want(req.top_m),
        }
        url = self.config.endpoint.rstrip("/") + SCORE_PATH
        retries = 0
        while True:
            try:
                resp = self._session.post(
                    url, json=body, headers=self._headers(), timeout=self.config.timeout
                )
                break
            except (requests.ConnectionError, requests.Timeout):
                if retries >= self.config.max_retries:
                    raise
                time.sleep(self.config.backoff * self.config.backoff_factor**retries)
                retries += 1
        with self._lock:
            self.retries_total += retries
        if resp.status_code != 200:
            raise BackendError(resp.status_code, resp.text)
        try:
            payload = resp.json()
        except (json.JSONDecodeError, requests.exceptions.JSONDecodeError) as exc:
            raise WireParseError(f"malformed response body: {resp.text[:200]!r}") from exc
        return _parse_payload(payload)

    def score(self, req: ScoreRequest) -> Distribution:
        return self.score_response(req).to_distribution()[0]


def _parse_payload(payload: object) -> ScoreResponse:
    if not isinstance(payload, dict) or "vocab_size" not in payload:
        raise WireParseError(f"response missing vocab_size: {payload!r}")
    try:
        vocab_size = int(payload["vocab_size"])
        if "scores" in payload and payload["scores"] is not None:
            return ScoreResponse(vocab_size, scores=tuple(float(s) for s in payload["scores"]))
        top = tuple((int(t), float(lp)) for t, lp in payload["top"])
        return ScoreResponse(vocab_size, top=top, remainder=float(payload["remainder"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireParseError(f"bad response payload: {exc}") from exc


def wire_score(config: WireConfig, req: ScoreRequest) -> ScoreResponse:
    """One-shot convenience wrapper around :class:`WireBackend`."""
    return WireBackend(config).score_response(req)
