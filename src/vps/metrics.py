"""Free-form answer metrics: ROUGE-L, sentence similarity, and a Likert judge.

The similarity and judge metrics run through small client objects so the
whole pipeline is testable offline against stubs; HTTP clients for real
endpoints are provided alongside.
"""

from __future__ import annotations

import re
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .jsonhttp import BackendError, JsonEndpoint, auth_headers, loads

__all__ = [
    "rouge_l",
    "sts_score",
    "judge_score",
    "JUDGE_SYSTEM_PROMPT",
    "JUDGE_USER_PROMPT",
    "EmbedClient",
    "JudgeClient",
    "StubEmbedClient",
    "StubJudgeClient",
    "HttpEmbedClient",
    "HttpJudgeClient",
]

JUDGE_TOKEN_ENV = "VPS_JUDGE_TOKEN"
EMBED_TOKEN_ENV = "VPS_EMBED_TOKEN"

JUDGE_SYSTEM_PROMPT = (
    "You are an intelligent chatbot designed for evaluating the correctness of "
    "generative outputs for video summaries.\n"
    "Your task is to compare the predicted answer with the pseudo-reference answer "
    "and determine if they match meaningfully.\n"
    "You should rely more on the video frames than the pseudo-reference caption.\n"
    "------\n"
    "INSTRUCTIONS:\n"
    "- Focus on the meaningful match between the predicted answer and the "
    "pseudo-reference answer.\n"
    "- Consider synonyms or paraphrases as valid matches.\n"
    "- Evaluate the correctness of the prediction compared to the video frames."
)

JUDGE_USER_PROMPT = (
    "Given the reference caption, evaluate the quality of the predicted caption.\n"
    "Provide your evaluation only as an integer value between 1 and 5, with 5 "
    "indicating the highest quality.\n"
    "Please provide your evaluation in the following format: [evaluation]"
)

_WORD = re.compile(r"[^\w\s]")


def _tokenize(text: str) -> list[str]:
    # lowercase, strip punctuation, split on whitespace
    return _WORD.sub("", text.lower()).split()


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, yj in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == yj else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F-measure over normalized word tokens, in [0, 1].

    F = 2PR/(P+R) with P = LCS/|candidate| and R = LCS/|reference|; zero when
    either side has no tokens.
    """
    cand, ref = _tokenize(candidate), _tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


@runtime_checkable
class EmbedClient(Protocol):
    def embed(self, text: str) -> np.ndarray: ...


@runtime_checkable
class JudgeClient(Protocol):
    def complete(self, system: str, user: str) -> str: ...


def sts_score(candidate: str, reference: str, embed: EmbedClient) -> float | None:
    """Cosine similarity of the two sentence embeddings, in [-1, 1].

    Report tables conventionally scale this by 100. Returns None when the
    embedding client fails, so a run can continue without the metric.
    """
    try:
        a = np.asarray(embed.embed(candidate), dtype=np.float64)
        b = np.asarray(embed.embed(reference), dtype=np.float64)
    except Exception:  # noqa: BLE001 - endpoint failure must not kill the run
        return None
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


_BRACKET_INT = re.compile(r"\[(-?\d+)\]")


def judge_score(candidate: str, reference: str, judge: JudgeClient) -> int | None:
    """Ask the judge for a 1-5 quality rating of the candidate caption.

    Sends the fixed system and user prompts with the reference and candidate
    appended and parses the bracketed integer. One retry on a reply that
    does not parse; an out-of-range rating counts as unavailable (None).
    """
    user = (
        f"{JUDGE_USER_PROMPT}\n"
        f"Reference caption: {reference}\n"
        f"Predicted caption: {candidate}"
    )
    for _attempt in range(2):
        try:
            reply = judge.complete(JUDGE_SYSTEM_PROMPT, user)
        except Exception:  # noqa: BLE001 - endpoint failure must not kill the run
            return None
        match = _BRACKET_INT.search(reply)
        if match:
            value = int(match.group(1))
            return value if 1 <= value <= 5 else None
    return None


class StubEmbedClient:
    """Offline embedder: fixed vectors per text, with optional normalization."""

    def __init__(self, vectors: dict[str, Sequence[float]], casefold: bool = False) -> None:
        self.vectors = dict(vectors)
        self.casefold = casefold

    def embed(self, text: str) -> np.ndarray:
        key = text.lower() if self.casefold else text
        return np.asarray(self.vectors[key], dtype=np.float64)


class StubJudgeClient:
    """Offline judge: replies from a script, repeating the last one."""

    def __init__(self, replies: Sequence[str]) -> None:
        self.replies = list(replies)
        self.calls = 0

    def complete(self, system: str, user: str) -> str:
        if not self.replies:
            raise RuntimeError("stub judge has no scripted replies")
        reply = self.replies[min(self.calls, len(self.replies) - 1)]
        self.calls += 1
        return reply


def _post_json(endpoint: JsonEndpoint, path: str, body: dict, token_env: str) -> dict:
    status, _headers, data = endpoint.post(path, body, auth_headers(token_env))
    if status != 200:
        raise BackendError(status, data.decode("utf-8", "replace"))
    return loads(data)


class HttpEmbedClient:
    """POST /v1/embed {"text": ...} -> {"embedding": [...]}."""

    def __init__(self, endpoint: str, timeout: float = 30.0) -> None:
        self._endpoint = JsonEndpoint(endpoint, timeout)

    def embed(self, text: str) -> np.ndarray:
        reply = _post_json(self._endpoint, "/v1/embed", {"text": text}, EMBED_TOKEN_ENV)
        return np.asarray(reply["embedding"], dtype=np.float64)


class HttpJudgeClient:
    """POST /v1/judge {"system": ..., "user": ...} -> {"text": ...}."""

    def __init__(self, endpoint: str, timeout: float = 30.0) -> None:
        self._endpoint = JsonEndpoint(endpoint, timeout)

    def complete(self, system: str, user: str) -> str:
        reply = _post_json(self._endpoint, "/v1/judge", {"system": system, "user": user}, JUDGE_TOKEN_ENV)
        return str(reply["text"])
