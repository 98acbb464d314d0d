"""The reply decoder: ``jsonhttp.loads`` gives what ``json.loads`` gives,
floats bit for bit, or raises the same exception type."""

import json
import struct

import numpy as np
import pytest

from vps import jsonhttp


def fixture_reply():
    """A full reply as a Python server writes it: 32 000 scores, each a 17-digit repr."""
    scores = np.random.default_rng(7).standard_normal(32000) * 4.0
    return json.dumps({"vocab_size": 32000, "scores": scores.tolist()}).encode()


def random_doubles():
    """Finite doubles drawn from random bit patterns: every exponent, subnormals included."""
    doubles = np.random.default_rng(11).integers(0, 2**64, size=40000, dtype=np.uint64).view(np.float64)
    return json.dumps(doubles[np.isfinite(doubles)].tolist()).encode()


BODIES = {
    "fixture-full-reply": fixture_reply(),
    "random-doubles": random_doubles(),
    "top-reply": json.dumps({"vocab_size": 4, "top": [[0, -0.5108256237659907], [1, -1.2]], "remainder": 0.1}).encode(),
    "minus-zero-float": b"-0.0",
    "minus-zero-int": b"-0",
    "beyond-double-range": b"[1e400, -1e400]",
    "nan-literal": b'{"scores": [0.0, NaN]}',
    "minus-infinity-literal": b'{"top": [[0, -Infinity]]}',
    "lone-surrogate-escape": b'"\\ud800"',
    "utf8-bom": b'\xef\xbb\xbf{"vocab_size": 3}',
    "utf16-body": '{"vocab_size": 3}'.encode("utf-16"),
    "duplicate-keys": b'{"vocab_size": 3, "vocab_size": 4}',
    "non-utf8-bytes": b'{"text": "\xff\xfe"}',
    "truncated": b'{"vocab_size": 3, "scores": [0.0, 1.',
    "empty": b"",
    "integer-at-2**63": str(2**63).encode(),
}


def same(a, b) -> bool:
    """Equal JSON values of equal types, floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def outcome(decode, body):
    try:
        return decode(body)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


@pytest.mark.parametrize("body", BODIES.values(), ids=BODIES.keys())
def test_loads_gives_what_json_loads_gives(body):
    got, expected = outcome(jsonhttp.loads, body), outcome(json.loads, body)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert same(got, expected)


def test_integers_past_2_64_that_fit_a_double_come_back_as_floats():
    # the one documented difference; the wire parser refuses such a vocab_size either way
    assert same(jsonhttp.loads(str(2**64).encode()), 2.0**64)
    assert same(jsonhttp.loads(str(-(2**63) - 1).encode()), -(2.0**63))
    assert same(jsonhttp.loads(str(10**400).encode()), 10**400)  # no double holds it: json.loads decides


def test_json_loads_runs_only_on_bodies_orjson_refuses(monkeypatch):
    decoded = []
    monkeypatch.setattr(jsonhttp.json, "loads", lambda data: decoded.append(data) or "json")
    assert jsonhttp.loads(b'{"vocab_size": 3}') == {"vocab_size": 3}
    assert jsonhttp.loads(BODIES["nan-literal"]) == "json"
    assert decoded == [BODIES["nan-literal"]]
