"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS line (visible with ``pytest -s``); a failing
assert fails the corresponding test. The heavyweight artifacts (the Monte
Carlo grid and the toy-world benchmark) are computed once per session and
shared between the criteria that consume them, with their runtime budgets
enforced where the criterion states one.
"""

import math
import time
import zlib

import numpy as np
import pytest

from oracles import oracle_bolt_draws
from scorers import PerQuery
from vps.aggregation import (
    Distribution,
    TcdConfig,
    Weights,
    mix_logits,
    mix_probs,
    tcd_adjust,
)
from vps.backends import ScoreRequest
from vps.backends.stub_server import StubServer
from vps.backends.toyworld import ToyWorld
from vps.decode_engine import DecodeConfig, Decoder, decode, step
from vps.eval_harness import MethodResult, MethodSpec, accuracy, run_benchmark, toy_benchmark
from vps.frame_selection import BoltConfig, bolt_plan, sharpen_scores, uniform_offset_plan, validate_plan
from vps.metrics import HttpJudgeClient, judge_score, rouge_l
from vps.scaling_law import ScalingParams, SimSpec, simulate_ce_grid, stream_loss, vps_loss

CAPACITY = 1e-3
MC_RHOS = (0.0, 0.5, 1.0)
MC_STREAMS = (1, 2, 4, 8)


def announce(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS - {text}")


@pytest.fixture(scope="module")
def mc_grid():
    """Criterion 4/5 artifact: the full (rho, J) Monte Carlo grid, timed."""
    params = ScalingParams(
        irreducible_entropy=0.0,
        capacity_coeff=CAPACITY,
        capacity_exponent=1.0,
        model_size=1.0,
        correlation=0.0,
        biases=(0.0,) * max(MC_STREAMS),
    )
    spec = SimSpec(vocab_size=64, samples=10**6, seed=20240, params=params)
    start = time.perf_counter()
    grid = simulate_ce_grid(spec, MC_STREAMS, MC_RHOS, dtype=np.float32)
    elapsed = time.perf_counter() - start
    return grid, elapsed


@pytest.fixture(scope="module")
def toy_experiment():
    """Criterion 6/7 artifact: toy-world accuracies for all methods, timed."""
    world = ToyWorld.symmetric(4, 0.55)
    items, backend = toy_benchmark(world, n_episodes=2000, total_frames=64, seed=606)
    methods = [MethodSpec.parse(tag) for tag in ("vps:1", "vps:2", "vps:4", "vps:8", "sc:4", "sc:8")]
    start = time.perf_counter()
    results, audit = run_benchmark(
        items,
        backend,
        methods,
        frames_per_stream=4,
        seed=77,
        max_tokens=1,
        stop_tokens=frozenset({world.stop_token}),
    )
    elapsed = time.perf_counter() - start
    by_method = {}
    item_refs = {item.id: item.reference for item in items}
    order = sorted(item_refs)
    for method in methods:
        rows = {r.item_id: r for r in results if r.method == method.tag}
        by_method[method.tag] = np.array(
            [rows[i].extracted == item_refs[i] for i in order], dtype=float
        )
    return by_method, audit, elapsed


def paired_lower_bound(a, b):
    """95% lower confidence bound on mean(a - b) over paired outcomes."""
    d = a - b
    return float(d.mean() - 1.96 * d.std(ddof=1) / math.sqrt(d.size))


def test_criterion_01_canonical_plan_exact():
    plan = uniform_offset_plan(64, 4, 4)
    assert plan.sets == (
        (0, 16, 32, 48),
        (4, 20, 36, 52),
        (8, 24, 40, 56),
        (12, 28, 44, 60),
    )
    best = min(
        (lambda t0: (uniform_offset_plan(64, 4, 4), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(5)
    )
    assert best < 1e-3, f"plan construction took {best * 1e3:.3f} ms"
    announce(1, f"canonical (64,4,4) plan byte-exact, built in {best * 1e6:.0f} us")


def test_criterion_02_aggregation_algebra():
    rng = np.random.default_rng(321)
    worst_sum_drift = 0.0
    for i in range(10_000):
        J = int(rng.choice((1, 2, 3, 4, 6, 8)))
        size = int(rng.integers(2, 33))
        logits = rng.normal(size=(J, size))
        dists = [Distribution.from_logits(z) for z in logits]
        w = Weights.normalized(rng.random(J) + 1e-3)
        mixed = mix_probs(dists, w)
        worst_sum_drift = max(worst_sum_drift, abs(float(mixed.probs.sum()) - 1.0))
        assert (mixed.probs >= 0).all()

        if i % 10 == 0:
            # identical streams, canonical uniform weights: exact identity,
            # and both aggregation spaces agree bitwise
            Jp = int(rng.choice((1, 2, 4, 8)))
            d = Distribution.from_logits(rng.normal(size=size))
            uniform = Weights.uniform(Jp)
            same = [d] * Jp
            assert np.array_equal(mix_probs(same, uniform).probs, d.probs)
            assert np.array_equal(mix_logits(same, uniform).probs, d.probs)

        if i % 10 == 5:
            pos = Distribution.from_logits(rng.normal(size=size))
            neg = Distribution.from_logits(rng.normal(size=size))
            out = tcd_adjust(pos, neg, TcdConfig(0.0, 0.0, "probability"))
            assert out is pos  # zero-contrast identity is exact

    assert worst_sum_drift < 1e-9
    pos = Distribution.from_probs([0.7, 0.2, 0.1])
    neg = Distribution.from_probs([0.4, 0.5, 0.1])
    out = tcd_adjust(pos, neg, TcdConfig(0.5, 0.1, "probability"))
    assert np.abs(out.probs - np.array([0.85, 0.05, 0.10])).max() < 1e-12
    announce(2, f"10^4 fixtures: normalization drift {worst_sum_drift:.2e}, identities exact, contrast example within 1e-12")


class _FuzzBackend(PerQuery):
    """Deterministic procedural scorer that audits the context-length bound
    and records the generated suffix of every request it receives."""

    def __init__(self, vocab_size, frames_per_stream, prompt, salt):
        self.vocab_size = vocab_size
        self.frames_per_stream = frames_per_stream
        self.prompt = prompt
        self.salt = salt
        self.suffixes = []

    def score(self, req: ScoreRequest):
        assert len(req.frame_set) == self.frames_per_stream, "context grew beyond k frames"
        assert req.prompt_text == self.prompt
        self.suffixes.append(req.generated)
        key = f"{self.salt}|{req.frame_set}|{req.view}|{req.generated}".encode()
        rng = np.random.default_rng(zlib.crc32(key))
        return Distribution.from_logits(rng.normal(size=self.vocab_size))


def test_criterion_03_decode_invariants_and_replay():
    rng = np.random.default_rng(777)
    decodes = 0
    while decodes < 1000:
        J = int(rng.choice((1, 2, 4, 8)))
        vocab = int(rng.integers(3, 11))
        k = int(rng.integers(1, 5))
        T = max(J * k, int(rng.integers(J * k, 65)))
        steps = int(rng.integers(1, 5))
        temperature = float(rng.choice((0.0, 0.7, 1.0)))
        with_tcd = bool(rng.random() < 0.3)
        salt = int(rng.integers(2**31))
        plan = uniform_offset_plan(T, k, J)
        backend = _FuzzBackend(vocab, k, "prompt", salt)
        cfg = DecodeConfig(
            streams=J,
            max_tokens=steps,
            temperature=temperature,
            tcd=TcdConfig() if with_tcd else None,
        )

        # token identity at every step: each request the backend receives
        # carries the same suffix, the tokens emitted so far
        decoder = Decoder("vid", "prompt", plan, cfg, salt)
        while not decoder.done:
            emitted = tuple(rec.token for rec in decoder.trace.steps)
            backend.suffixes = []
            step(decoder, backend)
            assert backend.suffixes == [emitted] * (J * (2 if with_tcd else 1))

        # bit-identical replay: two runs, and thread counts 1 vs 8
        texts = {
            decode("vid", "prompt", plan, backend, cfg, seed=salt, jobs=jobs)[1].to_jsonl()
            for jobs in (1, 1, 8)
        }
        assert texts == {decoder.trace.to_jsonl()}
        decodes += 1
    announce(3, "10^3 fuzzed decodes: token identity, bounded context, bit-identical replay at 1 and 8 threads")


def test_criterion_04_scaling_law_monte_carlo(mc_grid):
    grid, elapsed = mc_grid
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    worst = 0.0
    for rho in MC_RHOS:
        for J in MC_STREAMS:
            res = grid[(rho, J)]
            predicted = CAPACITY * (1 + (J - 1) * rho) / J
            rel = abs(res.mixture_excess - predicted) / predicted
            worst = max(worst, rel)
            assert rel < 0.10, f"rho={rho} J={J}: {rel:.2%}"
            stream_rel = np.abs(res.stream_excess - CAPACITY) / CAPACITY
            assert stream_rel.max() < 0.10
        res8 = grid[(rho, max(MC_STREAMS))]
        assert abs(res8.delta_sq_mean - 2 * CAPACITY) < 3 * res8.delta_sq_stderr
    announce(4, f"10^6-sample grid in {elapsed:.1f}s; worst mixture error {worst:.2%} (tolerance 10%)")


def test_criterion_05_full_correlation_degrades_to_single_stream(mc_grid):
    grid, _ = mc_grid
    params = ScalingParams(0.0, CAPACITY, 1.0, 1.0, 1.0, (0.0,) * 8)
    for J in MC_STREAMS:
        predicted = vps_loss(params.with_streams(J), J)
        assert predicted == pytest.approx(stream_loss(params, 0), abs=1e-15)
        res = grid[(1.0, J)]
        gap = abs(res.mixture_excess - res.stream_excess.mean())
        budget = 3 * (res.mixture_excess_stderr + float(res.stream_excess_stderr.mean()))
        assert gap <= budget + 1e-12
    announce(5, "rho=1 mixture equals the single-stream law, predicted and empirical (3 stderr)")


def test_criterion_06_toy_world_stream_scaling(toy_experiment):
    by_method, _audit, elapsed = toy_experiment
    assert elapsed < 300.0, f"toy benchmark took {elapsed:.1f}s"
    acc = {J: by_method[f"vps:{J}"].mean() for J in (1, 2, 4, 8)}
    assert acc[1] <= acc[2] <= acc[4] <= acc[8], acc
    lb = paired_lower_bound(by_method["vps:8"], by_method["vps:1"])
    assert lb >= 0.05, f"95% lower bound {lb:.3f}"
    announce(
        6,
        "toy accuracy "
        + " ".join(f"J={J}:{acc[J]:.3f}" for J in (1, 2, 4, 8))
        + f"; gain(8 vs 1) >= {lb:.3f} at 95%",
    )


def test_criterion_07_beats_self_consistency_compute_matched(toy_experiment):
    by_method, audit, _ = toy_experiment
    for J in (4, 8):
        lb = paired_lower_bound(by_method[f"vps:{J}"], by_method[f"sc:{J}"])
        assert lb > 0.0, f"J={J}: 95% lower bound {lb:.3f}"
        assert audit[f"vps:{J}"] == audit[f"sc:{J}"], "compute not matched"
    announce(
        7,
        "frame-subset mixing beats same-frame majority voting at J=4 and J=8 "
        f"(equal backend calls: {audit['vps:4']}, {audit['vps:8']})",
    )


def test_criterion_08_mixture_majority_equivalence():
    rng = np.random.default_rng(2468)
    fixtures = 0
    agree = 0
    while fixtures < 500:
        p = rng.dirichlet(np.ones(4))
        top2 = np.sort(p)[-2:]
        if top2[1] - top2[0] <= 0.1:
            continue
        counts = rng.multinomial(1000, p)
        agree += int(np.argmax(counts) == np.argmax(p))
        fixtures += 1
    assert agree >= 495, f"{agree}/500"
    announce(8, f"mode of 10^3 samples matched the mixture argmax on {agree}/500 fixtures (margin > 0.1)")


def test_criterion_09_metrics():
    assert rouge_l("same sentence here", "same sentence here") == 1.0
    assert rouge_l("alpha beta", "gamma delta") == 0.0
    assert rouge_l("the cat sat", "the cat ran") == pytest.approx(2 / 3, abs=1e-12)

    with StubServer(judge_replies=[f"[{k}]" for k in (1, 2, 3, 4, 5, 6, 0)]) as server:
        client = HttpJudgeClient(server.url)
        for k in (1, 2, 3, 4, 5):
            assert judge_score("cand", "ref", client) == k
        assert judge_score("cand", "ref", client) is None  # [6] then [0]: out of range

    rng = np.random.default_rng(1357)
    from vps.eval_harness import EvalItem

    categories = ("short", "medium", "long")
    items, results = [], []
    for i in range(100):
        cat = categories[int(rng.integers(3))]
        ref = "ABCD"[int(rng.integers(4))]
        items.append(
            EvalItem(
                id=f"q{i}", video_ref="v", total_frames=16, task="multiple_choice",
                question="?", options=("w", "x", "y", "z"), reference=ref, category=cat,
            )
        )
        guess = "ABCD"[int(rng.integers(4))] if rng.random() > 0.15 else None
        results.append(MethodResult(f"q{i}", "m", guess or "", guess))
    table = accuracy(results, items)
    for cat in categories + ("overall",):
        pairs = [
            (it, r) for it, r in zip(items, results)
            if cat == "overall" or it.category == cat
        ]
        expected = sum(r.extracted == it.reference for it, r in pairs) / len(pairs)
        assert table["m"][cat] == pytest.approx(expected)
    announce(9, "rouge examples exact, judge 1..5 parsed and 6/0 rejected over HTTP, accuracy matches oracle")


def test_criterion_10_bolt():
    out = sharpen_scores(BoltConfig((0.2, 0.5, 0.8), sharpen_exponent=3.0))
    assert np.abs(out - np.array([0.0, 1 / 9, 8 / 9])).max() < 1e-12

    rng = np.random.default_rng(9753)
    for trial in range(1000):
        T = int(rng.integers(4, 33))
        k = int(rng.integers(1, 5))
        J = int(rng.integers(1, 5))
        if J * k > T:
            continue
        plan = bolt_plan(BoltConfig(tuple(rng.random(T))), k, J, seed=trial)
        assert validate_plan(plan, require_disjoint=True) is None

    scores = (0.0, 0.1, 0.9, 0.0, 0.3, 0.8, 0.2, 0.0, 0.5, 0.4)
    for seed in range(300):
        plan = bolt_plan(BoltConfig(scores), frames_per_stream=5, streams=2, seed=seed)
        assert [list(s) for s in plan.sets] == oracle_bolt_draws(scores, 5, 2, seed)
    announce(10, "sharpening exact, 10^3 disjoint plans, 300 seeds match the direct-simulation oracle on the 10-frame fixture")
