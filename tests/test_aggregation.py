"""Distribution fusion algebra: mixing, contrast, view fusion, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vps.seeds
from vps.aggregation import (
    Distribution,
    TcdConfig,
    Weights,
    argmax_token,
    mix_logits,
    mix_probs,
    ritual_combine,
    sample_token,
    softmax,
    tcd_adjust,
)
from vps.backends import ScoreResponse

from scorers import stack_of


def random_dist(rng, size):
    return Distribution.from_probs(rng.dirichlet(np.ones(size)))


class TestDistribution:
    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            Distribution.from_probs([0.5, 0.6])
        with pytest.raises(ValueError):
            Distribution.from_probs([1.2, -0.2])
        with pytest.raises(ValueError):
            Distribution.from_probs([])
        with pytest.raises(ValueError):
            Distribution([math.nan] * 3)
        with pytest.raises(ValueError):
            Distribution([math.inf, 0.0])
        for support, size in [
            ([3, 1], 5),  # unsorted
            ([1, 1], 5),  # duplicated
            ([1, 5], 5),  # past the vocabulary
            ([-1, 2], 5),  # negative
            ([1, 2, 3], 5),  # longer than the values
            ([0, 1], 0),  # empty vocabulary
            ([0, 1], None),  # no vocabulary size
            ([0.0, 1.0], 5),  # not token ids
        ]:
            with pytest.raises(ValueError):
                Distribution([0.5, 0.5], support=support, size=size)

    def test_sparse_probs_are_the_dense_vector(self):
        d = Distribution([0.25, 0.75], support=[1, 3], size=5)
        assert np.array_equal(d.probs, [0.0, 0.25, 0.0, 0.75, 0.0])
        assert d.probs is d.probs  # built once
        assert len(d) == 5

    def test_logit_construction_consistent(self):
        d = Distribution.from_logits([1.0, -2.0, 0.3])
        assert abs(d.probs.sum() - 1.0) < 1e-12
        assert np.allclose(softmax(d.raw_scores), d.probs)

    def test_logit_scores_kept_and_not_a_second_constructor_argument(self):
        z = np.array([1.0, -2.0, 0.3])
        assert np.array_equal(Distribution.from_logits(z).raw_scores, z)
        with pytest.raises(TypeError):
            Distribution(np.array([0.9, 0.1]), np.array([0.0, 0.0]))

    def test_derived_raw_scores_round_trip(self):
        d = Distribution.from_probs([0.25, 0.0, 0.75])
        assert np.array_equal(d.raw_scores, np.log(np.maximum(d.probs, 1e-300)))
        assert np.abs(softmax(d.raw_scores) - d.probs).max() < 1e-12


class TestBatchCheck:
    """A stack checks a whole matrix, row by row, by the constructor's rule."""

    GOOD = [0.25, 0.25, 0.5]

    @pytest.mark.parametrize("row", [
        [0.5, -0.1, 0.6],
        [-np.inf, 0.5, 0.5],
        [np.nan, 0.5, 0.5],
        [np.inf, 0.0, 0.0],
        [0.5, 0.5, 1e-8],
        [0.5, 0.5 - 1e-8, 0.0],
    ], ids=["negative", "minus-inf", "nan", "inf", "sum-high", "sum-low"])
    def test_each_bad_row_raises_the_constructors_error(self, row):
        with pytest.raises(ValueError) as single:
            Distribution(np.array(row))
        with pytest.raises(ValueError) as batch:
            Distribution(np.array([self.GOOD, row, self.GOOD]))
        # the error of the row alone; a sum error also names the row
        assert str(batch.value) == str(single.value).replace(", expected", " in row 1, expected")

    def test_empty_and_two_dimensional_rows(self):
        with pytest.raises(ValueError) as single:
            Distribution(np.zeros(0))
        with pytest.raises(ValueError) as batch:
            Distribution(np.zeros((3, 0)))
        assert str(batch.value) == str(single.value)
        row = np.array([self.GOOD, self.GOOD])  # a valid stack, but no row of a stack
        with pytest.raises(ValueError) as batch:
            Distribution(np.array([row, row]))
        assert str(batch.value) == str(single.value)

    def test_rows_equal_single_constructions(self):
        rng = np.random.default_rng(5)
        matrix = rng.dirichlet(np.ones(7), size=4)
        assert Distribution(matrix[:0]).values.shape == (0, 7)
        for rows in (matrix[:1], matrix):
            stack = Distribution(rows)
            for i, row in enumerate(rows):
                got, want = stack.rows(i), Distribution(row)
                assert vars(got).keys() == vars(want).keys()
                for key, value in vars(want).items():
                    if isinstance(value, np.ndarray):
                        assert np.array_equal(getattr(got, key), value), key
                    else:
                        assert getattr(got, key) == value, key
                assert got.probs is got.values and len(got) == len(want)
                assert np.shares_memory(got.values, rows)
                assert np.array_equal(got.raw_scores, want.raw_scores)


    def test_rows_at_an_index_array_equal_the_row_views(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(5, 6))
        logits[1, 2] = -np.inf
        for stack in (Distribution(rng.dirichlet(np.ones(6), size=5), flags=("topm_renormalized",)),
                      stack_of([Distribution.from_logits(z) for z in logits])):
            for index in ([4, 0, 0, 2], [1], []):
                got = stack.rows(np.array(index, dtype=np.intp))
                assert got.values.shape == (len(index), 6) and got.probs is got.values
                assert got.flags == stack.flags and len(got) == len(stack)
                for k, i in enumerate(index):
                    row, alone = got.rows(k), stack.rows(i)
                    assert row.values.tobytes() == alone.values.tobytes()
                    assert row.raw_scores.tobytes() == alone.raw_scores.tobytes()
                    assert row.flags == alone.flags


class TestWeights:
    def test_uniform(self):
        assert np.allclose(Weights.uniform(4).w, [0.25] * 4)

    def test_normalized(self):
        assert np.allclose(Weights.normalized([2, 2]).w, [0.5, 0.5])

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            Weights(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Weights(np.array([-0.5, 1.5]))


class TestMixProbs:
    def test_single_stream_identity(self):
        d = Distribution.from_probs([0.3, 0.7])
        out = mix_probs([d], Weights.uniform(1))
        assert np.array_equal(out.probs, d.probs)

    def test_single_stream_of_weight_one_is_returned_as_is(self):
        # 1.0 * p is p, so no copy is built or validated; any other weight builds one
        dense = Distribution.from_probs([0.3, 0.7])
        sparse = Distribution(np.array([0.4, 0.6]), support=np.array([1, 3]), size=5)
        for d in (dense, sparse):
            assert mix_probs([d], Weights.uniform(1)) is d
        near = mix_probs([dense], Weights(np.array([1.0 - 1e-13])))
        assert near is not dense and np.array_equal(near.probs, (1.0 - 1e-13) * dense.probs)
        with pytest.raises(ValueError):
            mix_probs([Distribution.from_probs([0.5, 0.5, 0.0]), dense], Weights(np.array([1.0, 0.0])))

    def test_symmetric_pair(self):
        out = mix_probs(
            [Distribution.from_probs([1.0, 0.0]), Distribution.from_probs([0.0, 1.0])],
            Weights.uniform(2),
        )
        assert np.array_equal(out.probs, [0.5, 0.5])

    def test_elementwise_mean_of_four(self):
        rng = np.random.default_rng(7)
        dists = [random_dist(rng, 6) for _ in range(4)]
        out = mix_probs(dists, Weights.uniform(4))
        oracle = sum(d.probs for d in dists) / 4.0
        assert np.allclose(out.probs, oracle, atol=1e-15)

    def test_identical_streams_exact_for_power_of_two(self):
        rng = np.random.default_rng(8)
        for J in (1, 2, 4, 8):
            d = random_dist(rng, 5)
            out = mix_probs([d] * J, Weights.uniform(J))
            assert np.array_equal(out.probs, d.probs)

    def test_length_mismatch(self):
        d2 = Distribution.from_probs([0.5, 0.5])
        d3 = Distribution.from_probs([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            mix_probs([d2, d3], Weights.uniform(2))
        with pytest.raises(ValueError):
            mix_probs([d2], Weights.uniform(2))

    @given(st.integers(2, 6), st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariant(self, size, J, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        dists = [random_dist(rng, size) for _ in range(J)]
        w = Weights.normalized(rng.random(J) + 1e-3)
        perm = rng.permutation(J)
        out = mix_probs(dists, w)
        out_perm = mix_probs([dists[i] for i in perm], Weights.normalized(w.w[perm]))
        assert np.allclose(out.probs, out_perm.probs, atol=1e-12)

    def test_output_normalized_on_random_fixtures(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            J = int(rng.integers(1, 9))
            size = int(rng.integers(2, 40))
            dists = [random_dist(rng, size) for _ in range(J)]
            w = Weights.normalized(rng.random(J) + 1e-6)
            out = mix_probs(dists, w)
            assert abs(out.probs.sum() - 1.0) < 1e-9
            assert (out.probs >= 0).all()


class TestMixLogits:
    def test_identical_streams_equal_input_and_prob_path(self):
        z = np.array([0.4, -1.0, 2.2, 0.0])
        dists = [Distribution.from_logits(z) for _ in range(4)]
        ml = mix_logits(dists, Weights.uniform(4))
        mp = mix_probs(dists, Weights.uniform(4))
        assert np.array_equal(ml.probs, dists[0].probs)
        assert np.array_equal(mp.probs, ml.probs)

    def test_symmetric_pair(self):
        d1 = Distribution.from_logits(np.log([0.8, 0.2]))
        d2 = Distribution.from_logits(np.log([0.2, 0.8]))
        out = mix_logits([d1, d2], Weights.uniform(2))
        assert np.allclose(out.probs, [0.5, 0.5], atol=1e-12)

    def test_geometric_mean_oracle(self):
        d1 = Distribution.from_logits(np.log([0.9, 0.1]))
        d2 = Distribution.from_logits(np.log([0.5, 0.5]))
        out = mix_logits([d1, d2], Weights.uniform(2))
        geo = np.sqrt([0.9 * 0.5, 0.1 * 0.5])
        assert np.allclose(out.probs, geo / geo.sum(), atol=1e-12)
        assert np.allclose(out.probs, [0.75, 0.25], atol=1e-12)

    def test_weighted_geometric_mean_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            size = int(rng.integers(2, 12))
            J = int(rng.integers(1, 5))
            dists = [Distribution.from_logits(rng.normal(size=size)) for _ in range(J)]
            w = Weights.normalized(rng.random(J) + 0.1)
            out = mix_logits(dists, w)
            geo = np.ones(size)
            for wj, d in zip(w.w, dists):
                geo = geo * d.probs**wj
            assert np.allclose(out.probs, geo / geo.sum(), atol=1e-10)

    def test_accepts_probability_built_streams(self):
        d1 = Distribution.from_probs([0.9, 0.1])
        d2 = Distribution.from_probs([0.5, 0.5])
        out = mix_logits([d1, d2], Weights.uniform(2))
        assert np.allclose(out.probs, [0.75, 0.25], atol=1e-12)


    def test_streams_without_a_common_token_raise(self):
        d1 = Distribution.from_logits([0.0, -math.inf, -math.inf])
        d2 = Distribution.from_logits([-math.inf, 0.0, 0.0])
        with pytest.raises(ValueError, match="share no plausible token"):
            mix_logits([d1, d2], Weights.uniform(2))


class TestTcdAdjust:
    def test_zero_strength_zero_threshold_is_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pos = random_dist(rng, int(rng.integers(2, 10)))
            neg = random_dist(rng, len(pos))
            out = tcd_adjust(pos, neg, TcdConfig(0.0, 0.0, "probability"))
            assert out is pos

    def test_worked_example(self):
        pos = Distribution.from_probs([0.7, 0.2, 0.1])
        neg = Distribution.from_probs([0.4, 0.5, 0.1])
        out = tcd_adjust(pos, neg, TcdConfig(0.5, 0.1, "probability"))
        assert np.abs(out.probs - [0.85, 0.05, 0.10]).max() < 1e-12

    def test_clamp_rule(self):
        pos = Distribution.from_probs([0.1, 0.9])
        neg = Distribution.from_probs([0.9, 0.1])
        out = tcd_adjust(pos, neg, TcdConfig(0.5, 0.0, "probability"))
        assert np.allclose(out.probs, [0.0, 1.0])

    def test_plausibility_masks_tokens(self):
        pos = Distribution.from_probs([0.90, 0.06, 0.04])
        neg = Distribution.from_probs([1 / 3, 1 / 3, 1 / 3])
        out = tcd_adjust(pos, neg, TcdConfig(0.0, 0.1, "probability"))
        assert out.probs[1] == 0.0 and out.probs[2] == 0.0
        assert out.probs[0] == 1.0

    def test_threshold_monotone_shrinks_plausible_set(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pos = random_dist(rng, 8)
            betas = sorted(rng.random(3))
            sizes = [
                int((pos.probs >= b * pos.probs.max()).sum())
                for b in betas
            ]
            assert sizes == sorted(sizes, reverse=True)

    def test_log_space_matches_power_ratio(self):
        pos = Distribution.from_probs([0.6, 0.3, 0.1])
        neg = Distribution.from_probs([0.2, 0.5, 0.3])
        a = 0.5
        out = tcd_adjust(pos, neg, TcdConfig(a, 0.0, "log"))
        expected = pos.probs ** (1 + a) / neg.probs**a
        expected /= expected.sum()
        assert np.allclose(out.probs, expected, atol=1e-12)

    def test_all_clamped_falls_back_to_positive(self):
        # contrast strong enough to wipe the whole plausible set
        pos = Distribution.from_probs([0.34, 0.33, 0.33])
        neg = Distribution.from_probs([1.0, 0.0, 0.0])
        out = tcd_adjust(pos, neg, TcdConfig(0.9, 1.0, "probability"))
        assert np.allclose(out.probs, [1.0, 0.0, 0.0])

    def test_argmax_always_plausible(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            pos = random_dist(rng, 6)
            neg = random_dist(rng, 6)
            out = tcd_adjust(pos, neg, TcdConfig(0.5, 1.0, "probability"))
            assert abs(out.probs.sum() - 1.0) < 1e-9

    def test_vocabulary_mismatch(self):
        with pytest.raises(ValueError):
            tcd_adjust(
                Distribution.from_probs([0.5, 0.5]),
                Distribution.from_probs([0.3, 0.3, 0.4]),
                TcdConfig(),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TcdConfig(contrast_strength=1.0)
        with pytest.raises(ValueError):
            TcdConfig(plausibility_threshold=1.5)
        with pytest.raises(ValueError):
            TcdConfig(space="logit")


class TestRitualCombine:
    def test_identical_views_identity(self):
        d = Distribution.from_probs([0.2, 0.8])
        assert np.array_equal(ritual_combine(d, d).probs, d.probs)

    def test_orthogonal_views(self):
        out = ritual_combine(
            Distribution.from_probs([1.0, 0.0]), Distribution.from_probs([0.0, 1.0])
        )
        assert np.array_equal(out.probs, [0.5, 0.5])

    def test_arbitrary_pair_elementwise_mean(self):
        rng = np.random.default_rng(11)
        a, b = random_dist(rng, 7), random_dist(rng, 7)
        out = ritual_combine(a, b)
        assert np.allclose(out.probs, (a.probs + b.probs) / 2, atol=1e-15)

    def test_logit_mode_uses_geometric_mean(self):
        a = Distribution.from_logits(np.log([0.9, 0.1]))
        b = Distribution.from_logits(np.log([0.5, 0.5]))
        out = ritual_combine(a, b, space="logit")
        assert np.allclose(out.probs, [0.75, 0.25], atol=1e-12)


class TestArgmaxAndSampling:
    def test_argmax(self):
        assert argmax_token(Distribution.from_probs([0.2, 0.5, 0.3])) == 1

    def test_argmax_tie_lowest_id(self):
        assert argmax_token(Distribution.from_probs([0.5, 0.5])) == 0

    def test_argmax_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = random_dist(rng, int(rng.integers(2, 20)))
            best = max(range(len(d)), key=lambda i: (d.probs[i], -i))
            assert argmax_token(d) == best

    def test_temperature_zero_is_greedy(self):
        rng = np.random.default_rng(13)
        for seed in range(50):
            d = random_dist(rng, 6)
            assert sample_token(d, 0.0, seed) == argmax_token(d)

    def test_one_hot_any_temperature(self):
        d = Distribution.from_probs([0.0, 1.0, 0.0])
        for temp in (0.0, 0.3, 1.0, 5.0):
            for seed in range(20):
                assert sample_token(d, temp, seed) == 1

    def test_zero_prob_tokens_never_sampled(self):
        d = Distribution.from_probs([0.5, 0.0, 0.5])
        for temp in (0.5, 1.0, 10.0):
            for seed in range(200):
                assert sample_token(d, temp, seed) != 1

    def test_empirical_frequencies_within_3_sigma(self):
        d = Distribution.from_probs([0.5, 0.3, 0.2])
        n = 10**5
        counts = np.zeros(3)
        for seed in range(n):
            counts[sample_token(d, 1.0, seed)] += 1
        for i, p in enumerate(d.probs):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[i] - n * p) < 3 * sigma

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            sample_token(Distribution.from_probs([1.0]), -0.1, 0)

    def test_weight_rescaling_does_not_change_argmax(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            J, size = int(rng.integers(2, 6)), int(rng.integers(2, 10))
            dists = [random_dist(rng, size) for _ in range(J)]
            raw = rng.random(J) + 0.1
            for c in (0.5, 2.0, 3.0):
                a = mix_probs(dists, Weights.normalized(raw))
                b = mix_probs(dists, Weights.normalized(c * raw))
                assert argmax_token(a) == argmax_token(b)


@st.composite
def top_m_replies(draw, size):
    """A sparse distribution from a random top-m reply over ``size`` tokens;
    weights are drawn from a few integers too, so ties and zeros occur."""
    m = draw(st.integers(1, min(30, size)))
    ids = draw(st.permutations(range(size)))[:m]
    weight = st.one_of(st.integers(0, 3).map(float), st.floats(1e-3, 3.0))
    weights = draw(st.lists(weight, min_size=m, max_size=m).filter(any))
    remainder = draw(weight)
    total = sum(weights) + remainder
    lps = sorted((math.log(w / total) if w else -math.inf for w in weights), reverse=True)
    return ScoreResponse(size, top=tuple(zip(ids, lps)), remainder=remainder / total).to_distribution()[0]


@st.composite
def streams(draw, max_streams=8):
    """Sparse streams over one vocabulary, some given densely to test mixed inputs."""
    size = draw(st.integers(1, 64))
    dists = draw(st.lists(top_m_replies(size), min_size=1, max_size=max_streams))
    return [dense(d) if draw(st.booleans()) else d for d in dists], draw(st.booleans())


def dense(d):
    return Distribution(d.probs)


def assert_same(sparse_out, dense_out):
    assert argmax_token(sparse_out) == argmax_token(dense_out)
    assert np.abs(sparse_out.probs - dense_out.probs).max() <= 1e-13


strengths = st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.99)
thresholds = st.sampled_from([0.0, 0.1, 1.0]) | st.floats(0.0, 1.0)


class TestSparseMatchesDense:
    """Every operation on the sparse form agrees with the same operation on
    its dense vector."""

    @given(st.data(), strengths, thresholds, st.sampled_from(["probability", "log"]))
    @settings(max_examples=200, deadline=None)
    def test_tcd_adjust(self, data, a, beta, space):
        size = data.draw(st.integers(1, 64))
        pos, neg = data.draw(top_m_replies(size)), data.draw(top_m_replies(size))
        cfg = TcdConfig(a, beta, space)
        reference = tcd_adjust(dense(pos), dense(neg), cfg)
        for p, n in [(pos, neg), (pos, dense(neg)), (dense(pos), neg)]:
            assert_same(tcd_adjust(p, n, cfg), reference)
        out = tcd_adjust(pos, neg, cfg)
        if a == 0.0 and beta == 0.0:
            assert out is pos
        if space == "probability":
            assert out.support is not None and set(out.support) <= set(pos.support)

    @given(streams(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_mixing(self, drawn, pyrandom):
        dists, zero_weight = drawn
        raw = [pyrandom.random() + 1e-3 for _ in dists]
        if zero_weight and len(raw) > 1:
            raw[0] = 0.0
        w = Weights.normalized(raw)
        for mix in (mix_probs, mix_logits):
            assert_same(mix(dists, w), mix([dense(d) for d in dists], w))
        if all(d.support is not None for d in dists):
            assert mix_probs(dists, w).support is not None

    @given(st.data(), st.sampled_from(["probability", "logit"]))
    @settings(max_examples=100, deadline=None)
    def test_ritual_combine(self, data, space):
        size = data.draw(st.integers(1, 64))
        a, b = data.draw(top_m_replies(size)), data.draw(top_m_replies(size))
        assert_same(ritual_combine(a, b, space), ritual_combine(dense(a), dense(b), space))

    @given(st.data(), st.sampled_from([0.0, 0.7]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_sample_token(self, data, temperature, seed):
        d = data.draw(top_m_replies(data.draw(st.integers(1, 64))))
        assert sample_token(d, temperature, seed) == sample_token(dense(d), temperature, seed)

    @pytest.mark.parametrize("J", [2, 4, 8])
    def test_identical_streams_mix_exactly(self, J):
        d = ScoreResponse(
            50, top=((7, math.log(0.5)), (3, math.log(0.3)), (41, math.log(0.15))), remainder=0.05
        ).to_distribution()[0]
        out = mix_probs([d] * J, Weights.uniform(J))
        assert np.array_equal(out.support, d.support)
        assert np.array_equal(out.values, d.values)


def reference_sample(d, temperature, seed):
    """sample_token of one distribution, by the 1-D rule written out: search
    the cdf, then step back past zero-probability tokens, with the seed's
    uniform from :mod:`vps.seeds`."""
    return reference_draw(d, temperature, vps.seeds.first_uniforms([seed])[0])


def reference_draw(d, temperature, u):
    """:func:`reference_sample` for the uniform draw ``u``."""
    q = d.probs
    if temperature != 1.0:
        q = softmax(np.where(q > 0.0, np.log(np.maximum(q, 1e-300)) / temperature, -np.inf))
    idx = min(int(np.searchsorted(np.cumsum(q), u, side="right")), len(d) - 1)
    while q[idx] == 0.0:
        idx -= 1
    return idx


def assert_rows_alone(stack, rows):
    """Row i of ``stack`` has the bits of ``rows[i]``, computed alone."""
    assert stack.values.shape[0] == len(rows)
    for i, alone in enumerate(rows):
        row = stack.rows(i)
        assert row.probs.tobytes() == alone.probs.tobytes()
        assert row.raw_scores.tobytes() == alone.raw_scores.tobytes()


class TestStacks:
    """Every function works on a stack row by row: a row gets the bits it gets alone."""

    @staticmethod
    def random_rows(rng, rows, size):
        """Dense rows, some from logits and some with zeros."""
        out = []
        for _ in range(rows):
            if rng.random() < 0.5:
                out.append(Distribution.from_logits(rng.normal(size=size) * 3))
            else:
                p = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.7)
                p[rng.integers(size)] += rng.choice([0.0, 0.5])
                out.append(Distribution.from_probs(p / p.sum()) if p.sum() else Distribution.from_probs(np.eye(size)[0]))
        return out

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 6), strengths, thresholds,
           st.sampled_from(["probability", "log"]), st.sampled_from([0.0, 0.7, 1.0, 2.0]))
    @settings(max_examples=100, deadline=None)
    def test_each_row_gets_its_own_bits(self, seed, size, rows, a, beta, space, temperature):
        rng = np.random.default_rng(seed)
        streams = [self.random_rows(rng, rows, size) for _ in range(3)]
        stacks = [stack_of(s) for s in streams]
        alone = [[s[i] for s in streams] for i in range(rows)]
        w = Weights.normalized(rng.random(3) + 0.1)
        cfg = TcdConfig(a, beta, space)
        assert_rows_alone(stacks[0], streams[0])
        for mix in (mix_probs, mix_logits):
            assert_rows_alone(mix(stacks, w), [mix(row, w) for row in alone])
        for view_space in ("probability", "logit"):
            assert_rows_alone(ritual_combine(stacks[1], stacks[2], view_space),
                              [ritual_combine(row[1], row[2], view_space) for row in alone])
        assert_rows_alone(tcd_adjust(stacks[1], stacks[2], cfg), [tcd_adjust(row[1], row[2], cfg) for row in alone])
        seeds = rng.integers(2**32, size=rows).tolist()
        want = [reference_sample(d, temperature, s) if temperature else argmax_token(d)
                for d, s in zip(streams[1], seeds)]
        assert sample_token(stacks[1], temperature, seeds) == want
        assert [sample_token(d, temperature, s) for d, s in zip(streams[1], seeds)] == want

    def test_a_stack_draws_every_row_as_one_row_does(self, monkeypatch):
        from vps import aggregation

        rng = np.random.default_rng(4)
        rows = self.random_rows(rng, 40, 6)
        # the last row's draw lies past its cdf's final step, which sums to 1 - 5e-10
        rows.append(Distribution.from_probs([0.0, 0.5, 0.0, 0.5 - 5e-10, 0.0, 0.0]))
        draws = rng.random(len(rows)).tolist()[:-1] + [np.nextafter(1.0, 0.0)]
        monkeypatch.setattr(aggregation, "first_uniforms", lambda seeds: [draws[s] for s in seeds])
        for temperature in (1.0, 0.7):
            want = [reference_draw(d, temperature, u) for d, u in zip(rows, draws)]
            assert want[-1] == 3
            assert sample_token(stack_of(rows), temperature, list(range(len(rows)))) == want
            assert [sample_token(d, temperature, k) for k, d in enumerate(rows)] == want

    def test_sparse_rows_do_not_stack(self):
        with pytest.raises(ValueError, match="integer vector"):
            Distribution([[0.5, 0.5], [0.5, 0.5]], support=[[0, 1], [1, 3]], size=5)

    def test_a_stack_refuses_bad_seeds(self):
        stack = stack_of([Distribution.from_probs([0.5, 0.5])] * 3)
        with pytest.raises(ValueError, match="2 seeds for a stack of 3 rows"):
            sample_token(stack, 1.0, [1, 2])
        with pytest.raises(ValueError, match="2 seeds for a stack of 3 rows"):
            sample_token(stack, 0.0, [None, None])
        for bad in (None, -1, -2**40):
            with pytest.raises(ValueError, match="non-negative integer"):
                sample_token(stack, 0.7, [1, bad, 2])
        assert sample_token(stack, 0.0, [None] * 3) == [0, 0, 0]  # a greedy draw needs no seed
        for bad in (None, -1):  # one row is the stack's one-row case
            with pytest.raises(ValueError, match="non-negative integer"):
                sample_token(Distribution.from_probs([0.5, 0.5]), 0.7, bad)
        assert sample_token(Distribution.from_probs([0.5, 0.5]), 0.0, None) == 0

    def test_a_draw_past_the_last_cdf_step_takes_the_last_positive_token(self, monkeypatch):
        from vps import aggregation

        top = np.nextafter(1.0, 0.0)  # above the cdf of row 0, which sums to 1 - 5e-10
        rows = [Distribution.from_probs([0.5, 0.5 - 5e-10, 0.0, 0.0]), Distribution.from_probs([0.25, 0.25, 0.5, 0.0])]
        for module in (vps.seeds, aggregation):  # the reference's draw and sample_token's
            monkeypatch.setattr(module, "first_uniforms", lambda seeds: [top] * len(seeds))
        want = [reference_sample(d, 1.0, 0) for d in rows]
        assert want == [1, 2]
        assert sample_token(stack_of(rows), 1.0, [0, 0]) == want
        assert [sample_token(d, 1.0, 0) for d in rows] == want
