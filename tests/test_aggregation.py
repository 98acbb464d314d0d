"""Distribution fusion algebra: mixing, contrast, view fusion, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
