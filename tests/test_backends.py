"""Mock backend, toy world posteriors/episodes, and response conversion."""

import math

import numpy as np
import pytest

from vps.aggregation import Distribution, Weights, argmax_token, mix_probs
from vps.backends import FixtureMissError, MockBackend, ScoreRequest, ScoreResponse, ScoreStep
from vps.backends.toyworld import ToyBackend, ToyEpisode, ToyWorld, toy_episode, toy_posterior
from vps.eval_harness import RITUAL_TAG_POOL

from scorers import score_one


def req(frame_set=(0, 16, 32, 48), view="identity", generated=(), video_ref="v", top_m=None):
    return ScoreRequest(video_ref, frame_set, view, "prompt", generated, top_m)


class TestScoreRequest:
    def test_rejects_descending_frames(self):
        with pytest.raises(ValueError):
            req(frame_set=(5, 3))

    def test_rejects_bad_top_m(self):
        with pytest.raises(ValueError):
            req(top_m=0)


class TestMockBackend:
    def test_returns_fixture_verbatim(self):
        d = Distribution.from_probs([0.1, 0.9])
        backend = MockBackend({((0, 16, 32, 48), "identity", ()): d})
        assert score_one(backend, req()) is d

    def test_missing_key_names_it(self):
        backend = MockBackend({})
        with pytest.raises(FixtureMissError) as err:
            score_one(backend, req(frame_set=(1, 2)))
        assert "(1, 2)" in str(err.value)

    def test_missing_fixture_raises_at_its_query(self):
        d = Distribution.from_probs([0.1, 0.9])
        backend = MockBackend({((0,), "identity", ()): d})
        step = ScoreStep("v", "prompt", (), None, (((0,), "identity"), ((1,), "identity"), ((0,), "identity")))
        replies = backend.score_batch([step])
        assert next(replies) is d
        with pytest.raises(FixtureMissError, match=r"\(1,\)"):
            next(replies)

    def test_complementary_evidence_scenario(self):
        # four streams, each putting 0.4 on a different wrong option and 0.3
        # on the truth: no single stream is right but their mixture is
        truth, wrong = 0, [1, 2, 3, 4]
        dists = []
        for w in wrong:
            probs = np.full(5, 0.1)
            probs[truth] = 0.3
            probs[w] = 0.4
            dists.append(Distribution.from_probs(probs))
        for d in dists:
            assert argmax_token(d) != truth
        mixed = mix_probs(dists, Weights.uniform(4))
        assert argmax_token(mixed) == truth
        assert np.allclose(mixed.probs, [0.3, 0.175, 0.175, 0.175, 0.175])


class TestScoreResponse:
    def test_full_scores_to_distribution(self):
        resp = ScoreResponse(3, scores=(0.0, 1.0, -1.0))
        dist, flags = resp.to_distribution()
        assert flags == ()
        expected = np.exp([0.0, 1.0, -1.0])
        assert np.allclose(dist.probs, expected / expected.sum())

    def test_top_pairs_renormalize(self):
        resp = ScoreResponse(
            4, top=((0, math.log(0.6)), (1, math.log(0.3))), remainder=0.1
        )
        dist, flags = resp.to_distribution()
        assert "topm_renormalized" in flags
        assert np.allclose(dist.probs, [2 / 3, 1 / 3, 0.0, 0.0])

    def test_conversion_preserves_reported_order(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(8))
            order = np.argsort(-probs)[:3]
            pairs = tuple((int(i), float(np.log(probs[i]))) for i in order)
            resp = ScoreResponse(8, top=pairs, remainder=float(1 - probs[order].sum()))
            dist, _ = resp.to_distribution()
            ranked = np.argsort(-dist.probs, kind="stable")[:3]
            assert list(ranked) == list(order)

    def test_conversion_runs_once(self):
        for resp in (ScoreResponse(3, scores=(0.0, 1.0, -1.0)), ScoreResponse(4, top=((2, -0.5),), remainder=0.4)):
            assert resp.to_distribution()[0] is resp.to_distribution()[0]

    def test_rejects_unsorted_top(self):
        with pytest.raises(ValueError):
            ScoreResponse(3, top=((0, -2.0), (1, -1.0)), remainder=0.5)

    def test_rejects_both_or_neither(self):
        with pytest.raises(ValueError):
            ScoreResponse(2, scores=(0.0, 0.0), top=((0, -1.0),), remainder=0.5)
        with pytest.raises(ValueError):
            ScoreResponse(2)

    def test_rejects_nonfinite_full_scores(self):
        with pytest.raises(ValueError):
            ScoreResponse(2, scores=(0.0, float("inf")))


class TestToyPosterior:
    def test_no_observations_returns_prior(self):
        world = ToyWorld.symmetric(4, 0.55)
        post = toy_posterior(world, [])
        assert np.allclose(post.probs[:4], [0.25] * 4)

    def test_two_matching_symbols(self):
        world = ToyWorld.symmetric(2, 0.8)
        post = toy_posterior(world, [(0, 0), (5, 0)])
        assert np.allclose(post.probs[:2], [0.64 / 0.68, 0.04 / 0.68], atol=1e-12)

    def test_symmetric_split_observations(self):
        world = ToyWorld.symmetric(2, 0.8)
        post = toy_posterior(world, [(0, 0), (1, 1)])
        assert np.allclose(post.probs[:2], [0.5, 0.5])

    def test_zero_likelihood_raises(self):
        world = ToyWorld(
            emission=np.array([[1.0, 0.0], [0.0, 1.0]]),
            prior=np.array([1.0, 0.0]),
            answer_tokens=(0, 1),
            vocab=("A", "B", "</s>"),
        )
        # label 0 never emits symbol 1 and label 1 has zero prior
        with pytest.raises(ValueError, match="inconsistent"):
            toy_posterior(world, [(0, 1)])

    # symmetric(4, .) has 4 symbols, and 4 is also the index of the gather's +0.0 padding column
    @pytest.mark.parametrize("symbol", [-1, 4])
    def test_symbol_outside_support_raises(self, symbol):
        world = ToyWorld.symmetric(4, 0.7)
        with pytest.raises(ValueError, match=f"^symbol {symbol} outside emission support$"):
            toy_posterior(world, [(0, 1), (1, symbol)])
        backend = ToyBackend(world)
        # the episode is refused before any round scores it, and is not registered
        with pytest.raises(ValueError, match=f"^symbol {symbol} outside emission support$"):
            backend.add_episode(ToyEpisode(0, (1, symbol, 2), "bad", "q", ("label A",), "A"))
        with pytest.raises(KeyError):
            next(iter(backend.score_batch([ScoreStep.of(req(frame_set=(0, 2), video_ref="bad"))])))

    def test_error_names_the_first_bad_symbol_in_query_order(self):
        world = ToyWorld.symmetric(4, 0.7)
        with pytest.raises(ValueError, match="^symbol 4 "):
            toy_posterior(world, [(0, 1), (1, 4), (2, -1)])
        backend = ToyBackend(world)
        with pytest.raises(ValueError, match="^symbol 4 "):
            backend.add_episode(ToyEpisode(0, (1, 4, -1), "bad", "q", ("label A",), "A"))
        # scoring checks the symbols again, for an episode registered around add_episode
        backend._episodes["bad"] = ToyEpisode(0, (1, 4, -1), "bad", "q", ("label A",), "A")
        negative, padding = (ScoreStep.of(req(frame_set=frames, video_ref="bad")) for frames in ((0, 2), (1,)))
        with pytest.raises(ValueError, match="^symbol -1 "):
            backend.score_batch([negative, padding])
        with pytest.raises(ValueError, match="^symbol 4 "):
            backend.score_batch([padding, negative])

    @pytest.mark.parametrize("frames, first", [((0, 3, 7, -2, 9), 7), ((3, -2, 0, 7), -2), ((4,) * 5, 4)])
    def test_add_episode_names_the_first_bad_symbol_of_many(self, frames, first):
        backend = ToyBackend(ToyWorld.symmetric(4, 0.7))
        with pytest.raises(ValueError, match=f"^symbol {first} outside emission support$"):
            backend.add_episode(ToyEpisode(0, frames, "bad", "q", ("label A",), "A"))
        assert backend.add_episode(ToyEpisode(0, (0, 3, 1), "good", "q", ("label A",), "A")) == "good"

    def test_toy_episode_frames_are_python_ints(self):
        episode = toy_episode(ToyWorld.symmetric(4, 0.7), 16, 3)
        assert all(type(f) is int and 0 <= f < 4 for f in episode.frames)

    def test_information_monotonicity(self):
        # expected log-loss with more observed frames is no worse
        world = ToyWorld.symmetric(4, 0.55)
        rng = np.random.default_rng(42)
        losses = {m: [] for m in (1, 4, 8)}
        for _ in range(10_000):
            label = int(rng.integers(4))
            frames = rng.choice(4, size=8, p=world.emission[label])
            for m in losses:
                post = toy_posterior(world, [(i, int(frames[i])) for i in range(m)])
                losses[m].append(-math.log(max(post.probs[label], 1e-300)))
        mean = {m: float(np.mean(v)) for m, v in losses.items()}
        assert mean[4] <= mean[1] and mean[8] <= mean[4]


class TestToyEpisode:
    def test_identity_emission_repeats_label(self):
        world = ToyWorld(
            emission=np.eye(3),
            prior=np.full(3, 1 / 3),
            answer_tokens=(0, 1, 2),
            vocab=("A", "B", "C", "</s>"),
        )
        ep = toy_episode(world, 16, seed=3)
        assert set(ep.frames) == {ep.label}

    def test_same_seed_same_episode(self):
        world = ToyWorld.symmetric(4, 0.55)
        assert toy_episode(world, 32, seed=9) == toy_episode(world, 32, seed=9)

    def test_empirical_frame_frequencies(self):
        world = ToyWorld.symmetric(3, 0.6)
        counts = np.zeros(3)
        n = 10_000
        hits = 0
        for seed in range(200):
            ep = toy_episode(world, n // 200, seed=seed)
            if ep.label != 0:
                continue
            hits += len(ep.frames)
            for f in ep.frames:
                counts[f] += 1
        freq = counts / hits
        for s in range(3):
            p = world.emission[0, s]
            sigma = math.sqrt(p * (1 - p) / hits)
            assert abs(freq[s] - p) < 3 * sigma


class TestToyBackend:
    def setup_method(self):
        self.world = ToyWorld.symmetric(4, 0.7)
        self.backend = ToyBackend(self.world)
        self.episode = toy_episode(self.world, 16, seed=21)
        self.backend.add_episode(self.episode)

    def test_identity_scoring_matches_direct_posterior(self):
        frame_set = (0, 4, 8, 12)
        out = self.backend.score(req(frame_set=frame_set, video_ref=self.episode.video_ref))
        direct = toy_posterior(
            self.world, [(t, self.episode.frames[t]) for t in frame_set]
        )
        assert np.allclose(out.probs, direct.probs)

    def test_zero_view_drops_frames(self):
        out = self.backend.score(
            req(frame_set=(0, 4, 8, 12), view="zero:4,12", video_ref=self.episode.video_ref)
        )
        direct = toy_posterior(
            self.world, [(t, self.episode.frames[t]) for t in (0, 8)]
        )
        assert np.allclose(out.probs, direct.probs)

    def test_augmented_view_preserves_posterior(self):
        identity = self.backend.score(req(frame_set=(0, 4), video_ref=self.episode.video_ref))
        augmented = self.backend.score(
            req(frame_set=(0, 4), view="aug:hflip", video_ref=self.episode.video_ref)
        )
        assert np.allclose(identity.probs, augmented.probs, atol=1e-12)

    def test_augmented_views_score_exactly_like_identity(self):
        # distinct emission entries, so a wrong column permutation shows
        emission = np.random.default_rng(3).dirichlet(np.ones(6), size=3)
        emission /= emission.sum(axis=1, keepdims=True)
        world = ToyWorld(emission, np.array([0.5, 0.3, 0.2]), (0, 1, 2), ("A", "B", "C", "</s>"))
        backend = ToyBackend(world)
        episode = toy_episode(world, 16, seed=4)
        backend.add_episode(episode)
        frame_set = (0, 3, 5, 9, 14)
        identity = backend.score(req(frame_set=frame_set, video_ref=episode.video_ref))
        for tag in RITUAL_TAG_POOL:
            augmented = backend.score(req(frame_set=frame_set, view=f"aug:{tag}", video_ref=episode.video_ref))
            assert np.array_equal(augmented.probs, identity.probs), tag

    def test_emits_stop_after_answer(self):
        out = self.backend.score(
            req(frame_set=(0,), generated=(2,), video_ref=self.episode.video_ref)
        )
        assert out.probs[self.world.stop_token] == 1.0

    def test_token_text(self):
        assert self.backend.token_text(0) == "A"
        assert self.backend.token_text(self.world.stop_token) == "</s>"
