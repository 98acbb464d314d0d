"""An exact-Bayes toy video world: a desk-scale stand-in for a VideoLLM.

A hidden label emits every frame symbol independently from its emission row,
so the posterior over answer tokens given any observed frame subset is
computable in closed form. That makes the benefit of showing more distinct
frames to more streams measurable and checkable without a real model.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..aggregation import Distribution
from ..views import parse_view
from . import ScoreRequest, ScoreStep

__all__ = ["ToyWorld", "ToyEpisode", "ToyBackend", "toy_posterior", "toy_episode"]

ROW_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ToyWorld:
    """Hidden labels, a row-stochastic frame emission matrix, and a prior.

    ``emission[z, s]`` is the probability that label ``z`` emits frame symbol
    ``s``. ``answer_tokens[z]`` is the vocabulary token that answers an
    episode whose hidden label is ``z``; ``vocab`` maps every token id to its
    surface text. ``log_prior`` and ``log_emission`` are their logarithms
    (``-inf`` where zero), computed once at construction.
    """

    emission: np.ndarray
    prior: np.ndarray
    answer_tokens: tuple[int, ...]
    vocab: tuple[str, ...]
    log_prior: np.ndarray = field(init=False, repr=False)
    log_emission: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        em = np.asarray(self.emission, dtype=np.float64)
        pr = np.asarray(self.prior, dtype=np.float64)
        object.__setattr__(self, "emission", em)
        object.__setattr__(self, "prior", pr)
        if em.ndim != 2:
            raise ValueError("emission must be a (labels, symbols) matrix")
        if (em < 0).any() or np.abs(em.sum(axis=1) - 1.0).max() > ROW_TOL:
            raise ValueError(f"emission rows must sum to 1 within {ROW_TOL}")
        if pr.shape != (em.shape[0],) or (pr < 0).any() or abs(pr.sum() - 1.0) > ROW_TOL:
            raise ValueError("prior must be a distribution over the labels")
        if len(self.answer_tokens) != em.shape[0]:
            raise ValueError("need one answer token per label")
        if any(not 0 <= t < len(self.vocab) for t in self.answer_tokens):
            raise ValueError("answer token outside the vocabulary")
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "log_prior", np.log(pr))
            object.__setattr__(self, "log_emission", np.log(em))

    @property
    def n_labels(self) -> int:
        return self.emission.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.emission.shape[1]

    @property
    def stop_token(self) -> int:
        return len(self.vocab) - 1

    @classmethod
    def symmetric(cls, n_labels: int, match_prob: float) -> "ToyWorld":
        """Square world: each label emits its own symbol with ``match_prob``,
        the rest uniformly. Uniform prior; options lettered A, B, C, ...
        plus a trailing end-of-answer token."""
        if n_labels < 2:
            raise ValueError("need at least two labels")
        if not 0.0 < match_prob <= 1.0:
            raise ValueError("match_prob must lie in (0, 1]")
        off = (1.0 - match_prob) / (n_labels - 1)
        emission = np.full((n_labels, n_labels), off)
        np.fill_diagonal(emission, match_prob)
        prior = np.full(n_labels, 1.0 / n_labels)
        letters = tuple(string.ascii_uppercase[:n_labels])
        return cls(emission, prior, tuple(range(n_labels)), letters + ("</s>",))


def _answer_probs(world: ToyWorld, symbols: Sequence[Sequence[int]]) -> np.ndarray:
    """Exact posterior answer-token probabilities, one row per symbol list.

    All lists are scored at once: their symbols index ``log_emission`` in one
    gather, padded to a common length with a column of ``+0.0``, and the log
    likelihoods are added to the log prior frame by frame in list order.
    Adding ``+0.0`` changes no value, so a row does not depend on the other
    lists scored with it. Every symbol must lie in ``[0, n_symbols)``; one
    equal to ``n_symbols`` would silently read the padding column.
    """
    pad = world.n_symbols  # the index of the padding column
    lengths = np.fromiter(map(len, symbols), dtype=np.intp, count=len(symbols))
    flat = np.fromiter(chain.from_iterable(symbols), dtype=np.intp, count=int(lengths.sum()))
    bad = (flat < 0) | (flat >= pad)
    if bad.any():
        raise ValueError(f"symbol {int(flat[bad.argmax()])} outside emission support")
    width = int(lengths.max(initial=0))
    index = np.full((len(symbols), width), pad, dtype=np.intp)
    index[np.arange(width) < lengths[:, None]] = flat
    gathered = np.concatenate([world.log_emission, np.zeros((world.n_labels, 1))], axis=1).T[index]
    log_post = np.repeat(world.log_prior[None, :], len(symbols), axis=0)
    for frame in range(width):
        log_post += gathered[:, frame]
    finite = np.isfinite(log_post)
    if not finite.any(axis=1).all():
        raise ValueError("observations have zero likelihood under every label (inconsistent world)")
    post = np.exp(log_post - np.where(finite, log_post, -np.inf).max(axis=1, keepdims=True))
    post[~finite] = 0.0
    post /= post.sum(axis=1, keepdims=True)
    probs = np.zeros((len(symbols), len(world.vocab)))
    for z, token in enumerate(world.answer_tokens):
        probs[:, token] += post[:, z]
    return probs


def toy_posterior(world: ToyWorld, observed: Sequence[tuple[int, int]]) -> Distribution:
    """Exact Bayes posterior over answer tokens given (slot, symbol) pairs.

    Frames are conditionally independent given the label, so slots only
    matter for bookkeeping. Raises if the observations have zero likelihood
    under every label.
    """
    return Distribution(_answer_probs(world, [[symbol for _slot, symbol in observed]])[0])


@dataclass(frozen=True)
class ToyEpisode:
    """One generated episode: hidden label, frames, and its question record."""

    label: int
    frames: tuple[int, ...]
    video_ref: str
    question: str
    options: tuple[str, ...]
    answer_letter: str


def toy_episode(world: ToyWorld, total_frames: int, seed: int) -> ToyEpisode:
    """Sample a label from the prior, then ``total_frames`` iid frame symbols."""
    if total_frames < 1:
        raise ValueError("total_frames must be positive")
    rng = np.random.default_rng(seed)
    label = int(np.searchsorted(np.cumsum(world.prior), rng.random(), side="right"))
    label = min(label, world.n_labels - 1)
    cdf = np.cumsum(world.emission[label])
    frames = np.searchsorted(cdf, rng.random(total_frames), side="right")
    frames = np.minimum(frames, world.n_symbols - 1)
    letters = string.ascii_uppercase
    options = tuple(f"label {letters[z]}" for z in range(world.n_labels))
    return ToyEpisode(
        label=label,
        frames=tuple(int(f) for f in frames),
        video_ref=f"toy:{seed}",
        question="Which hidden label generated the video?",
        options=options,
        answer_letter=letters[label],
    )


def _then_raise(replies: list[Distribution], exc: Exception) -> Iterator[Distribution]:
    yield from replies
    raise exc


class ToyBackend:
    """Scores requests against registered episodes with the exact posterior.

    View handling: ``zero:...`` drops the masked frames from the observation
    (the negative stream sees strictly less evidence). ``aug:<tag>`` scores
    exactly as the identity view: it stands for a label-preserving
    augmentation that the model recognises, i.e. a symbol permutation applied
    to the frames and to the emission columns alike, and that leaves every
    log-likelihood, hence the posterior, unchanged. Once an answer token has
    been generated the backend emits the stop token. ``score``, one query's
    ``score_batch``, is a convenience that no decode calls.
    """

    def __init__(self, world: ToyWorld) -> None:
        self.world = world
        self._episodes: dict[str, ToyEpisode] = {}

    def add_episode(self, episode: ToyEpisode) -> str:
        self._episodes[episode.video_ref] = episode
        return episode.video_ref

    def score_batch(self, steps: Sequence[ScoreStep], jobs: int = 1) -> Iterable[Distribution]:
        """Score every query of the round with one gather-and-sum and one check of
        all its probabilities; ``jobs`` is ignored. At the first query of an
        unknown video, with a bad view or with a frame outside its episode, it
        returns instead an iterator over the rows before that query, which then
        raises the query's error."""
        queries = [(step, query) for step in steps for query in step.queries]
        probs = np.zeros((len(queries), len(self.world.vocab)))
        rows, symbols = [], []
        for i, (step, (frame_set, view)) in enumerate(queries):
            if step.generated:
                probs[i, self.world.stop_token] = 1.0
                continue
            try:
                kind, payload = parse_view(view)
                frames = self._episodes[step.video_ref].frames
                symbols.append([frames[t] for t in frame_set if kind != "zero" or t not in payload])
            except (KeyError, ValueError, IndexError) as exc:
                return _then_raise(self._rows(probs[:i], rows, symbols), exc)
            rows.append(i)
        return self._rows(probs, rows, symbols)

    def _rows(self, probs: np.ndarray, rows: list[int], symbols: list[list[int]]) -> list[Distribution]:
        probs[rows] = _answer_probs(self.world, symbols)
        return Distribution.from_rows(probs)

    def score(self, req: ScoreRequest) -> Distribution:
        return next(iter(self.score_batch([ScoreStep.of(req)])))

    def token_text(self, token: int) -> str:
        return self.world.vocab[token]
