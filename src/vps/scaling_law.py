"""Loss model for parallel frame-subset streams, with Monte Carlo validation.

A single stream conditioned on a partial view of the video pays the usual
capacity loss plus a systematic bias from the frames it never sees:

    stream loss  =  E + A / N**alpha + B_j

Mixing J streams whose residual errors have pairwise correlation ``rho``
contracts the capacity term while keeping the average bias:

    mixture loss =  E + (A / N**alpha) * (1 + (J - 1) * rho) / J + mean(B)

which collapses back to the single-stream law at ``rho = 1``. The simulator
below validates these second-order formulas empirically: it draws a true
token distribution per sample, perturbs it with equicorrelated zero-mean
relative errors scaled so that ``E[delta**2] = 2 A / N**alpha``, and measures
the cross-entropy excess of each stream and of their uniform mixture.

One sweep serves a whole (correlation, stream count) grid: per batch it draws
the shared and per-stream normal fields once, stream-major in the bulk dtype,
and centres them once (centring is linear, so each correlation's mix of them
is centred too). Each correlation then works through the batch in sample
chunks that one reused buffer holds, and at rho=1 with equal biases it
computes the one error every stream shares, not J copies. A batch with an
infeasible draw is redrawn in those rows and recomputed whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "ScalingParams",
    "SimSpec",
    "SimResult",
    "ScaleError",
    "FitError",
    "FitResult",
    "stream_loss",
    "vps_loss",
    "simulate_ce",
    "simulate_ce_grid",
    "fit_params",
]


class ScaleError(ValueError):
    """The perturbation scale is too large for the multiplicative construction."""


class FitError(RuntimeError):
    """The least-squares fit is degenerate or under-determined."""


@dataclass(frozen=True)
class ScalingParams:
    """Loss-model parameters: irreducible entropy, capacity term, stream biases."""

    irreducible_entropy: float
    capacity_coeff: float
    capacity_exponent: float
    model_size: float
    correlation: float
    biases: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "biases", tuple(float(b) for b in self.biases))
        if self.irreducible_entropy < 0:
            raise ValueError("irreducible_entropy must be non-negative")
        if self.capacity_coeff <= 0 or self.capacity_exponent <= 0 or self.model_size <= 0:
            raise ValueError("capacity_coeff, capacity_exponent, and model_size must be positive")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must lie in [0, 1]")
        if any(b < 0 for b in self.biases):
            raise ValueError("biases must be non-negative")

    @property
    def capacity_term(self) -> float:
        """A / N**alpha."""
        return self.capacity_coeff / self.model_size**self.capacity_exponent

    @property
    def mean_bias(self) -> float:
        return float(np.mean(self.biases)) if self.biases else 0.0

    def with_streams(self, streams: int) -> "ScalingParams":
        """Broadcast the mean bias to a J-stream bias list."""
        return ScalingParams(
            self.irreducible_entropy,
            self.capacity_coeff,
            self.capacity_exponent,
            self.model_size,
            self.correlation,
            (self.mean_bias,) * streams,
        )


def stream_loss(params: ScalingParams, stream_index: int) -> float:
    """Expected cross-entropy of one stream: E + A/N^alpha + B_j."""
    if not 0 <= stream_index < len(params.biases):
        raise ValueError(f"stream_index {stream_index} outside bias list of length {len(params.biases)}")
    return params.irreducible_entropy + params.capacity_term + params.biases[stream_index]


def _mixture_loss(irreducible_entropy, capacity_term, correlation, mean_bias, J):
    """E + C * (1 + (J-1)*rho) / J + mean(B), for scalar or array ``J``."""
    return irreducible_entropy + capacity_term * ((1.0 + (J - 1) * correlation) / J) + mean_bias


def _size_loss(irreducible_entropy, capacity_coeff, capacity_exponent, mean_bias, N):
    """E + A / N**alpha + mean(B), for scalar or array model size ``N``."""
    return irreducible_entropy + capacity_coeff / N**capacity_exponent + mean_bias


def vps_loss(params: ScalingParams, streams: int) -> float:
    """Expected cross-entropy of the J-stream uniform mixture (closed form)."""
    if len(params.biases) != streams:
        raise ValueError(f"need one bias per stream: {len(params.biases)} biases for {streams} streams")
    return _mixture_loss(
        params.irreducible_entropy, params.capacity_term, params.correlation, params.mean_bias, streams
    )


@dataclass(frozen=True)
class SimSpec:
    """Size and seed of one Monte Carlo run."""

    vocab_size: int
    samples: int
    seed: int
    params: ScalingParams

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


@dataclass(frozen=True, eq=False)
class SimResult:
    """Empirical cross-entropy excesses (CE minus the irreducible part).

    ``mixture_excess`` averages the exact conditional CE gap of the mixture
    given each draw (the label average is taken in closed form per sample, a
    standard conditional-expectation variance reduction); ``label_excess`` is
    the plain estimator from the single drawn label, kept as a cross-check.
    ``delta_sq_mean`` is the empirical second moment of the per-stream
    relative error, which the construction targets at ``2*A/N**alpha``.
    """

    streams: int
    correlation: float
    samples: int
    resampled: int
    entropy_mean: float
    mixture_excess: float
    mixture_excess_stderr: float
    label_excess: float
    label_excess_stderr: float
    stream_excess: np.ndarray
    stream_excess_stderr: np.ndarray
    delta_sq_mean: float
    delta_sq_stderr: float

    @property
    def mixture_ce(self) -> float:
        """Empirical mixture cross-entropy (irreducible part included)."""
        return self.entropy_mean + self.mixture_excess


class _Accumulator:
    """Float64 sum / sum-of-squares over per-sample values, batch by batch."""

    def __init__(self, width: int = 1) -> None:
        self.n = 0
        self.total = np.zeros(width, dtype=np.float64)
        self.total_sq = np.zeros(width, dtype=np.float64)

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        flat = v.reshape(v.shape[0], -1)
        self.n += flat.shape[0]
        self.total += flat.sum(axis=0)
        self.total_sq += np.square(flat).sum(axis=0)

    def mean(self) -> np.ndarray:
        return self.total / self.n

    def stderr(self) -> np.ndarray:
        m = self.mean()
        var = np.maximum(self.total_sq / self.n - m**2, 0.0)
        return np.sqrt(var / self.n)


def _centred_normals(rng: np.random.Generator, fields: int, p: np.ndarray) -> np.ndarray:
    """(fields, samples, V) standard normals in ``p``'s dtype, each made zero-mean under its row of ``p``."""
    z = rng.standard_normal((fields, *p.shape), dtype=p.dtype)
    z -= np.einsum("bv,kbv->kb", p, z)[:, :, None]
    return z


# samples per Monte Carlo batch; each batch has its own child seed
SIM_BATCH = 1 << 13
# most samples per pass over a batch's relative errors, sized so that the
# (J, chunk, V) buffer stays in cache
SIM_CHUNK = 1 << 9


def _mix_equicorrelated(z: np.ndarray, scale: np.ndarray, rho: float, bias: np.ndarray, out: np.ndarray) -> None:
    """``scale * (sqrt(rho)*g + sqrt(1-rho)*h) - bias`` into ``out``, for the shared
    field ``g = z[0]`` and the first ``len(out)`` per-stream fields ``h = z[1:]``."""
    np.multiply(z[1:1 + len(out)], math.sqrt(1.0 - rho) * scale, out=out)
    out += math.sqrt(rho) * scale * z[0]
    out -= bias[:len(out)]


def _simulate_grid(
    spec: SimSpec,
    streams_list: Sequence[int],
    correlations: Sequence[float],
    dtype: np.dtype = np.float64,
) -> dict[tuple[float, int], SimResult]:
    """Shared-draw sweep over (correlation, stream count) combinations.

    Each batch draws one ``(1 + max J, SIM_BATCH, V)`` array of normals in
    ``dtype``, stream-major: row 0 is the shared field g, the rest the
    per-stream fields h. They are centred under p once. Each correlation then
    runs over the batch in chunks of at most ``SIM_CHUNK`` samples: one reused
    ``(J, chunk, V)`` buffer takes ``scale * (sqrt(rho)*g + sqrt(1-rho)*h) -
    bias`` (``_mix_equicorrelated``), its feasibility check, the p-weighted
    delta^2, the mixtures, ``log1p`` and the per-stream CE in turn. Beyond the
    normals and p, a batch's working memory is that buffer (J * SIM_CHUNK * V
    values), two ``(chunk, V)`` arrays and the per-sample statistics, not one
    ``(J, batch, V)`` array per pass. At rho=1 with equal biases every
    stream's delta is the same row, which is computed once. Streams for
    smaller J are the leading subset of the largest draw, so the mixtures come
    from a running sum over the sorted stream counts. A batch with a row whose
    relative error reaches -1 is redrawn in those rows and recomputed whole:
    rejected draws never reach the (float64) accumulators. Chunks of two or
    more rows give the same bits as one pass over the batch.
    """
    params = spec.params
    js = sorted(set(int(j) for j in streams_list))
    rhos = [float(r) for r in correlations]
    if not js or js[0] < 1:
        raise ValueError("stream counts must be positive")
    jmax = js[-1]
    for rho in rhos:
        if not 0.0 <= rho <= 1.0:
            raise ValueError("correlation must lie in [0, 1]")
    biases = params.with_streams(jmax).biases if len(params.biases) < jmax else params.biases
    if any(b >= 1.0 for b in biases):
        raise ScaleError("stream biases must be < 1 for the multiplicative construction")
    cap = params.capacity_term
    dtype = np.dtype(dtype)
    bias_col = np.asarray(biases[:jmax], dtype=dtype)[:, None, None]
    # at rho=1 with equal biases every stream's delta is one row, computed once
    one_row = len(set(biases[:jmax])) == 1

    # per correlation: p-weighted delta^2, per-stream CE gap, and the mixture's
    # conditional and single-label CE gaps per stream count
    d2_acc = {rho: _Accumulator() for rho in rhos}
    stream_acc = {rho: _Accumulator(jmax) for rho in rhos}
    mix_acc = {rho: _Accumulator(len(js)) for rho in rhos}
    lab_acc = {rho: _Accumulator(len(js)) for rho in rhos}
    ent_acc = _Accumulator()

    V = spec.vocab_size
    n = spec.samples
    resampled = 0
    resample_budget = max(100, int(0.01 * n) + 100)
    n_batches = (n + SIM_BATCH - 1) // SIM_BATCH
    children = np.random.SeedSequence(spec.seed).spawn(n_batches)
    done = 0
    for child in children:
        rng = np.random.default_rng(child)
        b = min(SIM_BATCH, n - done)
        # true distribution per sample: simplex-uniform
        expo = rng.standard_exponential((b, V))
        p = expo / expo.sum(axis=1, keepdims=True)
        pd = p.astype(dtype, copy=False)
        # label drawn from p, for the plain paired estimator
        cdf = np.cumsum(p, axis=1)
        labels = np.minimum(
            (cdf < rng.random((b, 1))).sum(axis=1), V - 1
        )
        rows = np.arange(min(b, SIM_CHUNK))

        z = _centred_normals(rng, 1 + jmax, pd)
        # per-sample scale: after centering under p the p-weighted variance of
        # a unit normal field is 1 - ||p||^2, so dividing it out targets
        # E[delta^2] = 2*A/N^alpha exactly in expectation
        pnorm = 1.0 - np.einsum("bv,bv->b", pd, pd)
        scale = np.sqrt(2.0 * cap / pnorm).astype(dtype, copy=False)[:, None]
        # near-equal chunks: a one-row chunk would sum p*delta^2 in another order than its batch
        chunks = -(-b // SIM_CHUNK)
        bounds = [b * i // chunks for i in range(chunks + 1)]
        buf = np.empty(jmax * min(b, SIM_CHUNK) * V, dtype=dtype)
        dbar = np.empty((min(b, SIM_CHUNK), V), dtype=dtype)

        # resample rows where any stream's relative error would reach -1
        for _attempt in range(100):
            bad = np.zeros(b, dtype=bool)
            stats = []
            for rho in rhos:
                width = 1 if rho == 1.0 and one_row else jmax  # rows of delta
                d2 = np.empty(b, dtype=dtype)
                # einsum's (b, J) layout, whose column sums the accumulators round in
                stream = np.empty((jmax, b), dtype=dtype).T
                mix, lab = np.empty((2, b, len(js)), dtype=dtype)
                stats.append((d2, stream, mix, lab))
                for lo, hi in zip(bounds, bounds[1:]):
                    c, m = slice(lo, hi), hi - lo
                    delta = buf[: width * m * V].reshape(width, m, V)
                    _mix_equicorrelated(z[:, c], scale[c], rho, bias_col, delta)
                    bad[c] |= delta.min(axis=0).min(axis=1) <= -1.0
                    if bad.any():
                        continue  # the batch is redrawn: skip its statistics
                    pc = pd[c]
                    d2[c] = np.einsum("bv,jbv,jbv->b", pc, delta, delta) / width
                    if width == 1:  # every stream and mixture has this one row's error
                        np.log1p(delta, out=delta)
                        mix[c] = -np.einsum("bv,bv->b", pc, delta[0])[:, None]
                        lab[c] = -delta[0, rows[:m], labels[c]][:, None]
                    else:
                        running = np.zeros((m, V), dtype=dtype)
                        for k, (j0, J) in enumerate(zip([0, *js], js)):
                            running += delta[j0:J].sum(axis=0)
                            mixed = np.log1p(np.divide(running, J, out=dbar[:m]), out=dbar[:m])
                            mix[c, k] = -np.einsum("bv,bv->b", pc, mixed)
                            lab[c, k] = -mixed[rows[:m], labels[c]]
                        np.log1p(delta, out=delta)
                    stream[c] = -np.einsum("bv,jbv->bj", pc, delta)
            if not bad.any():
                break
            resampled += int(bad.sum())
            if resampled > resample_budget:
                raise ScaleError(
                    f"perturbation scale 2*A/N^alpha = {2 * cap:.3g} drives token mass "
                    f"negative in more than 1% of draws ({resampled} resampled)"
                )
            idx = np.flatnonzero(bad)
            z[:, idx] = _centred_normals(rng, 1 + jmax, pd[idx])
        else:
            raise ScaleError("could not find feasible draws; scale far too large")

        ent_acc.add(-np.einsum("bv,bv->b", p, np.log(p))[:, None])
        for rho, (d2, stream, mix, lab) in zip(rhos, stats):
            d2_acc[rho].add(d2[:, None])
            stream_acc[rho].add(stream)
            mix_acc[rho].add(mix)
            lab_acc[rho].add(lab)
        done += b

    results: dict[tuple[float, int], SimResult] = {}
    for rho in rhos:
        for k, J in enumerate(js):
            results[(rho, J)] = SimResult(
                streams=J,
                correlation=rho,
                samples=n,
                resampled=resampled,
                entropy_mean=float(ent_acc.mean()[0]),
                mixture_excess=float(mix_acc[rho].mean()[k]),
                mixture_excess_stderr=float(mix_acc[rho].stderr()[k]),
                label_excess=float(lab_acc[rho].mean()[k]),
                label_excess_stderr=float(lab_acc[rho].stderr()[k]),
                stream_excess=stream_acc[rho].mean()[:J],
                stream_excess_stderr=stream_acc[rho].stderr()[:J],
                delta_sq_mean=float(d2_acc[rho].mean()[0]),
                delta_sq_stderr=float(d2_acc[rho].stderr()[0]),
            )
    return results


def simulate_ce(spec: SimSpec, streams: int, dtype: np.dtype = np.float64) -> SimResult:
    """Monte Carlo cross-entropy of the J-stream mixture and of each stream."""
    if len(spec.params.biases) != streams:
        raise ValueError(
            f"need one bias per stream: {len(spec.params.biases)} biases for {streams} streams"
        )
    grid = _simulate_grid(spec, [streams], [spec.params.correlation], dtype=dtype)
    return grid[(spec.params.correlation, streams)]


def simulate_ce_grid(
    spec: SimSpec,
    streams_list: Sequence[int],
    correlations: Sequence[float] | None = None,
    dtype: np.dtype = np.float64,
) -> dict[tuple[float, int], SimResult]:
    """Sweep (correlation, stream count) combinations with shared draws."""
    rhos = correlations if correlations is not None else [spec.params.correlation]
    return _simulate_grid(spec, streams_list, rhos, dtype=dtype)


_STREAM_FIELDS = ("irreducible_entropy", "capacity_term", "correlation", "mean_bias")
_SIZE_FIELDS = ("irreducible_entropy", "capacity_coeff", "capacity_exponent", "mean_bias")


@dataclass(frozen=True, eq=False)
class FitResult:
    params: ScalingParams
    residuals: np.ndarray
    cost: float
    mode: str
    free: tuple[str, ...]

    def predict(self, x: float) -> float:
        p = self.params
        if self.mode == "streams":
            return _mixture_loss(p.irreducible_entropy, p.capacity_term, p.correlation, p.mean_bias, float(x))
        return _size_loss(p.irreducible_entropy, p.capacity_coeff, p.capacity_exponent, p.mean_bias, float(x))


# bounds of the fields solved linearly
_BOUNDS = {
    "irreducible_entropy": (0.0, np.inf),
    "capacity_term": (1e-300, np.inf),
    "capacity_coeff": (1e-300, np.inf),
    "correlation": (0.0, 1.0),
}


def _box_lstsq(design: np.ndarray, target: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact argmin of ||design @ c - target|| over the box lo <= c <= hi: the problem is convex, so
    the unconstrained solution if feasible, else the best solve on a face (a coordinate at a bound)."""
    sol = np.linalg.lstsq(design, target, rcond=None)[0]
    if ((lo <= sol) & (sol <= hi)).all():
        return sol
    faces = []
    for i in range(sol.size):
        rest = np.arange(sol.size) != i
        for bound in filter(np.isfinite, (lo[i], hi[i])):
            c = np.full(sol.size, bound)
            c[rest] = _box_lstsq(design[:, rest], target - bound * design[:, i], lo[rest], hi[rest])
            faces.append((np.nan_to_num(np.square(design @ c - target).sum(), nan=np.inf), c))
    return min(faces, key=lambda face: face[0])[1]


def _linear_fit(columns: Mapping[str, np.ndarray], target: np.ndarray, pinned: Mapping[str, float]) -> tuple:
    """Bounded least squares of ``target`` on ``columns`` (field -> basis vector),
    the fields in ``pinned`` held at their value: the fields and the sum of squares."""
    design = np.column_stack(list(columns.values()))
    if not np.isfinite(design).all():
        return dict.fromkeys(columns, np.nan), np.inf
    lo, hi = np.array([(pinned[f],) * 2 if f in pinned else _BOUNDS[f] for f in columns]).T
    sol = _box_lstsq(design, target, lo, hi)
    return dict(zip(columns, sol.tolist())), float(np.nan_to_num(np.square(design @ sol - target).sum(), nan=np.inf))


def _fit_streams(J: np.ndarray, y: np.ndarray, pinned: Mapping[str, float]) -> dict[str, float]:
    """Loss vs J net of the mean bias, with one of E, C and rho pinned."""
    one = np.ones_like(J)
    if "correlation" in pinned:
        rho = pinned["correlation"]
        return _linear_fit({"irreducible_entropy": one, "capacity_term": rho + (1 - rho) / J}, y, pinned)[0]
    if "capacity_term" in pinned:
        C = pinned["capacity_term"]
        return _linear_fit({"irreducible_entropy": one, "correlation": C * (1 - 1 / J)}, y - C / J, pinned)[0]
    # E pinned: linear in (C*rho, C*(1-rho)) >= 0 on the basis [1, 1/J]
    E = pinned["irreducible_entropy"]
    u, v = _box_lstsq(np.column_stack([one, 1 / J]), y - E, np.zeros(2), np.full(2, np.inf))
    C = max(float(u + v), _BOUNDS["capacity_term"][0])
    return {"capacity_term": C, "correlation": float(u / (u + v)) if u + v > 0 else 0.0}


def _fit_size(N: np.ndarray, y: np.ndarray, pinned: Mapping[str, float]) -> dict[str, float]:
    """Loss vs N net of the mean bias: linear in (E, A) for a given exponent. A free exponent
    minimises the profile cost (variable projection; Golub and Pereyra, SIAM J. Numer. Anal.
    1973): golden-section search in log space around each local minimum of a log-spaced grid."""

    def solve(alpha: float) -> tuple[dict[str, float], float]:
        with np.errstate(all="ignore"):
            return _linear_fit({"irreducible_entropy": np.ones_like(N), "capacity_coeff": N**-alpha}, y, pinned)

    if "capacity_exponent" in pinned:
        return solve(pinned["capacity_exponent"])[0]
    ts = np.linspace(-6, 2, 81) * np.log(10.0)  # log exponents on [1e-6, 100], 10 per decade
    grid = [(solve(np.exp(t))[1], t) for t in ts]
    edged = [(np.inf, 0.0), *grid, (np.inf, 0.0)]
    best = min(grid)
    g = (np.sqrt(5.0) - 1.0) / 2.0
    for i in range(ts.size):
        if edged[i + 1] < edged[i] and edged[i + 1] <= edged[i + 2]:
            lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
            for _ in range(80):  # shrinks the bracket by 0.618**80, below double precision
                c, d = ((solve(np.exp(t))[1], t) for t in (hi - g * (hi - lo), lo + g * (hi - lo)))
                best = min(best, c, d)
                lo, hi = (lo, d[1]) if c < d else (c[1], hi)
    alpha = float(np.exp(best[1]))
    return {**solve(alpha)[0], "capacity_exponent": alpha}


def fit_params(
    xs: Sequence[float],
    losses: Sequence[float],
    mode: str = "streams",
    fixed: Mapping[str, float] | None = None,
) -> FitResult:
    """Least squares of the closed-form loss against measurements, solved exactly.

    ``mode="streams"`` fits loss-vs-J; ``mode="model_size"`` fits loss-vs-N
    (free: irreducible entropy, capacity coefficient, capacity exponent).
    ``fixed`` pins the mode's fields, ``model_size``, ``capacity_exponent`` or
    ``correlation`` by name; another name, or a non-finite input, raises
    ``ValueError``. The mean bias is fixed at 0 by default because it is not
    separable from the irreducible entropy.

    The stream sweep is affine in 1/J (loss = (E + C*rho) + C*(1-rho)/J), so
    entropy, capacity term, and correlation cannot all be identified from it:
    ``mode="streams"`` requires at least one of them in ``fixed``.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(losses, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("xs and losses must be equal-length non-empty vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("xs and losses must be finite")
    if mode == "streams":
        fields, solve = _STREAM_FIELDS, _fit_streams
        if (x < 1).any():
            raise ValueError("stream counts must be >= 1")
    elif mode == "model_size":
        fields, solve = _SIZE_FIELDS, _fit_size
        if (x <= 0).any():
            raise ValueError("model sizes must be positive")
    else:
        raise ValueError(f"unknown fit mode {mode!r}")

    fixed = dict(fixed or {})
    unknown = sorted(set(fixed) - set(fields) - {"model_size", "capacity_exponent", "correlation"})
    if unknown:
        raise ValueError(f"cannot fix {', '.join(unknown)} in {mode} mode")
    fixed.setdefault("mean_bias", 0.0)
    if mode == "streams" and not {"irreducible_entropy", "capacity_term", "correlation"} & set(fixed):
        raise FitError(
            "loss vs streams is affine in 1/J; fix one of irreducible_entropy, "
            "capacity_term, or correlation to identify the rest"
        )
    free = tuple(f for f in fields if f not in fixed)
    if not free:
        raise FitError("no free parameters to fit")
    if x.size < len(free):
        raise FitError(f"{x.size} data points cannot determine {len(free)} free parameters")

    c = {"model_size": 1.0, "capacity_exponent": 1.0, "correlation": 0.0}
    c.update(solve(x, y - fixed["mean_bias"], fixed), **fixed)
    E, b = c["irreducible_entropy"], c["mean_bias"]
    with np.errstate(all="ignore"):
        if mode == "streams":
            C, rho = c["capacity_term"], c["correlation"]
            residuals = _mixture_loss(E, C, rho, b, x) - y
            slopes = {"capacity_term": rho + (1 - rho) / x, "correlation": C * (1 - 1 / x)}
            c["capacity_coeff"] = C * c["model_size"] ** c["capacity_exponent"]
        else:
            A, alpha = c["capacity_coeff"], c["capacity_exponent"]
            residuals = _size_loss(E, A, alpha, b, x) - y
            slopes = {"capacity_coeff": x**-alpha, "capacity_exponent": -A * np.log(x) * x**-alpha}
        # degeneracy: the Jacobian of the residuals in the free fields, at the solution
        jac = np.column_stack([slopes.get(f, np.ones_like(x)) for f in free])
        cond = np.linalg.cond(jac) if np.isfinite(jac).all() else np.inf
    cost = 0.5 * float(residuals @ residuals)
    if not np.isfinite(cost):
        raise FitError("fit diverged: non-finite cost")
    if not np.isfinite(cond) or cond > 1e12:
        raise FitError(f"degenerate fit: jacobian condition number {cond:.3g}")
    param_fields = ("irreducible_entropy", "capacity_coeff", "capacity_exponent", "model_size", "correlation")
    params = ScalingParams(*(float(c[f]) for f in param_fields), biases=(b,))
    return FitResult(params=params, residuals=residuals, cost=cost, mode=mode, free=free)
