"""Closed-form losses, the Monte Carlo validator, and curve fitting."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from vps import scaling_law
from vps.scaling_law import (
    FitError,
    ScaleError,
    ScalingParams,
    SimResult,
    SimSpec,
    fit_params,
    simulate_ce,
    simulate_ce_grid,
    stream_loss,
    vps_loss,
)


def params_with(b=(0.0,), rho=0.0, E=0.0, A=1e-3, alpha=1.0, N=1.0):
    return ScalingParams(
        irreducible_entropy=E,
        capacity_coeff=A,
        capacity_exponent=alpha,
        model_size=N,
        correlation=rho,
        biases=tuple(b),
    )


class TestClosedForms:
    def test_stream_loss_plain_law_when_unbiased(self):
        p = params_with(b=(0.0,), E=2.0, A=1.0, alpha=1.0, N=10.0)
        assert stream_loss(p, 0) == pytest.approx(2.1)

    def test_stream_loss_worked_example(self):
        p = params_with(b=(0.1,), E=2.0, A=1.0, alpha=1.0, N=10.0)
        assert stream_loss(p, 0) == pytest.approx(2.2)

    def test_stream_loss_monotone_in_bias(self):
        biases = (0.0, 0.05, 0.1, 0.4)
        p = params_with(b=biases, E=1.0, A=0.5, alpha=0.8, N=4.0)
        losses = [stream_loss(p, j) for j in range(4)]
        assert losses == sorted(losses)

    def test_vps_loss_worked_example(self):
        p = params_with(b=(0.1,) * 4, rho=0.0, E=2.0, A=0.4, alpha=1.0, N=1.0)
        assert vps_loss(p, 4) == pytest.approx(2.2)

    def test_full_correlation_degrades_to_single_stream(self):
        for J in (1, 2, 4, 8):
            p = params_with(b=(0.07,) * J, rho=1.0, E=1.5, A=2.0, alpha=0.5, N=16.0)
            assert vps_loss(p, J) == pytest.approx(stream_loss(p, 0))

    def test_single_stream_equals_stream_loss(self):
        p = params_with(b=(0.03,), rho=0.4, E=0.5)
        assert vps_loss(p, 1) == pytest.approx(stream_loss(p, 0))

    def test_non_increasing_in_streams_when_uncorrelated(self):
        losses = [
            vps_loss(params_with(b=(0.1,) * J, rho=0.25, E=1.0, A=0.2), J)
            for J in (1, 2, 3, 4, 8, 16)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))

    def test_constant_in_streams_at_full_correlation(self):
        losses = [
            vps_loss(params_with(b=(0.1,) * J, rho=1.0, E=1.0, A=0.2), J)
            for J in (1, 2, 4, 8)
        ]
        assert np.allclose(losses, losses[0])

    def test_floor_is_entropy_plus_bias(self):
        for J in (1, 2, 8, 64):
            p = params_with(b=(0.2,) * J, rho=0.0, E=3.0, A=5.0, alpha=0.5, N=2.0)
            assert vps_loss(p, J) >= 3.0 + 0.2

    def test_bias_list_must_match_streams(self):
        with pytest.raises(ValueError):
            vps_loss(params_with(b=(0.1, 0.1)), 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            params_with(E=-1.0)
        with pytest.raises(ValueError):
            params_with(rho=1.5)
        with pytest.raises(ValueError):
            params_with(b=(-0.1,))
        with pytest.raises(ValueError):
            params_with(A=0.0)


def equicorrelated_normals(rng, samples, streams, correlation):
    """(samples, streams) draws of the sweep's field mix at unit scale and zero bias."""
    z = rng.standard_normal((1 + streams, samples))
    out = np.empty((streams, samples))
    scaling_law._mix_equicorrelated(z, np.ones(samples), correlation, np.zeros((streams, 1)), out)
    return out.T


class TestEquicorrelatedGenerator:
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.7, 1.0])
    def test_sample_correlation_within_3_stderr(self, rho):
        rng = np.random.default_rng(17)
        n, J = 40_000, 4
        eps = equicorrelated_normals(rng, n, J, rho)
        corrs = []
        for i in range(J):
            for j in range(i + 1, J):
                corrs.append(float(np.corrcoef(eps[:, i], eps[:, j])[0, 1]))
        stderr = (1 - rho**2) / np.sqrt(n) + 1e-12
        assert abs(np.mean(corrs) - rho) < 3 * stderr

    def test_unit_variance(self):
        rng = np.random.default_rng(18)
        eps = equicorrelated_normals(rng, 50_000, 3, 0.5)
        assert np.allclose(eps.var(axis=0), 1.0, atol=0.05)

    def test_rejects_bad_correlation(self):
        with pytest.raises(ValueError):
            equicorrelated_normals(np.random.default_rng(0), 10, 2, 1.5)


class TestSimulate:
    def test_uncorrelated_mixture_contracts_capacity_term(self):
        spec = SimSpec(64, 100_000, 7, params_with(b=(0.0,) * 4, rho=0.0))
        res = simulate_ce(spec, 4)
        assert res.resampled == 0
        assert res.mixture_excess == pytest.approx(1e-3 / 4, rel=0.05)
        assert np.allclose(res.stream_excess, 1e-3, rtol=0.05)

    def test_full_correlation_matches_single_stream(self):
        spec = SimSpec(64, 50_000, 11, params_with(b=(0.0,) * 4, rho=1.0))
        res = simulate_ce(spec, 4)
        # perfectly correlated streams add nothing: mixture equals any stream
        assert abs(res.mixture_excess - res.stream_excess[0]) < 3 * (
            res.mixture_excess_stderr + res.stream_excess_stderr[0]
        ) + 1e-12
        assert res.mixture_excess == pytest.approx(1e-3, rel=0.05)

    def test_second_moment_matches_target(self):
        spec = SimSpec(64, 100_000, 13, params_with(b=(0.0,) * 2, rho=0.5))
        res = simulate_ce(spec, 2)
        assert abs(res.delta_sq_mean - 2e-3) < 3 * res.delta_sq_stderr

    def test_label_estimator_agrees_with_conditional(self):
        spec = SimSpec(32, 200_000, 3, params_with(b=(0.0,) * 4, rho=0.0))
        res = simulate_ce(spec, 4)
        gap = abs(res.label_excess - res.mixture_excess)
        assert gap < 3 * (res.label_excess_stderr + res.mixture_excess_stderr)

    def test_bias_shifts_stream_and_mixture_loss(self):
        # small biases: the closed form is first-order in B (O(B^2) dropped)
        spec = SimSpec(64, 60_000, 5, params_with(b=(0.01, 0.02), rho=0.0))
        res = simulate_ce(spec, 2)
        assert res.stream_excess[0] == pytest.approx(1e-3 + 0.01, rel=0.05)
        assert res.stream_excess[1] == pytest.approx(1e-3 + 0.02, rel=0.05)
        assert res.mixture_excess == pytest.approx(1e-3 / 2 + 0.015, rel=0.05)

    def test_deterministic_given_seed(self):
        spec = SimSpec(16, 20_000, 23, params_with(b=(0.0,) * 2, rho=0.3))
        a = simulate_ce(spec, 2)
        b = simulate_ce(spec, 2)
        assert a.mixture_excess == b.mixture_excess
        assert np.array_equal(a.stream_excess, b.stream_excess)

    def test_grid_shares_samples_consistently(self):
        spec = SimSpec(32, 30_000, 29, params_with(b=(0.0,) * 8, rho=0.0))
        grid = simulate_ce_grid(spec, [1, 2, 4, 8], [0.0, 1.0])
        assert set(grid) == {(r, J) for r in (0.0, 1.0) for J in (1, 2, 4, 8)}
        # nested streams: larger mixtures must contract the excess
        ex = [grid[(0.0, J)].mixture_excess for J in (1, 2, 4, 8)]
        assert ex[0] > ex[1] > ex[2] > ex[3]

    def test_mixture_ce_includes_entropy(self):
        spec = SimSpec(64, 20_000, 31, params_with(b=(0.0,), rho=0.0))
        res = simulate_ce(spec, 1)
        assert res.mixture_ce == pytest.approx(res.entropy_mean + res.mixture_excess)
        # Dirichlet(1) over 64 tokens has entropy near harmonic(64)-1+digamma terms;
        # just sanity-check the magnitude
        assert 3.0 < res.entropy_mean < 4.2

    def test_infeasible_scale_raises(self):
        spec = SimSpec(8, 50_000, 37, params_with(b=(0.0,), A=0.5))
        with pytest.raises(ScaleError):
            simulate_ce(spec, 1)

    def test_bias_at_or_above_one_rejected(self):
        spec = SimSpec(8, 1_000, 39, params_with(b=(1.0,)))
        with pytest.raises(ScaleError):
            simulate_ce(spec, 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(1, 100, 0, params_with())
        with pytest.raises(ValueError):
            SimSpec(8, 0, 0, params_with())
        with pytest.raises(ValueError):
            simulate_ce(SimSpec(8, 10, 0, params_with(b=(0.0, 0.0))), 1)


def assert_same_result(a: SimResult, b: SimResult) -> None:
    for field in dataclasses.fields(SimResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.array_equal(x, y), field.name


class TestSweep:
    """The stream-major sweep: shared draws, running stream sums, batch redraws."""

    def test_unsorted_duplicate_streams_match_sorted(self):
        spec = SimSpec(16, 5_000, 43, params_with(b=(0.0,) * 8))
        messy = simulate_ce_grid(spec, [8, 2, 1, 4, 2], [0.0, 0.5])
        tidy = simulate_ce_grid(spec, [1, 2, 4, 8], [0.0, 0.5])
        assert messy.keys() == tidy.keys()
        for key in tidy:
            assert_same_result(messy[key], tidy[key])

    def test_rejects_stream_counts_below_one(self):
        spec = SimSpec(8, 100, 0, params_with(b=(0.0,) * 2))
        for streams in ([0, 2], [-1, 2], []):
            with pytest.raises(ValueError, match="stream counts must be positive"):
                simulate_ce_grid(spec, streams)

    def test_full_correlation_mixture_is_the_stream_mean(self):
        # at rho=1 with no bias every stream carries the same error, so each
        # J's mixture equals its streams: a wrong divisor or slice shows here
        spec = SimSpec(32, 10_000, 47, params_with(b=(0.0,) * 8))
        grid = simulate_ce_grid(spec, [1, 2, 3, 5, 8], [1.0])
        for J in (1, 2, 3, 5, 8):
            res = grid[(1.0, J)]
            assert res.mixture_excess == pytest.approx(res.stream_excess.mean(), rel=1e-9, abs=0)

    def test_redraws_near_the_feasibility_edge(self):
        spec = SimSpec(8, 50_000, 41, params_with(b=(0.0,) * 4, A=0.02))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = simulate_ce_grid(spec, [1, 2, 4], [0.0, 0.5, 1.0])
            second = simulate_ce_grid(spec, [1, 2, 4], [0.0, 0.5, 1.0])
        budget = 100 + int(0.01 * spec.samples)
        for key, res in first.items():
            assert 0 < res.resampled <= budget
            assert np.isfinite([res.mixture_excess, res.label_excess, res.delta_sq_mean]).all()
            assert np.isfinite(res.stream_excess).all()
            assert_same_result(res, second[key])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch, dtype):
        # one chunk per batch is the unchunked sweep; 7 and 100 divide none of these batches, and
        # the edge spec redraws rows, so a chunk's skipped statistics must not leak into the result
        default = scaling_law.SIM_CHUNK
        specs = [
            SimSpec(16, scaling_law.SIM_BATCH + 302, 59, params_with(b=(0.0,) * 4)),
            SimSpec(8, 10_000, 41, params_with(b=(0.0,) * 4, A=0.02)),
            SimSpec(16, 3_001, 61, params_with(b=(0.01, 0.02, 0.04, 0.03))),
        ]
        for spec in specs:
            monkeypatch.setattr(scaling_law, "SIM_CHUNK", scaling_law.SIM_BATCH)
            whole = simulate_ce_grid(spec, [1, 2, 4], [0.0, 0.5, 1.0], dtype=dtype)
            for chunk in (7, 100, default):
                monkeypatch.setattr(scaling_law, "SIM_CHUNK", chunk)
                chunked = simulate_ce_grid(spec, [1, 2, 4], [0.0, 0.5, 1.0], dtype=dtype)
                for key, res in whole.items():
                    assert_same_result(chunked[key], res)
            assert (whole[(0.0, 1)].resampled > 0) == (spec.seed == 41)

    def test_mc_grid_peak_memory(self):
        # the benchmark's mc-grid shape; a (J, batch, V) array per pass peaks near 58 MiB
        spec = SimSpec(64, scaling_law.SIM_BATCH, 1, params_with(b=(0.0,) * 8))
        tracemalloc.start()
        try:
            simulate_ce_grid(spec, [1, 2, 4, 8], [0.0, 0.5, 1.0], dtype=np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_float32_agrees_with_float64(self):
        spec = SimSpec(64, 40_000, 53, params_with(b=(0.0,) * 4))
        single = simulate_ce_grid(spec, [1, 2, 4], [0.0, 0.5, 1.0], dtype=np.float32)
        double = simulate_ce_grid(spec, [1, 2, 4], [0.0, 0.5, 1.0], dtype=np.float64)
        for key, a in single.items():
            b = double[key]
            for name in ("mixture_excess", "label_excess", "delta_sq_mean", "stream_excess"):
                se = name.replace("_mean", "") + "_stderr"
                gap = np.abs(getattr(a, name) - getattr(b, name))
                assert (gap < 3 * (getattr(a, se) + getattr(b, se))).all(), (key, name)


class TestFit:
    def test_zero_noise_round_trip(self):
        true = params_with(b=(0.0,) * 8, rho=0.35, E=2.0, A=0.5, alpha=1.0, N=1.0)
        js = [1, 2, 3, 4, 6, 8]
        losses = [vps_loss(true.with_streams(J), J) for J in js]
        result = fit_params(js, losses, mode="streams", fixed={"irreducible_entropy": 2.0})
        p = result.params
        assert p.irreducible_entropy == pytest.approx(2.0, rel=1e-6)
        assert p.capacity_term == pytest.approx(0.5, rel=1e-6)
        assert p.correlation == pytest.approx(0.35, rel=1e-6)
        assert np.abs(result.residuals).max() < 1e-9

    def test_zero_noise_round_trip_with_known_capacity(self):
        true = params_with(b=(0.0,) * 8, rho=0.35, E=2.0, A=0.5, alpha=1.0, N=1.0)
        js = [1, 2, 3, 4, 6, 8]
        losses = [vps_loss(true.with_streams(J), J) for J in js]
        result = fit_params(js, losses, mode="streams", fixed={"capacity_term": 0.5})
        p = result.params
        assert p.irreducible_entropy == pytest.approx(2.0, rel=1e-6)
        assert p.correlation == pytest.approx(0.35, rel=1e-6)

    def test_all_three_free_is_under_determined(self):
        true = params_with(b=(0.0,) * 8, rho=0.35, E=2.0, A=0.5)
        js = [1, 2, 3, 4, 6, 8]
        losses = [vps_loss(true.with_streams(J), J) for J in js]
        with pytest.raises(FitError, match="affine"):
            fit_params(js, losses, mode="streams")

    def test_zero_noise_model_size_round_trip(self):
        true = params_with(b=(0.0,), rho=0.0, E=1.7, A=400.0, alpha=0.42, N=1.0)
        ns = [1e6, 3e6, 1e7, 3e7, 1e8, 1e9]
        losses = [
            true.irreducible_entropy + true.capacity_coeff / n**true.capacity_exponent
            for n in ns
        ]
        result = fit_params(ns, losses, mode="model_size")
        p = result.params
        assert p.irreducible_entropy == pytest.approx(1.7, rel=1e-6)
        assert p.capacity_coeff == pytest.approx(400.0, rel=1e-4)
        assert p.capacity_exponent == pytest.approx(0.42, rel=1e-6)

    def test_noisy_recovery_median_within_5_percent(self):
        true = params_with(b=(0.0,) * 8, rho=0.3, E=2.0, A=0.5)
        js = list(range(1, 9))
        clean = np.array([vps_loss(true.with_streams(J), J) for J in js])
        rng = np.random.default_rng(41)
        rel_errors = {"capacity_term": [], "correlation": []}
        for _ in range(100):
            noisy = clean + rng.normal(scale=1e-3, size=clean.size)
            p = fit_params(js, noisy, mode="streams", fixed={"irreducible_entropy": 2.0}).params
            rel_errors["capacity_term"].append(abs(p.capacity_term - 0.5) / 0.5)
            rel_errors["correlation"].append(abs(p.correlation - 0.3) / 0.3)
        for name, errs in rel_errors.items():
            assert float(np.median(errs)) < 0.05, name

    def test_fixed_fields_respected(self):
        true = params_with(b=(0.0,) * 4, rho=0.6, E=1.0, A=0.2)
        js = [1, 2, 4, 8]
        losses = [vps_loss(true.with_streams(J), J) for J in js]
        result = fit_params(js, losses, mode="streams", fixed={"correlation": 0.6})
        assert result.params.correlation == 0.6
        assert result.params.irreducible_entropy == pytest.approx(1.0, rel=1e-6)
        assert "correlation" not in result.free

    def test_fewer_points_than_free_params(self):
        with pytest.raises(FitError):
            fit_params([1], [1.0], mode="streams", fixed={"irreducible_entropy": 0.5})

    def test_degenerate_duplicate_points(self):
        with pytest.raises(FitError):
            fit_params(
                [2, 2, 2, 2], [1.0, 1.0, 1.0, 1.0], mode="streams",
                fixed={"irreducible_entropy": 0.5},
            )

    def test_predict_matches_model(self):
        true = params_with(b=(0.0,) * 8, rho=0.5, E=1.0, A=0.3)
        js = [1, 2, 4, 8]
        losses = [vps_loss(true.with_streams(J), J) for J in js]
        result = fit_params(js, losses, mode="streams", fixed={"irreducible_entropy": 1.0})
        for J, loss in zip(js, losses):
            assert result.predict(J) == pytest.approx(loss, rel=1e-6)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            fit_params([1, 2, 3], [1, 2, 3], mode="banana")

    @pytest.mark.parametrize(
        "mode, fixed, bad",
        [
            ("streams", {"irreducible_entropy": 1.0, "corelation": 0.3}, "corelation"),
            ("streams", {"irreducible_entropy": 1.0, "capacity_coeff": 0.3}, "capacity_coeff"),
            ("model_size", {"capacity_term": 0.3}, "capacity_term"),
        ],
    )
    def test_unknown_fixed_field_rejected(self, mode, fixed, bad):
        with pytest.raises(ValueError, match=bad):
            fit_params([1, 2, 4, 8], [1.5, 1.25, 1.125, 1.0625], mode=mode, fixed=fixed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_params([1, 2, 4], [1.5, bad, 1.125], fixed={"correlation": 0.0})
        with pytest.raises(ValueError, match="finite"):
            fit_params([1, bad, 4], [1.5, 1.25, 1.125], fixed={"correlation": 0.0})

    def test_optimum_on_a_bound_is_exact(self):
        # loss rising with J is best fitted by rho = 1 (no 1/J term) and C = mean(y - E)
        js = np.array([1.0, 2.0, 4.0, 8.0])
        losses = 1.0 + 0.1 * (1.0 - 1.0 / js)
        result = fit_params(js, losses, mode="streams", fixed={"irreducible_entropy": 1.0})
        assert result.params.correlation == 1.0
        assert result.params.capacity_term == pytest.approx(float(np.mean(losses - 1.0)), rel=1e-12)
        assert result.cost == pytest.approx(0.5 * float(np.sum((losses - losses.mean()) ** 2)), rel=1e-12)

    def test_model_size_fit_refines_every_local_minimum(self):
        # with A pinned the valley around alpha = 0.7256 is narrow: the exponent
        # grid's lowest point lies near alpha = 0, not in it
        ns = [1e5, 1e6, 1e7, 1e8]
        losses = [2.9365 + 1.12 / n**0.7256 for n in ns]
        result = fit_params(ns, losses, mode="model_size", fixed={"capacity_coeff": 1.12})
        assert result.params.capacity_exponent == pytest.approx(0.7256, rel=1e-9)
        assert result.params.irreducible_entropy == pytest.approx(2.9365, rel=1e-12)
