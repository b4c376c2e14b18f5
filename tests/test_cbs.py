import math
import tracemalloc
import warnings

import numpy as np
import pytest

import cbree.cbs
import cbree.driver
from cbree.cbs import (
    BETA_CAP,
    Ensemble,
    cbs_step,
    coefficients_from_log_weights,
    ess_from_log_weights,
    solve_beta,
)
from cbree.densities import std_normal_logpdf
from cbree.driver import CbreeConfig, run_cbree, run_cbree_vmfn
from cbree.enkf import EnkfConfig, run_enkf, run_enkf_vmfn
from cbree.numkit import RandomStream, bisect, log_sum_exp
from cbree.problems import get_problem
from cbree.smoothing import log_smooth_indicator
from cbree.stepctl import ensemble_coefficients


def linear_g(x):
    x = np.atleast_2d(x)
    return 3.5 - x.sum(axis=1) / math.sqrt(x.shape[1])


def make_ensemble(seed=0, n=50, d=2):
    pts = RandomStream(seed).standard_normal((n, d))
    return Ensemble(pts, linear_g(pts))


def coefficients_at(ens, s, beta):
    """Coefficients at smoothing level ``s``, formed as the driver forms them."""
    log_w = log_smooth_indicator(ens.g_values, s) + ens.log_phi()
    return coefficients_from_log_weights(ens.points, beta * log_w, beta)


def noise_for(ens, seed):
    return RandomStream(seed).standard_normal(ens.points.shape)


class TestCoefficients:
    def test_beta_zero_gives_sample_moments(self):
        ens = make_ensemble()
        coeffs = coefficients_at(ens, s=1.0, beta=0.0)
        assert np.allclose(coeffs.mean, ens.points.mean(axis=0))
        centered = ens.points - ens.points.mean(axis=0)
        assert np.allclose(coeffs.covariance, centered.T @ centered / ens.size)

    def test_equal_energy_cancels_weights(self):
        # same radius and same g value -> identical log-weights for any beta
        theta = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
        pts = 1.7 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ens = Ensemble(points=pts, g_values=np.full(8, 0.4))
        for beta in (0.5, 1.0, 7.0):
            coeffs = coefficients_at(ens, s=2.0, beta=beta)
            centered = pts - pts.mean(axis=0)
            assert np.allclose(coeffs.mean, pts.mean(axis=0), atol=1e-12)
            assert np.allclose(coeffs.covariance, (1.0 + beta) * centered.T @ centered / 8, atol=1e-12)

    def test_1d_hand_case(self):
        # points {0, 2}, equal weights, beta = 1: m = 1, c^2 = (1+1) * 1 = 2
        coeffs = coefficients_from_log_weights(np.array([[0.0], [2.0]]), np.zeros(2), beta=1.0)
        assert coeffs.mean[0] == pytest.approx(1.0)
        assert coeffs.covariance[0, 0] == pytest.approx(2.0)

    def test_factor_reconstructs(self):
        ens = make_ensemble(1, 120, 4)
        coeffs = coefficients_at(ens, s=0.7, beta=3.0)
        rebuilt = coeffs.factor @ coeffs.factor.T
        assert np.max(np.abs(rebuilt - coeffs.covariance)) < 1e-8

    def test_start_level_weights_match_log_target_bitwise(self):
        # I(g, 0) = 1/2 for every finite g, so the limit state drops out
        ens = make_ensemble(4, 200, 3)
        for beta in (0.0, 0.6, 2.5):
            got = ensemble_coefficients(ens, beta)
            want = coefficients_at(ens, 0.0, beta)
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.covariance, want.covariance)
        # the start-up temperature solve takes log phi - log 2 as its
        # log-target; it has the same bits at the extremes of g
        g = np.concatenate([ens.g_values[:-6], [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324]])
        want = log_smooth_indicator(g, 0.0) + ens.log_phi()
        assert np.array_equal(ens.log_phi() - math.log(2.0), want)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ensemble_coefficients(make_ensemble(), -0.5)

    def test_mean_in_convex_hull_1d(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.normal(size=(30, 1))
            lw = rng.normal(size=30)
            coeffs = coefficients_from_log_weights(pts, lw, beta=1.0)
            assert pts.min() <= coeffs.mean[0] <= pts.max()

    def test_laplace_principle(self):
        # unique maximal weight pulls the weighted mean onto that particle
        ens = make_ensemble(3, 40, 3)
        lw = log_smooth_indicator(ens.g_values, 1.0) + ens.log_phi()
        k = int(np.argmax(lw))
        coeffs = coefficients_from_log_weights(ens.points, 1e8 * lw, beta=1.0)
        assert np.max(np.abs(coeffs.mean - ens.points[k])) < 1e-8


class TestCbsStep:
    def test_small_h_keeps_positions(self):
        # displacement is dominated by the sqrt(1 - alpha^2) ~ sqrt(2h) noise
        ens = make_ensemble(4, 60, 2)
        for h in (1e-6, 1e-10):
            coeffs = coefficients_at(ens, 1.0, 1.0)
            stepped = cbs_step(ens, coeffs, h, noise_for(ens, 5))
            assert np.max(np.abs(stepped - ens.points)) < 8.0 * math.sqrt(2.0 * h)

    def test_huge_h_draws_iid_at_coefficients(self):
        ens = make_ensemble(6, 100_000, 2)
        coeffs = coefficients_at(ens, 0.5, 2.0)
        stepped = cbs_step(ens, coeffs, 1e3, noise_for(ens, 7))
        assert np.max(np.abs(stepped.mean(axis=0) - coeffs.mean)) < 0.02
        centered = stepped - stepped.mean(axis=0)
        cov = centered.T @ centered / ens.size
        assert np.max(np.abs(cov - coeffs.covariance)) < 0.05

    def test_affine_mean_statistics(self):
        # frozen coefficients: E[x'] = alpha x-bar + (1 - alpha) m within 3 SE
        ens = make_ensemble(8, 100_000, 2)
        h = 0.35
        alpha = math.exp(-h)
        coeffs = coefficients_at(ens, 1.0, 1.5)
        stepped = cbs_step(ens, coeffs, h, noise_for(ens, 9))
        expected = alpha * ens.points.mean(axis=0) + (1.0 - alpha) * coeffs.mean
        noise_cov = (1.0 - alpha**2) * coeffs.covariance
        se = np.sqrt(np.diag(noise_cov) / ens.size)
        assert np.all(np.abs(stepped.mean(axis=0) - expected) < 3.0 * se)

    def test_cache_coherence(self):
        # the steps only move particles; the run loop evaluates the final
        # ensemble of every runner, so its cached values are the limit state
        # at its points (export-ensemble writes them)
        for runner, config in (
            (run_cbree, CbreeConfig(n_particles=200, max_iter=3, seed=10)),
            (run_cbree_vmfn, CbreeConfig(n_particles=200, max_iter=3, seed=10)),
            (run_enkf, EnkfConfig(n_particles=200, max_iter=3, seed=10)),
            (run_enkf_vmfn, EnkfConfig(n_particles=200, max_iter=3, seed=10)),
        ):
            problem = get_problem("linear-3")
            record = runner(problem, config)
            final = record.final_ensemble
            assert record.iterations == 3, runner.__name__
            assert np.array_equal(final.g_values, problem.lsf(final.points)), runner.__name__

    def test_non_positive_h_rejected(self):
        with pytest.raises(ValueError):
            ens = make_ensemble()
            cbs_step(ens, coefficients_at(ens, 1.0, 1.0), 0.0, noise_for(ens, 0))

    def test_step_into_out_matches_the_allocating_step_and_the_formula(self):
        # the step scales the factor before the product and BLAS sums the
        # product in its own order, so it rounds like the formula, not bit
        # for bit like its sum: compared entrywise against the sum of the
        # terms' magnitudes, two sums of d + 2 products differ by at most
        # (d + 3) eps
        for d in (1, 6, 50):
            ens = make_ensemble(33, 300, d)
            coeffs = coefficients_at(ens, 0.9, 2.0)
            noise = noise_for(ens, 34)
            h = 0.4
            alpha = np.exp(-h)
            scale = math.sqrt(1.0 - alpha * alpha)
            factor = coeffs.factor
            expected = (
                alpha * ens.points + (1.0 - alpha) * coeffs.mean + scale * (noise @ factor.T)
            )
            magnitude = (
                np.abs(alpha * ens.points)
                + np.abs((1.0 - alpha) * coeffs.mean)
                + scale * (np.abs(noise) @ np.abs(factor.T))
            )
            out = np.empty_like(ens.points)
            assert cbs_step(ens, coeffs, h, noise, out) is out
            assert np.array_equal(cbs_step(ens, coeffs, h, noise), out)
            err = np.max(np.abs(out - expected) / magnitude)
            assert err <= (d + 3) * np.finfo(float).eps, (d, err)

    @pytest.mark.parametrize("d", [1, 6, 50])
    def test_forgetting_step_is_the_product_plus_the_mean_bitwise(self, d):
        # exp(-800) underflows to 0: the step is an exact draw at the
        # coefficients, with no trace of the positions.  The general formula
        # gives the same bits (the factor is scaled by exactly 1, the drift
        # is 0 x + 1 m = m, and m + p rounds like p + m), so the closed form
        # only skips passes
        ens = make_ensemble(41, 300, d)
        coeffs = coefficients_at(ens, 0.9, 2.0)
        noise = noise_for(ens, 42)
        expected = np.matmul(noise, coeffs.factor.T) + coeffs.mean
        assert np.array_equal(cbs_step(ens, coeffs, 800.0, noise), expected)

    @pytest.mark.parametrize("h", [0.4, 800.0])
    def test_step_result_does_not_depend_on_the_buffers(self, h):
        ens = make_ensemble(43, 300, 6)
        coeffs = coefficients_at(ens, 0.9, 2.0)
        noise = noise_for(ens, 44)
        reference = cbs_step(ens, coeffs, h, noise)
        for out in (None, np.empty_like(ens.points)):
            for scratch in (None, np.full_like(ens.points, np.nan)):
                stepped = cbs_step(ens, coeffs, h, noise, out, scratch)
                assert np.array_equal(stepped, reference), (out is None, scratch is None)

    @pytest.mark.parametrize("h", [0.4, 800.0])
    def test_step_with_buffers_allocates_no_ensemble_sized_array(self, h):
        J, d = 4000, 50
        ens = make_ensemble(45, J, d)
        coeffs = coefficients_at(ens, 0.9, 2.0)
        noise = noise_for(ens, 46)
        out, scratch = np.empty((J, d)), np.empty((J, d))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cbs_step(ens, coeffs, h, noise, out, scratch)
            given = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cbs_step(ens, coeffs, h, noise)
            allocating = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the allocating step shows that numpy's arrays are traced
        assert allocating >= J * d * 8
        assert given < J * d * 8 // 4, given

    def test_step_returns_out_and_leaves_its_inputs_alone(self):
        ens = make_ensemble(37, 200, 6)
        points = ens.points.copy()
        noise = noise_for(ens, 38)
        noise_before = noise.copy()
        out = np.empty_like(ens.points)
        assert cbs_step(ens, coefficients_at(ens, 1.0, 1.0), 0.5, noise, out) is out
        assert np.array_equal(ens.points, points)
        assert np.array_equal(noise, noise_before)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    @pytest.mark.parametrize("h", [0.5, 800.0])
    def test_non_c_contiguous_out_gives_the_same_step(self, layout, h):
        ens = make_ensemble(39, 40, 3)
        coeffs = coefficients_at(ens, 1.0, 1.0)
        noise = noise_for(ens, 40)
        out = {
            "fortran": np.empty((40, 3), order="F"),
            "strided": np.empty((40, 6))[:, ::2],
        }[layout]
        assert cbs_step(ens, coeffs, h, noise, out) is out
        assert np.array_equal(out, cbs_step(ens, coeffs, h, noise))

    @pytest.mark.parametrize("target", ["points", "noise"])
    def test_out_sharing_memory_rejected(self, target):
        ens = make_ensemble(35, 40, 3)
        noise = noise_for(ens, 36)
        out = {"points": ens.points, "noise": noise}[target][::-1]
        with pytest.raises(ValueError, match="share memory"):
            cbs_step(ens, coefficients_at(ens, 1.0, 1.0), 0.5, noise, out)

    @pytest.mark.parametrize("target", ["points", "noise", "out"])
    def test_scratch_sharing_memory_rejected(self, target):
        ens = make_ensemble(35, 40, 3)
        noise = noise_for(ens, 36)
        out = np.empty_like(ens.points)
        scratch = {"points": ens.points, "noise": noise, "out": out}[target][::-1]
        with pytest.raises(ValueError, match="scratch must not share memory"):
            cbs_step(ens, coefficients_at(ens, 1.0, 1.0), 0.5, noise, out, scratch)

    @pytest.mark.parametrize("shape", [(50,), (49, 2), (50, 3), (2, 50)])
    def test_wrong_noise_shape_rejected(self, shape):
        ens = make_ensemble()
        with pytest.raises(ValueError, match="noise has shape"):
            cbs_step(ens, coefficients_at(ens, 1.0, 1.0), 0.5, np.zeros(shape))


class TestEss:
    def test_beta_zero_gives_J(self):
        ens = make_ensemble(13, 35, 2)
        lw = log_smooth_indicator(ens.g_values, 1.0) + ens.log_phi()
        assert ess_from_log_weights(lw, 0.0) == pytest.approx(35.0)

    def test_equal_weights_any_beta(self):
        lw = np.full(20, -3.7)
        for beta in (0.0, 0.5, 4.0, 100.0):
            assert ess_from_log_weights(lw, beta) == pytest.approx(20.0)

    def test_hand_case(self):
        # weights (1, 1, 1, 10): (13)^2 / 103
        lw = np.array([0.0, 0.0, 0.0, math.log(10.0)])
        assert ess_from_log_weights(lw, 1.0) == pytest.approx(169.0 / 103.0, abs=1e-9)
        assert ess_from_log_weights(lw, 1.0) == pytest.approx(1.640777, abs=1e-6)

    def test_monotone_non_increasing_in_beta(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            lw = rng.normal(size=30) * rng.uniform(0.5, 5.0)
            betas = np.linspace(0.0, 20.0, 80)
            vals = [ess_from_log_weights(lw, b) for b in betas]
            assert np.all(np.diff(vals) <= 1e-9)
            assert vals[0] == pytest.approx(30.0)

    def test_one_exp_form_matches_two_log_sum_exps(self):
        # the reference exp(2 lse(beta lw) - lse(2 beta lw)) loses about
        # |beta max lw| * 2^-52 in its exponent, so the log-weights are
        # shifted to a zero maximum, where it is exact to rounding
        rng = np.random.default_rng(37)
        betas = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 97)])
        for trial in range(6):
            lw = 150.0 * rng.standard_normal(2000)
            lw -= lw.max()
            if trial % 2:
                lw[rng.integers(0, 2000, size=40)] = -np.inf
            for beta in betas[1:] if trial % 2 else betas:
                reference = math.exp(2.0 * log_sum_exp(beta * lw) - log_sum_exp(2.0 * beta * lw))
                assert ess_from_log_weights(lw, beta) == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_all_minus_inf_gives_nan(self):
        assert math.isnan(ess_from_log_weights(np.full(6, -np.inf), 1.0))

    def test_limit_counts_argmax_ties(self):
        lw = np.array([0.0, 0.0, -5.0, -9.0])
        assert ess_from_log_weights(lw, 1e6) == pytest.approx(2.0)

    def test_slope_matches_central_difference(self):
        # d log ESS / d log beta against a central difference in log beta
        rng = np.random.default_rng(41)
        lw = -8.0 + 2.5 * rng.standard_normal(3000) + rng.standard_exponential(3000)
        step = 1e-4
        for beta in (1e-3, 0.05, 0.4, 1.0, 3.0):
            ess, slope = ess_from_log_weights(lw, beta, slope=True)
            assert ess == ess_from_log_weights(lw, beta)
            up = math.log(ess_from_log_weights(lw, beta * math.exp(step)))
            down = math.log(ess_from_log_weights(lw, beta * math.exp(-step)))
            assert slope < 0.0
            assert slope == pytest.approx((up - down) / (2.0 * step), rel=1e-6)

    def test_slope_ignores_zero_weights(self):
        rng = np.random.default_rng(42)
        lw = rng.standard_normal(50)
        with_zeros = np.concatenate([lw, np.full(7, -np.inf)])
        ess, slope = ess_from_log_weights(lw, 0.7, slope=True)
        assert ess_from_log_weights(with_zeros, 0.7, slope=True) == pytest.approx((ess, slope), rel=1e-13)


class TestSolveBeta:
    def test_equal_weights_capped(self):
        pts = RandomStream(15).standard_normal((12, 2))
        norm = np.linalg.norm(pts, axis=1, keepdims=True)
        pts = pts / norm  # same radius
        beta, capped, _ = solve_beta(log_smooth_indicator(np.full(12, 1.0), 0.0) + std_normal_logpdf(pts), 6.0)
        assert capped
        assert beta == 1e8

    def test_hand_quadratic_case(self):
        # ESS(beta) = 2 with weights (1,1,1,10)^beta: 10^beta = 3 + 2 sqrt(3)
        lw = np.array([0.0, 0.0, 0.0, math.log(10.0)])
        expected = math.log10(3.0 + 2.0 * math.sqrt(3.0))
        root = bisect(lambda b: 2.0 - ess_from_log_weights(lw, b), 0.0, 4.0, 1e-12)
        assert root == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.8105082, abs=1e-6)
        beta, capped, _ = solve_beta(lw, 2.0)
        assert not capped
        assert abs(ess_from_log_weights(lw, beta) - 2.0) <= 0.01

    def test_self_consistency_on_random_ensembles(self):
        for seed in range(5):
            ens = make_ensemble(seed + 20, 400, 3)
            target = 200.0
            lw = log_smooth_indicator(ens.g_values, 1.3) + ens.log_phi()
            beta, capped, _ = solve_beta(lw, target)
            assert not capped
            assert abs(ess_from_log_weights(lw, beta) - target) <= 0.01

    def test_returned_ess_is_the_evaluated_one_bitwise(self):
        for seed in range(5):
            ens = make_ensemble(seed + 20, 400, 3)
            lw = log_smooth_indicator(ens.g_values, 1.3) + ens.log_phi()
            beta, capped, ess = solve_beta(lw, 200.0)
            assert not capped
            assert ess == ess_from_log_weights(lw, beta)
        ties = np.full(6, -4.2)
        beta, capped, ess = solve_beta(ties, 3.0)
        assert capped
        assert ess == ess_from_log_weights(ties, beta)

    def test_matches_dense_grid_oracle(self):
        ens = make_ensemble(30, 200, 2)
        target = 100.0
        lw = log_smooth_indicator(ens.g_values, 0.8) + ens.log_phi()
        beta, _, _ = solve_beta(lw, target)
        grid = np.linspace(max(beta - 0.5, 0.0), beta + 0.5, 20001)
        vals = np.abs([ess_from_log_weights(lw, b) - target for b in grid])
        best = grid[int(np.argmin(vals))]
        assert beta == pytest.approx(best, abs=1e-3)

    def test_invalid_target(self):
        ens = make_ensemble(31, 10, 2)
        with pytest.raises(ValueError):
            solve_beta(log_smooth_indicator(ens.g_values, 1.0) + ens.log_phi(), 0.5)
        with pytest.raises(ValueError):
            solve_beta(log_smooth_indicator(ens.g_values, 1.0) + ens.log_phi(), 10.0)

    def test_non_finite_log_target_rejected(self):
        lw = np.array([0.0, -1.0, -np.inf, -2.0])
        with pytest.raises(ValueError, match="finite"):
            solve_beta(lw, 2.0)

    @pytest.mark.parametrize("n", [3, 6000])
    def test_identical_log_weights_capped(self, n):
        assert solve_beta(np.full(n, -4.2), n / 2.0)[:2] == (BETA_CAP, True)

    @staticmethod
    def oscillator_log_targets(iterations):
        """Log-target values of the first ensembles of a seeded J=6000
        oscillator run, each at the smoothing level its step used."""
        found = []
        original = cbree.driver.solve_beta

        def keep(lw, target):
            found.append(np.array(lw))
            return original(lw, target)

        problem = get_problem("oscillator")
        config = CbreeConfig(n_particles=6000, max_iter=iterations, n_obs=0, seed=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cbree.driver, "solve_beta", keep)
            run_cbree(problem, config)
        return found

    def test_few_ess_evaluations_per_solve(self, monkeypatch):
        log_targets = self.oscillator_log_targets(12)
        assert len(log_targets) == 13  # the start-up solve and 12 steps
        calls = []
        original = cbree.cbs.ess_from_log_weights

        def counted(*args, **kwargs):
            calls[-1] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cbree.cbs, "ess_from_log_weights", counted)
        for lw in log_targets:
            calls.append(0)
            beta, capped, _ = solve_beta(lw, 3000.0)
            assert not capped
            assert abs(original(lw, beta) - 3000.0) <= 0.01
        assert max(calls) <= 6

    def test_wide_log_weight_spread_is_silent(self):
        # 1e3 nats between the extremes: most weights underflow at beta = 1
        rng = np.random.default_rng(43)
        spread = np.concatenate([[0.0, -1e3], -1e3 * rng.uniform(size=4000)])
        # 2100 tied maxima hold the ESS above 2000 for every beta, and the
        # slope vanishes as the other weights underflow, which asks Newton
        # for an unbounded step
        ties = np.concatenate([np.zeros(2100), -1e3 * rng.uniform(size=1900)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, capped, _ = solve_beta(spread, 2001.0)
            assert solve_beta(ties, 2000.0)[:2] == (BETA_CAP, True)
        assert not capped
        assert abs(ess_from_log_weights(spread, beta) - 2001.0) <= 0.01
