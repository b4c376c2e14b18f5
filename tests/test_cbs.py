import math

import numpy as np
import pytest

from cbree.cbs import (
    Ensemble,
    cbs_step,
    coefficients_from_log_weights,
    ensemble_coefficients,
    ess_from_log_weights,
    solve_beta,
    write_ensemble_csv,
)
from cbree.numkit import RandomStream
from cbree.smoothing import log_target


def linear_g(x):
    x = np.atleast_2d(x)
    return 3.5 - x.sum(axis=1) / math.sqrt(x.shape[1])


def make_ensemble(seed=0, n=50, d=2):
    pts = RandomStream(seed).standard_normal((n, d))
    return Ensemble(pts, linear_g(pts))


class TestCoefficients:
    def test_beta_zero_gives_sample_moments(self):
        ens = make_ensemble()
        coeffs = ensemble_coefficients(ens, s=1.0, beta=0.0)
        assert np.allclose(coeffs.m_beta, ens.points.mean(axis=0))
        centered = ens.points - ens.points.mean(axis=0)
        assert np.allclose(coeffs.c_beta_sq, centered.T @ centered / ens.size)

    def test_equal_energy_cancels_weights(self):
        # same radius and same g value -> identical log-weights for any beta
        theta = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
        pts = 1.7 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ens = Ensemble(points=pts, g_values=np.full(8, 0.4))
        for beta in (0.5, 1.0, 7.0):
            coeffs = ensemble_coefficients(ens, s=2.0, beta=beta)
            centered = pts - pts.mean(axis=0)
            assert np.allclose(coeffs.m_beta, pts.mean(axis=0), atol=1e-12)
            assert np.allclose(coeffs.c_beta_sq, (1.0 + beta) * centered.T @ centered / 8, atol=1e-12)

    def test_1d_hand_case(self):
        # points {0, 2}, equal weights, beta = 1: m = 1, c^2 = (1+1) * 1 = 2
        coeffs = coefficients_from_log_weights(np.array([[0.0], [2.0]]), np.zeros(2), beta=1.0)
        assert coeffs.m_beta[0] == pytest.approx(1.0)
        assert coeffs.c_beta_sq[0, 0] == pytest.approx(2.0)

    def test_factor_reconstructs(self):
        ens = make_ensemble(1, 120, 4)
        coeffs = ensemble_coefficients(ens, s=0.7, beta=3.0)
        rebuilt = coeffs.c_beta_factor @ coeffs.c_beta_factor.T
        assert np.max(np.abs(rebuilt - coeffs.c_beta_sq)) < 1e-8

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ensemble_coefficients(make_ensemble(), 1.0, -0.5)

    def test_mean_in_convex_hull_1d(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.normal(size=(30, 1))
            lw = rng.normal(size=30)
            coeffs = coefficients_from_log_weights(pts, lw, beta=1.0)
            assert pts.min() <= coeffs.m_beta[0] <= pts.max()

    def test_laplace_principle(self):
        # unique maximal weight pulls the weighted mean onto that particle
        ens = make_ensemble(3, 40, 3)
        lw = log_target(ens.g_values, ens.points, 1.0)
        k = int(np.argmax(lw))
        coeffs = coefficients_from_log_weights(ens.points, 1e8 * lw, beta=1.0)
        assert np.max(np.abs(coeffs.m_beta - ens.points[k])) < 1e-8


class TestCbsStep:
    def test_small_h_keeps_positions(self):
        # displacement is dominated by the sqrt(1 - alpha^2) ~ sqrt(2h) noise
        ens = make_ensemble(4, 60, 2)
        for h in (1e-6, 1e-10):
            stepped = cbs_step(ens, 1.0, 1.0, h, RandomStream(5), linear_g)
            assert np.max(np.abs(stepped.points - ens.points)) < 8.0 * math.sqrt(2.0 * h)

    def test_huge_h_draws_iid_at_coefficients(self):
        ens = make_ensemble(6, 100_000, 2)
        coeffs = ensemble_coefficients(ens, 0.5, 2.0)
        stepped = cbs_step(ens, 0.5, 2.0, 1e3, RandomStream(7), linear_g)
        assert np.max(np.abs(stepped.points.mean(axis=0) - coeffs.m_beta)) < 0.02
        centered = stepped.points - stepped.points.mean(axis=0)
        cov = centered.T @ centered / stepped.size
        assert np.max(np.abs(cov - coeffs.c_beta_sq)) < 0.05

    def test_affine_mean_statistics(self):
        # frozen coefficients: E[x'] = alpha x-bar + (1 - alpha) m within 3 SE
        ens = make_ensemble(8, 100_000, 2)
        h = 0.35
        alpha = math.exp(-h)
        coeffs = ensemble_coefficients(ens, 1.0, 1.5)
        stepped = cbs_step(ens, 1.0, 1.5, h, RandomStream(9), linear_g, coeffs=coeffs)
        expected = alpha * ens.points.mean(axis=0) + (1.0 - alpha) * coeffs.m_beta
        noise_cov = (1.0 - alpha**2) * coeffs.c_beta_sq
        se = np.sqrt(np.diag(noise_cov) / ens.size)
        assert np.all(np.abs(stepped.points.mean(axis=0) - expected) < 3.0 * se)

    def test_cache_coherence(self):
        ens = make_ensemble(10, 200, 3)

        def g3(x):
            x = np.atleast_2d(x)
            return 3.5 - x.sum(axis=1) / math.sqrt(3.0)

        stepped = cbs_step(Ensemble(ens.points, g3(ens.points)), 0.7, 1.0, 0.5, RandomStream(11), g3)
        idx = RandomStream(12).gen.integers(0, 200, size=5)
        assert np.array_equal(stepped.g_values[idx], g3(stepped.points[idx]))

    def test_non_positive_h_rejected(self):
        with pytest.raises(ValueError):
            cbs_step(make_ensemble(), 1.0, 1.0, 0.0, RandomStream(0), linear_g)

    def test_skip_refresh_leaves_cache_unset(self):
        stepped = cbs_step(make_ensemble(), 1.0, 1.0, 0.5, RandomStream(0), None)
        assert stepped.g_values is None


class TestEss:
    def test_beta_zero_gives_J(self):
        ens = make_ensemble(13, 35, 2)
        lw = log_target(ens.g_values, ens.points, 1.0)
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

    def test_limit_counts_argmax_ties(self):
        lw = np.array([0.0, 0.0, -5.0, -9.0])
        assert ess_from_log_weights(lw, 1e6) == pytest.approx(2.0)


class TestSolveBeta:
    def test_equal_weights_capped(self):
        pts = RandomStream(15).standard_normal((12, 2))
        norm = np.linalg.norm(pts, axis=1, keepdims=True)
        pts = pts / norm  # same radius
        beta, capped = solve_beta(log_target(np.full(12, 1.0), pts, 0.0), 6.0)
        assert capped
        assert beta == 1e8

    def test_hand_quadratic_case(self):
        # ESS(beta) = 2 with weights (1,1,1,10)^beta: 10^beta = 3 + 2 sqrt(3)
        pts = np.zeros((4, 1))
        g = np.zeros(4)
        lw = np.array([0.0, 0.0, 0.0, math.log(10.0)])
        # synthesize via log-target: use g values whose log-target reproduces lw
        # simpler: call the log-weight form through ess and bisect manually
        expected = math.log10(3.0 + 2.0 * math.sqrt(3.0))
        lo, hi = 0.0, 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ess_from_log_weights(lw, mid) > 2.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.8105082, abs=1e-6)

    def test_self_consistency_on_random_ensembles(self):
        for seed in range(5):
            ens = make_ensemble(seed + 20, 400, 3)
            target = 200.0
            lw = log_target(ens.g_values, ens.points, 1.3)
            beta, capped = solve_beta(lw, target)
            assert not capped
            assert abs(ess_from_log_weights(lw, beta) - target) <= 0.01

    def test_matches_dense_grid_oracle(self):
        ens = make_ensemble(30, 200, 2)
        target = 100.0
        lw = log_target(ens.g_values, ens.points, 0.8)
        beta, _ = solve_beta(lw, target)
        grid = np.linspace(max(beta - 0.5, 0.0), beta + 0.5, 20001)
        vals = np.abs([ess_from_log_weights(lw, b) - target for b in grid])
        best = grid[int(np.argmin(vals))]
        assert beta == pytest.approx(best, abs=1e-3)

    def test_invalid_target(self):
        ens = make_ensemble(31, 10, 2)
        with pytest.raises(ValueError):
            solve_beta(log_target(ens.g_values, ens.points, 1.0), 0.5)
        with pytest.raises(ValueError):
            solve_beta(log_target(ens.g_values, ens.points, 1.0), 10.0)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        ens = make_ensemble(32, 7, 3)
        path = tmp_path / "ensemble.csv"
        write_ensemble_csv(ens, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x1,x2,x3,g"
        assert len(rows) == 8
        data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
        assert np.array_equal(data[:, :3], ens.points)
        assert np.array_equal(data[:, 3], ens.g_values)
