import numpy as np
import pytest

from cbree.numkit import (
    RandomStream,
    factor_spd,
    log_sum_exp,
    ls_slope,
    minimize_scalar_bounded,
    solve_scalar_root,
    weighted_moments,
)


class TestLogSumExp:
    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_single_mass(self):
        assert log_sum_exp([-np.inf, 3.25]) == pytest.approx(3.25, abs=0.0)

    def test_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2.0), abs=1e-9)

    def test_all_neg_inf(self):
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(size=rng.integers(1, 30))
            c = rng.normal() * 100
            assert log_sum_exp(v + c) == pytest.approx(log_sum_exp(v) + c, rel=1e-12, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])


class TestWeightedMoments:
    def test_uniform_weights_reduce_to_sample_moments(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 3))
        mean, scm = weighted_moments(x, np.zeros(40))
        assert np.allclose(mean, x.mean(axis=0))
        centered = x - x.mean(axis=0)
        assert np.allclose(scm, centered.T @ centered / 40)

    def test_single_point(self):
        mean, scm = weighted_moments(np.array([[2.0, -1.0]]), np.array([0.0]))
        assert np.allclose(mean, [2.0, -1.0])
        assert np.allclose(scm, 0.0)

    def test_two_points_1d(self):
        # hand arithmetic: points 0, 2 with equal weights -> mean 1, moment 1
        mean, scm = weighted_moments(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        assert mean[0] == pytest.approx(1.0)
        assert scm[0, 0] == pytest.approx(1.0)

    def test_one_hot_weights(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 4))
        lw = np.full(10, -np.inf)
        lw[3] = 0.0
        mean, scm = weighted_moments(x, lw)
        assert np.allclose(mean, x[3])
        assert np.allclose(scm, 0.0)

    def test_degenerate_weights(self):
        with pytest.raises(ValueError, match="degenerate"):
            weighted_moments(np.ones((3, 2)), np.full(3, -np.inf))

    def test_extreme_log_weights(self):
        x = np.array([[0.0], [1.0], [2.0]])
        mean, _ = weighted_moments(x, np.array([-900.0, -100.0, -900.0]))
        assert mean[0] == pytest.approx(1.0)


class TestFactorSpd:
    def test_identity(self):
        lower = factor_spd(np.eye(3), 0.0)
        assert np.allclose(lower, np.eye(3))

    def test_diagonal(self):
        lower = factor_spd(np.diag([4.0, 9.0]), 0.0)
        assert np.allclose(lower, np.diag([2.0, 3.0]))

    def test_rank_deficient(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        lower = factor_spd(m, 1e-10)
        assert np.allclose(np.tril(lower), lower)
        assert np.max(np.abs(lower @ lower.T - m)) < 1e-9

    def test_reconstruction_random_symmetric(self):
        # reconstruction of clip(M) + jitter I within 1e-8 for |M| up to 1e3
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            a = rng.normal(scale=10.0, size=(d, d))
            m = 0.5 * (a + a.T) @ (0.5 * (a + a.T))  # PSD, scale up to ~1e3
            jitter = 1e-10 * np.trace(m) / d
            lower = factor_spd(m, jitter)
            assert np.max(np.abs(lower @ lower.T - (m + jitter * np.eye(d)))) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            factor_spd(np.ones((2, 3)), 0.0)

    def test_indefinite_is_clipped(self):
        m = np.diag([1.0, -0.5])
        lower = factor_spd(m, 0.0)
        clipped = np.diag([1.0, 0.0])
        assert np.max(np.abs(lower @ lower.T - clipped)) < 1e-12

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            factor_spd(np.eye(2), -1.0)


class TestScalarSolvers:
    def test_linear_root(self):
        assert solve_scalar_root(lambda x: x - 1.0, (0.0, 2.0), 1e-12) == pytest.approx(1.0)

    def test_sqrt2(self):
        root = solve_scalar_root(lambda x: x * x - 2.0, (0.0, 2.0), 1e-10)
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(ValueError, match="bracket"):
            solve_scalar_root(lambda x: 1.0, (0.0, 1.0), 1e-10)

    def test_quadratic_minimum(self):
        x = minimize_scalar_bounded(lambda t: (t - 0.3) ** 2, (0.0, 1.0), 1e-6)
        assert x == pytest.approx(0.3, abs=1e-5)

    def test_flat_tie_goes_up(self):
        assert minimize_scalar_bounded(lambda t: 1.0, (0.0, 1.0), 1e-6) == 1.0

    def test_boundary_minimum(self):
        assert minimize_scalar_bounded(lambda t: (t - 2.0) ** 2, (0.0, 1.0), 1e-6) == 1.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            minimize_scalar_bounded(lambda t: t, (1.0, 0.0), 1e-6)


class TestLsSlope:
    def test_unit_slope(self):
        assert ls_slope([1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_constant(self):
        assert ls_slope([2.0, 2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_hand_case(self):
        # least squares by hand: k = (0,1,2), v = (3,1,2) -> slope -1/2
        assert ls_slope([3.0, 1.0, 2.0]) == pytest.approx(-0.5)

    def test_reversal_flips_sign(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.normal(size=rng.integers(2, 12))
            assert ls_slope(v[::-1]) == pytest.approx(-ls_slope(v), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            ls_slope([1.0])


class TestRandomStream:
    def test_reproducible_sequences(self):
        a = RandomStream(123).standard_normal(1_000_000)
        b = RandomStream(123).standard_normal(1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStream(1).standard_normal(8)
        b = RandomStream(2).standard_normal(8)
        assert not np.allclose(a, b)

    def test_substreams_independent_and_deterministic(self):
        root = RandomStream(7)
        s1 = root.substream(0).standard_normal(16)
        s2 = root.substream(1).standard_normal(16)
        again = RandomStream(7).substream(0).standard_normal(16)
        assert np.array_equal(s1, again)
        assert not np.allclose(s1, s2)

    def test_nested_paths(self):
        root = RandomStream(7)
        assert np.array_equal(
            root.substream(2).substream(5).standard_normal(4),
            root.substream(2, 5).standard_normal(4),
        )
