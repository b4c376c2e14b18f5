import numpy as np
import pytest

from cbree.numkit import (
    RandomStream,
    bisect,
    factor_spd,
    log_sum_exp,
    ls_slope,
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

    @pytest.mark.parametrize("d", [1, 6, 50])
    def test_matches_dense_weighted_sum_and_is_exactly_symmetric(self, d):
        # zero weights (-inf) and a 1e3-nat spread of the finite log-weights
        rng = np.random.default_rng(3)
        n = 400
        x = rng.normal(size=(n, d)) + 2.0
        lw = 500.0 + 2.0 * rng.normal(size=n)
        lw[::7] -= 1e3
        lw[::11] = -np.inf
        w = np.exp(lw - log_sum_exp(lw))
        want_mean = w @ x
        want = np.zeros((d, d))
        for wj, xj in zip(w, x):
            want += wj * np.outer(xj - want_mean, xj - want_mean)
        mean, scm = weighted_moments(x, lw, np.empty((n, d)))
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(scm, scm.T)
        assert np.max(np.abs(scm - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(weighted_moments(x, lw)[1], scm)


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
        assert bisect(lambda x: x - 1.0, 0.0, 3.0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt2(self):
        root = bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-10)
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_ftol_early_exit(self):
        # the first midpoint 1.5 is already within ftol of the root 1.6
        assert bisect(lambda x: x - 1.6, 0.0, 3.0, 1e-12, ftol=0.2) == 1.5

    def test_stops_on_width(self):
        # a jump at 0.3 never reaches |f| <= ftol; the returned midpoint
        # lies within half the final width of it
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x < 0.3 else 1.0

        root = bisect(step, 0.0, 1.0, 1e-3, ftol=0.5)
        assert abs(root - 0.3) <= 0.5e-3
        assert len(calls) == 10  # 2**-10 is the first width <= 1e-3

    def test_endpoints_never_evaluated(self):
        seen = []

        def f(x):
            seen.append(x)
            return x - 0.7

        bisect(f, 0.0, 1.0, 1e-6)
        assert len(seen) == 20  # 2**-20 is the first width <= 1e-6
        assert all(0.0 < x < 1.0 for x in seen)


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

    def test_stream_contract_sfc64_first_normals(self):
        # every stored record depends on these draws: a change of bit
        # generator, or of numpy's normal algorithm, fails here by name
        stream = RandomStream(7, (3, 1))
        assert isinstance(stream.bit_generator, np.random.SFC64)
        expected = [0.5119835873334279, 1.2046170383224049, -1.8965986123485334, 0.9550004282945003]
        assert stream.standard_normal(4).tolist() == expected

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

    @pytest.mark.parametrize("shape", [(1000,), (400, 7)])
    def test_draw_into_buffer_matches_allocating_draw(self, shape):
        buf = np.full(shape, np.nan)
        got = RandomStream(5).substream(3, 2).standard_normal(shape, out=buf)
        assert got is buf
        assert np.array_equal(buf, RandomStream(5).substream(3, 2).standard_normal(shape))
