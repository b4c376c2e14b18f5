import math

import numpy as np
import pytest

import cbree.driver
import cbree.smoothing
from cbree.densities import std_normal_logpdf
from cbree.driver import CbreeConfig, run_cbree
from cbree.numkit import RandomStream, minimize_scalar_bounded
from cbree.problems import get_problem
from cbree.smoothing import (
    SmoothingState,
    empirical_cv,
    log_smooth_indicator,
    log_target,
    smooth_indicator,
    update_smoothing,
)


class TestSmoothIndicator:
    def test_half_at_zero_argument(self):
        for s in (0.0, 0.5, 3.0, 100.0):
            assert smooth_indicator(0.0, s) == pytest.approx(0.5)
        for g in (-2.0, -0.1, 0.1, 5.0):
            assert smooth_indicator(g, 0.0) == pytest.approx(0.5)

    def test_hand_value(self):
        # I(1, 1) = (1 - 1/sqrt(2)) / 2
        assert smooth_indicator(1.0, 1.0) == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(2.0)), abs=1e-12)
        assert smooth_indicator(1.0, 1.0) == pytest.approx(0.146447, abs=1e-6)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=200) * 3
        s = np.abs(rng.normal()) * 5
        total = smooth_indicator(g, s) + smooth_indicator(-g, s)
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_monotone_in_g(self):
        g = np.linspace(-5, 5, 101)
        vals = smooth_indicator(g, 2.0)
        assert np.all(np.diff(vals) < 0)

    def test_monotone_in_s(self):
        s = np.linspace(0, 50, 40)
        below = np.array([smooth_indicator(-0.7, si) for si in s])
        above = np.array([smooth_indicator(0.7, si) for si in s])
        assert np.all(np.diff(below) >= 0)
        assert np.all(np.diff(above) <= 0)

    def test_sharp_limit(self):
        assert smooth_indicator(-0.3, 1e9) == pytest.approx(1.0, abs=1e-9)
        assert smooth_indicator(0.3, 1e9) == pytest.approx(0.0, abs=1e-9)

    def test_log_form_agrees(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=100)
        for s in (0.0, 0.3, 4.0, 900.0):
            assert np.allclose(
                log_smooth_indicator(g, s), np.log(smooth_indicator(g, s)), atol=1e-10
            )

    def test_log_form_stable_in_far_tail(self):
        # I(t) ~ 1/(4 t^2) for huge t = s*g; the direct formula underflows
        val = float(log_smooth_indicator(1e8, 1e8))
        assert np.isfinite(val)
        assert val == pytest.approx(-math.log(4.0) - 2.0 * math.log(1e16), rel=1e-9)


class TestLogTarget:
    def test_zero_smoothing(self):
        x = np.array([0.7])
        expected = math.log(0.5) + float(std_normal_logpdf(x))
        assert float(log_target(np.array(2.0), x, 0.0)) == pytest.approx(expected, abs=1e-12)

    def test_zero_g(self):
        x = np.array([0.2, -0.4])
        expected = math.log(0.5) + float(std_normal_logpdf(x))
        assert float(log_target(np.array(0.0), x, 7.0)) == pytest.approx(expected, abs=1e-12)

    def test_composition_value(self):
        # oracle: ln(0.5 (1 - 1/sqrt(2))) - 0.5 ln(2 pi) = -2.8400323
        expected = math.log(0.5 * (1.0 - 1.0 / math.sqrt(2.0))) - 0.5 * math.log(2.0 * math.pi)
        val = float(log_target(np.array(1.0), np.zeros(1), 1.0))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(-2.8400323, abs=1e-6)

    def test_finite_everywhere(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=50) * 10
        x = rng.normal(size=(50, 3))
        assert np.all(np.isfinite(log_target(g, x, 1e6)))


class TestEmpiricalCv:
    def test_equal_weights(self):
        assert empirical_cv(np.full(10, 3.3)) == pytest.approx(0.0, abs=1e-14)

    def test_all_zero(self):
        assert empirical_cv(np.zeros(6)) == math.inf

    def test_one_hot_is_degenerate(self):
        # a single carrier holds no spread information: treated as no signal
        w = np.zeros(4)
        w[1] = 5.0
        assert empirical_cv(w) == math.inf

    def test_two_carriers_formula(self):
        # (1, 3): mean 2, population sd 1 -> cv 1/2
        assert empirical_cv(np.array([1.0, 3.0])) == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.uniform(0.1, 5.0, size=rng.integers(2, 40))
            c = rng.uniform(1e-6, 1e6)
            assert empirical_cv(c * w) == pytest.approx(empirical_cv(w), rel=1e-9)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            empirical_cv(np.array([1.0]))


class TestDeltaDistance:
    # the squared CV is the sample estimate of the chi-square divergence
    def test_constant_weights_zero(self):
        assert empirical_cv(np.full(8, 2.0)) ** 2 == pytest.approx(0.0, abs=1e-14)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = rng.uniform(0.0, 2.0, size=10)
            assert empirical_cv(q) >= 0.0

    def test_pair_value(self):
        assert empirical_cv(np.array([1.0, 3.0])) ** 2 == pytest.approx(0.25)


class TestUpdateSmoothing:
    def test_flat_objective_hits_upper_bound(self):
        state = SmoothingState(s=0.5, lip_s=1.0, delta_target=1.0)
        g = np.full(6, 1.3)  # identical values -> constant ratio -> flat objective
        assert update_smoothing(g, state, 2.0) == pytest.approx(2.5, abs=1e-5)

    def test_result_inside_domain(self):
        rng = np.random.default_rng(5)
        state = SmoothingState(s=0.2, lip_s=0.7, delta_target=1.0)
        for _ in range(20):
            g = rng.normal(size=30)
            h = float(rng.uniform(0.01, 5.0))
            s_new = update_smoothing(g, state, h)
            assert state.s <= s_new <= state.s + state.lip_s * h + 1e-12

    def test_monotone_non_decreasing(self):
        g = np.random.default_rng(6).normal(size=25)
        state = SmoothingState(s=0.0, lip_s=1.0, delta_target=0.8)
        s = 0.0
        for _ in range(10):
            s_new = update_smoothing(g, SmoothingState(s, 1.0, 0.8), 0.5)
            assert s_new >= s
            s = s_new

    def test_grid_scan_oracle_boundary_case(self):
        # frozen from a 1e6-point scan on [0, 10]: cv(q) approaches the
        # target 1 from below, so the minimizer sits at the upper bound
        g = np.array([-1.0, -0.5, 0.5, 1.0])
        state = SmoothingState(s=0.0, lip_s=1.0, delta_target=1.0)
        assert update_smoothing(g, state, 10.0) == pytest.approx(10.0, abs=1e-3)

    def test_grid_scan_oracle_interior_case(self):
        # frozen from a refined 1e6-point scan: cv crosses 0.5 at s = 0.7685488
        g = np.array([-1.0, -0.5, 0.5, 1.0])
        state = SmoothingState(s=0.0, lip_s=1.0, delta_target=0.5)
        assert update_smoothing(g, state, 10.0) == pytest.approx(0.7685488214, abs=1e-3)


def ratio_cv(g, s0, s):
    """CV of the indicator ratios ``I(g, s) / I(g, s0)``."""
    return empirical_cv(np.exp(log_smooth_indicator(g, s) - log_smooth_indicator(g, s0)))


def search_only(g, state, h):
    """The golden-section search over the whole interval, without the cap test."""
    return minimize_scalar_bounded(
        lambda s: (ratio_cv(g, state.s, s) - state.delta_target) ** 2,
        (state.s, state.s + state.lip_s * h),
        tol=1e-6 * max(1.0, state.s),
    )


def captured_updates(monkeypatch, problem, **config):
    """The ``(g, state, h)`` of every smoothing update in one seeded run."""
    calls = []
    inner = cbree.driver.update_smoothing

    def capture(g, state, h):
        calls.append((np.array(g), state, h))
        return inner(g, state, h)

    monkeypatch.setattr(cbree.driver, "update_smoothing", capture)
    run_cbree(get_problem(problem), CbreeConfig(**config))
    return calls


class TestCapFirstRule:
    def test_non_unimodal_case_takes_the_cap(self):
        # both particles fail, so both ratios tend to 2 as s grows: cv(q)
        # rises from 0 and falls again, and the search alone stops at the
        # interior peak, the point of the interval closest to delta
        g = np.array([-4.0, -1.0])
        state = SmoothingState(s=0.0, lip_s=1.0, delta_target=4.0)
        assert update_smoothing(g, state, 1.0) == 1.0
        assert ratio_cv(g, 0.0, 1.0) <= 4.0
        assert 0.2 < search_only(g, state, 1.0) < 0.35

    @pytest.mark.parametrize(
        "problem,config",
        [
            ("oscillator", dict(n_particles=1000, seed=13, max_iter=30)),
            ("linear", dict(n_particles=500, seed=11, max_iter=30)),
            (
                "linear-50",
                dict(n_particles=400, seed=14, delta_target=2.0, eps_target=0.5,
                     n_obs=0, max_iter=12),
            ),
        ],
        ids=["oscillator", "linear", "linear-50"],
    )
    def test_replay_matches_search(self, monkeypatch, problem, config):
        calls = captured_updates(monkeypatch, problem, **config)
        capped = 0
        for g, state, h in calls:
            hi = state.s + state.lip_s * h
            capped += ratio_cv(g, state.s, hi) <= state.delta_target
            assert update_smoothing(g, state, h) == search_only(g, state, h)
        assert capped > 0

    def test_search_at_large_s_meets_its_tolerance(self, monkeypatch):
        # near s = 1e12 floats are spaced wider than 1e-6, so only a
        # tolerance relative to s lets the search stop inside its
        # 100-iteration budget (about 35 indicator evaluations here)
        g = RandomStream(3).standard_normal(1000)
        state = SmoothingState(s=1e12, lip_s=1.0, delta_target=0.1)
        calls = [0]
        indicator = cbree.smoothing.log_smooth_indicator

        def counted_indicator(g, s):
            calls[0] += 1
            return indicator(g, s)

        monkeypatch.setattr(cbree.smoothing, "log_smooth_indicator", counted_indicator)
        s_next = update_smoothing(g, state, 1e12)
        assert calls[0] <= 40
        assert abs(ratio_cv(g, state.s, s_next) - state.delta_target) <= 1e-6

    def test_log_indicator_calls_per_update(self, monkeypatch):
        depth = [0]
        counts = {"updates": 0, "indicator": 0}
        indicator = cbree.smoothing.log_smooth_indicator
        update = cbree.driver.update_smoothing

        def counted_indicator(g, s):
            counts["indicator"] += depth[0] > 0
            return indicator(g, s)

        def counted_update(g, state, h):
            counts["updates"] += 1
            depth[0] += 1
            try:
                return update(g, state, h)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cbree.smoothing, "log_smooth_indicator", counted_indicator)
        monkeypatch.setattr(cbree.driver, "update_smoothing", counted_update)
        run_cbree(get_problem("oscillator"), CbreeConfig(n_particles=1000, seed=13, max_iter=30))
        assert counts["updates"] > 5
        assert counts["indicator"] <= 3 * counts["updates"]
