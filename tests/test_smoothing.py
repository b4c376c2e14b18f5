import math

import numpy as np
import pytest

import cbree.driver
import cbree.smoothing
from cbree.densities import std_normal_logpdf
from cbree.driver import CbreeConfig, run_cbree
from cbree.numkit import RandomStream, bisect
from cbree.problems import get_problem
from cbree.smoothing import (
    LIP_S,
    empirical_cv,
    log_smooth_indicator,
    update_smoothing,
)


def indicator_from_log(g, s):
    """``I(g, s)`` as the package evaluates it, through its logarithm."""
    return np.exp(log_smooth_indicator(g, s))


def plain_indicator(g, s):
    """The direct formula ``I(g, s) = (1 - t / sqrt(t^2 + 1)) / 2``, ``t = s g``,
    the oracle for the log form away from its far tails."""
    t = np.multiply(s, g)
    return 0.5 * (1.0 - t / np.sqrt(t * t + 1.0))


class TestSmoothIndicator:
    def test_half_at_zero_argument(self):
        for s in (0.0, 0.5, 3.0, 100.0):
            assert indicator_from_log(0.0, s) == pytest.approx(0.5)
        for g in (-2.0, -0.1, 0.1, 5.0):
            assert indicator_from_log(g, 0.0) == pytest.approx(0.5)

    def test_hand_value(self):
        # I(1, 1) = (1 - 1/sqrt(2)) / 2
        assert indicator_from_log(1.0, 1.0) == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(2.0)), abs=1e-12)
        assert indicator_from_log(1.0, 1.0) == pytest.approx(0.146447, abs=1e-6)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=200) * 3
        s = np.abs(rng.normal()) * 5
        total = indicator_from_log(g, s) + indicator_from_log(-g, s)
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_monotone_in_g(self):
        g = np.linspace(-5, 5, 101)
        vals = indicator_from_log(g, 2.0)
        assert np.all(np.diff(vals) < 0)

    def test_monotone_in_s(self):
        s = np.linspace(0, 50, 40)
        below = np.array([indicator_from_log(-0.7, si) for si in s])
        above = np.array([indicator_from_log(0.7, si) for si in s])
        assert np.all(np.diff(below) >= 0)
        assert np.all(np.diff(above) <= 0)

    def test_sharp_limit(self):
        assert indicator_from_log(-0.3, 1e9) == pytest.approx(1.0, abs=1e-9)
        assert indicator_from_log(0.3, 1e9) == pytest.approx(0.0, abs=1e-9)

    def test_log_form_agrees(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=100)
        for s in (0.0, 0.3, 4.0, 900.0):
            assert np.allclose(
                log_smooth_indicator(g, s), np.log(plain_indicator(g, s)), atol=1e-10
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
        assert float(log_smooth_indicator(np.array(2.0), 0.0) + std_normal_logpdf(x)) == pytest.approx(expected, abs=1e-12)

    def test_zero_g(self):
        x = np.array([0.2, -0.4])
        expected = math.log(0.5) + float(std_normal_logpdf(x))
        assert float(log_smooth_indicator(np.array(0.0), 7.0) + std_normal_logpdf(x)) == pytest.approx(expected, abs=1e-12)

    def test_composition_value(self):
        # oracle: ln(0.5 (1 - 1/sqrt(2))) - 0.5 ln(2 pi) = -2.8400323
        expected = math.log(0.5 * (1.0 - 1.0 / math.sqrt(2.0))) - 0.5 * math.log(2.0 * math.pi)
        val = float(log_smooth_indicator(np.array(1.0), 1.0) + std_normal_logpdf(np.zeros(1)))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(-2.8400323, abs=1e-6)

    def test_finite_everywhere(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=50) * 10
        x = rng.normal(size=(50, 3))
        assert np.all(np.isfinite(log_smooth_indicator(g, 1e6) + std_normal_logpdf(x)))


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
        g = np.full(6, 1.3)  # identical values -> constant ratio -> flat objective
        assert update_smoothing(g, 0.5, 2.0, 1.0)[0] == pytest.approx(2.5, abs=1e-5)

    def test_result_inside_domain(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=30)
            h = float(rng.uniform(0.01, 5.0))
            s_new = update_smoothing(g, 0.2, h, 1.0)[0]
            assert 0.2 <= s_new <= 0.2 + LIP_S * h + 1e-12

    def test_monotone_non_decreasing(self):
        g = np.random.default_rng(6).normal(size=25)
        s = 0.0
        for _ in range(10):
            s_new = update_smoothing(g, s, 0.5, 0.8)[0]
            assert s_new >= s
            s = s_new

    def test_grid_scan_oracle_boundary_case(self):
        # frozen from a 1e6-point scan on [0, 10]: cv(q) approaches the
        # target 1 from below, so the minimizer sits at the upper bound
        g = np.array([-1.0, -0.5, 0.5, 1.0])
        assert update_smoothing(g, 0.0, 10.0, 1.0)[0] == pytest.approx(10.0, abs=1e-3)

    def test_grid_scan_oracle_interior_case(self):
        # frozen from a refined 1e6-point scan: cv crosses 0.5 at s = 0.7685488
        g = np.array([-1.0, -0.5, 0.5, 1.0])
        assert update_smoothing(g, 0.0, 10.0, 0.5)[0] == pytest.approx(0.7685488214, abs=1e-3)


def ratio_cv(g, s0, s):
    """CV of the indicator ratios ``I(g, s) / I(g, s0)``."""
    return empirical_cv(np.exp(log_smooth_indicator(g, s) - log_smooth_indicator(g, s0)))


def search_only(g, s, h, delta):
    """The bisection over the whole interval, without the cap test."""
    return bisect(
        lambda level: ratio_cv(g, s, level) - delta,
        s,
        s + LIP_S * h,
        1e-6 * max(1.0, s),
    )


def captured_updates(monkeypatch, problem, **config):
    """The ``(g, s, h, delta_target)`` of every smoothing update in one seeded run."""
    calls = []
    inner = cbree.driver.update_smoothing

    def capture(g, s, h, delta):
        calls.append((np.array(g), s, h, delta))
        return inner(g, s, h, delta)

    monkeypatch.setattr(cbree.driver, "update_smoothing", capture)
    run_cbree(get_problem(problem), CbreeConfig(**config))
    return calls


class TestCapFirstRule:
    def test_non_unimodal_case_takes_the_cap(self):
        # both particles fail, so both ratios tend to 2 as s grows: cv(q)
        # rises from 0 and falls again, staying below delta throughout
        g = np.array([-4.0, -1.0])
        assert update_smoothing(g, 0.0, 1.0, 4.0)[0] == 1.0
        assert ratio_cv(g, 0.0, 1.0) <= 4.0

    def test_non_monotone_search_meets_delta(self):
        # cv(q) crosses delta near s = 0.157, peaks near 0.3, dips to
        # delta + 9.3e-3 near 1.07 and rises again to the cap at 8.5; a
        # minimizer of (cv - delta)^2 that assumes one minimum stops in
        # that dip with a CV 4 % over the target
        g = np.array([-0.709, -6.442, -6.183, -7.945, -0.584, -3.374, 0.152])
        s_next = update_smoothing(g, 0.0, 8.5, 0.2238)[0]
        assert abs(ratio_cv(g, 0.0, s_next) - 0.2238) <= 1e-6

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
        for g, s, h, delta in calls:
            hi = s + LIP_S * h
            s_next, logs = update_smoothing(g, s, h, delta)
            if ratio_cv(g, s, hi) <= delta:
                capped += 1
                assert s_next == hi
            else:
                assert s_next == search_only(g, s, h, delta)
            assert np.array_equal(logs, log_smooth_indicator(g, s_next))
        assert capped > 0

    @pytest.mark.parametrize(
        "s,h,delta,exit_",
        [(0.0, 1.0, 4.0, "cap"), (0.0, 10.0, 0.5, "bracket"), (0.0, 10.0, None, "crossing")],
    )
    def test_returned_logs_are_the_indicator_at_the_new_level(self, monkeypatch, s, h, delta, exit_):
        g = np.array([-1.0, -0.5, 0.5, 1.0])
        if delta is None:
            # the CV at the first midpoint: the search returns that
            # midpoint, whose indicator logs it has already computed
            delta = ratio_cv(g, s, s + 0.5 * LIP_S * h)
        calls = [0]
        indicator = cbree.smoothing.log_smooth_indicator

        def counted_indicator(g, s):
            calls[0] += 1
            return indicator(g, s)

        monkeypatch.setattr(cbree.smoothing, "log_smooth_indicator", counted_indicator)
        s_next, logs = update_smoothing(g, s, h, delta)
        assert (s_next == s + LIP_S * h) == (exit_ == "cap")
        assert np.array_equal(logs, indicator(g, s_next))
        # the level s, the cap, then one per midpoint tried, and one more
        # only where the search stops at a midpoint it never tried
        expected = {"cap": 2, "crossing": 3}.get(exit_)
        if expected is not None:
            assert calls[0] == expected

    def test_search_at_large_s_meets_its_tolerance(self, monkeypatch):
        # near s = 1e12 floats are spaced wider than 1e-6, so only a
        # tolerance relative to s lets the bisection stop before its
        # 200-halving limit (about 22 indicator evaluations here)
        g = RandomStream(3).standard_normal(1000)
        calls = [0]
        indicator = cbree.smoothing.log_smooth_indicator

        def counted_indicator(g, s):
            calls[0] += 1
            return indicator(g, s)

        monkeypatch.setattr(cbree.smoothing, "log_smooth_indicator", counted_indicator)
        s_next = update_smoothing(g, 1e12, 1e12, 0.1)[0]
        assert calls[0] <= 40
        assert abs(ratio_cv(g, 1e12, s_next) - 0.1) <= 1e-6

    def test_log_indicator_calls_per_update(self, monkeypatch):
        depth = [0]
        counts = {"updates": 0, "indicator": 0}
        indicator = cbree.smoothing.log_smooth_indicator
        update = cbree.driver.update_smoothing

        def counted_indicator(g, s):
            counts["indicator"] += depth[0] > 0
            return indicator(g, s)

        def counted_update(g, s, h, delta):
            counts["updates"] += 1
            depth[0] += 1
            try:
                return update(g, s, h, delta)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cbree.smoothing, "log_smooth_indicator", counted_indicator)
        monkeypatch.setattr(cbree.driver, "update_smoothing", counted_update)
        run_cbree(get_problem("oscillator"), CbreeConfig(n_particles=1000, seed=13, max_iter=30))
        assert counts["updates"] > 5
        assert counts["indicator"] <= 3 * counts["updates"]
