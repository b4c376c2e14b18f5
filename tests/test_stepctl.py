import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cbree.cbs import Ensemble, coefficients_from_log_weights
from cbree.densities import GaussianModel, gaussian_fit
from cbree.numkit import RandomStream
from cbree.smoothing import log_smooth_indicator
from cbree.stepctl import (
    StepControllerState,
    bhat_coefficients,
    ensemble_coefficients,
    error_norm,
    initial_stepsize,
    local_error,
    moments_of_ensemble,
    moments_rhs,
    next_stepsize,
    phi_scalar,
)
from cbree.stepctl import STEP_FACTOR_MIN


def linear_g(x):
    x = np.atleast_2d(x)
    return 3.5 - x.sum(axis=1) / math.sqrt(x.shape[1])


def coefficients_at(ens, s, beta):
    """Coefficients at smoothing level ``s``, formed as the driver forms them."""
    log_w = log_smooth_indicator(ens.g_values, s) + ens.log_phi()
    return coefficients_from_log_weights(ens.points, beta * log_w, beta)


def split(theta, d):
    """Mean block and covariance block of a packed moment vector."""
    return theta[:d], theta[d:].reshape(d, d)


def pack(pair):
    """The packed ``d + d^2`` vector of a ``(mean, cov)`` pair, as the
    oracles below transcribe the moment ODE."""
    mean, cov = pair
    return np.concatenate([mean, np.reshape(cov, -1)])


def decay_rates(d):
    """Packed diagonal of the linear part: 1 on the mean, 2 on the covariance."""
    return np.concatenate([np.ones(d), 2.0 * np.ones(d * d)])


class TestMoments:
    def test_two_points_1d(self):
        ens = Ensemble(np.array([[0.0], [2.0]]), np.zeros(2))
        mean, cov = moments_of_ensemble(ens)
        assert mean.shape == (1,) and cov.shape == (1, 1)
        assert np.allclose(pack((mean, cov)), [1.0, 1.0])

    def test_repeated_point(self):
        ens = Ensemble(np.full((5, 2), 1.5), np.zeros(5))
        mean, cov = moments_of_ensemble(ens)
        assert np.allclose(mean, 1.5)
        assert np.allclose(cov, 0.0)

    def test_statistical(self):
        pts = RandomStream(0).standard_normal((1000, 2))
        mean, cov = moments_of_ensemble(Ensemble(pts, np.zeros(1000)))
        assert np.max(np.abs(mean)) < 0.15
        assert np.max(np.abs(cov - np.eye(2))) < 0.15

    @pytest.mark.parametrize("d", [1, 6, 50])
    def test_gaussian_fit_moments_match_bit_for_bit(self, d):
        # the driver hands the Gaussian proposal's mean and covariance to the
        # step controller in place of the ensemble's moments; the fit's
        # symmetrization must leave the exactly symmetric SYRK product as is
        pts = RandomStream(d).standard_normal((300, d)) * np.linspace(0.5, 2.0, d) + 0.3
        model = gaussian_fit(pts)
        mean, cov = moments_of_ensemble(Ensemble(pts, None))
        assert np.array_equal(model.mean, mean)
        assert np.array_equal(model.covariance, cov)


class TestMomentsRhs:
    def test_uniform_weights_vanish(self):
        # beta = 0: m_beta is the sample mean and c^2 the sample covariance,
        # so both blocks of the full rhs cancel exactly
        pts = RandomStream(1).standard_normal((40, 2))
        ens = Ensemble(pts, linear_g(pts))
        rhs = moments_rhs(moments_of_ensemble(ens), coefficients_at(ens, s=1.0, beta=0.0))
        assert np.max(np.abs(pack(rhs))) < 1e-12

    def test_1d_hand_case(self):
        # points {0, 2}, explicitly equal weights, beta = 1:
        # m = 1, c^2 = 2 -> rhs = (-1 + 1, -2*1 + 2*2) = (0, 2)
        ens = Ensemble(np.array([[0.0], [2.0]]), np.zeros(2))
        coeffs = coefficients_from_log_weights(ens.points, np.zeros(2), beta=1.0)
        rhs = moments_rhs(moments_of_ensemble(ens), coeffs)
        assert np.allclose(pack(rhs), [0.0, 2.0])

    def test_stage_reads_coefficients(self):
        pts = RandomStream(2).standard_normal((30, 2))
        ens = Ensemble(pts, linear_g(pts))
        coeffs = coefficients_at(ens, 0.5, 2.0)
        ctrl = StepControllerState(h_current=0.5, eps_target=1.0)
        ctrl.record(moments_of_ensemble(ens), coeffs, 0.5)
        mean, cov2 = ctrl.stages[-1]
        assert np.allclose(mean, coeffs.mean)
        assert np.allclose(cov2, 2.0 * coeffs.covariance)


class TestScalarFunctions:
    def test_phi_values(self):
        assert phi_scalar(0.0) == pytest.approx(1.0)
        assert phi_scalar(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert phi_scalar(1.0) == pytest.approx(0.632121, abs=1e-6)
        assert phi_scalar(2.0) == pytest.approx(0.432332, abs=1e-6)

    def test_bhat_values(self):
        b1, b2 = bhat_coefficients(0.0)
        assert b1 == pytest.approx(0.0, abs=1e-12)
        assert b2 == pytest.approx(1.0, abs=1e-12)
        b1, b2 = bhat_coefficients(1.0)
        assert b2 == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
        assert b2 == pytest.approx(0.735759, abs=1e-6)
        assert b1 == pytest.approx(1.0 - 3.0 * math.exp(-1.0), abs=1e-12)
        assert b1 == pytest.approx(-0.103638, abs=1e-6)

    @pytest.mark.parametrize("z", [0.0, 1e-5, 0.5, 3.0, math.inf])
    def test_python_floats(self, z):
        assert type(phi_scalar(z)) is float
        assert [type(b) for b in bhat_coefficients(z)] == [float, float]

    def test_consistency_identity(self):
        for z in np.linspace(-3.0, 8.0, 61).tolist():
            b1, b2 = bhat_coefficients(z)
            assert b1 + b2 == pytest.approx(phi_scalar(z), abs=1e-12)

    def test_taylor_branch_continuity(self):
        # the series and the closed form both match the exact weights just
        # below and above the switch point, and well inside the series
        cut = 2e-3
        for z in (1e-5, -1e-5, cut * (1 - 1e-9), cut * (1 + 1e-9), -cut):
            assert rel_error(phi_scalar(z), exact_phi(z)) <= 1e-12
            assert rel_error(bhat_coefficients(z)[1], exact_b2(z)) <= 1e-12

    def test_matches_exact_series(self):
        grid = np.geomspace(1e-9, 3.0, 120)
        for z in np.concatenate([[0.0], grid, -grid]).tolist():
            phi, b2 = exact_phi(z), exact_b2(z)
            b1_got, b2_got = bhat_coefficients(z)
            assert rel_error(phi_scalar(z), phi) <= 1e-12, z
            assert rel_error(b2_got, b2) <= 1e-12, z
            assert abs(float(Fraction(b1_got) - (phi - b2))) <= 1e-12, z

    @pytest.mark.parametrize("z", [1e154, 1e200, 1e300, 1e308, 1.7e308, math.inf])
    def test_huge_argument_stays_finite(self, z):
        # z * z would overflow here; b2 tends to 2 / z and b1 + b2 is still phi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b1, b2 = bhat_coefficients(z)
            phi = phi_scalar(z)
        assert b2 == pytest.approx(2.0 / z, rel=1e-12, abs=0.0)
        assert b1 + b2 == phi


def exact_series(z, offset: int) -> Fraction:
    """``sum_k (-z)^k / (k + offset)!`` in exact rational arithmetic, summed
    until the terms fall below 1e-40 (|z| <= 3 here)."""
    x = Fraction(float(z))
    term = Fraction(1, math.factorial(offset))
    total, k = Fraction(0), 0
    while abs(term) > Fraction(1, 10**40):
        total += term
        k += 1
        term = term * -x / (k + offset)
    return total


def exact_phi(z) -> Fraction:
    """``(1 - exp(-z)) / z`` as its exact power series."""
    return exact_series(z, 1)


def exact_b2(z) -> Fraction:
    """``2 (exp(-z) + z - 1) / z^2`` as its exact power series."""
    return 2 * exact_series(z, 2)


def rel_error(got, exact: Fraction) -> float:
    return float(abs(Fraction(float(got)) - exact) / exact)


def exp_euler_trajectory(theta0, stage_fn, h, steps, rates):
    """Reference exponential Euler recursion on the packed moment ODE."""
    thetas = [np.asarray(theta0, dtype=float)]
    stages = []
    for k in range(steps):
        theta = thetas[-1]
        stage = stage_fn(k * h, theta)
        stages.append(stage)
        z = h * rates
        thetas.append(np.exp(-z) * theta - h * np.expm1(-z) / z * stage)
    return thetas, stages


def block_local_error(thetas, stages, d, h, eps):
    """``local_error`` on the block pairs of packed oracle vectors."""
    return local_error(
        split(thetas[0], d), split(thetas[2], d), split(stages[0], d), split(stages[1], d), h, eps
    )


class TestLocalError:
    def test_pure_decay_is_exact(self):
        # zero nonlinearity: both discretizations reproduce exp(-t A) exactly
        rates = decay_rates(1)
        theta0 = np.array([1.0, 2.0])
        thetas, stages = exp_euler_trajectory(theta0, lambda t, x: np.zeros(2), 0.3, 2, rates)
        err = block_local_error(thetas, stages, 1, 0.3, 1.0)
        assert err < 1e-14

    def test_matches_from_scratch_oracle(self):
        # independent transcription of the comparator, weights and norm
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            m = d + d * d
            rates = decay_rates(d)
            h = float(rng.uniform(0.05, 0.8))
            eps = float(rng.uniform(0.2, 2.0))

            def stage_fn(t, x):
                return np.sin(t + x[:m] * 0.1) + 0.5

            thetas, stages = exp_euler_trajectory(rng.normal(size=m), stage_fn, h, 2, rates)
            got = block_local_error(thetas, stages, d, h, eps)

            hh = 2.0 * h
            z = hh * rates
            b2 = 2.0 * (np.exp(-z) + z - 1.0) / z**2
            b1 = (1.0 - np.exp(-z)) / z - b2
            comparator = np.exp(-z) * thetas[0] + hh * (b1 * stages[0] + b2 * stages[1])
            psi = thetas[2]
            gamma = m * (eps + eps * np.maximum(np.abs(psi), np.abs(thetas[0])))
            expected = math.sqrt(np.sum((comparator - psi) ** 2 / gamma))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_scalar_ode_with_known_forcing(self):
        # d/dt x + x = sin(t) packed into the d=1 moment layout (rate-2 block
        # driven analogously); err agrees with the independent transcription
        rates = decay_rates(1)

        def stage_fn(t, x):
            return np.array([math.sin(t), math.cos(2.0 * t)])

        h = 0.25
        thetas, stages = exp_euler_trajectory(np.array([0.5, 1.0]), stage_fn, h, 2, rates)
        got = block_local_error(thetas, stages, 1, h, 1.0)
        hh, z = 2.0 * h, 2.0 * h * rates
        b2 = 2.0 * (np.exp(-z) + z - 1.0) / z**2
        b1 = (1.0 - np.exp(-z)) / z - b2
        comparator = np.exp(-z) * thetas[0] + hh * (b1 * stages[0] + b2 * stages[1])
        gamma = 2.0 * (1.0 + np.maximum(np.abs(thetas[2]), np.abs(thetas[0])))
        expected = math.sqrt(float(np.sum((comparator - thetas[2]) ** 2 / gamma)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_eps_homogeneity(self):
        rng = np.random.default_rng(4)
        t0, _, t2 = (split(v, 2) for v in rng.normal(size=(3, 6)))
        s0, s1 = (split(v, 2) for v in rng.normal(size=(2, 6)))
        base = local_error(t0, t2, s0, s1, 0.4, 1.0)
        double = local_error(t0, t2, s0, s1, 0.4, 2.0)
        assert double == pytest.approx(base / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("h", [6e307, 1e308, math.inf])
    def test_overflowed_step_takes_the_limit_weights(self, h):
        # z = 2 h rate overflows in the covariance block at 6e307 and in both
        # blocks above; hh b1 and hh b2 are then -1/rate and 2/rate, the
        # values they already have to rounding at h = 1e300
        rng = np.random.default_rng(5)
        t0, _, t2 = (split(v, 2) for v in rng.normal(size=(3, 6)))
        s0, s1 = (split(v, 2) for v in rng.normal(size=(2, 6)))
        err = local_error(t0, t2, s0, s1, h, 1.0)
        assert math.isfinite(err)
        assert err == pytest.approx(local_error(t0, t2, s0, s1, 1e300, 1.0), rel=1e-12)


class TestNextStepsize:
    def test_unit_error_keeps_h(self):
        assert next_stepsize(1.0, 0.7) == pytest.approx(0.7)

    def test_quarter(self):
        assert next_stepsize(4.0, 0.8) == pytest.approx(0.4)

    def test_zero_error_capped_growth(self):
        assert next_stepsize(0.0, 1.0) == pytest.approx(5.0)

    def test_non_finite_error_takes_the_minimum_factor(self):
        # an overflowed h makes the error estimate inf * 0 = NaN; it must not
        # read as a zero error and grow h further
        for err in (math.nan, math.inf):
            assert next_stepsize(err, 2.0) == 2.0 * STEP_FACTOR_MIN

    def test_clamps(self):
        assert next_stepsize(1e6, 1.0) == pytest.approx(0.2)
        assert next_stepsize(1e-6, 1.0) == pytest.approx(5.0)

    def test_monotone_in_err(self):
        errs = np.linspace(0.05, 30.0, 50)
        hs = [next_stepsize(e, 1.0) for e in errs]
        assert np.all(np.diff(hs) <= 1e-15)


class TestExpEulerIdentity:
    def test_step_map_equals_exp_euler_on_frozen_coefficients(self):
        # moment recursion of the particle step: E' = a E + (1-a) m,
        # C' = a^2 C + (1-a^2) c^2 -- identical to one exponential Euler step
        pts = RandomStream(6).standard_normal((500, 2))
        ens = Ensemble(pts, linear_g(pts))
        h = 0.37
        alpha = math.exp(-h)
        coeffs = coefficients_at(ens, 1.2, 2.5)
        mean, cov = moments_of_ensemble(ens)
        recursion = (
            alpha * mean + (1.0 - alpha) * coeffs.mean,
            alpha**2 * cov + (1.0 - alpha**2) * coeffs.covariance,
        )
        stage = (coeffs.mean, 2.0 * coeffs.covariance)
        euler = [
            math.exp(-h * rate) * block + h * phi_scalar(h * rate) * s
            for rate, block, s in zip((1.0, 2.0), (mean, cov), stage)
        ]
        assert np.max(np.abs(pack(recursion) - pack(euler))) < 1e-14


class TestInitialStepsize:
    def test_formula_transcription_oracle(self):
        # re-derive h0, the probe and h1 from the raw formulas, sharing only
        # the seeded noise stream with the implementation
        J, d, s, beta, eps = 200, 2, 0.0, 1.7, 0.9
        pts = RandomStream(7).standard_normal((J, d))
        ens = Ensemble(pts, linear_g(pts))
        got_h = initial_stepsize(ens, beta, eps, RandomStream(8))

        # oracle: direct softmax coefficients at the start level s = 0
        logw = beta * (
            np.log(0.5 * (1.0 - (s * ens.g_values) / np.sqrt((s * ens.g_values) ** 2 + 1.0)))
            - 0.5 * d * math.log(2.0 * math.pi)
            - 0.5 * np.sum(pts**2, axis=1)
        )
        w = np.exp(logw - logw.max())
        w /= w.sum()
        m_beta = w @ pts
        c2 = (1.0 + beta) * ((w[:, None] * (pts - m_beta)).T @ (pts - m_beta))
        mean, cov = pts.mean(axis=0), np.cov(pts.T, bias=True)
        theta0 = np.concatenate([mean, cov.reshape(-1)])
        g0 = np.concatenate([(-mean + m_beta), (-2.0 * cov + 2.0 * c2).reshape(-1)])
        mdim = d + d * d
        gamma = mdim * (eps + eps * np.abs(theta0))

        def norm(v):
            return math.sqrt(float(np.sum(v * v / gamma)))

        h0 = 0.01 * norm(theta0) / norm(g0)
        alpha = math.exp(-h0)
        noise = RandomStream(8).standard_normal((J, d))
        lower = np.linalg.cholesky(0.5 * (c2 + c2.T))
        probe_pts = alpha * pts + (1.0 - alpha) * m_beta + math.sqrt(1.0 - alpha**2) * noise @ lower.T

        g_probe = np.asarray(linear_g(probe_pts))
        logw1 = beta * (
            np.log(0.5 * (1.0 - (s * g_probe) / np.sqrt((s * g_probe) ** 2 + 1.0)))
            - 0.5 * d * math.log(2.0 * math.pi)
            - 0.5 * np.sum(probe_pts**2, axis=1)
        )
        w1 = np.exp(logw1 - logw1.max())
        w1 /= w1.sum()
        m1 = w1 @ probe_pts
        c21 = (1.0 + beta) * ((w1[:, None] * (probe_pts - m1)).T @ (probe_pts - m1))
        mean1, cov1 = probe_pts.mean(axis=0), np.cov(probe_pts.T, bias=True)
        theta1 = np.concatenate([mean1, cov1.reshape(-1)])
        g1 = np.concatenate([(-mean1 + m1), (-2.0 * cov1 + 2.0 * c21).reshape(-1)])
        denom = max(norm(g1 - g0) / h0, norm(g0))
        h1 = math.sqrt(0.01 / denom)
        assert got_h == pytest.approx(max(100.0 * h0, h1), rel=1e-12)

    def test_stationary_guard(self):
        # beta = 0 makes the full rhs vanish identically -> guard path
        pts = RandomStream(9).standard_normal((100, 2))
        ens = Ensemble(pts, linear_g(pts))
        h = initial_stepsize(ens, 0.0, 1.0, RandomStream(10))
        assert math.isfinite(h)
        assert h >= 100.0 * 1e-6

    def test_h_at_least_hundred_h0(self):
        for seed in range(4):
            pts = RandomStream(seed).standard_normal((150, 3))
            ens = Ensemble(pts, linear_g(pts))
            h = initial_stepsize(ens, 1.5, 1.0, RandomStream(seed + 40))
            # reconstruct h0 from the formulas to bound the max rule
            theta0 = moments_of_ensemble(ens)
            g0 = moments_rhs(theta0, ensemble_coefficients(ens, 1.5))
            h0 = 0.01 * error_norm(theta0, theta0, 1.0) / error_norm(g0, theta0, 1.0)
            assert h >= 100.0 * h0 - 1e-12


def random_coeffs(rng):
    """d = 1 coefficients with random entries; the controller reads no factor."""
    return GaussianModel(mean=rng.normal(size=1), covariance=rng.normal(size=(1, 1)), factor=None)


class TestControllerState:
    def test_fires_only_on_even_iterations_from_two(self):
        ctrl = StepControllerState(h_current=0.5, eps_target=1.0)
        rng = np.random.default_rng(11)
        fired = []
        for n in range(6):
            moments = split(rng.normal(size=2), 1)
            h_next, err = ctrl.propose(moments, n)
            fired.append(not math.isnan(err))
            ctrl.record(moments, random_coeffs(rng), h_next)
        assert fired == [False, False, True, False, True, False]

    def test_odd_iterations_keep_h(self):
        ctrl = StepControllerState(h_current=0.5, eps_target=1.0)
        rng = np.random.default_rng(12)
        ctrl.record(split(rng.normal(size=2), 1), random_coeffs(rng), 0.5)
        h_next, err = ctrl.propose(split(rng.normal(size=2), 1), 1)
        assert math.isnan(err) and h_next == 0.5
