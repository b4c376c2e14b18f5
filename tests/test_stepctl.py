import math

import numpy as np
import pytest

from cbree.cbs import Ensemble, cbs_step, ensemble_coefficients
from cbree.numkit import RandomStream
from cbree.stepctl import (
    StepControllerState,
    bhat_coefficients,
    decay_rates,
    error_weights,
    initial_stepsize,
    local_error,
    moments_of_ensemble,
    moments_rhs,
    next_stepsize,
    pack_moments,
    phi_scalar,
    stage_from_coefficients,
    unpack_moments,
    weighted_error_norm,
)


def linear_g(x):
    x = np.atleast_2d(x)
    return 3.5 - x.sum(axis=1) / math.sqrt(x.shape[1])


class TestMoments:
    def test_two_points_1d(self):
        ens = Ensemble(np.array([[0.0], [2.0]]), np.zeros(2))
        assert np.allclose(moments_of_ensemble(ens), [1.0, 1.0])

    def test_repeated_point(self):
        ens = Ensemble(np.full((5, 2), 1.5), np.zeros(5))
        theta = moments_of_ensemble(ens)
        mean, cov = unpack_moments(theta, 2)
        assert np.allclose(mean, 1.5)
        assert np.allclose(cov, 0.0)

    def test_statistical(self):
        pts = RandomStream(0).standard_normal((1000, 2))
        theta = moments_of_ensemble(Ensemble(pts, np.zeros(1000)))
        assert np.max(np.abs(theta - pack_moments(np.zeros(2), np.eye(2)))) < 0.15

    def test_pack_round_trip(self):
        mean = np.array([1.0, -2.0, 0.5])
        cov = np.arange(9.0).reshape(3, 3)
        m, c = unpack_moments(pack_moments(mean, cov), 3)
        assert np.array_equal(m, mean)
        assert np.array_equal(c, cov)


class TestMomentsRhs:
    def test_uniform_weights_vanish(self):
        # beta = 0: m_beta is the sample mean and c^2 the sample covariance,
        # so both blocks of the full rhs cancel exactly
        pts = RandomStream(1).standard_normal((40, 2))
        ens = Ensemble(pts, linear_g(pts))
        rhs = moments_rhs(ens, s=1.0, beta=0.0)
        assert np.max(np.abs(rhs)) < 1e-12

    def test_1d_hand_case(self):
        # points {0, 2}, explicitly equal weights, beta = 1:
        # m = 1, c^2 = 2 -> rhs = (-1 + 1, -2*1 + 2*2) = (0, 2)
        from cbree.cbs import coefficients_from_log_weights

        ens = Ensemble(np.array([[0.0], [2.0]]), np.zeros(2))
        coeffs = coefficients_from_log_weights(ens.points, np.zeros(2), beta=1.0)
        rhs = moments_rhs(ens, s=5.0, beta=1.0, coeffs=coeffs)
        assert np.allclose(rhs, [0.0, 2.0])

    def test_stage_reads_coefficients(self):
        pts = RandomStream(2).standard_normal((30, 2))
        ens = Ensemble(pts, linear_g(pts))
        coeffs = ensemble_coefficients(ens, 0.5, 2.0)
        stage = stage_from_coefficients(coeffs)
        mean, cov2 = unpack_moments(stage, 2)
        assert np.allclose(mean, coeffs.m_beta)
        assert np.allclose(cov2, 2.0 * coeffs.c_beta_sq)


class TestScalarFunctions:
    def test_phi_values(self):
        assert float(phi_scalar(0.0)) == pytest.approx(1.0)
        assert float(phi_scalar(1.0)) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert float(phi_scalar(1.0)) == pytest.approx(0.632121, abs=1e-6)
        assert float(phi_scalar(2.0)) == pytest.approx(0.432332, abs=1e-6)

    def test_bhat_values(self):
        b1, b2 = bhat_coefficients(0.0)
        assert float(b1) == pytest.approx(0.0, abs=1e-12)
        assert float(b2) == pytest.approx(1.0, abs=1e-12)
        b1, b2 = bhat_coefficients(1.0)
        assert float(b2) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
        assert float(b2) == pytest.approx(0.735759, abs=1e-6)
        assert float(b1) == pytest.approx(1.0 - 3.0 * math.exp(-1.0), abs=1e-12)
        assert float(b1) == pytest.approx(-0.103638, abs=1e-6)

    def test_consistency_identity(self):
        z = np.linspace(-3.0, 8.0, 61)
        b1, b2 = bhat_coefficients(z)
        assert np.allclose(b1 + b2, phi_scalar(z), atol=1e-12)

    def test_taylor_branch_continuity(self):
        # Taylor and direct formulas agree at the switch point
        for z in (1e-5, -1e-5):
            direct_phi = (1.0 - math.exp(-z)) / z
            assert float(phi_scalar(z)) == pytest.approx(direct_phi, abs=1e-12)
            direct_b2 = 2.0 * (math.exp(-z) + z - 1.0) / (z * z)
            _, b2 = bhat_coefficients(z)
            assert float(b2) == pytest.approx(direct_b2, abs=1e-12)


def exp_euler_trajectory(theta0, stage_fn, h, steps, rates):
    """Reference exponential Euler recursion on the semilinear moment ODE."""
    thetas = [np.asarray(theta0, dtype=float)]
    stages = []
    for k in range(steps):
        theta = thetas[-1]
        stage = stage_fn(k * h, theta)
        stages.append(stage)
        z = h * rates
        thetas.append(np.exp(-z) * theta + h * phi_scalar(z) * stage)
    return thetas, stages


class TestLocalError:
    def test_pure_decay_is_exact(self):
        # zero nonlinearity: both discretizations reproduce exp(-t A) exactly
        rates = decay_rates(1)
        theta0 = np.array([1.0, 2.0])
        thetas, stages = exp_euler_trajectory(theta0, lambda t, x: np.zeros(2), 0.3, 2, rates)
        err = local_error(thetas[0], thetas[2], stages[0], stages[1], 0.3, 1.0)
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
            got = local_error(thetas[0], thetas[2], stages[0], stages[1], h, eps)

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
        got = local_error(thetas[0], thetas[2], stages[0], stages[1], h, 1.0)
        hh, z = 2.0 * h, 2.0 * h * rates
        b2 = 2.0 * (np.exp(-z) + z - 1.0) / z**2
        b1 = (1.0 - np.exp(-z)) / z - b2
        comparator = np.exp(-z) * thetas[0] + hh * (b1 * stages[0] + b2 * stages[1])
        gamma = 2.0 * (1.0 + np.maximum(np.abs(thetas[2]), np.abs(thetas[0])))
        expected = math.sqrt(float(np.sum((comparator - thetas[2]) ** 2 / gamma)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_eps_homogeneity(self):
        rng = np.random.default_rng(4)
        t0, _, t2 = rng.normal(size=(3, 6))
        s0, s1 = rng.normal(size=(2, 6))
        base = local_error(t0, t2, s0, s1, 0.4, 1.0)
        double = local_error(t0, t2, s0, s1, 0.4, 2.0)
        assert double == pytest.approx(base / math.sqrt(2.0), rel=1e-12)


class TestNextStepsize:
    def test_unit_error_keeps_h(self):
        assert next_stepsize(1.0, 0.7) == pytest.approx(0.7)

    def test_quarter(self):
        assert next_stepsize(4.0, 0.8) == pytest.approx(0.4)

    def test_zero_error_capped_growth(self):
        assert next_stepsize(0.0, 1.0) == pytest.approx(5.0)

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
        coeffs = ensemble_coefficients(ens, 1.2, 2.5)
        theta = moments_of_ensemble(ens)
        mean, cov = unpack_moments(theta, 2)
        recursion = pack_moments(
            alpha * mean + (1.0 - alpha) * coeffs.m_beta,
            alpha**2 * cov + (1.0 - alpha**2) * coeffs.c_beta_sq,
        )
        z = h * decay_rates(2)
        euler = np.exp(-z) * theta + h * phi_scalar(z) * stage_from_coefficients(coeffs)
        assert np.max(np.abs(recursion - euler)) < 1e-14


class TestInitialStepsize:
    def test_formula_transcription_oracle(self):
        # re-derive h0, h1 and the probe from the raw formulas, sharing only
        # the seeded noise stream with the implementation
        J, d, s, beta, eps = 200, 2, 0.8, 1.7, 0.9
        pts = RandomStream(7).standard_normal((J, d))
        ens = Ensemble(pts, linear_g(pts))
        got_h, got_probe, got_cost = initial_stepsize(
            ens, s, beta, eps, RandomStream(8), linear_g
        )
        assert got_cost == J

        # oracle: direct softmax coefficients
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
        assert np.allclose(got_probe.points, probe_pts, atol=1e-12)

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
        h, probe, cost = initial_stepsize(ens, 0.0, 0.0, 1.0, RandomStream(10), linear_g)
        assert math.isfinite(h)
        assert h >= 100.0 * 1e-6
        assert cost == 100

    def test_h_at_least_hundred_h0(self):
        for seed in range(4):
            pts = RandomStream(seed).standard_normal((150, 3))
            ens = Ensemble(pts, linear_g(pts))
            h, _, _ = initial_stepsize(ens, 1.0, 1.5, 1.0, RandomStream(seed + 40), linear_g)
            # reconstruct h0 from the formulas to bound the max rule
            theta0 = moments_of_ensemble(ens)
            g0 = moments_rhs(ens, 1.0, 1.5, theta=theta0)
            gamma = error_weights(theta0, 1.0, 1.0)
            h0 = 0.01 * weighted_error_norm(theta0, gamma) / weighted_error_norm(g0, gamma)
            assert h >= 100.0 * h0 - 1e-12


class TestControllerState:
    def test_fires_only_on_even_iterations_from_two(self):
        ctrl = StepControllerState(h_current=0.5, eps_target=1.0)
        rng = np.random.default_rng(11)
        fired = []
        for n in range(6):
            theta = rng.normal(size=2)
            h_next, err = ctrl.propose(theta, n)
            fired.append(err is not None)
            ctrl.record(theta, rng.normal(size=2), h_next)
        assert fired == [False, False, True, False, True, False]

    def test_odd_iterations_keep_h(self):
        ctrl = StepControllerState(h_current=0.5, eps_target=1.0)
        rng = np.random.default_rng(12)
        theta = rng.normal(size=2)
        ctrl.record(theta, rng.normal(size=2), 0.5)
        h_next, err = ctrl.propose(rng.normal(size=2), 1)
        assert err is None and h_next == 0.5
