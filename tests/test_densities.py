import json
import math

import numpy as np
import pytest
from scipy import integrate

from cbree.densities import (
    GaussianModel,
    VmfnModel,
    gaussian_fit,
    gaussian_logpdf,
    gaussian_sample,
    make_gaussian,
    std_normal_logpdf,
    vmfn_fit,
    vmfn_logpdf,
    vmfn_sample,
)
from cbree.numkit import RandomStream


class TestStdNormal:
    def test_1d_origin(self):
        # -0.5 ln(2 pi)
        assert std_normal_logpdf(np.zeros(1)) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_2d_origin(self):
        assert std_normal_logpdf(np.zeros(2)) == pytest.approx(-1.8378770664093453, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        assert np.allclose(std_normal_logpdf(x), std_normal_logpdf(-x))

    def test_batch_shape(self):
        out = std_normal_logpdf(np.zeros((7, 3)))
        assert out.shape == (7,)


class TestGaussian:
    def test_fit_two_points(self):
        model = gaussian_fit(np.array([[-1.0], [1.0]]))
        assert model.mean[0] == pytest.approx(0.0)
        assert model.covariance[0, 0] == pytest.approx(1.0)  # population divisor

    def test_fit_collapsed_sample(self):
        pts = np.ones((5, 2))
        model = gaussian_fit(pts, jitter=1e-8)
        eff = model.factor @ model.factor.T
        assert np.allclose(eff, 1e-8 * np.eye(2))

    def test_fit_large_sample_close_to_truth(self):
        x = RandomStream(11).standard_normal((100_000, 3))
        model = gaussian_fit(x)
        assert np.max(np.abs(model.mean)) < 0.02
        assert np.max(np.abs(model.covariance - np.eye(3))) < 0.05

    def test_logpdf_matches_std_normal(self):
        model = make_gaussian(np.zeros(3), np.eye(3))
        x = np.zeros(3)
        assert gaussian_logpdf(model, x) == pytest.approx(float(std_normal_logpdf(x)), abs=1e-12)
        y = np.array([0.3, -1.2, 0.7])
        assert gaussian_logpdf(model, y) == pytest.approx(float(std_normal_logpdf(y)), abs=1e-12)

    def test_logpdf_maximized_at_mean(self):
        model = make_gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        at_mean = gaussian_logpdf(model, model.mean)
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert gaussian_logpdf(model, model.mean + rng.normal(size=2)) < at_mean

    def test_sample_fit_round_trip(self):
        truth = make_gaussian([0.5, -1.0], [[1.5, 0.4], [0.4, 0.8]])
        sample = gaussian_sample(truth, RandomStream(5), 100_000)
        refit = gaussian_fit(sample)
        assert np.max(np.abs(refit.mean - truth.mean)) < 0.02
        assert np.max(np.abs(refit.covariance - truth.covariance)) < 0.05

    def test_round_trip_error_shrinks_with_sample_size(self):
        truth = make_gaussian([0.0, 0.0], np.eye(2))

        def err(n, seed):
            refit = gaussian_fit(gaussian_sample(truth, RandomStream(seed), n))
            return np.max(np.abs(refit.covariance - np.eye(2)))

        small = np.median([err(2_000, s) for s in range(8)])
        large = np.median([err(32_000, s + 50) for s in range(8)])
        # quadrupling J twice should cut the error ~4x; allow generous noise
        assert large < 0.6 * small

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            gaussian_fit(np.ones((1, 2)))

    def test_density_normalized_in_1d(self):
        model = make_gaussian([0.7], [[2.3]])
        total, _ = integrate.quad(lambda t: math.exp(gaussian_logpdf(model, np.array([t]))), -30, 30)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestVmfnFit:
    def test_standard_normal_moment_identities(self):
        # chi^2_d: mean(r^2) = d, var(r^2) = 2d -> shape d/2, spread d
        d = 10
        x = RandomStream(3).standard_normal((100_000, d))
        model = vmfn_fit(x)
        assert model.nakagami_shape == pytest.approx(d / 2, abs=0.2)
        assert model.nakagami_spread == pytest.approx(d, abs=0.3)
        assert model.kappa == pytest.approx(0.0, abs=0.05)
        assert not model.kappa_capped

    def test_single_ray_caps_kappa(self):
        direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
        pts = np.outer(np.linspace(0.5, 2.0, 10), direction)
        model = vmfn_fit(pts)
        assert model.kappa_capped
        assert model.kappa == 1e8
        assert np.allclose(model.mean_direction, direction)

    def test_scaling_equivariance(self):
        x = RandomStream(4).standard_normal((5_000, 5)) + 0.5
        a = vmfn_fit(x)
        b = vmfn_fit(2.0 * x)
        assert b.nakagami_spread == pytest.approx(4.0 * a.nakagami_spread, rel=1e-12)
        assert b.nakagami_shape == pytest.approx(a.nakagami_shape, rel=1e-12)
        assert np.allclose(b.mean_direction, a.mean_direction)
        assert b.kappa == pytest.approx(a.kappa, rel=1e-12)

    def test_zero_norm_point_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            vmfn_fit(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            vmfn_fit(np.ones((5, 1)))


class TestVmfnDensity:
    def test_coincides_with_std_normal(self):
        # kappa=0, shape=d/2, spread=d is exactly N(0, I)
        for d in (2, 5, 10):
            model = VmfnModel(
                mean_direction=np.eye(d)[0],
                kappa=0.0,
                nakagami_shape=d / 2.0,
                nakagami_spread=float(d),
            )
            x = RandomStream(6).standard_normal((50, d))
            assert np.allclose(vmfn_logpdf(model, x), std_normal_logpdf(x), atol=1e-8)

    def test_normalized_in_2d(self):
        model = VmfnModel(
            mean_direction=np.array([np.cos(0.71), np.sin(0.71)]),
            kappa=1.5,
            nakagami_shape=2.0,
            nakagami_spread=3.0,
        )

        def integrand(r, theta):
            x = np.array([r * np.cos(theta), r * np.sin(theta)])
            return np.exp(vmfn_logpdf(model, x)) * r

        total, abserr = integrate.dblquad(integrand, 0.0, 2.0 * np.pi, 1e-9, 14.0)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_origin_rejected(self):
        model = VmfnModel(np.array([1.0, 0.0]), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            vmfn_logpdf(model, np.zeros(2))

    def test_sample_fit_round_trip(self):
        truth = VmfnModel(
            mean_direction=np.array([3.0, 4.0, 0.0]) / 5.0,
            kappa=8.0,
            nakagami_shape=2.5,
            nakagami_spread=6.0,
        )
        sample = vmfn_sample(truth, RandomStream(8), 100_000)
        refit = vmfn_fit(sample)
        assert np.allclose(refit.mean_direction, truth.mean_direction, atol=0.02)
        assert refit.kappa == pytest.approx(truth.kappa, rel=0.1)
        assert refit.nakagami_shape == pytest.approx(truth.nakagami_shape, rel=0.1)
        assert refit.nakagami_spread == pytest.approx(truth.nakagami_spread, rel=0.05)

    def test_sampling_reproducible(self):
        model = VmfnModel(np.array([0.0, 1.0]), 3.0, 1.5, 2.0)
        a = vmfn_sample(model, RandomStream(9), 100)
        b = vmfn_sample(model, RandomStream(9), 100)
        assert np.array_equal(a, b)

    def test_high_kappa_concentrates(self):
        mu = np.array([1.0, 0.0, 0.0])
        model = VmfnModel(mu, 1e6, 5.0, 10.0)
        pts = vmfn_sample(model, RandomStream(10), 500)
        cosines = (pts / np.linalg.norm(pts, axis=1, keepdims=True)) @ mu
        assert cosines.min() > 0.99


class TestModelContracts:
    def test_importance_identity(self):
        # mean of exp(logp - logq) under q equals 1 for common support
        p = make_gaussian([0.0, 0.0, 0.0], np.eye(3))
        q = make_gaussian([0.3, -0.2, 0.1], 1.5 * np.eye(3))
        x = gaussian_sample(q, RandomStream(12), 100_000)
        ratio = np.exp(gaussian_logpdf(p, x) - gaussian_logpdf(q, x))
        se = ratio.std() / np.sqrt(len(ratio))
        assert abs(ratio.mean() - 1.0) < 3.0 * se

    def test_importance_identity_vmfn_vs_gaussian(self):
        d = 4
        q = VmfnModel(np.eye(d)[0], 0.5, d / 2.0, float(d) * 1.2)
        p = make_gaussian(np.zeros(d), np.eye(d))
        x = vmfn_sample(q, RandomStream(13), 200_000)
        ratio = np.exp(gaussian_logpdf(p, x) - vmfn_logpdf(q, x))
        se = ratio.std() / np.sqrt(len(ratio))
        assert abs(ratio.mean() - 1.0) < 3.0 * se

    def test_logpdf_finite_on_support(self):
        model = VmfnModel(np.array([0.0, 1.0]), 2.0, 1.0, 2.0)
        x = RandomStream(14).standard_normal((100, 2))
        vals = vmfn_logpdf(model, x)
        assert np.all(np.isfinite(vals))

    def test_json_round_trip_gaussian(self):
        model = make_gaussian([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        data = json.loads(json.dumps(model.to_json()))
        assert data["type"] == "gaussian"
        assert np.array_equal(data["mean"], model.mean)
        assert np.array_equal(data["cov"], model.covariance)

    def test_json_round_trip_vmfn(self):
        model = VmfnModel(np.array([0.6, 0.8]), 4.0, 2.0, 5.0)
        data = json.loads(json.dumps(model.to_json()))
        assert set(data) == {"type", "mu", "kappa", "m", "omega"}
        assert data["type"] == "vmfn"
        assert np.array_equal(data["mu"], model.mean_direction)
        assert data["kappa"] == model.kappa
        assert data["m"] == model.nakagami_shape
        assert data["omega"] == model.nakagami_spread
