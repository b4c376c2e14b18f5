import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ive

from cbree.cbs import coefficients_from_log_weights
from cbree.densities import (
    KAPPA_CAP,
    NAKAGAMI_SHAPE_MAX,
    NAKAGAMI_SHAPE_MIN,
    GaussianModel,
    VmfnModel,
    _log_bessel_i,
    _log_vmf_normalizer,
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
        model = gaussian_fit(pts)
        eff = model.factor @ model.factor.T
        assert np.allclose(eff, 1e-10 * np.eye(2), atol=0.0)

    def test_fit_large_sample_close_to_truth(self):
        x = RandomStream(11).standard_normal((100_000, 3))
        model = gaussian_fit(x)
        assert np.max(np.abs(model.mean)) < 0.02
        assert np.max(np.abs(model.covariance - np.eye(3))) < 0.05

    def test_logpdf_matches_std_normal(self):
        model = make_gaussian(np.zeros(3), np.eye(3))
        x = np.array([[0.0, 0.0, 0.0], [0.3, -1.2, 0.7]])
        assert np.allclose(gaussian_logpdf(model, x), std_normal_logpdf(x), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "scaling, cond_range",
        [
            # a rotated, well-conditioned spread
            ("rotated", (1.5, 3.0)),
            # axis scales from 1 down to 10^-5.25: cond(factor) about 1e5, and
            # the dense reference below stays exact to rounding (on rotated
            # fits this ill-conditioned it is itself off by ~1e-6)
            ("graded", (5e4, 2e5)),
        ],
    )
    def test_logpdf_matches_dense_reference_d50(self, scaling, cond_range):
        d = 50
        stream = RandomStream(40)
        if scaling == "rotated":
            q, _ = np.linalg.qr(stream.standard_normal((d, d)))
            spread = (q * np.linspace(1.0, 2.0, d)).T
        else:
            spread = np.diag(np.logspace(0.0, -5.25, d))
        sample = 1.5 + stream.standard_normal((4000, d)) @ spread
        model = gaussian_fit(sample)
        assert cond_range[0] < np.linalg.cond(model.factor) < cond_range[1]
        x = sample[:400]
        cov = model.factor @ model.factor.T
        _, log_det = np.linalg.slogdet(cov)
        centered = x - model.mean
        quad = np.sum(centered * np.linalg.solve(cov, centered.T).T, axis=1)
        reference = -0.5 * (d * math.log(2.0 * math.pi) + log_det + quad)
        # measured 1.4e-14 (rotated) and 2.8e-14 (graded, cond 8.6e4) on these
        # fits, at most 1.4e-13 over 40 more seeds, with |logpdf| up to ~240
        assert np.max(np.abs(gaussian_logpdf(model, x) - reference)) < 2e-13
        work = np.empty((2,) + x.shape)
        assert np.array_equal(gaussian_logpdf(model, x, work), gaussian_logpdf(model, x))

    def test_logpdf_maximized_at_mean(self):
        model = make_gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
        at_mean = gaussian_logpdf(model, model.mean[None, :])[0]
        rng = np.random.default_rng(1)
        assert np.all(gaussian_logpdf(model, model.mean + rng.normal(size=(20, 2))) < at_mean)

    def test_sample_fit_round_trip(self):
        truth = make_gaussian([0.5, -1.0], [[1.5, 0.4], [0.4, 0.8]])
        sample = gaussian_sample(truth, RandomStream(5).standard_normal((100_000, 2)))
        refit = gaussian_fit(sample)
        assert np.max(np.abs(refit.mean - truth.mean)) < 0.02
        assert np.max(np.abs(refit.covariance - truth.covariance)) < 0.05

    def test_predrawn_normals_reproduce_the_stream_draw(self):
        truth = make_gaussian(np.arange(6.0), np.eye(6) + 0.3)
        inline = gaussian_sample(truth, RandomStream(6).standard_normal((500, 6)))
        normals = RandomStream(6).standard_normal((500, 6))
        kept = normals.copy()
        out = np.empty((500, 6))
        ahead = gaussian_sample(truth, normals, out)
        assert ahead is out
        assert np.array_equal(ahead, inline)
        assert np.array_equal(normals, kept)
        # the product is formed in out and the mean added to it, which
        # rounds as mean + product does
        assert np.array_equal(ahead, truth.mean + normals @ truth.factor.T)

    def test_round_trip_error_shrinks_with_sample_size(self):
        truth = make_gaussian([0.0, 0.0], np.eye(2))

        def err(n, seed):
            refit = gaussian_fit(gaussian_sample(truth, RandomStream(seed).standard_normal((n, 2))))
            return np.max(np.abs(refit.covariance - np.eye(2)))

        small = np.median([err(2_000, s) for s in range(8)])
        large = np.median([err(32_000, s + 50) for s in range(8)])
        # quadrupling J twice should cut the error ~4x; allow generous noise
        assert large < 0.6 * small

    @pytest.mark.parametrize("d", [6, 50])
    def test_centred_sample_of_the_fit_gives_the_fresh_logpdf_bitwise(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(700, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
        work = np.empty((2, 700, d))
        model = gaussian_fit(x, work[0])
        shared = gaussian_logpdf(model, x, work)
        assert np.array_equal(shared, gaussian_logpdf(model, x))
        assert np.array_equal(shared, gaussian_logpdf(model, x, np.empty((2, 700, d))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_covariance_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_gaussian([0.0, 0.0], [[bad, 0.0], [0.0, 1.0]])
        cov = np.eye(50)
        cov[3, 7] = cov[7, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            make_gaussian(np.zeros(50), cov)

    def test_whitening_inverts_the_factor_d50(self):
        d = 50
        a = np.random.default_rng(41).normal(size=(d, d))
        model = make_gaussian(np.zeros(d), a @ a.T / d + 0.1 * np.eye(d))
        assert np.max(np.abs(model.factor.T @ model.whiten - np.eye(d))) < 1e-13
        assert np.array_equal(np.triu(model.whiten), model.whiten)

    @pytest.mark.parametrize("kind", ["zero_row", "pairs"])
    def test_singular_factor_rejected_d50(self, kind):
        # rank-deficient covariances whose factor has an exactly zero pivot
        d = 50
        if kind == "pairs":
            cov = np.kron(np.eye(d // 2), np.ones((2, 2)))
        else:
            a = np.random.default_rng(42).normal(size=(d, d))
            cov = a @ a.T / d
            cov[-1, :] = cov[:, -1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            make_gaussian(np.zeros(d), cov, jitter=0.0)

    def test_zero_pivot_model_builds_and_fails_on_first_use(self):
        factor = np.diag([1.0, 0.0, 2.0])
        model = GaussianModel(mean=np.zeros(3), covariance=factor @ factor.T, factor=factor)
        with pytest.raises(np.linalg.LinAlgError):
            model.log_det
        with pytest.raises(np.linalg.LinAlgError):
            model.whiten

    def test_collapsed_ensemble_coefficients_build_without_a_log_det(self):
        # all points at 0: the scaled covariance, its jitter and so its
        # factor are exactly 0, which only the law's log_det rejects
        coeffs = coefficients_from_log_weights(np.zeros((20, 4)), np.zeros(20), beta=1.0)
        assert not np.any(coeffs.factor)
        with pytest.raises(np.linalg.LinAlgError):
            coeffs.log_det

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            gaussian_fit(np.ones((1, 2)))

    def test_density_normalized_in_1d(self):
        model = make_gaussian([0.7], [[2.3]])
        total, _ = integrate.quad(lambda t: math.exp(gaussian_logpdf(model, np.array([[t]]))[0]), -30, 30)
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

    def test_near_collinear_caps_kappa(self):
        # rbar = cos(4e-5) stays below 1 - 1e-12, yet the concentration
        # formula gives about 6e8, above the cap
        eps = 4e-5
        pts = np.array([[math.cos(eps), math.sin(eps)], [math.cos(eps), -math.sin(eps)]])
        pts = np.repeat(pts, 5, axis=0) * np.linspace(0.5, 2.0, 10)[:, None]
        rbar = np.linalg.norm((pts / np.linalg.norm(pts, axis=1, keepdims=True)).mean(axis=0))
        assert rbar < 1.0 - 1e-12
        model = vmfn_fit(pts)
        assert model.kappa_capped
        assert model.kappa == 1e8
        assert np.allclose(model.mean_direction, [1.0, 0.0])

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
            x = np.array([[r * np.cos(theta), r * np.sin(theta)]])
            return np.exp(vmfn_logpdf(model, x)[0]) * r

        total, abserr = integrate.dblquad(integrand, 0.0, 2.0 * np.pi, 1e-9, 14.0)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_origin_rejected(self):
        model = VmfnModel(np.array([1.0, 0.0]), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            vmfn_logpdf(model, np.zeros((1, 2)))

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

    @pytest.mark.parametrize("d", [2, 5, 50])
    def test_zero_kappa_directions_are_uniform(self, d):
        # Wood's scheme at kappa = 0 accepts every candidate; uniform
        # directions have a vanishing mean and E[x_1^2] = 1 / d
        model = VmfnModel(np.eye(d)[0], 0.0, 1.0, 1.0)
        pts = vmfn_sample(model, RandomStream(15), 200_000)
        dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.linalg.norm(dirs.mean(axis=0)) < 0.01
        assert d * np.mean(dirs[:, 0] ** 2) == pytest.approx(1.0, abs=0.01)

    @staticmethod
    def reference_vmfn_sample(model, stream, n):
        # the sampler as first written, with the draws in the stream's order:
        # the normals, Wood's rejection scheme, the unit tangent scaled by
        # sqrt(1 - w^2) plus w mu, then the radius
        mu, kappa = model.mean_direction, model.kappa
        d = mu.shape[0]
        xi = stream.standard_normal((n, d))
        b = (d - 1.0) / (2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2))
        x0 = (1.0 - b) / (1.0 + b)
        c = kappa * x0 + (d - 1.0) * math.log1p(-x0 * x0)
        w = np.empty(0)
        while w.size < n:
            z = stream.beta(0.5 * (d - 1.0), 0.5 * (d - 1.0), size=n - w.size)
            cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
            logu = np.log(stream.uniform(size=n - w.size))
            accept = kappa * cand + (d - 1.0) * np.log(1.0 - x0 * cand) - c >= logu
            w = np.concatenate([w, cand[accept]])
        tangent = xi - np.outer(xi @ mu, mu)
        length = np.linalg.norm(tangent, axis=1)
        dirs = tangent / length[:, None]
        dirs = dirs * np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] + np.outer(w, mu)
        m, om = model.nakagami_shape, model.nakagami_spread
        points = dirs * np.sqrt(stream.gamma(m, om / m, size=n))[:, None]
        return points, np.linalg.norm(xi, axis=1) / length

    @pytest.mark.parametrize("d,kappa", [(2, 3.0), (6, 0.5), (50, 40.0), (50, 1e6)])
    def test_sample_matches_reference_and_draw_count(self, d, kappa):
        mu = RandomStream(16).standard_normal(d)
        model = VmfnModel(mu / np.linalg.norm(mu), kappa, 2.5, float(d))
        got_stream, ref_stream = RandomStream(17), RandomStream(17)
        out = np.empty((3000, d))
        got = vmfn_sample(model, got_stream, 3000, out)
        want, condition = self.reference_vmfn_sample(model, ref_stream, 3000)
        assert got is out
        # projecting xi onto the tangent space cancels when xi is nearly
        # parallel to mu: both ways of rounding it are then accurate only to
        # eps |xi| / |tangent| relative, so the error is measured in that unit
        radius = np.linalg.norm(want, axis=1)
        err = np.abs(got - want) / (radius * condition)[:, None]
        assert np.max(err) <= 1e-13
        # the same number of draws: the streams go on in step
        assert got_stream.random() == ref_stream.random()

    @pytest.mark.parametrize("kappa", [0.0, 40.0, 1e6])
    def test_stream_gives_normals_then_cosines_then_radii(self, kappa):
        calls = []

        class RecordingStream(RandomStream):
            def standard_normal(self, *args, **kwargs):
                calls.append("normal")
                return super().standard_normal(*args, **kwargs)

            def beta(self, *args, **kwargs):
                calls.append("beta")
                return super().beta(*args, **kwargs)

            def uniform(self, *args, **kwargs):
                calls.append("uniform")
                return super().uniform(*args, **kwargs)

            def gamma(self, *args, **kwargs):
                calls.append("gamma")
                return super().gamma(*args, **kwargs)

        model = VmfnModel(np.eye(50)[0], kappa, 2.5, 50.0)
        vmfn_sample(model, RecordingStream(18), 2000)
        rounds = (len(calls) - 2) // 2
        assert rounds >= 1
        assert calls == ["normal"] + ["beta", "uniform"] * rounds + ["gamma"]

    @pytest.mark.parametrize("d,kappa", [(2, 3.0), (50, 40.0)])
    def test_predrawn_normals_reproduce_the_stream_draw(self, d, kappa):
        # the run loop draws a batch's normals ahead of time from the batch's
        # stream and passes that stream on; the points are the same bit for bit
        mu = RandomStream(19).standard_normal(d)
        model = VmfnModel(mu / np.linalg.norm(mu), kappa, 2.5, float(d))
        inline_stream = RandomStream(20)
        inline = vmfn_sample(model, inline_stream, 1000)
        next_draw = inline_stream.random()
        for out in (np.empty((1000, d)), None):
            ahead_stream = RandomStream(20)
            normals = ahead_stream.standard_normal((1000, d))
            kept = normals.copy()
            ahead = vmfn_sample(model, ahead_stream, 1000, out, normals=normals)
            assert out is None or ahead is out
            assert np.array_equal(ahead, inline)
            assert np.array_equal(normals, kept)
            assert ahead_stream.random() == next_draw

    def test_out_sharing_the_normals_rejected(self):
        # the tangents' outer product is written into out before the
        # normals are read again
        model = VmfnModel(np.eye(3)[0], 2.0, 2.5, 3.0)
        normals = RandomStream(22).standard_normal((10, 3))
        with pytest.raises(ValueError, match="share memory"):
            vmfn_sample(model, RandomStream(23), 10, normals, normals=normals)

    def test_high_kappa_concentrates(self):
        mu = np.array([1.0, 0.0, 0.0])
        model = VmfnModel(mu, 1e6, 5.0, 10.0)
        pts = vmfn_sample(model, RandomStream(10), 500)
        cosines = (pts / np.linalg.norm(pts, axis=1, keepdims=True)) @ mu
        assert cosines.min() > 0.99


class TestVmfnMoments:
    @pytest.mark.parametrize("d", [2, 5, 50])
    def test_standard_normal_case(self, d):
        # kappa = 0, shape = d/2 and spread = d is N(0, I)
        model = VmfnModel(np.eye(d)[1], 0.0, d / 2.0, float(d))
        assert np.array_equal(model.mean, np.zeros(d))
        np.testing.assert_allclose(model.covariance, np.eye(d), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("kappa", [0.0, 2.0, 27.0, KAPPA_CAP])
    @pytest.mark.parametrize("d", [2, 3, 50])
    def test_moments_match_a_large_sample(self, d, kappa):
        # 4e5 points in 40 independent batches; every entry of the sample
        # mean and covariance lies within 6 standard errors, taken from the
        # spread of the batch estimates, of the closed form
        mu = RandomStream(24).standard_normal(d)
        model = VmfnModel(mu / np.linalg.norm(mu), kappa, 1.3, 0.9 * d)
        means, covs = [], []
        for k in range(40):
            pts = vmfn_sample(model, RandomStream(25, (d, k)), 10_000)
            mean = pts.mean(axis=0)
            centred = pts - mean
            means.append(mean)
            covs.append(centred.T @ centred / pts.shape[0])
        for batches, want in ((means, model.mean), (covs, model.covariance)):
            batches = np.array(batches)
            se = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
            assert np.all(np.abs(batches.mean(axis=0) - want) <= 6.0 * se + 1e-12)

    @pytest.mark.parametrize("d", [2, 3, 50])
    def test_continuous_across_the_small_kappa_branch(self, d):
        # below kappa = 1e-6 A / kappa is its limit 1 / d; the mean is
        # proportional to kappa, so it is compared per unit kappa
        above, below = 1e-6, math.nextafter(1e-6, 0.0)
        mu = np.eye(d)[0]
        hi, lo = (VmfnModel(mu, kappa, 2.5, float(d)) for kappa in (above, below))
        np.testing.assert_allclose(hi.mean / above, lo.mean / below, rtol=1e-12)
        np.testing.assert_allclose(hi.covariance, lo.covariance, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("shape", [NAKAGAMI_SHAPE_MIN, NAKAGAMI_SHAPE_MAX])
    @pytest.mark.parametrize("kappa", [0.0, KAPPA_CAP])
    @pytest.mark.parametrize("d", [2, 50])
    def test_finite_at_the_caps(self, d, kappa, shape):
        mu = np.ones(d) / math.sqrt(d)
        model = VmfnModel(mu, kappa, shape, float(d))
        assert np.all(np.isfinite(model.mean)) and np.all(np.isfinite(model.covariance))
        assert np.array_equal(model.covariance, model.covariance.T)
        assert np.linalg.eigvalsh(model.covariance).min() > 0.0


class TestVmfNormalizer:
    @staticmethod
    def log_bessel_from_normalizer(d, kappa):
        # log C_d = nu log kappa - (d/2) log 2 pi - log I_nu(kappa), nu = d/2 - 1
        return (
            (0.5 * d - 1.0) * math.log(kappa)
            - 0.5 * d * math.log(2.0 * math.pi)
            - _log_vmf_normalizer(d, kappa)
        )

    @pytest.mark.parametrize("d,kappa", [(200, 0.01), (400, 1.0), (1000, 16.0)])
    def test_high_order_normalizer_is_finite_and_meets_the_recurrence(self, d, kappa):
        # scipy's ive(d/2 - 1, kappa) underflows to 0 at all three; the
        # three-term recurrence I_(nu-1) - I_(nu+1) = (2 nu / kappa) I_nu
        # checks the normalizer at d - 2, d and d + 2 against each other
        assert math.isfinite(_log_vmf_normalizer(d, kappa))
        log_i = {dd: self.log_bessel_from_normalizer(dd, kappa) for dd in (d - 2, d, d + 2)}
        ratio = math.exp(log_i[d - 2] - log_i[d]) - math.exp(log_i[d + 2] - log_i[d])
        assert ratio == pytest.approx((d - 2.0) / kappa, rel=1e-12, abs=0.0)

    def test_high_order_logpdf_is_finite(self):
        d = 1000
        model = VmfnModel(np.eye(d)[0], 16.0, d / 2.0, float(d))
        x = RandomStream(21).standard_normal((20, d))
        assert np.all(np.isfinite(vmfn_logpdf(model, x)))

    def test_log_bessel_matches_scipy_wherever_ive_is_normal(self):
        # near I_nu(x) = 1 the power series' log is a difference of terms of
        # size about nu log nu: at d = 1000 it is off by up to 5e-13 there
        # (ive by 7e-14) against 40-digit values, so the error is measured
        # in units of max(1, |log I|, nu)
        x = np.geomspace(1e-6, 1e8, 281)
        checked = 0
        for d in (2, 3, 4, 5, 7, 10, 20, 49, 50, 51, 100, 101, 200, 201, 400, 1000, 1001):
            nu = 0.5 * d - 1.0
            scaled = ive(nu, x)
            normal = scaled >= 1e-290
            for xk, sk in zip(x[normal], scaled[normal]):
                want = math.log(sk) + xk
                got = _log_bessel_i(nu, float(xk))
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want), nu), (d, xk)
                checked += 1
        assert checked > 3000


class TestModelContracts:
    def test_importance_identity(self):
        # mean of exp(logp - logq) under q equals 1 for common support
        p = make_gaussian([0.0, 0.0, 0.0], np.eye(3))
        q = make_gaussian([0.3, -0.2, 0.1], 1.5 * np.eye(3))
        x = gaussian_sample(q, RandomStream(12).standard_normal((100_000, 3)))
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
