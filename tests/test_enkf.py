import math

import numpy as np
import pytest

from cbree.bench import rep_seed
from cbree.cbs import Ensemble
from cbree.enkf import EnkfConfig, enkf_step, run_enkf, run_enkf_vmfn
from cbree.numkit import RandomStream
from cbree.problems import get_problem


def linear_g(x):
    x = np.atleast_2d(x)
    return 3.5 - x.sum(axis=1) / math.sqrt(x.shape[1])


class TestEnkfStep:
    def test_identity_when_all_failing_and_noise_off(self):
        # max(g, 0) vanishes on failure points; with h = inf the noise is zero
        pts = RandomStream(0).standard_normal((50, 2)) + 5.0
        ens = Ensemble(pts, -np.ones(50))
        stepped = enkf_step(ens, math.inf, RandomStream(1).standard_normal(50))
        assert np.allclose(stepped, pts, atol=1e-12)

    def test_gain_is_regression_slope_in_1d(self):
        # C_xg / c_gg is the least-squares slope of x regressed on the
        # perturbed observations (same noise realization on both sides)
        pts = RandomStream(2).standard_normal((200, 1)) * 2.0
        g = 1.5 - pts[:, 0]
        ens = Ensemble(pts, g)
        stepped = enkf_step(ens, 4.0, RandomStream(3).standard_normal(200))

        g_tilde = np.maximum(g, 0.0) + RandomStream(3).standard_normal(200) / math.sqrt(4.0)
        xc = pts[:, 0] - pts[:, 0].mean()
        gc = g_tilde - g_tilde.mean()
        slope = (xc @ gc) / (gc @ gc)
        expected = pts[:, 0] - slope * g_tilde
        assert np.allclose(stepped[:, 0], expected, atol=1e-9)

    def test_drives_toward_failure_region(self):
        # mean clipped misfit decreases monotonically over five sweeps
        for seed in range(10):
            pts = RandomStream(seed).standard_normal((2000, 2))
            ens = Ensemble(pts, linear_g(pts))
            stream = RandomStream(100 + seed)
            levels = [float(np.maximum(ens.g_values, 0.0).mean())]
            for k in range(5):
                moved = enkf_step(ens, 100.0, stream.substream(k).standard_normal(2000))
                ens = Ensemble(moved, linear_g(moved))
                levels.append(float(np.maximum(ens.g_values, 0.0).mean()))
            assert np.all(np.diff(levels) < 0.0)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        offset = rng.normal(size=3)
        inv = np.linalg.inv(matrix)

        def g_orig(x):
            x = np.atleast_2d(x)
            return 2.0 - x.sum(axis=1) / math.sqrt(3.0)

        def g_mapped(y):
            y = np.atleast_2d(y)
            return g_orig((y - offset) @ inv.T)

        pts = RandomStream(5).standard_normal((100, 3))
        ens = Ensemble(pts, g_orig(pts))
        mapped = pts @ matrix.T + offset
        ens_mapped = Ensemble(mapped, g_mapped(mapped))
        stepped = enkf_step(ens, 2.0, RandomStream(6).standard_normal(100))
        stepped_mapped = enkf_step(ens_mapped, 2.0, RandomStream(6).standard_normal(100))
        assert np.allclose(stepped_mapped, stepped @ matrix.T + offset, atol=1e-8)

    def test_needs_two_particles(self):
        with pytest.raises(ValueError):
            enkf_step(Ensemble(np.ones((1, 2)), np.ones(1)), 1.0, np.zeros(1))

    @pytest.mark.parametrize("shape", [(49,), (50, 1), (50, 2)])
    def test_wrong_noise_shape_rejected(self, shape):
        pts = RandomStream(7).standard_normal((50, 2))
        with pytest.raises(ValueError, match="noise has shape"):
            enkf_step(Ensemble(pts, linear_g(pts)), 1.0, np.zeros(shape))


class TestRunEnkf:
    def test_linear_2d_median_estimate(self):
        # qualitative benchmark: the simplified fixed-h variant tracks the
        # analytic tail within +-30% even when the cv floor blocks convergence
        estimates = []
        for rep in range(20):
            problem = get_problem("linear")
            cfg = EnkfConfig(n_particles=4000, h=1.0, delta_target=1.0, seed=rep_seed(51, rep))
            estimates.append(run_enkf(problem, cfg).estimate)
        median = float(np.median(estimates))
        assert abs(median / get_problem("linear").pf_ref - 1.0) < 0.30

    def test_high_dimension_needs_heavy_tails(self):
        # the vMFN proposal reaches the weight-cv threshold in ~15 sweeps on
        # the d = 50 hyperplane while the Gaussian needs 30+ or stalls
        runners = {"gaussian": run_enkf, "vmfn": run_enkf_vmfn}
        terms = {"gaussian": [], "vmfn": []}
        estimates = {"gaussian": [], "vmfn": []}
        for kind in terms:
            for rep in range(8):
                problem = get_problem("linear-50")
                cfg = EnkfConfig(
                    n_particles=4000,
                    h=1.0,
                    delta_target=2.1,
                    max_iter=25,
                    seed=rep_seed(52, rep),
                )
                record = runners[kind](problem, cfg)
                terms[kind].append(record.termination)
                estimates[kind].append(record.estimate)
        gauss_failed = np.mean([t == "max_iter" for t in terms["gaussian"]])
        vmfn_converged = np.mean([t == "converged" for t in terms["vmfn"]])
        assert gauss_failed >= 0.6
        assert vmfn_converged >= 0.6
        ref = get_problem("linear-50").pf_ref
        assert abs(float(np.median(estimates["vmfn"])) / ref - 1.0) < 0.30

    def test_final_ensemble_hugs_failure_surface(self):
        # low observation noise parks the internal particles on {G = 0}
        problem = get_problem("convex")
        cfg = EnkfConfig(n_particles=1000, h=64.0, delta_target=1.0, seed=rep_seed(54, 0))
        record = run_enkf(problem, cfg)
        assert record.termination == "converged"
        near = np.mean(np.abs(record.final_ensemble.g_values) < 0.5)
        assert near >= 0.8

    def test_cost_audit(self):
        problem = get_problem("linear")
        record = run_enkf(problem, EnkfConfig(n_particles=500, max_iter=7, seed=1))
        assert record.cost == problem.evaluations
        # initial sweep + per iteration: one resample sweep, one step sweep
        # (no step after the terminal iteration)
        n = record.iterations
        assert record.cost == 500 * (1 + (n + 1) + n)

    def test_max_iter_zero_one_shot(self):
        problem = get_problem("linear")
        record = run_enkf(problem, EnkfConfig(n_particles=500, max_iter=0, seed=2))
        assert record.termination == "max_iter"
        assert record.iterations == 0
        assert record.cost == 500 * 2

    def test_reproducible(self):
        cfg = EnkfConfig(n_particles=400, max_iter=5, seed=3)
        a = run_enkf(get_problem("linear"), cfg)
        b = run_enkf(get_problem("linear"), cfg)
        assert a.estimate == b.estimate
        assert np.array_equal(a.final_ensemble.points, b.final_ensemble.points)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnkfConfig(h=0.0)
        with pytest.raises(ValueError):
            EnkfConfig(n_particles=1)
        with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
            run_enkf(get_problem("linear"), EnkfConfig(n_particles=50, seed=-2))
        with pytest.raises(ValueError):
            run_enkf_vmfn(get_problem("linear-1"), EnkfConfig())
