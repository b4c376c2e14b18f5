import math

import numpy as np
import pytest

from cbree.cbs import Ensemble
from cbree.densities import gaussian_sample, make_gaussian
from cbree.driver import (
    CbreeConfig,
    divergence_check,
    is_estimate,
    run_cbree,
    run_cbree_vmfn,
)
from cbree.numkit import RandomStream
from cbree.problems import get_problem
from cbree.smoothing import empirical_cv


class TestIsEstimate:
    def test_no_failures(self):
        ens = Ensemble(np.zeros((5, 2)), np.ones(5))
        pf, weights = is_estimate(ens, make_gaussian(np.zeros(2), np.eye(2)))
        assert pf == 0.0
        assert np.array_equal(weights, np.zeros(5))

    def test_all_failing_under_input_density(self):
        # proposal identical to the input density -> unit weights -> estimate 1
        pts = RandomStream(0).standard_normal((100, 3))
        ens = Ensemble(pts, -np.ones(100))
        pf, weights = is_estimate(ens, make_gaussian(np.zeros(3), np.eye(3)))
        assert pf == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(weights, 1.0)

    def test_shifted_proposal_recovers_tail_mass(self):
        # G(x) = 2 - x with proposal N(2, 1): estimate -> Phi(-2)
        proposal = make_gaussian([2.0], [[1.0]])
        pts = gaussian_sample(proposal, RandomStream(1), 100_000)
        ens = Ensemble(pts, 2.0 - pts[:, 0])
        pf, weights = is_estimate(ens, proposal)
        p_ref = 0.5 * math.erfc(2.0 / math.sqrt(2.0))
        se = weights.std() / math.sqrt(len(weights))
        assert abs(pf - p_ref) < 3.0 * se

    def test_weights_zero_off_failure(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        ens = Ensemble(pts, np.array([-1.0, 1.0]))
        model = make_gaussian(np.zeros(2), np.eye(2))
        pf, weights = is_estimate(ens, model)
        assert weights[1] == 0.0
        assert weights[0] == pytest.approx(1.0)
        assert pf == pytest.approx(0.5)


class TestChecks:
    # the run loop converges when empirical_cv(weights) <= delta_target
    def test_constant_weights_pass(self):
        assert empirical_cv(np.full(10, 0.2)) <= 1.0

    def test_zero_weights_fail(self):
        assert not empirical_cv(np.zeros(10)) <= 1.0

    def test_one_hot_fails(self):
        w = np.zeros(4)
        w[0] = 1.0
        assert empirical_cv(w) == math.inf
        assert not empirical_cv(w) <= 1.0

    def test_divergence_up_window(self):
        assert divergence_check([1.0, 2.0], 2)

    def test_divergence_constant_window_strict(self):
        assert not divergence_check([2.0, 2.0], 2)

    def test_divergence_three_point_slope(self):
        assert not divergence_check([3.0, 1.0, 2.0], 3)  # slope -0.5
        assert divergence_check([1.0, 2.0, 3.5], 3)

    def test_divergence_short_history(self):
        assert not divergence_check([1.0], 2)

    def test_divergence_suppressed_without_finite(self):
        assert not divergence_check([math.inf, math.inf, math.inf], 2)

    def test_divergence_suppressed_on_infinite_newest(self):
        assert not divergence_check([1.0, math.inf], 2)

    def test_divergence_sentinel_on_older_entries(self):
        # window (inf -> sentinel, finite): large drop, never a positive slope
        assert not divergence_check([math.inf, 5.0], 2)
        # three-point window with a replaced middle entry can still fire
        assert divergence_check([1.0, math.inf, 20.0], 3)

    def test_divergence_needs_two(self):
        with pytest.raises(ValueError):
            divergence_check([1.0, 2.0], 1)


class TestRunCbree:
    def test_reproducible_records(self):
        cfg = CbreeConfig(n_particles=400, seed=99)
        a = run_cbree(get_problem("linear"), cfg)
        b = run_cbree(get_problem("linear"), cfg)
        assert a.estimate == b.estimate
        assert a.termination == b.termination
        assert a.cost == b.cost
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.s, ra.beta, ra.h, ra.pf_estimate) == (rb.s, rb.beta, rb.h, rb.pf_estimate)
        assert np.array_equal(a.final_ensemble.points, b.final_ensemble.points)

    def test_cost_audit_gaussian(self):
        problem = get_problem("linear")
        record = run_cbree(problem, CbreeConfig(n_particles=300, seed=5))
        assert record.cost == problem.evaluations
        # initial sample + probe + one sweep per completed step
        assert record.cost == 300 * (record.iterations + 2)

    def test_cost_audit_vmfn(self):
        problem = get_problem("linear-4")
        record = run_cbree_vmfn(problem, CbreeConfig(n_particles=300, delta_target=2.0, seed=6))
        assert record.cost == problem.evaluations
        # initial sample + probe + one resample sweep per iteration row
        assert record.cost == 300 * (record.iterations + 3)

    def test_trace_shape_and_termination(self):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, seed=7))
        assert record.termination in ("converged", "diverged", "max_iter")
        assert len(record.trace) == record.iterations + 1
        assert [row.iter for row in record.trace] == list(range(record.iterations + 1))

    def test_smoothing_trace_monotone_with_lipschitz_cap(self):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=500, seed=8, lip_s=0.9))
        rows = [r for r in record.trace if not math.isnan(r.h)]
        previous = 0.0
        for row in rows:
            assert row.s >= previous - 1e-12
            assert row.s - previous <= 0.9 * row.h + 1e-12
            previous = row.s

    def test_max_iter_zero_gives_flagged_one_shot(self):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, max_iter=0, seed=9))
        assert record.termination == "max_iter"
        assert record.iterations == 0
        assert len(record.trace) == 1
        assert record.cost == 2 * 300  # initial sweep + probe

    def test_single_particle_rejected(self):
        with pytest.raises(ValueError):
            run_cbree(get_problem("linear"), CbreeConfig(n_particles=1))

    def test_vmfn_needs_two_dims(self):
        with pytest.raises(ValueError):
            run_cbree_vmfn(get_problem("linear-1"), CbreeConfig(n_particles=200))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            CbreeConfig(n_obs=1).validate()
        with pytest.raises(ValueError):
            CbreeConfig(delta_target=0.0).validate()

    def test_divergence_disabled_runs_to_convergence_or_cap(self):
        cfg = CbreeConfig(n_particles=400, n_obs=0, max_iter=30, seed=10)
        record = run_cbree(get_problem("linear"), cfg)
        assert record.termination in ("converged", "max_iter")

    def test_estimator_spread_consistent_with_cv(self):
        # resampling fresh batches from the converged proposal reproduces the
        # predicted relative spread cv / sqrt(J) within a broad factor
        problem = get_problem("linear")
        record = run_cbree(problem, CbreeConfig(n_particles=2000, seed=11))
        assert record.termination == "converged"
        model = make_gaussian(record.proposal["mean"], record.proposal["cov"])
        predicted = record.trace[-1].cv / math.sqrt(2000)
        estimates = []
        for k in range(10):
            pts = gaussian_sample(model, RandomStream(1000 + k), 2000)
            ens = Ensemble(pts, np.asarray(problem.lsf(pts)))
            pf, _ = is_estimate(ens, model)
            estimates.append(pf)
        estimates = np.asarray(estimates)
        observed = estimates.std() / estimates.mean()
        assert observed / predicted < 3.0
        assert observed / predicted > 1.0 / 3.0

    def test_json_round_trip(self, tmp_path):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, seed=12))
        path = tmp_path / "record.json"
        record.write_json(path)
        import json

        data = json.loads(path.read_text())
        assert data["termination"] == record.termination
        assert data["estimate"] == pytest.approx(record.estimate)
        assert len(data["trace"]) == len(record.trace)
        assert data["proposal"]["type"] == "gaussian"

    def test_trace_csv(self, tmp_path):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, seed=13))
        path = tmp_path / "trace.csv"
        record.write_trace_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,s,beta,beta_capped,h,err,cv,pf_estimate,ess,cost_cum"
        assert len(lines) == len(record.trace) + 1

    def test_ess_pinned_at_half_ensemble(self):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=600, seed=15))
        for row in record.trace:
            if not math.isnan(row.ess) and not row.beta_capped:
                assert row.ess == pytest.approx(300.0, abs=0.02)
