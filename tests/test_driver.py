import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import cbree.densities
import cbree.driver
from cbree.bench import McConfig
from cbree.cbs import Ensemble, step_is_exact
from cbree.densities import gaussian_fit, gaussian_logpdf, gaussian_sample, make_gaussian
from cbree.driver import (
    CbreeConfig,
    CbreeMover,
    IterationRecord,
    divergence_check,
    is_estimate,
    run_cbree,
    run_cbree_vmfn,
)
from cbree.enkf import EnkfConfig, run_enkf, run_enkf_vmfn
from cbree.numkit import RandomStream
from cbree.problems import CountedLsf, ProblemSpec, get_problem
from cbree.smoothing import LIP_S, empirical_cv


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
        pts = gaussian_sample(proposal, RandomStream(1).standard_normal((100_000, 1)))
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

    @pytest.mark.parametrize("d", [6, 50])
    def test_estimate_reads_nothing_the_fit_left_in_scratch(self, d):
        pts = RandomStream(d).standard_normal((800, d)) * 1.3 + 0.4
        ens = Ensemble(pts, 1.0 - pts[:, 0])
        work = np.empty((2, 800, d))
        model = gaussian_fit(pts, work[0])
        work.fill(np.nan)
        pf, weights = is_estimate(ens, model, work)
        fresh_pf, fresh_weights = is_estimate(ens, model)
        assert 0.0 < pf == fresh_pf
        assert np.array_equal(weights, fresh_weights)

    def test_gaussian_run_takes_log_mu_through_the_densities_module(self, monkeypatch):
        # the benchmark's tracer times log mu by wrapping this module name
        calls = 0
        inner = cbree.densities.gaussian_logpdf

        def counted(model, x, work=(None, None)):
            nonlocal calls
            calls += 1
            return inner(model, x, work)

        monkeypatch.setattr(cbree.densities, "gaussian_logpdf", counted)
        run_cbree(get_problem("linear"), CbreeConfig(n_particles=400, seed=31))
        assert calls > 0


class TestExactLaw:
    # once exp(-h) underflows to 0 a Gaussian step draws its points from
    # N(m_beta, L L^T) and hands that law on as the next proposal
    @staticmethod
    def step(proposal, d, h):
        J = 800
        pts = RandomStream(d).standard_normal((J, d)) * 1.3 + 0.4
        ens = Ensemble(pts, 2.0 - pts[:, 0])
        mover = CbreeMover(CbreeConfig(n_particles=J), proposal)
        mover.start(ens, RandomStream(d + 1))
        mover.ctrl.h_current = h  # kept at the odd iteration 1
        xi = RandomStream(d + 2).standard_normal((J, d))
        noise = Future()
        noise.set_result(xi)
        row = IterationRecord(iter=1, cv=math.nan, pf_estimate=0.0, cost_cum=0)
        out, scratch = np.empty((J, d)), np.empty((J, d))
        moved, law = mover.move(ens, gaussian_fit(pts), 1, noise, row, out, scratch)
        assert row.h == h
        return xi, moved, law

    @pytest.mark.parametrize("d", [6, 50])
    def test_closed_form_log_mu_is_the_density_of_the_law(self, d):
        xi, moved, (model, log_mu) = self.step("gaussian", d, 800.0)
        # the law's factor is the one that drew the points, bit for bit
        assert np.array_equal(gaussian_sample(model, xi), moved)
        np.testing.assert_allclose(log_mu, gaussian_logpdf(model, moved), rtol=1e-12, atol=0.0)

    def test_the_law_does_not_invert_its_factor(self):
        # its log mu is given in closed form, so nothing reads its whitening
        _, _, (model, _) = self.step("gaussian", 50, 800.0)
        assert "whiten" not in vars(model)

    @pytest.mark.parametrize("proposal, h", [("gaussian", 1.0), ("gaussian", 745.0), ("vmfn", 800.0)])
    def test_no_law_unless_a_gaussian_step_is_exact(self, proposal, h):
        assert step_is_exact(h) == (h == 800.0)
        _, _, law = self.step(proposal, 6, h)
        assert law is None

    def test_exact_from_is_the_iteration_after_the_first_exact_step(self):
        config = CbreeConfig(n_particles=1000, n_obs=0, max_iter=20, seed=20)
        record = run_cbree(get_problem("linear-50"), config)
        first = next(row.iter for row in record.trace if step_is_exact(row.h))
        assert record.exact_from == first + 1 < record.iterations
        assert record.to_json_dict()["exact_from"] == record.exact_from

    @pytest.mark.parametrize(
        "runner, config",
        [
            (run_cbree_vmfn, CbreeConfig(n_particles=1000, n_obs=0, max_iter=20, seed=20)),
            (run_enkf, EnkfConfig(n_particles=500, max_iter=5, seed=20)),
        ],
    )
    def test_exact_from_is_null_without_the_gaussian_step(self, runner, config):
        record = runner(get_problem("linear-50"), config)
        assert record.exact_from is None
        assert record.to_json_dict()["exact_from"] is None


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
        assert divergence_check([1.0, 2.0])

    def test_divergence_constant_window_strict(self):
        assert not divergence_check([2.0, 2.0])

    def test_divergence_three_point_slope(self):
        assert not divergence_check([3.0, 1.0, 2.0])  # slope -0.5
        assert divergence_check([1.0, 2.0, 3.5])

    def test_divergence_suppressed_without_finite(self):
        assert not divergence_check([math.inf, math.inf])

    def test_divergence_suppressed_on_infinite_newest(self):
        assert not divergence_check([1.0, math.inf])

    def test_divergence_sentinel_on_older_entries(self):
        # a window holding an infinite older entry never signals divergence
        assert not divergence_check([math.inf, 5.0])
        assert not divergence_check([1.0, math.inf, 20.0])

    def test_divergence_needs_two(self):
        with pytest.raises(ValueError):
            divergence_check([2.0])


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

    @pytest.mark.parametrize("max_iter", [0, 1, 3])
    @pytest.mark.parametrize(
        "runner, config, sweeps",
        [
            # one sweep per iteration row with either proposal: the initial
            # ensemble and one moved ensemble per step ...
            (run_cbree, CbreeConfig(n_particles=300, delta_target=0.01, n_obs=0, seed=5),
             lambda n: n + 1),
            # ... or one fresh batch per iteration row, which replaces the
            # initial or moved ensemble before its limit state is read
            (run_cbree_vmfn, CbreeConfig(n_particles=300, delta_target=0.01, n_obs=0, seed=6),
             lambda n: n + 1),
            # the initial ensemble, one fresh batch per iteration row and one
            # moved ensemble per step
            (run_enkf, EnkfConfig(n_particles=300, delta_target=0.01, seed=7),
             lambda n: 1 + (n + 1) + n),
            (run_enkf_vmfn, EnkfConfig(n_particles=300, delta_target=0.01, seed=8),
             lambda n: 1 + (n + 1) + n),
        ],
        ids=["cbree", "cbree-vmfn", "enkf", "enkf-vmfn"],
    )
    def test_cost_audit(self, runner, config, sweeps, max_iter):
        # the run loop is the only caller of the limit state, and it counts
        # J evaluations per sweep
        problem = get_problem("linear-4")
        record = runner(problem, replace(config, max_iter=max_iter))
        assert record.iterations == max_iter
        assert record.cost == problem.evaluations == 300 * sweeps(max_iter)

    def test_trace_shape_and_termination(self):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, seed=7))
        assert record.termination in ("converged", "diverged", "max_iter")
        assert len(record.trace) == record.iterations + 1
        assert [row.iter for row in record.trace] == list(range(record.iterations + 1))

    def test_smoothing_trace_monotone_with_lipschitz_cap(self):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=500, seed=8))
        rows = [r for r in record.trace if not math.isnan(r.h)]
        previous = 0.0
        for row in rows:
            assert row.s >= previous - 1e-12
            assert row.s - previous <= LIP_S * row.h + 1e-12
            previous = row.s

    def test_terminal_row_has_no_step_parameters(self):
        # no step is taken from the terminal row, so its step parameters are
        # NaN, while every earlier row records the step taken from it
        records = (
            run_cbree(get_problem("linear"), CbreeConfig(n_particles=500, seed=3)),
            run_enkf(get_problem("linear"), EnkfConfig(n_particles=500, seed=3, max_iter=4)),
        )
        for record in records:
            assert record.iterations >= 2
            last = record.trace[-1]
            assert all(math.isnan(v) for v in (last.s, last.beta, last.h, last.err, last.ess))
            assert all(math.isfinite(row.h) for row in record.trace[:-1])

    def test_max_iter_zero_gives_flagged_one_shot(self):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=300, max_iter=0, seed=9))
        assert record.termination == "max_iter"
        assert record.iterations == 0
        assert len(record.trace) == 1
        assert record.cost == 300  # initial sweep only

    def test_single_particle_rejected(self):
        with pytest.raises(ValueError):
            run_cbree(get_problem("linear"), CbreeConfig(n_particles=1))

    def test_vmfn_needs_two_dims(self):
        with pytest.raises(ValueError):
            run_cbree_vmfn(get_problem("linear-1"), CbreeConfig(n_particles=200))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            CbreeConfig(n_obs=1)
        with pytest.raises(ValueError):
            CbreeConfig(delta_target=0.0)

    @pytest.mark.parametrize(
        "config_class, n_particles", [(CbreeConfig, 1), (EnkfConfig, 1), (McConfig, 0)]
    )
    def test_replace_checks_the_new_config(self, config_class, n_particles):
        with pytest.raises(ValueError, match="n_particles must be"):
            replace(config_class(), n_particles=n_particles)

    @pytest.mark.parametrize(
        "value",
        [CbreeConfig(), EnkfConfig(), McConfig(), get_problem("linear")],
        ids=["CbreeConfig", "EnkfConfig", "McConfig", "ProblemSpec"],
    )
    def test_run_inputs_are_frozen(self, value):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))

    def test_negative_seed_rejected_before_the_run(self):
        # numpy's SeedSequence would fail later with a bare message
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            run_cbree(get_problem("linear"), CbreeConfig(n_particles=50, seed=-1))

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
            pts = gaussian_sample(model, RandomStream(1000 + k).standard_normal((2000, model.dim)))
            ens = Ensemble(pts, np.asarray(problem.lsf(pts)))
            pf, _ = is_estimate(ens, model)
            estimates.append(pf)
        estimates = np.asarray(estimates)
        observed = estimates.std() / estimates.mean()
        assert observed / predicted < 3.0
        assert observed / predicted > 1.0 / 3.0

    def test_ess_pinned_at_half_ensemble(self):
        record = run_cbree(get_problem("linear"), CbreeConfig(n_particles=600, seed=15))
        for row in record.trace:
            if not math.isnan(row.ess) and not row.beta_capped:
                assert row.ess == pytest.approx(300.0, abs=0.02)

    def test_trace_ess_is_the_one_a_fresh_evaluation_gives(self, monkeypatch):
        # the trace takes the ESS the beta solve returns; a solve that
        # returns none makes the mover evaluate it, with the same bits
        problem, config = get_problem("oscillator"), CbreeConfig(n_particles=1000, seed=13)
        solved = run_cbree(problem, config)
        solve_beta = cbree.driver.solve_beta
        monkeypatch.setattr(
            cbree.driver, "solve_beta", lambda lw, target: (*solve_beta(lw, target)[:2], None)
        )
        evaluated = run_cbree(get_problem("oscillator"), config)
        assert solved.iterations >= 3
        assert evaluated.to_json_dict() == solved.to_json_dict()


class TestNoiseWorker:
    # each run draws its step noise on one worker thread of its own
    @pytest.mark.parametrize(
        "runner, config",
        [
            (run_cbree, CbreeConfig(n_particles=300, seed=21)),
            (run_cbree_vmfn, CbreeConfig(n_particles=300, delta_target=2.0, seed=22)),
            (run_enkf, EnkfConfig(n_particles=300, seed=23)),
        ],
    )
    def test_no_thread_outlives_a_run(self, runner, config):
        before = threading.active_count()
        runner(get_problem("linear-4"), config)
        assert threading.active_count() == before

    def test_worker_joined_when_the_limit_state_fails(self):
        # sweeps with the Gaussian proposal: initial ensemble, first particle
        # step, second particle step; with the vMFN proposal: first, second
        # and third fresh batch (step 0's noise may still be drawn during
        # the first)
        for runner, bad_sweep in ((run_cbree, 3), (run_cbree_vmfn, 1), (run_cbree_vmfn, 3)):
            calls = []

            def nan_on_one_sweep(x):
                calls.append(len(x))
                g = 3.5 - x.sum(axis=1) / 2.0
                return np.full(len(x), np.nan) if len(calls) == bad_sweep else g

            problem = ProblemSpec(name="nan-on-one", dim=4, lsf=CountedLsf(nan_on_one_sweep))
            before = threading.active_count()
            with pytest.raises(ValueError, match="non-finite"):
                runner(problem, CbreeConfig(n_particles=300, seed=24))
            assert len(calls) == bad_sweep
            assert threading.active_count() == before

    @pytest.mark.parametrize(
        "runner, config",
        [
            (run_cbree, CbreeConfig(n_particles=300, delta_target=0.01, n_obs=0, max_iter=3, seed=25)),
            (run_enkf, EnkfConfig(n_particles=300, delta_target=0.01, max_iter=3, seed=26)),
            (run_cbree, CbreeConfig(n_particles=300, delta_target=0.01, n_obs=0, max_iter=0, seed=25)),
            (run_enkf, EnkfConfig(n_particles=300, delta_target=0.01, max_iter=0, seed=26)),
            (run_cbree_vmfn, CbreeConfig(n_particles=300, delta_target=0.01, n_obs=0, max_iter=3, seed=27)),
            (run_cbree_vmfn, CbreeConfig(n_particles=300, delta_target=0.01, n_obs=0, max_iter=0, seed=27)),
        ],
    )
    def test_no_draw_for_the_step_max_iter_never_takes(self, monkeypatch, runner, config):
        # steps are taken at iterations 0 .. max_iter - 1; the run stops at
        # max_iter without one.  A fresh batch is drawn for every iteration
        # that runs, 0 .. max_iter, and for no other
        draws = {2: [], 3: []}

        class CountingStream(RandomStream):
            def substream(self, *index):
                if index[0] in draws:
                    draws[index[0]].append(index)
                return super().substream(*index)

        monkeypatch.setattr(cbree.driver, "RandomStream", CountingStream)
        record = runner(get_problem("linear-4"), config)
        assert record.termination == "max_iter"
        assert draws[3] == [(3, n) for n in range(config.max_iter)]
        batches = runner is not run_cbree
        assert draws[2] == [(2, n) for n in range(record.iterations + 1) if batches]

    @pytest.mark.parametrize(
        "runner, config",
        [
            (run_cbree_vmfn, CbreeConfig(n_particles=300, delta_target=2.0, seed=28)),
            (run_enkf, EnkfConfig(n_particles=300, seed=29)),
            # takes exact steps, so the closed-form log mu reads both buffers
            (run_cbree, CbreeConfig(n_particles=300, n_obs=0, max_iter=15, seed=30)),
        ],
    )
    def test_draws_on_the_worker_match_draws_in_line(self, monkeypatch, runner, config):
        class InlineExecutor:
            # runs each task at submission, on the calling thread
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        threaded = runner(get_problem("linear-4"), config)
        monkeypatch.setattr(cbree.driver, "ThreadPoolExecutor", InlineExecutor)
        inline = runner(get_problem("linear-4"), config)
        assert inline.iterations >= 2
        assert inline.to_json_dict() == threaded.to_json_dict()
        assert np.array_equal(inline.final_ensemble.points, threaded.final_ensemble.points)

    @pytest.mark.parametrize(
        "runner, config",
        [
            (run_cbree, CbreeConfig(n_particles=300, seed=25)),
            (run_cbree_vmfn, CbreeConfig(n_particles=300, delta_target=2.0, seed=24)),
            (run_enkf, EnkfConfig(n_particles=300, delta_target=2.0, seed=23)),
        ],
    )
    def test_a_converged_run_draws_no_noise_past_its_last_iteration(
        self, monkeypatch, runner, config
    ):
        # the noise of steps 0 .. n - 1 is consumed, and step n's is drawn
        # ahead (or cancelled while still queued); none is drawn for a later
        # step, although max_iter would allow it
        draws = []

        class CountingStream(RandomStream):
            def substream(self, *index):
                if index[0] == 3:
                    draws.append(index[1])
                return super().substream(*index)

        monkeypatch.setattr(cbree.driver, "RandomStream", CountingStream)
        record = runner(get_problem("linear-4"), config)
        n = record.iterations
        assert record.termination == "converged" and n + 1 < config.max_iter
        assert set(range(n)) <= set(draws) <= set(range(n + 1))
        assert len(draws) == len(set(draws))

    def test_runs_in_a_thread_pool_match_serial_runs(self):
        cells = [("linear", seed) for seed in (31, 32, 33)] + [("linear-4", 34), ("oscillator", 35)]

        def one(cell):
            name, seed = cell
            record = run_cbree(get_problem(name), CbreeConfig(n_particles=400, seed=seed))
            return record.to_json_dict(), record.final_ensemble.points

        serial = [one(cell) for cell in cells]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(one, cells))
        for (rec_s, pts_s), (rec_t, pts_t) in zip(serial, threaded):
            assert rec_t == rec_s
            assert np.array_equal(pts_t, pts_s)
