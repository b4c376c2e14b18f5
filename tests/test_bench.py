import concurrent.futures
import math
import subprocess
import sys

import numpy as np
import pytest

import cbree.bench
from cbree.bench import (
    McConfig,
    rel_eff,
    rep_seed,
    run_benchmark,
    run_mc,
)
from cbree.driver import CbreeConfig
from cbree.problems import CountedLsf, ProblemSpec, get_problem


class TestRelEff:
    def test_hand_value(self):
        p = 2.3263e-4
        assert rel_eff(1e-9, 1e4, p) == pytest.approx(p * (1.0 - p) / 1e-5, rel=1e-12)
        assert rel_eff(1e-9, 1e4, p) == pytest.approx(23.26, abs=0.01)

    def test_zero_mse(self):
        assert rel_eff(0.0, 100.0, 0.5) == math.inf

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            rel_eff(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rel_eff(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rel_eff(1.0, 0.0, 0.5)


class TestRunMc:
    def test_estimate_and_cost(self):
        problem = get_problem("linear")
        record = run_mc(problem, McConfig(n_particles=300_000, seed=4))
        assert record.cost == 300_000
        assert record.cost == problem.evaluations
        p = problem.pf_ref
        se = math.sqrt(p * (1.0 - p) / 300_000)
        assert abs(record.estimate - p) < 4.0 * se

    def test_batching_invariant(self, monkeypatch):
        monkeypatch.setattr(cbree.bench, "MC_BATCH", 100_000)
        a = run_mc(get_problem("linear"), McConfig(n_particles=250_000, seed=5))
        monkeypatch.setattr(cbree.bench, "MC_BATCH", 250_000)
        b = run_mc(get_problem("linear"), McConfig(n_particles=250_000, seed=5))
        assert a.estimate == b.estimate

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            run_mc(get_problem("linear"), McConfig(n_particles=100, seed=-1))

    def test_zero_dimension_rejected(self):
        # the spec rejects it when built, so no method runs on it, crude
        # Monte Carlo included
        never_fails = CountedLsf(lambda x: np.ones(len(x)))
        with pytest.raises(ValueError, match="problem dimension must be at least 1"):
            run_mc(ProblemSpec(name="z", dim=0, lsf=never_fails), McConfig(n_particles=1000))


class TestRunBenchmark:
    def test_deterministic(self):
        cfg = CbreeConfig(n_particles=400)
        r1 = run_benchmark("cbree", "linear", cfg, reps=4, master_seed=7)
        r2 = run_benchmark("cbree", "linear", cfg, reps=4, master_seed=7)
        # to_json_dict writes NaN as null, so equal traces compare equal
        assert [r.to_json_dict() for r in r1.records] == [r.to_json_dict() for r in r2.records]
        assert r1.mse == r2.mse

    def test_parallel_matches_serial(self):
        cfg = CbreeConfig(n_particles=400)
        serial = run_benchmark("cbree", "linear", cfg, reps=4, master_seed=8, jobs=1)
        parallel = run_benchmark("cbree", "linear", cfg, reps=4, master_seed=8, jobs=2)
        assert [r.to_json_dict() for r in serial.records] == [r.to_json_dict() for r in parallel.records]
        assert serial.mse == parallel.mse

    def test_pool_sized_by_reps(self, monkeypatch):
        # a pool starts all its workers at the first submit, so more workers
        # than repetitions would only be forked to idle
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        run_benchmark("mc", "linear", McConfig(n_particles=1000), reps=2, jobs=64)
        run_benchmark("mc", "linear", McConfig(n_particles=1000), reps=1, jobs=64)
        assert sizes == [2]

    def test_serial_run_loads_no_process_pool(self):
        # a fresh interpreter, since pytest itself has loaded multiprocessing
        script = (
            "import sys\n"
            "import cbree\n"
            "from cbree.bench import run_benchmark\n"
            "run_benchmark('cbree', 'linear', cbree.CbreeConfig(n_particles=200, max_iter=3), reps=2, jobs=1)\n"
            "print('multiprocessing' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_per_rep_seeds_differ(self):
        seeds = [rep_seed(3, rep) for rep in range(10)]
        assert len(set(seeds)) == 10
        assert [rep_seed(3, rep) for rep in range(10)] == seeds

    def test_aggregates_recomputable_from_rows(self):
        cfg = CbreeConfig(n_particles=500)
        result = run_benchmark("cbree", "linear", cfg, reps=6, master_seed=9)
        assert len(result.records) == 6
        assert [r.seed for r in result.records] == [rep_seed(9, rep) for rep in range(6)]
        assert all(r.final_ensemble is None for r in result.records)
        good = [r for r in result.records if r.termination != "max_iter"]
        assert result.estimates == [r.estimate for r in good]
        assert result.success_rate == len(good) / 6
        pf = get_problem("linear").pf_ref
        mse = float(np.mean([(r.estimate - pf) ** 2 for r in good]))
        cost = float(np.mean([r.cost for r in good]))
        assert result.mse == pytest.approx(mse, rel=1e-15)
        assert result.mean_cost == pytest.approx(cost, rel=1e-15)
        assert result.rel_eff == pytest.approx(pf * (1 - pf) / (mse * cost), rel=1e-12)
        assert result.rel_rmse == pytest.approx(math.sqrt(mse) / pf, rel=1e-12)

    def test_max_iter_runs_excluded_unless_flagged(self):
        # a zero iteration budget ends every run at the cap
        cfg = CbreeConfig(n_particles=300, max_iter=0)
        result = run_benchmark("cbree", "linear", cfg, reps=3, master_seed=10)
        assert all(r.termination == "max_iter" for r in result.records)
        assert result.estimates == []
        assert result.success_rate == 0.0
        assert result.mse is None
        assert result.mean_cost is None

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be non-negative, got -3"):
            run_benchmark("mc", "linear", McConfig(n_particles=100), reps=1, master_seed=-3)

    @pytest.mark.parametrize(
        "reps, jobs, message",
        [(0, 1, "reps must be at least 1, got 0"), (1, 0, "jobs must be at least 1, got 0"),
         (1, -1, "jobs must be at least 1, got -1")],
        ids=["reps-zero", "jobs-zero", "jobs-negative"],
    )
    def test_reps_and_jobs_below_one_rejected(self, reps, jobs, message):
        with pytest.raises(ValueError, match=message):
            run_benchmark("mc", "linear", McConfig(n_particles=1000), reps=reps, jobs=jobs)

    def test_unknown_method_or_problem(self):
        with pytest.raises(KeyError):
            run_benchmark("subset-sim", "linear", CbreeConfig(), reps=1)
        with pytest.raises(KeyError):
            run_benchmark("cbree", "nope", CbreeConfig(), reps=1)

    def test_monotone_rrmse_in_sample_size(self):
        # convergence sanity on the hyperplane problem: quadrupling J should
        # not worsen the relative error, up to benchmark noise
        small = run_benchmark("cbree", "linear", CbreeConfig(n_particles=1000), reps=50, master_seed=11)
        large = run_benchmark("cbree", "linear", CbreeConfig(n_particles=4000), reps=50, master_seed=11)
        assert large.rel_rmse <= small.rel_rmse

    def test_mc_method_dispatch(self):
        result = run_benchmark("mc", "linear", McConfig(n_particles=50_000), reps=3, master_seed=12)
        assert result.success_rate == 1.0
        assert all(r.cost == 50_000 for r in result.records)
