import json
import math

import numpy as np
import pytest

from cbree.bench import (
    BenchmarkResult,
    McConfig,
    rel_eff,
    rep_seed,
    run_benchmark,
    run_mc,
    write_aggregate_csv,
    write_aggregate_json,
    write_runs_csv,
)
from cbree.driver import CbreeConfig
from cbree.problems import get_problem


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

    def test_batching_invariant(self):
        problem = get_problem("linear")
        a = run_mc(problem, McConfig(n_particles=250_000, seed=5), batch=100_000)
        b = run_mc(get_problem("linear"), McConfig(n_particles=250_000, seed=5), batch=250_000)
        assert a.estimate == b.estimate


class TestRunBenchmark:
    def test_deterministic(self):
        cfg = CbreeConfig(n_particles=400)
        r1, rows1 = run_benchmark("cbree", "linear", cfg, reps=4, master_seed=7)
        r2, rows2 = run_benchmark("cbree", "linear", cfg, reps=4, master_seed=7)
        assert rows1 == rows2
        assert r1.mse == r2.mse

    def test_parallel_matches_serial(self):
        cfg = CbreeConfig(n_particles=400)
        serial, rows_s = run_benchmark("cbree", "linear", cfg, reps=4, master_seed=8, jobs=1)
        parallel, rows_p = run_benchmark("cbree", "linear", cfg, reps=4, master_seed=8, jobs=2)
        assert rows_s == rows_p
        assert serial.mse == parallel.mse

    def test_per_rep_seeds_differ(self):
        seeds = [rep_seed(3, rep) for rep in range(10)]
        assert len(set(seeds)) == 10
        assert [rep_seed(3, rep) for rep in range(10)] == seeds

    def test_aggregates_recomputable_from_rows(self):
        cfg = CbreeConfig(n_particles=500)
        result, rows = run_benchmark("cbree", "linear", cfg, reps=6, master_seed=9)
        good = [r for r in rows if r["termination"] != "max_iter"]
        pf = get_problem("linear").pf_ref
        mse = float(np.mean([(r["estimate"] - pf) ** 2 for r in good]))
        cost = float(np.mean([r["cost"] for r in good]))
        assert result.mse == pytest.approx(mse, rel=1e-15)
        assert result.mean_cost == pytest.approx(cost, rel=1e-15)
        assert result.rel_eff == pytest.approx(pf * (1 - pf) / (mse * cost), rel=1e-12)
        assert result.rel_rmse == pytest.approx(math.sqrt(mse) / pf, rel=1e-12)

    def test_max_iter_runs_excluded_unless_flagged(self):
        # a zero iteration budget ends every run at the cap
        cfg = CbreeConfig(n_particles=300, max_iter=0)
        result, rows = run_benchmark("cbree", "linear", cfg, reps=3, master_seed=10)
        assert all(r["termination"] == "max_iter" for r in rows)
        assert result.n_success == 0
        assert result.mse is None

    def test_unknown_method_or_problem(self):
        with pytest.raises(KeyError):
            run_benchmark("subset-sim", "linear", CbreeConfig(), reps=1)
        with pytest.raises(KeyError):
            run_benchmark("cbree", "nope", CbreeConfig(), reps=1)

    def test_monotone_rrmse_in_sample_size(self):
        # convergence sanity on the hyperplane problem: quadrupling J should
        # not worsen the relative error, up to benchmark noise
        small, _ = run_benchmark("cbree", "linear", CbreeConfig(n_particles=1000), reps=50, master_seed=11)
        large, _ = run_benchmark("cbree", "linear", CbreeConfig(n_particles=4000), reps=50, master_seed=11)
        assert large.rel_rmse <= small.rel_rmse

    def test_mc_method_dispatch(self):
        result, rows = run_benchmark("mc", "linear", McConfig(n_particles=50_000), reps=3, master_seed=12)
        assert result.n_success == 3
        assert all(r["cost"] == 50_000 for r in rows)


class TestWriters:
    def test_runs_csv(self, tmp_path):
        _, rows = run_benchmark("cbree", "linear", CbreeConfig(n_particles=300), reps=3, master_seed=13)
        path = tmp_path / "runs.csv"
        write_runs_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "rep,seed,estimate,cost,iterations,termination"
        assert len(lines) == 4
        # estimates round-trip exactly through repr
        for line, row in zip(lines[1:], rows):
            assert float(line.split(",")[2]) == row["estimate"]

    def test_aggregate_json_and_csv(self, tmp_path):
        result, _ = run_benchmark("cbree", "linear", CbreeConfig(n_particles=300), reps=3, master_seed=14)
        jpath = tmp_path / "agg.json"
        cpath = tmp_path / "agg.csv"
        write_aggregate_json(result, jpath)
        write_aggregate_csv(result, cpath)
        data = json.loads(jpath.read_text())
        assert data["method"] == "cbree"
        assert data["problem"] == "linear"
        assert data["reps"] == 3
        header = cpath.read_text().splitlines()[0]
        assert header.startswith("method,problem,n_particles,delta_target")
