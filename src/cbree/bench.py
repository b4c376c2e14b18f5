"""Benchmark harness: repeated seeded runs and efficiency aggregation.

Runs a method K times with per-repetition seeds derived deterministically
from a master seed, collects the estimates and costs, and reports the mean
squared error against the problem's reference probability together with the
relative efficiency (how many times more efficient than crude Monte Carlo,
whose efficiency is ``1 / (P (1 - P))`` by definition).  Repetitions are
independent, so a worker pool with index-ordered output gives the same bytes
as a serial run.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .driver import CbreeConfig, IterationRecord, RunRecord, run_cbree, run_cbree_vmfn
from .enkf import EnkfConfig, run_enkf
from .numkit import RandomStream
from .problems import get_problem

__all__ = [
    "McConfig",
    "BenchmarkResult",
    "rel_eff",
    "run_mc",
    "run_benchmark",
    "write_runs_csv",
    "write_aggregate_json",
    "write_aggregate_csv",
    "METHODS",
]

RUN_CSV_COLUMNS = ("rep", "seed", "estimate", "cost", "iterations", "termination")

AGGREGATE_COLUMNS = (
    "method",
    "problem",
    "n_particles",
    "delta_target",
    "eps_target",
    "n_obs",
    "reps",
    "success_rate",
    "mse",
    "rel_rmse",
    "mean_cost",
    "rel_eff",
)


@dataclass
class McConfig:
    """Crude Monte Carlo baseline: sample size and seed only."""

    n_particles: int = 100000
    seed: int = 0

    def validate(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")


@dataclass
class BenchmarkResult:
    method: str
    problem: str
    config: dict
    reps: int
    n_success: int
    estimates: list[float]  # successful runs only
    mse: float | None
    rel_rmse: float | None
    mean_cost: float | None
    rel_eff: float | None
    pf_ref: float | None

    @property
    def success_rate(self) -> float:
        return self.n_success / self.reps if self.reps else 0.0


def rel_eff(mse: float, mean_cost: float, pf_ref: float) -> float:
    """``P (1 - P) / (MSE * cost)``; a zero MSE yields ``+inf``."""
    if not 0.0 < pf_ref < 1.0:
        raise ValueError("pf_ref must lie in (0, 1)")
    if mean_cost <= 0.0:
        raise ValueError("mean cost must be positive")
    if mse == 0.0:
        return math.inf
    return pf_ref * (1.0 - pf_ref) / (mse * mean_cost)


def run_mc(problem, config: McConfig, batch: int = 200_000) -> RunRecord:
    """Plain Monte Carlo estimate of the failure probability.

    Evaluates in batches to bound memory; the estimate is the failure
    fraction and the cost equals the sample size.
    """
    config.validate()
    stream = RandomStream(config.seed, (0,))
    n = config.n_particles
    fails = 0
    done = 0
    while done < n:
        take = min(batch, n - done)
        pts = stream.standard_normal((take, problem.dim))
        fails += int(np.count_nonzero(np.asarray(problem.lsf(pts)) <= 0.0))
        done += take
    estimate = fails / n
    row = IterationRecord(
        iter=0,
        cv=math.sqrt((1.0 - estimate) / (n * estimate)) if estimate > 0 else math.inf,
        pf_estimate=estimate,
        ess=float(n),
        cost_cum=n,
    )
    return RunRecord(
        estimate=estimate,
        termination="converged",
        iterations=0,
        cost=n,
        trace=[row],
        proposal=None,
        seed=config.seed,
    )


# method name -> (config class, runner); the name alone picks the proposal
METHODS = {
    "cbree": (CbreeConfig, run_cbree),
    "cbree-vmfn": (CbreeConfig, run_cbree_vmfn),
    "enkf": (EnkfConfig, run_enkf),
    "mc": (McConfig, run_mc),
}


def rep_seed(master_seed: int, rep: int) -> int:
    """Per-repetition seed derived from (master seed, repetition index)."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(rep),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _one_rep(args) -> tuple[int, int, RunRecord]:
    method, problem_name, config, master_seed, rep = args
    problem = get_problem(problem_name)
    seed = rep_seed(master_seed, rep)
    record = METHODS[method][1](problem, replace(config, seed=seed))
    if record.cost != problem.evaluations:
        raise RuntimeError(
            f"cost audit failed: recorded {record.cost}, counted {problem.evaluations}"
        )
    record.final_ensemble = None  # keep results light for transport
    return rep, seed, record


def run_benchmark(
    method: str,
    problem_name: str,
    config,
    reps: int,
    master_seed: int = 0,
    jobs: int = 1,
) -> tuple[BenchmarkResult, list[dict]]:
    """K seeded repetitions of one (method, problem) cell plus aggregates.

    Runs that never triggered a stopping criterion (``max_iter``) count as
    failures and are excluded from the error statistics.  Output ordering is
    fixed by repetition index regardless of worker scheduling.
    """
    if method not in METHODS:
        raise KeyError(f"unknown method: {method!r}")
    problem = get_problem(problem_name)  # validates the name eagerly
    work = [(method, problem_name, config, master_seed, rep) for rep in range(reps)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_one_rep, work))
    else:
        outcomes = [_one_rep(w) for w in work]
    outcomes.sort(key=lambda t: t[0])

    run_rows = []
    good_estimates = []
    good_costs = []
    for rep, seed, record in outcomes:
        run_rows.append(
            {
                "rep": rep,
                "seed": seed,
                "estimate": record.estimate,
                "cost": record.cost,
                "iterations": record.iterations,
                "termination": record.termination,
            }
        )
        if record.termination != "max_iter":
            good_estimates.append(record.estimate)
            good_costs.append(record.cost)

    pf_ref = problem.pf_ref
    n_success = len(good_estimates)
    mse = rrmse = eff = mean_cost = None
    if n_success:
        mean_cost = float(np.mean(good_costs))
        if pf_ref is not None:
            errors = np.asarray(good_estimates) - pf_ref
            mse = float(np.mean(errors**2))
            rrmse = math.sqrt(mse) / pf_ref
            eff = rel_eff(mse, mean_cost, pf_ref)
    result = BenchmarkResult(
        method=method,
        problem=problem_name,
        config=asdict(config),
        reps=reps,
        n_success=n_success,
        estimates=good_estimates,
        mse=mse,
        rel_rmse=rrmse,
        mean_cost=mean_cost,
        rel_eff=eff,
        pf_ref=pf_ref,
    )
    return result, run_rows


def write_runs_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in RUN_CSV_COLUMNS])


def _aggregate_dict(result: BenchmarkResult) -> dict:
    cfg = result.config
    return {
        "method": result.method,
        "problem": result.problem,
        "n_particles": cfg.get("n_particles"),
        "delta_target": cfg.get("delta_target"),
        "eps_target": cfg.get("eps_target"),
        "n_obs": cfg.get("n_obs"),
        "reps": result.reps,
        "success_rate": result.success_rate,
        "mse": result.mse,
        "rel_rmse": result.rel_rmse,
        "mean_cost": result.mean_cost,
        "rel_eff": None if result.rel_eff is not None and not math.isfinite(result.rel_eff) else result.rel_eff,
    }


def write_aggregate_json(result: BenchmarkResult, path) -> None:
    data = _aggregate_dict(result)
    data["pf_ref"] = result.pf_ref
    data["estimates"] = result.estimates
    data["config"] = result.config
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_aggregate_csv(result: BenchmarkResult, path) -> None:
    data = _aggregate_dict(result)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        writer.writerow([data[c] for c in AGGREGATE_COLUMNS])
