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

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .driver import CbreeConfig, IterationRecord, RunRecord, run_cbree, run_cbree_vmfn
from .enkf import EnkfConfig, run_enkf, run_enkf_vmfn
from .numkit import RandomStream
from .problems import get_problem

__all__ = [
    "McConfig",
    "BenchmarkResult",
    "rel_eff",
    "run_mc",
    "audited_run",
    "run_benchmark",
    "METHODS",
]


@dataclass(frozen=True)
class McConfig:
    """Crude Monte Carlo baseline: sample size and seed only."""

    n_particles: int = 100000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class BenchmarkResult:
    """Seeded runs of one (method, problem) cell and their aggregates.

    ``records`` are the runs in repetition order, without their final
    ensembles.  The error and cost statistics cover the runs that stopped
    before ``max_iter``; they are ``None`` when there are none, and the
    error statistics also when the problem has no reference probability.
    """

    method: str
    problem: str
    config: dict
    pf_ref: float | None
    records: list[RunRecord]
    mse: float | None = field(init=False, default=None)
    rel_rmse: float | None = field(init=False, default=None)
    mean_cost: float | None = field(init=False, default=None)
    rel_eff: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        good = [r for r in self.records if r.termination != "max_iter"]
        if not good:
            return
        self.mean_cost = float(np.mean([r.cost for r in good]))
        if self.pf_ref is not None:
            errors = np.asarray([r.estimate for r in good]) - self.pf_ref
            self.mse = float(np.mean(errors**2))
            self.rel_rmse = math.sqrt(self.mse) / self.pf_ref
            self.rel_eff = rel_eff(self.mse, self.mean_cost, self.pf_ref)

    @property
    def estimates(self) -> list[float]:
        """The estimates of the runs that stopped before ``max_iter``."""
        return [r.estimate for r in self.records if r.termination != "max_iter"]

    @property
    def success_rate(self) -> float:
        return len(self.estimates) / len(self.records)


def rel_eff(mse: float, mean_cost: float, pf_ref: float) -> float:
    """``P (1 - P) / (MSE * cost)``; a zero MSE yields ``+inf``."""
    if not 0.0 < pf_ref < 1.0:
        raise ValueError("pf_ref must lie in (0, 1)")
    if mean_cost <= 0.0:
        raise ValueError("mean cost must be positive")
    if mse == 0.0:
        return math.inf
    return pf_ref * (1.0 - pf_ref) / (mse * mean_cost)


MC_BATCH = 200_000  # points per crude Monte Carlo evaluation, to bound memory


def run_mc(problem, config: McConfig) -> RunRecord:
    """Plain Monte Carlo estimate of the failure probability.

    Evaluates in batches of :data:`MC_BATCH` points; the estimate is the
    failure fraction and the cost equals the sample size.
    """
    stream = RandomStream(config.seed, (0,))
    n = config.n_particles
    fails = 0
    done = 0
    while done < n:
        take = min(MC_BATCH, n - done)
        pts = stream.standard_normal((take, problem.dim))
        fails += int(np.count_nonzero(problem.lsf(pts) <= 0.0))
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
    "enkf-vmfn": (EnkfConfig, run_enkf_vmfn),
    "mc": (McConfig, run_mc),
}


def rep_seed(master_seed: int, rep: int) -> int:
    """Per-repetition seed derived from (master seed, repetition index)."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(rep),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def audited_run(method: str, problem_name: str, config) -> RunRecord:
    """One run of ``method`` on a fresh problem instance; the recorded cost
    must equal the problem's own count of limit-state evaluations."""
    problem = get_problem(problem_name)
    record = METHODS[method][1](problem, config)
    if record.cost != problem.evaluations:
        raise RuntimeError(
            f"cost audit failed: recorded {record.cost}, counted {problem.evaluations}"
        )
    return record


def _one_rep(args) -> RunRecord:
    method, problem_name, config, master_seed, rep = args
    record = audited_run(method, problem_name, replace(config, seed=rep_seed(master_seed, rep)))
    record.final_ensemble = None  # keep results light for transport
    return record


def run_benchmark(
    method: str,
    problem_name: str,
    config,
    reps: int,
    master_seed: int = 0,
    jobs: int = 1,
) -> BenchmarkResult:
    """``reps`` seeded repetitions of one (method, problem) cell on up to
    ``jobs`` worker processes.

    Runs that never triggered a stopping criterion (``max_iter``) count as
    failures and are excluded from the error statistics.  The records keep
    repetition order regardless of worker scheduling, since ``pool.map``
    returns results in input order.
    """
    if method not in METHODS:
        raise KeyError(f"unknown method: {method!r}")
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    problem = get_problem(problem_name)  # validates the name eagerly
    work = [(method, problem_name, config, master_seed, rep) for rep in range(reps)]
    workers = min(jobs, reps)  # the pool starts every worker up front
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_one_rep, work))
    else:
        records = [_one_rep(w) for w in work]
    return BenchmarkResult(method, problem_name, asdict(config), problem.pf_ref, records)
