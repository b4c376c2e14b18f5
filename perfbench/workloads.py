"""The benchmark's workloads: the acceptance suite's reference cells.

Each workload is one estimator configuration from ``tests/test_acceptance.py``
run through the documented API, plus the acceptance statistic that gates it.
``min_runs`` is the number of runs every invocation completes, whatever the
time budget; the records digest covers exactly those runs, so two
invocations with one seed compare exactly on any machine.

``flowrate`` runs (``run.py``, ``all.py``) but is not listed in
``BENCHMARK.json``: across ten seeds on a 2-CPU shared VM its median wall
time per run spread (IQR over median) 0.18-0.31 where the other workloads
stayed at 0.05-0.09, and its cost per run varies so widely (coefficient of
variation 0.22) that ``cost_mean`` over a 30-second run spreads about 0.05
between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    runner: str     # name of the documented entry point in ``cbree``
    config: dict    # CbreeConfig fields apart from the seed
    gate: str       # "median": |median / pf_ref - 1| <= 0.30; "nonconv": >= 50 % not converged
    min_runs: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flowrate",
            problem="flowrate",
            runner="run_cbree",
            config=dict(n_particles=4000, delta_target=1.0, eps_target=1.0, n_obs=2),
            gate="median",
            min_runs=6,
            why="C3 cell: the limit-state layer (FEM + tridiagonal solve) takes most of the run",
        ),
        Workload(
            name="oscillator",
            problem="oscillator",
            runner="run_cbree",
            config=dict(n_particles=6000, delta_target=1.0, eps_target=1.0, n_obs=2),
            gate="median",
            min_runs=20,
            why="C4 cell: scalar inner solvers (smoothing and beta solves) dominate, the LSF is cheap",
        ),
        Workload(
            name="linear50-gauss",
            problem="linear-50",
            runner="run_cbree",
            config=dict(n_particles=4000, delta_target=2.0, eps_target=0.5, n_obs=0),
            gate="nonconv",
            min_runs=3,
            why="C2 Gaussian cell: dense d=50 ensemble algebra over 100 capped iterations",
        ),
        Workload(
            name="linear50-vmfn",
            problem="linear-50",
            runner="run_cbree_vmfn",
            config=dict(n_particles=4000, delta_target=4.0, eps_target=0.5, n_obs=0),
            gate="median",
            min_runs=10,
            why="C2 vMFN cell: same d=50 layers plus vMFN fit and resampling each iteration",
        ),
    )
}

MEDIAN_REL_BOUND = 0.30   # C2/C3/C4 acceptance bound
NONCONV_SHARE_MIN = 0.50  # C2 plain-Gaussian acceptance bound
