"""The adaptive importance-sampling loop shared by CBREE and the EnKF baseline.

Each iteration fits a proposal density to the current particle ensemble,
forms the importance-sampling estimate of the failure probability, and stops
when the empirical CV of the weights meets the target (converged) or starts
rising before ever meeting it (diverged).  Otherwise a method-specific mover
advances the ensemble.  CBREE's mover updates the smoothing level, inverse
temperature and stepsize and takes one consensus step; its high-dimensional
variant resamples every ensemble through a fitted vMFN model before
estimating.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .cbs import (
    Ensemble,
    cbs_step,
    coefficients_from_log_weights,
    ess_from_log_weights,
    solve_beta,
)
from .densities import gaussian_fit, gaussian_sample, std_normal_logpdf, vmfn_fit, vmfn_sample
from .numkit import RandomStream, ls_slope
from .problems import ProblemSpec
from .smoothing import SmoothingState, empirical_cv, log_target, update_smoothing
from .stepctl import (
    StepControllerState,
    initial_stepsize,
    moments_of_ensemble,
    pack_moments,
    stage_from_coefficients,
)

__all__ = [
    "CbreeConfig",
    "RunRecord",
    "IterationRecord",
    "is_estimate",
    "divergence_check",
    "run_loop",
    "run_cbree",
    "run_cbree_vmfn",
]

TRACE_COLUMNS = (
    "iter",
    "s",
    "beta",
    "beta_capped",
    "h",
    "err",
    "cv",
    "pf_estimate",
    "ess",
    "cost_cum",
)


@dataclass
class CbreeConfig:
    """All tunables of one run.

    ``n_obs = 0`` disables the divergence check; when active it must be at
    least 2 so a slope can be fitted.
    """

    n_particles: int = 2000
    delta_target: float = 1.0
    eps_target: float = 1.0
    n_obs: int = 2
    lip_s: float = 1.0
    max_iter: int = 100
    beta_cap: float = 1e8
    seed: int = 0

    def validate(self) -> None:
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if self.delta_target <= 0 or self.eps_target <= 0 or self.lip_s <= 0:
            raise ValueError("delta_target, eps_target and lip_s must be positive")
        if self.n_obs != 0 and self.n_obs < 2:
            raise ValueError("n_obs must be 0 (disabled) or >= 2")
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")


@dataclass(kw_only=True)
class IterationRecord:
    """One trace row: the estimate at iteration n plus the parameters of the
    step taken from it (NaN on the terminal row, where no step follows, and
    wherever a method has no such parameter)."""

    iter: int
    s: float = math.nan
    beta: float = math.nan
    beta_capped: bool = False
    h: float = math.nan
    err: float = math.nan
    cv: float
    pf_estimate: float
    ess: float = math.nan
    cost_cum: int


@dataclass
class RunRecord:
    """Everything one run produced: the estimate, why it stopped, the cost in
    limit-state evaluations and the per-iteration trace."""

    estimate: float
    termination: str  # "converged" | "diverged" | "max_iter"
    iterations: int
    cost: int
    trace: list[IterationRecord]
    proposal: dict | None = None
    seed: int | None = None
    final_ensemble: Ensemble | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        def clean(v):
            if isinstance(v, (np.floating, np.integer, np.bool_)):
                v = v.item()
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v

        return {
            "estimate": clean(self.estimate),
            "termination": self.termination,
            "iterations": self.iterations,
            "cost": self.cost,
            "seed": self.seed,
            "proposal": self.proposal,
            "trace": [
                {k: clean(v) for k, v in asdict(row).items()} for row in self.trace
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_trace_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for row in self.trace:
                writer.writerow([getattr(row, col) for col in TRACE_COLUMNS])


def is_estimate(ens: Ensemble, proposal) -> tuple[float, np.ndarray]:
    """Importance-sampling estimate with the fitted proposal as sampler.

    Weights are ``exp(log phi(x) - log mu(x))`` on failure particles and zero
    elsewhere; with no failure particles the estimate is zero and the CV
    downstream becomes infinite.
    """
    fail = ens.g_values <= 0.0
    weights = np.zeros(ens.size)
    if np.any(fail):
        pts = ens.points[fail]
        weights[fail] = np.exp(std_normal_logpdf(pts) - proposal.logpdf(pts))
    return float(weights.mean()), weights


def divergence_check(cv_history, n_obs: int) -> bool:
    """Positive least-squares slope of the CV over the last ``n_obs`` values.

    Infinite CV entries carry no information (no or one-point failure mass),
    so the check is suppressed until a finite CV has been observed and
    whenever the newest entry is non-finite; remaining infinite entries
    inside the window are replaced by ten times the largest finite CV seen
    so far, which keeps the slope fit well defined.
    """
    if n_obs < 2:
        raise ValueError("n_obs must be at least 2 for the divergence check")
    hist = np.asarray(cv_history, dtype=float)
    if hist.size < n_obs:
        return False
    finite = hist[np.isfinite(hist)]
    if finite.size == 0 or not np.isfinite(hist[-1]):
        return False
    window = hist[-n_obs:].copy()
    window[~np.isfinite(window)] = 10.0 * finite.max()
    return ls_slope(window) > 0.0


def run_loop(problem: ProblemSpec, config, mover) -> RunRecord:
    """Fit, estimate, check the stopping rules and move, until a rule fires.

    ``config`` supplies ``n_particles``, ``seed``, ``delta_target`` and
    ``max_iter``; the mover supplies everything that differs between methods:

    - ``proposal``: ``"gaussian"`` or ``"vmfn"``, the fitted density;
    - ``batch``: ``None`` to estimate on the ensemble itself, ``"replace"``
      to draw J fresh points from the proposal each iteration and move those,
      or ``"apart"`` to estimate on the fresh points and move the ensemble;
    - ``n_obs``: the divergence window, 0 to disable it;
    - ``start(ens, root, lsf)``: set-up on the initial ensemble, returning
      the limit-state evaluations it spent;
    - ``trace_fields()``: its values for a new trace row;
    - ``move(ens, model, n, stream, lsf, row)``: the next ensemble, with the
      step's parameters written into ``row``; ``lsf`` is ``None`` when the
      next fresh batch replaces the points anyway.

    The cost is counted here from the batch sizes evaluated: the initial
    sweep, each fresh batch, one sweep per move that gets ``lsf``, plus the
    mover's start-up evaluations.
    """
    config.validate()
    d = problem.dim
    if d < 1:
        raise ValueError("problem dimension must be at least 1")
    vmfn = mover.proposal == "vmfn"
    if vmfn and d < 2:
        raise ValueError("the vMFN proposal requires dimension >= 2")

    J = config.n_particles
    lsf = problem.lsf
    root = RandomStream(config.seed)
    points = root.substream(0).standard_normal((J, d))
    ens = Ensemble(points=points, g_values=np.asarray(lsf(points), dtype=float))
    cost = J + mover.start(ens, root, lsf)
    step_lsf = None if mover.batch == "replace" else lsf
    cv_history: list[float] = []
    pf_history: list[float] = []
    trace: list[IterationRecord] = []

    n = 0
    while True:
        model = vmfn_fit(ens.points) if vmfn else gaussian_fit(ens.points)
        sample = ens
        if mover.batch is not None:
            sampler = vmfn_sample if vmfn else gaussian_sample
            new_pts = sampler(model, root.substream(2, n), J)
            sample = Ensemble(points=new_pts, g_values=np.asarray(lsf(new_pts), dtype=float))
            cost += J
            if mover.batch == "replace":
                ens = sample

        pf, weights = is_estimate(sample, model)
        cv = empirical_cv(weights)
        cv_history.append(cv)
        pf_history.append(pf)
        row = IterationRecord(iter=n, cv=cv, pf_estimate=pf, cost_cum=cost, **mover.trace_fields())
        trace.append(row)

        termination, estimate = None, pf
        if cv <= config.delta_target:
            termination = "converged"
        elif mover.n_obs > 0 and n >= mover.n_obs and divergence_check(cv_history, mover.n_obs):
            termination, estimate = "diverged", float(np.mean(pf_history[-mover.n_obs :]))
        elif n >= config.max_iter:
            termination = "max_iter"
        if termination is not None:
            return RunRecord(
                estimate=float(estimate),
                termination=termination,
                iterations=n,
                cost=cost,
                trace=trace,
                proposal=model.to_json(),
                seed=config.seed,
                final_ensemble=ens,
            )

        ens = mover.move(ens, model, n, root.substream(3, n), step_lsf, row)
        if step_lsf is not None:
            cost += J
        row.cost_cum = cost
        n += 1


class CbreeMover:
    """One consensus step per iteration, with adaptive smoothing, inverse
    temperature and stepsize.

    With the vMFN proposal every ensemble is resampled through the fitted
    model, which doubles as the importance-sampling proposal; the particle
    step then skips its evaluation sweep since the resampled ensemble is
    evaluated instead (one sweep of J evaluations per iteration either way).
    """

    def __init__(self, config: CbreeConfig, proposal: str):
        self.config = config
        self.proposal = proposal
        self.batch = "replace" if proposal == "vmfn" else None
        self.n_obs = config.n_obs

    def start(self, ens: Ensemble, root: RandomStream, lsf) -> int:
        cfg = self.config
        self.s = 0.0
        self.ess_target = ens.size / 2.0
        # provisional temperature at the initial smoothing level drives the probe
        beta0, _ = solve_beta(log_target(ens.g_values, ens.points, self.s), self.ess_target, cfg.beta_cap)
        h1, _probe, probe_cost = initial_stepsize(
            ens, self.s, beta0, cfg.eps_target, root.substream(1), lsf
        )
        self.ctrl = StepControllerState(h_current=h1, eps_target=cfg.eps_target)
        return probe_cost

    def trace_fields(self) -> dict:
        return {"s": self.s}

    def move(self, ens: Ensemble, model, n: int, stream: RandomStream, lsf, row) -> Ensemble:
        cfg = self.config
        # the Gaussian proposal was fitted to this very ensemble, so its
        # moments are the ensemble's; a vMFN ensemble was resampled after
        # its fit
        if self.proposal == "vmfn":
            theta_now = moments_of_ensemble(ens)
        else:
            theta_now = pack_moments(model.mean, model.covariance)
        h_next, err = self.ctrl.propose(theta_now, n)
        state = SmoothingState(s=self.s, lip_s=cfg.lip_s, delta_target=cfg.delta_target)
        s_next = update_smoothing(ens.g_values, state, h_next)
        log_w = log_target(ens.g_values, ens.points, s_next)
        beta, beta_capped = solve_beta(log_w, self.ess_target, cfg.beta_cap)
        coeffs = coefficients_from_log_weights(ens.points, beta * log_w, beta)
        self.ctrl.record(theta_now, stage_from_coefficients(coeffs), h_next)

        row.s = s_next
        row.beta = beta
        row.beta_capped = beta_capped
        row.h = h_next
        row.err = err if err is not None else math.nan
        row.ess = ess_from_log_weights(log_w, beta)
        self.s = s_next
        return cbs_step(ens, s_next, beta, h_next, stream, lsf, coeffs=coeffs)


def run_cbree(problem: ProblemSpec, config: CbreeConfig) -> RunRecord:
    """Run the adaptive consensus loop with a fitted Gaussian proposal."""
    return run_loop(problem, config, CbreeMover(config, "gaussian"))


def run_cbree_vmfn(problem: ProblemSpec, config: CbreeConfig) -> RunRecord:
    """High-dimensional variant: resample each ensemble through a vMFN fit."""
    return run_loop(problem, config, CbreeMover(config, "vmfn"))
