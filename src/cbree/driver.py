"""Main adaptive importance-sampling loop and its two stopping checks.

Each iteration fits a proposal density to the current particle ensemble,
forms the importance-sampling estimate of the failure probability, and stops
when the empirical CV of the weights meets the target (converged) or starts
rising before ever meeting it (diverged).  Otherwise the smoothing level,
inverse temperature and stepsize are updated and the ensemble advances by one
consensus step.  The high-dimensional variant resamples every ensemble
through a fitted vMFN model before estimating.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cbs import (
    Ensemble,
    cbs_step,
    coefficients_from_log_weights,
    ess_from_log_weights,
    solve_beta,
)
from .densities import (
    gaussian_fit,
    model_logpdf,
    model_to_json,
    std_normal_logpdf,
    vmfn_fit,
    vmfn_sample,
)
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
    "convergence_check",
    "divergence_check",
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
    least 2 so a slope can be fitted.  Stepsize growth is clamped to
    ``[step_factor_min, step_factor_max]`` unless ``clamp_steps`` is off,
    which reproduces the raw update formula.
    """

    n_particles: int = 2000
    delta_target: float = 1.0
    eps_target: float = 1.0
    n_obs: int = 2
    lip_s: float = 1.0
    max_iter: int = 100
    proposal_kind: str = "gaussian"  # "gaussian" or "vmfn"
    beta_cap: float = 1e8
    step_factor_min: float = 0.2
    step_factor_max: float = 5.0
    clamp_steps: bool = True
    literal_midpoint: bool = False
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
        if self.proposal_kind not in ("gaussian", "vmfn"):
            raise ValueError("proposal_kind must be 'gaussian' or 'vmfn'")
        if not 0 < self.step_factor_min <= self.step_factor_max:
            raise ValueError("stepsize clamps must satisfy 0 < min <= max")

    @property
    def step_clamps(self) -> tuple[float, float] | None:
        return (self.step_factor_min, self.step_factor_max) if self.clamp_steps else None


@dataclass
class IterationRecord:
    """One trace row: the estimate at iteration n plus the parameters of the
    step taken from it (NaN on the terminal row, where no step follows)."""

    iter: int
    s: float
    beta: float
    beta_capped: bool
    h: float
    err: float
    cv: float
    pf_estimate: float
    ess: float
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
        weights[fail] = np.exp(std_normal_logpdf(pts) - model_logpdf(proposal, pts))
    return float(weights.mean()), weights


def convergence_check(weights, delta_target: float) -> bool:
    """Empirical CV of the importance weights at most the target."""
    return empirical_cv(weights) <= delta_target


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


def _run(problem: ProblemSpec, config: CbreeConfig) -> RunRecord:
    config.validate()
    d = problem.dim
    if d < 1:
        raise ValueError("problem dimension must be at least 1")
    resample = config.proposal_kind == "vmfn"
    if resample and d < 2:
        raise ValueError("the vMFN variant requires dimension >= 2")

    J = config.n_particles
    lsf = problem.lsf
    root = RandomStream(config.seed)
    ess_target = J / 2.0

    points = root.substream(0).standard_normal((J, d))
    ens = Ensemble(points=points, g_values=np.asarray(lsf(points), dtype=float))
    cost = J
    s_cur = 0.0

    # provisional temperature at the initial smoothing level drives the probe
    beta0, _ = solve_beta(log_target(ens.g_values, ens.points, s_cur), ess_target, config.beta_cap)
    h1, _probe, probe_cost = initial_stepsize(
        ens, s_cur, beta0, config.eps_target, root.substream(1), lsf
    )
    cost += probe_cost

    ctrl = StepControllerState(
        h_current=h1,
        eps_target=config.eps_target,
        clamps=config.step_clamps,
        literal_midpoint=config.literal_midpoint,
    )
    cv_history: list[float] = []
    pf_history: list[float] = []
    trace: list[IterationRecord] = []

    def finish(estimate, termination, n, proposal):
        return RunRecord(
            estimate=float(estimate),
            termination=termination,
            iterations=n,
            cost=cost,
            trace=trace,
            proposal=model_to_json(proposal),
            seed=config.seed,
            final_ensemble=ens,
        )

    n = 0
    while True:
        if resample:
            model = vmfn_fit(ens.points)
            new_pts = vmfn_sample(model, root.substream(2, n), J)
            ens = Ensemble(points=new_pts, g_values=np.asarray(lsf(new_pts), dtype=float))
            cost += J
        else:
            model = gaussian_fit(ens.points)

        pf, weights = is_estimate(ens, model)
        cv = empirical_cv(weights)
        cv_history.append(cv)
        pf_history.append(pf)
        row = IterationRecord(
            iter=n,
            s=s_cur,
            beta=math.nan,
            beta_capped=False,
            h=math.nan,
            err=math.nan,
            cv=cv,
            pf_estimate=pf,
            ess=math.nan,
            cost_cum=cost,
        )
        trace.append(row)

        if convergence_check(weights, config.delta_target):
            return finish(pf, "converged", n, model)
        if config.n_obs > 0 and n >= config.n_obs and divergence_check(cv_history, config.n_obs):
            estimate = float(np.mean(pf_history[-config.n_obs :]))
            return finish(estimate, "diverged", n, model)
        if n >= config.max_iter:
            return finish(pf, "max_iter", n, model)

        # the Gaussian proposal was fitted to this very ensemble, so its
        # moments are the ensemble's; a vMFN ensemble was resampled after
        # its fit
        if resample:
            theta_now = moments_of_ensemble(ens)
        else:
            theta_now = pack_moments(model.mean, model.covariance)
        h_next, err = ctrl.propose(theta_now, n)
        state = SmoothingState(s=s_cur, lip_s=config.lip_s, delta_target=config.delta_target)
        s_next = update_smoothing(ens.g_values, state, h_next)
        log_w = log_target(ens.g_values, ens.points, s_next)
        beta, beta_capped = solve_beta(log_w, ess_target, config.beta_cap)
        coeffs = coefficients_from_log_weights(ens.points, beta * log_w, beta)
        ctrl.record(theta_now, stage_from_coefficients(coeffs), h_next)

        row.s = s_next
        row.beta = beta
        row.beta_capped = beta_capped
        row.h = h_next
        row.err = err if err is not None else math.nan
        row.ess = ess_from_log_weights(log_w, beta)

        ens = cbs_step(
            ens,
            s_next,
            beta,
            h_next,
            root.substream(3, n),
            None if resample else lsf,
            coeffs=coeffs,
        )
        if not resample:
            cost += J
        row.cost_cum = cost
        s_cur = s_next
        n += 1


def run_cbree(problem: ProblemSpec, config: CbreeConfig) -> RunRecord:
    """Run the adaptive consensus loop with a fitted Gaussian proposal."""
    return _run(problem, config)


def run_cbree_vmfn(problem: ProblemSpec, config: CbreeConfig) -> RunRecord:
    """High-dimensional variant: resample each ensemble through a vMFN fit.

    The vMFN model doubles as the importance-sampling proposal; the particle
    step itself skips its evaluation sweep since the resampled ensemble is
    evaluated instead (one sweep of J evaluations per iteration either way).
    """
    return _run(problem, replace(config, proposal_kind="vmfn"))
