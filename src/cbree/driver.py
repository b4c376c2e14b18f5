"""The adaptive importance-sampling loop shared by CBREE and the EnKF baseline.

Each iteration fits a proposal density to the current particle ensemble (or,
when a Gaussian particle step drew the ensemble exactly from a known law,
takes that law), forms the importance-sampling estimate of the failure
probability, and stops when the empirical CV of the weights meets the target
(converged) or starts rising before ever meeting it (diverged).  Otherwise a
method-specific mover advances the ensemble.  CBREE's mover updates the
smoothing level, inverse temperature and stepsize and takes one consensus
step; its high-dimensional variant resamples every ensemble through a fitted
vMFN model before estimating.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cbs import (
    Ensemble,
    cbs_step,
    coefficients_from_log_weights,
    ess_from_log_weights,
    solve_beta,
    step_is_exact,
)
from .densities import (
    gaussian_fit,
    gaussian_sample,
    std_normal_logpdf,
    vmfn_fit,
    vmfn_sample,
)
from .numkit import RandomStream, ls_slope
from .problems import ProblemSpec
from .smoothing import empirical_cv, update_smoothing
from .stepctl import (
    StepControllerState,
    initial_stepsize,
    moments_of_ensemble,
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

@dataclass(frozen=True)
class CbreeConfig:
    """All tunables of one run, checked when the config is built; use
    :func:`dataclasses.replace` to vary one.

    ``n_obs = 0`` disables the divergence check; when active it must be at
    least 2 so a slope can be fitted.
    """

    n_particles: int = 2000
    delta_target: float = 1.0
    eps_target: float = 1.0
    n_obs: int = 2
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 3:
            # the ESS target J/2 must lie strictly between 1 and J
            raise ValueError("n_particles must be at least 3")
        if not (0 < self.delta_target < math.inf and 0 < self.eps_target < math.inf):  # NaN fails too
            raise ValueError("delta_target and eps_target must be positive and finite")
        if self.n_obs != 0 and self.n_obs < 2:
            raise ValueError("n_obs must be 0 (disabled) or >= 2")
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


TRACE_COLUMNS = tuple(f.name for f in fields(IterationRecord))


@dataclass
class RunRecord:
    """Everything one run produced: the estimate, why it stopped, the cost in
    limit-state evaluations and the per-iteration trace.

    ``exact_from`` is the first iteration whose proposal is the exact law of
    its points rather than a fit (see :func:`run_loop`), ``None`` when no
    iteration's is.
    """

    estimate: float
    termination: str  # "converged" | "diverged" | "max_iter"
    iterations: int
    cost: int
    trace: list[IterationRecord]
    proposal: dict | None = None
    seed: int | None = None
    exact_from: int | None = None
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
            "exact_from": self.exact_from,
            "cost": self.cost,
            "seed": self.seed,
            "proposal": self.proposal,
            "trace": [
                {k: clean(v) for k, v in asdict(row).items()} for row in self.trace
            ],
        }


def is_estimate(
    ens: Ensemble, proposal, work=(None, None), log_mu=None
) -> tuple[float, np.ndarray]:
    """Importance-sampling estimate with ``proposal`` as sampler.

    Weights are ``exp(log phi(x) - log mu(x))`` on failure particles and zero
    elsewhere; with no failure particles the estimate is zero and the CV
    downstream becomes infinite.  ``log phi`` is the ensemble's shared one;
    ``log mu`` is evaluated on every particle, with ``work`` (a pair of
    arrays shaped like the points) as scratch, so that no subset is copied.
    ``log_mu`` passes the proposal's log-density at the points when it is
    already known in closed form, as for the exact law of a particle step,
    ``-(d log 2 pi + log det + |xi_j|^2) / 2`` at the point
    ``m_beta + L xi_j``; neither the proposal nor ``work`` is then read.
    """
    fail = ens.g_values <= 0.0
    weights = np.zeros(ens.size)
    if np.any(fail):
        if log_mu is None:
            log_mu = proposal.logpdf(ens.points, work)
        log_ratio = ens.log_phi() - log_mu
        weights[fail] = np.exp(log_ratio[fail])
    return float(weights.mean()), weights


def divergence_check(window) -> bool:
    """Positive least-squares slope of the CV over ``window``, the latest
    ``n_obs`` values.

    Infinite CV entries carry no information (no or one-point failure mass),
    so a window holding any non-finite entry never signals divergence.
    """
    return bool(np.all(np.isfinite(window))) and ls_slope(window) > 0.0


def run_loop(problem: ProblemSpec, config, mover) -> RunRecord:
    """Fit, estimate, check the stopping rules and move, until a rule fires.

    ``config`` supplies ``n_particles``, ``seed``, ``delta_target`` and
    ``max_iter``; the mover supplies everything that differs between methods:

    - ``proposal``: ``"gaussian"`` or ``"vmfn"``, the fitted density;
    - ``batch``: ``None`` to estimate on the ensemble itself, ``"replace"``
      to draw J fresh points from the proposal each iteration and move those,
      or ``"apart"`` to estimate on the fresh points and move the ensemble;
    - ``n_obs``: the divergence window, 0 to disable it;
    - ``start(ens, root)``: set-up on the initial ensemble;
    - ``noise_shape(J, d)``: the shape of one step's standard-normal noise;
    - ``move(ens, model, n, noise, row, out, scratch)``: the pair
      ``(positions, law)``, with the step's parameters written into ``row``;
      ``noise`` is a future whose ``result()`` is the step's draw from
      ``substream(3, n)``, which must not be read after the call, since its
      buffer is refilled for a later step; ``out`` is a ``(J, d)`` array
      the mover may write the new positions into, and ``scratch`` a
      ``(J, d)`` array for its temporaries.  ``law`` is ``None``, or, when
      the new positions are exact draws from a known Gaussian, the pair
      ``(model, log_mu)`` of that Gaussian and its log-density at them.

    An ensemble with a known law is not fitted: the next iteration takes
    that law as its proposal and its ``log mu`` as given (see
    :func:`is_estimate`).  Every other ensemble is fitted.  The record's
    ``exact_from`` is the first iteration that takes a known law.

    One worker thread draws the step noise one step ahead, into two buffers
    allocated once per run and filled in turn: step ``n``'s draw goes into
    buffer ``n % 2``.  Step 0's draw is submitted before the initial ensemble
    is drawn, and step ``n + 1``'s once iteration ``n`` has passed its
    stopping checks, when step ``n - 1`` has consumed that buffer, so the
    worker draws it while step ``n`` runs and the next iteration fits and
    estimates.  Steps are taken at iterations ``0 .. max_iter - 1``, and no
    noise is drawn for a later one, nor for a step after the one at which
    the run stops; a run that stops cancels that step's draw if it is still
    queued, and waits for it otherwise.  With a fresh batch, the same worker
    also draws the batch's ``(J, d)`` standard normals, the first draws of
    ``substream(2, n)``, into a buffer of their own: batch ``n + 1``'s once
    iteration ``n`` has passed its stopping checks, queued before step
    ``n + 1``'s noise because the next iteration needs it first, so the
    draw runs during the move and the next fit.  It hands back that stream,
    advanced past the normals, and the vMFN sampler takes its remaining
    draws from it.  The worker only calls the random generator, and the
    draws depend on nothing the iteration computes, so the records are the
    same as with draws made in line.  The run also owns its other large arrays:
    two position arrays, one holding the ensemble and one spare that a fresh
    batch or the particle step is written into (the two swap roles when the
    ensemble is replaced), and a pair of scratch arrays for the ``(J, d)``
    temporaries of the fit and the estimate, the first of which the move
    reuses.  Nothing is shared between runs.

    Only this loop calls the limit state, and each call adds its J
    evaluations to the cost.  One rule decides what it evaluates: every
    fresh batch, and every ensemble, the initial one and each moved one,
    unless the next fresh batch replaces it.  A CBREE run of n iterations
    therefore costs J (n + 1) with either proposal (the initial ensemble and
    n moved ones, or n + 1 fresh batches), and an EnKF run J (2 n + 2).
    """
    d = problem.dim
    vmfn = mover.proposal == "vmfn"
    if vmfn and d < 2:
        raise ValueError("the vMFN proposal requires dimension >= 2")

    J = config.n_particles
    cost = 0
    root = RandomStream(config.seed)
    noise = np.empty((2, *mover.noise_shape(J, d)))
    normals = None if mover.batch is None else np.empty((J, d))

    def draw_noise(n: int) -> np.ndarray:
        return root.substream(3, n).standard_normal(noise.shape[1:], out=noise[n % 2])

    def draw_normals(n: int) -> tuple[RandomStream, np.ndarray]:
        stream = root.substream(2, n)
        stream.standard_normal(normals.shape, out=normals)
        return stream, normals

    def evaluated(points: np.ndarray) -> Ensemble:
        nonlocal cost
        cost += J
        return Ensemble(points=points, g_values=problem.lsf(points))

    def settled(points: np.ndarray) -> Ensemble:
        # the start-up probe and the next fit read only the positions and
        # log phi of an ensemble that the next fresh batch replaces, so its
        # limit state is not evaluated
        return Ensemble(points, None) if mover.batch == "replace" else evaluated(points)

    # leaving the block joins the worker on every exit path, errors included
    with ThreadPoolExecutor(max_workers=1) as worker:
        # no noise is drawn for a step at or past max_iter, never taken
        pending = worker.submit(draw_noise, 0) if config.max_iter > 0 else None
        # iteration 0 always runs, so its batch is always drawn
        batch = None if normals is None else worker.submit(draw_normals, 0)
        ens = settled(root.substream(0).standard_normal((J, d)))
        mover.start(ens, root)
        # allocated after the start-up probe has freed its temporaries
        spare = np.empty((J, d))
        work = np.empty((2, J, d))
        law, exact_from = None, None
        trace: list[IterationRecord] = []

        n = 0
        while True:
            if law is None:
                model = vmfn_fit(ens.points) if vmfn else gaussian_fit(ens.points, work[0])
                log_mu = None
            else:
                model, log_mu = law
                exact_from = n if exact_from is None else exact_from
            sample = ens
            if batch is not None:
                stream, xi = batch.result()
                if vmfn:
                    sample = evaluated(vmfn_sample(model, stream, J, spare, normals=xi))
                else:
                    sample = evaluated(gaussian_sample(model, xi, spare))
                if mover.batch == "replace":
                    spare, ens = ens.points, sample

            pf, weights = is_estimate(sample, model, work, log_mu)
            cv = empirical_cv(weights)
            row = IterationRecord(iter=n, cv=cv, pf_estimate=pf, cost_cum=cost)
            trace.append(row)

            termination, estimate = None, pf
            if cv <= config.delta_target:
                termination = "converged"
            elif mover.n_obs > 0 and n >= mover.n_obs and divergence_check(
                [r.cv for r in trace[-mover.n_obs :]]
            ):
                termination = "diverged"
                estimate = float(np.mean([r.pf_estimate for r in trace[-mover.n_obs :]]))
            elif n >= config.max_iter:
                termination = "max_iter"
            if termination is not None:
                if pending is not None and not pending.cancel():
                    pending.result()  # a failed draw is not lost
                return RunRecord(
                    estimate=float(estimate),
                    termination=termination,
                    iterations=n,
                    cost=cost,
                    trace=trace,
                    proposal=model.to_json(),
                    seed=config.seed,
                    exact_from=exact_from,
                    final_ensemble=ens,
                )

            # the sampler has consumed the normals, so they may be redrawn
            if batch is not None:
                batch = worker.submit(draw_normals, n + 1)
            # step n - 1 has consumed the other buffer, so step n + 1's draw
            # may fill it while step n runs; it queues behind the next batch,
            # which the next iteration needs first
            ahead = worker.submit(draw_noise, n + 1) if n + 1 < config.max_iter else None
            moved, law = mover.move(ens, model, n, pending, row, spare, work[0])
            pending = ahead
            if moved is spare:
                spare = ens.points
            ens = settled(moved)
            row.cost_cum = cost
            n += 1


class CbreeMover:
    """One consensus step per iteration, with adaptive smoothing, inverse
    temperature and stepsize.

    With the Gaussian proposal, a step whose ``exp(-h)`` underflows to 0
    (:func:`~cbree.cbs.step_is_exact`) draws the new points exactly from
    ``N(m_beta, L L^T)``, and the move hands the step's coefficients, which
    are that law, to the run loop as the next proposal, with ``log mu`` at
    each point in closed form from its noise row, read before the noise
    buffer is released, so the law's whitening is never computed.  The step
    controller reads the proposal's moments either way.
    With the vMFN proposal every ensemble is resampled through the fitted
    model, which doubles as the importance-sampling proposal; the run loop
    then evaluates the resampled ensembles and neither the initial nor a
    moved one, and no law is handed on.  A run of n iterations costs
    J (n + 1) evaluations with either proposal.
    """

    def __init__(self, config: CbreeConfig, proposal: str):
        self.config = config
        self.proposal = proposal
        self.batch = "replace" if proposal == "vmfn" else None
        self.n_obs = config.n_obs

    def start(self, ens: Ensemble, root: RandomStream) -> None:
        cfg = self.config
        self.s = 0.0
        self.ess_target = ens.size / 2.0
        # provisional temperature at s = 0, where every indicator is 1/2 and
        # the log-target is log phi - log 2, drives the probe
        beta0, _, _ = solve_beta(ens.log_phi() - math.log(2.0), self.ess_target)
        h1 = initial_stepsize(ens, beta0, cfg.eps_target, root.substream(1))
        self.ctrl = StepControllerState(h_current=h1, eps_target=cfg.eps_target)

    def noise_shape(self, J: int, d: int) -> tuple[int, ...]:
        return (J, d)

    def move(self, ens: Ensemble, model, n: int, noise: Future, row, out, scratch):
        cfg = self.config
        # the Gaussian proposal is fitted to this very ensemble or is the
        # law it was drawn from, so its moments stand for the ensemble's; a
        # vMFN ensemble was resampled after its fit
        if self.proposal == "vmfn":
            moments = moments_of_ensemble(ens, scratch)
        else:
            moments = model.mean, model.covariance
        h_next, err = self.ctrl.propose(moments, n)
        s_next, log_w = update_smoothing(ens.g_values, self.s, h_next, cfg.delta_target)
        # the log-target log I(g, s_next) + log phi
        log_w += ens.log_phi()
        beta, beta_capped, ess = solve_beta(log_w, self.ess_target)
        if ess is None:  # the solve stopped at a midpoint it did not evaluate
            ess = ess_from_log_weights(log_w, beta)
        coeffs = coefficients_from_log_weights(ens.points, beta * log_w, beta, scratch)
        self.ctrl.record(moments, coeffs, h_next)

        row.s = s_next
        row.beta = beta
        row.beta_capped = beta_capped
        row.h = h_next
        row.err = err
        row.ess = ess
        self.s = s_next
        xi = noise.result()
        # the moments are taken, so scratch is free for the step's product
        moved = cbs_step(ens, coeffs, h_next, xi, out, scratch)
        if self.proposal == "vmfn" or not step_is_exact(h_next):
            return moved, None
        # the points are m_beta + L xi, so their log-density is that of xi
        # less log det L; the buffer is refilled for a later step, so xi is
        # read now
        return moved, (coeffs, std_normal_logpdf(xi) - 0.5 * coeffs.log_det)


def run_cbree(problem: ProblemSpec, config: CbreeConfig) -> RunRecord:
    """Run the adaptive consensus loop with a fitted Gaussian proposal."""
    return run_loop(problem, config, CbreeMover(config, "gaussian"))


def run_cbree_vmfn(problem: ProblemSpec, config: CbreeConfig) -> RunRecord:
    """High-dimensional variant: resample each ensemble through a vMFN fit."""
    return run_loop(problem, config, CbreeMover(config, "vmfn"))
