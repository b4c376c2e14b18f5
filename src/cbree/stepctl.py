"""Adaptive step-size control for the particle dynamics.

The first two ensemble moments follow (in the mean-field, Gaussian regime)
the semilinear ODE

    d/dt E = -E + m_beta,      d/dt C = -2 C + 2 c_beta^2,

and the particle update is exactly the exponential Euler method applied to
this system.  Treating two consecutive equal-h steps as one step of an
auxiliary two-stage method allows an embedded comparison against a
second-order exponential midpoint rule, yielding a local-error estimate with
no extra evaluations.  The linear part is diagonal (rate 1 on the mean block,
rate 2 on the covariance block), so all matrix functions reduce to two scalar
evaluations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .cbs import Ensemble, cbs_step, coefficients_from_log_weights
from .densities import GaussianModel
from .numkit import RandomStream, sample_mean

__all__ = [
    "StepControllerState",
    "ensemble_coefficients",
    "moments_of_ensemble",
    "moments_rhs",
    "phi_scalar",
    "bhat_coefficients",
    "local_error",
    "next_stepsize",
    "initial_stepsize",
]

_SERIES_CUT = 2e-3  # below it 2 (1 - phi) / z loses over 1e-13 to cancellation
STEP_FACTOR_MIN = 0.2
STEP_FACTOR_MAX = 5.0
_RATES = (1.0, 2.0)  # decay rates of the mean and the covariance block


def ensemble_coefficients(ens: Ensemble, beta: float) -> GaussianModel:
    """Softmax-weighted mean and (1+beta)-scaled covariance of the ensemble
    at the start level ``s = 0``, where ``I(g, 0) = 1/2`` for every finite
    ``g``: the log-weights ``beta (log phi - log 2)`` involve no limit-state
    value.  They stay in the log domain; in high dimensions ``log phi``
    alone spans hundreds of nats across the ensemble.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return coefficients_from_log_weights(ens.points, beta * (ens.log_phi() - np.log(2.0)), beta)


def moments_of_ensemble(ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and population covariance of the particle positions, the
    ``(mean, cov)`` pair every function here takes as moments.  Only the
    start-up probe measures an ensemble: the run's step controller reads its
    proposal's moments."""
    pts = ens.points
    if pts.shape[0] < 2:
        raise ValueError("moments need at least two particles")
    mean = sample_mean(pts)
    centered = pts - mean
    return mean, centered.T @ centered / pts.shape[0]


def moments_rhs(moments, coeffs: GaussianModel) -> tuple[np.ndarray, np.ndarray]:
    """Full right-hand side ``(m_beta - E, 2 c_beta^2 - 2 C)`` of the moment
    ODE at the moments ``(E, C)`` of an ensemble with coefficients ``coeffs``."""
    mean, cov = moments
    return coeffs.mean - mean, 2.0 * coeffs.covariance - 2.0 * cov


def phi_scalar(z: float) -> float:
    """``(1 - exp(-z)) / z`` with the continuous extension 1 at zero.

    Formed as ``-expm1(-z) / z``, which keeps full relative accuracy near
    zero and stays finite for every ``z >= 0``, infinity included.
    """
    return 1.0 if z == 0.0 else -math.expm1(-z) / z


def bhat_coefficients(z: float) -> tuple[float, float]:
    """Weights of the second-order exponential midpoint rule.

    ``b2(z) = 2 (exp(-z) + z - 1) / z^2 = 2 (1 - phi(z)) / z`` and
    ``b1 = phi(z) - b2``; both sum to ``phi(z)`` (consistency) and tend to
    the classical midpoint weights (0, 1) as ``z -> 0``.  Below
    ``_SERIES_CUT``, where ``1 - phi`` cancels, ``b2`` is its Taylor series.
    No ``z^2`` is formed, so the weights stay finite for every ``z >= 0``.
    """
    phi = phi_scalar(z)
    if abs(z) < _SERIES_CUT:
        b2 = 1.0 + z * (-1.0 / 3.0 + z * (1.0 / 12.0 + z * (-1.0 / 60.0 + z / 360.0)))
    else:
        b2 = 2.0 * (1.0 - phi) / z
    return phi - b2, b2


def error_norm(x, reference, eps: float) -> float:
    """Tolerance-scaled norm ``sqrt(sum(x_i^2 / gamma_i))`` of a moment pair
    with the diagonal weights ``gamma_i = m (eps + eps |ref_i|)``, ``ref`` a
    pair of the same shapes and ``m = d + d^2`` the number of entries.  Each
    pair is flattened into one vector and summed in one call: a sum block by
    block rounds differently."""
    x = np.concatenate([np.ravel(block) for block in x])
    ref = np.abs(np.concatenate([np.ravel(block) for block in reference]))
    gamma = x.shape[0] * (eps + eps * ref)
    return float(np.sqrt(np.sum(x * x / gamma)))


def local_error(
    moments_prev2,
    moments_now,
    stage_prev2,
    stage_prev1,
    h: float,
    eps_target: float,
) -> float:
    """Weighted distance between two discretizations of the last double step.

    ``moments_now`` comes from two exponential Euler steps of size ``h`` from
    ``moments_prev2`` (the first-order route); the comparator applies the
    second-order exponential midpoint rule over ``hh = 2 h``, reusing the
    stored nonlinear-part evaluations as its stage values (the exponential
    Euler half-step is exactly the midpoint stage), so no new evaluations are
    needed.  Each block decays at its own rate, so its weights are scalars at
    ``z = hh`` (mean) and ``z = 2 hh`` (covariance).  Both methods are exact
    on pure decay, giving a vanishing error there.  Where ``z`` overflows,
    ``hh b1`` and ``hh b2`` take their limits ``-1/rate`` and ``2/rate``
    instead of the product ``inf * 0``.
    """
    hh = 2.0 * h
    diff, ref = [], []
    blocks = zip(_RATES, moments_prev2, moments_now, stage_prev2, stage_prev1)
    for rate, start, now, s2, s1 in blocks:
        z = hh * rate
        if math.isinf(z):
            step = (2.0 * s1 - s2) / rate
        else:
            b1, b2 = bhat_coefficients(z)
            step = hh * (b1 * s2 + b2 * s1)
        diff.append(math.exp(-z) * start + step - now)
        ref.append(np.maximum(np.abs(now), np.abs(start)))
    return error_norm(diff, ref, eps_target)


def next_stepsize(err: float, h: float) -> float:
    """``h' = (1 / err)^(1/2) h`` with the growth ratio clamped to
    ``[STEP_FACTOR_MIN, STEP_FACTOR_MAX]``; a zero error takes the maximum,
    a non-finite one the minimum."""
    if h <= 0:
        raise ValueError("stepsize h must be positive")
    if err > 0:
        ratio = (1.0 / err) ** 0.5
    else:  # a NaN error (h overflowed) shrinks like an infinite one
        ratio = STEP_FACTOR_MAX if err == 0 else STEP_FACTOR_MIN
    return h * min(max(ratio, STEP_FACTOR_MIN), STEP_FACTOR_MAX)


def initial_stepsize(ens0: Ensemble, beta1: float, eps_target: float, stream: RandomStream) -> float:
    """Starting stepsize from one cheap probe step at the start level.

    A conservative first guess ``h0 = |theta0|_G / (100 |g(theta0)|_G)``
    drives a probe particle step whose moments give a forward-difference
    estimate of the right-hand side's derivative; the second guess solves
    ``h1^2 max(|g1 - g0|_G / h0, |g0|_G) = 1/100`` and the final value is
    ``max(100 h0, h1)``.  Both ensembles are weighted at ``s = 0``, where the
    limit state does not enter (see :func:`ensemble_coefficients`), so the
    probe evaluates nothing.

    At ``s = 0`` an ``N(0, I)`` ensemble is, in expectation, at the
    equilibrium of the tempered dynamics, so the right-hand side measured
    here is the sample's deviation from it, sampling noise that shrinks as
    ``1/sqrt(J)``, and the returned stepsize grows about as ``sqrt(J)``.
    Its median depends on the seed set: on the linear problem in d = 2 it is
    5.7, 11.4 and 28.7 at J = 500, 2000 and 8000 over seeds 0-9, and 31.6
    and 24.3 at J = 8000 over seeds 10-19 and 20-29.
    """
    theta0 = moments_of_ensemble(ens0)
    coeffs0 = ensemble_coefficients(ens0, beta1)
    g0 = moments_rhs(theta0, coeffs0)
    norm_theta0 = error_norm(theta0, theta0, eps_target)
    norm_g0 = error_norm(g0, theta0, eps_target)
    h0 = 1e-6 if norm_g0 < 1e-14 else 0.01 * norm_theta0 / norm_g0
    noise = stream.standard_normal(ens0.points.shape)
    probe = Ensemble(cbs_step(ens0, coeffs0, h0, noise), None)
    g1 = moments_rhs(moments_of_ensemble(probe), ensemble_coefficients(probe, beta1))
    denom = max(error_norm([a - b for a, b in zip(g1, g0)], theta0, eps_target) / h0, norm_g0)
    h1 = 100.0 * h0 if denom < 1e-14 else math.sqrt(0.01 / denom)
    return max(100.0 * h0, h1)


@dataclass
class StepControllerState:
    """Bookkeeping for the every-second-step error control.

    Holds the current stepsize, the last two ``(mean, cov)`` moment pairs
    and the cached ``(m_beta, 2 c_beta^2)`` stage pairs.  The controller
    fires at iteration 2 and every even iteration after that, consuming the
    just-completed pair of equal-h steps; odd iterations keep the stepsize.
    ``record`` runs every iteration, so both deques are full whenever the
    controller fires.
    """

    h_current: float
    eps_target: float
    moments: deque = field(default_factory=lambda: deque(maxlen=2))
    stages: deque = field(default_factory=lambda: deque(maxlen=2))

    def propose(self, moments_now, n: int) -> tuple[float, float]:
        """Stepsize for the upcoming step and the error estimate, NaN when
        the controller does not fire."""
        if n >= 2 and n % 2 == 0:
            err = local_error(
                self.moments[0], moments_now, *self.stages, self.h_current, self.eps_target
            )
            return next_stepsize(err, self.h_current), err
        return self.h_current, np.nan

    def record(self, moments_now, coeffs: GaussianModel, h_next: float) -> None:
        """Keep the moments and the coefficients' stage, the nonlinear part
        ``(m_beta, 2 c_beta^2)`` of the moment ODE, of the step just taken."""
        self.moments.append(moments_now)
        self.stages.append((coeffs.mean, 2.0 * coeffs.covariance))
        self.h_current = h_next
