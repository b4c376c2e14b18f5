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

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .cbs import CbsCoefficients, Ensemble, cbs_step, ensemble_coefficients
from .numkit import RandomStream

__all__ = [
    "StepControllerState",
    "pack_moments",
    "unpack_moments",
    "moments_of_ensemble",
    "moments_rhs",
    "decay_rates",
    "phi_scalar",
    "bhat_coefficients",
    "local_error",
    "next_stepsize",
    "initial_stepsize",
]

_TAYLOR_CUT = 1e-5
STEP_FACTOR_MIN = 0.2
STEP_FACTOR_MAX = 5.0


def pack_moments(mean, cov) -> np.ndarray:
    """Stack mean and row-major flattened covariance into one vector."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return np.concatenate([mean, cov.reshape(-1)])


def unpack_moments(theta, d: int):
    theta = np.asarray(theta, dtype=float)
    return theta[:d], theta[d:].reshape(d, d)


def moment_dim(theta) -> int:
    """Recover the state dimension d from a moment vector of length d + d^2."""
    m = np.asarray(theta).shape[-1]
    d = int(round((np.sqrt(1.0 + 4.0 * m) - 1.0) / 2.0))
    if d + d * d != m:
        raise ValueError(f"moment vector length {m} is not of the form d + d^2")
    return d


def moments_of_ensemble(ens: Ensemble) -> np.ndarray:
    """Sample mean and population covariance of the particle positions."""
    pts = ens.points
    if pts.shape[0] < 2:
        raise ValueError("moments need at least two particles")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / pts.shape[0]
    return pack_moments(mean, cov)


def moments_rhs(
    ens: Ensemble,
    s: float,
    beta: float,
    coeffs: CbsCoefficients | None = None,
    theta: np.ndarray | None = None,
) -> np.ndarray:
    """Full right-hand side of the moment ODE at the ensemble's empirical law.

    The coefficients are byproducts of the particle update, so passing the
    cached ``coeffs`` (and ``theta``) makes this evaluation free.
    """
    if coeffs is None:
        coeffs = ensemble_coefficients(ens, s, beta)
    if theta is None:
        theta = moments_of_ensemble(ens)
    d = ens.dim
    mean, cov = unpack_moments(theta, d)
    return pack_moments(-mean + coeffs.m_beta, -2.0 * cov + 2.0 * coeffs.c_beta_sq)


def stage_from_coefficients(coeffs: CbsCoefficients) -> np.ndarray:
    """Nonlinear part of the semilinear moment ODE, read off the coefficients.

    With the linear decay split out (``d/dt theta + A theta = N(theta)``,
    ``A = diag(1, 2)`` blockwise), the nonlinearity is ``(m_beta, 2 c_beta^2)``;
    this is the stage value the embedded comparator reuses, at zero cost.
    """
    return pack_moments(coeffs.m_beta, 2.0 * coeffs.c_beta_sq)


def decay_rates(d: int) -> np.ndarray:
    """Diagonal of the linear part: 1 on the mean block, 2 on the covariance."""
    return np.concatenate([np.ones(d), 2.0 * np.ones(d * d)])


def phi_scalar(z):
    """``(1 - exp(-z)) / z`` with the continuous extension 1 at zero."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _TAYLOR_CUT
    zs = np.where(small, 1.0, z)
    exact = (1.0 - np.exp(-zs)) / zs
    taylor = 1.0 - z / 2.0 + z * z / 6.0
    return np.where(small, taylor, exact)


def bhat_coefficients(z):
    """Weights of the second-order exponential midpoint rule.

    ``b2(z) = 2 (exp(-z) + z - 1) / z^2`` and ``b1 = phi(z) - b2``; both sum
    to ``phi(z)`` (consistency) and tend to the classical midpoint weights
    (0, 1) as ``z -> 0``.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _TAYLOR_CUT
    zs = np.where(small, 1.0, z)
    exact = 2.0 * (np.exp(-zs) + zs - 1.0) / (zs * zs)
    taylor = 1.0 - z / 3.0 + z * z / 12.0
    b2 = np.where(small, taylor, exact)
    b1 = phi_scalar(z) - b2
    return b1, b2


def weighted_error_norm(x, gamma) -> float:
    """``sqrt(sum(x_i^2 / gamma_i))`` -- the tolerance-scaled error norm."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(np.sum(x * x / gamma)))


def error_weights(reference, eps_abs: float, eps_rel: float) -> np.ndarray:
    """Diagonal tolerance weights ``m (eps_abs + eps_rel |ref_i|)``."""
    ref = np.abs(np.asarray(reference, dtype=float))
    return ref.shape[-1] * (eps_abs + eps_rel * ref)


def local_error(
    theta_prev2,
    theta_now,
    stage_prev2,
    stage_prev1,
    h: float,
    eps_target: float,
) -> float:
    """Weighted distance between two discretizations of the last double step.

    ``theta_now`` comes from two exponential Euler steps of size ``h`` from
    ``theta_prev2`` (the first-order route); the comparator applies the
    second-order exponential midpoint rule over ``hh = 2 h``, reusing the
    stored nonlinear-part evaluations as its stage values (the exponential
    Euler half-step is exactly the midpoint stage), so no new evaluations are
    needed.  Both methods are exact on pure decay, giving a vanishing error
    there.  Both tolerance parts equal ``eps_target``.
    """
    theta_prev2 = np.asarray(theta_prev2, dtype=float)
    psi = np.asarray(theta_now, dtype=float)
    hh = 2.0 * h
    z = hh * decay_rates(moment_dim(psi))
    b1, b2 = bhat_coefficients(z)
    comparator = np.exp(-z) * theta_prev2 + hh * (
        b1 * np.asarray(stage_prev2, dtype=float) + b2 * np.asarray(stage_prev1, dtype=float)
    )
    gamma = error_weights(np.maximum(np.abs(psi), np.abs(theta_prev2)), eps_target, eps_target)
    return weighted_error_norm(comparator - psi, gamma)


def next_stepsize(err: float, h: float) -> float:
    """``h' = (1 / err)^(1/2) h`` with the growth ratio clamped to
    ``[STEP_FACTOR_MIN, STEP_FACTOR_MAX]``; a zero error takes the maximum."""
    if h <= 0:
        raise ValueError("stepsize h must be positive")
    ratio = (1.0 / err) ** 0.5 if err > 0 else STEP_FACTOR_MAX
    return h * min(max(ratio, STEP_FACTOR_MIN), STEP_FACTOR_MAX)


def initial_stepsize(
    ens0: Ensemble,
    s1: float,
    beta1: float,
    eps_target: float,
    stream: RandomStream,
    lsf,
):
    """Starting stepsize from one cheap probe step.

    A conservative first guess ``h0 = |theta0|_G / (100 |g(theta0)|_G)``
    drives a probe particle step whose moments give a forward-difference
    estimate of the right-hand side's derivative; the second guess solves
    ``h1^2 max(|g1 - g0|_G / h0, |g0|_G) = 1/100`` and the final value is
    ``max(100 h0, h1)``.  Returns the stepsize, the probe ensemble and the
    number of limit-state evaluations spent (one per particle).
    """
    theta0 = moments_of_ensemble(ens0)
    coeffs0 = ensemble_coefficients(ens0, s1, beta1)
    g0 = moments_rhs(ens0, s1, beta1, coeffs=coeffs0, theta=theta0)
    gamma = error_weights(theta0, eps_target, eps_target)
    norm_theta0 = weighted_error_norm(theta0, gamma)
    norm_g0 = weighted_error_norm(g0, gamma)
    if norm_g0 < 1e-14:
        h0 = 1e-6
    else:
        h0 = 0.01 * norm_theta0 / norm_g0
    probe = cbs_step(ens0, s1, beta1, h0, stream, lsf, coeffs=coeffs0)
    g1 = moments_rhs(probe, s1, beta1)
    denom = max(weighted_error_norm(g1 - g0, gamma) / h0, norm_g0)
    if denom < 1e-14:
        h1 = 100.0 * h0
    else:
        h1 = np.sqrt(0.01 / denom)
    return max(100.0 * h0, h1), probe, ens0.size


@dataclass
class StepControllerState:
    """Bookkeeping for the every-second-step error control.

    Holds the current stepsize and the last two moment vectors and cached
    stage values.  The controller fires at iteration 2 and every even
    iteration after that, consuming the just-completed pair of equal-h steps;
    odd iterations keep the stepsize.
    """

    h_current: float
    eps_target: float
    thetas: deque = field(default_factory=lambda: deque(maxlen=2))
    stages: deque = field(default_factory=lambda: deque(maxlen=2))

    def propose(self, theta_now, n: int) -> tuple[float, float | None]:
        """Stepsize for the upcoming step; the error estimate when it fired."""
        if n >= 2 and n % 2 == 0 and len(self.thetas) >= 2 and len(self.stages) >= 2:
            err = local_error(
                self.thetas[-2],
                theta_now,
                self.stages[-2],
                self.stages[-1],
                self.h_current,
                self.eps_target,
            )
            return next_stepsize(err, self.h_current), err
        return self.h_current, None

    def record(self, theta_now, stage_now, h_next: float) -> None:
        self.thetas.append(np.asarray(theta_now, dtype=float))
        self.stages.append(np.asarray(stage_now, dtype=float))
        self.h_current = h_next
