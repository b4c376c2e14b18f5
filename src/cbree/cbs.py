"""Consensus-based sampling ensemble dynamics.

One discrete particle step of the interacting system

    x' = alpha x + (1 - alpha) m + sqrt(1 - alpha^2) L xi,   alpha = exp(-h),

where ``m`` is the softmax-weighted ensemble mean, ``L L^T`` the
``(1 + beta)``-scaled weighted covariance and ``xi`` standard normal noise.
Also: effective sample size of the weighted ensemble and the inverse
temperature solve that pins it at a target.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .numkit import bisect, factor_spd, log_sum_exp, spd_jitter, weighted_moments

__all__ = [
    "Ensemble",
    "CbsCoefficients",
    "coefficients_from_log_weights",
    "cbs_step",
    "ess_from_log_weights",
    "solve_beta",
    "write_ensemble_csv",
]

# largest inverse temperature the beta solve returns (reported as beta_capped)
BETA_CAP = 1e8


@dataclass
class Ensemble:
    """Particle positions with cached limit-state values.

    ``g_values[j]`` always equals the limit state evaluated at ``points[j]``;
    a step taken with ``lsf=None`` leaves the cache unset (``None``) for
    callers that immediately replace the ensemble anyway.
    """

    points: np.ndarray            # (J, d)
    g_values: np.ndarray | None   # (J,)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class CbsCoefficients:
    """Weighted mean, scaled weighted covariance and its Cholesky factor."""

    m_beta: np.ndarray        # (d,)
    c_beta_sq: np.ndarray     # (d, d), symmetric
    c_beta_factor: np.ndarray # lower triangular


def coefficients_from_log_weights(points, log_weights, beta: float) -> CbsCoefficients:
    mean, scm = weighted_moments(points, log_weights)
    c_sq = (1.0 + beta) * scm
    factor = factor_spd(c_sq, spd_jitter(c_sq))
    return CbsCoefficients(m_beta=mean, c_beta_sq=c_sq, c_beta_factor=factor)


def cbs_step(ens: Ensemble, coeffs: CbsCoefficients, h: float, noise: np.ndarray, lsf) -> Ensemble:
    """Advance every particle by one exponential Euler--Maruyama step.

    ``coeffs`` are the weighted moments the step relaxes toward; ``noise``
    holds the step's standard-normal draws, one row per particle; it is read,
    never kept.  Evaluates ``lsf`` once per particle to refresh the cached
    limit-state values; with ``lsf=None`` the cache is left unset (used when
    the ensemble is resampled immediately afterwards, saving one sweep of
    evaluations).
    """
    if h <= 0:
        raise ValueError("stepsize h must be positive")
    if noise.shape != ens.points.shape:
        raise ValueError(f"noise has shape {noise.shape}, expected {ens.points.shape}")
    alpha = np.exp(-h)
    new_pts = (
        alpha * ens.points
        + (1.0 - alpha) * coeffs.m_beta
        + np.sqrt(1.0 - alpha * alpha) * (noise @ coeffs.c_beta_factor.T)
    )
    new_g = np.asarray(lsf(new_pts), dtype=float) if lsf is not None else None
    return Ensemble(points=new_pts, g_values=new_g)


def ess_from_log_weights(log_w, beta: float) -> float:
    """Effective sample size ``(sum w^beta)^2 / sum w^(2 beta)`` in log form."""
    lw = np.asarray(log_w, dtype=float)
    return float(np.exp(2.0 * log_sum_exp(beta * lw) - log_sum_exp(2.0 * beta * lw)))


def solve_beta(log_target_values, target: float) -> tuple[float, bool]:
    """Inverse temperature with ``ESS(beta) = target``, by bracketed bisection.

    ``log_target_values`` holds the per-particle ``log(I(g, s) phi(x))`` (see
    :func:`cbree.smoothing.log_target`); the weights are their ``beta``-th
    powers.  ESS is non-increasing in ``beta`` with ``ESS(0) = J``, so the
    bracket ``[0, 1]`` is doubled until it straddles the target.  If even
    :data:`BETA_CAP` leaves the weights too uniform (``ESS > target``, e.g.
    identical log-weights) the cap is returned with ``capped=True``.
    """
    lw = np.asarray(log_target_values, dtype=float)
    n = lw.shape[0]
    if not 1.0 < target < n:
        raise ValueError("target must lie strictly between 1 and J")
    lo, hi = 0.0, 1.0
    while hi < BETA_CAP and ess_from_log_weights(lw, hi) > target:
        lo, hi = hi, min(2.0 * hi, BETA_CAP)
    if hi >= BETA_CAP and ess_from_log_weights(lw, BETA_CAP) > target:
        return BETA_CAP, True
    beta = bisect(
        lambda b: target - ess_from_log_weights(lw, b), lo, hi, 1e-10 * max(1.0, hi), 0.01
    )
    return beta, False


def write_ensemble_csv(ens: Ensemble, path) -> None:
    """Export one row per particle: coordinates, then the limit-state value."""
    g = ens.g_values if ens.g_values is not None else np.full(ens.size, np.nan)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(ens.dim)] + ["g"])
        for row, gv in zip(ens.points, g):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(gv))])
