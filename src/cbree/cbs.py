"""Consensus-based sampling ensemble dynamics.

One discrete particle step of the interacting system

    x' = alpha x + (1 - alpha) m + sqrt(1 - alpha^2) L xi,   alpha = exp(-h),

where ``m`` is the softmax-weighted ensemble mean, ``L L^T`` the
``(1 + beta)``-scaled weighted covariance and ``xi`` standard normal noise.
These coefficients are one :class:`~cbree.densities.GaussianModel`, the law
``N(m, L L^T)`` that a step draws from exactly once ``alpha`` underflows to 0.
Also: effective sample size of the weighted ensemble and the inverse
temperature solve that pins it at a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import GaussianModel, gaussian_sample, std_normal_logpdf
from .numkit import factor_spd, spd_jitter, weighted_moments

__all__ = [
    "Ensemble",
    "coefficients_from_log_weights",
    "cbs_step",
    "step_is_exact",
    "ess_from_log_weights",
    "solve_beta",
]

# largest inverse temperature the beta solve returns (reported as beta_capped)
BETA_CAP = 1e8
_LOG_BETA_CAP = math.log(BETA_CAP)


@dataclass
class Ensemble:
    """Particle positions with cached limit-state values.

    ``g_values[j]`` equals the limit state evaluated at ``points[j]``, or is
    ``None`` where nothing reads it: the start-up probe's ensemble, and an
    initial or moved ensemble that the next fresh batch replaces.  The input
    log-density of the points is computed on first use and kept as well
    (see :meth:`log_phi`); the points are never changed in place.
    """

    points: np.ndarray            # (J, d)
    g_values: np.ndarray | None   # (J,)
    _log_phi: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def log_phi(self) -> np.ndarray:
        """Standard-normal log-density ``log phi`` at every particle, ``(J,)``.

        Computed on the first call and returned from the cache afterwards,
        so the importance-sampling estimate and the temperature solve of one
        ensemble share it.
        """
        if self._log_phi is None:
            self._log_phi = std_normal_logpdf(self.points)
        return self._log_phi


def coefficients_from_log_weights(
    points, log_weights, beta: float, scratch=None
) -> GaussianModel:
    """The step's coefficients: the weighted mean ``m_beta``, the
    ``(1 + beta)``-scaled weighted covariance ``c_beta^2`` and its factor
    ``L``, as the law ``N(m_beta, L L^T)`` of an exact step.  ``scratch`` is
    as in :func:`~cbree.numkit.weighted_moments`.  A factor with a zero
    pivot is kept; only the law's ``log_det`` and ``whiten`` reject it."""
    mean, scm = weighted_moments(points, log_weights, scratch)
    c_sq = (1.0 + beta) * scm
    factor = factor_spd(c_sq, spd_jitter(c_sq))
    return GaussianModel(mean=mean, covariance=c_sq, factor=factor)


def step_is_exact(h: float) -> bool:
    """Whether a step of size ``h`` forgets the positions it starts from:
    once ``alpha = exp(-h)`` underflows to 0 (h above about 745) the new
    points are exact draws from the coefficients' law ``N(m_beta, L L^T)``.
    :func:`cbs_step` and the mover that hands that law on decide by this."""
    return bool(np.exp(-h) == 0.0)


def cbs_step(
    ens: Ensemble,
    coeffs: GaussianModel,
    h: float,
    noise: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Advance every particle by one exponential Euler--Maruyama step and
    return the new positions; the limit state is not evaluated here.

    ``coeffs`` are the law the step relaxes toward (see
    :func:`coefficients_from_log_weights`); ``noise`` holds the step's
    standard-normal draws, one row per particle; it is read, never kept.

    The new positions are written into ``out`` when it is given (an array
    shaped like the points); a ``None`` allocates one.  The diffusion
    ``noise @ (sqrt(1 - alpha^2) L).T`` is one matrix product.  Once
    ``alpha = exp(-h)`` underflows to 0 the step is exactly a draw from the
    law, ``m + noise @ L.T``, made by :func:`~cbree.densities.gaussian_sample`
    in ``out``; this gives the general formula's bits with two passes fewer.
    Otherwise the drift ``alpha x + (1 - alpha) m`` is formed in ``out``, the
    product goes into ``scratch`` (an array like ``out``; a ``None``
    allocates one) and is added to the drift, so with both given no
    ``(J, d)`` temporary is made.  ``out`` and ``scratch`` must share no
    memory with each other, the points or ``noise``.
    """
    if h <= 0:
        raise ValueError("stepsize h must be positive")
    if noise.shape != ens.points.shape:
        raise ValueError(f"noise has shape {noise.shape}, expected {ens.points.shape}")
    if out is None:
        out = np.empty(ens.points.shape)
    elif np.shares_memory(out, ens.points) or np.shares_memory(out, noise):
        raise ValueError("out must not share memory with the points or the noise")
    if scratch is not None and any(np.shares_memory(scratch, a) for a in (ens.points, noise, out)):
        raise ValueError("scratch must not share memory with the points, the noise or out")
    if step_is_exact(h):
        return gaussian_sample(coeffs, noise, out)
    alpha = np.exp(-h)
    diffusion = np.matmul(noise, (np.sqrt(1.0 - alpha * alpha) * coeffs.factor).T, out=scratch)
    new_pts = np.multiply(alpha, ens.points, out=out)
    new_pts += (1.0 - alpha) * coeffs.mean
    new_pts += diffusion
    return new_pts


def ess_from_log_weights(log_w, beta: float, slope: bool = False):
    """Effective sample size ``(sum w^beta)^2 / sum w^(2 beta)``.

    One exponential pass: with ``v = exp(beta log_w - max)`` the ESS is
    ``(sum v)^2 / (v . v)``, and the shift cancels.  Entries may be ``-inf``
    (zero weight); NaN when no finite maximum exists, e.g. all ``-inf``.

    With ``slope=True`` returns ``(ess, d log ESS / d log beta)``.  The
    slope is ``2 beta (E_beta[l] - E_2beta[l])``, where ``E_beta`` is the
    mean of ``l = log_w`` under weights proportional to ``exp(beta l)``; it
    comes from the same exponentials, as ``2 (E_v[c] - E_vv[c])`` with
    ``c = beta log_w - max`` and weights ``v`` and ``v * v``.
    """
    lw = beta * np.asarray(log_w, dtype=float)
    top = np.max(lw)
    if not np.isfinite(top):
        return (np.nan, np.nan) if slope else np.nan
    c = np.subtract(lw, top, out=lw)
    v = np.exp(c)
    total = np.sum(v)
    sq = v @ v
    ess = float(total * total / sq)
    if not slope:
        return ess
    # exp underflows to 0 below about -745, so the floor leaves v as it is
    # and keeps 0 * (-inf) out of the sums
    vc = np.multiply(v, np.maximum(c, -1e3, out=c), out=c)
    return ess, float(2.0 * (np.sum(vc) / total - (vc @ v) / sq))


def solve_beta(log_target_values, target: float) -> tuple[float, bool, float | None]:
    """Inverse temperature with ``ESS(beta) = target``, by safeguarded Newton.

    ``log_target_values`` holds the per-particle ``log(I(g, s) phi(x))``, all
    finite; the weights are their ``beta``-th powers.  ESS is non-increasing
    in ``beta`` with ``ESS(0) = J``.

    Newton's method runs in ``u = log beta`` on ``log ESS = log target``,
    written as ``log(log J - log ESS) = log(log J - log target)``: for
    Gaussian log-target values ``log(J / ESS) = beta^2 var`` exactly, so this
    form is linear in ``u``, and its ``beta -> 0`` limit gives the starting
    point ``sqrt(log(J / target)) / sd``.  The slope comes with each ESS
    evaluation (see :func:`ess_from_log_weights`), and a step changes ``u``
    by at most ``log(BETA_CAP)``.  A bracket ``ESS(lo) > target >= ESS(hi)``
    guards the iteration: when the slope is not negative or the iterate
    leaves the bracket, the solve doubles ``beta`` (while there is no upper
    end yet) or bisects.  It stops at the first ``beta`` with
    ``|ESS - target| <= 0.01``, or at the bracket midpoint once the bracket
    is narrower than ``1e-10 max(1, hi)``.  If even :data:`BETA_CAP` leaves
    the weights too uniform (``ESS > target``, e.g. identical log-weights)
    the cap is returned with ``capped=True``.

    Returns ``(beta, capped, ess)``, where ``ess`` is the ESS the solve
    evaluated at the returned ``beta``, bit for bit
    ``ess_from_log_weights(log_target_values, beta)``; it is ``None`` on
    the bracket-midpoint exit, whose ``beta`` was never evaluated.
    """
    lw = np.asarray(log_target_values, dtype=float)
    n = lw.shape[0]
    if not 1.0 < target < n:
        raise ValueError("target must lie strictly between 1 and J")
    if not np.all(np.isfinite(lw)):
        raise ValueError("log-target values must be finite")
    log_n = math.log(n)
    gap_target = log_n - math.log(target)
    sd = float(np.std(lw))
    beta = min(math.sqrt(gap_target) / sd, BETA_CAP) if sd > 0.0 else BETA_CAP
    lo, hi = 0.0, math.inf
    for _ in range(200):
        ess, slope = ess_from_log_weights(lw, beta, slope=True)
        if abs(ess - target) <= 0.01:
            return beta, False, ess
        if ess > target:
            if beta >= BETA_CAP:
                return BETA_CAP, True, ess
            lo = beta
        else:
            hi = beta
        if hi < math.inf and hi - lo <= 1e-10 * max(1.0, hi):
            break
        gap = log_n - math.log(ess)
        step = math.nan
        if slope < 0.0 and gap > 0.0:
            step = math.log(gap_target / gap) * gap / -slope
        nxt = beta * math.exp(min(max(step, -_LOG_BETA_CAP), _LOG_BETA_CAP))
        if not lo < nxt < hi:  # also taken when the step is NaN
            nxt = min(2.0 * beta, BETA_CAP) if hi == math.inf else 0.5 * (lo + hi)
        beta = min(nxt, BETA_CAP)
    return 0.5 * (lo + hi), False, None
