"""Smoothed failure indicator and the adaptive smoothing-parameter update.

The indicator of the failure domain {g <= 0} is replaced by a transformed
logistic function ``I(g, s) = 0.5 (1 - s g / sqrt(s^2 g^2 + 1))`` which tends
to the sharp indicator pointwise as the smoothing parameter ``s`` grows.  The
update takes the largest increment the per-step cap allows while the
coefficient of variation of successive indicator ratios stays within a user
target, and otherwise drives that coefficient to the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import std_normal_logpdf
from .numkit import minimize_scalar_bounded

__all__ = [
    "SmoothingState",
    "smooth_indicator",
    "log_smooth_indicator",
    "log_target",
    "empirical_cv",
    "update_smoothing",
]


@dataclass
class SmoothingState:
    """Current smoothing level plus the update tolerances.

    ``s`` never decreases and each update obeys ``s' - s <= lip_s * h``.
    """

    s: float
    lip_s: float
    delta_target: float


def smooth_indicator(g, s):
    """Logistic surrogate of the failure indicator, in [0, 1].

    ``I(0, s) = I(g, 0) = 1/2``; monotone non-increasing in ``g``.
    """
    t = np.clip(np.multiply(s, np.asarray(g, dtype=float)), -1e150, 1e150)
    return 0.5 * (1.0 - t / np.sqrt(t * t + 1.0))


def log_smooth_indicator(g, s):
    """``log I(g, s)`` evaluated without cancellation for large ``|s g|``.

    Uses ``1 - t/sqrt(t^2+1) = 1 / (sqrt(t^2+1) (sqrt(t^2+1) + t))`` and the
    identity ``(u+t)(u-t) = 1`` to keep both tails accurate.
    """
    t = np.clip(np.multiply(s, np.asarray(g, dtype=float)), -1e150, 1e150)
    u = np.sqrt(t * t + 1.0)
    return -np.log(2.0) - np.log(u) - np.sign(t) * np.log(u + np.abs(t))


def log_target(g, x, s):
    """Log of the unnormalized smoothed target ``I(g, s) * phi(x)``.

    Finite for all finite inputs since the logistic surrogate is strictly
    positive.
    """
    return log_smooth_indicator(g, s) + std_normal_logpdf(x)


def empirical_cv(weights) -> float:
    """Population coefficient of variation of non-negative weights.

    Scale invariant.  Returns ``+inf`` when the mass is unusable: zero mean,
    or fewer than two strictly positive entries (a single carrier pins the
    CV at the meaningless sqrt(J-1) plateau, so it is treated as no signal).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("empirical_cv needs at least two weights")
    mean = float(w.mean())
    if mean <= 0.0 or int(np.count_nonzero(w > 0.0)) < 2:
        return float("inf")
    if w.max() == w.min():
        # exactly constant weights: report 0 rather than rounding noise so
        # flat objectives stay flat for the tie rule downstream
        return 0.0
    sd = float(np.sqrt(np.mean((w - mean) ** 2)))
    return sd / mean


def update_smoothing(g_values, state: SmoothingState, h: float) -> float:
    """Choose the next smoothing level on ``[s, s + lip_s * h]``.

    The accuracy target is the coefficient of variation of the indicator
    ratios ``q_j = I(g_j, s') / I(g_j, s)``; the input-density factor cancels
    in the ratio and the CV is scale invariant, so no normalization
    constants enter.  The largest allowed step ``hi = s + lip_s * h`` is
    tried first and returned whenever ``cv(q) <= delta_target`` there.
    Otherwise the level minimizes ``(cv(q) - delta_target)^2`` by
    golden-section search on the interval to the tolerance
    ``1e-6 * max(1, s)``, which stays above the spacing of floats near ``s``
    at any level; flat objectives (e.g. all ``g_j`` equal) resolve to the
    upper bound, which guarantees progress.
    """
    g = np.asarray(g_values, dtype=float)
    s0 = state.s
    hi = s0 + state.lip_s * h
    log_i0 = log_smooth_indicator(g, s0)

    def cv_at(s):
        return empirical_cv(np.exp(log_smooth_indicator(g, s) - log_i0))

    if cv_at(hi) <= state.delta_target:
        return hi
    return minimize_scalar_bounded(
        lambda s: (cv_at(s) - state.delta_target) ** 2, (s0, hi), tol=1e-6 * max(1.0, s0)
    )
