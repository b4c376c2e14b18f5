"""Smoothed failure indicator and the adaptive smoothing-parameter update.

The indicator of the failure domain {g <= 0} is replaced by a transformed
logistic function ``I(g, s) = 0.5 (1 - s g / sqrt(s^2 g^2 + 1))`` which tends
to the sharp indicator pointwise as the smoothing parameter ``s`` grows.  The
update takes the largest increment the per-step cap allows while the
coefficient of variation of successive indicator ratios stays within a user
target, and otherwise bisects for the level where it meets the target.
"""

from __future__ import annotations

import numpy as np

from .numkit import bisect

__all__ = [
    "log_smooth_indicator",
    "empirical_cv",
    "update_smoothing",
]

LIP_S = 1.0  # an update with stepsize h raises s by at most LIP_S * h


def log_smooth_indicator(g, s):
    """``log I(g, s)`` evaluated without cancellation for large ``|s g|``.

    Uses ``1 - t/sqrt(t^2+1) = 1 / (sqrt(t^2+1) (sqrt(t^2+1) + t))`` and the
    identity ``(u+t)(u-t) = 1`` to keep both tails accurate.
    """
    t = np.clip(np.multiply(s, np.asarray(g, dtype=float)), -1e150, 1e150)
    u = np.sqrt(t * t + 1.0)
    return -np.log(2.0) - np.log(u) - np.sign(t) * np.log(u + np.abs(t))


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
        # exactly constant weights: report 0 rather than rounding noise
        return 0.0
    sd = float(np.sqrt(np.mean((w - mean) ** 2)))
    return sd / mean


def update_smoothing(
    g_values, s: float, h: float, delta_target: float
) -> tuple[float, np.ndarray]:
    """Choose the next smoothing level on ``[s, s + LIP_S * h]``.

    The accuracy target is the coefficient of variation of the indicator
    ratios ``q_j = I(g_j, s') / I(g_j, s)``; the input-density factor cancels
    in the ratio and the CV is scale invariant, so no normalization
    constants enter.  The largest allowed step ``hi = s + LIP_S * h`` is
    tried first and returned whenever ``cv(q) <= delta_target`` there.
    Otherwise ``cv(q)`` is 0 at ``s`` (every ratio is 1) and above the
    target at ``hi``, and bisection finds a level where it crosses the
    target, to the tolerance ``1e-6 * max(1, s)``, which stays above the
    spacing of floats near ``s`` at any level.

    Returns ``(s_next, log_smooth_indicator(g_values, s_next))``.  The
    indicator logs are the ones the search computed at ``s_next``; only a
    search that ends at a bracket midpoint it never evaluated computes them
    once more.
    """
    g = np.asarray(g_values, dtype=float)
    hi = s + LIP_S * h
    log_i0 = log_smooth_indicator(g, s)
    tried = None, None  # the latest level evaluated and its indicator logs

    def cv_at(level):
        nonlocal tried
        tried = level, log_smooth_indicator(g, level)
        return empirical_cv(np.exp(tried[1] - log_i0))

    if cv_at(hi) <= delta_target:
        return tried
    level = bisect(lambda level: cv_at(level) - delta_target, s, hi, 1e-6 * max(1.0, s))
    if level == tried[0]:
        return tried
    return level, log_smooth_indicator(g, level)
