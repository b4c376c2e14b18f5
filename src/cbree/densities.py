"""Input and proposal probability models.

Standard normal input density, Gaussian proposals fitted by empirical
moments, and a von Mises--Fisher / Nakagami (vMFN) model whose radial
component has heavier tails than a Gaussian shell, which keeps importance
weights usable in high dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln, ive

from .numkit import RandomStream, factor_spd

__all__ = [
    "GaussianModel",
    "VmfnModel",
    "std_normal_logpdf",
    "gaussian_fit",
    "gaussian_logpdf",
    "gaussian_sample",
    "make_gaussian",
    "vmfn_fit",
    "vmfn_logpdf",
    "vmfn_sample",
]

_LOG_2PI = math.log(2.0 * math.pi)

KAPPA_CAP = 1e8
NAKAGAMI_SHAPE_MIN = 0.5
NAKAGAMI_SHAPE_MAX = 1e6


def std_normal_logpdf(x):
    """Log-density of N(0, I_d); ``x`` is ``(d,)`` or ``(n, d)``."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    return -0.5 * (d * _LOG_2PI + np.sum(x * x, axis=-1))


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian with a cached Cholesky factor of the (regularized) covariance."""

    mean: np.ndarray
    covariance: np.ndarray
    factor: np.ndarray  # lower triangular, factor @ factor.T = clip(cov) + jitter I
    log_det: float      # log-determinant of the effective covariance

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def logpdf(self, x):
        return gaussian_logpdf(self, x)

    def to_json(self) -> dict:
        """Serialize for run-record export."""
        return {"type": "gaussian", "mean": self.mean.tolist(), "cov": self.covariance.tolist()}


def make_gaussian(mean, covariance, jitter: float = 0.0) -> GaussianModel:
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(covariance, dtype=float)
    cov = 0.5 * (cov + cov.T)
    factor = factor_spd(cov, jitter)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor))))
    return GaussianModel(mean=mean, covariance=cov, factor=factor, log_det=log_det)


def gaussian_fit(sample, jitter: float = 1e-10) -> GaussianModel:
    """Fit mean and population covariance (divisor J) to a sample.

    Degenerate spreads are handled by the factorization: a fully collapsed
    sample yields the effective covariance ``jitter * I``.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("gaussian_fit needs at least two sample points")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    return make_gaussian(mean, cov, jitter)


def gaussian_logpdf(model: GaussianModel, x):
    """Log-density via two triangular solves on the cached factor."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    z = solve_triangular(model.factor, (pts - model.mean).T, lower=True)
    quad = np.sum(z * z, axis=0)
    out = -0.5 * (model.dim * _LOG_2PI + model.log_det + quad)
    return float(out[0]) if single else out


def gaussian_sample(model: GaussianModel, stream: RandomStream, n: int) -> np.ndarray:
    xi = stream.standard_normal((n, model.dim))
    return model.mean + xi @ model.factor.T


@dataclass(frozen=True)
class VmfnModel:
    """Product of a von Mises--Fisher direction law and a Nakagami radial law.

    The density on R^d factorizes as
    ``vmf(x/|x|) * nakagami(|x|) / |x|^(d-1)`` which integrates to one.  With
    ``kappa = 0``, ``shape = d/2`` and ``spread = d`` the model coincides with
    the standard normal distribution.
    """

    mean_direction: np.ndarray
    kappa: float
    nakagami_shape: float   # >= 0.5
    nakagami_spread: float  # > 0
    kappa_capped: bool = False

    @property
    def dim(self) -> int:
        return self.mean_direction.shape[0]

    def logpdf(self, x):
        return vmfn_logpdf(self, x)

    def to_json(self) -> dict:
        """Serialize for run-record export."""
        return {
            "type": "vmfn",
            "mu": self.mean_direction.tolist(),
            "kappa": self.kappa,
            "m": self.nakagami_shape,
            "omega": self.nakagami_spread,
        }


def vmfn_fit(sample) -> VmfnModel:
    """Fit a vMFN model by moment matching.

    Direction: mean resultant length ``rbar`` gives the standard concentration
    approximation ``kappa = rbar (d - rbar^2) / (1 - rbar^2)``.  Radius: the
    Nakagami spread is ``mean(r^2)`` and the shape follows from matching
    ``var(r^2)``, clamped to ``[0.5, 1e6]``.  Nearly collinear samples cap
    ``kappa`` at 1e8 and set a flag.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("vmfn_fit needs at least two sample points")
    d = x.shape[1]
    if d < 2:
        raise ValueError("vmfn_fit requires dimension >= 2")
    r = np.linalg.norm(x, axis=1)
    if np.any(r == 0.0):
        raise ValueError("vmfn_fit: zero-norm sample point")
    unit = x / r[:, None]
    resultant = unit.mean(axis=0)
    rbar = float(np.linalg.norm(resultant))
    capped = False
    if rbar >= 1.0 - 1e-12:
        mu = resultant / rbar
        kappa = KAPPA_CAP
        capped = True
    else:
        mu = resultant / rbar if rbar > 0 else np.eye(d)[0]
        kappa = rbar * (d - rbar**2) / (1.0 - rbar**2)
        if kappa > KAPPA_CAP:
            kappa = KAPPA_CAP
            capped = True
    r2 = r * r
    omega = float(r2.mean())
    var_r2 = float(np.mean((r2 - omega) ** 2))
    if var_r2 > 0.0:
        shape = omega**2 / var_r2
    else:
        shape = NAKAGAMI_SHAPE_MAX
    shape = min(max(shape, NAKAGAMI_SHAPE_MIN), NAKAGAMI_SHAPE_MAX)
    return VmfnModel(
        mean_direction=mu,
        kappa=float(kappa),
        nakagami_shape=float(shape),
        nakagami_spread=omega,
        kappa_capped=capped,
    )


def _log_vmf_normalizer(d: int, kappa: float) -> float:
    """log C_d(kappa) with C_d(k) = k^(d/2-1) / ((2 pi)^(d/2) I_(d/2-1)(k))."""
    nu = 0.5 * d - 1.0
    if kappa < 1e-6:
        # series limit: k^nu / I_nu(k) -> 2^nu Gamma(nu+1) (1 + k^2/(4(nu+1)))^-1
        return (
            nu * math.log(2.0)
            + gammaln(nu + 1.0)
            - 0.5 * d * _LOG_2PI
            - math.log1p(kappa * kappa / (4.0 * (nu + 1.0)))
        )
    log_iv = math.log(float(ive(nu, kappa))) + kappa
    return nu * math.log(kappa) - 0.5 * d * _LOG_2PI - log_iv


def vmfn_logpdf(model: VmfnModel, x):
    """Log-density on R^d; undefined at the origin."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    d = model.dim
    r = np.linalg.norm(pts, axis=1)
    if np.any(r == 0.0):
        raise ValueError("vmfn_logpdf undefined at x = 0")
    cos_angle = (pts @ model.mean_direction) / r
    log_dir = _log_vmf_normalizer(d, model.kappa) + model.kappa * cos_angle
    m, om = model.nakagami_shape, model.nakagami_spread
    log_rad = (
        math.log(2.0)
        + m * math.log(m)
        - gammaln(m)
        - m * math.log(om)
        + (2.0 * m - 1.0) * np.log(r)
        - m * r * r / om
    )
    out = log_dir + log_rad - (d - 1.0) * np.log(r)
    return float(out[0]) if single else out


def _sample_vmf_directions(mu, kappa: float, stream: RandomStream, n: int) -> np.ndarray:
    """Directions on the unit sphere via the rejection scheme of Wood (1994)."""
    d = mu.shape[0]
    if kappa == 0.0:
        v = stream.standard_normal((n, d))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    # rationalized form of b avoids cancellation for large kappa
    b = (d - 1.0) / (2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1.0) * math.log1p(-x0 * x0)
    w = np.empty(n)
    filled = 0
    for _ in range(1000):
        todo = n - filled
        if todo == 0:
            break
        z = stream.beta(0.5 * (d - 1.0), 0.5 * (d - 1.0), size=todo)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        logu = np.log(stream.uniform(size=todo))
        accept = kappa * cand + (d - 1.0) * np.log(1.0 - x0 * cand) - c >= logu
        good = cand[accept]
        w[filled : filled + good.size] = good
        filled += good.size
    else:  # pragma: no cover
        raise RuntimeError("direction sampling failed to accept enough draws")
    tangent = stream.standard_normal((n, d))
    tangent -= np.outer(tangent @ mu, mu)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    return np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] * tangent + w[:, None] * mu


def vmfn_sample(model: VmfnModel, stream: RandomStream, n: int) -> np.ndarray:
    """Draw ``n`` points: vMF direction times a Nakagami radius."""
    dirs = _sample_vmf_directions(model.mean_direction, model.kappa, stream, n)
    m, om = model.nakagami_shape, model.nakagami_spread
    r = np.sqrt(stream.gamma(m, om / m, size=n))
    return dirs * r[:, None]

