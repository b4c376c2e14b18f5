"""Input and proposal probability models.

Standard normal input density, Gaussian proposals fitted by empirical
moments, and a von Mises--Fisher / Nakagami (vMFN) model whose radial
component has heavier tails than a Gaussian shell, which keeps importance
weights usable in high dimensions.  The vMFN functions import scipy on
first use; everything else here needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import RandomStream, factor_spd, sample_mean

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

FIT_JITTER = 1e-10
KAPPA_CAP = 1e8
NAKAGAMI_SHAPE_MIN = 0.5
NAKAGAMI_SHAPE_MAX = 1e6


def std_normal_logpdf(x):
    """Log-density of N(0, I_d); ``x`` is ``(d,)`` or ``(n, d)``.

    The sums of squares are one ``einsum``, which forms no ``(n, d)``
    temporary and beats numpy's strided axis sum several times over.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    return -0.5 * (d * _LOG_2PI + np.einsum("...i,...i->...", x, x))


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian whose points are ``mean + factor @ xi`` for standard normal
    ``xi``; ``covariance`` holds the moments the factor was taken from.
    ``log_det`` and ``whiten`` (``(x - mean) @ whiten`` is standard normal)
    are computed on first use, so a law with a closed-form ``log mu`` never
    inverts its factor; a zero pivot in the factor makes both raise
    ``LinAlgError``."""

    mean: np.ndarray
    covariance: np.ndarray
    factor: np.ndarray  # lower triangular, factor @ factor.T = clip(cov) + jitter I

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def log_det(self) -> float:
        """Log-determinant of the effective covariance ``factor @ factor.T``."""
        diag = np.diag(self.factor)
        if np.any(diag == 0.0):
            raise np.linalg.LinAlgError("Singular matrix")
        return 2.0 * float(np.sum(np.log(diag)))

    @cached_property
    def whiten(self) -> np.ndarray:
        """Upper triangular ``(factor^-1)^T``."""
        # partial pivoting never swaps rows of the upper triangular factor.T,
        # so this is back substitution and the inverse is exactly triangular
        return np.linalg.inv(self.factor.T)

    def logpdf(self, x, work=(None, None)):
        return gaussian_logpdf(self, x, work)

    def to_json(self) -> dict:
        """Serialize for run-record export."""
        return {"type": "gaussian", "mean": self.mean.tolist(), "cov": self.covariance.tolist()}


def make_gaussian(mean, covariance, jitter: float = 0.0) -> GaussianModel:
    """The Gaussian of the symmetrized covariance plus ``jitter I``; a
    covariance that is not finite raises ``ValueError``, and one whose
    factor has a zero pivot ``LinAlgError``."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(covariance, dtype=float)
    cov = 0.5 * (cov + cov.T)
    factor = factor_spd(cov, jitter)
    if not np.all(np.isfinite(factor)):
        raise ValueError("covariance must be finite")
    model = GaussianModel(mean=mean, covariance=cov, factor=factor)
    model.log_det  # rejects a zero pivot here rather than at first use
    return model


def gaussian_fit(sample, scratch=None) -> GaussianModel:
    """Fit mean and population covariance (divisor J) to a sample.

    Degenerate spreads are handled by the factorization: a fully collapsed
    sample yields the effective covariance ``FIT_JITTER * I``.  ``scratch``
    takes the centered sample as a temporary, and a ``None`` makes numpy
    allocate.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("gaussian_fit needs at least two sample points")
    mean = sample_mean(x)
    centered = np.subtract(x, mean, out=scratch)
    cov = centered.T @ centered / x.shape[0]
    return make_gaussian(mean, cov, FIT_JITTER)


def gaussian_logpdf(model: GaussianModel, x, work=(None, None)) -> np.ndarray:
    """Log-density at the rows of ``x`` ``(n, d)``; returns ``(n,)``.

    The rows are whitened by one product with the cached ``whiten``; the
    centered rows go into ``work[0]`` and the whitened ones into ``work[1]``.
    """
    x = np.subtract(x, model.mean, out=work[0])
    z = np.matmul(x, model.whiten, out=work[1])
    quad = np.einsum("ij,ij->i", z, z)
    return -0.5 * (model.dim * _LOG_2PI + model.log_det + quad)


def gaussian_sample(model: GaussianModel, normals, out=None) -> np.ndarray:
    """The points ``mean + factor @ xi`` for the rows ``xi`` of the standard
    normals ``normals`` ``(n, d)``, which are only read.  The product
    ``normals @ factor.T`` goes into ``out`` (a ``None`` makes numpy
    allocate) and the mean is added in place, as in the particle step once
    ``exp(-h)`` is 0."""
    pts = np.matmul(normals, model.factor.T, out=out)
    pts += model.mean
    return pts


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

    def logpdf(self, x, work=(None, None)):
        # the density forms no (n, d) temporary: ``work`` is only taken so
        # that both proposal models share one signature
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
    ``kappa`` at 1e8 and set a flag.  The mean direction is one product
    ``(1 / r) @ x``, so no unit vectors are formed.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("vmfn_fit needs at least two sample points")
    d = x.shape[1]
    if d < 2:
        raise ValueError("vmfn_fit requires dimension >= 2")
    r2 = np.einsum("ij,ij->i", x, x)
    r = np.sqrt(r2)
    if np.any(r == 0.0):
        raise ValueError("vmfn_fit: zero-norm sample point")
    resultant = (1.0 / r) @ x / x.shape[0]
    rbar = float(np.linalg.norm(resultant))
    mu = resultant / rbar if rbar > 0 else np.eye(d)[0]
    kappa = math.inf if rbar >= 1.0 - 1e-12 else rbar * (d - rbar**2) / (1.0 - rbar**2)
    capped = kappa > KAPPA_CAP
    kappa = min(kappa, KAPPA_CAP)
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
    from scipy.special import gammaln, ive

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


def vmfn_logpdf(model: VmfnModel, x) -> np.ndarray:
    """Log-density on R^d at the rows of ``x`` ``(n, d)``; returns ``(n,)``.
    Undefined at the origin."""
    from scipy.special import gammaln

    pts = np.asarray(x, dtype=float)
    d = model.dim
    r = _row_norms(pts)
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
    return log_dir + log_rad - (d - 1.0) * np.log(r)


def _row_norms(x) -> np.ndarray:
    """Euclidean norms of the rows of ``x``, with the sums of squares taken
    by ``einsum`` (see :func:`std_normal_logpdf`); they agree with
    ``np.linalg.norm(x, axis=1)`` to rounding, not bit for bit."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _sample_vmf_cosines(d: int, kappa: float, stream: RandomStream, n: int) -> np.ndarray:
    """Cosines ``w = mu . x`` of ``n`` vMF directions on the unit sphere in
    R^d, by the rejection scheme of Wood (1994)."""
    # rationalized form of b avoids cancellation for large kappa
    b = (d - 1.0) / (2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1.0) * math.log1p(-x0 * x0)
    w = np.empty(n)
    filled = 0
    for _ in range(1000):
        todo = n - filled
        if todo == 0:
            return w
        z = stream.beta(0.5 * (d - 1.0), 0.5 * (d - 1.0), size=todo)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        logu = np.log(stream.uniform(size=todo))
        accept = kappa * cand + (d - 1.0) * np.log(1.0 - x0 * cand) - c >= logu
        good = cand[accept]
        w[filled : filled + good.size] = good
        filled += good.size
    raise RuntimeError("direction sampling failed to accept enough draws")  # pragma: no cover


def vmfn_sample(
    model: VmfnModel, stream: RandomStream, n: int, out=None, normals=None
) -> np.ndarray:
    """Draw ``n`` points, a vMF direction times a Nakagami radius, into
    ``out``; a ``None`` makes numpy allocate.  No ``(n, d)`` temporary is
    formed.

    Point ``j`` is ``r_j (sqrt(1 - w_j^2) t_j / |t_j| + w_j mu)``, with the
    vMF cosine ``w_j``, the Nakagami radius ``r_j`` and the tangent
    ``t_j = xi_j - (xi_j . mu) mu`` of a standard normal ``xi_j``.  It is
    assembled in place as ``a_j t_j + b_j mu``: one rank-1 BLAS update
    (``dger``) forms the tangents, one row scale applies ``a_j`` and a
    second ``dger`` adds ``b_j mu``.  The stream gives the ``(n, d)``
    normals first, then the cosines' betas and uniforms, then the radii's
    gammas.  ``normals`` passes the first of these in already drawn, with
    ``stream`` advanced past them; they are copied into ``out``, never
    written.
    """
    from scipy.linalg.blas import dger

    mu = model.mean_direction
    d = mu.shape[0]
    xi = np.empty((n, d)) if out is None else out
    if normals is None:
        stream.standard_normal((n, d), out=xi)
    else:
        np.copyto(xi, normals)
    w = _sample_vmf_cosines(d, model.kappa, stream, n)
    m, om = model.nakagami_shape, model.nakagami_spread
    r = np.sqrt(stream.gamma(m, om / m, size=n))
    # xi is C-contiguous, so xi.T is F-contiguous and dger updates it in place
    dger(-1.0, mu, xi @ mu, a=xi.T, overwrite_a=True)
    xi *= (r * np.sqrt(np.clip(1.0 - w * w, 0.0, None)) / _row_norms(xi))[:, None]
    dger(1.0, mu, r * w, a=xi.T, overwrite_a=True)
    return xi

