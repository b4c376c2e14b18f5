"""Benchmark limit-state functions in standard-normal space.

Every problem is expressed for standard-normal inputs; non-Gaussian inputs
(the oscillator) carry their affine transform inside the evaluator.  All
evaluators accept a single point ``(d,)`` or a batch ``(n, d)`` and are
wrapped in an evaluation counter so run costs can be audited exactly.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field

import numpy as np

from .numkit import solve_scalar_root

__all__ = [
    "CountedLsf",
    "ProblemSpec",
    "KlField",
    "linear_lsf",
    "convex_lsf",
    "oscillator_lsf",
    "kl_eigenpairs",
    "make_flowrate_lsf",
    "counted",
    "get_problem",
    "list_problems",
]

GUARD_VALUE = 1e10


class CountedLsf:
    """Evaluation-counting wrapper around a vectorized limit-state function.

    The counter increments once per evaluated point (batch calls add the
    batch size) under a lock, so repetitions may share a wrapper across
    threads; benchmark runs use one wrapper each for exact per-run cost.
    The wrapped function must return one finite value per point; anything
    else raises ``ValueError``, since a NaN would silently count as safe
    under ``g <= 0``.
    """

    def __init__(self, fn):
        self._fn = fn
        self._count = 0
        self._lock = threading.Lock()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        with self._lock:
            self._count += pts.shape[0]
        out = np.asarray(self._fn(pts), dtype=float)
        if out.shape != (pts.shape[0],):
            raise ValueError(
                f"limit-state function returned shape {out.shape} for "
                f"{pts.shape[0]} points; expected ({pts.shape[0]},)"
            )
        if not np.all(np.isfinite(out)):
            bad = int(np.count_nonzero(~np.isfinite(out)))
            raise ValueError(f"limit-state function returned {bad} non-finite values")
        return float(out[0]) if single else out

    @property
    def evaluations(self) -> int:
        with self._lock:
            return self._count


@dataclass
class ProblemSpec:
    """A named limit-state evaluator plus its metadata.

    ``pf_ref`` carries the reference failure probability when one is known,
    with a provenance tag (analytic value or reported Monte Carlo estimate).
    """

    name: str
    dim: int
    lsf: CountedLsf
    pf_ref: float | None = None
    pf_ref_source: str | None = None

    @property
    def evaluations(self) -> int:
        return self.lsf.evaluations


def counted(fn) -> CountedLsf:
    """Decorate an evaluator with the evaluation counter."""
    return CountedLsf(fn)


# --- linear hyperplane problem ------------------------------------------------

def linear_lsf(x, c: float = 3.5):
    """``c - sum(x) / sqrt(d)``; exact failure probability Phi(-c) in any d."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return c - x.sum(axis=1) / math.sqrt(x.shape[1])


def convex_lsf(x):
    """Parabolic valley in d = 2: ``(x1 - x2)^2 / 10 - (x1 + x2)/sqrt(2) + 2/5``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != 2:
        raise ValueError("convex_lsf is defined for dimension 2")
    return (x[:, 0] - x[:, 1]) ** 2 / 10.0 - (x[:, 0] + x[:, 1]) / math.sqrt(2.0) + 0.4


# --- nonlinear oscillator -----------------------------------------------------

OSCILLATOR_MEAN = np.array([1.0, 1.0, 0.1, 0.5, 0.3, 1.0])
OSCILLATOR_STD = np.array([0.05, 0.1, 0.01, 0.05, 0.2, 0.2])


def oscillator_lsf(u):
    """Single-degree-of-freedom oscillator under a rectangular pulse.

    Inputs are standard normal and mapped through the affine transform onto
    the physical variables (M, c1, c2, r, F1, t1).  Physically impossible
    draws (non-positive mass or total stiffness, ~20 sigma events) return a
    large safe value instead of aborting a whole run.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != 6:
        raise ValueError("oscillator_lsf is defined for dimension 6")
    x = OSCILLATOR_MEAN + OSCILLATOR_STD * u
    mass, c1, c2, r, f1, t1 = (x[:, i] for i in range(6))
    bad = (mass <= 0.0) | (c1 + c2 <= 0.0)
    safe_mass = np.where(bad, 1.0, mass)
    omega0 = np.sqrt((c1 + c2) / safe_mass)
    g = 3.0 * r - np.abs(2.0 * f1 / (safe_mass * omega0**2) * np.sin(0.5 * t1 * omega0))
    return np.where(bad, GUARD_VALUE, g)


# --- lognormal diffusion / flowrate problem ------------------------------------

@dataclass
class KlField:
    """Truncated spectral expansion of a stationary exponential-covariance field.

    Covariance ``variance * exp(-|y1 - y2| / corr_length)`` on (0, 1); the
    eigenpairs of the covariance operator are the classical sine/cosine modes
    with frequencies from two interlacing transcendental equations.  The
    field is reconstructed as ``mean_level + sum_i sqrt(lambda_i) v_i(y) x_i``
    so that the truncation reproduces the target covariance of the retained
    modes.
    """

    mean_level: float
    variance: float
    corr_length: float
    eigenvalues: np.ndarray   # (n_terms,), strictly decreasing
    frequencies: np.ndarray   # (n_terms,)
    is_cosine: np.ndarray     # (n_terms,) bool: cosine vs sine mode
    signs: np.ndarray = field(default=None)

    def eigenfunctions(self, y) -> np.ndarray:
        """Unit-L2-norm eigenfunctions evaluated at ``y``; shape (n_terms, len(y))."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        t = y - 0.5
        omega = self.frequencies[:, None]
        half = 0.5 * np.ones_like(omega)
        sin_term = np.sin(omega) / (2.0 * omega)
        norm_cos = np.sqrt(half + sin_term)
        norm_sin = np.sqrt(half - sin_term)
        vals = np.where(
            self.is_cosine[:, None],
            np.cos(omega * t) / norm_cos,
            np.sin(omega * t) / norm_sin,
        )
        return self.signs[:, None] * vals


def kl_eigenpairs(
    n_terms: int,
    variance: float = 0.04,
    corr_length: float = 0.3,
    mean_level: float = 0.1,
) -> KlField:
    """Solve the transcendental eigenvalue problem of the exponential kernel.

    On the centered interval [-1/2, 1/2] with inverse length ``c``, cosine
    modes solve ``w sin(w/2) = c cos(w/2)`` on ``(2k pi, (2k+1) pi)`` and sine
    modes solve ``c sin(w/2) = -w cos(w/2)`` on ``((2k+1) pi, (2k+2) pi)``;
    both forms are continuous on their bracket so plain bisection applies.
    Eigenvalues follow as ``2 c variance / (w^2 + c^2)``.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    c = 1.0 / corr_length
    freqs = np.empty(n_terms)
    cosine = np.empty(n_terms, dtype=bool)
    for i in range(n_terms):
        k, odd = divmod(i, 2)
        if not odd:
            f = lambda w: w * math.sin(0.5 * w) - c * math.cos(0.5 * w)
            lo, hi = 2.0 * k * math.pi, (2.0 * k + 1.0) * math.pi
            cosine[i] = True
        else:
            f = lambda w: c * math.sin(0.5 * w) + w * math.cos(0.5 * w)
            lo, hi = (2.0 * k + 1.0) * math.pi, (2.0 * k + 2.0) * math.pi
            cosine[i] = False
        freqs[i] = solve_scalar_root(f, (lo + 1e-12, hi - 1e-12), tol=1e-13)
    lams = 2.0 * c * variance / (freqs**2 + c**2)
    fld = KlField(
        mean_level=mean_level,
        variance=variance,
        corr_length=corr_length,
        eigenvalues=lams,
        frequencies=freqs,
        is_cosine=cosine,
        signs=np.ones(n_terms),
    )
    # fix sign so each eigenfunction is non-negative at y = 0
    at_zero = fld.eigenfunctions(np.array([0.0]))[:, 0]
    fld.signs = np.where(at_zero < 0.0, -1.0, 1.0)
    return fld


def make_flowrate_lsf(n_terms: int = 10, mesh_exponent: int = 6):
    """Flux threshold exceedance for 1D diffusion with a lognormal coefficient.

    Piecewise-linear finite elements on a uniform mesh of size
    ``2^-mesh_exponent`` with boundary values u(0) = 1, u(1) = 0; the element
    coefficient is the field exponential at the element midpoint and the end
    flux uses the field value at the node y = 1.  Failure means the flux at
    y = 1 exceeds 1.7.  With no source term and one coefficient per element
    the discrete flux ``q = a_e (u_{e-1} - u_e) / h`` is the same on every
    element, so the FEM solution is ``q = 1 / (h sum_e 1/a_e)`` in closed form
    and the last interior node value is ``q h / a_last``.
    """
    fld = kl_eigenpairs(n_terms)
    n_elem = 2**mesh_exponent
    mesh_h = 1.0 / n_elem
    midpoints = (np.arange(n_elem) + 0.5) * mesh_h
    basis_mid = np.sqrt(fld.eigenvalues)[:, None] * fld.eigenfunctions(midpoints)
    basis_end = np.sqrt(fld.eigenvalues) * fld.eigenfunctions(np.array([1.0]))[:, 0]

    def lsf(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != n_terms:
            raise ValueError(f"flowrate problem expects dimension {n_terms}")
        a_elem = np.exp(fld.mean_level + x @ basis_mid)     # (n, n_elem)
        flux = 1.0 / (mesh_h * np.sum(1.0 / a_elem, axis=1))
        a_end = np.exp(fld.mean_level + x @ basis_end)
        return 1.7 - a_end * flux / a_elem[:, -1]

    return lsf, fld


# --- registry -------------------------------------------------------------------

PF_LINEAR = 0.5 * math.erfc(3.5 / math.sqrt(2.0))  # Phi(-3.5)


def _build(name: str) -> ProblemSpec:
    m = re.fullmatch(r"linear(?:-(\d+))?", name)
    if m:
        d = int(m.group(1)) if m.group(1) else 2
        if d < 1:
            raise ValueError("linear problem needs dimension >= 1")
        return ProblemSpec(
            name=name,
            dim=d,
            lsf=counted(lambda x: linear_lsf(x, 3.5)),
            pf_ref=PF_LINEAR,
            pf_ref_source="analytic",
        )
    if name == "convex":
        return ProblemSpec(name=name, dim=2, lsf=counted(convex_lsf))
    if name == "oscillator":
        return ProblemSpec(
            name=name,
            dim=6,
            lsf=counted(oscillator_lsf),
            pf_ref=6.43e-6,
            pf_ref_source="reported MC 1e9",
        )
    if name == "flowrate":
        lsf, _ = make_flowrate_lsf()
        return ProblemSpec(
            name=name,
            dim=10,
            lsf=counted(lsf),
            pf_ref=3.026e-4,
            pf_ref_source="reported MC 1e7",
        )
    raise KeyError(f"unknown problem: {name!r}")


def get_problem(name: str) -> ProblemSpec:
    """Fresh problem instance (own evaluation counter) by registry name.

    Names: ``linear`` (d = 2), ``linear-<d>`` for other dimensions,
    ``convex``, ``oscillator``, ``flowrate``.
    """
    return _build(name)


def list_problems() -> list[dict]:
    rows = []
    for name in ("linear", "linear-50", "convex", "oscillator", "flowrate"):
        spec = _build(name)
        rows.append(
            {
                "name": name,
                "dim": spec.dim,
                "pf_ref": spec.pf_ref,
                "pf_ref_source": spec.pf_ref_source,
            }
        )
    return rows
