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
from dataclasses import dataclass

import numpy as np

from .numkit import bisect

__all__ = [
    "CountedLsf",
    "ProblemSpec",
    "KlField",
    "linear_lsf",
    "convex_lsf",
    "oscillator_lsf",
    "kl_eigenpairs",
    "make_flowrate_lsf",
    "get_problem",
    "list_problems",
]

GUARD_VALUE = 1e10


class CountedLsf:
    """Evaluation-counting wrapper around a vectorized limit-state function.

    The counter increments once per evaluated point (batch calls add the
    batch size) under a lock, so repetitions may share a wrapper across
    threads; benchmark runs use one wrapper each for exact per-run cost.
    The wrapped function must return one finite real value per point;
    anything else, a complex value included, raises ``ValueError``, since a
    NaN would silently count as safe under ``g <= 0``.
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
        out = np.asarray(self._fn(pts))
        if np.iscomplexobj(out):
            # casting would drop the imaginary part with only a warning
            raise ValueError("limit-state function returned complex values; expected real ones")
        out = np.asarray(out, dtype=float)
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


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("problem dimension must be at least 1")

    @property
    def evaluations(self) -> int:
        return self.lsf.evaluations


# --- linear hyperplane problem ------------------------------------------------

LINEAR_THRESHOLD = 3.5


def linear_lsf(x):
    """``LINEAR_THRESHOLD - sum(x) / sqrt(d)``; exact failure probability
    ``Phi(-LINEAR_THRESHOLD)`` in any d."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return LINEAR_THRESHOLD - x.sum(axis=1) / math.sqrt(x.shape[1])


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
    large safe value instead of aborting a whole run; their mass and
    stiffness are replaced by 1 first, so they raise no floating-point
    warning.

    The inputs are mapped one column at a time, from one transposed copy,
    so every variable is a contiguous row; the arithmetic is elementwise
    and rounds as the row-wise formula does.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != 6:
        raise ValueError("oscillator_lsf is defined for dimension 6")
    x = u.T.copy()
    x *= OSCILLATOR_STD[:, None]
    x += OSCILLATOR_MEAN[:, None]
    mass, c1, c2, r, f1, t1 = x
    stiffness = c1 + c2
    bad = (mass <= 0.0) | (stiffness <= 0.0)
    guarded = bool(bad.any())
    if guarded:
        mass = np.where(bad, 1.0, mass)
        stiffness = np.where(bad, 1.0, stiffness)
    omega0 = np.sqrt(stiffness / mass)
    # |2 F1 / (M omega0^2) * sin(t1 omega0 / 2)|, in place
    denom = np.square(omega0)
    denom *= mass
    amp = np.multiply(2.0, f1)
    amp /= denom
    phase = np.multiply(0.5, t1)
    phase *= omega0
    amp *= np.sin(phase, out=phase)
    g = np.multiply(3.0, r)
    g -= np.abs(amp, out=amp)
    if guarded:
        g[bad] = GUARD_VALUE
    return g


# --- lognormal diffusion / flowrate problem ------------------------------------

# the flowrate log-diffusion field on (0, 1): a Gaussian field with mean
# KL_MEAN_LEVEL and covariance KL_VARIANCE * exp(-|y1 - y2| / KL_CORR_LENGTH)
KL_VARIANCE = 0.04
KL_CORR_LENGTH = 0.3
KL_MEAN_LEVEL = 0.1


@dataclass
class KlField:
    """Truncated spectral expansion of the flowrate log-diffusion field.

    The eigenpairs of its covariance operator are the classical sine/cosine
    modes with frequencies from two interlacing transcendental equations.
    The field is ``KL_MEAN_LEVEL + sum_i sqrt(lambda_i) v_i(y) x_i``, so the
    truncation reproduces the target covariance of the retained modes.
    """

    eigenvalues: np.ndarray   # (n_terms,), strictly decreasing
    frequencies: np.ndarray   # (n_terms,)
    is_cosine: np.ndarray     # (n_terms,) bool: cosine vs sine mode
    signs: np.ndarray         # (n_terms,) +-1: every mode is non-negative at y = 0

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


def kl_eigenpairs(n_terms: int) -> KlField:
    """Solve the transcendental eigenvalue problem of the exponential kernel.

    On the centered interval [-1/2, 1/2] with inverse length
    ``c = 1 / KL_CORR_LENGTH``, cosine modes solve ``w sin(w/2) = c cos(w/2)``
    on ``(2k pi, (2k+1) pi)`` and sine modes solve ``c sin(w/2) = -w cos(w/2)``
    on ``((2k+1) pi, (2k+2) pi)``; both forms are continuous on their bracket
    so plain bisection applies.  Eigenvalues follow as
    ``2 c KL_VARIANCE / (w^2 + c^2)``.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    c = 1.0 / KL_CORR_LENGTH
    freqs = np.empty(n_terms)
    cosine = np.empty(n_terms, dtype=bool)
    signs = np.empty(n_terms)
    for i in range(n_terms):
        k, odd = divmod(i, 2)
        # at y = 0 cosine mode k has the sign (-1)^k, sine mode k (-1)^(k+1)
        signs[i] = (-1.0) ** (k + odd)
        if not odd:
            f = lambda w: w * math.sin(0.5 * w) - c * math.cos(0.5 * w)
            lo, hi = 2.0 * k * math.pi, (2.0 * k + 1.0) * math.pi
            cosine[i] = True
        else:
            f = lambda w: c * math.sin(0.5 * w) + w * math.cos(0.5 * w)
            lo, hi = (2.0 * k + 1.0) * math.pi, (2.0 * k + 2.0) * math.pi
            cosine[i] = False
        lo, hi = lo + 1e-12, hi - 1e-12
        sign = -1.0 if f(lo) > 0 else 1.0
        freqs[i] = bisect(lambda w: sign * f(w), lo, hi, 1e-13, 1e-13)
    lams = 2.0 * c * KL_VARIANCE / (freqs**2 + c**2)
    return KlField(eigenvalues=lams, frequencies=freqs, is_cosine=cosine, signs=signs)


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
        a_elem = np.exp(KL_MEAN_LEVEL + x @ basis_mid)      # (n, n_elem)
        flux = 1.0 / (mesh_h * np.sum(1.0 / a_elem, axis=1))
        a_end = np.exp(KL_MEAN_LEVEL + x @ basis_end)
        return 1.7 - a_end * flux / a_elem[:, -1]

    return lsf, fld


# --- registry -------------------------------------------------------------------

PF_LINEAR = 0.5 * math.erfc(LINEAR_THRESHOLD / math.sqrt(2.0))  # Phi(-3.5)


def get_problem(name: str) -> ProblemSpec:
    """Fresh problem instance (own evaluation counter) by registry name.

    Names: ``linear`` (d = 2), ``linear-<d>`` for ``d >= 1``,
    ``convex``, ``oscillator``, ``flowrate``.
    """
    m = re.fullmatch(r"linear(?:-([1-9]\d*))?", name)
    if m:
        d = int(m.group(1)) if m.group(1) else 2
        return ProblemSpec(
            name=name,
            dim=d,
            lsf=CountedLsf(linear_lsf),
            pf_ref=PF_LINEAR,
            pf_ref_source="analytic",
        )
    if name == "convex":
        return ProblemSpec(name=name, dim=2, lsf=CountedLsf(convex_lsf))
    if name == "oscillator":
        return ProblemSpec(
            name=name,
            dim=6,
            lsf=CountedLsf(oscillator_lsf),
            pf_ref=6.43e-6,
            pf_ref_source="reported MC 1e9",
        )
    if name == "flowrate":
        lsf, _ = make_flowrate_lsf()
        return ProblemSpec(
            name=name,
            dim=10,
            lsf=CountedLsf(lsf),
            pf_ref=3.026e-4,
            pf_ref_source="reported MC 1e7",
        )
    raise KeyError(f"unknown problem: {name!r}")


def list_problems() -> list[dict]:
    rows = []
    for name in ("linear", "linear-50", "convex", "oscillator", "flowrate"):
        spec = get_problem(name)
        rows.append(
            {
                "name": name,
                "dim": spec.dim,
                "pf_ref": spec.pf_ref,
                "pf_ref_source": spec.pf_ref_source,
            }
        )
    return rows
