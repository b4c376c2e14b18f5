"""Small numerical kernel shared by all other modules.

Stabilized log-domain weight arithmetic, the particle mean as one BLAS
product, robust SPD factorization, bisection (:func:`bisect`, used by the
smoothing and KL frequency solves; the beta solve has its own safeguarded Newton
iteration) and the seeded random-stream contract.  No function keeps state or
writes its inputs except :func:`weighted_moments`, which fills its ``scratch``;
:class:`RandomStream` is the only stateful object, single-owner by convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RandomStream",
    "log_sum_exp",
    "sample_mean",
    "weighted_moments",
    "factor_spd",
    "spd_jitter",
    "bisect",
    "ls_slope",
]


class RandomStream(np.random.Generator):
    """Random stream keyed by a 64-bit seed and a derivation path.

    An SFC64 ``numpy.random.Generator`` seeded by
    ``SeedSequence(seed, spawn_key=path)``: two streams built from the same
    ``(seed, path)`` produce identical draw sequences.  Sub-streams derived
    via :meth:`substream` are independent because ``SeedSequence`` hashes
    each distinct ``spawn_key`` path into its own initial state, so work can
    be split deterministically across repetitions, iterations or threads
    without any shared state.
    """

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        super().__init__(np.random.SFC64(seq))

    def substream(self, *index: int) -> "RandomStream":
        """Derive an independent stream addressed by ``path + index``."""
        return RandomStream(self.seed, self.path + tuple(index))


def log_sum_exp(values) -> float:
    """Return ``log(sum(exp(values)))`` with max-shift stabilization.

    Entries may be ``-inf`` (zero mass); an all ``-inf`` input yields ``-inf``,
    which callers interpret as vanishing total mass.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty array")
    m = float(np.max(v))
    if not np.isfinite(m):
        # all -inf, or a +inf entry which dominates either way
        return m
    return m + float(np.log(np.sum(np.exp(v - m))))


def sample_mean(points) -> np.ndarray:
    """Mean of the rows of a ``(J, d)`` array, as one BLAS product
    ``ones @ points / J``.  numpy's ``mean(axis=0)`` runs a strided loop
    that is three to six times slower at J in the thousands."""
    return np.ones(points.shape[0]) @ points / points.shape[0]


def weighted_moments(points, log_weights, scratch=None):
    """Weighted mean and central second moment with log-domain weights.

    Parameters
    ----------
    points : ndarray, shape (J, d)
        Sample points, one per row.
    log_weights : ndarray, shape (J,)
        Unnormalized log-weights; normalization happens internally via
        :func:`log_sum_exp` so entries may span hundreds of nats.
    scratch : ndarray shaped like ``points``, optional
        Receives the centred points scaled by the square roots of the
        weights; a ``None`` makes numpy allocate that temporary.

    Returns
    -------
    mean : ndarray, shape (d,)
    second_central_moment : ndarray, shape (d, d)
        Weighted covariance (population convention: the weights sum to one,
        no small-sample correction).  It is ``S.T @ S`` for the scaled
        centred points ``S``; with the same array on both sides numpy takes
        BLAS's SYRK, whose result is exactly symmetric.
    """
    x = np.asarray(points, dtype=float)
    lw = np.asarray(log_weights, dtype=float)
    if x.shape[0] != lw.shape[0] or x.shape[0] < 1:
        raise ValueError("points and log_weights must share a leading dimension >= 1")
    total = log_sum_exp(lw)
    if not np.isfinite(total):
        raise ValueError("degenerate weights: zero total mass")
    w = np.exp(lw - total)
    mean = w @ x
    scaled = np.subtract(x, mean, out=scratch)
    scaled *= np.sqrt(w)[:, None]
    return mean, scaled.T @ scaled


def spd_jitter(m) -> float:
    """Default diagonal jitter for factoring an empirical covariance."""
    a = np.asarray(m, dtype=float)
    tr = float(np.trace(a))
    return 1e-10 * max(tr, 0.0) / a.shape[0]


def factor_spd(m, jitter: float) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T = clip(M) + jitter * I``.

    Tries a plain Cholesky factorization first.  On failure the input is
    symmetrized, eigendecomposed, negative eigenvalues are clamped at zero and
    the jitter is added before factoring again.  A QR-based fallback covers
    the positive semidefinite singular case, so any symmetric input with
    ``jitter >= 0`` yields a usable factor (exactly singular inputs with zero
    jitter give a zero column rather than an error).
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("factor_spd requires a square matrix")
    if jitter < 0:
        raise ValueError("jitter must be non-negative")
    d = a.shape[0]
    eye = np.eye(d)
    try:
        return np.linalg.cholesky(a + jitter * eye)
    except np.linalg.LinAlgError:
        pass
    sym = 0.5 * (a + a.T)
    eigval, eigvec = np.linalg.eigh(sym)
    eigval = np.clip(eigval, 0.0, None) + jitter
    clipped = (eigvec * eigval) @ eigvec.T
    try:
        return np.linalg.cholesky(0.5 * (clipped + clipped.T))
    except np.linalg.LinAlgError:
        # semidefinite: build the factor from a QR of the matrix square root
        root = eigvec * np.sqrt(eigval)
        r = np.linalg.qr(root.T, mode="r")
        lower = r.T
        signs = np.sign(np.diag(lower))
        signs[signs == 0] = 1.0
        return lower * signs


def bisect(f, lo: float, hi: float, xtol: float, ftol: float = 0.0) -> float:
    """Bisection for a crossing of a continuous scalar function, for
    equations that come without a derivative (the smoothing level and the
    KL frequencies).

    The caller guarantees ``f(lo) < 0 <= f(hi)``; the endpoints themselves
    are never evaluated.  Returns the first midpoint with ``|f| <= ftol``,
    or the bracket midpoint once ``hi - lo <= xtol`` (or after 200 halvings).
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= ftol:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)


def ls_slope(values) -> float:
    """Ordinary least-squares slope of ``(k, values[k])`` with ``k = 0..n-1``."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("ls_slope needs at least two values")
    k = np.arange(v.size, dtype=float)
    kc = k - k.mean()
    return float(kc @ (v - v.mean()) / (kc @ kc))

