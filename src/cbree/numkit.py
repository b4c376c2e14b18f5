"""Small numerical kernel shared by all other modules.

Stabilized log-domain weight arithmetic, robust SPD factorization, scalar
solvers and the seeded random-stream contract.  All functions are pure;
:class:`RandomStream` is the only stateful object and is single-owner by
convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RandomStream",
    "log_sum_exp",
    "weighted_moments",
    "factor_spd",
    "spd_jitter",
    "solve_scalar_root",
    "minimize_scalar_bounded",
    "ls_slope",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class RandomStream:
    """Counter-based random stream keyed by a 64-bit seed and a derivation path.

    Two streams built from the same ``(seed, path)`` produce identical draw
    sequences.  Sub-streams derived via :meth:`substream` are independent by
    construction (distinct ``spawn_key`` paths of the underlying Philox
    generator), so work can be split deterministically across repetitions,
    iterations or threads without any shared state.
    """

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self.gen = np.random.Generator(np.random.Philox(seq))

    def substream(self, *index: int) -> "RandomStream":
        """Derive an independent stream addressed by ``path + index``."""
        return RandomStream(self.seed, self.path + tuple(index))

    def standard_normal(self, size=None) -> np.ndarray:
        return self.gen.standard_normal(size)

    def uniform(self, size=None) -> np.ndarray:
        return self.gen.uniform(size=size)

    def gamma(self, shape, scale=1.0, size=None) -> np.ndarray:
        return self.gen.gamma(shape, scale, size)

    def beta(self, a, b, size=None) -> np.ndarray:
        return self.gen.beta(a, b, size)

    def __repr__(self):  # pragma: no cover
        return f"RandomStream(seed={self.seed}, path={self.path})"


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


def weighted_moments(points, log_weights):
    """Weighted mean and central second moment with log-domain weights.

    Parameters
    ----------
    points : ndarray, shape (J, d)
        Sample points, one per row.
    log_weights : ndarray, shape (J,)
        Unnormalized log-weights; normalization happens internally via
        :func:`log_sum_exp` so entries may span hundreds of nats.

    Returns
    -------
    mean : ndarray, shape (d,)
    second_central_moment : ndarray, shape (d, d)
        Symmetrized weighted covariance (population convention: the weights
        sum to one, no small-sample correction).
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    lw = np.asarray(log_weights, dtype=float)
    if x.shape[0] != lw.shape[0] or x.shape[0] < 1:
        raise ValueError("points and log_weights must share a leading dimension >= 1")
    total = log_sum_exp(lw)
    if not np.isfinite(total):
        raise ValueError("degenerate weights: zero total mass")
    w = np.exp(lw - total)
    mean = w @ x
    centered = x - mean
    scm = (w[:, None] * centered).T @ centered
    scm = 0.5 * (scm + scm.T)
    return mean, scm


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


def solve_scalar_root(f, bracket, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Bisection root of a continuous scalar function on a sign-changing bracket.

    Stops once ``|f(x)| <= tol`` or the bracket width falls below ``tol``.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if lo > hi:
        raise ValueError("bracket invalid: lo > hi")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("bracket invalid: no sign change")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol or (hi - lo) <= tol:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def minimize_scalar_bounded(f, bounds, tol: float = 1e-6, max_iter: int = 100) -> float:
    """Golden-section minimizer on a closed interval, ties resolved upward.

    Returns the best evaluated point; when several evaluations tie (flat
    objective) the largest abscissa wins, so a constant function yields the
    upper bound.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if lo > hi:
        raise ValueError("invalid interval: lo > hi")

    best_x, best_f = hi, f(hi)

    def consider(x, fx):
        nonlocal best_x, best_f
        if fx < best_f or (fx == best_f and x > best_x):
            best_x, best_f = x, fx

    consider(lo, f(lo))
    if hi - lo <= tol:
        return best_x
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    consider(c, fc)
    consider(d, fd)
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
            consider(c, fc)
        else:
            # ties land here, pushing the bracket toward the upper bound
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
            consider(d, fd)
    return best_x


def ls_slope(values) -> float:
    """Ordinary least-squares slope of ``(k, values[k])`` with ``k = 0..n-1``."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("ls_slope needs at least two values")
    k = np.arange(v.size, dtype=float)
    kc = k - k.mean()
    return float(kc @ (v - v.mean()) / (kc @ kc))

