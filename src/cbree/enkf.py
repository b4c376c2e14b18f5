"""Ensemble Kalman baseline for rare event estimation.

Perturbed-observation Kalman updates drive the particles toward the failure
surface: each particle regresses out its (noisy, clipped) limit-state value
through the ensemble cross-covariance.  In the failure domain the clipped
observable vanishes, so failed particles feel no systematic drift.  After
each sweep a single Gaussian (or vMFN) density is fitted, resampled once and
used for the importance-sampling estimate.

This is a deliberately simplified reconstruction of the published method:
the noise scale ``h`` is fixed per run instead of adapted, and the proposal
is single-component rather than a mixture, so comparisons against reported
benchmark numbers are qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cbs import Ensemble
from .driver import RunRecord, run_loop
from .numkit import sample_mean
from .problems import ProblemSpec

__all__ = ["EnkfConfig", "enkf_step", "run_enkf", "run_enkf_vmfn"]


@dataclass(frozen=True)
class EnkfConfig:
    """Tunables of one baseline run; ``h`` scales the observation noise
    variance as ``1/h``."""

    n_particles: int = 2000
    h: float = 1.0
    delta_target: float = 1.0
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if not 0 < self.h < math.inf:  # NaN fails too
            raise ValueError("h must be positive and finite")
        if not 0 < self.delta_target < math.inf:
            raise ValueError("delta_target must be positive and finite")
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def enkf_step(ens: Ensemble, h: float, noise: np.ndarray) -> np.ndarray:
    """One perturbed-observation Kalman update of the whole ensemble; returns
    the new positions.

    Observations are ``max(g, 0)`` plus ``noise / sqrt(h)`` per particle,
    where ``noise`` holds one standard-normal draw per particle; the
    update subtracts ``C_xg (c_gg + eps)^-1`` times each particle's
    observation, with a relative floor on the scalar variance to guard
    against a collapsed observation spread.
    """
    if ens.size < 2:
        raise ValueError("enkf_step needs at least two particles")
    if noise.shape != (ens.size,):
        raise ValueError(f"noise has shape {noise.shape}, expected {(ens.size,)}")
    g_plus = np.maximum(ens.g_values, 0.0)
    g_tilde = g_plus + noise / math.sqrt(h)
    x_bar = sample_mean(ens.points)
    g_bar = g_tilde.mean()
    centered_g = g_tilde - g_bar
    c_xg = (ens.points - x_bar).T @ centered_g / ens.size
    c_gg = float(np.mean(centered_g**2))
    eps = 1e-12 * max(1.0, c_gg)
    return ens.points - np.outer(g_tilde, c_xg) / (c_gg + eps)


class EnkfMover:
    """One Kalman sweep per iteration; estimates use a fresh batch drawn from
    the fitted proposal, kept apart from the ensemble."""

    batch = "apart"
    n_obs = 0

    def __init__(self, config: EnkfConfig, proposal: str):
        self.proposal = proposal
        self.h = config.h

    def start(self, ens, root) -> None:
        pass

    def noise_shape(self, J: int, d: int) -> tuple[int, ...]:
        return (J,)

    def move(self, ens, model, n, noise, row, out, scratch):
        row.h = self.h
        return enkf_step(ens, self.h, noise.result()), None


def run_enkf(problem: ProblemSpec, config: EnkfConfig) -> RunRecord:
    """Iterate Kalman sweeps with a fit-resample-estimate check after each.

    Stops once the empirical CV of the importance weights meets the target,
    or flags the last estimate when the iteration budget runs out.  The
    recorded final ensemble is the internal one (the particles hugging the
    failure surface), not the resampled batch used for estimation.
    """
    return run_loop(problem, config, EnkfMover(config, "gaussian"))


def run_enkf_vmfn(problem: ProblemSpec, config: EnkfConfig) -> RunRecord:
    """The same Kalman sweeps with a vMFN proposal for high dimensions."""
    return run_loop(problem, config, EnkfMover(config, "vmfn"))
