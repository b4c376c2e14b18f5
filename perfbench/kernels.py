"""Isolated kernel microbenchmarks at the workloads' ensemble size.

Each kernel runs on inputs drawn from the benchmark seed until its time
budget is spent (at least ``MIN_REPS`` calls); the median per call is
reported.  Bytes moved are *computed* from the sizes of the input and output
arrays (float64, no temporaries, no cache effects), not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

J = 4000
MIN_REPS = 5
F8 = 8


def _median_call_s(fn, budget_s: float) -> float:
    fn()  # warm-up: first-call allocation and lazy set-up are not timed
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# metric name -> registry name of every workload's limit-state function
LSF_PROBLEMS = {"flowrate_lsf": "flowrate", "oscillator_lsf": "oscillator", "linear50_lsf": "linear-50"}


def run_kernels(seed: int, budget_s: float) -> dict[str, float]:
    """Per-layer metrics of the isolated kernels and limit-state functions."""
    from cbree import get_problem
    from cbree.densities import gaussian_fit, gaussian_logpdf, vmfn_fit, vmfn_sample
    from cbree.numkit import RandomStream, weighted_moments
    from cbree.smoothing import log_smooth_indicator

    rng = np.random.default_rng(seed)
    x10 = rng.standard_normal((J, 10))
    x50 = rng.standard_normal((J, 50))
    lw = 20.0 * rng.standard_normal(J)
    g = rng.standard_normal(J)
    gauss50 = gaussian_fit(x50)
    vmfn50 = vmfn_fit(x50 + 0.5)
    stream = RandomStream(seed)

    cases = {
        "numkit.weighted_moments_d10": (
            lambda: weighted_moments(x10, lw), J * 10 + J + 10 + 10 * 10),
        "numkit.weighted_moments_d50": (
            lambda: weighted_moments(x50, lw), J * 50 + J + 50 + 50 * 50),
        "smoothing.log_smooth_indicator": (
            lambda: log_smooth_indicator(g, 3.0), J + J),
        "densities.gaussian_logpdf_d50": (
            lambda: gaussian_logpdf(gauss50, x50), J * 50 + 50 + 50 * 50 + J),
        "densities.vmfn_sample_d50": (
            lambda: vmfn_sample(vmfn50, stream, J), 50 + J * 50),
    }
    share = budget_s / (len(cases) + len(LSF_PROBLEMS))
    out = {}
    for name, (fn, words) in cases.items():
        out[f"micro.{name}.ms_per_call"] = 1e3 * _median_call_s(fn, share)
        out[f"micro.{name}.bytes_computed"] = float(F8 * words)
    for name, problem_name in LSF_PROBLEMS.items():
        problem = get_problem(problem_name)
        pts = rng.standard_normal((J, problem.dim))
        call_s = _median_call_s(lambda: problem.lsf(pts), share)
        out[f"micro.problems.{name}.us_per_point"] = 1e6 * call_s / J
        out[f"micro.problems.{name}.bytes_computed"] = float(F8 * (J * problem.dim + J))
    return out
