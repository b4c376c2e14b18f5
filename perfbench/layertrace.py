"""Per-layer tracing from outside the program.

The tracer swaps the names the estimator looks up at call time (module
globals such as ``cbree.driver.update_smoothing`` and one class attribute,
``cbree.problems.CountedLsf.__call__``) for timing wrappers, and restores
them afterwards.  No file of the package changes.  Each call becomes a span
``[name, start, end, parent, run, size]`` kept in memory; ``size`` is the
number of points for limit-state calls and 0 otherwise.  A target that no
longer exists is listed as unmeasured instead of failing the run.
"""

from __future__ import annotations

import csv
import importlib
import math
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute path).  A layer may be looked up under several
# names; every one of them is wrapped so that all call sites are timed.
TARGETS = (
    ("problems.lsf", "cbree.problems", "CountedLsf.__call__"),
    ("smoothing.update_smoothing", "cbree.driver", "update_smoothing"),
    ("smoothing.log_smooth_indicator", "cbree.smoothing", "log_smooth_indicator"),
    ("smoothing.empirical_cv", "cbree.driver", "empirical_cv"),
    ("cbs.solve_beta", "cbree.driver", "solve_beta"),
    ("cbs.ess_from_log_weights", "cbree.cbs", "ess_from_log_weights"),
    ("cbs.ess_from_log_weights", "cbree.driver", "ess_from_log_weights"),
    ("cbs.ensemble_coefficients", "cbree.driver", "ensemble_coefficients"),
    ("cbs.ensemble_coefficients", "cbree.stepctl", "ensemble_coefficients"),
    ("cbs.cbs_step", "cbree.driver", "cbs_step"),
    ("cbs.cbs_step", "cbree.stepctl", "cbs_step"),
    ("numkit.weighted_moments", "cbree.cbs", "weighted_moments"),
    ("numkit.factor_spd", "cbree.cbs", "factor_spd"),
    ("numkit.factor_spd", "cbree.densities", "factor_spd"),
    ("densities.gaussian_fit", "cbree.driver", "gaussian_fit"),
    ("densities.gaussian_logpdf", "cbree.densities", "gaussian_logpdf"),
    ("densities.vmfn_fit", "cbree.driver", "vmfn_fit"),
    ("densities.vmfn_sample", "cbree.driver", "vmfn_sample"),
    ("densities.vmfn_logpdf", "cbree.densities", "vmfn_logpdf"),
    ("stepctl.moments_of_ensemble", "cbree.driver", "moments_of_ensemble"),
    ("stepctl.moments_of_ensemble", "cbree.stepctl", "moments_of_ensemble"),
    ("stepctl.initial_stepsize", "cbree.driver", "initial_stepsize"),
    ("stepctl.propose", "cbree.stepctl", "StepControllerState.propose"),
    ("driver.is_estimate", "cbree.driver", "is_estimate"),
)

ROOT = "driver.run"
LSF = "problems.lsf"


def _lsf_points(args) -> int:
    # CountedLsf.__call__(self, x): one point per row of x
    return int(np.atleast_2d(np.asarray(args[1])).shape[0])


SIZERS = {LSF: _lsf_points}


class Tracer:
    """Span recorder plus the install/restore bookkeeping for the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.run = -1
        self.unmeasured: list[str] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        sizer = SIZERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self.run, sizer(args) if sizer else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        self.unmeasured = []
        for layer, module_name, path in TARGETS:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.unmeasured.append(label)
                continue
            if not callable(original):
                self.unmeasured.append(label)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "run", "size"))
            out.writerows(self.spans)


def layer_stats(spans) -> dict:
    """Per-layer totals over all runs.

    ``busy`` is inclusive time, counting a span only when no ancestor has the
    same name; ``self`` subtracts the time covered by direct children;
    ``within[(child, ancestor)]`` counts ``child`` calls made under
    ``ancestor``.
    """
    child_time = defaultdict(float)
    for name, t0, t1, parent, _run, _size in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    size = defaultdict(int)
    within = defaultdict(int)
    for idx, (name, t0, t1, parent, _run, sz) in enumerate(spans):
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        for anc in ancestors:
            within[(name, anc)] += 1
        self_time[name] += (t1 - t0) - child_time[idx]
        if name not in ancestors:
            busy[name] += t1 - t0
            calls[name] += 1
            size[name] += sz
    return {"busy": busy, "self": self_time, "calls": calls, "size": size, "within": within}


def per_layer_metrics(stats: dict, n_runs: int) -> dict[str, float]:
    """The span-derived per-layer metrics, each a per-run mean."""
    busy, calls, within = stats["busy"], stats["calls"], stats["within"]

    def per_run(x):
        return x / n_runs

    def ratio(num, den):
        return num / den if den else 0.0

    wm_calls = calls["numkit.weighted_moments"]
    return {
        "problems.lsf.busy_s": per_run(busy[LSF]),
        "problems.lsf.points": per_run(stats["size"][LSF]),
        "problems.lsf.us_per_point": 1e6 * ratio(busy[LSF], stats["size"][LSF]),
        "smoothing.update_smoothing.busy_s": per_run(busy["smoothing.update_smoothing"]),
        "smoothing.update_smoothing.calls": per_run(calls["smoothing.update_smoothing"]),
        "smoothing.log_smooth_indicator.calls_per_update": ratio(
            within[("smoothing.log_smooth_indicator", "smoothing.update_smoothing")],
            calls["smoothing.update_smoothing"],
        ),
        "cbs.solve_beta.busy_s": per_run(busy["cbs.solve_beta"]),
        "cbs.ess_from_log_weights.calls_per_solve": ratio(
            within[("cbs.ess_from_log_weights", "cbs.solve_beta")], calls["cbs.solve_beta"]
        ),
        "cbs.ensemble_coefficients.busy_s": per_run(busy["cbs.ensemble_coefficients"]),
        "numkit.weighted_moments.busy_s": per_run(busy["numkit.weighted_moments"]),
        "numkit.weighted_moments.ms_per_call": 1e3 * ratio(busy["numkit.weighted_moments"], wm_calls),
        "numkit.factor_spd.busy_s": per_run(busy["numkit.factor_spd"]),
        "cbs.cbs_step.self_s": per_run(stats["self"]["cbs.cbs_step"]),
        "driver.is_estimate.busy_s": per_run(busy["driver.is_estimate"]),
        "densities.gaussian_fit.busy_s": per_run(busy["densities.gaussian_fit"]),
        "densities.gaussian_logpdf.busy_s": per_run(busy["densities.gaussian_logpdf"]),
        "densities.vmfn_fit.busy_s": per_run(busy["densities.vmfn_fit"]),
        "densities.vmfn_sample.busy_s": per_run(busy["densities.vmfn_sample"]),
        "densities.vmfn_logpdf.busy_s": per_run(busy["densities.vmfn_logpdf"]),
        "stepctl.moments_of_ensemble.busy_s": per_run(busy["stepctl.moments_of_ensemble"]),
        "stepctl.initial_stepsize.busy_s": per_run(busy["stepctl.initial_stepsize"]),
        "driver.self_s": per_run(stats["self"][ROOT]),
    }


def layer_shares(stats: dict) -> list[tuple[str, float]]:
    """Inclusive busy time of each layer over total run time, largest first."""
    total = stats["busy"][ROOT]
    rows = [(name, t / total) for name, t in stats["busy"].items() if name != ROOT and total > 0]
    rows.append(("driver (self)", stats["self"][ROOT] / total if total > 0 else math.nan))
    return sorted(rows, key=lambda r: -r[1])
