"""cbree benchmark: the acceptance suite's reference cells in a closed loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload oscillator --seed 1 --seconds 30 --trace 0

One process runs one estimator run after another (a closed loop with one
client) until ``--seconds`` is spent, and always at least the workload's
``min_runs``.  Run ``i`` uses the seed ``SeedSequence(seed, spawn_key=(i,))``,
the acceptance suite's per-repetition rule.  Every run is audited and the
batch must meet its acceptance statistic; a failed check makes the exit code
1.  The last line of standard output is one JSON object holding the metrics
that ``BENCHMARK.json`` lists.

Times that are gated are corrected for the host's speed: the calibration
loop of ``calib.py`` runs between timed runs and in each set-up process,
and each time is scaled to the speed at which that loop takes
``calib.REFERENCE_S`` seconds.  Wall times are reported beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each seed
untraced and then again with every layer wrapped (see ``layertrace.py``),
runs the kernel microbenchmarks (``kernels.py``) and reports the per-layer
metrics.  Full results, every run's record included, go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier timings on small shared machines, and floating
# point results (hence the records digest) that do not depend on the core
# count.  Must be set before numpy is imported; setup processes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
from envinfo import environment  # noqa: E402
from workloads import MEDIAN_REL_BOUND, NONCONV_SHARE_MIN, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 9
TRACE_KERNEL_SHARE = 0.15  # of --seconds: kernel microbenchmarks

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cbree\n"
    "cbree.get_problem(sys.argv[2])\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[3])\n"
    "import calib\n"
    "calib.probe()\n"
    "print(repr(t1 - t0), repr(calib.probe()))\n"
)


@dataclass
class Run:
    index: int
    seed: int
    wall_s: float
    cpu_s: float
    estimate: float
    cost: int
    iterations: int
    termination: str
    error: str | None
    log10_h_max: float
    beta_capped_steps: int
    steps: int
    probe_s: float = math.nan  # calibration loop around the run (closed_loop only)
    ref_s: float = math.nan    # wall_s at the reference host speed


def run_seed(seed: int, i: int) -> int:
    seq = np.random.SeedSequence(int(seed), spawn_key=(int(i),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def load_cbree():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cbree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'cbree'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cbree

    if Path(cbree.__file__).resolve().parent != (SRC / "cbree").resolve():
        sys.exit(f"perfbench: imported cbree from {cbree.__file__}, not from {SRC}")
    return cbree


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure_setup(problem: str) -> tuple[list[float], list[float]]:
    """Seconds to import ``cbree`` and build the problem, in fresh processes.

    Returns the wall times and the calibration loop time each process
    measured right after its set-up.
    """
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), problem, str(BENCH_DIR)],
            capture_output=True, text=True, cwd=REPO, timeout=120, check=True,
        )
        wall, probe = proc.stdout.split()[-2:]
        times.append(float(wall))
        probes.append(float(probe))
    return times, probes


def audit(rec, problem) -> str | None:
    if rec.cost != problem.evaluations:
        return f"cost audit: record says {rec.cost}, counter says {problem.evaluations}"
    if not math.isfinite(rec.estimate) or rec.estimate < 0.0:
        return f"estimate {rec.estimate!r} is not finite and non-negative"
    return None


def one_run(cbree, wl, runner, index: int, seed: int) -> Run:
    problem = cbree.get_problem(wl.problem)
    config = cbree.CbreeConfig(seed=seed, **wl.config)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rec = runner(problem, config)
    except Exception:  # the loop goes on; a raising run counts as failed
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        tb = traceback.format_exc()
        print(f"run {index} (seed {seed}) raised:\n{tb}", file=sys.stderr)
        return Run(index, seed, wall, cpu, math.nan, 0, 0, "error",
                   tb.strip().splitlines()[-1], math.nan, 0, 0)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    hs = [row.h for row in rec.trace if math.isfinite(row.h) and row.h > 0]
    steps = [row for row in rec.trace if math.isfinite(row.beta)]
    return Run(
        index, seed, wall, cpu, float(rec.estimate), int(rec.cost), int(rec.iterations),
        rec.termination, audit(rec, problem),
        math.log10(max(hs)) if hs else math.nan,
        sum(bool(row.beta_capped) for row in steps), len(steps),
    )


def closed_loop(cbree, wl, runner, seed: int, seconds: float) -> tuple[list[Run], float]:
    """Runs until the next one would overrun ``seconds`` (at least ``min_runs``).

    The calibration loop runs between runs; each run's ``ref_s`` divides its
    wall time by the mean of the loop times just before and after it.
    Returns the runs and the loop's wall time.
    """
    runs: list[Run] = []
    start = time.perf_counter()
    before = calib.probe()
    while len(runs) < wl.min_runs or time.perf_counter() - start + runs[-1].wall_s <= seconds:
        run = one_run(cbree, wl, runner, len(runs), run_seed(seed, len(runs)))
        after = calib.probe()
        run.probe_s = 0.5 * (before + after)
        run.ref_s = run.wall_s * calib.REFERENCE_S / run.probe_s
        runs.append(run)
        before = after
    return runs, time.perf_counter() - start


def warm_up(cbree, wl, runner, seed: int) -> None:
    """A two-iteration run and a calibration pass, so lazy imports and BLAS
    set-up finish before timing: users pay them once per process, not once
    per run."""
    config = cbree.CbreeConfig(seed=run_seed(seed, 2**32), **{**wl.config, "max_iter": 2})
    runner(cbree.get_problem(wl.problem), config)
    calib.probe()


def records_digest(runs: list[Run]) -> str:
    h = hashlib.sha256()
    for r in runs:
        h.update(f"{r.seed},{r.estimate!r},{r.cost},{r.iterations},{r.termination}\n".encode())
    return h.hexdigest()


def run_statistics(runs: list[Run], pf_ref: float) -> dict[str, float]:
    """The paper's run-level statistics, over all runs whatever their termination."""
    ok = [r for r in runs if r.error is None]
    n = len(runs)
    out = {
        "error_share": (n - len(ok)) / n,
        "max_iter_share": sum(r.termination == "max_iter" for r in runs) / n,
        "converged_share": sum(r.termination == "converged" for r in runs) / n,
        "diverged_share": sum(r.termination == "diverged" for r in runs) / n,
        "rel_err_median": math.nan,
        "rel_rmse": math.nan,
        "rel_eff": math.nan,
    }
    if ok:
        est = np.array([r.estimate for r in ok])
        mse = float(np.mean((est - pf_ref) ** 2))
        cost = float(np.mean([r.cost for r in ok]))
        out["rel_err_median"] = abs(float(np.median(est)) / pf_ref - 1.0)
        out["rel_rmse"] = math.sqrt(mse) / pf_ref
        out["rel_eff"] = pf_ref * (1.0 - pf_ref) / (mse * cost) if mse > 0 else math.inf
    return out


def gate(wl, runs: list[Run], pf_ref: float) -> list[str]:
    """Failed correctness checks of a batch; empty when it is correct."""
    failures = [f"run {r.index} (seed {r.seed}): {r.error}" for r in runs if r.error]
    ok = [r for r in runs if r.error is None]
    if wl.gate == "median":
        if ok:
            rel = float(np.median([r.estimate for r in ok])) / pf_ref - 1.0
            if abs(rel) > MEDIAN_REL_BOUND:
                failures.append(f"median {rel:+.1%} off the reference (bound {MEDIAN_REL_BOUND:.0%})")
        else:
            failures.append("no run succeeded")
    else:
        share = sum(r.termination != "converged" for r in runs) / len(runs)
        if share < NONCONV_SHARE_MIN:
            failures.append(f"non-convergence {share:.0%} below {NONCONV_SHARE_MIN:.0%}")
    return failures


def plain(cbree, wl, seed: int, seconds: float) -> dict:
    runner = getattr(cbree, wl.runner)
    setup_times, setup_probes = measure_setup(wl.problem)
    warm_up(cbree, wl, runner, seed)
    runs, loop_wall = closed_loop(cbree, wl, runner, seed, seconds)
    walls = [r.wall_s for r in runs]
    ref = [r.ref_s for r in runs]
    speed = calib.REFERENCE_S / statistics.median(r.probe_s for r in runs)
    metrics = {
        "setup_s": statistics.median(
            t * calib.REFERENCE_S / p for t, p in zip(setup_times, setup_probes)),
        "run_s_p50_ref": statistics.median(ref),
        "cost_mean": float(np.mean([r.cost for r in runs])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes at reference speed; "
                   f"wall median {statistics.median(setup_times):.4f} s",
        "run_s_p50_ref": f"n={len(runs)} runs at reference speed; wall median "
                         f"{statistics.median(walls):.4f} s at host speed {speed:.3f}; "
                         f"{len(runs) / loop_wall:.4f} runs/s wall",
        "cost_mean": f"n={len(runs)} runs, limit-state evaluations",
        "peak_rss_mb": "this process, warm-up and all runs",
    }
    info = {"setup_times_s": setup_times, "setup_probe_s": setup_probes,
            "loop_wall_s": loop_wall, "run_s_p50_wall": statistics.median(walls),
            "runs_per_s_wall": len(runs) / loop_wall, "host_speed": speed, "notes": notes}
    return {"metrics": metrics, "info": info, "runs": runs, "checked": runs, "checks": []}


def traced(cbree, wl, seed: int, seconds: float) -> dict:
    import kernels
    import layertrace

    runner = getattr(cbree, wl.runner)
    warm_up(cbree, wl, runner, seed)
    tracer = layertrace.Tracer()
    root = tracer.wrap(layertrace.ROOT, runner)

    def traced_run(i):
        tracer.run = i
        tracer.install()
        try:
            return one_run(cbree, wl, root, i, run_seed(seed, i))
        finally:
            tracer.restore()

    # Each seed runs untraced and traced back to back, in alternating order,
    # so drift in machine speed cancels out of the overhead ratio.
    base: list[Run] = []
    runs: list[Run] = []
    budget = (1.0 - TRACE_KERNEL_SHARE) * seconds
    start = time.perf_counter()
    pair_s = 0.0
    while len(base) < wl.min_runs or time.perf_counter() - start + pair_s <= budget:
        i = len(base)
        t0 = time.perf_counter()
        if i % 2:
            runs.append(traced_run(i))
        base.append(one_run(cbree, wl, runner, i, run_seed(seed, i)))
        if not i % 2:
            runs.append(traced_run(i))
        pair_s = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"{wl.name}.spans.csv")

    stats = layertrace.layer_stats(tracer.spans)
    metrics = layertrace.per_layer_metrics(stats, len(runs))
    pf_ref = cbree.get_problem(wl.problem).pf_ref
    rs = run_statistics(base, pf_ref)
    h_max = [r.log10_h_max for r in runs if math.isfinite(r.log10_h_max)]
    steps = sum(r.steps for r in runs)
    base_p50 = statistics.median(r.wall_s for r in base)
    traced_p50 = statistics.median(r.wall_s for r in runs)
    metrics.update({
        "stepctl.log10_h_max": max(h_max) if h_max else 0.0,
        "driver.iterations_mean": float(np.mean([r.iterations for r in runs])),
        "driver.beta_capped_share": sum(r.beta_capped_steps for r in runs) / steps if steps else 0.0,
        "trace.overhead_share": traced_p50 / base_p50 - 1.0,
        "trace.unmeasured": float(len(tracer.unmeasured)),
    })
    for key in ("converged_share", "diverged_share", "max_iter_share", "error_share",
                "rel_err_median", "rel_rmse", "rel_eff"):
        metrics[f"driver.{key}"] = rs[key]
    metrics.update(kernels.run_kernels(seed, TRACE_KERNEL_SHARE * seconds))

    checks = []
    if records_digest(runs) != records_digest(base):
        checks.append("traced runs differ from the untraced runs with the same seeds")
    if stats["size"][layertrace.LSF] != sum(r.cost for r in runs):
        checks.append("limit-state points seen by the trace differ from the audited cost")
    info = {
        "dim": cbree.get_problem(wl.problem).dim,
        "untraced_run_s_p50": base_p50,
        "traced_run_s_p50": traced_p50,
        "spans": len(tracer.spans),
        "unmeasured": tracer.unmeasured,
        "layer_shares": layertrace.layer_shares(stats),
    }
    return {"metrics": metrics, "info": info, "runs": base + runs, "checked": base,
            "checks": checks}


def finite(v):
    """JSON-safe copy: non-finite floats become null."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [finite(x) for x in v]
    return v


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(result: dict, spec_metrics: list[dict]) -> None:
    env = result["environment"]
    blas = env["blas"]["numpy"]
    print(f"cbree perfbench  workload={result['workload']}  seed={env['seed']}  "
          f"trace={result['trace']}  closed loop, 1 client, {len(result['runs'])} runs")
    print(f"env  nproc={env['nproc']}  blas={blas['name']} {blas['version']} "
          f"threads={env['blas_threads']}  python={env['python']}  numpy={env['numpy']}  "
          f"scipy={env['scipy']}  commit={env['commit'][:12]}  src={env['source_sha256'][:12]}")
    notes = result["info"].get("notes", {})
    kind = "per_layer" if result["trace"] else "end_to_end, gated by their bounds"
    print(f"metrics (BENCHMARK.json {kind}):")
    for m in spec_metrics:
        print(f"  {m['name']:<52} {fmt(result['metrics'][m['name']]['value']):>12} "
              f"{m['unit']:<6} {notes.get(m['name'], '')}")
    if not result["trace"]:
        n = len(result["checked"])
        print(f"run statistics, not gated (seed-dependent, or zero on some workloads), n={n} runs:")
        for key, v in result["reported"].items():
            print(f"  {key:<52} {fmt(v):>12} ratio")
    else:
        info = result["info"]
        wm_in = result["metrics"]["numkit.weighted_moments.ms_per_call"]["value"]
        print(f"weighted_moments ms/call: in-run {wm_in:.4f} (workload d={info['dim']}) | "
              f"isolated d=10 {result['metrics']['micro.numkit.weighted_moments_d10.ms_per_call']['value']:.4f}"
              f" | isolated d=50 {result['metrics']['micro.numkit.weighted_moments_d50.ms_per_call']['value']:.4f}")
        print("inclusive share of run wall time, traced (nested layers overlap):")
        for name, share in info["layer_shares"]:
            print(f"  {name:<40} {share:7.1%}")
        print(f"unmeasured targets: {info['unmeasured'] or 'none'}")
    print(f"records digest over the first {result['digest']['runs']} runs: {result['digest']['sha256']}")
    print(f"correctness: {'ok' if not result['failures'] else 'FAILED'}")
    for f in result["failures"]:
        print(f"  FAILED {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cbree benchmark (see perfbench/run.py)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    cbree = load_cbree()
    spec_metrics = load_spec()["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    env = environment(REPO, SRC, args.seed)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        sys.exit(f"perfbench: BLAS runs {env['blas_threads']} threads on {env['nproc']} CPUs")

    out = (traced if args.trace else plain)(cbree, wl, args.seed, args.seconds)
    pf_ref = cbree.get_problem(wl.problem).pf_ref
    missing = [m["name"] for m in spec_metrics if m["name"] not in out["metrics"]]
    if missing:
        sys.exit(f"perfbench: metrics listed in BENCHMARK.json but not produced: {missing}")
    failures = gate(wl, out["checked"], pf_ref) + out["checks"]
    failures += [f"metric {m['name']} is not finite" for m in spec_metrics
                 if not math.isfinite(out["metrics"][m["name"]])]
    prefix = out["checked"][: wl.min_runs]
    result = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "metrics": {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
        "reported": run_statistics(out["checked"], pf_ref),
        "digest": {"runs": len(prefix), "sha256": records_digest(prefix)},
        "failures": failures,
        "info": out["info"],
        "checked": [r.index for r in out["checked"]],
        "runs": [asdict(r) for r in out["runs"]],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}.{'traced' if args.trace else 'untraced'}.json", "w") as fh:
        json.dump(finite(result), fh, indent=1, allow_nan=False)
        fh.write("\n")

    report(result, spec_metrics)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(out["runs"]),
        "failed": sum(r.error is not None for r in out["runs"]),
        "metrics": finite(result["metrics"]),
    }, allow_nan=False))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
