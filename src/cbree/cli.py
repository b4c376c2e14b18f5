"""Command-line interface.

Subcommands:
  list              print the problem and method registries
  run               single seeded run; emits a run-record JSON and trace CSV
  bench             repeated runs with aggregate statistics
  export-ensemble   final particle ensemble as CSV for scatter comparisons

Config files are flat ``key = value`` text; keys must match the config
dataclass fields of the chosen method exactly, unknown keys are errors.
Only this module writes files: the library returns records and results, and
:func:`_write_csv` and :func:`_write_json` write every output format.
Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bench import METHODS, BenchmarkResult, audited_run, run_benchmark
from .driver import TRACE_COLUMNS, RunRecord
from .problems import list_problems

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

RUN_CSV_COLUMNS = ("rep", "seed", "estimate", "cost", "iterations", "termination")


class ConfigError(Exception):
    """Invalid configuration file, key or value."""


def parse_kv_file(path) -> dict[str, str]:
    """Parse flat ``key = value`` lines of UTF-8 text, with or without a
    byte-order mark; '#' starts a comment."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _coerce(value: str, target_type, key: str):
    try:
        return target_type(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {target_type.__name__}") from exc


def build_config(method: str, entries: dict[str, str], seed: int | None = None):
    """Instantiate the method's config dataclass from flat key-value entries;
    a ``seed`` given here overrides theirs."""
    if method not in METHODS:
        raise ConfigError(f"unknown method: {method!r}")
    config_class = METHODS[method][0]
    types = {f.name: type(f.default) for f in dataclasses.fields(config_class)}
    kwargs = {}
    for key, value in entries.items():
        if key not in types:
            raise ConfigError(f"unknown config key for method {method!r}: {key!r}")
        kwargs[key] = _coerce(value, types[key], key)
    if seed is not None:
        kwargs["seed"] = int(seed)
    try:
        return config_class(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_csv(path, header, rows) -> None:
    """One header line, then one line per row; csv writes each value as
    ``str(value)``, which for a Python float is its shortest round-trip
    repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _aggregate(result: BenchmarkResult) -> dict:
    """The aggregate CSV's columns and values, in order; the aggregate JSON
    is this dict plus the reference, the estimates and the config.  An
    infinite relative efficiency (zero MSE) is written as empty/null."""
    cfg = result.config
    return {
        "method": result.method,
        "problem": result.problem,
        "n_particles": cfg.get("n_particles"),
        "delta_target": cfg.get("delta_target"),
        "eps_target": cfg.get("eps_target"),
        "n_obs": cfg.get("n_obs"),
        "reps": len(result.records),
        "success_rate": result.success_rate,
        "mse": result.mse,
        "rel_rmse": result.rel_rmse,
        "mean_cost": result.mean_cost,
        "rel_eff": None if result.rel_eff is not None and not math.isfinite(result.rel_eff) else result.rel_eff,
    }


def _audited_run(args) -> RunRecord:
    """The run that ``run`` and ``export-ensemble`` share: the config file,
    if any, with the ``--seed`` override, on one audited run."""
    entries = parse_kv_file(args.config) if args.config else {}
    config = build_config(args.method, entries, seed=args.seed)
    return audited_run(args.method, args.problem, config)


def _cmd_list(_args) -> int:
    print("problems:")
    for row in list_problems():
        ref = f"pf_ref={row['pf_ref']:.6g} ({row['pf_ref_source']})" if row["pf_ref"] else "pf_ref=n/a"
        print(f"  {row['name']:<12} d={row['dim']:<3} {ref}")
    print("methods:")
    for name in METHODS:
        print(f"  {name}")
    return EXIT_OK


def _cmd_run(args) -> int:
    record = _audited_run(args)
    if args.out:
        base = Path(args.out)
        base.parent.mkdir(parents=True, exist_ok=True)
        # appended, not with_suffix: a dotted base such as run.v1 keeps its name
        _write_json(base.with_name(base.name + ".json"), record.to_json_dict())
        trace_rows = map(dataclasses.astuple, record.trace)
        _write_csv(base.with_name(base.name + ".trace.csv"), TRACE_COLUMNS, trace_rows)
    else:
        json.dump(record.to_json_dict(), sys.stdout, indent=2)
        print()
    print(
        f"# {args.method} on {args.problem}: estimate={record.estimate:.6e} "
        f"termination={record.termination} cost={record.cost}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    entries = parse_kv_file(args.config)
    method = entries.pop("method", None)
    problem = entries.pop("problem", None)
    reps = _coerce(entries.pop("reps", "20"), int, "reps")
    master_seed = _coerce(entries.pop("seed", "0"), int, "seed")
    if method is None or problem is None:
        raise ConfigError("bench config must set 'method' and 'problem'")
    if args.reps is not None:
        reps = args.reps
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    if master_seed < 0:
        raise ConfigError(f"seed must be non-negative, got {master_seed}")
    if args.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {args.jobs}")
    config = build_config(method, entries)
    result = run_benchmark(method, problem, config, reps=reps, master_seed=master_seed, jobs=args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{method}_{problem}"
    rows = (
        (rep, r.seed, r.estimate, r.cost, r.iterations, r.termination)
        for rep, r in enumerate(result.records)
    )
    _write_csv(out_dir / f"{stem}_runs.csv", RUN_CSV_COLUMNS, rows)
    aggregate = _aggregate(result)
    _write_json(
        out_dir / f"{stem}_aggregate.json",
        {**aggregate, "pf_ref": result.pf_ref, "estimates": result.estimates, "config": result.config},
    )
    _write_csv(out_dir / f"{stem}_aggregate.csv", aggregate.keys(), [aggregate.values()])
    eff = f"{result.rel_eff:.3g}" if result.rel_eff is not None else "n/a"
    print(
        f"{method} on {problem}: reps={reps} success={result.success_rate:.0%} "
        f"relEff={eff} -> {out_dir}"
    )
    return EXIT_OK


def _cmd_export(args) -> int:
    record = _audited_run(args)
    ens = record.final_ensemble
    out = Path(args.out) if args.out else Path(f"{args.method}_{args.problem}_ensemble.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    # one row per particle: its coordinates, then its limit-state value
    header = [f"x{i + 1}" for i in range(ens.dim)] + ["g"]
    _write_csv(out, header, np.column_stack((ens.points, ens.g_values)).tolist())
    print(f"wrote {out} ({ens.size} particles, termination={record.termination})")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbree",
        description="Rare event probability estimation via consensus-driven importance sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print problem and method registries")

    p_run = sub.add_parser("run", help="single seeded run")
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--method", required=True, choices=METHODS)
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument("--seed", type=int, help="overrides the config file's seed")
    p_run.add_argument("--out", help="output base path (writes .json and .trace.csv)")

    p_bench = sub.add_parser("bench", help="repeated runs with aggregation")
    p_bench.add_argument("--config", required=True, help="config file incl. 'method' and 'problem'")
    p_bench.add_argument("--reps", type=int, default=None, help="override repetition count")
    p_bench.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_bench.add_argument("--out-dir", default="bench_out")

    p_exp = sub.add_parser("export-ensemble", help="final ensemble as CSV")
    p_exp.add_argument("--problem", required=True)
    # crude Monte Carlo keeps no ensemble
    p_exp.add_argument("--method", required=True, choices=[m for m in METHODS if m != "mc"])
    p_exp.add_argument("--seed", type=int, help="overrides the config file's seed")
    p_exp.add_argument("--config", help="flat key = value config file")
    p_exp.add_argument("--out")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "export-ensemble": _cmd_export,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
