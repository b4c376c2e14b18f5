"""Command-line interface.

Subcommands:
  list              print the problem and method registries
  run               single seeded run; emits a run-record JSON and trace CSV
  bench             repeated runs with aggregate statistics
  export-ensemble   final particle ensemble as CSV for scatter comparisons

Config files are flat ``key = value`` text; keys must match the config
dataclass fields of the chosen method exactly, unknown keys are errors.
Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    METHODS,
    run_benchmark,
    write_aggregate_csv,
    write_aggregate_json,
    write_runs_csv,
)
from .cbs import write_ensemble_csv
from .problems import get_problem, list_problems

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Invalid configuration file, key or value."""


def parse_kv_file(path) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {target_type.__name__}") from exc


def build_config(method: str, entries: dict[str, str], seed: int | None = None):
    """Instantiate the method's config dataclass from flat key-value entries."""
    if method not in METHODS:
        raise ConfigError(f"unknown method: {method!r}")
    config = METHODS[method][0]()
    fields = {f.name: f.type for f in dataclasses.fields(config)}
    for key, value in entries.items():
        if key not in fields:
            raise ConfigError(f"unknown config key for method {method!r}: {key!r}")
        current = getattr(config, key)
        setattr(config, key, _coerce(value, type(current), key))
    if seed is not None:
        config.seed = int(seed)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


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
    entries = parse_kv_file(args.config) if args.config else {}
    config = build_config(args.method, entries, seed=args.seed)
    problem = get_problem(args.problem)
    record = METHODS[args.method][1](problem, config)
    if record.cost != problem.evaluations:
        raise RuntimeError("cost audit failed")
    if args.out:
        base = Path(args.out)
        base.parent.mkdir(parents=True, exist_ok=True)
        record.write_json(base.with_suffix(".json"))
        record.write_trace_csv(base.with_suffix(".trace.csv"))
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
    reps = entries.pop("reps", None)
    master_seed = int(entries.pop("seed", "0"))
    if method is None or problem is None:
        raise ConfigError("bench config must set 'method' and 'problem'")
    reps = args.reps if args.reps is not None else int(reps) if reps else 20
    config = build_config(method, entries)
    result, rows = run_benchmark(
        method, problem, config, reps=reps, master_seed=master_seed, jobs=args.jobs
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{method}_{problem}"
    write_runs_csv(rows, out_dir / f"{stem}_runs.csv")
    write_aggregate_json(result, out_dir / f"{stem}_aggregate.json")
    write_aggregate_csv(result, out_dir / f"{stem}_aggregate.csv")
    eff = f"{result.rel_eff:.3g}" if result.rel_eff is not None else "n/a"
    print(
        f"{method} on {problem}: reps={reps} success={result.success_rate:.0%} "
        f"relEff={eff} -> {out_dir}"
    )
    return EXIT_OK


def _cmd_export(args) -> int:
    entries = parse_kv_file(args.config) if args.config else {}
    config = build_config(args.method, entries, seed=args.seed)
    problem = get_problem(args.problem)
    record = METHODS[args.method][1](problem, config)
    if record.final_ensemble is None:
        raise RuntimeError(f"method {args.method!r} does not keep a final ensemble")
    out = Path(args.out) if args.out else Path(f"{args.method}_{args.problem}_ensemble.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_ensemble_csv(record.final_ensemble, out)
    print(f"wrote {out} ({record.final_ensemble.size} particles, termination={record.termination})")
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
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", help="output base path (writes .json and .trace.csv)")

    p_bench = sub.add_parser("bench", help="repeated runs with aggregation")
    p_bench.add_argument("--config", required=True, help="config file incl. 'method' and 'problem'")
    p_bench.add_argument("--reps", type=int, default=None, help="override repetition count")
    p_bench.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_bench.add_argument("--out-dir", default="bench_out")

    p_exp = sub.add_parser("export-ensemble", help="final ensemble as CSV")
    p_exp.add_argument("--problem", required=True)
    p_exp.add_argument("--method", required=True, choices=("cbree", "cbree-vmfn", "enkf"))
    p_exp.add_argument("--seed", type=int, default=0)
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
