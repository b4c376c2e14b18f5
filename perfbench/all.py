"""Run every workload, untraced and traced, and print one table.

Usage, from the repository root::

    python3 perfbench/all.py --seed 1 --seconds 30 [--against perfbench/baseline] [--save DIR]

Each workload runs in its own process (``run.py``), so peak memory is per
workload.  The table lists the gated end-to-end metrics and the run
statistics with their sample counts, the dominant traced layers and the
records digest.  ``--against`` compares digests with stored results of the
same seed (identical digests mean identical estimates, costs, iterations and
terminations); ``--save`` copies the result files into a directory, which is
how ``perfbench/baseline`` was made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="all workloads, untraced and traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--against", type=Path)
    ap.add_argument("--save", type=Path)
    args = ap.parse_args(argv)

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=BENCH_DIR.parent, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                status = 1

    print(f"{'workload':<16} {'metric':<16} {'value':>12} unit   n / note")
    for name in WORKLOADS:
        plain = json.loads((OUT / f"{name}.untraced.json").read_text())
        traced = json.loads((OUT / f"{name}.traced.json").read_text())
        n = len(plain["checked"])
        for key, m in plain["metrics"].items():
            note = plain["info"]["notes"].get(key, "")
            print(f"{name:<16} {key:<16} {m['value']:>12.6g} {m['unit']:<6} {note}")
        for key, v in plain["reported"].items():
            shown = "n/a" if v is None else f"{v:.6g}"
            print(f"{name:<16} {key:<16} {shown:>12} ratio  n={n} runs, not gated")
        top = ", ".join(f"{layer} {share:.0%}" for layer, share in traced["info"]["layer_shares"][:4])
        print(f"{name:<16} {'top layers':<16} {top}")
        digest = plain["digest"]
        line = f"{name:<16} {'digest':<16} {digest['sha256'][:16]} over {digest['runs']} runs"
        if args.against:
            ref = json.loads((args.against / f"{name}.untraced.json").read_text())
            if ref["environment"]["seed"] != args.seed:
                line += f"; stored seed {ref['environment']['seed']} differs, not compared"
            elif ref["digest"] == digest:
                line += "; identical to stored"
            else:
                line += "; DIFFERS from stored"
                status = 1
        print(line)
        print(f"{name:<16} {'correct':<16} {not plain['failures'] and not traced['failures']}")
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        for path in sorted(OUT.glob("*.json")):
            shutil.copy(path, args.save / path.name)
    return status


if __name__ == "__main__":
    sys.exit(main())
