#!/usr/bin/env python3
"""Benchmark entry point.

Run one workload and print its result as the last line of standard
output, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``::

    python3 perfbench/run.py --workload static_1m --seed 7 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run.  ``--workload all`` runs
every workload in its own process, prints every metric with its unit,
and exits non-zero if any output check failed.  The program is imported
from ``src/`` next to this directory; without it the benchmark exits 2.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("static_1m", "sim_100k", "lossy_churn_30k", "serve_zipf")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_source_tree() -> bool:
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    # Worker processes of the parallel engine import the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return True


def run_one(args: argparse.Namespace) -> int:
    import measure
    import workloads

    host = measure.host_record(args.workload, args.seed, args.seconds)
    result = measure.measure(
        args.workload,
        workloads.FULL[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        out_dir=OUT_DIR,
    )
    OUT_DIR.mkdir(exist_ok=True)
    record = {"host": host, **result}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"host": host}))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for reason in result["failure_reasons"]:
        print(f"run did not converge: {reason}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; a table of every metric."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("{"):
                print(f"{workload}: {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})")
            status = 1
            continue
        verdict = "ok" if result["correct"] else "FAILED"
        print(f"{workload}: {verdict}, {result['attempted']} attempted, {result['failed']} failed")
        for name, m in result["metrics"].items():
            print(f"  {name:36s} {m['value']!s:>24} {m['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _use_source_tree():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
