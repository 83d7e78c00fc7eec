#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Runs every workload once untraced and once traced at the sizes in
``workloads.TINY`` and checks that

* every output check passes and every run converges;
* every metric name matches ``[A-Za-z0-9_.-]+`` and every value is a
  finite number;
* traced and untraced runs give identical rank and serve digests and
  every wrapped callable is restored;
* the layer self times of each traced run add up to its run, and the
  layers a workload does not use stay silent.

Run it from the repository root; it exits non-zero on any failure::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def main() -> int:
    failures = []
    for workload, params in workloads.TINY.items():
        for trace in (False, True):
            result = measure.measure(workload, params, 11, 0.0, trace, min_reps=2)
            label = f"{workload} trace={int(trace)}"
            failures += [f"{label}: {p}" for p in result["problems"]]
            if result["failed"]:
                failures.append(f"{label}: {result['failure_reasons']}")
            for name, m in result["metrics"].items():
                if not NAME.fullmatch(name):
                    failures.append(f"{label}: bad metric name {name!r}")
                value = m["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{label}: {name} = {value!r}")
            print(f"{label}: {'ok' if result['correct'] else 'FAILED'}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
