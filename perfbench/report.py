#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one report.

Usage::

    python3 perfbench/report.py [--seed 1] [--seconds 10] [--workloads quiet,serve]

For each workload it prints the end-to-end metrics by name and unit
(including the workload-specific ones), the failed-operation share, and
the traced per-layer table with the tracing overhead.  Runs go one at a
time, so they do not compete for the CPU they measure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH "):
            return json.loads(line[len("PERFBENCH "):])
    raise RuntimeError(f"no PERFBENCH record from {workload}")


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, default=run.DEFAULT_SEED,
        help=f"workload seed (default {run.DEFAULT_SEED}; re-check claims "
             f"on the held-out seed {run.HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    plain = {w: run_one(w, args.seed, args.seconds, 0) for w in workloads}
    traced = {w: run_one(w, args.seed, args.seconds, 1) for w in workloads}

    header = f"{'metric':<36}{'unit':<8}" + "".join(
        f"{w:>14}" for w in workloads)
    print(f"perfbench report, seed {args.seed}")
    print("\nend to end (median over repeats, tracing off)")
    print(header)
    e2e_units = {**run.END_TO_END_UNITS, **run.WORKLOAD_E2E_UNITS}
    for name, unit in e2e_units.items():
        row = "".join(
            f"{fmt(plain[w]['metrics'].get(name, plain[w]['specific'].get(name))):>14}"
            for w in workloads)
        print(f"{name:<36}{unit:<8}{row}")
    row = "".join(
        f"{plain[w]['failed'] / max(plain[w]['attempted'], 1):>14.4f}"
        for w in workloads)
    print(f"{'failed_share':<36}{'share':<8}{row}")

    print("\nper layer (one traced repeat)")
    print(header)
    layer_units = {**run.PER_LAYER_UNITS, **run.WORKLOAD_LAYER_UNITS,
                   "trace.overhead_cpu_s_per_sim_s": "s/s"}
    for name, unit in layer_units.items():
        row = "".join(
            f"{fmt(traced[w]['metrics'].get(name, traced[w]['specific'].get(name))):>14}"
            for w in workloads)
        print(f"{name:<36}{unit:<8}{row}")

    print("\nbehaviour digests (untraced repeats, traced run)")
    for w in workloads:
        same = plain[w]["digests"] == traced[w]["digests"]
        print(f"  {w:<10}{plain[w]['digests'][0][:16]}  "
              f"identical_when_traced={same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
