"""Run every workload, each in its own process, and print one table.

    python3 bench/report.py --seed 1 --seconds 20            # end-to-end
    python3 bench/report.py --seed 1 --seconds 20 --trace 1  # per-layer

Each row is a metric with its unit; each column a workload. ``failed_ratio``
is printed next to the JSON metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("enumerate", "trajectories", "wide_twirl", "classical")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results, units = {}, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {"failed_ratio": result["failed"] / result["attempted"]}
        units["failed_ratio"] = "ratio"
        for name, metric in result["metrics"].items():
            row[name] = metric["value"]
            units[name] = metric["unit"]
        results[workload] = row
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    print(f"{'metric':<44} {'unit':<9}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit in units.items():
        cells = "".join(f"{results[w].get(name, float('nan')):>14.6g}" for w in WORKLOADS)
        print(f"{name:<44} {unit:<9}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
