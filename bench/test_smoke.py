"""Smoke test of the benchmark: one op per workload, every named metric
printed with its unit, and a corrupted library output counted as failed.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def _run_one_op(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--ops", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    stdout, result = _run_one_op(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    printed = {line.split()[0]: line.split()[-1]
               for line in stdout.splitlines()[:-1] if line.startswith("  ")}
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert printed.get(name) == unit, name
    assert printed.get("failed_ratio") == "ratio"


def _corrupt_fwht(lib):
    honest = lib.classical.ur_via_fwht
    lib.classical.ur_via_fwht = lambda g, m, width=32: lib.boolfn.DataTable(
        g.n, honest(g, m, width).bits ^ 1)


def _corrupt_gap(lib):
    honest = lib.teleport.trace_distance
    lib.teleport.trace_distance = lambda a, b: honest(a, b) + 1e-6


@pytest.mark.parametrize("workload, corrupt", [("classical", _corrupt_fwht),
                                               ("enumerate", _corrupt_gap)])
def test_corrupted_output_counts_in_failed_ratio(workload, corrupt):
    lib, wl, _, _ = run.set_up(workload, seed=7, ops=1)
    clean = run.measure(wl, seconds=0)
    assert clean.tally.failed_ratio == 0.0
    corrupt(lib)
    dirty = run.measure(wl, seconds=0)
    assert dirty.tally.attempted == 1 and dirty.tally.failed_ratio == 1.0
    assert run.end_to_end_metrics(dirty, [1.0], 1.0)["ok_ratio"][0] == 0.0
