"""Smoke test of the benchmark: every workload at a tiny size, all checks on.

    python3 -m pytest benchmarks/test_smoke.py -q

Not part of the package's test suite (pyproject's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# known-fault probes in one pass; each fails until its fault is mended
PROBES = {"sampling": 2, "one-shot": 1}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass_passes_every_check(name):
    res = workloads.run(name, seed=5, passes=1, tiny=True)
    assert res["attempted"] > 0
    assert res["incorrect"] == 0, res["problems"]
    assert res["failed"] == res["known_failed"] == PROBES.get(name, 0), res["problems"]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric(trace, kind):
    proc = _run("--workload", "sampling", "--seed", "3", "--size", "tiny", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    ops_per_pass = 6
    assert result["correct"]
    assert result["failed"] * ops_per_pass == PROBES["sampling"] * result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "1":
        assert metrics["cli.main.calls"] > 0 and metrics["quadrature.build_cdf.calls"] > 0
        assert metrics["oracle.radii"] > 0 and metrics["cli.bytes_out"] > 0
    else:
        assert all(v > 0 for v in metrics.values())


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "smooth-curves", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
