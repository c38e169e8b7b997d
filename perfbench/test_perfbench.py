"""Self-test of the benchmark: a tiny run of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Each run checks every decision against ``simulate()`` itself; these
tests check the output contract on top: every metric named in
``BENCHMARK.json`` is printed with its unit, ``ok_ratio`` is 1.0, the
decision counts repeat exactly under one seed, and the benchmark refuses
to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(workload, 0)
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_counts_repeat(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(first) == expected
    assert _units(second) == expected
    for name in ("core.kernel.bins_opened", "core.kernel.max_open"):
        assert first["metrics"][name]["value"] > 0
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"])


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
