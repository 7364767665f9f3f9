"""Short runs of every workload through the one command."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run

SECONDS = "1"


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    out = _run(run.ROOT, "--workload", workload, "--seed", "5",
               "--seconds", SECONDS, "--trace", trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = run.load_spec()
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        # Each metric is printed by name above the JSON line too.
        if trace == "0":
            assert f"\n{name} = " in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "sim-das-e1", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
