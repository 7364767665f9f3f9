"""BENCHMARK.json against the benchmark contract and against run.py."""

import re

import pytest

from perfbench import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_top_level_keys(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_workloads_match_the_command(spec):
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_names_and_units(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("bad", ["", "a b", "x" * 65, "_lead", "rt/p99", "é"])
def test_name_grammar_rejects(bad):
    assert not NAME.fullmatch(bad)


def test_bounds(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
