"""Golden determinism digests of complete experiment cells.

Determinism guarantee #7 (``docs/benchmarking.md``): under fixed seeds a
cell's full report — summary, slowdowns, utilization, request count,
metrics snapshot, request traces and Prometheus text — is bit-identical
from one commit to the next unless a change means to alter simulated
behaviour.  Each cell below is pinned by the sha256 of that payload.

The digests cover the full E2 tail-vs-load scenario and the X6 crash
cells (with pooled timeouts on and off), plus one cell of each
benchmark family: E1 at load 0.8 under DAS, X4 ``pareto-1.3`` under
Lanes+DAS and X5 ``256s/dodoor``.  A kernel or model refactor that keeps
behaviour must leave every digest unchanged; a change that alters
behaviour on purpose re-pins them and says why.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.experiments.parallel import run_scenario_parallel
from repro.experiments.runner import run_cell, run_scenario
from repro.experiments.scenarios import get_scenario
from repro.sim.core import Environment

SCALE = 0.05

GOLDEN = {
    ("E2", 0.5, "FCFS"): "56ec862a2ac3d88df4a73288153e40f26e954cbc4973315cd1fc47006196cdf1",
    ("E2", 0.5, "Rein-SBF"): "cd16f9f90abd82c68f168fa35392b115b84ca5e96b75c9e72405da6021131f16",
    ("E2", 0.5, "DAS"): "258cef9f95c80e8f0cda51a29d57f8cc0a521700c34d5950b9d9ef8097163004",
    ("E2", 0.7, "FCFS"): "931b15a5941f678827e7c0dded1f0e218ab4d9262ea9a3fa24a1adf5685b198e",
    ("E2", 0.7, "Rein-SBF"): "d33682b19e1eeed22ad5819e9a59bb780bd02775316915ff050590b331f345a5",
    ("E2", 0.7, "DAS"): "55c44a225ec69a0ceffed456856041fb915752884b4de9fbd311ccd698ee10e4",
    ("E2", 0.9, "FCFS"): "fb8d2ed15d83d00312a9cb5719822004f71f46551c9f9a3e28ad8d0d12de3bf3",
    ("E2", 0.9, "Rein-SBF"): "aa7b18db1d0f44aa978df87697d966457be19ab1c752b7f6e8aba8fa2a34b5ca",
    ("E2", 0.9, "DAS"): "5491f3ebe82a8518a7793f01aa3451d4bcb80eb3ddc9d02884ddab36337fd7d0",
    ("X6", "crash/timeout-only", "FCFS"): "e8e68208506687dcac2a4db4fb9d51ffc1f6d9f12b5f3bc82db5a965ae2db2cf",
    ("X6", "crash/timeout-only", "DAS"): "51d530fb708dcbc2237f7ebe4dcb2f92deb41005a6775e8b25fd591ee1486409",
    ("X6", "crash/hedge+cb", "FCFS"): "231f34fde5501b33f58d22f929cdee5a5d1b346e3e810cb81bd6f135606a5ad9",
    ("X6", "crash/hedge+cb", "DAS"): "3ee8fa27e7b54b9dfcf368d60d287a73d4d5047b7675dc5558e8432093157295",
    ("E1", 0.8, "DAS"): "5fea3e747d959f6144d1e655901aafe5b9d8ee744fc66f8fb718f6d35c4dd0d6",
    ("X4", "pareto-1.3", "Lanes+DAS"): "a08108299b64be6723b493693342439fe2790826483106f7b700077b5898ed84",
    ("X5", "256s/dodoor", "DAS"): "9d13f7c13b02fe00c1c3ea2c18d73ae64ec128a935a74b31c58aee71d6ccbf84",
}

#: Cells also pinned with ``pooled_timeout`` replaced by plain timeouts.
POOL_SENSITIVE = [key for key in GOLDEN if key[0] in ("E2", "X6")]


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def cell_payload(cell):
    """Everything a cell reports except wall-clock time."""
    return {
        "summary": dataclasses.asdict(cell.summary),
        "mean_slowdown": cell.mean_slowdown,
        "p99_slowdown": cell.p99_slowdown,
        "utilization": cell.utilization,
        "requests": cell.requests,
        "metrics": cell.metrics,
        "traces": cell.traces,
        "prometheus": cell.prometheus,
    }


def cell_digest(cell) -> str:
    blob = json.dumps(cell_payload(cell), sort_keys=True, default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run(experiment_id, x, label):
    scenario = get_scenario(experiment_id, scale=SCALE)
    point = next(p for p in scenario.points if p.x == x)
    spec = next(s for s in scenario.schedulers if s.label == label)
    return run_cell(point, spec)


def _ids(key):
    return "-".join(str(part) for part in key)


@pytest.mark.parametrize("key", list(GOLDEN), ids=_ids)
def test_cell_matches_golden_digest(key):
    assert cell_digest(_run(*key)) == GOLDEN[key]


@pytest.mark.parametrize("key", POOL_SENSITIVE, ids=_ids)
def test_unpooled_cell_matches_golden_digest(monkeypatch, key):
    monkeypatch.setattr(Environment, "pooled_timeout", Environment.timeout)
    assert cell_digest(_run(*key)) == GOLDEN[key]


def test_parallel_cells_identical_to_sequential():
    scenario = get_scenario("E2", scale=SCALE)
    scenario = dataclasses.replace(
        scenario, points=scenario.points[:2], schedulers=scenario.schedulers[-2:]
    )
    sequential = run_scenario(scenario)
    parallel = run_scenario_parallel(scenario, workers=2)
    assert set(parallel.cells) == set(sequential.cells)
    for key, seq_cell in sequential.cells.items():
        assert cell_digest(parallel.cells[key]) == cell_digest(seq_cell)
        assert cell_digest(seq_cell) == GOLDEN[("E2", key[0], key[1])]
