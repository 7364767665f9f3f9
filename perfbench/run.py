"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sim-das-e1 --seed 1 --seconds 24 --trace 0

Workloads: ``sim-das-e1``, ``sim-lanes-x4``, ``sim-fleet-x5`` (simulator
cells through ``repro.kvstore.cluster.Cluster``) and ``rt-mixed`` (the
asyncio store through ``repro.runtime.cluster.LocalCluster``).  With
``--trace 0`` the run measures end to end; with ``--trace 1`` it also
runs with every layer's public calls wrapped and reports per-layer
counts and self times.  The metric names, units and directions come from
``BENCHMARK.json``.

Every line but the last is a human-readable report: provenance, then each
metric by name with its unit.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (and, for a traced run, the spans) is written under
``.perfbench/``.  The exit code is 0 only when every correctness check
passed.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SIM_WORKLOADS = ("sim-das-e1", "sim-lanes-x4", "sim-fleet-x5")
WORKLOADS = SIM_WORKLOADS + ("rt-mixed",)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_spec(root: Path = ROOT) -> Dict[str, Any]:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git(*args: str) -> Optional[str]:
    """Output of a git command on this checkout, None outside a repository."""
    if not (ROOT / ".git").exists():
        return None
    # The ceiling keeps git from using a repository that merely encloses
    # the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace, params: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    from repro.sim.core import Environment

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "params": params,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": Environment().engine,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def collect_metrics(spec: Dict[str, Any], result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract metrics for this mode, each with its unit.

    A per-layer metric the workload has no value for reads 0: that layer
    did no work on this workload.
    """
    if trace:
        values = dict(result["detail"], **result["layers"])
        values["fail_frac"] = result["failed"] / result["attempted"]
        wanted = spec["per_layer"]
    else:
        values = dict(result["end_to_end"])
        wanted = spec["end_to_end"]
    out = {}
    for metric in wanted:
        name = metric["name"]
        if not trace and name not in values:
            raise KeyError(f"workload produced no {name}")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}
    return out


def write_record(args, record: Dict[str, Any], spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if spans is not None:
        spans.save(OUT_DIR / f"{stem}-spans.npz")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if args.workload in SIM_WORKLOADS:
        from perfbench import simbench as bench
    else:
        from perfbench import rtbench as bench

    gc.collect()
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb()
    spans = result.pop("spans", None)
    metrics = collect_metrics(spec, result, bool(args.trace))
    correct = not result["problems"] and result["failed"] == 0
    record = {
        "provenance": provenance(args, result["params"]),
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "end_to_end": result["end_to_end"],
        "detail": result["detail"],
        "layers": result.get("layers", {}),
    }
    path = write_record(args, record, spans)

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = dict(result["end_to_end"], **result["detail"], **record["layers"])
    for name in sorted(shown):
        print(f"{name} = {shown[name]:.6g} {units.get(name, '')}".rstrip())
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _exec_with_fixed_hash_seed() -> None:
    """Re-run this process with string hashing fixed.

    Randomised string hashes change dict and set layouts from one process
    to the next, one more source of host-time noise between runs.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]], env)


if __name__ == "__main__":
    _exec_with_fixed_hash_seed()
    sys.exit(main())
