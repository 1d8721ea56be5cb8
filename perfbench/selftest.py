#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size; not part of the tier-1 tests.

Run from the repository root (about a minute on two cores)::

    python3 perfbench/selftest.py

It checks BENCHMARK.json against its limits, runs every workload untraced
and twice traced with one seed, and checks the result line, that exact
counters repeat, that analyze_mix counts its known failing inputs, and
that the benchmark refuses to run without the hsc sources.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNT_UNITS = {"count", "bytes"}


def check_spec() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
        for m in SPEC[group]:
            assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names), names
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert (4 + 22 * len(SPEC["workloads"])) * SPEC["run_seconds"] < 3420


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] is True, lines[-2]
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    return res, json.loads(lines[-2].removeprefix("record "))


def check_workload(workload: str) -> None:
    res, record = result(run(workload, 0))
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted, res["metrics"]
    assert all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"]
    if workload == "analyze_mix":
        failures = record["failures_per_pass"]
        # det near rho = 1 (wrong root), det and unif failing to solve, det math domain error
        assert failures["checks.failed"] > 0 and failures["errors.ConvergenceError.count"] > 0
        assert failures["errors.untyped.count"] > 0, failures
    first, _ = result(run(workload, 1))
    second, _ = result(run(workload, 1))
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == wanted
    for m in SPEC["per_layer"]:
        if m["unit"] in COUNT_UNITS:
            a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
            assert a == b, f"{workload}: {m['name']} {a} != {b}"


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_spec()
    check_refuses_without_sources()
    for w in SPEC["workloads"]:
        check_workload(w["name"])
        print(f"ok {w['name']}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
