#!/usr/bin/env python3
"""Smoke test of the benchmark's output schema on a tiny op count.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--smoke`` (one
set-up, the fewest ops) and checks the last output line against
BENCHMARK.json: exactly the keys correct/attempted/failed/metrics, every
declared metric with its declared unit and a finite value, no failed op.
It also checks that layers.json maps every per-layer metric, and that a
directory holding only BENCHMARK.json and perfbench/ exits non-zero without
printing a result. Takes about a minute. Exit code 0 means all checks passed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=180, check=False)


def check_spec(spec: dict, problems: list[str]) -> None:
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        problems.append("BENCHMARK.json repeats a name")
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction on {metric['name']}")
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or not in s / lower")
    mapped = {n for entry in json.loads((HERE / "layers.json").read_text())["map"]
              for n in entry["layer_metrics"]}
    declared = {m["name"] for m in spec["per_layer"]}
    if mapped != declared:
        problems.append(f"layers.json and BENCHMARK.json differ on {sorted(mapped ^ declared)}")


def check_result(label: str, proc, declared: list[dict], problems: list[str]) -> None:
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']}")
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        problems.append(f"{label}: metrics differ on {sorted(set(result['metrics']) ^ set(units))}")
        return
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if entry["unit"] != units[name] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {name} = {entry}")


def check_bare_directory(spec: dict, problems: list[str]) -> None:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "7",
                   "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a directory without the library did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_spec(spec, problems)
    check_bare_directory(spec, problems)
    for workload in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload['name']} --trace {trace}"
            proc = run(ROOT, "--workload", workload["name"], "--seed", "7", "--seconds", "1",
                       "--trace", trace, "--smoke")
            check_result(label, proc, declared, problems)
            print(f"checked {label}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
