#!/usr/bin/env python3
"""Benchmark for knnblend: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload train-hard --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced
    python3 perfbench/run.py --workload sweep-cli --trace 1

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else, so a checkout without the library exits non-zero
before printing a result. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units come from ``BENCHMARK.json``. A result file with the
environment, and for traced runs the raw spans, go to ``.bench_out/``.

One process drives one workload with one client (a closed loop) and no
threads beyond numpy's own BLAS pool.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009  # reserved for re-checking claims; do not tune against it
WORKLOAD_NAMES = ("train-hard", "query-100k", "sweep-cli")


def import_library():
    """Import knnblend from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import knnblend

    where = Path(knnblend.__file__).resolve().parent
    if where != (src / "knnblend").resolve():
        raise ImportError(f"knnblend imported from {where}, not from {src}")


def run_phase(wl, seconds: float) -> None:
    """Rounds of set-up, heavy ops and light work until `seconds` have passed
    and the workload has its minimum sample."""
    wl.phase_rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        wl.round(deadline)
        if time.perf_counter() >= deadline and wl.enough():
            return


def run_untraced(wl, args):
    from workloads import median

    run_phase(wl, args.seconds)
    wl.finish()
    if not wl.op_times:
        raise RuntimeError("no op completed")
    metrics = wl.metrics()
    metrics["setup_s"] = (median(wl.setup_times), len(wl.setup_times))
    metrics["op_s"] = (median(wl.op_times), len(wl.op_times))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, 1)
    return metrics, {"speed_factor_median": median(wl.gauge.factors)}


def layer_metrics(stats, tracer, wl) -> dict[str, float]:
    from workloads import median

    m = {}
    for name in ("datastore.search", "retrieval.knn_distribution", "retrieval.interpolate",
                 "core.validate_distribution", "core.argmax_label", "model.encode",
                 "model.pool", "training.select_pairs"):
        m[f"{name}.calls"] = stats.calls(name)
    for name in ("datastore.search", "retrieval.predict", "retrieval.knn_distribution",
                 "retrieval.interpolate", "core.validate_distribution", "model.features",
                 "model.encode", "model.classify", "model.pool", "training.select_pairs"):
        m[f"{name}.self_us"] = stats.self_us(name)
    for name in ("datastore.init", "datastore.save", "datastore.load",
                 "retrieval.build_datastore", "model.save", "model.load", "data.load_jsonl",
                 "data.write_jsonl", "data.generate_synthetic", "evaluate.run_sweep",
                 "evaluate.evaluate_config", "training.train", "cli.build-datastore",
                 "cli.evaluate", "cli.sweep"):
        m[f"{name}.s"] = stats.seconds(name)
    for name in ("evaluate.run_sweep", "training.train"):
        m[f"{name}.self_s"] = stats.self_seconds(name)
    m["datastore.keys_scanned"] = stats.value_per_op("datastore.search")
    m["datastore.file_bytes"] = stats.value_median("datastore.save")
    m["data.load_jsonl.records"] = stats.value_median("data.load_jsonl")
    searches = stats.calls("datastore.search")
    m["evaluate.searches_per_query"] = searches / wl.queries_per_op if wl.queries_per_op else 0.0
    m["training.epoch_ms"] = median(tracer.epoch_ms) if tracer.epoch_ms else 0.0
    return m


def run_traced(wl, args):
    """An untraced phase for half the time, then a traced phase (set-up
    included) for the rest; the difference of the two phases' median op
    times is the tracing overhead."""
    from spans import LayerStats, Tracer

    from workloads import median

    run_phase(wl, args.seconds / 2.0)
    base_times = list(wl.op_times)
    first_traced = wl.ops_started
    tracer = Tracer()
    wl.tracer = tracer
    tracer.install()
    try:
        run_phase(wl, args.seconds / 2.0)
    finally:
        tracer.uninstall()
        wl.tracer = None
    traced_times = wl.op_times[len(base_times):]
    if not base_times or not traced_times:
        raise RuntimeError("no op completed")
    wl.finish()
    stats = LayerStats(tracer, range(first_traced, wl.ops_started))
    values = layer_metrics(stats, tracer, wl)
    values.update(wl.probes())
    values.update(wl.layer_extras(stats))
    base, traced = median(base_times), median(traced_times)
    values["trace.overhead_ms"] = (traced - base) * 1e3
    values["trace.overhead_pct"] = (traced - base) / base * 100.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.npz")
    samples = {"ops_traced": len(traced_times), "ops_untraced": len(base_times),
               "spans": len(tracer.start), "speed_factor_median": median(wl.gauge.factors)}
    return {name: (value, len(traced_times)) for name, value in values.items()}, samples


# ---------------------------------------------------------------------------
# Environment


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Entry points


def run_one(args, spec) -> int:
    import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, WORK_DIR / f"{args.workload}-{os.getpid()}",
                                  args.smoke, bool(args.trace))
    try:
        if args.trace:
            metrics, samples = run_traced(wl, args)
            declared = spec["per_layer"]
        else:
            metrics, samples = run_untraced(wl, args)
            declared = spec["end_to_end"]
        deterministic = wl.setup_deterministic()
        attempted, failed = wl.attempted, wl.failed
    finally:
        wl.close()

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name in units:
        value, n = metrics[name]
        print(f"  {name:34s} {value:14.6g} {units[name]:6s} (n={n})")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} "
          f"ops failed)")
    if not deterministic:
        print("  set-up is not deterministic: repeated set-ups gave different artifacts")
    if samples:
        print(f"  samples {json.dumps(samples)}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "samples": samples,
              "counts": {name: metrics[name][1] for name in units}, **result}
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and the fewest ops: for checking the output schema")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc(file=sys.stderr)
        sys.exit(2)
