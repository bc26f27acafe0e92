#!/usr/bin/env python3
"""Benchmark of the arotnep planner on the bundled garver6 study.

Runs one workload (or all of them) from the checkout's ``src`` tree, checks
the outputs against HiGHS references, and prints one JSON object as the last
line of standard output::

    python3 perfbench/run.py --workload worstcase-garver6 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, with spans written to ``perfbench/out/``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"
SETUP_WARMUP = 10
SETUP_REPEATS = 300


def _declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_rounds(run_round, seconds: float) -> list[float]:
    """Times of whole rounds, run until the next one would end past
    ``seconds``; at least one."""
    times = []
    start = perf_counter()
    while True:
        tick = perf_counter()
        run_round()
        times.append(perf_counter() - tick)
        if perf_counter() - start + times[-1] > seconds:
            return times


def run_one(name: str, seed: int, seconds: float, trace: bool):
    import numpy as np

    import workloads
    from tracer import Tracer, round_metrics, setup_metrics

    work = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    inp = work.inputs(seed, OUT)
    tracer = Tracer() if trace else None

    # Set-up, repeated half before and half after the timed rounds, so its
    # median sees the machine as the rounds do.  The first calls pay NumPy's
    # lazy initialization, which is not the program's work.
    setup_times, setup_marks = [], []

    def set_up_repeatedly(count):
        with tracer or contextlib.nullcontext():
            setup_marks.append(tracer.mark() if tracer else 0)
            for _ in range(count):
                tick = perf_counter()
                workloads.set_up(inp)
                setup_times.append(perf_counter() - tick)
            setup_marks.append(tracer.mark() if tracer else 0)

    for _ in range(SETUP_WARMUP):
        st = workloads.set_up(inp)
    set_up_repeatedly(SETUP_REPEATS // 2)

    def one_round():
        rnd = work.run_round(st, inp)
        if rounds_seen:
            # Later rounds keep only their figures; outputs must repeat.
            values = work.values(rnd)
            if not np.array_equal(values, work.values(rounds_seen[0]), equal_nan=True):
                repeat_errors.append("a later round's outputs differ from the first")
            rnd.outputs = []
        rounds_seen.append(rnd)

    rounds_seen, repeat_errors, marks, untraced, times = [], [], [], [], []
    if tracer:
        # Untraced and traced rounds alternate, for the tracing overhead.
        def paired_round():
            tick = perf_counter()
            one_round()
            untraced.append(perf_counter() - tick)
            with tracer:
                start, tick = tracer.mark(), perf_counter()
                one_round()
                times.append(perf_counter() - tick)
                marks.append((start, tracer.mark()))

        timed_rounds(paired_round, seconds)
    else:
        times = timed_rounds(one_round, seconds)
    set_up_repeatedly(SETUP_REPEATS - SETUP_REPEATS // 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from reference import ReferenceModel
    ref = ReferenceModel(inp.study_file, radius=inp.radius)
    errors = work.check(st, inp, rounds_seen[0], ref) + repeat_errors

    attempted = sum(r.attempted for r in rounds_seen)
    failed = sum(r.failed for r in rounds_seen)
    if tracer:
        per_round = [round_metrics(tracer.spans[a:b]) for a, b in marks]
        metrics = {key: float(statistics.median(m[key] for m in per_round))
                   for key in per_round[0]}
        a, b, c, d = setup_marks
        metrics.update(setup_metrics(tracer.spans[a:b] + tracer.spans[c:d]))
        metrics["trace_overhead_pct"] = 100.0 * (
            statistics.median(times) / statistics.median(untraced) - 1.0)
        tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
    else:
        latencies = [x for r in rounds_seen for x in r.latencies_s]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(times),
            "ops_per_s": (attempted - failed) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * _p90(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
    units = _declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "declared in BENCHMARK.json, or missing")
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in units}}
    return result


def run_all(args) -> int:
    """Each workload in its own process, then a table and a JSON object
    keyed by workload."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            status = 1
            continue
        status = max(status, proc.returncode)
        res = results[name] = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:24s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arotnep" / "__init__.py").is_file():
        print(f"error: no arotnep sources under {SRC}", file=sys.stderr)
        return 2
    if importlib.util.find_spec("scipy") is None:
        print("error: the reference checks need scipy", file=sys.stderr)
        return 2
    # Fixed before NumPy loads; child processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
