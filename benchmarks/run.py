"""Benchmark harness: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload qaoa-desk --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 1

A run sets up its inputs from ``--seed``, then repeats whole rounds of the
workload's fixed work until ``--seconds`` would be exceeded, checks the
outputs of the first round against independent computations, and prints
every metric with its unit.  Times are scaled to a reference host speed
by the readings of ``gauge.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones (see README.md).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy loads: no hot path here uses BLAS, and
# one thread per process keeps the timings free of pool contention.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 5
SETUP_READINGS = 10
WORKLOAD_NAMES = ("qaoa-desk", "qaoa-sparse", "resources")
END_TO_END_UNITS = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB",
                    "approx_ratio": "ratio", "evals_per_trial": "count"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program() -> None:
    if not (SRC / "mcdecomp" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}/mcdecomp; run from a full checkout")
    sys.path.insert(0, str(SRC))


def _setup_s(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes (spawn until the inputs are ready), each
    also scaled to the reference host speed by gauge readings around it."""
    import gauge

    samples = []
    before = gauge.mean_reading_s(SETUP_READINGS)
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        dt = float(out.stdout.strip().splitlines()[-1]) - t0
        after = gauge.mean_reading_s(SETUP_READINGS)
        samples.append((dt, dt * gauge.REF_S * 2 / (before + after)))
        before = after
    return samples


def _clear_caches() -> None:
    """Empty the program's memo caches so every round starts like a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "mcdecomp" or name.startswith("mcdecomp."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return {}

    import layers
    from gauge import Gauge

    setup_samples = _setup_s(args)
    tracer = layers.Tracer() if args.trace else None
    if tracer:
        layers.install_probes(tracer)
    capture = layers.Capture()
    capture.install(workload.captures)

    gauge = Gauge()
    op_times: dict = {}  # key -> [(seconds, seconds at the reference host speed)]
    round_s: list[float] = []
    rounds: list = []
    start = time.perf_counter()
    gauge.start()
    try:
        while True:
            _clear_caches()
            first_reading = len(gauge.readings)
            times: dict = {}
            t0 = gauge.clock()
            result = workload.run_round(inputs, gauge.clock, times.__setitem__)
            round_s.append(gauge.clock() - t0)
            scale = gauge.scale(first_reading)
            for key, dt in times.items():
                op_times.setdefault(key, []).append((dt, dt * scale))
            rounds.append(result)
            if len(rounds) == 1:
                capture.uninstall()
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(round_s) > args.seconds:
                break
    finally:
        gauge.stop()
        capture.uninstall()
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = rounds[0]
    errors = workload.check(inputs, first, capture)
    errors += [f"round {i + 1} output differs from round 1"
               for i, r in enumerate(rounds[1:], 1) if r.summary != first.summary]
    for err in errors:
        print(f"CHECK FAILED: {err}")
    # One round of the fixed work, each operation taken at its median over rounds.
    wall_s = sum(statistics.median(raw for raw, _ in v) for v in op_times.values())
    work_s = sum(statistics.median(scaled for _, scaled in v) for v in op_times.values())

    if tracer:
        metrics = layers.per_layer_metrics(tracer, len(rounds))
        print(f"# traced work_s {work_s:.6f} s over {len(rounds)} rounds "
              "(compare with the untraced work_s for the tracing overhead)")
        for target in tracer.absent + capture.absent:
            print(f"# absent: {target} (its metrics read 0)")
    else:
        values = {"setup_s": statistics.median(scaled for _, scaled in setup_samples),
                  "work_s": work_s,
                  "peak_rss_mb": peak_rss_mb, **workload.end_to_end(first)}
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(f"# unscaled setup_s {statistics.median(raw for raw, _ in setup_samples):.6f} s")
    print(f"# unscaled wall_s {wall_s:.6f} s, {wall_s / work_s:.4f} times work_s; "
          f"{len(gauge.readings)} gauge readings took {gauge.spent:.3f} s")
    print(f"# {args.workload}: {len(rounds)} rounds, round_s "
          + " ".join(f"{s:.3f}" for s in round_s))
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, so set-up and memory are its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            sys.exit(f"error: workload {name} exited with {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    return summary


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    if args.setup_probe:
        return 0
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"correct {result['correct']} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
