"""Run one workload over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload qaoa-desk --seeds 10 --trace 0

Runs ``run.py`` once per seed (0..N-1, one fresh process each, one after
the other) and prints, per metric, the median, the quartiles and the
quartile distance as a share of the median, the figure the bounds in
BENCHMARK.json are set against, and the same for the unscaled set-up and
wall times; with ``--trace 1`` also the median traced ``work_s``,
for the tracing overhead.  All run results are written to
``benchmarks/results/<workload>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runs = []
    for seed in range(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["notes"] = [line for line in lines if line.startswith("#")]
        for line in result["notes"]:
            if line.startswith("# traced work_s"):
                result["traced_work_s"] = float(line.split()[3])
            if line.startswith("# unscaled"):
                result[f"unscaled_{line.split()[2]}"] = float(line.split()[3])
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} bound")
    series = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
    for name in ("setup_s", "wall_s"):
        series[f"(unscaled {name})"] = [r[f"unscaled_{name}"] for r in runs]
    for name, values in series.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bounds.get(name)}")
    if all("traced_work_s" in r for r in runs):
        traced = statistics.median(r["traced_work_s"] for r in runs)
        print(f"traced work_s median {traced:.6g} s (compare with the untraced work_s median)")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
