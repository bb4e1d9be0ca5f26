"""Command-line front end: decomposition, counting, GDC, thresholds, QAOA runs.

All tabular output is plot-ready CSV or JSON with a schema-version header;
plotting is left to external tools.  Exit codes: 0 success, 2 validation
error, 3 verification failure, 4 budget exhausted.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .ir import (
    AncillaBudget,
    BURNABLE,
    GateSetSpec,
    Graph,
    S2_2,
    S2_3,
    S3_2,
    circuit_to_dict,
    entangling_gate_histogram,
    entangling_total,
    mcrx,
    mcx,
)
from .decompose import DecomposeError, decompose
from .driver import (
    COLUMN_KEYS,
    COUNT_COLUMNS,
    BenchmarkConfig,
    VariantSpec,
    aggregate,
    dqva_live_nodes,
    entangling_totals,
    mixer_histogram,
    run_benchmark,
    run_trial,
)
from .graphs import brute_force_mis, erdos_renyi
from .metrics import (
    MetricsError,
    exact_count_zeroed,
    gdc,
    threshold_chain,
    threshold_requirement,
)
from .qaoa import DQVA, MA, SA, check_variant, param_count
from .verify import verify_schemes

SCHEMA = "mcdecomp/1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one line, ``error: <prog>:
    <message>``, and exit 2; ``add_subparsers`` makes every subcommand's
    parser of the same class."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {self.prog}: {message}\n")


def _out_path(path: str | None, default_name: str) -> str | None:
    if path is not None:
        return path
    base = os.environ.get("MCDECOMP_OUT_DIR")
    if base:
        return os.path.join(base, default_name)
    return None


def _write_csv(path: str | None, header: list[str], rows) -> None:
    handle = open(path, "w", newline="") if path else sys.stdout
    try:
        handle.write(f"# schema: {SCHEMA}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            handle.close()


def _write_json(path: str | None, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_budget(text: str) -> AncillaBudget:
    try:
        count, regime = text.split(",")
    except ValueError:
        raise CliError(f"--ancilla expects COUNT,REGIME (e.g. one,zeroed), got {text!r}")
    return AncillaBudget(count.strip(), regime.strip())


def cmd_decompose(args) -> int:
    if args.gateset == S3_2:
        raise CliError("s3_2 synthesis is not supported: counts only; use `count`")
    budget = _parse_budget(args.ancilla)
    controls = list(range(args.controls))
    target = args.controls
    gate = mcx(controls, target) if args.gate == "x" else mcrx(controls, target, args.angle)
    circuit = decompose(gate, GateSetSpec(args.gateset), budget)
    hist = entangling_gate_histogram(circuit)
    out = _out_path(args.out, "circuit.json")
    _write_json(out, {"circuit": circuit_to_dict(circuit)})
    print(f"entangling: {entangling_total(circuit)}", file=sys.stderr)
    print(f"histogram: {dict(sorted(hist.items()))}", file=sys.stderr)
    return EXIT_OK


def _doubling_range(text: str) -> list[int]:
    # "m=40..640" doubles from 40 to 640
    form = f"--sweep expects m=LO..HI with integers 1 <= LO <= HI, got {text!r}"
    try:
        lo, hi = (int(v) for v in text.split("=", 1)[-1].split(".."))
    except ValueError:
        raise CliError(form)
    if not 1 <= lo <= hi:
        raise CliError(form)
    vals = []
    m = lo
    while m <= hi:
        vals.append(m)
        m *= 2
    return vals


# The sweep reports the same gate-set / budget columns as every trial record.
SWEEP_COLUMNS = COUNT_COLUMNS


def sweep_counts(sizes, density, variant, p, nu_rule, seed, graphs_per_size: int = 10):
    """Mean burnable entangling totals per graph size and gate-set column (count-only).

    Each size draws a small seeded ensemble so the series reflect the trend
    rather than single-instance degree fluctuations.  The dynamic variant
    counts the live mixers of ``driver.dqva_live_nodes``; a fixed ``nu``
    must fit the parameters of the smallest size, checked before any graph
    is drawn.
    """
    try:
        fixed_nu = None if nu_rule in (None, "m/2") else int(nu_rule)
    except ValueError:
        raise CliError(f"--nu expects an integer or m/2, got {nu_rule!r}")
    if variant == DQVA and fixed_nu is not None:
        m = min(sizes)
        slots = param_count(DQVA, p, m)
        if fixed_nu > slots:
            raise CliError(f"nu={fixed_nu} exceeds the {slots} parameters of dqva with p={p} on {m} nodes")
    rows = []
    for m in sizes:
        totals = dict.fromkeys(COLUMN_KEYS, 0)
        for gi in range(graphs_per_size):
            graph = erdos_renyi(m, density, seed=seed + 1000 * m + gi)
            if variant == DQVA:
                nu = max(1, m // 2) if fixed_nu is None else fixed_nu
                hist = mixer_histogram(graph, 1, dqva_live_nodes(graph, p, nu))
            else:
                hist = mixer_histogram(graph, p)
            for key, total in entangling_totals(hist, BURNABLE).items():
                totals[key] += total
        row = {"m": m}
        row.update({k: round(v / graphs_per_size) for k, v in totals.items()})
        rows.append(row)
    return rows


def cmd_count(args) -> int:
    if args.table == "table3":
        if args.max_n < 1:
            raise CliError(f"--max-n must be >= 1, got {args.max_n}")
        rows = []
        for n in range(1, args.max_n + 1):
            for family, budget in SWEEP_COLUMNS:
                rows.append([n, family, budget, exact_count_zeroed(n, family, budget)])
        _write_csv(_out_path(args.out, "table3.csv"),
                   ["n", "gateset", "budget", "count"], rows)
        return EXIT_OK
    if args.sweep is None:
        raise CliError("count needs --table table3 or --sweep m=LO..HI")
    check_variant(args.variant, args.p)
    sizes = _doubling_range(args.sweep)
    rows = sweep_counts(sizes, args.density, args.variant, args.p, args.nu, args.seed)
    header = ["m", *COLUMN_KEYS]
    _write_csv(_out_path(args.out, "sweep.csv"), header,
               [[r["m"]] + [r[h] for h in header[1:]] for r in rows])
    return EXIT_OK


def cmd_thresholds(args) -> int:
    chain = threshold_chain(args.f1, args.f2, args.max_m)
    rows = []
    for m, value in chain.thresholds:
        rows.append([m, str(threshold_requirement(m)), f"{100 * value:.4f}"])
    _write_csv(_out_path(args.out, "thresholds.csv"),
               ["m", "requirement", "threshold_percent"], rows)
    return EXIT_OK


def _parse_pairs(text: str, flag: str, value_type) -> dict:
    try:
        return {int(k): value_type(v) for k, v in (part.split(":") for part in text.split(","))}
    except ValueError:
        raise CliError(f"{flag} expects ARITY:VALUE,... with int arities and "
                       f"{value_type.__name__} values, got {text!r}")


def cmd_gdc(args) -> int:
    if args.counts:
        if not args.fidelities:
            raise CliError("gdc --counts needs --fidelities ARITY:F,...")
        hist = _parse_pairs(args.counts, "--counts", int)
        fids = _parse_pairs(args.fidelities, "--fidelities", float)
        value = gdc(hist, fids)
        _write_json(_out_path(args.out, "gdc.json"),
                    {"histogram": {str(k): v for k, v in hist.items()},
                     "fidelities": {str(k): v for k, v in fids.items()},
                     "gdc_natural_log": value})
        return EXIT_OK
    # Fidelity sweep over seeded graphs, one GDC value per gate-set column.
    if args.f_steps < 1 or args.graphs < 1 or args.p < 1:
        raise CliError("the gdc sweep needs --f-steps, --graphs and --p >= 1")
    grid = np.linspace(args.f_min, args.f_max, args.f_steps)
    rows = []
    for gi in range(args.graphs):
        graph = erdos_renyi(args.nodes, args.density, seed=args.seed + gi)
        totals = entangling_totals(mixer_histogram(graph, args.p), BURNABLE)
        for f in grid:
            for column, total in totals.items():
                rows.append([gi, f"{f:.6f}", column, f"{gdc({column: total}, {column: f}):.6f}"])
    _write_csv(_out_path(args.out, "gdc_sweep.csv"),
               ["graph", "fidelity", "gateset", "gdc"], rows)
    return EXIT_OK


def cmd_qaoa(args) -> int:
    with open(args.graph) as fh:
        graph = Graph.from_json(fh.read())
    nu = None
    if args.variant == DQVA:
        nu = args.nu if args.nu is not None else max(1, graph.n // 2)
    spec = VariantSpec(args.variant, args.p, nu)
    optimum, _ = brute_force_mis(graph)
    record = run_trial(graph, spec, args.seed, optimum, graph_id=args.graph,
                       repetitions=args.restarts, max_evals=args.max_evals)
    print(f"parameters: {record.param_count}", file=sys.stderr)
    _write_json(_out_path(args.out, "qaoa.json"), record.to_dict())
    if args.max_evals is not None and not record.converged:
        print("warning: an optimization exhausted its evaluation budget before "
              "converging; best-so-far reported", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.preset == "desk-fig6":
        cfg = BenchmarkConfig(
            ensemble="erdos_renyi", nodes=10, edge_prob=0.5, graph_count=30,
            variants=[VariantSpec(SA, 1), VariantSpec(MA, 1), VariantSpec(DQVA, 1, 5)],
            repetitions=args.repetitions, seed=args.seed,
        )
    elif args.config:
        with open(args.config) as fh:
            cfg = BenchmarkConfig.from_json(fh.read())
    else:
        raise CliError("bench needs --config FILE or --preset desk-fig6")
    records = list(run_benchmark(cfg))
    rows = []
    for r in records:
        rows.append([
            r.graph_id, r.variant, r.param_count, r.best_size, r.optimum,
            f"{r.ratio:.6f}", r.rounds, r.evals,
            json.dumps({str(k): v for k, v in sorted(r.mixer_histogram.items())}),
        ])
    prefix = args.out_prefix or "bench"
    _write_csv(f"{prefix}_trials.csv",
               ["graph", "variant", "params", "best", "optimum", "ratio",
                "rounds", "evals", "mixer_histogram"], rows)
    _write_json(f"{prefix}_aggregate.json", {"config": json.loads(cfg.to_json()),
                                             "aggregate": aggregate(records)})
    print(f"wrote {prefix}_trials.csv and {prefix}_aggregate.json", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify_schemes(max_controls=args.max_controls, angles=args.angles,
                             seed=args.seed, tol=args.tol)
    failures = [r for r in results if not r.ok]
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name} (dev {r.deviation:.2e})")
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return EXIT_OK if not failures else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mcdecomp")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="rewrite a multi-controlled gate")
    p.add_argument("--controls", type=int, required=True)
    p.add_argument("--gateset", choices=[S2_2, S2_3, S3_2], required=True)
    p.add_argument("--ancilla", default="one,zeroed", help="COUNT,REGIME")
    p.add_argument("--gate", choices=["rx", "x"], default="rx")
    p.add_argument("--angle", type=float, default=np.pi / 4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("count", help="count tables and size sweeps")
    p.add_argument("--table", choices=["table3"])
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--sweep", help="m=LO..HI (doubling)")
    p.add_argument("--density", type=float, default=6.0)
    p.add_argument("--variant", choices=[SA, MA, DQVA], default=DQVA)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--nu", default="m/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("thresholds", help="fidelity threshold chain")
    p.add_argument("--f1", type=float, required=True)
    p.add_argument("--f2", type=float, required=True)
    p.add_argument("--max-m", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("gdc", help="gate decomposition cost")
    p.add_argument("--counts", help="ARITY:COUNT,... direct histogram")
    p.add_argument("--fidelities", help="ARITY:F,...")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--density", type=float, default=6.0)
    p.add_argument("--graphs", type=int, default=1)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--f-min", type=float, default=0.99)
    p.add_argument("--f-max", type=float, default=0.9999)
    p.add_argument("--f-steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gdc)

    p = sub.add_parser("qaoa", help="run one variational experiment")
    p.add_argument("--variant", choices=[SA, MA, DQVA], required=True)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--nu", type=int)
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--max-evals", type=int,
                   help="evaluations per optimization; exit 4 if any optimization "
                        "stops on it before converging")
    p.add_argument("--out")
    p.set_defaults(func=cmd_qaoa)

    p = sub.add_parser("bench", help="ensemble benchmark")
    p.add_argument("--config", help="BenchmarkConfig JSON file")
    p.add_argument("--preset", choices=["desk-fig6"])
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="matrix oracle: every decompose route under its ancilla contract")
    p.add_argument("--max-controls", type=int, default=5)
    p.add_argument("--angles", type=int, default=20)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DecomposeError, MetricsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
