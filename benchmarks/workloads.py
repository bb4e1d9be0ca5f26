"""The three workloads: what each sets up, runs per round, and checks.

A round is the workload's fixed work.  It calls only the program's public
entry points (``driver.run_benchmark``, ``qaoa.optimize_single_round``,
``cli.sweep_counts``, ``decompose.decompose``, ``verify.verify_schemes``),
looked up on their modules at call time so that tracing wrappers apply.
Every operation of a round is timed on its own with the harness's ``clock``
and reported as ``record(key, seconds)``.
"""
from __future__ import annotations

import importlib
from dataclasses import dataclass, field


@dataclass
class Inputs:
    seed: int
    modules: dict
    params: dict = field(default_factory=dict)


@dataclass
class RoundResult:
    outputs: object
    summary: object
    attempted: int
    failed: int


def _load(*names) -> dict:
    return {name: importlib.import_module(f"mcdecomp.{name}") for name in names}


# --- QAOA ensembles ---------------------------------------------------------------

class QaoaWorkload:
    """A seeded ``run_benchmark`` ensemble; one operation is one trial."""

    captures = ("trials",)

    def __init__(self, name, why, nodes, variants, sample_variants, **ensemble):
        self.name = name
        self.why = why
        self.nodes = nodes
        self.variants = variants  # (kind, p, nu)
        self.sample_variants = sample_variants
        self.ensemble = ensemble

    def setup(self, seed: int) -> Inputs:
        mods = _load("driver", "qaoa")
        driver = mods["driver"]
        cfg = driver.BenchmarkConfig(
            ensemble="erdos_renyi", nodes=self.nodes, repetitions=1, seed=seed,
            variants=[driver.VariantSpec(kind, p, nu) for kind, p, nu in self.variants],
            **self.ensemble,
        )
        return Inputs(seed, mods, {"cfg": cfg})

    def run_round(self, inputs: Inputs, clock, record) -> RoundResult:
        driver, cfg = inputs.modules["driver"], inputs.params["cfg"]
        expected = cfg.graph_count * len(cfg.variants)
        records = []
        t = clock()
        try:
            for rec in driver.run_benchmark(cfg, jobs=1):
                record(len(records), clock() - t)
                records.append(rec)
                t = clock()
        except Exception as exc:  # a failed trial ends the generator
            print(f"# {self.name}: run_benchmark raised {exc!r}")
        summary = [r.to_dict() for r in records]
        return RoundResult(records, summary, expected, expected - len(records))

    def end_to_end(self, result: RoundResult) -> dict:
        recs = result.outputs
        return {
            "approx_ratio": sum(r.ratio for r in recs) / len(recs),
            "evals_per_trial": sum(r.evals for r in recs) / len(recs),
        }

    def check(self, inputs: Inputs, result: RoundResult, capture) -> list[str]:
        import numpy as np

        import checks

        labels = {inputs.modules["driver"].VariantSpec(k, p, nu).label: (k, p, nu)
                  for k, p, nu in self.variants}
        errors = checks.check_trials(capture.trials, labels)
        if len(capture.trials) != result.attempted:
            errors.append(f"captured {len(capture.trials)} trials of {result.attempted}")
        graphs = {}
        for graph, record, _ in capture.trials:
            graphs.setdefault(record.graph_id, graph)
        rng = np.random.default_rng(inputs.seed)
        ids = sorted(graphs)
        for gid in rng.choice(ids, size=min(2, len(ids)), replace=False):
            graph = graphs[gid]
            for kind in self.sample_variants:
                res = inputs.modules["qaoa"].optimize_single_round(
                    graph, kind, 1, seed=int(rng.integers(0, 2**31 - 1)))
                errors += checks.check_single_round(graph.n, sorted(graph.edges), kind, 1, res)
        return errors


# --- resource pipeline -----------------------------------------------------------

SWEEP_SIZES = (40, 80, 160, 320, 640)
SWEEP_DENSITY = 6.0
ORACLE_CONTROLS = 6
KRON_ROUTES = (("s2_2", "one", 3), ("s2_3", "one", 4), ("s2_2", "n", 3), ("s2_3", "n", 4))


class ResourcesWorkload:
    """Table 3 and Table 4 by construction, the Figure 8 sweeps, the oracle."""

    name = "resources"
    captures = ("histograms",)
    why = ("paper resource pipeline with no statevector: decompose, O(E) graph "
           "queries in the sweep, dense width-11/12 oracle unitaries")

    def setup(self, seed: int) -> Inputs:
        import numpy as np

        mods = _load("cli", "decompose", "ir", "sim", "verify")
        rng = np.random.default_rng(seed)
        return Inputs(seed, mods, {"theta": float(rng.uniform(0.1, 2 * np.pi - 0.1))})

    def _operations(self, inputs: Inputs):
        import checks

        m = inputs.modules
        ir, theta, seed = m["ir"], inputs.params["theta"], inputs.seed

        def build(gate, family, count, regime):
            return lambda: m["decompose"].decompose(
                gate, ir.GateSetSpec(family), ir.AncillaBudget(count, regime))

        for n in checks.TABLE3:
            for family, count in checks.TABLE3_COLUMNS:
                yield (("table3", n, family, count),
                       build(ir.mcrx(list(range(n)), n, theta), family, count, ir.ZEROED))
        for family, count, kind in checks.TABLE4:
            for n in checks.TABLE4_SIZES:
                gate = ir.mcrx(list(range(n)), n, theta) if kind == "rx" else ir.mcx(list(range(n)), n)
                yield (("table4", family, count, kind, n),
                       build(gate, family, count, ir.BURNABLE))
        for variant, nu in (("dqva", "m/2"), ("ma", None)):
            yield (("sweep", variant), lambda variant=variant, nu=nu: m["cli"].sweep_counts(
                list(SWEEP_SIZES), SWEEP_DENSITY, variant, 1, nu, seed))
        yield (("oracle",), lambda: m["verify"].verify_schemes(
            max_controls=ORACLE_CONTROLS, seed=seed, tol=1e-8))

    def run_round(self, inputs: Inputs, clock, record) -> RoundResult:
        import checks

        outputs, summary, failed = {}, {}, 0
        for key, op in self._operations(inputs):
            t = clock()
            try:
                out = op()
            except Exception as exc:
                print(f"# resources: {key} raised {exc!r}")
                failed += 1
                continue
            record(key, clock() - t)
            outputs[key] = out
            if key[0] == "table3":
                summary[key] = sum(1 for g in out.gates if len(g.controls) + len(g.targets) >= 2)
            elif key[0] == "table4":
                summary[key] = checks.arity_counts(out, 3 if key[1] == "s2_3" else 2)
            elif key[0] == "sweep":
                summary[key] = out
            else:
                summary[key] = [(r.name, r.ok, r.deviation) for r in out]
        return RoundResult(outputs, summary, len(outputs) + failed, failed)

    def end_to_end(self, result: RoundResult) -> dict:
        # No QAOA trial runs here; README.md ("End-to-end metrics") says why these read 1.
        return {"approx_ratio": 1.0, "evals_per_trial": 1.0}

    def check(self, inputs: Inputs, result: RoundResult, capture) -> list[str]:
        import checks

        m = inputs.modules
        ir, theta = m["ir"], inputs.params["theta"]
        s = result.summary
        errors = checks.check_table3({(k[1], k[2], k[3]): v for k, v in s.items() if k[0] == "table3"})
        errors += checks.check_table4({k[1:]: v for k, v in s.items() if k[0] == "table4"})
        errors += checks.check_histograms(capture.histograms)
        for variant in ("dqva", "ma"):
            errors += checks.check_sweep(s.get(("sweep", variant), []), variant)
        errors += checks.check_oracle(result.outputs.get(("oracle",), []))

        def zeroed(n, family, count):
            return m["decompose"].decompose(ir.mcrx(list(range(n)), n, theta),
                                            ir.GateSetSpec(family), ir.AncillaBudget(count))

        intact = zeroed(4, "s2_3", "one")
        entangling = [i for i, g in enumerate(intact.gates) if g.controls]
        drop = entangling[len(entangling) // 2]
        corrupted = ir.Circuit(intact.dim, intact.width,
                               intact.gates[:drop] + intact.gates[drop + 1:], intact.ancilla)
        errors += checks.check_oracle_not_vacuous(
            m["verify"].restricted_deviation, intact, corrupted,
            ir.mcrx(list(range(4)), 4, theta), 5)
        for family, count, n in KRON_ROUTES:
            c = zeroed(n, family, count)
            errors += [f"kron {family}/{count} n={n}: {e}" for e in checks.check_kron(
                c, ir.mcrx(list(range(n)), n, theta), n + 1, m["sim"].circuit_unitary(c))]
        return errors


WORKLOADS = {
    w.name: w for w in (
        QaoaWorkload(
            "qaoa-desk",
            "paper desk-scale ensemble (desk-fig6 recipe, 100 graphs): 1024 amplitudes, "
            "so per-call engine and Nelder-Mead overhead set the time",
            nodes=10, edge_prob=0.5, graph_count=100,
            variants=(("sa", 1, None), ("ma", 1, None), ("dqva", 1, 5)),
            sample_variants=("sa", "ma"),
        ),
        QaoaWorkload(
            "qaoa-sparse",
            "sparse n=16 graphs (28 of them): 65536 amplitudes of which ~1.6k feasible, so the "
            "engine's state dimension sets time and memory",
            nodes=16, density=3.0, graph_count=28,
            variants=(("sa", 1, None),),
            sample_variants=("sa",),
        ),
        ResourcesWorkload(),
    )
}
