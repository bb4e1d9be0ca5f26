"""Tests of the benchmark itself: every output check rejects a wrong input,
and the printed metric names match BENCHMARK.json.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from mcdecomp import driver, qaoa, sim, verify  # noqa: E402
from mcdecomp.decompose import decompose  # noqa: E402
from mcdecomp.ir import AncillaBudget, Circuit, GateSetSpec, Graph, mcrx  # noqa: E402
from mcdecomp.verify import CheckResult  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# A 6-cycle with one chord: optimum 3 (e.g. nodes 0, 2, 4).
GRAPH = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
VARIANTS = {"sa(p=1)": ("sa", 1, None), "dqva(p=1,nu=3)": ("dqva", 1, 3)}


def _trial(**overrides):
    record = dict(graph_id="g", variant="sa(p=1)", optimum=3, best_size=3, ratio=1.0,
                  mixer_histogram={2: 4, 3: 2})
    sets = overrides.pop("sets", [(1, 0, 1, 0, 1, 0), (0, 1, 0, 0, 1, 0)])
    record.update(overrides)
    return [(GRAPH, SimpleNamespace(**record), sets)]


def test_max_independent_size_by_enumeration():
    assert checks.max_independent_size(6, GRAPH.edges) == 3
    assert checks.max_independent_size(4, []) == 4
    assert checks.max_independent_size(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]) == 1


def test_trials_accept_consistent_outputs():
    assert checks.check_trials(_trial(), VARIANTS) == []
    dqva = _trial(variant="dqva(p=1,nu=3)", mixer_histogram={2: 1, 3: 1})
    assert checks.check_trials(dqva, VARIANTS) == []


@pytest.mark.parametrize("wrong", [
    {"optimum": 4, "ratio": 0.75},                                 # optimum differs from enumeration
    {"sets": [(1, 1, 0, 0, 0, 0)], "best_size": 2, "ratio": 2 / 3},  # not independent
    {"best_size": 2, "ratio": 2 / 3},                              # best_size != best reported set
    {"ratio": 0.9},                                                # ratio != best/optimum
    {"mixer_histogram": {2: 6}},                                   # histogram != degrees
    {"sets": []},                                                  # nothing captured
])
def test_trials_reject_wrong_outputs(wrong):
    assert checks.check_trials(_trial(**wrong), VARIANTS)


def test_dqva_histogram_rejects_more_live_mixers_than_nu():
    dqva = _trial(variant="dqva(p=1,nu=3)", mixer_histogram={2: 4})
    assert checks.check_trials(dqva, VARIANTS)


@pytest.mark.parametrize("variant", ["sa", "ma"])
def test_reference_statevector_matches_the_circuit_path(variant):
    rng = np.random.default_rng(3)
    params = tuple(rng.uniform(0, np.pi, qaoa.param_count(variant, 2, GRAPH.n)))
    circuit = qaoa.build_ansatz(GRAPH, qaoa.AnsatzSpec(variant, 2, params))
    state = sim.apply_circuit(sim.Statevector.zero(GRAPH.n), circuit)
    want = qaoa.objective_expectation(state, GRAPH)
    psi = checks.ansatz_state(GRAPH.n, GRAPH.edges, variant, 2, params)
    got = float((np.abs(psi) ** 2 * np.indices((2,) * GRAPH.n).sum(axis=0)).sum())
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("variant", ["sa", "ma"])
def test_single_round_check(variant):
    res = qaoa.optimize_single_round(GRAPH, variant, 1, seed=5)
    assert checks.check_single_round(GRAPH.n, GRAPH.edges, variant, 1, res) == []
    for wrong in ({"value": res.value + 1e-8},
                  {"params": res.params + 0.01},
                  {"max_infeasible": 1e-6}):
        bad = SimpleNamespace(**{**vars(res), **wrong})
        assert checks.check_single_round(GRAPH.n, GRAPH.edges, variant, 1, bad)


def _table3():
    return {(n, f, b): v for n, row in checks.TABLE3.items()
            for (f, b), v in zip(checks.TABLE3_COLUMNS, row)}


def test_table3_check():
    built = _table3()
    assert checks.check_table3(built) == []
    built[(7, "s2_3", "one")] += 1
    assert checks.check_table3(built)
    del built[(7, "s2_3", "one")]
    assert checks.check_table3(built)


def _table4():
    return {key + (n,): tuple(a * n + b for a, b in rows)
            for key, rows in checks.TABLE4.items() for n in checks.TABLE4_SIZES}


def test_table4_check():
    tuples = _table4()
    assert checks.check_table4(tuples) == []
    key = ("s2_2", "one", "rx", 100)
    shifted = {**tuples, key: tuple(v + 40 for v in tuples[key])}
    assert checks.check_table4(shifted)         # outside the table tuple
    sloped = {**tuples, key: (tuples[key][0] + 1,) + tuples[key][1:]}
    assert checks.check_table4(sloped)          # within the tuple, slope off


def test_histogram_check():
    good = [(GRAPH, 1, None, {2: 4, 3: 2}), (GRAPH, 2, [0, 1], {3: 2, 2: 2})]
    assert checks.check_histograms(good) == []
    assert checks.check_histograms([(GRAPH, 1, None, {2: 6})])
    assert checks.check_histograms([])


def _sweep(shape=lambda m: m):
    return [{"m": m, "s2_2/one": 10 * shape(m), "s2_3/one": 4 * shape(m),
             "s2_2/n": 7 * shape(m), "s2_3/n": 2 * shape(m), "s3_2/none": 6 * shape(m)}
            for m in (40, 80, 160, 320, 640)]


def test_sweep_check():
    assert checks.check_sweep(_sweep(), "ok") == []
    assert checks.check_sweep(_sweep(lambda m: m * m), "quadratic")
    rows = _sweep()
    rows[2]["s2_3/n"] = rows[2]["s3_2/none"]
    assert checks.check_sweep(rows, "not lowest")


def test_oracle_check():
    assert checks.check_oracle([CheckResult("a", True, 1e-12)]) == []
    assert checks.check_oracle([CheckResult("a", True, 0.0), CheckResult("b", False, 0.3)])
    assert checks.check_oracle([])


def _zeroed(n=4, family="s2_3", theta=0.7):
    return decompose(mcrx(list(range(n)), n, theta), GateSetSpec(family), AncillaBudget("one"))


def _drop(circuit, index):
    gates = circuit.gates[:index] + circuit.gates[index + 1:]
    return Circuit(circuit.dim, circuit.width, gates, circuit.ancilla)


def test_oracle_not_vacuous_check():
    intact = _zeroed()
    corrupted = _drop(intact, len(intact.gates) // 2)
    ideal = mcrx(list(range(4)), 4, 0.7)
    args = (intact, corrupted, ideal, 5)
    assert checks.check_oracle_not_vacuous(verify.restricted_deviation, *args) == []
    assert checks.check_oracle_not_vacuous(lambda *a: 0.0, *args)


def test_kron_check():
    c = _zeroed(3, "s2_2")
    ideal = mcrx(list(range(3)), 3, 0.7)
    assert checks.check_kron(c, ideal, 4, sim.circuit_unitary(c)) == []
    broken = _drop(c, 1)
    assert checks.check_kron(broken, ideal, 4, sim.circuit_unitary(broken))
    assert checks.check_kron(c, ideal, 4, sim.circuit_unitary(broken))


def test_absent_function_is_reported_not_raised():
    tracer = layers.Tracer()
    assert not tracer.probe("qaoa:NoSuchEngine.expectation", "x")
    assert not tracer.probe("nosuchmodule:f", "x")
    assert tracer.absent == ["qaoa:NoSuchEngine.expectation", "nosuchmodule:f"]


def test_probes_count_and_restore():
    original = driver.run_trial
    tracer = layers.Tracer()
    layers.install_probes(tracer)
    try:
        qaoa.optimize_single_round(GRAPH, "sa", 1, seed=1)
    finally:
        tracer.uninstall()
    assert driver.run_trial is original
    out = layers.per_layer_metrics(tracer, 1)
    assert out["optimize.maximize_calls"]["value"] == 1
    assert out["qaoa.expectation_calls"]["value"] == out["optimize.evals"]["value"] > 0
    assert out["qaoa.engine_dim"]["value"] == 2**GRAPH.n
    assert 0 < out["optimize.maximize_self_s"]["value"] < tracer.total("optimize.maximize")


def test_gauge_scales_to_the_reference_speed_and_restores_the_handler():
    import signal

    import gauge

    g = gauge.Gauge()
    g.readings = [gauge.REF_S, gauge.REF_S, 2 * gauge.REF_S, 2 * gauge.REF_S]
    assert g.scale() == pytest.approx(2 / 3)
    assert g.scale(2) == pytest.approx(0.5)
    before = signal.getsignal(signal.SIGALRM)
    g = gauge.Gauge()
    g.start()
    try:
        t0, w0 = g.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 5 * gauge.INTERVAL_S:
            pass
    finally:
        g.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(g.readings) >= 3 and g.spent > 0
    assert g.clock() - t0 == pytest.approx(time.perf_counter() - w0 - g.spent, abs=0.01)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == \
        [(name, unit) for name, unit, _ in layers.PER_LAYER]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "resources", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH[section]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "qaoa-desk",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
