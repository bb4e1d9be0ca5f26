import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcdecomp.cli import main
from mcdecomp.driver import (
    VariantSpec, entangling_totals, mixer_histogram, run_trial, trial_mixer_histogram,
)
from mcdecomp.graphs import brute_force_mis, erdos_renyi
from mcdecomp.ir import BURNABLE, Circuit, Graph
from mcdecomp.qaoa import dqva_outer_loop

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args):
    return main(args)


def test_decompose_writes_circuit_and_summary(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run_cli(["decompose", "--controls", "5", "--gateset", "s2_2",
                    "--ancilla", "one,zeroed", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "entangling: 72" in err
    payload = json.loads(out.read_text())
    assert payload["schema"] == "mcdecomp/1"
    c = Circuit.from_json(json.dumps(payload["circuit"]))
    assert c.width == 7


def test_decompose_single_control(capsys):
    assert run_cli(["decompose", "--controls", "1", "--gateset", "s2_3"]) == 0
    assert "entangling: 2" in capsys.readouterr().err


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_decompose_rejects_a_non_finite_angle(tmp_path, capsys, angle):
    out = tmp_path / "c.json"
    assert_one_line_error(capsys, run_cli(["decompose", "--controls", "3", "--gateset", "s2_2",
                                           f"--angle={angle}", "--out", str(out)]))
    assert not out.exists()


def test_decompose_qutrit_rejected(capsys):
    assert run_cli(["decompose", "--controls", "3", "--gateset", "s3_2"]) == 2
    assert "counts only" in capsys.readouterr().err


def test_thresholds_fourth_column(capsys):
    assert run_cli(["thresholds", "--f1", "0.9999", "--f2", "0.999"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# schema: mcdecomp/1")
    values = [float(line.split(",")[-1]) for line in out.strip().splitlines()[2:]]
    want = [99.78, 99.56, 99.34, 99.12, 98.91, 98.69]
    assert all(abs(a - b) < 0.05 for a, b in zip(values, want))


def test_gdc_direct_zero_for_unit_fidelity(tmp_path):
    out = tmp_path / "g.json"
    code = run_cli(["gdc", "--counts", "2:100,3:7", "--fidelities", "2:1.0,3:1.0",
                    "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["gdc_natural_log"] == 0.0


def test_count_table3_long_format(capsys):
    assert run_cli(["count", "--table", "table3", "--max-n", "5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[1] == "n,gateset,budget,count"
    cells = {tuple(r.split(",")[:3]): r.split(",")[3] for r in rows[2:]}
    assert cells[("5", "s2_2", "one")] == "72"
    assert cells[("5", "s2_3", "one")] == "16"
    assert cells[("5", "s3_2", "none")] == "26"


def test_count_sweep_shape(capsys):
    assert run_cli(["count", "--sweep", "m=40..160", "--density", "6",
                    "--variant", "dqva", "--seed", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split(",")[0] for r in rows[2:]] == ["40", "80", "160"]


def _k4(tmp_path):
    graph = tmp_path / "k4.json"
    graph.write_text(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).to_json())
    return graph


def test_qaoa_sa_parameter_count(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli(["qaoa", "--variant", "sa", "--p", "10", "--graph", str(_k4(tmp_path)),
                    "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "parameters: 20" in capsys.readouterr().err
    rec = json.loads(out.read_text())
    assert rec["param_count"] == 20
    assert rec["best_size"] <= rec["optimum"] == 1


def test_qaoa_dqva_on_empty_graph(tmp_path):
    graph = tmp_path / "e6.json"
    graph.write_text(Graph.from_edges(6, []).to_json())
    out = tmp_path / "r.json"
    code = run_cli(["qaoa", "--variant", "dqva", "--nu", "6", "--graph", str(graph),
                    "--seed", "1", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["ratio"] == 1.0


def test_qaoa_dqva_single_parameter_traverses_empty_graph(tmp_path):
    graph = tmp_path / "e10.json"
    graph.write_text(Graph.from_edges(10, []).to_json())
    out = tmp_path / "r.json"
    code = run_cli(["qaoa", "--variant", "dqva", "--nu", "1", "--graph", str(graph),
                    "--seed", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["ratio"] == 1.0


def test_verify_small(capsys):
    assert run_cli(["verify", "--max-controls", "3", "--angles", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS decompose(s2_3,one,burnable,mcrx,n=3)" in out


def test_verify_rejects_large_width(capsys):
    assert run_cli(["verify", "--max-controls", "7"]) == 2


def test_verify_rejects_an_empty_suite(capsys):
    assert run_cli(["verify", "--max-controls", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "-1"), ("--angles", "0")])
def test_verify_rejects_bad_tolerance_and_angle_count(capsys, flag, value):
    # exit 3 would say a route failed; these inputs are invalid, not failed checks
    assert run_cli(["verify", "--max-controls", "2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "checks passed" not in captured.out


def test_bench_preset_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "ensemble": "erdos_renyi", "nodes": 5, "edge_prob": 0.5, "density": None,
        "degree": 3, "graph_count": 2, "repetitions": 1, "seed": 1,
        "mixer_rounds": 1, "max_evals": 200, "tol": 1e-3,
        "variants": [{"variant": "ma", "p": 1, "nu": None}],
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = run_cli(["bench", "--config", str(tmp_path / "cfg.json"),
                    "--out-prefix", str(tmp_path / "run")])
    assert code == 0
    trials = (tmp_path / "run_trials.csv").read_text().splitlines()
    assert trials[0] == "# schema: mcdecomp/1"
    agg = json.loads((tmp_path / "run_aggregate.json").read_text())
    assert "ma(p=1)" in agg["aggregate"]


def assert_one_line_error(capsys, code):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _limit_memory():
    # a regression that loops while growing a list must fail, not exhaust the host
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("sweep", ["m=0..10", "m=-4..10", "m=10..5", "m=40", "m=a..b", "m=1..2..4",
                                   "m=40..80 --nu abc"])
def test_count_sweep_rejects_bad_range_without_hanging(sweep):
    # each message names the form expected: m=LO..HI, or for --nu an integer or m/2
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "mcdecomp.cli", "count", "--sweep", *sweep.split()],
                         capture_output=True, text=True, timeout=30, env=env,
                         preexec_fn=_limit_memory)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr
    assert ("m/2" if "--nu" in sweep else "m=LO..HI") in out.stderr


def _qaoa_on_edgeless_28(tmp_path, variant):
    """``qaoa`` on an edgeless 28-node graph (2^28 independent sets, past the
    cap) in a subprocess under a 2 GiB address-space limit."""
    graph = tmp_path / "e28.json"
    graph.write_text(Graph.from_edges(28, []).to_json())
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "mcdecomp.cli", "qaoa", "--variant", *variant,
                           "--graph", str(graph), "--out", str(tmp_path / "q.json")],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_limit_memory)


def test_qaoa_rejects_an_oversized_subspace(tmp_path):
    out = _qaoa_on_edgeless_28(tmp_path, ["sa"])
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "independent sets" in out.stderr


def test_qaoa_dqva_runs_past_the_subspace_cap(tmp_path):
    # each DQVA round reaches at most 2^nu sets, whatever the graph holds
    out = _qaoa_on_edgeless_28(tmp_path, ["dqva", "--nu", "2"])
    assert out.returncode == 0, out.stderr
    record = json.loads((tmp_path / "q.json").read_text())
    assert record["ratio"] == 1.0 and record["best_size"] == 28


def test_cli_import_leaves_scipy_out():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", "import sys, mcdecomp.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         capture_output=True, text=True, timeout=60, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_gdc_counts_without_fidelities(capsys):
    assert_one_line_error(capsys, run_cli(["gdc", "--counts", "2:300"]))


@pytest.mark.parametrize("content", [
    None, '{"nodes": 3}', "[1, 2]",
    '{"nodes": "a", "edges": []}', '{"nodes": 2.5, "edges": []}', '{"nodes": 2, "edges": 5}',
    '{"nodes": 2, "edges": [[0, "1"]]}', '{"nodes": 2, "edges": [[0, 1.5]]}',
    '{"nodes": true, "edges": []}', '{"nodes": -1, "edges": []}',
])
def test_qaoa_unreadable_graph_file(tmp_path, capsys, content):
    graph = tmp_path / "graph.json"
    if content is not None:
        graph.write_text(content)
    assert_one_line_error(capsys, run_cli(["qaoa", "--variant", "sa", "--graph", str(graph)]))


@pytest.mark.parametrize("bound", [["--f-max", "1.5"], ["--f-min", "nan"], ["--f-min", "0"]])
def test_gdc_sweep_rejects_fidelities_outside_the_unit_interval(tmp_path, capsys, bound):
    code = run_cli(["gdc", "--nodes", "10", *bound, "--out", str(tmp_path / "gdc.csv")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: ") and "must be in (0, 1]" in err


@pytest.mark.parametrize("argv,needle", [
    (["--nodes", "3", "--density", "0", "--f-max", "1.5", "--f-steps", "2", "--graphs", "1"],
     "must be in (0, 1]"),
    (["--counts", "2:0", "--fidelities", "2:1.5"], "must be in (0, 1]"),
    (["--counts", "2:1.5", "--fidelities", "2:0.9"], "--counts"),
    (["--counts", "2:1,2", "--fidelities", "2:0.9"], "--counts"),
    (["--counts", "2:1", "--fidelities", "2:0.9,3"], "--fidelities"),
])
def test_gdc_rejects_bad_counts_and_unused_fidelities(capsys, argv, needle):
    assert run_cli(["gdc", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_gdc_sweep_at_unit_fidelity_costs_zero(tmp_path):
    out = tmp_path / "gdc.csv"
    assert run_cli(["gdc", "--nodes", "10", "--f-max", "1", "--out", str(out)]) == 0
    costs = [line.split(",")[-1] for line in out.read_text().splitlines()[2:]]
    assert all(not c.startswith("-") for c in costs)
    assert costs[-1] == "0.000000"


def test_bench_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert_one_line_error(capsys, run_cli(["bench", "--config", str(missing)]))


def test_qaoa_dqva_histogram_counts_live_mixers(tmp_path):
    graph = tmp_path / "er10.json"
    graph.write_text(erdos_renyi(10, 4.5, seed=1).to_json())
    out = tmp_path / "r.json"
    code = run_cli(["qaoa", "--variant", "dqva", "--nu", "5", "--graph", str(graph),
                    "--seed", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["mixer_histogram"] == {"4": 2, "5": 1, "6": 1}


def test_qaoa_exits_4_when_one_dqva_round_stops_on_the_budget(tmp_path, capsys):
    graph = tmp_path / "er10.json"
    graph.write_text(erdos_renyi(10, 4.5, seed=1).to_json())
    code = run_cli(["qaoa", "--variant", "dqva", "--nu", "5", "--graph", str(graph),
                    "--seed", "3", "--max-evals", "30", "--out", str(tmp_path / "r.json")])
    assert code == 4
    assert "budget" in capsys.readouterr().err


def test_dqva_sweep_counts_the_trial_live_mixers(monkeypatch):
    import mcdecomp.cli as cli

    seen = []

    def capture(graph, layers, nodes=None):
        hist = mixer_histogram(graph, layers, nodes)
        seen.append((graph, hist))
        return hist

    monkeypatch.setattr(cli, "mixer_histogram", capture)
    rows = cli.sweep_counts([40], 6.0, "dqva", 1, "m/2", seed=90, graphs_per_size=1)
    (graph, hist), = seen
    assert graph == erdos_renyi(40, 6.0, seed=90 + 1000 * 40)
    want = trial_mixer_histogram(graph, VariantSpec("dqva", 1, 20))
    assert hist == want
    assert rows == [{"m": 40, **entangling_totals(want, BURNABLE)}]


def test_qaoa_record_is_the_bench_trial_record(tmp_path):
    graph = erdos_renyi(8, 3.0, seed=2)
    path = tmp_path / "er8.json"
    path.write_text(graph.to_json())
    out = tmp_path / "r.json"
    assert run_cli(["qaoa", "--variant", "ma", "--graph", str(path), "--seed", "4",
                    "--restarts", "2", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    want = run_trial(graph, VariantSpec("ma", 1), 4, brute_force_mis(graph)[0],
                     graph_id=str(path), repetitions=2)
    assert rec == {"schema": "mcdecomp/1", **json.loads(json.dumps(want.to_dict()))}
    assert rec["variant"] == "ma(p=1)" and "p" not in rec
    assert len(rec["params"]) == rec["param_count"] == 9
    assert sum(rec["best_set"]) == rec["best_size"]


def test_qaoa_restarts_apply_to_dqva(tmp_path, monkeypatch):
    import mcdecomp.driver as driver

    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return dqva_outer_loop(*args, **kwargs)

    monkeypatch.setattr(driver, "dqva_outer_loop", counting)
    out = tmp_path / "r.json"
    assert run_cli(["qaoa", "--variant", "dqva", "--nu", "2", "--graph", str(_k4(tmp_path)),
                    "--restarts", "3", "--out", str(out)]) == 0
    assert len(calls) == 3
    rec = json.loads(out.read_text())
    assert rec["params"] is None and rec["param_count"] == 2


@pytest.mark.parametrize("argv", [
    ["--variant", "sa", "--restarts", "0"],
    ["--variant", "sa", "--p", "0"],
    ["--variant", "dqva", "--nu", "0"],
    ["--variant", "dqva", "--nu", "6"],  # 4 nodes, p=1: 5 slots
    ["--variant", "ma", "--max-evals", "0"],
    ["--variant", "ma", "--max-evals", "-3"],
])
def test_qaoa_rejects_empty_experiments(tmp_path, capsys, argv):
    assert_one_line_error(capsys, run_cli(["qaoa", "--graph", str(_k4(tmp_path)), *argv]))


def _bench_config(tmp_path, **over):
    cfg = {"nodes": 5, "edge_prob": 0.5, "graph_count": 1, "repetitions": 1,
           "mixer_rounds": 1, "max_evals": 50, "variants": [{"variant": "sa"}]}
    cfg.update(over)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["bench", "--config", str(path), "--out-prefix", str(tmp_path / "run")]


@pytest.mark.parametrize("over", [
    {"variants": [{"variant": "dqva", "p": 1}]},        # dqva without nu
    {"variants": [{"variant": "sa", "depth": 1}]},      # unknown variant key
    {"graphs": 3},                                      # unknown config key
    {"variants": [{"variant": "sa", "p": 0}]},
    {"variants": [{"variant": "ma", "p": -1}]},
    {"variants": []},
    {"graph_count": 0},
    {"repetitions": 0},
    {"variants": ["sa"]},
    {"max_evals": 0},
    {"max_evals": -3},
    {"variants": [{"variant": "sa", "p": "1"}]},
    {"variants": [{"variant": "dqva", "nu": 2.5}]},
    {"variants": [{"variant": "dqva", "nu": 7}]},        # 5 nodes, p=1: 6 slots
    {"graph_count": 1.5},
    {"repetitions": True},
    {"edge_prob": "0.5"},
    {"tol": [1e-4]},
    {"variants": 5},
    {"mixer_rounds": 0},
    {"tol": -1},
])
def test_bench_rejects_bad_config(tmp_path, capsys, over):
    assert_one_line_error(capsys, run_cli(_bench_config(tmp_path, **over)))


def test_bench_config_without_variants_runs_the_default(tmp_path):
    assert run_cli(_bench_config(tmp_path, variants=None)) == 0
    agg = json.loads((tmp_path / "run_aggregate.json").read_text())
    assert agg["aggregate"]["sa(p=1)"]["trials"] == 1


@pytest.mark.parametrize("argv", [
    ["count", "--table", "table3", "--max-n", "0"],
    ["gdc", "--nodes", "10", "--f-steps", "0"],
    ["gdc", "--nodes", "10", "--graphs", "0"],
    ["count", "--sweep", "m=40..80", "--p", "0"],
    ["gdc", "--nodes", "20", "--p", "0", "--f-steps", "2"],
])
def test_empty_outputs_are_rejected(capsys, argv):
    assert_one_line_error(capsys, run_cli(argv))
