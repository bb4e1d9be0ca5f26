import numpy as np
import pytest

import mcdecomp.driver as driver
import mcdecomp.qaoa as qaoa
from mcdecomp.driver import (
    BenchmarkConfig,
    DriverError,
    VariantSpec,
    aggregate,
    entangling_totals,
    mixer_histogram,
    run_benchmark,
    run_trial,
)
from mcdecomp.graphs import brute_force_mis, erdos_renyi, random_regular
from mcdecomp.ir import Graph
from mcdecomp.metrics import exact_count_zeroed
from mcdecomp.optimize import OptResult, maximize
from mcdecomp.qaoa import (
    AnsatzEngine, AnsatzError, IndependentSets, dqva_execution, dqva_outer_loop, param_count,
    single_round_execution,
)


def test_maximize_quadratic():
    res = maximize(lambda v: -((v[0] - 2.0) ** 2), np.array([0.0]))
    assert abs(res.x[0] - 2.0) < 1e-3


def test_maximize_constant_terminates_quickly():
    res = maximize(lambda v: 1.5, np.zeros(3), tol=1e-4)
    assert res.value == 1.5
    assert res.evals <= 3 + 2


def test_maximize_budget_flag():
    rng = np.random.default_rng(0)
    res = maximize(lambda v: float(np.sum(np.sin(v))), rng.uniform(0, 1, 4), max_evals=10)
    assert res.evals <= 15
    assert not res.converged


@pytest.mark.parametrize("max_evals", [0, -3])
def test_maximize_rejects_a_nonpositive_budget(max_evals):
    with pytest.raises(ValueError, match="max_evals"):
        maximize(lambda v: float(np.sum(v)), np.ones(2), max_evals=max_evals)


def _scipy_maximize(objective, x0, max_evals):
    """The reference for ``maximize``: its plateau probe written out, then
    ``scipy.optimize.minimize`` on the negated objective from the probe's
    simplex, under the budget the ``optimize.search`` docstring states."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    simplex = [x0]
    for i in range(len(x0)):
        pt = x0.copy()
        pt[i] = pt[i] * 1.05 if pt[i] != 0 else 0.00025
        simplex.append(pt)
    values = [objective(pt) for pt in simplex]
    if max(values) - min(values) <= 1e-4:
        return OptResult(x0, values[0], len(values), True)
    budget = max_evals if max_evals is not None else 500 * len(x0)
    res = minimize(lambda v: -objective(v), x0, method="Nelder-Mead",
                   options={"maxfev": max(1, budget - len(values)), "fatol": 1e-4,
                            "xatol": 1e-4, "initial_simplex": np.array(simplex)})
    return OptResult(res.x, -res.fun, res.nfev + len(values), bool(res.success))


@pytest.mark.parametrize("variant,step", [("sa", None), ("ma", None), ("ma", 0.02)])
def test_maximize_follows_scipy_nelder_mead(variant, step):
    # Desk objectives (n=10, density 4.5), and one rounded to multiples of
    # ``step`` so that vertices tie and the unstable sort picks the path.
    # Budgets up to N+1 stop inside the simplex's first evaluation; SA
    # budgets between about 60 and 140 stop some runs part-way through a
    # shrink. Everything must match bit for bit. The port follows scipy
    # 1.17 and was checked against 1.17.1; older releases are not checked.
    pytest.importorskip("scipy", minversion="1.17")
    budgets = [None, *range(1, 140 if variant == "sa" else 60, 3)]
    for gi in range(3):
        engine = AnsatzEngine(IndependentSets(erdos_renyi(10, 4.5, seed=gi)), variant, 1)
        objective = engine.expectation_live
        if step is not None:
            objective = lambda v, e=engine.expectation_live: round(e(v) / step) * step
        x0 = np.random.default_rng(gi).uniform(0.0, np.pi, engine.live_param_count)
        for budget in budgets:
            got = maximize(objective, x0, max_evals=budget)
            want = _scipy_maximize(objective, x0, budget)
            assert got.x.tobytes() == want.x.tobytes(), (gi, budget)
            assert (got.value, got.evals, got.converged) == \
                (want.value, want.evals, want.converged), (gi, budget)


@pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan")])
def test_maximize_rejects_a_negative_or_nan_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        maximize(lambda v: float(np.sum(v)), np.ones(2), tol=tol)


def test_mixer_histogram_3_regular():
    g = random_regular(20, 3, seed=1)
    assert mixer_histogram(g, 1) == {3: 20}
    assert mixer_histogram(g, 10) == {3: 200}


def test_entangling_totals_cross_check():
    g = random_regular(20, 3, seed=2)
    hist = mixer_histogram(g, 1)
    totals = entangling_totals(hist)
    assert totals["s2_3/n"] == 20 * exact_count_zeroed(3, "s2_3", "n")
    assert totals["s2_2/one"] == 20 * exact_count_zeroed(3, "s2_2", "one")


def _tiny_config(**over):
    base = dict(
        ensemble="erdos_renyi",
        nodes=6,
        edge_prob=0.5,
        graph_count=3,
        variants=[VariantSpec("ma", 1), VariantSpec("dqva", 1, 3)],
        repetitions=2,
        seed=5,
        mixer_rounds=2,
        max_evals=400,
    )
    base.update(over)
    return BenchmarkConfig(**base)


def test_benchmark_deterministic():
    a = [r.to_dict() for r in run_benchmark(_tiny_config())]
    b = [r.to_dict() for r in run_benchmark(_tiny_config())]
    assert a == b
    c = [r.to_dict() for r in run_benchmark(_tiny_config(seed=6))]
    assert a != c


def test_benchmark_runs_serially_only():
    with pytest.raises(DriverError):
        list(run_benchmark(_tiny_config(), jobs=2))


def test_benchmark_record_invariants():
    cfg = _tiny_config()
    specs = {spec.label: spec for spec in cfg.variants}
    records = list(run_benchmark(cfg))
    assert records
    for r in records:
        spec = specs[r.variant]
        want = spec.nu if spec.variant == "dqva" else param_count(spec.variant, spec.p, cfg.nodes)
        assert r.param_count == want
        assert 0 < r.ratio <= 1.0
        assert r.best_size <= r.optimum
        assert (r.ratio == 1.0) == (r.best_size == r.optimum)
        assert r.rounds >= 1
        assert r.entangling == entangling_totals(r.mixer_histogram)
        assert isinstance(r.converged, bool)
        assert 0.0 <= r.max_infeasible < 1e-9
        assert len(r.best_set) == cfg.nodes and sum(r.best_set) == r.best_size
        if spec.variant == "dqva":
            assert r.params is None
        else:
            assert len(r.params) == want and all(type(v) is float for v in r.params)
        d = r.to_dict()
        assert d["converged"] == r.converged and d["max_infeasible"] == r.max_infeasible


def test_record_flags_an_unconverged_execution():
    # a 5-eval budget stops every MA optimization before it converges
    records = list(run_benchmark(_tiny_config(variants=[VariantSpec("ma", 1)], max_evals=5)))
    assert records and not any(r.converged for r in records)


# (graph_id, variant, evals, best_size, rounds) of the desk recipe, 4 graphs, seed 0.
# Any change to the engine's arithmetic or to the optimizer's path moves these.
PINNED_DESK_RECORDS = [
    ("erdos_renyi-10-0", "sa(p=1)", 115, 5, 1),
    ("erdos_renyi-10-0", "ma(p=1)", 1101, 5, 1),
    ("erdos_renyi-10-0", "dqva(p=1,nu=5)", 588, 5, 8),
    ("erdos_renyi-10-1", "sa(p=1)", 109, 4, 1),
    ("erdos_renyi-10-1", "ma(p=1)", 455, 4, 1),
    ("erdos_renyi-10-1", "dqva(p=1,nu=5)", 577, 4, 7),
    ("erdos_renyi-10-2", "sa(p=1)", 62, 3, 1),
    ("erdos_renyi-10-2", "ma(p=1)", 378, 3, 1),
    ("erdos_renyi-10-2", "dqva(p=1,nu=5)", 623, 4, 7),
    ("erdos_renyi-10-3", "sa(p=1)", 102, 4, 1),
    ("erdos_renyi-10-3", "ma(p=1)", 714, 4, 1),
    ("erdos_renyi-10-3", "dqva(p=1,nu=5)", 188, 2, 6),
]


def test_desk_recipe_records_are_pinned():
    cfg = BenchmarkConfig(
        ensemble="erdos_renyi", nodes=10, edge_prob=0.5, graph_count=4,
        variants=[VariantSpec("sa", 1), VariantSpec("ma", 1), VariantSpec("dqva", 1, 5)],
        repetitions=1, seed=0,
    )
    got = [(r.graph_id, r.variant, r.evals, r.best_size, r.rounds) for r in run_benchmark(cfg)]
    assert got == PINNED_DESK_RECORDS


# The same for sparse n=16 graphs, 3 graphs, seed 0; each holds more than
# ``LOCKSTEP_MAX_DIM`` independent sets, so these trials take the serial path.
PINNED_SPARSE_RECORDS = [
    ("erdos_renyi-16-0", "sa(p=1)", 101, 8, 1),
    ("erdos_renyi-16-0", "dqva(p=1,nu=5)", 791, 6, 9),
    ("erdos_renyi-16-1", "sa(p=1)", 128, 7, 1),
    ("erdos_renyi-16-1", "dqva(p=1,nu=5)", 967, 7, 9),
    ("erdos_renyi-16-2", "sa(p=1)", 104, 9, 1),
    ("erdos_renyi-16-2", "dqva(p=1,nu=5)", 766, 7, 10),
]
# The records' ``params`` as ``float.hex``; None for DQVA.
PINNED_SPARSE_PARAMS = [
    ["0x1.921fb5926716cp+0", "0x1.1e9bf2b7dc932p+1"], None,
    ["0x1.921fb570f66e2p+0", "0x1.8047a513d45bbp+1"], None,
    ["0x1.921fb56ed9fdap+0", "0x1.c570b6e8ad5d9p-2"], None,
]


def test_sparse_recipe_records_are_pinned():
    cfg = BenchmarkConfig(
        ensemble="erdos_renyi", nodes=16, density=3.0, graph_count=3,
        variants=[VariantSpec("sa", 1), VariantSpec("dqva", 1, 5)],
        repetitions=1, seed=0,
    )
    graphs = [driver._make_graph(cfg, s) for s in np.random.SeedSequence(0).spawn(3)]
    assert min(len(qaoa.independent_set_indices(g)) for g in graphs) > driver.LOCKSTEP_MAX_DIM
    records = list(run_benchmark(cfg))
    got = [(r.graph_id, r.variant, r.evals, r.best_size, r.rounds) for r in records]
    assert got == PINNED_SPARSE_RECORDS
    params = [None if r.params is None else [float(v).hex() for v in r.params] for r in records]
    assert params == PINNED_SPARSE_PARAMS


def _serial_records(cfg):
    """The reference for ``run_benchmark``: one plain ``run_trial`` per trial."""
    for gi, graph_seed in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.graph_count)):
        graph = driver._make_graph(cfg, graph_seed)
        optimum, _ = brute_force_mis(graph)
        if optimum == 0:
            continue
        for vi, spec in enumerate(cfg.variants):
            seed = np.random.SeedSequence((cfg.seed, gi, vi)).generate_state(1)[0]
            yield run_trial(graph, spec, seed, optimum, graph_id=f"{cfg.ensemble}-{cfg.nodes}-{gi}",
                            repetitions=cfg.repetitions, mixer_rounds=cfg.mixer_rounds,
                            max_evals=cfg.max_evals, tol=cfg.tol)


@pytest.mark.parametrize("max_dim,width", [(512, 256), (40, 3)])
@pytest.mark.parametrize("max_evals", [None, 5])
def test_lockstep_records_equal_serial_trials(monkeypatch, max_dim, width, max_evals):
    # Graph 2 is replaced by an empty graph (optimum 0), which is skipped.
    # With a cutoff of 40 amplitudes some graphs run serially, and a width
    # of 3 makes the batch top up from the executions not yet started and
    # DQVA's next inner rounds join part-way; a budget of 5 cuts every search.
    make_graph = driver._make_graph

    def with_an_empty_graph(cfg, seed):
        return Graph.from_edges(0, []) if seed.spawn_key == (2,) else make_graph(cfg, seed)

    monkeypatch.setattr(driver, "_make_graph", with_an_empty_graph)
    cfg = BenchmarkConfig(
        ensemble="erdos_renyi", nodes=8, edge_prob=0.4, graph_count=5,
        variants=[VariantSpec("sa", 1), VariantSpec("ma", 1), VariantSpec("dqva", 1, 3),
                  VariantSpec("ma", 2), VariantSpec("dqva", 2, 4)],
        repetitions=2, seed=3, mixer_rounds=2, max_evals=max_evals,
    )
    want = [repr(r.to_dict()) for r in _serial_records(cfg)]
    monkeypatch.setattr(driver, "LOCKSTEP_MAX_DIM", max_dim)
    monkeypatch.setattr(driver, "LOCKSTEP_WIDTH", width)
    got = [repr(r.to_dict()) for r in run_benchmark(cfg)]
    assert len(want) == 4 * 5
    assert got == want


def test_replay_rejects_a_start_point_that_differs_in_one_bit():
    graph = erdos_renyi(8, 3.0, seed=1)
    optimum, _ = brute_force_mis(graph)
    spec = VariantSpec("ma", 1)
    sub = driver._execution_seeds(11, 1)[0]
    engine, x0 = next(single_round_execution(IndependentSets(graph), "ma", 1, sub))
    result = maximize(engine.expectation_live, x0)

    def trial(recorded):
        return run_trial(graph, spec, 11, optimum, graph_id="g", repetitions=1,
                         optimizer=driver._replay(recorded))

    assert trial([(x0, result)]).params == [float(v) for v in result.x]
    off = x0.copy()
    off[3] = np.nextafter(off[3], 4.0)
    with pytest.raises(DriverError, match="start point"):
        trial([(off, result)])
    with pytest.raises(DriverError, match="start point"):
        trial([])


def test_replay_rejects_a_dqva_inner_start_that_differs_in_one_bit():
    graph = erdos_renyi(8, 3.0, seed=1)
    optimum, _ = brute_force_mis(graph)
    spec = VariantSpec("dqva", 2, 4)
    sub = driver._execution_seeds(11, 1)[0]
    [recorded] = driver._lockstep([dqva_execution(IndependentSets(graph), 4, sub, 2, 2)],
                                  None, 1e-4)
    assert len(recorded) >= 3

    def trial(recorded, optimizer=None):
        return run_trial(graph, spec, 11, optimum, graph_id="g", repetitions=1, mixer_rounds=2,
                         optimizer=optimizer or driver._replay(recorded))

    assert trial(recorded).to_dict() == trial(None, optimizer=maximize).to_dict()
    x0, result = recorded[2]
    off = x0.copy()
    off[0] = np.nextafter(off[0], 4.0)
    with pytest.raises(DriverError, match="start point"):
        trial(recorded[:2] + [(off, result)] + recorded[3:])


@pytest.mark.parametrize("over", [{"mixer_rounds": 0}, {"mixer_rounds": -2}, {"tol": -1.0},
                                  {"tol": float("nan")}])
def test_config_rejects_empty_rounds_and_bad_tol(over):
    with pytest.raises(DriverError, match=next(iter(over))):
        _tiny_config(**over)


def test_dqva_outer_loop_rejects_empty_rounds(monkeypatch):
    # no rounds, no live parameter per round, or more than the layout holds:
    # each raises before any engine is built, and the execution raises when it is made
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(qaoa, "AnsatzEngine", no_engine)
    graph = erdos_renyi(6, 2.0, seed=0)
    for over in ({"mixer_rounds": 0}, {"nu": 0}, {"nu": 8}):  # 6 nodes, p=1: 7 slots
        args = {"nu": 2, "seed": 0, "mixer_rounds": 2, **over}
        with pytest.raises(AnsatzError, match=next(iter(over))):
            dqva_outer_loop(graph, **args)
        with pytest.raises(AnsatzError, match=next(iter(over))):
            dqva_execution(IndependentSets(graph), **args)


def test_empty_edge_ensemble_all_optimal():
    cfg = _tiny_config(ensemble="erdos_renyi", nodes=6, edge_prob=None, density=0.0,
                       variants=[VariantSpec("ma", 1)])
    for r in run_benchmark(cfg):
        assert r.ratio == 1.0


def test_aggregate_shape():
    records = list(run_benchmark(_tiny_config()))
    agg = aggregate(records)
    for variant, stats in agg.items():
        assert 0 < stats["mean_ratio"] <= 1.0
        assert stats["min_ratio"] <= stats["mean_ratio"] <= stats["max_ratio"]
        assert stats["trials"] == 3


def test_config_json_round_trip():
    cfg = _tiny_config()
    again = BenchmarkConfig.from_json(cfg.to_json())
    assert again == cfg
