import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mcdecomp.optimize import _SHRINK, OptResult, SearchGroup, maximize, search
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


@pytest.mark.parametrize("x0", [[0.3, np.nan], [np.inf, 0.2], [-np.inf], [[0.1, 0.2], [0.3, 0.4]],
                                [], np.zeros((0, 2))],
                         ids=["nan", "inf", "-inf", "2-d", "empty", "empty-2-d"])
def test_a_bad_start_raises_before_any_point(x0):
    def objective(v):
        raise AssertionError("a point was asked for")

    with pytest.raises(ValueError, match="x0"):
        search(x0)
    with pytest.raises(ValueError, match="x0"):
        maximize(objective, x0)
    group = SearchGroup(2)
    with pytest.raises(ValueError, match="x0"):
        group.add([np.ones(2), x0], ["good", "bad"])
    assert len(group) == 0


def test_a_group_rejects_a_start_of_another_dimension():
    group = SearchGroup(3)
    with pytest.raises(ValueError, match="3 coordinates"):
        group.add([np.ones(2)], ["row"])
    assert len(group) == 0


def test_row_argsort_keeps_the_serial_tie_order():
    # ``SearchGroup`` sorts its simplices with ``argsort(axis=1)`` and must
    # reorder tied vertices exactly as the serial 1-D ``argsort`` does.
    rng = np.random.default_rng(0)
    for width in range(2, 14):
        values = rng.integers(0, 4, size=(3000, width)).astype(float)
        values[values == 3] = np.inf
        values[::7] = 0.5  # every vertex tied
        values[1::7, :2] = np.inf  # tied infinities in front
        got = values.argsort(axis=1)
        for row, order in zip(values, got):
            assert order.tolist() == row.argsort().tolist(), row


def _test_objective(n, seed, kind):
    """A cheap objective on R^n: smooth, rounded to a grid of 0.05 or 0.5 (so
    that vertices tie), capped at a flat plateau, or constant."""
    rng = np.random.default_rng(seed)
    a, c = rng.normal(size=n), rng.uniform(0.5, 2.0, n)

    def smooth(x):
        return float(np.sin(c * x + a).sum())

    return {
        "smooth": smooth,
        "grid": lambda x: round(smooth(x) / 0.05) * 0.05,
        "coarse": lambda x: round(smooth(x) / 0.5) * 0.5,
        "plateau": lambda x: min(smooth(x), 0.25 * n),
        "flat": lambda x: 0.75,
    }[kind]


def _drive_group(group, starts, joins, objectives):
    """Step ``group`` until every start has finished; start k joins at step
    ``joins[k]``, and finished rows are dropped every seventh step."""
    results, step = {}, 0
    while len(results) < len(starts):
        joining = [k for k in range(len(starts)) if joins[k] == step]
        if joining:
            group.add([starts[k] for k in joining], joining)
        if step % 7 == 3:
            group.drop_finished()
        values = [objectives[k](x) for k, x in zip(group.tags, group.points)]
        for k, result in group.tell(values):
            assert k not in results
            results[k] = result
        step += 1
    return results


def _shrink_budget(n, objective, x0):
    """A budget that cuts the search from ``x0`` inside a shrink, after its
    first move, or None if the search never shrinks."""
    group = SearchGroup(n)
    group.add([x0], [0])
    while len(group):
        if not group.tell([objective(group.points[0])]):
            row = group._rows[0]
            if row.phase == _SHRINK and row.k >= 2:
                # the budget with one call too few for this vertex
                return row.calls + n
        else:
            group.drop_finished()
    return None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), budget=st.sampled_from(["none", "small", "shrink"]),
       rows=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["smooth", "grid", "coarse",
                                                                      "plateau", "flat"]),
                               st.integers(0, 2**16), st.sampled_from([0.0, 0.3, 1.0])),
                     min_size=1, max_size=5),
       small=st.integers(0, 1000))
def test_search_group_rows_equal_serial_searches(n, budget, rows, small):
    objectives, starts, joins = [], [], []
    for join, kind, seed, zero_share in rows:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.0, np.pi, n)
        x0[rng.random(n) < zero_share] = 0.0
        objectives.append(_test_objective(n, seed, kind))
        starts.append(x0)
        joins.append(join)
    max_evals = None
    if budget == "small":
        max_evals = 1 + small % (n + 3)
    elif budget == "shrink":
        max_evals = next((b for k in range(len(starts))
                          if (b := _shrink_budget(n, objectives[k], starts[k])) is not None),
                         None)
    got = _drive_group(SearchGroup(n, max_evals), starts, joins, objectives)
    for k, (objective, x0) in enumerate(zip(objectives, starts)):
        want = maximize(objective, x0, max_evals=max_evals)
        assert got[k].x.tobytes() == want.x.tobytes(), k
        assert np.float64(got[k].value).tobytes() == np.float64(want.value).tobytes(), k
        assert (got[k].evals, got[k].converged) == (want.evals, want.converged), k


def test_search_group_stops_on_a_probe_spread_of_exactly_tol():
    # Every probe vertex raises the sum, so the probe reads 0 and then tol.
    objective = lambda x: 1e-4 * float(x.sum() > 1.5)
    x0 = np.array([0.5, 1.0, 0.0])
    got = _drive_group(SearchGroup(3), [x0], [0], [objective])[0]
    assert (got.x is x0, got.value, got.evals, got.converged) == (True, 0.0, 4, True)
    want = maximize(objective, x0)
    assert (want.x is x0, want.value, want.evals, want.converged) == (True, 0.0, 4, True)


@pytest.mark.parametrize("n", [2, 5, 11])
def test_search_group_follows_a_search_cut_inside_a_shrink(n):
    # The shrink budgets the property test draws, checked to exist: a grid
    # objective shrinks, and the cut leaves the moved vertex its old value.
    objective = _test_objective(n, 3, "grid")
    x0 = np.random.default_rng(n).uniform(0.0, np.pi, n)
    budget = _shrink_budget(n, objective, x0)
    assert budget is not None
    got = _drive_group(SearchGroup(n, budget), [x0], [0], [objective])[0]
    want = maximize(objective, x0, max_evals=budget)
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.value, got.evals, got.converged) == (want.value, want.evals, False)


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
@pytest.mark.parametrize("max_evals", [None, 5, 40, 90])
def test_lockstep_records_equal_serial_trials(monkeypatch, max_dim, width, max_evals):
    # Graph 2 is replaced by an empty graph (optimum 0), which is skipped.
    # With a cutoff of 40 amplitudes some graphs run serially, and a width
    # of 3 makes the batch top up from the executions not yet started and
    # DQVA's next inner rounds join part-way; a budget of 5 cuts every search
    # inside its first simplex, and budgets of 40 and 90 cut searches inside
    # reflections and shrinks.
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
