from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdecomp.graphs import brute_force_mis, erdos_renyi
from mcdecomp.ir import NEG0, Graph
from mcdecomp.optimize import maximize
from mcdecomp.qaoa import (
    DQVA,
    MA,
    SA,
    VARIANTS,
    AnsatzEngine,
    AnsatzError,
    AnsatzSpec,
    EngineBatch,
    _readout,
    best_measured_set,
    build_ansatz,
    dqva_default_mask,
    dqva_execution,
    dqva_outer_loop,
    independent_set_indices,
    infeasible_probability,
    objective_expectation,
    param_count,
    partial_mixer,
    phase_separator,
    round_slots,
    validate_spec,
)
from mcdecomp.sim import (
    Statevector, apply_circuit, bits_to_index, circuit_unitary, phase_aligned_deviation,
)

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
PATH5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def mixer_projector_unitary(graph, node, beta):
    """I + (Rx(2 beta) - I) (x) |0..0><0..0| on the neighbors."""
    n = graph.n
    dim = 2**n
    u = np.eye(dim, dtype=complex)
    nbrs = graph.neighbors(node)
    c, s = np.cos(beta), np.sin(beta)
    rxm = np.array([[c, -1j * s], [-1j * s, c]])
    tbit = 1 << (n - 1 - node)
    for b in range(dim):
        if any((b >> (n - 1 - v)) & 1 for v in nbrs):
            continue
        if b & tbit:
            continue
        b1 = b | tbit
        u[b, b] = rxm[0, 0]
        u[b, b1] = rxm[0, 1]
        u[b1, b] = rxm[1, 0]
        u[b1, b1] = rxm[1, 1]
    return u


def scatter(engine, probs):
    """Subspace probabilities placed into the full 2^n register."""
    full = np.zeros(2**engine.n)
    full[engine.basis] = probs
    return full


def live_values(params, mask):
    """The live values of a full-layout parameter vector: the slots ``mask``
    marks, or every slot without a mask."""
    params = np.asarray(params)
    return params if mask is None else params[np.asarray(mask, dtype=bool)]


def last_gamma_zero(spec, n):
    """``spec`` with the last round's gamma at 0.  The engine runs no last
    phase layer, so its probabilities are those of this circuit's state."""
    params = list(spec.params)
    params[round_slots(spec.variant, spec.p, n)[-1][1]] = 0.0
    return replace(spec, params=tuple(params))


def circuit_probabilities(graph, spec):
    """|amplitude|^2 of the circuit path's state at the last gamma = 0."""
    circuit = build_ansatz(graph, last_gamma_zero(spec, graph.n))
    return np.abs(apply_circuit(Statevector.zero(graph.n), circuit).amplitudes) ** 2


def independent_bitstrings(graph):
    n = graph.n
    return [b for b in range(2**n)
            if graph.is_independent([(b >> (n - 1 - i)) & 1 for i in range(n)])]


def test_isolated_node_mixer_is_bare_rx():
    g = Graph.from_edges(2, [])
    c = partial_mixer(g, 0, 0.7)
    assert len(c.gates) == 1 and c.gates[0].kind == "rx"


def test_mixer_gate_inventory():
    c = partial_mixer(STAR, 0, 0.7)
    kinds = [g.kind for g in c.gates]
    mcxs = [g for g in c.gates if g.kind == "mcx"]
    assert len(mcxs) == 2
    # the three neighbors are open controls on both MCXs, with no X flips around them
    assert all(len(g.controls) == 3 and all(pol == NEG0 for _, pol in g.controls) for g in mcxs)
    assert "x" not in kinds
    assert sum(1 for k in kinds if k in ("rz", "ry")) == 4


def test_mixer_matches_projector_formula_exactly():
    # the circuit at angle 2*beta equals I + (exp(-i beta X) - I) B, raw
    for beta in (0.3, 1.1, -0.8):
        u = circuit_unitary(partial_mixer(PATH5, 2, 2 * beta))
        ideal = mixer_projector_unitary(PATH5, 2, beta)
        assert np.max(np.abs(u - ideal)) < 1e-12


def test_mixer_blocked_by_occupied_neighbor():
    s = Statevector.basis(5, (0, 1, 0, 0, 0))  # neighbor of node 2 occupied
    out = apply_circuit(s, partial_mixer(PATH5, 2, 1.3))
    assert abs(abs(out.amplitudes[s.amplitudes.argmax()]) - 1) < 1e-12


def test_phase_separator_identity_and_diagonal():
    c = phase_separator(PATH5, 0.0)
    u = circuit_unitary(c)
    assert phase_aligned_deviation(u, np.eye(32)) < 1e-12
    u = circuit_unitary(phase_separator(PATH5, 0.9))
    assert np.max(np.abs(u - np.diag(np.diag(u)))) < 1e-12


def test_phase_separator_single_node_relative_phase():
    g = Graph.from_edges(1, [])
    u = circuit_unitary(phase_separator(g, np.pi))
    ratio = u[1, 1] / u[0, 0]
    assert abs(ratio - np.exp(1j * np.pi)) < 1e-12


def test_param_counts():
    assert param_count(SA, 10, 20) == 20
    assert param_count(MA, 1, 20) == 21
    spec = AnsatzSpec(SA, p=10, params=tuple(np.zeros(20)))
    validate_spec(Graph.from_edges(20, []), spec)
    with pytest.raises(AnsatzError):
        validate_spec(PATH5, AnsatzSpec(SA, p=2, params=(0.1,) * 3))


def test_warm_start_must_be_independent():
    with pytest.raises(AnsatzError):
        validate_spec(PATH5, AnsatzSpec(DQVA, warm_start=(1, 1, 0, 0, 0)))
    for bad in ((1, 1, 0, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 1, 0)):
        with pytest.raises(AnsatzError, match="warm start"):
            AnsatzEngine(PATH5, DQVA, 1, warm_start=bad)
    AnsatzEngine(PATH5, DQVA, 1, warm_start=(1, 0, 1, 0, 1))


def test_dqva_all_masked_is_warm_start_only():
    n = PATH5.n
    mask = (False,) * (n + 1)
    spec = AnsatzSpec(DQVA, p=1, params=(0.5,) * (n + 1), mask=mask,
                      warm_start=(1, 0, 1, 0, 1))
    c = build_ansatz(PATH5, spec)
    assert all(g.kind == "x" for g in c.gates)
    assert len(c.gates) == 3


def test_masked_and_zero_mixers_are_exact_noops():
    n = PATH5.n
    rng = np.random.default_rng(0)
    params = list(rng.uniform(0, np.pi, n + 1))
    params[2] = 0.0  # zero-angle mixer on node 2
    spec_zero = AnsatzSpec(MA, p=1, params=tuple(params))
    mask = [True] * (n + 1)
    mask[2] = False
    spec_masked = AnsatzSpec(DQVA, p=1, params=tuple(params), mask=tuple(mask))
    s0 = Statevector.zero(n)
    a = apply_circuit(s0, build_ansatz(PATH5, spec_zero)).amplitudes
    b = apply_circuit(s0, build_ansatz(PATH5, spec_masked)).amplitudes
    assert np.array_equal(a, b)


def test_sa_is_parameter_tied_ma():
    rng = np.random.default_rng(1)
    beta, gamma = rng.uniform(0, np.pi, 2)
    n = PATH5.n
    sa = AnsatzSpec(SA, p=1, params=(beta, gamma))
    ma = AnsatzSpec(MA, p=1, params=tuple([beta] * n + [gamma]))
    a = apply_circuit(Statevector.zero(n), build_ansatz(PATH5, sa)).amplitudes
    b = apply_circuit(Statevector.zero(n), build_ansatz(PATH5, ma)).amplitudes
    assert np.max(np.abs(a - b)) < 1e-12


def test_distant_mixers_commute_adjacent_do_not():
    # nodes 0 and 4 of the path share no edge or neighbor: order irrelevant
    b0, b4 = 0.7, 1.2
    u1 = circuit_unitary(partial_mixer(PATH5, 0, b0)) @ circuit_unitary(partial_mixer(PATH5, 4, b4))
    u2 = circuit_unitary(partial_mixer(PATH5, 4, b4)) @ circuit_unitary(partial_mixer(PATH5, 0, b0))
    assert np.max(np.abs(u1 - u2)) < 1e-12
    # adjacent nodes 0 and 1 do not commute in general
    v1 = circuit_unitary(partial_mixer(PATH5, 0, b0)) @ circuit_unitary(partial_mixer(PATH5, 1, b4))
    v2 = circuit_unitary(partial_mixer(PATH5, 1, b4)) @ circuit_unitary(partial_mixer(PATH5, 0, b0))
    assert np.max(np.abs(v1 - v2)) > 1e-3


def test_objective_examples():
    g = Graph.from_edges(3, [])
    assert objective_expectation(Statevector.zero(3), g) == 0.0
    two = Graph.from_edges(2, [])
    plus = np.full(4, 0.5, dtype=complex)
    assert abs(objective_expectation(Statevector(plus, 2), two) - 1.0) < 1e-12
    s = Statevector.basis(3, (1, 0, 1))
    assert abs(objective_expectation(s, g) - 2.0) < 1e-12


def test_objective_matches_brute_force_density():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    s = Statevector(amps, 5)
    brute = sum(
        abs(amps[b]) ** 2 * bin(b).count("1") for b in range(32)
    )
    assert abs(objective_expectation(s, PATH5) - brute) < 1e-10


def test_feasibility_preserved_from_any_feasible_start():
    rng = np.random.default_rng(7)
    for start in [(0, 0, 0, 0, 0), (1, 0, 1, 0, 1), (0, 1, 0, 0, 1)]:
        params = tuple(rng.uniform(0, np.pi, PATH5.n + 1))
        spec = AnsatzSpec(MA, p=1, params=params, warm_start=start)
        out = apply_circuit(Statevector.basis(5, start), build_ansatz(PATH5, AnsatzSpec(MA, p=1, params=params)))
        # apply to the warm start directly
        out = apply_circuit(Statevector.basis(5, start), build_ansatz(PATH5, AnsatzSpec(MA, p=1, params=params)))
        assert infeasible_probability(out.amplitudes, PATH5) < 1e-9


def test_engine_matches_circuit_path():
    rng = np.random.default_rng(11)
    for variant, p in ((SA, 2), (MA, 1)):
        params = tuple(rng.uniform(-np.pi, np.pi, param_count(variant, p, PATH5.n)))
        spec = AnsatzSpec(variant, p=p, params=params)
        eng = AnsatzEngine(PATH5, variant, p)
        fast = scatter(eng, eng.probabilities(np.asarray(params)))
        assert np.max(np.abs(fast - circuit_probabilities(PATH5, spec))) < 1e-11


def test_engine_matches_circuit_dqva():
    rng = np.random.default_rng(12)
    n = PATH5.n
    sigma = (3, 0, 4, 1, 2)
    mask = dqva_default_mask(1, n, 4, sigma)
    params = tuple(rng.uniform(-np.pi, np.pi, n + 1))
    warm = (1, 0, 0, 0, 1)
    spec = AnsatzSpec(DQVA, p=1, params=params, permutation=sigma, mask=mask,
                      warm_start=warm, nu=4)
    validate_spec(PATH5, spec)
    eng = AnsatzEngine(PATH5, DQVA, 1, sigma, mask, warm)
    fast = scatter(eng, eng.probabilities(live_values(params, mask)))
    assert np.max(np.abs(fast - circuit_probabilities(PATH5, spec))) < 1e-11


@pytest.mark.parametrize("graph, count", [
    (PATH5, 13), (K4, 5), (Graph.from_edges(6, []), 64),
])
def test_engine_basis_small_graphs(graph, count):
    basis = AnsatzEngine(graph, SA).basis
    assert len(basis) == count
    assert basis.tolist() == independent_bitstrings(graph)


def test_engine_basis_is_the_independent_bitstrings():
    graphs = [erdos_renyi(n, d, seed=seed)
              for seed, (n, d) in enumerate([(7, 2.0), (9, 3.0), (10, 4.5), (11, 2.5), (12, 3.0)])]
    # no node (the empty set alone), no edge (all 2^15 sets), every edge
    graphs += [Graph.from_edges(0, []), Graph.from_edges(15, []),
               Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])]
    for graph in graphs:
        assert AnsatzEngine(graph, MA).basis.tolist() == independent_bitstrings(graph)
        assert independent_set_indices(graph).tolist() == independent_bitstrings(graph)


def test_independent_sets_are_capped(monkeypatch):
    import mcdecomp.qaoa as qaoa

    # the cap passes the sampled degree-3 graph on 28 nodes with the most sets (3.0M)
    assert len(independent_set_indices(erdos_renyi(28, 3.0, seed=202))) == 3013056
    with pytest.raises(AnsatzError, match="independent sets"):
        independent_set_indices(Graph.from_edges(28, []))
    # raised before the sets pass the cap: 2^5 sets pass a cap of 32, 2^6 do
    # not, for the enumeration and for an engine that reaches every set
    monkeypatch.setattr(qaoa, "MAX_INDEPENDENT_SETS", 32)
    assert len(independent_set_indices(Graph.from_edges(5, []))) == 32
    assert len(AnsatzEngine(Graph.from_edges(5, []), SA).basis) == 32
    for build in (independent_set_indices, lambda g: AnsatzEngine(g, MA)):
        with pytest.raises(AnsatzError, match="more than 32 independent sets"):
            build(Graph.from_edges(6, []))
    # a dynamic engine with five live mixers reaches 2^5 of the 2^6 sets
    mask = (True,) * 5 + (False, False)
    assert len(AnsatzEngine(Graph.from_edges(6, []), DQVA, 1, mask=mask).basis) == 32


def test_engine_memory_per_set():
    # an SA engine on 189 392 sets: the state's arrays, not the walk's
    # temporaries, must set the peak
    import tracemalloc

    graph = erdos_renyi(24, 3.0, seed=202)
    tracemalloc.start()
    try:
        engine = AnsatzEngine(graph, SA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(engine.basis) == 189392
    assert peak / len(engine.basis) < 250


def seeded_engine_cases():
    """Seeded ER graphs n <= 10 with SA p=2, MA p=1 and masked warm-start DQVA."""
    for seed, (n, d) in enumerate([(6, 2.0), (8, 3.0), (10, 4.5)]):
        graph = erdos_renyi(n, d, seed=100 + seed)
        rng = np.random.default_rng(seed)
        for variant, p in ((SA, 2), (MA, 1)):
            params = tuple(rng.uniform(-np.pi, np.pi, param_count(variant, p, n)))
            yield graph, AnsatzSpec(variant, p=p, params=params)
        _, witness = brute_force_mis(graph)
        warm = tuple(witness[:n // 2]) + (0,) * (n - n // 2)
        sigma = tuple(int(v) for v in rng.permutation(n))
        nu = n // 2 + 1
        mask = dqva_default_mask(1, n, nu, sigma, in_set=warm)
        params = tuple(rng.uniform(-np.pi, np.pi, n + 1))
        yield graph, AnsatzSpec(DQVA, p=1, params=params, permutation=sigma, mask=mask,
                                warm_start=warm, nu=nu)


def test_engine_matches_circuit_on_seeded_graphs():
    for graph, spec in seeded_engine_cases():
        n = graph.n
        circ = apply_circuit(Statevector.zero(n), build_ansatz(graph, spec)).amplitudes
        eng = AnsatzEngine(graph, spec.variant, spec.p, spec.permutation,
                           spec.mask, spec.warm_start)
        x = live_values(spec.params, spec.mask)
        probs = eng.probabilities(x)
        assert np.max(np.abs(scatter(eng, probs) - circuit_probabilities(graph, spec))) < 1e-11
        assert abs(np.sqrt(probs.sum()) - 1.0) < 1e-12
        # the circuit's state at the full parameters, last gamma included
        want = objective_expectation(Statevector(circ, n), graph)
        assert abs(eng.expectation(x) - want) < 1e-11


@st.composite
def engine_cases(draw):
    """A random graph on n <= 7 nodes and an ansatz spec for it.

    Every variant at p in {1, 2} under a random mixer order, with angles that
    are sometimes exactly zero; the dynamic variant also gets a random mask
    and a warm start drawn from the graph's independent sets.
    """
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = Graph.from_edges(n, edges)
    variant = draw(st.sampled_from(VARIANTS))
    p = draw(st.integers(1, 2))
    k = param_count(variant, p, n)
    angle = st.one_of(st.just(0.0), st.floats(-np.pi, np.pi))
    params = tuple(draw(st.lists(angle, min_size=k, max_size=k)))
    sigma = tuple(draw(st.permutations(range(n))))
    mask = warm = None
    if variant == DQVA:
        mask = tuple(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
        start = draw(st.sampled_from(independent_set_indices(graph).tolist()))
        warm = tuple((start >> (n - 1 - i)) & 1 for i in range(n))
    return graph, AnsatzSpec(variant, p=p, params=params, permutation=sigma, mask=mask,
                             warm_start=warm)


@settings(max_examples=150, deadline=None)
@given(engine_cases())
def test_engine_matches_circuit_path_on_random_graphs(case):
    graph, spec = case
    validate_spec(graph, spec)
    eng = AnsatzEngine(graph, spec.variant, spec.p, spec.permutation,
                       spec.mask, spec.warm_start)
    fast = scatter(eng, eng.probabilities(live_values(spec.params, spec.mask)))
    assert np.max(np.abs(fast - circuit_probabilities(graph, spec))) < 1e-11


def _batch_engines():
    """SA/MA engines at p=1 and p=2 on different graphs: desk graphs, a
    sparse one with isolated nodes, an edgeless one and a single node."""
    graphs = [erdos_renyi(10, 4.5, seed=s) for s in range(8)]
    graphs += [erdos_renyi(9, 1.0, seed=3), Graph.from_edges(6, []), Graph.from_edges(1, [])]
    assert any(not graphs[-3].neighbors(v) for v in range(9))
    return [AnsatzEngine(g, variant, p)
            for g in graphs for variant in (SA, MA) for p in (1, 2)]


def _batch_points(engines, rng):
    """Uniform angles, with exact 0 and pi on some coordinates and all-zero points."""
    points = []
    for k, engine in enumerate(engines):
        x = rng.uniform(0.0, np.pi, engine.live_param_count)
        if k % 3 == 0:
            x[rng.integers(len(x))] = 0.0
        if k % 4 == 1:
            x[rng.integers(len(x))] = np.pi
        if k % 7 == 2:
            x[:] = 0.0
        points.append(x)
    return points


def _assert_batch_matches(engines, points):
    got = EngineBatch(engines).expectations(np.concatenate(points))
    assert len(got) == len(engines)
    for value, engine, x in zip(got, engines, points):
        assert np.float64(value).tobytes() == np.float64(engine.expectation(x)).tobytes()


@pytest.mark.parametrize("size", [1, 2, 3, 7, 16, 41, 100])
def test_engine_batch_is_bitwise_the_single_calls(size):
    rng = np.random.default_rng(size)
    pool = _batch_engines()
    engines = [pool[i] for i in rng.choice(len(pool), size=size)]
    _assert_batch_matches(engines, _batch_points(engines, rng))


def test_engine_batch_past_numpy_temporary_reuse_size():
    # numpy may compute a binary operator in place in a temporary of 256 KiB
    # or more, with the operands swapped; the joined state here holds more
    # than 16 Ki complex amplitudes, so the kernel must not rely on operators.
    rng = np.random.default_rng(7)
    pool = _batch_engines()
    engines = [pool[i] for i in rng.choice(len(pool), size=400)]
    assert sum(len(e.basis) for e in engines) > 2**14
    _assert_batch_matches(engines, _batch_points(engines, rng))


@pytest.mark.parametrize("variant,p", [(SA, 3), (MA, 2)])
def test_engine_past_numpy_temporary_reuse_size(variant, p):
    # An edgeless 15-node graph has 2^15 independent sets, so every mixer
    # gathers and the phase layer multiplies 512 KiB temporaries, where an
    # operator may compute in place with the operands swapped.  The engine
    # must round as a one-engine batch does.  From p=2 on the amplitudes are
    # general complex numbers, and the operator form changed the last bit of
    # some of these values.
    engine = AnsatzEngine(Graph.from_edges(15, []), variant, p)
    assert len(engine.basis) == 2**15
    batch = EngineBatch([engine])
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(0.0, np.pi, engine.live_param_count)
        got = batch.expectations(x)[0]
        assert np.float64(got).tobytes() == np.float64(engine.expectation(x)).tobytes()


def test_a_p1_engine_joins_a_deeper_batch_after_its_own_calls():
    # A p=1 engine builds _quarter, _levels and _level_of only when a deeper
    # batch first reads them, after its own calls; the deeper engine comes
    # after it, so its tables sit at offsets that the p=1 engine's set.
    graph = erdos_renyi(9, 3.0, seed=4)
    _, witness = brute_force_mis(graph)
    warm, sigma = witness[:4] + (0,) * 5, tuple(range(9))
    shallow = [AnsatzEngine(graph, SA, 1),
               AnsatzEngine(graph, DQVA, 1, sigma, dqva_default_mask(1, 9, 4, sigma, warm), warm)]
    rng = np.random.default_rng(5)
    points = _batch_points(shallow, rng)
    alone = [engine.expectation(x) for engine, x in zip(shallow, points)]
    _assert_batch_matches(shallow, points)
    tables = ("_quarter", "_levels", "_level_of")
    assert not any(name in vars(e) for e in shallow for name in tables)
    deep = AnsatzEngine(graph, MA, 2)
    points.append(rng.uniform(0.0, np.pi, deep.live_param_count))
    got = EngineBatch(shallow + [deep]).expectations(np.concatenate(points))
    assert all(name in vars(e) for e in shallow for name in tables)
    for value, want in zip(got, alone + [deep.expectation(points[-1])]):
        assert np.float64(value).tobytes() == np.float64(want).tobytes()


def test_engine_batch_handles_masks_and_warm_starts():
    rng = np.random.default_rng(3)
    engines = []
    for seed in range(6):
        graph = erdos_renyi(9, 3.0, seed=seed)
        _, witness = brute_force_mis(graph)
        sigma = tuple(int(v) for v in rng.permutation(9))
        for p, nu, warm in ((1, 1, (0,) * 9), (2, 3, witness), (2, 6, (0,) * 9)):
            engines.append(AnsatzEngine(graph, DQVA, p, sigma,
                                        dqva_default_mask(p, 9, nu, sigma, warm), warm))
        engines.append(AnsatzEngine(graph, MA, 2))
    _assert_batch_matches(engines, _batch_points(engines, rng))


def test_engine_pairs_stack_each_rotation_with_its_partner():
    # every kept pair of MA p=2, and of DQVA from a warm start that holds a
    # live node, couples a set without the node to the set with it.  A
    # first-round pair is (reached, new): the reached side holds the node as
    # the start does and the new side is it with the node flipped, and each
    # set is new at most once.  A later pair is stacked in idx, both reached.
    warm = (1, 0, 0, 1, 0)
    for engine in (AnsatzEngine(PATH5, MA, 2),
                   AnsatzEngine(PATH5, DQVA, 2, (3, 0, 4, 1, 2), (True,) * 12, warm)):
        slots = round_slots(engine.variant, engine.p, PATH5.n)
        start = int(engine.basis[engine._start])
        (first, _), *later = engine._rounds
        for reached, new, slot in first:
            [node] = [v for v in engine.sigma if slots[0][0][v] == slot]
            bit = 1 << (PATH5.n - 1 - node)
            assert np.all(engine.basis[reached] & bit == start & bit)
            assert np.array_equal(engine.basis[new], engine.basis[reached] ^ bit)
        news = np.concatenate([new for _, new, _ in first] + [[engine._start]])
        assert len(np.unique(news)) == len(news)
        for (kept, _), (mixers, _) in zip(later, slots[1:]):
            for idx, swp, slot in kept:
                [node] = [v for v in engine.sigma if mixers[v] == slot]
                bit = 1 << (PATH5.n - 1 - node)
                half = len(idx) // 2
                assert np.array_equal(swp, np.concatenate((idx[half:], idx[:half])))
                assert not np.any(engine.basis[idx[:half]] & bit)
                assert np.array_equal(engine.basis[idx[half:]], engine.basis[idx[:half]] | bit)
                assert len(np.unique(idx)) == len(idx)
    assert engine.basis[engine._start] == bits_to_index(warm)


def test_engine_rejects_dependent_warm_start():
    with pytest.raises(AnsatzError):
        AnsatzEngine(PATH5, DQVA, 1, warm_start=(1, 1, 0, 0, 0))


@pytest.mark.parametrize("variant, layout", [
    (SA, dict(permutation=(0, 0, 1))),
    (SA, dict(permutation=(0, 1, 2, -1))),
    (SA, dict(permutation=(0, 1, 2, 7))),
    (DQVA, dict(mask=(True,) * 9)),
    (DQVA, dict(mask=(True, True))),
    (MA, dict(mask=(True,) * 5)),
    (DQVA, dict(warm_start=(0, 1))),
    (DQVA, dict(warm_start=(0, 0, 0, 2))),
], ids=["repeated-node", "negative-node", "node-out-of-range", "long-mask", "short-mask",
        "mask-without-dqva", "short-warm-start", "warm-start-not-bits"])
def test_engine_rejects_a_bad_layout(variant, layout):
    # the 4-node path: 5 parameter slots at p=1 for the dynamic variant
    with pytest.raises(AnsatzError):
        AnsatzEngine(PATH4, variant, 1, **layout)


@pytest.mark.parametrize("variant, mask, x", [
    (SA, None, [0.3]),
    (SA, None, [0.1, 0.2, 0.3]),
    (SA, None, 0.3),
    (SA, None, [[0.1, 0.2]]),
    (DQVA, (True, False, True, False, True), [0.1, 0.0, 0.2, 0.0, 0.3]),
], ids=["short", "long", "scalar", "two-dimensional", "full-layout-of-a-mask"])
def test_engine_rejects_a_wrong_length_parameter_vector(variant, mask, x):
    # the engine reads the live values alone: 2 for SA p=1, 3 for this mask
    engine = AnsatzEngine(PATH4, variant, 1, mask=mask)
    for call in (engine.probabilities, engine.expectation):
        with pytest.raises(AnsatzError, match="live parameters"):
            call(x)
    batch = EngineBatch([engine, engine])
    for joined in (np.zeros(2 * engine.live_param_count - 1), np.zeros(2 * engine.live_param_count + 1)):
        with pytest.raises(AnsatzError, match="joined live parameters"):
            batch.expectations(joined)


def full_subspace_probabilities(graph, variant, p, sigma, mask, warm_start, full_params):
    """The reference for ``AnsatzEngine.probabilities``, over every
    independent set: every pair of every live mixer with a nonzero angle,
    exp(i gamma w) taken per amplitude in every round but the last, and
    re*re + im*im.  Returns the probabilities and the weights."""
    n = graph.n
    basis = independent_set_indices(graph)
    weights = np.array([bin(int(b)).count("1") for b in basis], dtype=float)
    amps = np.zeros(len(basis), dtype=complex)
    amps[np.searchsorted(basis, bits_to_index(warm_start))] = 1.0
    params = np.asarray(full_params)
    c = np.cos(params).tolist()
    js = (1j * np.sin(params)).tolist()
    mul, sub = np.multiply, np.subtract
    for r, (mixers, phase) in enumerate(round_slots(variant, p, n)):
        for node in sigma:
            slot = mixers[node]
            if (mask is None or mask[slot]) and params[slot] != 0.0:
                bit = 1 << (n - 1 - node)
                block = bit | sum(1 << (n - 1 - u) for u in graph.neighbors(node))
                sel0 = np.flatnonzero((basis & block) == 0)
                sel1 = np.searchsorted(basis, basis[sel0] | bit)
                idx, swp = np.concatenate((sel0, sel1)), np.concatenate((sel1, sel0))
                amps[idx] = sub(mul(c[slot], amps[idx]), mul(js[slot], amps[swp]))
        if (mask is None or mask[phase]) and params[phase] != 0.0 and r < p - 1:
            amps = mul(amps, np.exp(mul(1j * params[phase], weights)))
    return np.add(mul(amps.real, amps.real), mul(amps.imag, amps.imag)), weights


def reach_cases():
    """SA/MA at p = 1..3 from |0...0> and DQVA masks from warm starts, under
    the identity and a random order, on a path, a star and seeded ER graphs
    (one with isolated nodes).  Every node live at p = 1 and 2 from a warm
    start meets a node that a reached set already holds."""
    rng = np.random.default_rng(21)
    graphs = [PATH5, STAR, erdos_renyi(9, 1.0, seed=3), erdos_renyi(10, 4.5, seed=0),
              erdos_renyi(12, 3.0, seed=1)]
    for graph in graphs:
        n = graph.n
        sigmas = [tuple(range(n)), tuple(int(v) for v in rng.permutation(n))]
        for sigma in sigmas:
            for variant in (SA, MA):
                for p in (1, 2, 3):
                    yield graph, variant, p, sigma, None, (0,) * n
        _, witness = brute_force_mis(graph)
        for warm in ((0,) * n, tuple(witness[:n // 2]) + (0,) * (n - n // 2), witness):
            for p, nu in ((1, 1), (1, 3), (2, 4), (2, 2 * n + 2)):
                mask = dqva_default_mask(p, n, nu, sigmas[1], in_set=warm)
                yield graph, DQVA, p, sigmas[1], mask, warm
            mask = tuple(bool(b) for b in rng.integers(0, 2, param_count(DQVA, 2, n)))
            yield graph, DQVA, 2, sigmas[0], mask, warm
            for p in (1, 2):
                yield graph, DQVA, p, sigmas[1], (True,) * param_count(DQVA, p, n), warm


def test_reach_restricted_engine_is_bitwise_the_unrestricted_update():
    rng = np.random.default_rng(5)
    for graph, variant, p, sigma, mask, warm in reach_cases():
        engine = AnsatzEngine(graph, variant, p, sigma, mask, warm)
        size = param_count(variant, p, graph.n)
        points = [rng.uniform(0.0, np.pi, size) for _ in range(3)] + [np.zeros(size)]
        points[1][::2] = 0.0
        points[2][1::3] = np.pi
        full = independent_set_indices(graph)
        at = np.searchsorted(full, engine.basis)
        assert np.array_equal(full[at], engine.basis)
        rest = np.ones(len(full), dtype=bool)
        rest[at] = False
        for x in points:
            want, weights = full_subspace_probabilities(graph, variant, p, sigma, mask, warm, x)
            probs = want[at]
            assert engine.probabilities(live_values(x, mask)).tobytes() == probs.tobytes()
            assert not np.any(want[rest])
            assert np.float64(engine.expectation(live_values(x, mask))).tobytes() == \
                np.add.reduceat(probs * weights[at], [0])[0].tobytes()
    # not vacuous: from |0...0> each first-layer pair reaches one new set,
    # and a second layer reaches none
    first = AnsatzEngine(PATH5, SA, 1)
    [(kept, _)] = first._rounds
    assert sum(len(new) for _, new, _ in kept) == len(first.basis) - 1
    assert np.array_equal(AnsatzEngine(PATH5, MA, 2).basis, first.basis)
    # a warm start that holds a live node reaches the set without it
    engine = AnsatzEngine(PATH5, DQVA, 1, mask=(True,) + (False,) * 5, warm_start=(1, 0, 0, 0, 1))
    assert engine.basis.tolist() == [0b00001, 0b10001]


EXACT_BETAS = (0.0, np.pi / 2, -np.pi / 2, np.pi)


def exact_angle_cases():
    """SA, MA and DQVA at p = 1 and 2 with every slot live, on a path, a star
    and two seeded graphs; DQVA starts from a maximum independent set, so its
    first round meets live nodes the start holds."""
    rng = np.random.default_rng(8)
    for graph in (PATH5, STAR, erdos_renyi(8, 3.0, seed=4), erdos_renyi(10, 4.5, seed=2)):
        n = graph.n
        _, witness = brute_force_mis(graph)
        sigma = tuple(int(v) for v in rng.permutation(n))
        for p in (1, 2):
            yield graph, SA, p, tuple(range(n)), None, (0,) * n
            yield graph, MA, p, sigma, None, (0,) * n
            yield graph, DQVA, p, sigma, (True,) * param_count(DQVA, p, n), witness


def test_engine_is_bitwise_the_unrestricted_update_at_exact_angles():
    # At beta in {0, pi/2, -pi/2, pi} and gamma = 0, cos or sin is 0 or +-1
    # (to the last bit) and amplitudes of either sign of zero appear; the
    # first round's real update must still give the reference's bytes.
    rng = np.random.default_rng(9)
    engines, points = [], []
    for graph, variant, p, sigma, mask, warm in exact_angle_cases():
        engine = AnsatzEngine(graph, variant, p, sigma, mask, warm)
        size = param_count(variant, p, graph.n)
        assert engine.live_param_count == size
        phases = [phase for _, phase in round_slots(variant, p, graph.n)]
        xs = [np.full(size, beta) for beta in EXACT_BETAS]
        xs += [rng.choice(EXACT_BETAS, size) for _ in range(4)]
        full = independent_set_indices(graph)
        at = np.searchsorted(full, engine.basis)
        for x in xs:
            x[phases] = 0.0
            want, _ = full_subspace_probabilities(graph, variant, p, sigma, mask, warm, x)
            assert engine.probabilities(x).tobytes() == want[at].tobytes()
            engines.append(engine)
            points.append(x)
    _assert_batch_matches(engines, points)


def test_last_gamma_moves_no_measured_value():
    # The last phase layer multiplies each amplitude by a number of modulus
    # 1, so the engine runs none: moving the last round's gamma must leave
    # the probabilities, the expectation, the batch's values and the readout
    # bitwise unchanged, while moving the other angles moves the expectation.
    rng = np.random.default_rng(13)
    graph = erdos_renyi(10, 4.5, seed=7000)
    n = graph.n
    _, witness = brute_force_mis(graph)
    warm = tuple(witness[:n // 2]) + (0,) * (n - n // 2)
    sigma = tuple(int(v) for v in rng.permutation(n))
    engines = []
    for p in (1, 2):
        mask = dqva_default_mask(p, n, p + 3, sigma, in_set=warm)
        engines += [AnsatzEngine(graph, SA, p), AnsatzEngine(graph, MA, p, sigma),
                    AnsatzEngine(graph, DQVA, p, sigma, mask, warm)]
    lasts = [live_values(np.arange(param_count(engine.variant, engine.p, n)), engine.mask)
             .tolist().index(round_slots(engine.variant, engine.p, n)[-1][1]) for engine in engines]
    xs = [rng.uniform(0.0, np.pi, engine.live_param_count) for engine in engines]
    for engine, last, x in zip(engines, lasts, xs):
        z = x + 0.7
        z[last] = x[last]
        assert abs(engine.expectation(z) - engine.expectation(x)) > 1e-6
    batch = EngineBatch(engines)
    for shift in (0.7, -2.0, np.pi):
        ys = [x.copy() for x in xs]
        for engine, last, x, y in zip(engines, lasts, xs, ys):
            y[last] += shift
            assert engine.probabilities(x).tobytes() == engine.probabilities(y).tobytes()
            assert np.float64(engine.expectation(x)).tobytes() == \
                np.float64(engine.expectation(y)).tobytes()
            (bits_x, mass_x), (bits_y, mass_y) = _readout(engine, x), _readout(engine, y)
            assert bits_x == bits_y and np.float64(mass_x).tobytes() == np.float64(mass_y).tobytes()
        assert np.array(batch.expectations(np.concatenate(xs))).tobytes() == \
            np.array(batch.expectations(np.concatenate(ys))).tobytes()


@pytest.mark.parametrize("build", [
    lambda g: AnsatzEngine(g, SA),
    independent_set_indices,
    lambda g: dqva_outer_loop(g, nu=5, seed=0),
], ids=["engine", "independent-sets", "dqva-outer-loop"])
def test_subspace_past_63_nodes_raises_ansatz_error(build):
    # a set is an int64 basis index with node i at bit n-1-i
    with pytest.raises(AnsatzError, match="at most 63 nodes"):
        build(erdos_renyi(64, 3.0, seed=1))


def test_dqva_runs_at_63_nodes():
    res = dqva_outer_loop(erdos_renyi(63, 3.0, seed=1), nu=5, seed=0, mixer_rounds=1)
    assert res.best_size >= 1
    assert erdos_renyi(63, 3.0, seed=1).is_independent(res.best_bits)


def test_best_measured_set_prefers_size_then_probability():
    eng = AnsatzEngine(PATH5, SA)
    probs = np.zeros(len(eng.basis))
    pos = {b: i for i, b in enumerate(eng.basis.tolist())}
    probs[pos[0b10000]] = 0.9
    probs[pos[0b10100]] = 0.04
    probs[pos[0b01010]] = 0.06
    assert best_measured_set(probs, eng.basis, 5) == (0, 1, 0, 1, 0)
    # below the floor everywhere: the most probable outcome is reported
    assert best_measured_set(probs * 1e-6, eng.basis, 5) == (1, 0, 0, 0, 0)


@pytest.mark.parametrize("variant, p", [("foo", 1), (SA, 0), (MA, 0), (DQVA, -1)])
def test_engine_rejects_unknown_variant_and_empty_depth(variant, p):
    with pytest.raises(AnsatzError):
        AnsatzEngine(PATH5, variant, p)


def test_dqva_mask_allocation_order():
    mask = dqva_default_mask(2, 3, 3, (2, 0, 1))
    # the two phase slots first, then the first mixer in permutation order
    assert mask[3] and mask[7]
    assert mask[2] and not mask[0] and not mask[1]
    # a single live parameter always goes to a mixer, not a phase
    mask = dqva_default_mask(1, 3, 1, (2, 0, 1))
    assert mask[2] and sum(mask) == 1
    # full budget unmasks everything
    assert all(dqva_default_mask(1, 3, 4, (0, 1, 2)))


def test_dqva_mask_skips_nodes_already_in_set():
    mask = dqva_default_mask(1, 3, 2, (0, 1, 2), in_set=(1, 0, 0))
    assert not mask[0]            # node 0 already in the set
    assert mask[1] and mask[3]    # next free node plus the phase slot


def test_dqva_empty_graph_reaches_everything():
    g = Graph.from_edges(4, [])
    res = dqva_outer_loop(g, nu=4, seed=5, mixer_rounds=2)
    assert res.best_size == 4


def test_dqva_single_live_parameter_still_traverses():
    # dynamic reuse: the one live mixer moves to a fresh node as the set grows
    g = Graph.from_edges(10, [])
    res = dqva_outer_loop(g, nu=1, seed=3)
    assert res.best_size == 10


def test_dqva_complete_graph_single_node():
    res = dqva_outer_loop(K4, nu=2, seed=5, mixer_rounds=2)
    assert res.best_size == 1


def test_dqva_path5_reaches_optimum():
    size, witness = brute_force_mis(PATH5)
    assert size == 3 and witness == (1, 0, 1, 0, 1)
    best = 0
    rng = np.random.default_rng(9)
    for _ in range(10):
        res = dqva_outer_loop(PATH5, nu=3, seed=int(rng.integers(0, 2**31)))
        best = max(best, res.best_size)
        assert res.rounds >= 1
        assert PATH5.is_independent(res.best_bits)
    assert best == 3


def test_dqva_engines_hold_at_most_two_to_the_live_mixers():
    # each inner round's engine reaches at most 2^k sets from its warm start
    # with k live mixers, however many sets the graph has
    graph = erdos_renyi(24, 3.0, seed=1)
    execution = dqva_execution(graph, 5, seed=0)
    engine, x0 = next(execution)
    rounds = 0
    try:
        while True:
            rounds += 1
            slots = round_slots(DQVA, engine.p, graph.n)
            live = sum(engine.mask[mixers[v]] for mixers, _ in slots for v in range(graph.n))
            assert 1 <= len(engine.basis) <= 2**live
            engine, x0 = execution.send(maximize(engine.expectation, x0))
    except StopIteration:
        pass
    assert rounds > 1


def test_dqva_converged_needs_every_inner_round():
    # a 30-eval budget stops some inner rounds and not others
    from mcdecomp import optimize as opt

    flags = []

    def optimizer(f, x0):
        res = opt.maximize(f, x0, max_evals=30)
        flags.append(res.converged)
        return res

    res = dqva_outer_loop(erdos_renyi(10, 4.5, seed=1), nu=5, seed=3, optimizer=optimizer)
    assert any(flags) and not all(flags)
    assert res.converged is False
