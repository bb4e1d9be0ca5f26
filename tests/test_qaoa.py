import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdecomp.graphs import brute_force_mis, erdos_renyi
from mcdecomp.ir import NEG0, Graph
from mcdecomp.qaoa import (
    DQVA,
    MA,
    SA,
    VARIANTS,
    AnsatzEngine,
    AnsatzError,
    AnsatzSpec,
    EngineBatch,
    IndependentSets,
    best_measured_set,
    build_ansatz,
    dqva_default_mask,
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


def scatter(engine, amps):
    """Subspace amplitudes placed into the full 2^n register."""
    full = np.zeros(2**engine.n, dtype=complex)
    full[engine.basis] = amps
    return full


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
        circ_state = apply_circuit(Statevector.zero(5), build_ansatz(PATH5, spec)).amplitudes
        eng = AnsatzEngine(IndependentSets(PATH5), variant, p)
        fast = scatter(eng, eng.statevector(np.asarray(params)))
        assert phase_aligned_deviation(fast, circ_state) < 1e-11


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
    circ_state = apply_circuit(Statevector.zero(n), build_ansatz(PATH5, spec)).amplitudes
    eng = AnsatzEngine(IndependentSets(PATH5), DQVA, 1, sigma, mask, warm)
    masked_params = [v if mask[i] else 0.0 for i, v in enumerate(params)]
    fast = scatter(eng, eng.statevector(np.asarray(masked_params)))
    assert phase_aligned_deviation(fast, circ_state) < 1e-11


@pytest.mark.parametrize("graph, count", [
    (PATH5, 13), (K4, 5), (Graph.from_edges(6, []), 64),
])
def test_engine_basis_small_graphs(graph, count):
    basis = AnsatzEngine(IndependentSets(graph), SA).basis
    assert len(basis) == count
    assert basis.tolist() == independent_bitstrings(graph)


def test_engine_basis_is_the_independent_bitstrings():
    graphs = [erdos_renyi(n, d, seed=seed)
              for seed, (n, d) in enumerate([(7, 2.0), (9, 3.0), (10, 4.5), (11, 2.5), (12, 3.0)])]
    # no node (the empty set alone), no edge (all 2^15 sets), every edge
    graphs += [Graph.from_edges(0, []), Graph.from_edges(15, []),
               Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])]
    for graph in graphs:
        assert AnsatzEngine(IndependentSets(graph), MA).basis.tolist() == independent_bitstrings(graph)
        assert independent_set_indices(graph).tolist() == independent_bitstrings(graph)


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
        eng = AnsatzEngine(IndependentSets(graph), spec.variant, spec.p, spec.permutation,
                           spec.mask, spec.warm_start)
        amps = eng.statevector(np.asarray(spec.params))
        assert phase_aligned_deviation(scatter(eng, amps), circ) < 1e-11
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
        want = objective_expectation(Statevector(circ, n), graph)
        assert abs(eng.expectation(np.asarray(spec.params)) - want) < 1e-11


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
    circ = apply_circuit(Statevector.zero(graph.n), build_ansatz(graph, spec)).amplitudes
    eng = AnsatzEngine(IndependentSets(graph), spec.variant, spec.p, spec.permutation,
                       spec.mask, spec.warm_start)
    fast = scatter(eng, eng.statevector(np.asarray(spec.params)))
    assert phase_aligned_deviation(fast, circ) < 1e-11


def _batch_engines():
    """SA/MA engines at p=1 and p=2 on different graphs: desk graphs, a
    sparse one with isolated nodes, an edgeless one and a single node."""
    graphs = [erdos_renyi(10, 4.5, seed=s) for s in range(8)]
    graphs += [erdos_renyi(9, 1.0, seed=3), Graph.from_edges(6, []), Graph.from_edges(1, [])]
    assert any(not graphs[-3].neighbors(v) for v in range(9))
    return [AnsatzEngine(IndependentSets(g), variant, p)
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
        assert np.float64(value).tobytes() == np.float64(engine.expectation_live(x)).tobytes()


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
    engine = AnsatzEngine(IndependentSets(Graph.from_edges(15, [])), variant, p)
    assert len(engine.basis) == 2**15
    batch = EngineBatch([engine])
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(0.0, np.pi, engine.live_param_count)
        got = batch.expectations(x)[0]
        assert np.float64(got).tobytes() == np.float64(engine.expectation_live(x)).tobytes()


def test_engine_batch_handles_masks_and_warm_starts():
    rng = np.random.default_rng(3)
    engines = []
    for seed in range(6):
        graph = erdos_renyi(9, 3.0, seed=seed)
        sets = IndependentSets(graph)
        _, witness = brute_force_mis(graph)
        sigma = tuple(int(v) for v in rng.permutation(9))
        for p, nu, warm in ((1, 1, (0,) * 9), (2, 3, witness), (2, 6, (0,) * 9)):
            engines.append(AnsatzEngine(sets, DQVA, p, sigma,
                                        dqva_default_mask(p, 9, nu, sigma, warm), warm))
        engines.append(AnsatzEngine(sets, MA, 2))
    _assert_batch_matches(engines, _batch_points(engines, rng))


def test_engine_pairs_stack_each_rotation_with_its_partner():
    sets = IndependentSets(PATH5)
    for node, (idx, swp) in enumerate(sets.pairs):
        half = len(idx) // 2
        assert np.array_equal(swp, np.concatenate((idx[half:], idx[:half])))
        flipped = sets.basis[idx[:half]] | (1 << (PATH5.n - 1 - node))
        assert np.array_equal(sets.basis[idx[half:]], flipped)


def test_engine_rejects_dependent_warm_start():
    with pytest.raises(AnsatzError):
        AnsatzEngine(IndependentSets(PATH5), DQVA, 1, warm_start=(1, 1, 0, 0, 0))


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
        AnsatzEngine(IndependentSets(PATH4), variant, 1, **layout)


def unrestricted_statevector(sets, variant, p, sigma, mask, warm_start, full_params):
    """The reference for ``AnsatzEngine.statevector``: every pair of every
    live mixer with a nonzero angle, and exp(i gamma w) taken per amplitude."""
    amps = np.zeros(len(sets.basis), dtype=complex)
    amps[np.searchsorted(sets.basis, bits_to_index(warm_start))] = 1.0
    params = np.asarray(full_params)
    c = np.cos(params).tolist()
    js = (1j * np.sin(params)).tolist()
    mul, sub = np.multiply, np.subtract
    for mixers, phase in round_slots(variant, p, sets.n):
        for node in sigma:
            slot = mixers[node]
            if (mask is None or mask[slot]) and params[slot] != 0.0:
                idx, swp = sets.pairs[node]
                amps[idx] = sub(mul(c[slot], amps[idx]), mul(js[slot], amps[swp]))
        if (mask is None or mask[phase]) and params[phase] != 0.0:
            amps = mul(amps, np.exp(mul(1j * params[phase], sets.weights)))
    return amps


def reach_cases():
    """SA/MA at p = 1..3 from |0...0> and DQVA masks from warm starts, under
    the identity and a random order, on a path, a star and seeded ER graphs
    (one with isolated nodes)."""
    rng = np.random.default_rng(21)
    graphs = [PATH5, STAR, erdos_renyi(9, 1.0, seed=3), erdos_renyi(10, 4.5, seed=0),
              erdos_renyi(12, 3.0, seed=1)]
    for graph in graphs:
        n = graph.n
        sets = IndependentSets(graph)
        sigmas = [tuple(range(n)), tuple(int(v) for v in rng.permutation(n))]
        for sigma in sigmas:
            for variant in (SA, MA):
                for p in (1, 2, 3):
                    yield sets, variant, p, sigma, None, (0,) * n
        _, witness = brute_force_mis(graph)
        for warm in ((0,) * n, tuple(witness[:n // 2]) + (0,) * (n - n // 2), witness):
            for p, nu in ((1, 1), (1, 3), (2, 4), (2, 2 * n + 2)):
                mask = dqva_default_mask(p, n, nu, sigmas[1], in_set=warm)
                yield sets, DQVA, p, sigmas[1], mask, warm
            mask = tuple(bool(b) for b in rng.integers(0, 2, param_count(DQVA, 2, n)))
            yield sets, DQVA, 2, sigmas[0], mask, warm


def test_reach_restricted_engine_is_bitwise_the_unrestricted_update():
    rng = np.random.default_rng(5)
    for sets, variant, p, sigma, mask, warm in reach_cases():
        engine = AnsatzEngine(sets, variant, p, sigma, mask, warm)
        size = param_count(variant, p, sets.n)
        points = [rng.uniform(0.0, np.pi, size) for _ in range(3)] + [np.zeros(size)]
        points[1][::2] = 0.0
        points[2][1::3] = np.pi
        for x in points:
            want = unrestricted_statevector(sets, variant, p, sigma, mask, warm, x)
            probs = np.abs(want) ** 2
            assert (np.abs(engine.statevector(x)) ** 2).tobytes() == probs.tobytes()
            assert np.float64(engine.expectation(x)).tobytes() == \
                np.float64(float(probs @ sets.weights)).tobytes()
    # not vacuous: a first layer from |0...0> skips pairs, and a second
    # layer, with every set reached, keeps each node's pairs whole
    sets = IndependentSets(PATH5)
    first, _ = AnsatzEngine(sets, SA, 1)._rounds[0]
    assert sum(len(idx) for idx, _, _ in first) < sum(len(idx) for idx, _ in sets.pairs)
    second, _ = AnsatzEngine(sets, MA, 2)._rounds[1]
    assert len(second) == len(sets.pairs)
    for (idx, swp, _), (all_idx, all_swp) in zip(second, sets.pairs):
        assert np.array_equal(idx, all_idx) and np.array_equal(swp, all_swp)


def test_best_measured_set_prefers_size_then_probability():
    eng = AnsatzEngine(IndependentSets(PATH5), SA)
    amps = np.zeros(len(eng.basis), dtype=complex)
    pos = {b: i for i, b in enumerate(eng.basis.tolist())}
    amps[pos[0b10000]] = np.sqrt(0.9)
    amps[pos[0b10100]] = np.sqrt(0.04)
    amps[pos[0b01010]] = np.sqrt(0.06)
    assert best_measured_set(amps, eng.basis, 5) == (0, 1, 0, 1, 0)
    # below the floor everywhere: the most probable outcome is reported
    assert best_measured_set(amps * 1e-3, eng.basis, 5) == (1, 0, 0, 0, 0)


@pytest.mark.parametrize("variant, p", [("foo", 1), (SA, 0), (MA, 0), (DQVA, -1)])
def test_engine_rejects_unknown_variant_and_empty_depth(variant, p):
    with pytest.raises(AnsatzError):
        AnsatzEngine(IndependentSets(PATH5), variant, p)


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


def test_dqva_builds_the_independent_sets_once(monkeypatch):
    import mcdecomp.qaoa as qaoa

    built = []

    class Counting(IndependentSets):
        def __init__(self, graph):
            built.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(qaoa, "IndependentSets", Counting)
    res = dqva_outer_loop(Graph.from_edges(6, []), nu=2, seed=4, mixer_rounds=2)
    assert res.rounds > 1
    assert len(built) == 1


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
