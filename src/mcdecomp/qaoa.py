"""Constrained-QAOA ansatzes for maximum independent set.

The mixer applies a rotation on a node only when all of its neighbors are in
|0>, so starting from a feasible state the evolution never leaves the
independent-set subspace.  Three variants are built here: single-angle (one
mixer angle per layer), multi-angle (one per partial mixer), and the dynamic
ansatz with a tunable number of live parameters and a warm start.

The mixer parameter beta enters the circuit as a rotation by theta = 2*beta,
so one partial mixer equals I + (exp(-i beta X) - I) B where B projects the
neighbors onto |0...0>.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import neighbor_masks
from .ir import Circuit, Gate, Graph, NEG0, rx, rz, x
from .sim import Statevector, bits_to_index
from . import optimize as opt

SA = "sa"
MA = "ma"
DQVA = "dqva"
VARIANTS = (SA, MA, DQVA)
MEASURED_FLOOR = 1e-4  # ``best_measured_set`` counts no outcome below it as measured


class AnsatzError(ValueError):
    pass


def partial_mixer(graph: Graph, node: int, theta: float) -> Circuit:
    """Mixer body for one node: rotation gated on all neighbors being |0>.

    The rotation split's two multi-controlled NOTs carry open (|0>) controls
    on the neighbors; an isolated node degenerates to a bare Rx.
    """
    # imported here: the statevector engines never build a circuit, and the
    # gate library is the largest module they would otherwise load
    from .gadgets import su2_split_gates

    if not 0 <= node < graph.n:
        raise AnsatzError(f"node {node} not in graph")
    nbrs = graph.neighbors(node)
    if not nbrs:
        return Circuit(2, graph.n, (rx(node, theta),))
    return Circuit(2, graph.n, tuple(su2_split_gates([(v, NEG0) for v in nbrs], node, theta)))


def phase_separator(graph: Graph, gamma: float) -> Circuit:
    """Diagonal phase rewarding Hamming weight, one Rz per node (up to global phase)."""
    return Circuit(2, graph.n, tuple(rz(i, gamma) for i in range(graph.n)))


def check_variant(variant: str, p: int) -> None:
    """Raise ``AnsatzError`` unless ``variant`` is known and ``p >= 1``."""
    if variant not in VARIANTS:
        raise AnsatzError(f"unknown variant {variant!r}")
    if p < 1:
        raise AnsatzError("p must be >= 1")


def param_count(variant: str, p: int, n: int) -> int:
    if variant == SA:
        return 2 * p
    return p * (n + 1)


def round_slots(variant: str, p: int, n: int) -> list[tuple[list[int], int]]:
    """Per round, each node's mixer slot and the phase slot of the full layout.

    The single-angle layout is (beta, gamma) per round, every node sharing
    beta; the others hold n mixer angles and then gamma per round.
    """
    if variant == SA:
        return [([2 * k] * n, 2 * k + 1) for k in range(p)]
    return [(list(range(k * (n + 1), k * (n + 1) + n)), k * (n + 1) + n) for k in range(p)]


def dqva_default_mask(p: int, n: int, nu: int, permutation, in_set=()) -> tuple[bool, ...]:
    """Allocate the nu live parameters across phase and mixer slots.

    Phase parameters are unmasked first (one per round), but never at the
    cost of leaving zero live mixers.  Mixer slots then fill in permutation
    order, skipping nodes already in the current independent set: their
    rotations could only remove them, so the slots are re-used for nodes
    still outside the set as it grows.
    """
    if nu < 1:
        raise AnsatzError("nu must be >= 1")
    rounds = round_slots(DQVA, p, n)
    mask = [False] * param_count(DQVA, p, n)
    n_gamma = min(p, nu - 1) if nu > 1 else 0
    live = 0
    for _, phase in rounds[:n_gamma]:
        mask[phase] = True
        live += 1
    blocked = {i for i, b in enumerate(in_set) if b}
    for mixers, _ in rounds:
        for node in permutation:
            if live >= nu:
                break
            if node in blocked:
                continue
            if not mask[mixers[node]]:
                mask[mixers[node]] = True
                live += 1
    # if everything is already in the set, spill the leftovers into phases
    for _, phase in rounds[n_gamma:]:
        if live >= nu:
            break
        mask[phase] = True
        live += 1
    return tuple(mask)


@dataclass(frozen=True)
class AnsatzSpec:
    """Which ansatz to build: variant, depth, parameters, ordering, and mask.

    ``params`` uses the full layout (see ``round_slots``); for the dynamic
    variant ``mask`` marks the live slots and must have exactly ``nu`` set
    when ``nu`` is given.  ``warm_start`` must be an independent set.
    """

    variant: str
    p: int = 1
    params: tuple[float, ...] = ()
    permutation: tuple[int, ...] | None = None
    mask: tuple[bool, ...] | None = None
    warm_start: tuple[int, ...] | None = None
    nu: int | None = None


def check_layout(variant: str, p: int, n: int, permutation=None, mask=None,
                 warm_start=None) -> None:
    """Raise ``AnsatzError`` unless ``permutation`` orders each of the ``n``
    nodes once, ``mask`` is one of the dynamic variant's and has one entry
    per slot of its parameter layout, and ``warm_start`` holds one bit, 0 or
    1, per node (each when given)."""
    if permutation is not None and sorted(permutation) != list(range(n)):
        raise AnsatzError("permutation must order all nodes")
    if mask is not None:
        if variant != DQVA:
            raise AnsatzError("mask is only meaningful for the dynamic variant")
        if len(mask) != param_count(variant, p, n):
            raise AnsatzError("mask length must match the full parameter layout")
    if warm_start is not None and (len(warm_start) != n or any(b not in (0, 1) for b in warm_start)):
        raise AnsatzError("warm start must hold one bit (0 or 1) per node")


def validate_spec(graph: Graph, spec: AnsatzSpec) -> None:
    check_variant(spec.variant, spec.p)
    expect = param_count(spec.variant, spec.p, graph.n)
    if spec.params and len(spec.params) != expect:
        raise AnsatzError(f"{spec.variant} with p={spec.p} needs {expect} params, got {len(spec.params)}")
    check_layout(spec.variant, spec.p, graph.n, spec.permutation, spec.mask, spec.warm_start)
    if spec.mask is not None and spec.nu is not None and sum(spec.mask) != spec.nu:
        raise AnsatzError(f"mask must leave nu={spec.nu} live parameters")
    if spec.warm_start is not None and not graph.is_independent(spec.warm_start):
        raise AnsatzError("warm start is not an independent set")


def build_ansatz(graph: Graph, spec: AnsatzSpec) -> Circuit:
    """Warm-start preparation followed by p (mixer layer, phase layer) blocks.

    Masked and zero-angle partial mixers emit no gates at all, which makes
    them exact no-ops.
    """
    validate_spec(graph, spec)
    n = graph.n
    sigma = spec.permutation or tuple(range(n))
    params = spec.params or (0.0,) * param_count(spec.variant, spec.p, n)
    mask = spec.mask
    gates: list[Gate] = []
    if spec.warm_start is not None:
        gates += [x(i) for i, b in enumerate(spec.warm_start) if b]
    for mixers, phase in round_slots(spec.variant, spec.p, n):
        for node in sigma:
            if mask is not None and not mask[mixers[node]]:
                continue
            beta = params[mixers[node]]
            if beta != 0.0:
                gates += partial_mixer(graph, node, 2 * beta).gates
        gamma = params[phase]
        if (mask is None or mask[phase]) and gamma != 0.0:
            gates += phase_separator(graph, gamma).gates
    return Circuit(2, n, tuple(gates))


def objective_expectation(state: Statevector, graph: Graph) -> float:
    """Expected Hamming weight sum_i P(b_i = 1) of the measured bitstring."""
    if state.width != graph.n:
        raise AnsatzError("state width does not match the graph")
    return float(state.probabilities() @ _popcount(np.arange(2**graph.n), graph.n))


def _popcount(values: np.ndarray, n: int) -> np.ndarray:
    w = np.zeros(len(values), dtype=float)
    for b in range(n):
        w += (values >> b) & 1
    return w


def independent_set_indices(graph: Graph) -> np.ndarray:
    """Sorted basis indices of every independent set (node i is bit n-1-i).

    Grows the sets one node at a time from the lowest bit up: node v joins
    every set so far that holds none of its neighbors.  Its bit is above all
    of theirs, so each step appends a sorted block above a sorted one.
    """
    n = graph.n
    sets = np.zeros(1, dtype=np.int64)
    for v, nbr in reversed(list(enumerate(_basis_neighbor_masks(graph)))):
        sets = np.concatenate((sets, sets[(sets & nbr) == 0] | (1 << (n - 1 - v))))
    return sets


def _basis_neighbor_masks(graph: Graph) -> list[int]:
    """Per-node neighbor mask in basis-index bit order (node v on bit n-1-v)."""
    return [int(format(m, f"0{graph.n}b")[::-1], 2) for m in neighbor_masks(graph)]


def infeasible_probability(amps: np.ndarray, graph: Graph) -> float:
    """Total probability mass of a 2^n state outside the independent-set subspace."""
    bad = np.ones(2**graph.n, dtype=bool)
    bad[independent_set_indices(graph)] = False
    return float(np.sum(np.abs(amps[bad]) ** 2))


def _unaccounted_mass(amps: np.ndarray) -> float:
    """Norm a subspace state fails to account for: max(0, 1 - |psi|^2)."""
    return max(0.0, 1.0 - float(np.vdot(amps, amps).real))


class IndependentSets:
    """The per-graph part of an engine: the independent-set subspace.

    ``basis`` lists the sorted 2^n-register indices of the independent sets,
    ``pairs[node]`` the subspace positions ``(idx, swp)`` that the node's
    rotation couples, and ``weights`` the set sizes.  ``idx`` stacks ``sel0``
    (the node and all of its neighbors |0>) on ``sel1`` (the node flipped to
    |1>), and ``swp`` is ``sel1`` on ``sel0``, so ``amps[swp]`` lines each
    amplitude up with its rotation partner.  The set-size table ``levels``
    holds the distinct sizes and ``level_of`` each set's entry in it, so
    that ``levels[level_of]`` equals ``weights`` and a phase layer takes
    one exp per size.  It does not depend on the ansatz, so one instance
    serves every engine on a graph.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = n = graph.n
        self.basis = basis = independent_set_indices(graph)
        tbits = 1 << (n - 1 - np.arange(n, dtype=np.int64))
        blocks = np.array(_basis_neighbor_masks(graph), dtype=np.int64) | tbits
        # node i rotates only where it and all of its neighbors are |0>
        nodes, sel0 = np.nonzero((basis & blocks[:, None]) == 0)
        partner = basis[sel0] | tbits[nodes]
        sel1 = np.searchsorted(basis, partner)
        if not np.array_equal(basis[np.minimum(sel1, len(basis) - 1)], partner):
            raise AnsatzError("a rotation partner is not an independent set")
        cuts = np.cumsum(np.bincount(nodes, minlength=n))[:-1]
        self.pairs = [(np.concatenate((s0, s1)), np.concatenate((s1, s0)))
                      for s0, s1 in zip(np.split(sel0, cuts), np.split(sel1, cuts))]
        self.weights = _popcount(basis, n)
        self.levels, self.level_of = np.unique(self.weights, return_inverse=True)


def _evolve(dim, starts, rounds, params, c, js, levels, level_of) -> np.ndarray:
    """The ansatz state over ``dim`` amplitudes, from 1 at ``starts``.

    Per round, each mixer ``(idx, swp, slot)`` is one gather-update-scatter
    over its stacked pair, and a phase (unless None) takes exp(i gamma) once
    per entry of ``levels`` and gathers it through ``level_of``; ``c`` and
    ``js`` are cos and i*sin of ``params``.  A slot or phase is one index
    for an engine and one per amplitude or level for a batch.
    """
    amps = np.zeros(dim, dtype=complex)
    amps[starts] = 1.0
    # Ufunc calls, not operators: on a temporary of 256 KiB or more an
    # operator may compute in place with the operands swapped, and a swapped
    # complex product rounds differently, so engine and batch would part.
    mul, sub = np.multiply, np.subtract
    for mixers, phase in rounds:
        for idx, swp, slot in mixers:
            amps[idx] = sub(mul(c[slot], amps[idx]), mul(js[slot], amps[swp]))
        if phase is not None:
            amps = mul(amps, np.exp(mul(1j * params[phase], levels))[level_of])
    return amps


class AnsatzEngine:
    """Statevector evaluation of one ansatz configuration on the independent sets.

    The partial mixers never leave the independent-set subspace, so the state
    holds one amplitude per independent set of ``sets`` (an
    ``IndependentSets``), and ``statevector`` returns amplitudes in the order
    of ``basis``.  Per round the live (idx, swp, parameter slot) list is
    precomputed in permutation order, and a call runs ``_evolve`` with cos
    and i*sin of all parameters taken once, as Python scalars.  A zero angle
    is applied, not skipped: cos 0 = 1 and sin 0 = 0 can change only the
    sign of a zero amplitude.

    The mixers are restricted to the sets the ansatz can reach.  Walking the
    live mixers in order from the start state, each keeps only the pairs
    with a reached side, and both sides of a kept pair count as reached; a
    mixer left with no pair is dropped, and once every set is reached the
    rest keep all of theirs.  A skipped pair holds two amplitudes that are
    exactly zero on every call, whatever the angles, so skipping it can
    change only the sign of a zero, which |amps|^2 never sees; the state
    keeps its full length.  Cross-checked against the unrestricted update
    and against the circuit path in the tests.
    """

    def __init__(self, sets: IndependentSets, variant: str, p: int = 1,
                 permutation=None, mask=None, warm_start=None):
        check_variant(variant, p)
        self.graph = sets.graph
        self.variant = variant
        self.p = p
        self.n = n = sets.n
        check_layout(variant, p, n, permutation, mask, warm_start)
        self.sigma = tuple(permutation) if permutation is not None else tuple(range(n))
        self.mask = tuple(mask) if mask is not None else None
        self.warm_start = tuple(warm_start) if warm_start is not None else (0,) * n
        self.basis = basis = sets.basis
        start = bits_to_index(self.warm_start)
        self._start = int(np.searchsorted(basis, start))
        if self._start == len(basis) or basis[self._start] != start:
            raise AnsatzError("warm start is not an independent set")
        self._w = sets.weights
        self._size = param_count(variant, p, n)
        self._levels, self._level_of = sets.levels, sets.level_of
        self._live = [i for i in range(self._size) if self.mask is None or self.mask[i]]
        live = set(self._live)
        reached = np.zeros(len(basis), dtype=bool)
        reached[self._start] = True
        everything = reached.all()
        # per round: the live mixers' kept pairs as (idx, swp, slot) in sigma
        # order, and the live phase slot or None
        self._rounds = []
        for mixers, phase in round_slots(variant, p, n):
            kept = []
            for node in self.sigma:
                if mixers[node] not in live:
                    continue
                idx, swp = sets.pairs[node]
                if not everything:
                    near = reached[idx] | reached[swp]
                    idx, swp = idx[near], swp[near]
                    reached[idx] = True
                    everything = reached.all()
                if len(idx):
                    kept.append((idx, swp, mixers[node]))
            self._rounds.append((kept, phase if phase in live else None))

    @property
    def live_param_count(self) -> int:
        return len(self._live)

    def full_params(self, live_values) -> np.ndarray:
        full = np.zeros(self._size)
        full[self._live] = live_values
        return full

    def statevector(self, full_params) -> np.ndarray:
        params = np.asarray(full_params)
        return _evolve(len(self.basis), self._start, self._rounds, params,
                       np.cos(params).tolist(), (1j * np.sin(params)).tolist(),
                       self._levels, self._level_of)

    def statevector_live(self, live_values) -> np.ndarray:
        return self.statevector(self.full_params(live_values))

    def expectation(self, full_params) -> float:
        amps = self.statevector(full_params)
        return float((np.abs(amps) ** 2) @ self._w)

    def expectation_live(self, live_values) -> float:
        return self.expectation(self.full_params(live_values))


class EngineBatch:
    """``expectation_live`` of many engines in one call, over a ragged batch.

    The engines' subspace states are joined end to end and evolved by the
    engines' kernel, ``_evolve``.  The k-th kept mixer of a round (after
    each engine's reach restriction) is one mixer position: its
    gather-update-scatter runs once for every engine that has it, over the
    engines' ``idx``/``swp`` arrays offset to their place in the joined
    state, and reads cos and i*sin per amplitude through flat (engine, slot)
    indices.  A phase layer takes exp(i gamma w) once per entry of each
    engine's set-size table (``IndependentSets.levels``), with the engine's
    gamma read the same way, and gathers it per amplitude; an engine
    without a phase in that round reads an extra slot that holds 0.  Every
    amplitude thus sees the arithmetic of ``AnsatzEngine.statevector``, and
    |amps|^2 @ w stays one dot product per engine, so each value is bitwise
    equal to the engine's own call.
    """

    def __init__(self, engines):
        engines = list(engines)
        dims = [len(e.basis) for e in engines]
        amp_at = np.cumsum([0] + dims)
        slot_at = np.cumsum([0] + [e._size for e in engines])
        self._zero = int(slot_at[-1])
        self._live = np.concatenate(
            [at + np.array(e._live, dtype=np.int64) for at, e in zip(slot_at, engines)])
        self._starts = np.array([at + e._start for at, e in zip(amp_at, engines)])
        self._cuts = [(slice(a, b), e._w) for a, b, e in zip(amp_at, amp_at[1:], engines)]
        level_at = np.cumsum([0] + [len(e._levels) for e in engines])
        self._levels = np.concatenate([e._levels for e in engines])
        self._level_of = np.concatenate([at + e._level_of for at, e in zip(level_at, engines)])
        self._rounds = []
        for r in range(max(len(e._rounds) for e in engines)):
            here = [(k, e._rounds[r]) for k, e in enumerate(engines) if r < len(e._rounds)]
            mixers = []
            for m in range(max(len(live) for _, (live, _) in here)):
                idx, swp, slot = zip(*[
                    (live[m][0] + amp_at[k], live[m][1] + amp_at[k],
                     np.full(len(live[m][0]), slot_at[k] + live[m][2]))
                    for k, (live, _) in here if m < len(live)])
                mixers.append((np.concatenate(idx), np.concatenate(swp), np.concatenate(slot)))
            gammas = [self._zero] * len(engines)
            for k, (_, phase) in here:
                if phase is not None:
                    gammas[k] = slot_at[k] + phase
            phase = (np.repeat(gammas, np.diff(level_at))
                     if any(g != self._zero for g in gammas) else None)
            self._rounds.append((mixers, phase))
        self._dim = int(amp_at[-1])

    def expectations(self, live_points: np.ndarray) -> list[float]:
        """One expectation per engine, from the engines' live parameters
        joined end to end in one flat array."""
        params = np.zeros(self._zero + 1)
        params[self._live] = live_points
        amps = _evolve(self._dim, self._starts, self._rounds, params, np.cos(params),
                       1j * np.sin(params), self._levels, self._level_of)
        probs = np.abs(amps) ** 2
        # ``.dot`` is the BLAS dot product that ``@`` calls, with less overhead
        return [float(probs[cut].dot(w)) for cut, w in self._cuts]


def best_measured_set(amps: np.ndarray, basis: np.ndarray, n: int):
    """Largest set among subspace outcomes at or above ``MEASURED_FLOOR``.

    ``amps`` are amplitudes over ``basis`` (see ``AnsatzEngine``), so every
    outcome is an independent set.  Mirrors taking the best sample from a
    finite-shot measurement; ties break toward higher probability, then
    toward the lower basis index.
    """
    probs = np.abs(amps) ** 2
    cand = np.flatnonzero(probs >= MEASURED_FLOOR)
    if len(cand) == 0:
        cand = np.array([int(np.argmax(probs))])
    sizes = _popcount(basis[cand], n)
    cand = cand[sizes == sizes.max()]
    index = int(basis[cand[np.argmax(probs[cand])]])
    return tuple((index >> (n - 1 - j)) & 1 for j in range(n))


def start_point(engine: AnsatzEngine, rng) -> np.ndarray:
    """A round's start: the live parameters drawn uniformly from [0, pi)."""
    return rng.uniform(0.0, np.pi, engine.live_param_count)


def _readout(engine: AnsatzEngine, x):
    """The best measured set at ``x`` and the state's unaccounted mass."""
    amps = engine.statevector_live(x)
    return best_measured_set(amps, engine.basis, engine.n), _unaccounted_mass(amps)


def _drive(execution, optimizer):
    """Run an execution serially: maximize each round it yields with
    ``optimizer`` (``optimize.maximize`` unless given), send the result
    back, and return the execution's result."""
    try:
        engine, x0 = next(execution)
        while True:
            res = (optimizer or opt.maximize)(engine.expectation_live, x0)
            engine, x0 = execution.send(res)
    except StopIteration as done:
        return done.value


@dataclass
class ExecutionResult:
    """How one execution ended: its best measured set, optimizer rounds,
    objective evals, worst unaccounted mass of a readout and whether every
    maximization converged; SA/MA also keep the round's ``value`` and ``params``."""

    best_bits: tuple[int, ...]
    rounds: int
    evals: int
    max_infeasible: float
    converged: bool
    value: float | None = None
    params: np.ndarray | None = None

    @property
    def best_size(self) -> int:
        return sum(self.best_bits)


def dqva_execution(sets: IndependentSets, nu: int, seed=None, p: int = 1, mixer_rounds: int = 5):
    """One dynamic-ansatz execution on ``sets`` as a generator.

    Each inner round yields ``(engine, x0)`` and must be sent the
    ``optimize.OptResult`` of maximizing ``engine.expectation_live`` from
    ``x0``; the generator's return value is the ``ExecutionResult``, with
    ``rounds`` the number of inner rounds and no ``value`` or ``params``.
    Bad arguments raise ``AnsatzError`` here, before any engine is built.
    """
    if nu < 1:
        raise AnsatzError("nu must be >= 1")
    if mixer_rounds < 1:
        raise AnsatzError("mixer_rounds must be >= 1")
    check_variant(DQVA, p)
    slots = param_count(DQVA, p, sets.n)
    if nu > slots:
        raise AnsatzError(f"nu={nu} exceeds the {slots} parameters of dqva with p={p} on {sets.n} nodes")
    return _dqva_rounds(sets, nu, seed, p, mixer_rounds)


def _dqva_rounds(sets: IndependentSets, nu: int, seed, p: int, mixer_rounds: int):
    n = sets.n
    rng = np.random.default_rng(seed)
    best = (0,) * n
    rounds = 0
    evals = 0
    worst_inf = 0.0
    converged = True
    for _ in range(mixer_rounds):
        sigma = tuple(int(v) for v in rng.permutation(n))
        cur = best
        for _ in range(n):
            mask = dqva_default_mask(p, n, nu, sigma, in_set=cur)
            engine = AnsatzEngine(sets, DQVA, p, sigma, mask, cur)
            res = yield engine, start_point(engine, rng)
            cand, inf = _readout(engine, res.x)
            rounds += 1
            evals += res.evals
            converged = converged and res.converged
            worst_inf = max(worst_inf, inf)
            if sum(cand) <= sum(best):
                break
            best = cur = cand
    return ExecutionResult(best, rounds, evals, worst_inf, converged)


def _sets_of(graph: Graph, sets: IndependentSets | None) -> IndependentSets:
    if sets is None:
        return IndependentSets(graph)
    if sets.graph != graph:
        raise AnsatzError("sets belong to another graph")
    return sets


def dqva_outer_loop(graph: Graph, nu: int, seed=None, p: int = 1,
                    mixer_rounds: int = 5, optimizer=None, sets=None) -> ExecutionResult:
    """Dynamic-ansatz driver: random mixer permutations outside, warm-started
    re-optimization inside, growing the independent set from the empty set
    until it stalls.

    Returns the best feasible set found and the number of optimizer
    invocations (the rounds-of-variational-optimization count);
    ``converged`` holds only when every inner optimization converged.
    ``sets`` is the graph's ``IndependentSets``, built here unless given.
    Runs ``dqva_execution`` serially.
    """
    execution = dqva_execution(_sets_of(graph, sets), nu, seed, p, mixer_rounds)
    return _drive(execution, optimizer)


def single_round_execution(sets: IndependentSets, variant: str, p: int = 1, seed=None):
    """One single-/multi-angle execution on ``sets``: ``dqva_execution``'s
    protocol with one round, returning an ``ExecutionResult`` with
    ``rounds`` 1 and the round's optimum ``value`` and angles ``params``."""
    if variant not in (SA, MA):
        raise AnsatzError("use dqva_outer_loop for the dynamic variant")
    check_variant(variant, p)
    return _single_round(sets, variant, p, seed)


def _single_round(sets: IndependentSets, variant: str, p: int, seed):
    engine = AnsatzEngine(sets, variant, p)
    res = yield engine, start_point(engine, np.random.default_rng(seed))
    bits, inf = _readout(engine, res.x)
    return ExecutionResult(bits, 1, res.evals, inf, res.converged, res.value, np.asarray(res.x))


def optimize_single_round(graph: Graph, variant: str, p: int = 1, seed=None,
                          optimizer=None, sets=None) -> ExecutionResult:
    """One variational round of the single-/multi-angle ansatz from |0...0>;
    runs ``single_round_execution`` serially (``sets`` as for ``dqva_outer_loop``)."""
    return _drive(single_round_execution(_sets_of(graph, sets), variant, p, seed), optimizer)
