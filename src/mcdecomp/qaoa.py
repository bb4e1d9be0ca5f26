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
from functools import cached_property
from itertools import accumulate

import numpy as np

from .ir import Circuit, Gate, Graph, NEG0, rx, rz, x
from .sim import Statevector, bits_to_index
from . import optimize as opt

SA = "sa"
MA = "ma"
DQVA = "dqva"
VARIANTS = (SA, MA, DQVA)
MEASURED_FLOOR = 1e-4  # ``best_measured_set`` counts no outcome below it as measured
# The most independent sets a subspace may hold, 2^22: every sampled
# average-degree-3 Erdős–Rényi graph of up to 28 nodes has fewer (at most
# 3.0M), and an edgeless graph, with 2^n, passes up to 22 nodes.
MAX_INDEPENDENT_SETS = 1 << 22
# The most nodes a subspace may hold: a set is an int64 basis index, node i bit n-1-i.
MAX_NODES = 63
_BYTE_SIZES = np.array([bin(b).count("1") for b in range(256)], dtype=np.int8)
_UNIT = np.array([1, -1j, -1, 1j])  # (-i)^d, indexed by d mod 4
_WHOLE = np.zeros(1, dtype=np.intp)  # one span over a whole array, for ``_span_sums``


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
    return float(state.probabilities() @ _set_sizes(np.arange(2**graph.n), graph.n))


def _set_sizes(values: np.ndarray, n: int) -> np.ndarray:
    """The set size of each basis index over ``n`` nodes, one table lookup per byte."""
    sizes = _BYTE_SIZES[values & 255]
    for shift in range(8, n, 8):
        sizes += _BYTE_SIZES[(values >> shift) & 255]
    return sizes


def independent_set_indices(graph: Graph) -> np.ndarray:
    """Sorted basis indices of every independent set (node i is bit n-1-i).

    The walk of one mixer per node from the empty set, lowest bit first:
    node v joins every set so far that holds none of its neighbors, and its
    bit is above all of theirs, so each step appends a sorted block above a
    sorted one.  Raises ``AnsatzError`` on more than ``MAX_NODES`` nodes and
    before the sets pass ``MAX_INDEPENDENT_SETS``.
    """
    return _walk(graph, reversed(range(graph.n)), 0)[0]


def infeasible_probability(amps: np.ndarray, graph: Graph) -> float:
    """Total probability mass of a 2^n state outside the independent-set subspace."""
    bad = np.ones(2**graph.n, dtype=bool)
    bad[independent_set_indices(graph)] = False
    return float(np.sum(np.abs(amps[bad]) ** 2))


def _unaccounted_mass(probs: np.ndarray) -> float:
    """Norm a subspace state fails to account for: max(0, 1 - sum of its probabilities)."""
    return max(0.0, 1.0 - float(_span_sums(probs, _WHOLE)[0]))


def _span_sums(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The sum of ``values`` over each span from one of ``cuts`` to the next.

    ``np.add.reduceat`` sums each span in an order set by its length alone,
    not by BLAS or by the CPU's SIMD kernels; ``np.add.reduce`` sums in
    another order, so the engine, the batch and the readout all sum here.
    """
    return np.add.reduceat(values, cuts)


def _walk(graph: Graph, nodes, start: int):
    """The independent sets that partial mixers on ``nodes``, applied in
    order, reach from the set ``start`` (a basis index), in the order reached.

    A mixer on node v couples each reached set that holds no neighbor of v
    to its partner, the set with v flipped; a pair's two sides are the set
    without v and with v, and those not reached yet are appended.  While no
    reached set holds v, every upper side is new; only a node met again
    looks its partners up, and a node with a neighbor in every reached set
    couples nothing.  Returns the sets and per mixer its pairs' positions
    ``(lower, upper)``.  Raises ``AnsatzError`` on a graph of more than
    ``MAX_NODES`` nodes and before the sets pass ``MAX_INDEPENDENT_SETS``.
    """
    n = graph.n
    if n > MAX_NODES:
        raise AnsatzError(f"the subspace engine holds at most {MAX_NODES} nodes, "
                          f"the graph has {n}")
    sets = np.array([start], dtype=np.int64)
    held = common = np.int64(start)  # the nodes some / every reached set holds
    order = None  # argsort of ``sets`` while no set is appended
    pairs, none = [], np.zeros(0, dtype=np.intp)
    masks = graph.basis_masks
    for v in nodes:
        bit = np.int64(1 << (n - 1 - v))
        nbrs = masks[v]
        if nbrs & common:
            pairs.append((none, none))
            continue
        lower = ((sets & (nbrs | bit)) == 0).nonzero()[0]
        at = len(sets)
        if held & bit:
            if order is None:
                order = sets.argsort()
            upper = _find(sets, order, sets[lower] | bit)
            holds = (sets & bit).nonzero()[0]
            orphans = holds[_find(sets, order, sets[holds] ^ bit) < 0]
            grow = lower[upper < 0]
            upper[upper < 0] = np.arange(at, at + len(grow))
            lower = np.concatenate((lower, at + len(grow) + np.arange(len(orphans))))
            upper = np.concatenate((upper, orphans))
            new = np.concatenate((sets[grow] | bit, sets[orphans] ^ bit))
            common &= ~bit
        else:
            upper = np.arange(at, at + len(lower))
            new = sets[lower] | bit
        if at + len(new) > MAX_INDEPENDENT_SETS:
            raise AnsatzError(f"the graph has more than {MAX_INDEPENDENT_SETS} independent sets, "
                              "too many for the subspace engine")
        pairs.append((lower, upper))
        if len(new):
            sets = np.concatenate((sets, new))
            held |= bit
            order = None
    return sets, pairs


def _find(sets: np.ndarray, order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each of ``values`` in ``sets`` (sorted by ``order``), or -1."""
    at = order[np.minimum(sets.searchsorted(values, sorter=order), len(sets) - 1)]
    return np.where(sets[at] == values, at, -1)


def _evolve(ansatz, params, c, s) -> np.ndarray:
    """The measurement probabilities of ``ansatz``, an ``AnsatzEngine`` or an
    ``EngineBatch``, over its sets, from 1 at its ``_start``.

    The first round's mixers ``(reached, new, slot)`` of ``_rounds`` run on
    real magnitudes: each writes s*t to its new sides and c*t to its reached
    sides t.  Before node v's mixer every reached set holds v as the start
    does, so each pair has one reached side and a new side at exactly 0;
    the complex update c*t - i*s*0 and c*0 - i*s*t rounds each product
    once, as the real one does up to sign, and rounding is sign-symmetric.
    So the state is then these magnitudes times (-i)^d, d the sets'
    distances from the start.  With no later round the probabilities are
    the magnitudes squared, written over them, and no complex number is
    made.  Otherwise, and only then, the kernel reads the tables
    ``_quarter``, ``_levels`` and ``_level_of``: one product with
    ``_UNIT[_quarter]`` (d mod 4) makes the complex state, every later
    round's mixer ``(idx, swp, slot)`` is one complex gather-update-scatter
    over its stacked pair, a phase (unless None) takes exp(i gamma) once per
    entry of ``_levels`` and gathers it through ``_level_of``, and the
    probabilities are re*re + im*im.  The rounds carry no last phase: it
    multiplies each amplitude by a number of modulus 1, which no
    probability sees (see ``AnsatzEngine``).  ``c`` and ``s`` are cos and
    sin of ``params``, the live values, and i*sin is made only when a later
    round runs.  A slot or phase is one position in ``params`` for an
    engine and one per amplitude or level for a batch.
    """
    # Ufunc calls, not operators: on a temporary of 256 KiB or more an
    # operator may compute in place with the operands swapped, and a swapped
    # complex product rounds differently, so engine and batch would part.
    mul, sub = np.multiply, np.subtract
    rounds = ansatz._rounds
    mags = np.zeros(len(ansatz._w))
    mags[ansatz._start] = 1.0
    for reached, new, slot in rounds[0][0]:
        t = mags[reached]
        mags[new] = mul(s[slot], t)
        mags[reached] = mul(c[slot], t)
    if len(rounds) == 1:
        return mul(mags, mags, out=mags)
    js = mul(1j, s)
    amps = mul(mags, _UNIT[ansatz._quarter])
    for r, (mixers, phase) in enumerate(rounds):
        if r > 0:
            for idx, swp, slot in mixers:
                amps[idx] = sub(mul(c[slot], amps[idx]), mul(js[slot], amps[swp]))
        if phase is not None:
            amps = mul(amps, np.exp(mul(1j * params[phase], ansatz._levels))[ansatz._level_of])
    re, im = amps.real, amps.imag
    return np.add(mul(re, re), mul(im, im))


class AnsatzEngine:
    """Statevector evaluation of one ansatz configuration on the sets it reaches.

    The partial mixers never leave the independent-set subspace, and from
    its start state the ansatz reaches only the sets that ``_walk`` finds
    along its live mixers: all of them after a first full layer (add a set's
    nodes in order), at most 2^k after k live mixers.  The state holds one
    amplitude per reached set, ``basis`` lists their 2^n-register indices
    sorted, and ``probabilities`` returns the measurement probabilities in
    that order.  Only probabilities leave the engine, so it runs no last
    phase layer: that layer multiplies each amplitude by a number of modulus
    1, so neither the expectation nor the readout depends on the last
    round's gamma, and at p=1 the evolution is real throughout (see
    ``_evolve``).  Its parameters are the ``live_param_count`` live values
    in layout order (see ``round_slots``; ``mask`` marks the dynamic
    variant's), and each live mixer and phase keeps its slot as its position
    among them.  Each live mixer that couples a pair keeps two position
    arrays and its slot, in sigma order per round.  In the first round only
    node v's mixer flips v, so every set reached before it holds v as the
    start does: the mixer keeps ``(reached, new, slot)``, those sets and
    their partners, which it reaches first.  Its update is then a real
    scale.  A later mixer keeps ``(idx, swp, slot)``: ``idx`` stacks the
    pairs' lower sides on their upper sides and ``swp`` the upper on the
    lower, so ``amps[swp]`` lines each amplitude up with its rotation
    partner.  Three tables are built only when first read, by a round after
    the first (here, or in a deeper ``EngineBatch`` that the engine joins),
    so a p=1 engine never builds them: ``_quarter`` holds each set's
    distance from the start mod 4, the power of -i the first round leaves
    on it, and the set-size table ``_levels`` holds the distinct sizes and
    ``_level_of`` each set's entry in it, so a phase layer takes one exp
    per size.  A call raises ``AnsatzError`` unless given
    ``live_param_count`` values, and runs ``_evolve`` with cos and sin of
    them taken once, as Python scalars, and ``expectation`` writes
    probability times set size over the probabilities and sums it with
    ``_span_sums``.  A zero angle is
    applied, not skipped: cos 0 = 1 and sin 0 = 0 can change only the sign
    of a zero amplitude.  Cross-checked against the full-subspace update and
    against the circuit path in the tests.
    """

    def __init__(self, graph: Graph, variant: str, p: int = 1,
                 permutation=None, mask=None, warm_start=None):
        check_variant(variant, p)
        self.variant = variant
        self.p = p
        self.n = n = graph.n
        check_layout(variant, p, n, permutation, mask, warm_start)
        self.sigma = tuple(permutation) if permutation is not None else tuple(range(n))
        self.mask = tuple(mask) if mask is not None else None
        self.warm_start = tuple(warm_start) if warm_start is not None else (0,) * n
        start = bits_to_index(self.warm_start)
        if any(b and start & mask for b, mask in zip(self.warm_start, graph.basis_masks)):
            raise AnsatzError("warm start is not an independent set")
        # each live slot of the full layout by its position among the live parameters
        at = {slot: k for k, slot in enumerate(
            i for i in range(param_count(variant, p, n)) if self.mask is None or self.mask[i])}
        self.live_param_count = len(at)
        rounds = round_slots(variant, p, n)
        mixers = [(r, node, at[slots[node]]) for r, (slots, _) in enumerate(rounds)
                  for node in self.sigma if slots[node] in at]
        sets, pairs = _walk(graph, [node for _, node, _ in mixers], start)
        order = sets.argsort()
        self.basis = sets[order]
        self._w = _set_sizes(self.basis, n).astype(float)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self._start = int(rank[0])
        # every pair position through the sort at once, one span per mixer: a
        # first-round mixer's (reached, new), its sides that hold the node as
        # the start does and their partners, and a later mixer's (idx, swp),
        # its (lower, upper) and (upper, lower)
        sides = []
        for (r, node, _), (lo, hi) in zip(mixers, pairs):
            if r > 0:
                sides.append((lo, hi, hi, lo))
            elif (start >> (n - 1 - node)) & 1:
                sides.append((hi, lo))
            else:
                sides.append((lo, hi))
        flat = rank[np.concatenate((rank[:0], *(h for side in sides for h in side)))]
        spans = list(accumulate((sum(map(len, side)) for side in sides), initial=0))
        # per round: the kept mixers in sigma order, each as the two halves of
        # its span and its slot, and the live phase slot or None; the last
        # round's phase is None, since no probability depends on it
        self._rounds = [([], at[phase] if phase in at and r < p - 1 else None)
                        for r, (_, phase) in enumerate(rounds)]
        for (r, _, slot), a, b in zip(mixers, spans, spans[1:]):
            if b > a:
                self._rounds[r][0].append((flat[a:(a + b) // 2], flat[(a + b) // 2:b], slot))

    @cached_property
    def _quarter(self) -> np.ndarray:
        # each set's distance from the start, mod 4: its first-round phase (-i)^d
        return _set_sizes(self.basis ^ self.basis[self._start], self.n) & 3

    @cached_property
    def _levels(self) -> np.ndarray:
        return np.unique(self._w)

    @cached_property
    def _level_of(self) -> np.ndarray:
        return self._levels.searchsorted(self._w)

    def probabilities(self, x) -> np.ndarray:
        params = np.asarray(x)
        if params.shape != (self.live_param_count,):
            raise AnsatzError(f"expected {self.live_param_count} live parameters, "
                              f"got shape {params.shape}")
        return _evolve(self, params, np.cos(params).tolist(), np.sin(params).tolist())

    def expectation(self, x) -> float:
        probs = self.probabilities(x)
        return float(_span_sums(np.multiply(probs, self._w, out=probs), _WHOLE)[0])


class EngineBatch:
    """``AnsatzEngine.expectation`` of many engines in one call, over a ragged batch.

    The engines' subspace states are joined end to end and evolved by the
    engines' kernel, ``_evolve``.  The k-th kept mixer of a round is one
    mixer position: its update runs once for every engine that has it, over
    the engines' position arrays offset to their place in the joined state
    (``reached``/``new`` in the first round, ``idx``/``swp`` later), and
    reads cos, sin and i*sin per updated amplitude at the engine's slot
    offset by the live parameters of the engines before it, a position in
    the joined live points.  Each position's three arrays are allocated
    once at their joined length and each engine's part is written into
    them, offset in place.  A phase layer takes exp(i gamma w) once per
    entry of each engine's set-size table (``AnsatzEngine._levels``), with
    the engine's gamma read the same way, and gathers it per amplitude; an
    engine without a phase in that round reads the one slot after the
    joined points, which holds 0.  Like the engines' rounds, the batch's
    carry no last phase, so a batch of p=1 engines runs real throughout and
    joins none of the engines' ``_quarter``, ``_levels`` and ``_level_of``
    (nor makes them build theirs); a batch with a deeper engine joins all
    three, offset the same way.  In a batch with deeper engines a p=1
    engine's amplitudes are its real magnitudes m times the units (-i)^d,
    multiplied by phases of exactly 1, so re*re + im*im = m*m, the bytes of
    its own call.  Every probability thus has the bytes of
    ``AnsatzEngine.probabilities``, and one ``_span_sums`` over the
    engines' cuts sums probability times set size in the engine's order, so
    each value is bitwise equal to the engine's own call.
    """

    def __init__(self, engines):
        engines = list(engines)
        amp_at = np.cumsum([0] + [len(e.basis) for e in engines])
        slot_at = np.cumsum([0] + [e.live_param_count for e in engines])
        self._zero = int(slot_at[-1])
        self._start = np.array([at + e._start for at, e in zip(amp_at, engines)])
        self._cuts = amp_at[:-1]
        self._w = np.concatenate([e._w for e in engines])
        depth = max(len(e._rounds) for e in engines)
        if depth > 1:  # only a round after the first reads these tables
            level_at = np.cumsum([0] + [len(e._levels) for e in engines])
            self._quarter = np.concatenate([e._quarter for e in engines])
            self._levels = np.concatenate([e._levels for e in engines])
            self._level_of = np.concatenate([at + e._level_of for at, e in zip(level_at, engines)])
        self._rounds = []
        for r in range(depth):
            here = [(k, e._rounds[r]) for k, e in enumerate(engines) if r < len(e._rounds)]
            mixers = []
            for m in range(max(len(live) for _, (live, _) in here)):
                kept = [(k, live[m]) for k, (live, _) in here if m < len(live)]
                size = sum(len(lo) for _, (lo, _, _) in kept)
                idx, swp, slot = (np.empty(size, dtype=np.intp) for _ in range(3))
                end = 0
                for k, (lo, hi, own) in kept:  # own: the slot in engine k's live values
                    begin, end = end, end + len(lo)
                    np.add(lo, amp_at[k], out=idx[begin:end])
                    np.add(hi, amp_at[k], out=swp[begin:end])
                    slot[begin:end] = slot_at[k] + own
                mixers.append((idx, swp, slot))
            gammas = [self._zero] * len(engines)
            for k, (_, phase) in here:
                if phase is not None:
                    gammas[k] = slot_at[k] + phase
            # a live phase belongs to an engine with a later round, so depth > 1
            phase = (np.repeat(gammas, np.diff(level_at))
                     if any(g != self._zero for g in gammas) else None)
            self._rounds.append((mixers, phase))

    def expectations(self, live_points: np.ndarray) -> list[float]:
        """One expectation per engine, from the engines' live parameters
        joined end to end in one flat array; raises ``AnsatzError`` unless it
        holds the engines' live parameter counts in total."""
        if np.shape(live_points) != (self._zero,):
            raise AnsatzError(f"expected {self._zero} joined live parameters, "
                              f"got shape {np.shape(live_points)}")
        params = np.concatenate((live_points, [0.0]))
        probs = _evolve(self, params, np.cos(params), np.sin(params))
        return _span_sums(np.multiply(probs, self._w, out=probs), self._cuts).tolist()


def best_measured_set(probs: np.ndarray, basis: np.ndarray, n: int):
    """Largest set among subspace outcomes at or above ``MEASURED_FLOOR``.

    ``probs`` are measurement probabilities over ``basis`` (see
    ``AnsatzEngine.probabilities``), so every outcome is an independent set.
    Mirrors taking the best sample from a finite-shot measurement; ties
    break toward higher probability, then toward the lower basis index.
    """
    cand = np.flatnonzero(probs >= MEASURED_FLOOR)
    if len(cand) == 0:
        cand = np.array([int(np.argmax(probs))])
    sizes = _set_sizes(basis[cand], n)
    cand = cand[sizes == sizes.max()]
    index = int(basis[cand[np.argmax(probs[cand])]])
    return tuple((index >> (n - 1 - j)) & 1 for j in range(n))


def start_point(engine: AnsatzEngine, rng) -> np.ndarray:
    """A round's start: the live parameters drawn uniformly from [0, pi)."""
    return rng.uniform(0.0, np.pi, engine.live_param_count)


def _readout(engine: AnsatzEngine, x):
    """The best measured set at ``x`` and the state's unaccounted mass."""
    probs = engine.probabilities(x)
    return best_measured_set(probs, engine.basis, engine.n), _unaccounted_mass(probs)


def _drive(execution, optimizer):
    """Run an execution serially: maximize each round it yields with
    ``optimizer`` (``optimize.maximize`` unless given), send the result
    back, and return the execution's result."""
    try:
        engine, x0 = next(execution)
        while True:
            res = (optimizer or opt.maximize)(engine.expectation, x0)
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


def dqva_execution(graph: Graph, nu: int, seed=None, p: int = 1, mixer_rounds: int = 5):
    """One dynamic-ansatz execution on ``graph`` as a generator.

    Each inner round yields ``(engine, x0)`` and must be sent the
    ``optimize.OptResult`` of maximizing ``engine.expectation`` from
    ``x0``; the generator's return value is the ``ExecutionResult``, with
    ``rounds`` the number of inner rounds and no ``value`` or ``params``.
    Bad arguments raise ``AnsatzError`` here, before any engine is built.
    """
    if nu < 1:
        raise AnsatzError("nu must be >= 1")
    if mixer_rounds < 1:
        raise AnsatzError("mixer_rounds must be >= 1")
    check_variant(DQVA, p)
    slots = param_count(DQVA, p, graph.n)
    if nu > slots:
        raise AnsatzError(f"nu={nu} exceeds the {slots} parameters of dqva with p={p} on {graph.n} nodes")
    return _dqva_rounds(graph, nu, seed, p, mixer_rounds)


def _dqva_rounds(graph: Graph, nu: int, seed, p: int, mixer_rounds: int):
    n = graph.n
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
            engine = AnsatzEngine(graph, DQVA, p, sigma, mask, cur)
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


def dqva_outer_loop(graph: Graph, nu: int, seed=None, p: int = 1,
                    mixer_rounds: int = 5, optimizer=None) -> ExecutionResult:
    """Dynamic-ansatz driver: random mixer permutations outside, warm-started
    re-optimization inside, growing the independent set from the empty set
    until it stalls.

    Returns the best feasible set found and the number of optimizer
    invocations (the rounds-of-variational-optimization count);
    ``converged`` holds only when every inner optimization converged.
    Runs ``dqva_execution`` serially.
    """
    return _drive(dqva_execution(graph, nu, seed, p, mixer_rounds), optimizer)


def single_round_execution(graph: Graph, variant: str, p: int = 1, seed=None):
    """One single-/multi-angle execution on ``graph``: ``dqva_execution``'s
    protocol with one round, returning an ``ExecutionResult`` with
    ``rounds`` 1 and the round's optimum ``value`` and angles ``params``."""
    if variant not in (SA, MA):
        raise AnsatzError("use dqva_outer_loop for the dynamic variant")
    check_variant(variant, p)
    return _single_round(graph, variant, p, seed)


def _single_round(graph: Graph, variant: str, p: int, seed):
    engine = AnsatzEngine(graph, variant, p)
    res = yield engine, start_point(engine, np.random.default_rng(seed))
    bits, inf = _readout(engine, res.x)
    return ExecutionResult(bits, 1, res.evals, inf, res.converged, res.value, np.asarray(res.x))


def optimize_single_round(graph: Graph, variant: str, p: int = 1, seed=None,
                          optimizer=None) -> ExecutionResult:
    """One variational round of the single-/multi-angle ansatz from |0...0>;
    runs ``single_round_execution`` serially."""
    return _drive(single_round_execution(graph, variant, p, seed), optimizer)
