import numpy as np
import pytest

from mcdecomp.decompose import DecomposeError, decompose, ladder_cx_gates
from mcdecomp.gadgets import (
    compact_c2rx_gates,
    crx_gates,
    margolus_gates,
    toffoli_cx_gates,
)
from mcdecomp.ir import (
    AncillaBudget,
    Circuit,
    Gate,
    GateSetSpec,
    NEG0,
    ccx,
    count_tuple,
    entangling_total,
    mcrx,
    mcx,
    validate_circuit,
    x,
)
from mcdecomp.metrics import exact_count_zeroed
from mcdecomp.sim import circuit_unitary, gate_unitary, phase_aligned_deviation
from mcdecomp.verify import borrowed_deviation, burnable_deviation, restricted_deviation

COLUMNS = [("s2_2", "one"), ("s2_3", "one"), ("s2_2", "n"), ("s2_3", "n")]


@pytest.mark.parametrize("family,budget", COLUMNS)
def test_counts_match_closed_form_to_n12(family, budget):
    for n in range(1, 13):
        c = decompose(mcrx(list(range(n)), n, 0.6), GateSetSpec(family), AncillaBudget(budget))
        assert validate_circuit(c) is None
        assert entangling_total(c) == exact_count_zeroed(n, family, budget), (family, budget, n)


def test_named_base_cases():
    assert entangling_total(
        decompose(mcrx([0, 1, 2], 3, 0.5), GateSetSpec("s2_2"), AncillaBudget("one"))
    ) == 18
    assert entangling_total(
        decompose(mcrx([0, 1, 2, 3], 4, 0.5), GateSetSpec("s2_3"), AncillaBudget("one"))
    ) == 10
    assert entangling_total(
        decompose(mcrx([0, 1, 2, 3], 4, 0.5), GateSetSpec("s2_2"), AncillaBudget("n"))
    ) == 24


@pytest.mark.parametrize("n, entangling", [(3, 12), (4, 24)])
def test_s22_zeroed_one_mcx_uses_the_margolus_outer_pair(n, entangling):
    # a 2-control top half is ANDed into the |0> ancilla by the relative-phase
    # Toffoli, as in the Rx route, and its repeat uncomputes it
    g = mcx(list(range(n)), n)
    c = decompose(g, GateSetSpec("s2_2"), AncillaBudget("one"))
    assert entangling_total(c) == entangling
    assert restricted_deviation(c, g, n + 1) < 1e-8
    outer = margolus_gates(0, 1, n + 1)
    assert list(c.gates[:len(outer)]) == outer == list(c.gates[-len(outer):])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", ["s2_2", "s2_3"])
@pytest.mark.parametrize("kind", ["mcrx", "mcx"])
def test_base_cases_are_the_same_under_every_budget(n, family, kind):
    g = mcx(list(range(n)), n) if kind == "mcx" else mcrx(list(range(n)), n, 0.9)
    budgets = [AncillaBudget(count, regime) for count in ("one", "n")
               for regime in ("zeroed", "burnable")]
    circuits = [decompose(g, GateSetSpec(family), budget) for budget in budgets]
    assert circuits[0].width == n + 1 and all(c == circuits[0] for c in circuits)


def test_c2rx_s23_is_two_toffolis_and_exact():
    c = decompose(mcrx([0, 1], 2, 1.1), GateSetSpec("s2_3"), AncillaBudget("n"))
    assert entangling_total(c) == 2
    assert count_tuple(c)[0] == 4
    u = circuit_unitary(c)
    assert np.max(np.abs(u - gate_unitary(mcrx([0, 1], 2, 1.1), 3))) < 1e-10


@pytest.mark.parametrize("family,budget", COLUMNS)
def test_zeroed_unitaries_restricted(family, budget):
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        theta = float(rng.uniform(0, 2 * np.pi))
        g = mcrx(list(range(n)), n, theta)
        c = decompose(g, GateSetSpec(family), AncillaBudget(budget))
        assert restricted_deviation(c, g, n + 1) < 1e-8


def test_open_controls_expand_to_x_pairs():
    g = mcrx([(0, NEG0), (1, "+")], 2, 0.4)
    c = decompose(g, GateSetSpec("s2_3"), AncillaBudget("n"))
    xs = [gg for gg in c.gates if gg.kind == "x"]
    assert len(xs) == 2 and all(gg.targets == (0,) for gg in xs)
    assert restricted_deviation(c, g, 3) < 1e-10


def test_unsupported_combinations_rejected():
    g = mcrx([0, 1, 2], 3, 0.4)
    with pytest.raises(DecomposeError):
        decompose(g, GateSetSpec("s3_2"), AncillaBudget("one"))
    with pytest.raises(DecomposeError):
        decompose(g, GateSetSpec("s2_2"), AncillaBudget("one", "borrowed"))
    with pytest.raises(DecomposeError):
        decompose(mcrx([], 0, 0.4) if False else mcrx([0], 1, 0.4),
                  GateSetSpec("s2_m", m=4), AncillaBudget("one"))


BURNABLE_TUPLES = {
    ("s2_2", "one", "rx"): lambda n: (16 * n + 20, 16 * n - 6),
    ("s2_2", "one", "x"): lambda n: (8 * n + 8, 8 * n - 4),
    ("s2_2", "n", "rx"): lambda n: (8 * n - 8, 6 * n - 6),
    ("s2_2", "n", "x"): lambda n: (8 * n - 8, 6 * n - 6),
    ("s2_3", "one", "rx"): lambda n: (4, 2, 8 * n - 24),
    ("s2_3", "one", "x"): lambda n: (0, 0, 4 * n - 12),
    ("s2_3", "n", "rx"): lambda n: (6, 2, n - 2),
    ("s2_3", "n", "x"): lambda n: (0, 0, n - 1),
}


@pytest.mark.parametrize("family,budget,kind", list(BURNABLE_TUPLES))
def test_burnable_histograms_near_table(family, budget, kind):
    want_fn = BURNABLE_TUPLES[(family, budget, kind)]
    for n in (20, 40):
        g = mcrx(list(range(n)), n, 0.8) if kind == "rx" else mcx(list(range(n)), n)
        c = decompose(g, GateSetSpec(family), AncillaBudget(budget, "burnable"))
        assert validate_circuit(c) is None
        got = count_tuple(c, 3 if family == "s2_3" else 2)
        want = want_fn(n)
        assert all(abs(a - b) <= 32 for a, b in zip(got, want)), (got, want)


def test_decompose_remaps_to_gate_lines():
    g = mcrx([4, 2], 0, 0.3)
    c = decompose(g, GateSetSpec("s2_3"), AncillaBudget("n"))
    used = set()
    for gg in c.gates:
        used.update(gg.lines)
    assert {0, 2, 4} <= used
    assert restricted_deviation(c, g, 5) < 1e-10


# --- CX-level gadgets of the s2_2 routes ---------------------------------------

def test_exact_toffoli_gadget():
    u = circuit_unitary(Circuit(2, 3, tuple(toffoli_cx_gates(0, 1, 2))))
    assert np.max(np.abs(u - gate_unitary(ccx(0, 1, 2), 3))) < 1e-12
    assert sum(1 for g in toffoli_cx_gates(0, 1, 2) if g.arity == 1) == 8


def test_margolus_exact_on_zero_target():
    gates = margolus_gates(0, 1, 2)
    u = circuit_unitary(Circuit(2, 3, tuple(gates)))
    t = gate_unitary(ccx(0, 1, 2), 3)
    zero_cols = [i for i in range(8) if i % 2 == 0]  # target = line 2 = LSB
    assert np.max(np.abs(u[:, zero_cols] - t[:, zero_cols])) < 1e-12
    # involution: applying it twice is the identity
    u2 = circuit_unitary(Circuit(2, 3, tuple(gates + gates)))
    assert np.max(np.abs(u2 - np.eye(8))) < 1e-12


def test_compact_c2rx_is_raw_exact_with_6_cx():
    gates = compact_c2rx_gates(0, 1, 2, 1.234)
    assert sum(1 for g in gates if g.arity == 2) == 6
    u = circuit_unitary(Circuit(2, 3, tuple(gates)))
    assert np.max(np.abs(u - gate_unitary(mcrx([0, 1], 2, 1.234), 3))) < 1e-12


def test_crx_gadget():
    gates = crx_gates(0, 1, 0.37)
    assert sum(1 for g in gates if g.arity == 2) == 2
    u = circuit_unitary(Circuit(2, 2, tuple(gates)))
    assert phase_aligned_deviation(u, gate_unitary(mcrx([0], 1, 0.37), 2)) < 1e-12


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_vchain_dirty_count_and_exactness(k):
    """The borrowed-line V-chain over {1q, CX}: 8k-6 CX, exact for any borrowed state."""
    controls = list(range(k))
    borrowed = list(range(k + 1, k + 1 + k - 2))
    gates = ladder_cx_gates(controls, borrowed, k)
    assert all(g.kind != "mcx" or len(g.controls) == 1 for g in gates)
    n_cx = sum(1 for g in gates if g.kind == "mcx")
    assert n_cx == 8 * k - 6
    c = Circuit(2, 2 * k - 1, tuple(gates))
    assert borrowed_deviation(c, mcx(controls, k), k + 1) < 1e-12


def test_ladder_cx_repeats_one_sweep():
    gates = ladder_cx_gates(range(5), range(6, 9), 5)
    half = len(gates) // 2
    assert all(a is b for a, b in zip(gates[:half], gates[half:]))


def test_ladder_cx_small_cases():
    # k=1 is one CX; k=2 is the exact Toffoli gadget (test_exact_toffoli_gadget), 6 CX
    assert ladder_cx_gates([0], [], 1) == [mcx([0], 1)]
    gates = ladder_cx_gates([0, 1], [], 2)
    assert gates == toffoli_cx_gates(0, 1, 2)
    assert sum(1 for g in gates if g.kind == "mcx") == 6


@pytest.mark.parametrize("k, borrowed", [(3, []), (5, [6, 7])])
def test_ladder_cx_requires_enough_borrowed(k, borrowed):
    with pytest.raises(DecomposeError):
        ladder_cx_gates(range(k), borrowed, k)


@pytest.mark.parametrize("gate", [
    mcx([0, 1, 2], 1),  # the target is also a control
    mcx([0, 0, 2], 3),  # a control repeats
    mcrx([0, -1, 2], 3, 0.3),  # a negative line
])
def test_decompose_rejects_malformed_gates(gate):
    with pytest.raises(DecomposeError):
        decompose(gate, GateSetSpec("s2_3"), AncillaBudget("one"))


def _relabel(gate, canonical):
    """The canonical-layout circuit (controls 0..n-1, target n, ancillas n+1..)
    moved onto the gate's lines, ancillas after the highest one, with open
    controls X-conjugated: the reference for decomposing on the gate's lines."""
    n = len(gate.controls)
    width = max(gate.lines) + 1
    mapping = {i: line for i, (line, _) in enumerate(gate.controls)}
    mapping[n] = gate.targets[0]
    n_anc = canonical.width - n - 1
    mapping.update({n + 1 + j: width + j for j in range(n_anc)})
    moved = [Gate(g.kind, tuple(mapping[t] for t in g.targets),
                  tuple((mapping[line], pol) for line, pol in g.controls), g.angle, g.matrix)
             for g in canonical.gates]
    flips = [x(line) for line, pol in gate.controls if pol == NEG0]
    return Circuit(2, width + n_anc, tuple(flips + moved + flips),
                   ancilla=tuple((width + j, regime) for j, (_, regime)
                                 in enumerate(canonical.ancilla)))


ROUTES = [(family, count, regime, kind) for family in ("s2_2", "s2_3") for count in ("one", "n")
          for regime in ("zeroed", "burnable") for kind in ("mcrx", "mcx")]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("family,count,regime,kind", ROUTES)
def test_every_route_decomposes_on_a_shuffled_layout(family, count, regime, kind, n):
    rng = np.random.default_rng(17 * n)
    # n + 2 register lines in shuffled order; one below the top stays unused
    gap = int(rng.integers(0, n + 1))
    lines = [int(v) + (v >= gap) for v in rng.permutation(n + 1)]
    controls = [(line, NEG0 if i % 2 else "+") for i, line in enumerate(lines[:n])]
    theta = float(rng.uniform(0, 2 * np.pi))

    def make(ctrls, target):
        return mcx(ctrls, target) if kind == "mcx" else mcrx(ctrls, target, theta)

    gate = make(controls, lines[n])
    spec, budget = GateSetSpec(family), AncillaBudget(count, regime)
    c = decompose(gate, spec, budget)
    assert c == _relabel(gate, decompose(make(range(n), n), spec, budget))
    deviation = restricted_deviation if regime == "zeroed" else burnable_deviation
    assert deviation(c, gate, n + 2) < 1e-8
