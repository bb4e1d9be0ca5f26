import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdecomp.ir import (
    AncillaBudget,
    Circuit,
    Gate,
    GateSetSpec,
    Graph,
    IRError,
    NEG0,
    POS1,
    POS2,
    ZEROED,
    ccx,
    circuit_from_dict,
    circuit_to_dict,
    entangling_gate_histogram,
    mcrx,
    mcx,
    rx,
    ry,
    rz,
    validate_circuit,
    x,
)


def test_empty_circuit_is_valid():
    assert validate_circuit(Circuit(2, 1, ())) is None


def test_out_of_range_target_reported():
    c = Circuit(2, 4, (x(5),))
    assert "index-out-of-range" in validate_circuit(c)


def test_pos2_control_needs_qutrits():
    g = Gate("mcx", (1,), ((0, POS2),))
    assert "polarity-mismatch" in validate_circuit(Circuit(2, 2, (g,)))
    assert validate_circuit(Circuit(3, 2, (g,))) is None


def test_control_target_overlap_reported():
    g = Gate("mcx", (0,), ((0, POS1),))
    assert "line-overlap" in validate_circuit(Circuit(2, 2, (g,)))


def test_duplicate_ancilla_reported():
    c = Circuit(2, 3, (), ancilla=((2, ZEROED), (2, ZEROED)))
    assert "ancilla-overlap" in validate_circuit(c)


def test_mcrx_requires_angle():
    with pytest.raises(IRError):
        Gate("mcrx", (1,), ((0, POS1),))


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), float("-inf"), "0.3", 1j])
def test_rotation_angle_must_be_finite_and_real(angle):
    # a NaN or infinite angle would reach the circuit JSON, which strict parsers reject
    for make in (lambda: rx(0, angle), lambda: ry(0, angle), lambda: rz(0, angle),
                 lambda: Gate("mcrx", (1,), ((0, POS1),), angle)):
        with pytest.raises(IRError, match="finite real"):
            make()


def test_histogram_counts_multiline_gates_only():
    gates = (rz(0, 0.3), mcx([0, 1, 2], 3), mcx([0, 1, 2], 3), rx(3, 0.1))
    hist = entangling_gate_histogram(Circuit(2, 4, gates))
    assert hist == {4: 2}


def test_histogram_of_rotations_is_empty():
    c = Circuit(2, 3, tuple(rz(i, 0.1) for i in range(3)))
    assert entangling_gate_histogram(c) == {}


def test_histogram_invariant_under_single_qudit_insertion():
    base = (ccx(0, 1, 2), mcrx([0], 2, 0.5))
    withs = (rz(0, 1.0),) + base + (x(1), rx(2, 0.2))
    assert entangling_gate_histogram(Circuit(2, 3, base)) == entangling_gate_histogram(
        Circuit(2, 3, withs)
    )


@st.composite
def circuits(draw):
    width = draw(st.integers(2, 5))
    n_gates = draw(st.integers(0, 8))
    gates = []
    for _ in range(n_gates):
        kind = draw(st.sampled_from(["x", "h", "rz", "mcx", "mcrx"]))
        lines = draw(
            st.lists(st.integers(0, width - 1), min_size=1, max_size=min(3, width), unique=True)
        )
        if kind in ("x", "h"):
            gates.append(Gate(kind, (lines[0],)))
        elif kind == "rz":
            gates.append(rz(lines[0], draw(st.floats(-3, 3, allow_nan=False))))
        elif len(lines) >= 2:
            pols = [draw(st.sampled_from([POS1, NEG0])) for _ in lines[1:]]
            ctl = tuple(zip(lines[1:], pols))
            if kind == "mcx":
                gates.append(Gate("mcx", (lines[0],), ctl))
            else:
                gates.append(Gate("mcrx", (lines[0],), ctl, angle=draw(st.floats(-3, 3, allow_nan=False))))
    return Circuit(2, width, tuple(gates))


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_circuit_json_round_trip(c):
    text = c.to_json()
    again = Circuit.from_json(text)
    assert again == c
    assert json.loads(again.to_json()) == json.loads(text)


def test_circuit_json_matches_wire_format():
    c = Circuit(
        2, 7,
        (Gate("mcx", (6,), ((0, POS1), (1, POS1))),),
        ancilla=((5, ZEROED),),
    )
    d = circuit_to_dict(c)
    assert d["dim"] == 2 and d["width"] == 7
    assert d["ancilla"] == [{"line": 5, "regime": "zeroed"}]
    assert d["gates"][0] == {"kind": "mcx", "controls": [[0, "+"], [1, "+"]], "targets": [6]}
    assert circuit_from_dict(d) == c


def test_gateset_spec_validation():
    with pytest.raises(IRError):
        GateSetSpec("s2_m")  # missing m
    with pytest.raises(IRError):
        GateSetSpec("s2_2", fidelities=((2, 1.5),))
    spec = GateSetSpec("s2_3", fidelities=((1, 0.999), (2, 0.99), (3, 0.98)))
    assert spec.fidelity(3) == 0.98


def test_control_lines_go_through_operator_index():
    assert mcx([np.int64(1), (np.int32(3), "-")], 2).controls == ((1, "+"), (3, "-"))
    assert mcx([True], 2).controls == ((1, "+"),)
    assert type(mcx([True], 2).controls[0][0]) is int
    for bad in (1.0, "1", (1.5, "+"), None):
        with pytest.raises(IRError):
            mcx([bad], 2)


def test_ancilla_budget_validation():
    with pytest.raises(IRError):
        AncillaBudget("two")
    with pytest.raises(IRError):
        AncillaBudget("one", "dirty")


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(IRError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(IRError):
        Graph.from_edges(3, [(0, 5)])


@given(st.integers(2, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_graph_neighbors_symmetric(n, data):
    pairs = data.draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                max_size=10)
    )
    g = Graph.from_edges(n, pairs)
    for u in range(n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


@given(st.integers(1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_graph_adjacency_equals_edge_scan(n, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=20))
    g = Graph.from_edges(n, pairs)
    for v in range(n):
        scan = tuple(sorted(b if a == v else a for a, b in g.edges if v in (a, b)))
        assert g.neighbors(v) == scan
        assert g.degree(v) == len(scan)
        assert g.basis_masks[v] == sum(1 << (n - 1 - u) for u in scan)
    assert g.degrees() == [len(g.neighbors(v)) for v in range(n)]


def test_graph_adjacency_stays_out_of_eq_hash_and_repr():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = Graph(3, frozenset({(2, 1), (1, 0)}))
    assert a == b and hash(a) == hash(b)
    assert "adjacency" not in repr(a)
    # the basis masks are built on first use and stay out of them too
    assert "basis_masks" not in vars(a)
    assert a.basis_masks == (0b010, 0b101, 0b010)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_graph_rejects_nodes_out_of_range():
    g = Graph.from_edges(5, [(0, 1), (3, 4)])
    for bad in (5, 99, -1):
        with pytest.raises(IRError):
            g.neighbors(bad)
        with pytest.raises(IRError):
            g.degree(bad)


def test_graph_json_round_trip():
    g = Graph.from_edges(5, [(0, 1), (1, 2)])
    assert Graph.from_json(g.to_json()) == g
    assert json.loads(g.to_json()) == {"nodes": 5, "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize("graph", [
    {"nodes": "a", "edges": []}, {"nodes": 2.5, "edges": []}, {"nodes": True, "edges": []},
    {"nodes": -1, "edges": []}, {"nodes": 2, "edges": 5}, {"nodes": 2, "edges": [[0, "1"]]},
    {"nodes": 2, "edges": [[0, 1.5]]}, {"nodes": 3, "edges": [[0, 1, 2]]},
    {"nodes": 2, "edges": [[0, True]]},
])
def test_graph_from_json_rejects_malformed_nodes_and_edges(graph):
    with pytest.raises(IRError, match="graph '(nodes|edges)' must be"):
        Graph.from_json(json.dumps(graph))
