import re
from unittest import mock

import numpy as np
import pytest

from mcdecomp import sim
from mcdecomp.decompose import DecomposeError, decompose, ladder_cx_gates, ladder_gates
from mcdecomp.ir import AncillaBudget, Circuit, GateSetSpec, h, mcrx, mcx, rz, x
from mcdecomp.sim import (
    _apply_gate_inplace,
    circuit_unitary,
    gate_unitary,
    phase_aligned_deviation,
)
from mcdecomp.verify import (
    CheckResult,
    VerifyError,
    borrowed_deviation,
    burnable_deviation,
    restricted_deviation,
    verify_schemes,
)


def ladder(k, m=3):
    gates = ladder_gates(range(k), range(k + 1, 2 * k - 1), k, m)
    return Circuit(2, 1 + max(line for g in gates for line in g.lines), tuple(gates))


def test_suite_passes_at_default_size():
    results = verify_schemes(max_controls=4, angles=5)
    assert results and all(r.ok for r in results)


def test_suite_names_all_16_routes():
    names = [r.name for r in verify_schemes(max_controls=4, angles=4)]
    routes = {}
    for name in names:
        hit = re.fullmatch(r"decompose\((\w+),(\w+),(\w+),(\w+),n=(\d)\)", name)
        if hit:
            routes.setdefault(hit.groups()[:4], []).append(int(hit.group(5)))
    assert len(routes) == 16
    assert all(ns == [1, 2, 3, 4] for ns in routes.values())
    assert {f"ladder(k={k},m={m})" for k in (3, 4) for m in (3, 4)} <= set(names)


def test_injected_off_by_one_ladder_fails_with_name():
    # negative control: drop the final Toffoli from a correct ladder
    good = ladder(4)
    broken = Circuit(good.dim, good.width, good.gates[:-1], good.ancilla)
    dev = borrowed_deviation(broken, mcx(list(range(4)), 4), 5)
    result = CheckResult("ladder(k=4,broken)", dev <= 1e-8, dev)
    assert not result.ok
    assert "ladder" in result.name
    assert result.deviation > 0.5


def test_width_bound_rejected():
    with pytest.raises(VerifyError):
        verify_schemes(max_controls=7)


@pytest.mark.parametrize("max_controls", [0, -1])
def test_empty_suite_rejected(max_controls):
    with pytest.raises(VerifyError):
        verify_schemes(max_controls=max_controls)


@pytest.mark.parametrize("kwargs", [{"tol": float("nan")}, {"tol": -1.0}, {"angles": 0}])
def test_bad_tolerance_and_angle_count_rejected(kwargs):
    # a NaN or negative tol would mark every correct route FAIL
    with pytest.raises(VerifyError):
        verify_schemes(max_controls=2, **kwargs)


@pytest.mark.parametrize("circuit, k", [
    (ladder(4), 4),
    (ladder(4, m=4), 4),
    (Circuit(2, ladder(4).width, ladder(4).gates[:-1]), 4),
])
def test_exact_deviation_matches_the_dense_ideal(circuit, k):
    ideal = mcx(list(range(k)), k)
    dense = phase_aligned_deviation(circuit_unitary(circuit),
                                    gate_unitary(ideal, circuit.width))
    assert borrowed_deviation(circuit, ideal, k + 1) == dense


def ladder_cx(k):
    return Circuit(2, 2 * k - 1, tuple(ladder_cx_gates(range(k), range(k + 1, 2 * k - 1), k)))


def _dense_exact_deviation(circuit, ideal):
    """The whole unitary, one gate at a time, against the ideal on every line."""
    u = np.eye(2**circuit.width, dtype=complex)
    for g in circuit.gates:
        _apply_gate_inplace(u, g, circuit.width)
    return phase_aligned_deviation(u, gate_unitary(ideal, circuit.width))


def _columns_per_block(circuit, columns):
    return mock.patch.object(sim, "CHUNK_ENTRIES", columns * 2**circuit.width)


@pytest.mark.parametrize("columns", [3, 2**12])  # ragged chunks, and one chunk
@pytest.mark.parametrize("circuit, k", [
    (ladder(4), 4), (ladder(5), 5), (ladder(5, m=4), 5), (ladder_cx(4), 4), (ladder_cx(5), 5),
])
def test_blocked_exact_deviation_matches_the_dense_unitary(circuit, k, columns):
    ideal = mcx(list(range(k)), k)
    with _columns_per_block(circuit, columns):
        blocked = borrowed_deviation(circuit, ideal, k + 1)
    dense = _dense_exact_deviation(circuit, ideal)
    if all(g.kind == "mcx" for g in circuit.gates):  # a permutation: exact either way
        assert blocked == dense
    else:
        assert abs(blocked - dense) <= 1e-14


def test_blocked_exact_deviation_sees_every_missing_gate():
    circuit, ideal = ladder_cx(4), mcx(list(range(4)), 4)
    with _columns_per_block(circuit, 24):  # fused runs in chunks of 24 columns, the last ragged
        for i in range(len(circuit.gates)):
            dropped = Circuit(2, circuit.width, circuit.gates[:i] + circuit.gates[i + 1:])
            assert borrowed_deviation(dropped, ideal, 5) > 1e-6, i


# --- the burnable contract ------------------------------------------------------

N = 4
IDEAL = mcrx(list(range(N)), N, 0.9)
BURNT = decompose(IDEAL, GateSetSpec("s2_3"), AncillaBudget("one", "burnable"))


def with_gates(circuit, gates):
    return Circuit(circuit.dim, circuit.width, tuple(gates), circuit.ancilla)


def test_burnable_route_passes_its_contract_only():
    assert burnable_deviation(BURNT, IDEAL, N + 1) < 1e-12
    # the ancilla keeps the AND of the controls, which the zeroed check rejects
    assert restricted_deviation(BURNT, IDEAL, N + 1) > 0.5


def test_burnable_accepts_zeroed_routes():
    for count in ("one", "n"):
        c = decompose(IDEAL, GateSetSpec("s2_2"), AncillaBudget(count))
        assert burnable_deviation(c, IDEAL, N + 1) < 1e-8


def test_burnable_rejects_a_superposed_ancilla():
    anc = BURNT.width - 1
    assert burnable_deviation(with_gates(BURNT, BURNT.gates + (h(anc),)), IDEAL, N + 1) > 0.5


def test_burnable_rejects_a_control_dependent_phase():
    assert burnable_deviation(with_gates(BURNT, BURNT.gates + (rz(0, 1.0),)), IDEAL, N + 1) > 0.4


def test_burnable_rejects_every_single_gate_drop():
    for i, g in enumerate(BURNT.gates):
        if g.controls:
            dropped = BURNT.gates[:i] + BURNT.gates[i + 1:]
            assert burnable_deviation(with_gates(BURNT, dropped), IDEAL, N + 1) > 1e-6, i


# --- the three contracts tell each other apart ----------------------------------

ZEROED_ROUTES = [(family, count, kind) for family in ("s2_2", "s2_3") for count in ("one", "n")
                 for kind in ("mcrx", "mcx")]


@pytest.mark.parametrize("family,count,kind", ZEROED_ROUTES)
def test_zeroed_routes_fail_the_borrowed_contract(family, count, kind):
    # each zeroed route needs its ancillas in |0>: other ancilla inputs go wrong
    ideal = mcx(list(range(N)), N) if kind == "mcx" else IDEAL
    c = decompose(ideal, GateSetSpec(family), AncillaBudget(count))
    assert restricted_deviation(c, ideal, N + 1) < 1e-12
    assert borrowed_deviation(c, ideal, N + 1) > 0.4


def test_borrowed_check_takes_a_rotation_ideal():
    gate = mcrx([0, 1, 2], 3, 0.9)
    assert borrowed_deviation(Circuit(2, 5, (gate,)), gate, 4) == 0.0


def test_a_flipped_ancilla_is_only_burnable():
    gate = mcrx([0, 1, 2], 3, 0.9)
    flipped = Circuit(2, 5, (gate, x(4)))
    assert borrowed_deviation(flipped, gate, 4) == 1.0
    assert restricted_deviation(flipped, gate, 4) == 1.0
    assert burnable_deviation(flipped, gate, 4) == 0.0


# --- the borrowed-line ladder ---------------------------------------------------

@pytest.mark.parametrize("k", [3, 5, 7])
def test_ladder_is_4k_minus_8_toffolis(k):
    gates = ladder_gates(range(k), range(k + 1, 2 * k - 1), k)
    assert len(gates) == 4 * k - 8
    assert all(g.kind == "mcx" and len(g.controls) == 2 for g in gates)


def test_ladder_m4_rungs_take_at_most_3_controls():
    gates = ladder_gates(range(7), range(8, 13), 7, m=4)
    assert max(len(g.controls) for g in gates) == 3


@pytest.mark.parametrize("k, m", [(3, 3), (5, 4)])
def test_ladder_exact_for_every_borrowed_state(k, m):
    assert borrowed_deviation(ladder(k, m), mcx(list(range(k)), k), k + 1) < 1e-12


def test_ladder_requires_enough_borrowed():
    with pytest.raises(DecomposeError):
        ladder_gates(range(5), [6], 5)


def test_ladder_rejects_m_below_3():
    with pytest.raises(DecomposeError):
        ladder_gates(range(5), range(6, 9), 5, m=2)
