"""Unitary-equivalence checks for every circuit that ``decompose`` emits.

Each check simulates a circuit and compares it with the ideal multi-controlled
gate under its ancilla contract: zeroed ancillas start in |0> and must return
to |0>; borrowed lines must be exact for every basis state; burnable
ancillas start in |0> and may end in one basis state fixed by the controls.
The suite runs every (gate set, count, regime, kind) route of ``decompose``
under the check of its regime, and the borrowed-line ladder exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import (
    AncillaBudget,
    BURNABLE,
    Circuit,
    GateSetSpec,
    N_PER_CONTROLS,
    ONE,
    S2_2,
    S2_3,
    ZEROED,
    mcrx,
    mcx,
)
from .decompose import decompose, ladder_gates
from .sim import (
    MAX_UNITARY_WIDTH,
    SimulationError,
    _apply_gate_inplace,
    circuit_columns,
    column_chunk,
    gate_unitary,
    identity_deviation,
    phase_aligned_deviation,
    unit_phase,
)


class VerifyError(ValueError):
    pass


@dataclass
class CheckResult:
    name: str
    ok: bool
    deviation: float


def _ancilla_zero_block(circuit: Circuit, register_width: int) -> np.ndarray:
    """The circuit on its ancilla-|0> inputs, as (register out, ancilla out, input).

    Ancilla lines are the trailing lines; only these input columns are
    simulated.
    """
    step = 2 ** (circuit.width - register_width)
    u = circuit_columns(circuit, np.arange(2**register_width) * step)
    return u.reshape(2**register_width, step, 2**register_width)


def _slot_deviation(block: np.ndarray, slots: np.ndarray, ideal: np.ndarray) -> float:
    """Deviation from ideal when input column j may only reach ancilla state slots[j].

    Covers the block in those slots (up to one global phase) and any
    amplitude that leaks out of them.
    """
    cols = np.arange(block.shape[2])
    dev = phase_aligned_deviation(block[:, slots, cols], ideal)
    leak = np.abs(block)
    leak[:, slots, cols] = 0.0
    return max(dev, float(leak.max()))


def restricted_deviation(circuit: Circuit, ideal_gate, register_width: int) -> float:
    """Deviation of the circuit from ideal (x) |0><0| on its ancilla lines (zeroed contract)."""
    block = _ancilla_zero_block(circuit, register_width)
    return _slot_deviation(block, np.zeros(block.shape[2], dtype=int),
                           gate_unitary(ideal_gate, register_width))


def burnable_deviation(circuit: Circuit, ideal_gate, register_width: int) -> float:
    """Deviation from the burnable contract on ancilla-|0> inputs.

    Each output must be e^{i phi} (ideal |c,t>) (x) |a(c)>: one ancilla basis
    state a(c) that depends on the control bits c alone, and one phase phi
    for all inputs.  The register holds the controls and the ideal's target;
    a(c) is the ancilla state that carries the most weight over both target
    values.
    """
    block = _ancilla_zero_block(circuit, register_width)
    weight = (np.abs(block) ** 2).sum(axis=0)  # (ancilla out, input)
    flip_target = np.arange(block.shape[2]) ^ (1 << (register_width - 1 - ideal_gate.targets[0]))
    slots = (weight + weight[:, flip_target]).argmax(axis=0)
    return _slot_deviation(block, slots, gate_unitary(ideal_gate, register_width))


def exact_deviation(circuit: Circuit, ideal_gate) -> float:
    """Deviation from ideal (x) identity over the full register (borrowed contract).

    The unitary is never built whole: the circuit runs on one block of basis
    columns at a time.  The ideal is an X or MCX, a permutation that is its
    own inverse, so it is applied to each block's rows in place and the
    product is compared with those columns of e^{i phi} I, the phase taken
    from entry (0, 0): the same entries as U - e^{i phi} V, one for one.
    """
    if ideal_gate.kind not in ("x", "mcx"):
        raise VerifyError(f"exact_deviation needs an x or mcx ideal, got {ideal_gate.kind!r}")
    if circuit.width > MAX_UNITARY_WIDTH:
        raise SimulationError(f"width {circuit.width} exceeds dense-unitary limit {MAX_UNITARY_WIDTH}")
    dim = 2**circuit.width
    step = column_chunk(dim)
    worst, phase = 0.0, None
    for start in range(0, dim, step):
        block = circuit_columns(circuit, range(start, min(start + step, dim)))
        _apply_gate_inplace(block, ideal_gate, circuit.width)
        if phase is None:
            phase = unit_phase(block[0, 0])
        worst = max(worst, identity_deviation(block, start, phase))
    return worst


def verify_schemes(max_controls: int = 5, angles: int = 20, seed: int = 11,
                   tol: float = 1e-8) -> list[CheckResult]:
    """Check the borrowed-line ladder and every ``decompose`` route up to max_controls.

    The ladder is checked exactly for m=3 and m=4; each route is checked for
    n=1..max_controls under the contract of its regime, rotations at
    max(4, angles // 4) random angles.
    """
    if not 1 <= max_controls <= 6:
        raise VerifyError("matrix oracle needs 1 <= max_controls <= 6 (width 2n-1)")
    if angles < 1:
        raise VerifyError(f"angles must be >= 1, got {angles}")
    if not tol >= 0:  # also false for NaN, which would fail every check
        raise VerifyError(f"tol must be >= 0, got {tol!r}")
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def record(name: str, dev: float) -> None:
        results.append(CheckResult(name, dev <= tol, dev))

    for m in (3, 4):
        for k in range(3, max_controls + 1):
            gates = ladder_gates(range(k), range(k + 1, 2 * k - 1), k, m)
            width = 1 + max(line for g in gates for line in g.lines)
            record(f"ladder(k={k},m={m})",
                   exact_deviation(Circuit(2, width, tuple(gates)), mcx(list(range(k)), k)))

    contract = {ZEROED: restricted_deviation, BURNABLE: burnable_deviation}
    for family in (S2_2, S2_3):
        for count in (ONE, N_PER_CONTROLS):
            for regime, deviation in contract.items():
                budget = AncillaBudget(count, regime)
                for kind in ("mcrx", "mcx"):
                    for n in range(1, max_controls + 1):
                        controls = list(range(n))
                        if kind == "mcx":
                            ideals = [mcx(controls, n)]
                        else:
                            ideals = [mcrx(controls, n, float(th)) for th in
                                      rng.uniform(0, 2 * np.pi, max(4, angles // 4))]
                        record(f"decompose({family},{count},{regime},{kind},n={n})",
                               max(deviation(decompose(g, GateSetSpec(family), budget), g, n + 1)
                                   for g in ideals))
    return results
