"""Unitary-equivalence checks for every circuit that ``decompose`` emits.

Each check simulates a circuit and compares it with the ideal multi-controlled
gate under its ancilla contract: zeroed ancillas start in |0> and must return
to |0>; borrowed lines must be exact for every basis state; burnable
ancillas start in |0> and may end in one basis state fixed by the controls.
The three contracts differ only in which ancilla inputs are run and which
ancilla output each may reach, so one check, ``_contract_deviation``, holds
the comparison for all of them.  The suite runs every (gate set, count,
regime, kind) route of ``decompose`` under the check of its regime, and the
borrowed-line ladder under the borrowed check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import (
    AncillaBudget,
    BORROWED,
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
from .sim import circuit_columns, gate_unitary, unit_phase


class VerifyError(ValueError):
    pass


@dataclass
class CheckResult:
    name: str
    ok: bool
    deviation: float


def _ancilla_block(circuit: Circuit, register_width: int, ancilla: int) -> np.ndarray:
    """The circuit on the inputs whose ancilla lines hold ``ancilla``, as
    (register out, ancilla out, register in).

    Ancilla lines are the trailing lines; only these input columns are
    simulated.
    """
    step = 2 ** (circuit.width - register_width)
    u = circuit_columns(circuit, np.arange(2**register_width) * step + ancilla)
    return u.reshape(2**register_width, step, 2**register_width)


def _contract_deviation(circuit: Circuit, ideal_gate, register_width: int,
                        ancilla_inputs, slot) -> float:
    """Deviation from ideal on the register when each ancilla input may end in one slot.

    For each ancilla input a, ``slot(a, block)`` names the ancilla output
    state that each register input may reach.  The outputs in those slots
    are compared with e^{i phi} ideal, one phase for all inputs, taken from
    the first block at the ideal's largest entry; any amplitude outside
    them is a leak.  Returns the larger of the two over all inputs.
    """
    ideal = gate_unitary(ideal_gate, register_width)
    ref = np.argmax(np.abs(ideal))
    cols = np.arange(len(ideal))
    worst, phase = 0.0, None
    for a in ancilla_inputs:
        block = _ancilla_block(circuit, register_width, a)
        in_slot = (slice(None), slot(a, block), cols)
        out = block[in_slot]
        if phase is None:
            phase = unit_phase(out.flat[ref] / ideal.flat[ref])
        block[in_slot] = out - phase * ideal  # the leak stays as it is
        worst = max(worst, float(np.abs(block).max()))
    return worst


def restricted_deviation(circuit: Circuit, ideal_gate, register_width: int) -> float:
    """Deviation of the circuit from ideal (x) |0><0| on its ancilla lines (zeroed contract)."""
    return _contract_deviation(circuit, ideal_gate, register_width, [0], lambda a, block: 0)


def burnable_deviation(circuit: Circuit, ideal_gate, register_width: int) -> float:
    """Deviation from the burnable contract on ancilla-|0> inputs.

    Each output must be e^{i phi} (ideal |c,t>) (x) |a(c)>: one ancilla basis
    state a(c) that depends on the control bits c alone, and one phase phi
    for all inputs.  The register holds the controls and the ideal's target;
    a(c) is the ancilla state that carries the most weight over both target
    values.
    """
    flip_target = np.arange(2**register_width) ^ (1 << (register_width - 1 - ideal_gate.targets[0]))

    def heaviest(a, block):
        weight = (np.abs(block) ** 2).sum(axis=0)  # (ancilla out, input)
        return (weight + weight[:, flip_target]).argmax(axis=0)

    return _contract_deviation(circuit, ideal_gate, register_width, [0], heaviest)


def borrowed_deviation(circuit: Circuit, ideal_gate, register_width: int) -> float:
    """Deviation from ideal (x) identity on the ancilla lines (borrowed contract).

    Every ancilla basis state is an input and must come back unchanged, so
    the check covers the whole unitary, one ancilla input at a time.
    """
    return _contract_deviation(circuit, ideal_gate, register_width,
                               range(2 ** (circuit.width - register_width)), lambda a, block: a)


def verify_schemes(max_controls: int = 5, angles: int = 20, seed: int = 11,
                   tol: float = 1e-8) -> list[CheckResult]:
    """Check the borrowed-line ladder and every ``decompose`` route up to max_controls.

    The ladder is checked exactly for m=3 and m=4; the s2_2 C^k(X) is the
    m=3 ladder lowered to CX (``decompose.ladder_cx_gates``), so that check
    also covers its rung order.  Each route is checked for n=1..max_controls
    under the contract of its regime, rotations at max(4, angles // 4)
    random angles.
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

    contract = {ZEROED: restricted_deviation, BURNABLE: burnable_deviation,
                BORROWED: borrowed_deviation}
    for m in (3, 4):
        for k in range(3, max_controls + 1):
            gates = ladder_gates(range(k), range(k + 1, 2 * k - 1), k, m)
            width = 1 + max(line for g in gates for line in g.lines)
            record(f"ladder(k={k},m={m})", contract[BORROWED](
                Circuit(2, width, tuple(gates)), mcx(list(range(k)), k), k + 1))

    for family in (S2_2, S2_3):
        for count in (ONE, N_PER_CONTROLS):
            for regime in (ZEROED, BURNABLE):
                deviation, budget = contract[regime], AncillaBudget(count, regime)
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
