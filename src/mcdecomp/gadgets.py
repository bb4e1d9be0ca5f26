"""CNOT-level building blocks used by the decomposition routes.

Everything here returns plain gate lists over {single-qubit, CX}; the routes
in ``decompose`` assemble them into circuits.  ``lrrccx_gates`` is the
relative-phase Toffoli with a droppable wing; ``decompose.ladder_cx_gates``
lowers the borrowed-line ladder's rungs to it, which lands that ladder on
8k-6 CNOTs per multi-controlled NOT.
"""
from __future__ import annotations

import numpy as np

from .ir import Gate, cx, h, mcx, ry, rz, t_gate, tdg, u_gate

QUARTER = np.pi / 4

# Matrix of "apply T then H" — the one merged single-qubit gate in the
# CNOT-level Toffoli, which keeps it at 8 single-qubit gates.
_H_AFTER_T = (np.array([[1, 1], [1, -1]]) / np.sqrt(2)) @ np.diag(
    [1.0, np.exp(1j * QUARTER)]
)


def crx_gates(c: int, t: int, theta: float) -> list[Gate]:
    """Controlled Rx from 2 CX and 4 single-qubit rotations (1-control SU(2) split)."""
    return su2_split_gates([c], t, theta, [cx(c, t)])


def compact_c2rx_gates(c1: int, c2: int, t: int, theta: float) -> list[Gate]:
    """Doubly-controlled Rx from 6 CX, via term-by-term Z-parity rotations.

    A 4-CX form exists (walk the parities in Gray order), but the 6-CX layout
    is kept because it is the count the rest of the tables build on.
    """
    return [
        h(t),
        cx(c2, t), rz(t, -theta / 4), cx(c2, t),
        rz(t, theta / 4),
        cx(c1, t), rz(t, -theta / 4),
        cx(c2, t), rz(t, theta / 4), cx(c2, t),
        cx(c1, t),
        h(t),
    ]


def toffoli_cx_gates(a: int, b: int, t: int) -> list[Gate]:
    """Exact Toffoli: 6 CX and 8 single-qubit gates (adjacent T.H merged)."""
    return [
        h(t),
        cx(b, t), tdg(t),
        cx(a, t), t_gate(t),
        cx(b, t), tdg(t),
        cx(a, t), u_gate(t, _H_AFTER_T),
        t_gate(b),
        cx(a, b), t_gate(a), tdg(b), cx(a, b),
    ]


def margolus_gates(a: int, b: int, t: int) -> list[Gate]:
    """Relative-phase Toffoli (3 CX), exact whenever the target starts in |0>.

    Equal to CCX times a -1 phase on the single state (a=0, b=1, t=1); since
    that state has t=1, the gate acts identically to CCX on t=|0> inputs, and
    it is an involution, so a second application uncomputes exactly.
    """
    return [
        ry(t, QUARTER), cx(a, t),
        ry(t, QUARTER), cx(b, t),
        ry(t, -QUARTER), cx(a, t),
        ry(t, -QUARTER),
    ]


def lrrccx_gates(a: int, b: int, t: int, cancel: str | None = None) -> list[Gate]:
    """Relative-phase Toffoli with a droppable wing (3 CX full, 2 CX halved).

    Wing CXs are controlled on ``a``, the middle CX on ``b``.  ``cancel`` is
    "left" or "right" when the corresponding wing is cancelled against an
    adjacent gate in a chain.
    """
    gates: list[Gate] = []
    if cancel != "left":
        gates += [ry(t, -QUARTER), cx(a, t), ry(t, -QUARTER)]
    gates.append(cx(b, t))
    if cancel != "right":
        gates += [ry(t, QUARTER), cx(a, t), ry(t, QUARTER)]
    return gates


def su2_split_gates(controls, target: int, theta: float, mcx_gates=None) -> list[Gate]:
    """Rotation split of C^n(Rx): Rz, Ry, MCX, Ry, MCX, Rz on the target.

    ``mcx_gates`` optionally supplies the gates of both multi-controlled
    NOTs; it defaults to the bare MCX gate.
    """
    if mcx_gates is None:
        mcx_gates = [mcx(controls, target)]
    return (
        [rz(target, np.pi / 2), ry(target, theta / 2)]
        + list(mcx_gates)
        + [ry(target, -theta / 2)]
        + list(mcx_gates)
        + [rz(target, -np.pi / 2)]
    )
