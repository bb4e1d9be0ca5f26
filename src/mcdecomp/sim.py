"""Dense statevector simulation over 2-level registers.

Serves as the correctness oracle for decompositions and the backend for the
QAOA experiments.  Line 0 is the most significant bit of the basis index, so
the bitstring of basis state ``b`` is ``format(b, f"0{width}b")`` with
character ``i`` belonging to line ``i``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate, NEG0, POS1, POS2

MAX_UNITARY_WIDTH = 12


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class Statevector:
    """Normalized complex amplitude vector over 2^width basis states."""

    amplitudes: np.ndarray
    width: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.width,):
            raise SimulationError(f"expected {2**self.width} amplitudes, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise SimulationError(f"state norm {norm} deviates from 1 by more than 1e-9")
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def zero(width: int) -> "Statevector":
        amps = np.zeros(2**width, dtype=complex)
        amps[0] = 1.0
        return Statevector(amps, width)

    @staticmethod
    def basis(width: int, bits) -> "Statevector":
        amps = np.zeros(2**width, dtype=complex)
        amps[bits_to_index(bits)] = 1.0
        return Statevector(amps, width)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def bits_to_index(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, width: int) -> None:
    """Apply a gate to raw amplitudes in place; amps is 1-D or (2^w, batch).

    The amplitudes are viewed as a (2,)*width (+ batch) tensor.  Each control
    axis is fixed to the index its polarity fires on, and the target axis
    split into its 0 and 1 halves; both halves are views, updated in place.
    """
    if not amps.flags.c_contiguous:
        raise SimulationError("amplitudes must be C-contiguous to be updated in place")
    lines = gate.lines
    if len(set(lines)) != len(lines):
        raise SimulationError(f"gate uses a line twice (target or control): {lines}")
    for line in lines:
        if not 0 <= line < width:
            raise SimulationError(f"gate line {line} exceeds width {width}")
    idx: list = [slice(None)] * width
    for line, pol in gate.controls:
        if pol == POS1:
            idx[line] = 1
        elif pol == NEG0:
            idx[line] = 0
        elif pol == POS2:
            raise SimulationError("qutrit controls cannot be simulated on a 2-level register")
        else:
            raise SimulationError(f"unknown polarity {pol!r}")
    tensor = amps.reshape((2,) * width + amps.shape[1:])
    target = gate.targets[0]
    idx[target] = 0
    a0 = tensor[(*idx, ...)]  # the trailing ellipsis keeps width-1 halves 0-d views
    idx[target] = 1
    a1 = tensor[(*idx, ...)]

    m = gate.matrix1q()
    if m[0, 1] == 0 and m[1, 0] == 0:  # diagonal: t, s, rz and their kin
        a0 *= m[0, 0]
        a1 *= m[1, 1]
        return
    old0 = a0.copy()
    if gate.kind in ("x", "mcx"):
        a0[...] = a1
        a1[...] = old0
        return
    a0 *= m[0, 0]
    a0 += m[0, 1] * a1
    a1 *= m[1, 1]
    old0 *= m[1, 0]
    a1 += old0


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    amps = state.amplitudes.copy()
    for g in circuit.gates:
        _apply_gate_inplace(amps, g, state.width)
    return Statevector(amps, state.width)


def circuit_unitary(c: Circuit, width: int | None = None) -> np.ndarray:
    """Dense unitary of the whole circuit (product of gate matrices in order)."""
    w = c.width if width is None else width
    if w > MAX_UNITARY_WIDTH:
        raise SimulationError(f"width {w} exceeds dense-unitary limit {MAX_UNITARY_WIDTH}")
    mat = np.eye(2**w, dtype=complex)
    for g in c.gates:
        _apply_gate_inplace(mat, g, w)
    return mat


def gate_unitary(g: Gate, width: int) -> np.ndarray:
    if width > MAX_UNITARY_WIDTH:
        raise SimulationError(f"width {width} exceeds dense-unitary limit {MAX_UNITARY_WIDTH}")
    mat = np.eye(2**width, dtype=complex)
    _apply_gate_inplace(mat, g, width)
    return mat


def circuit_columns(c: Circuit, columns) -> np.ndarray:
    """Apply the circuit to the given basis-state columns only.

    Returns a (2^width, len(columns)) matrix; much cheaper than the full
    unitary when only a subspace of inputs matters.
    """
    if c.width > MAX_UNITARY_WIDTH + 4:
        raise SimulationError(f"width {c.width} too large for dense columns")
    columns = np.asarray(list(columns), dtype=int)
    mat = np.zeros((2**c.width, len(columns)), dtype=complex)
    mat[columns, np.arange(len(columns))] = 1.0
    for g in c.gates:
        _apply_gate_inplace(mat, g, c.width)
    return mat


# Rows per block are chosen so that one block holds about this many entries.
_DEVIATION_BLOCK = 1 << 16


def _max_deviation(a: np.ndarray, b: np.ndarray, phase: complex = 1.0) -> float:
    """max |a - phase * b| over blocks of leading-axis rows, never full-size temporaries."""
    a2 = a.reshape(len(a), -1) if a.ndim else a.reshape(1, 1)
    b2 = b.reshape(a2.shape)
    rows = max(1, _DEVIATION_BLOCK // max(1, a2.shape[1]))
    return max(float(np.max(np.abs(a2[r:r + rows] - phase * b2[r:r + rows])))
               for r in range(0, len(a2), rows))


def phase_aligned_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """min over global phase of the elementwise max deviation |a - e^{i phi} b|."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise SimulationError(f"shape mismatch {a.shape} vs {b.shape}")
    k = np.argmax(np.abs(b))
    ref = b.flat[k]
    phase = a.flat[k] / ref if abs(ref) >= 1e-12 else 0.0
    # no usable reference amplitude: compare without phase alignment
    phase = phase / abs(phase) if abs(phase) >= 1e-12 else 1.0
    return _max_deviation(a, b, phase)


def identity_deviation(a: np.ndarray) -> float:
    """``phase_aligned_deviation(a, I)`` for a square matrix, without a dense identity.

    The phase comes from ``a[0, 0]`` as it would from I's first entry; off the
    diagonal each entry is compared with 0 and on it with the phase, over
    blocks of rows.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SimulationError(f"expected a square matrix, got shape {a.shape}")
    phase = a[0, 0]
    phase = phase / abs(phase) if abs(phase) >= 1e-12 else 1.0
    rows = max(1, _DEVIATION_BLOCK // len(a))
    worst = 0.0
    for r in range(0, len(a), rows):
        block = np.abs(a[r:r + rows])
        i = np.arange(len(block))
        block[i, r + i] = np.abs(a[r + i, r + i] - phase)
        worst = max(worst, float(block.max()))
    return worst

