"""Dense statevector simulation over 2-level registers.

Runs the circuits of the correctness oracle (``verify`` needs only
``circuit_columns``, ``gate_unitary`` and ``unit_phase``) and holds the
``Statevector`` type of the QAOA experiments.  Line 0 is the most significant
bit of the basis index, so the bitstring of basis state ``b`` is
``format(b, f"0{width}b")`` with character ``i`` belonging to line ``i``.

``apply_circuit``, ``circuit_unitary`` and ``circuit_columns`` share one gate
loop, ``_apply_gates``.  It splits the gates into maximal runs on at most
``FUSION_LINES`` lines.  A one-gate run is applied in place, on strided
views of the amplitude tensor; a longer run is multiplied out into one small
matrix and applied a chunk of columns at a time (gate clustering, as in
Häner & Steiger, arXiv:1704.01127).
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


def _check_gate(gate: Gate, width: int) -> None:
    """Reject a gate that a 2-level register of this width cannot run."""
    lines = gate.lines
    if len(set(lines)) != len(lines):
        raise SimulationError(f"gate uses a line twice (target or control): {lines}")
    for line in lines:
        if not 0 <= line < width:
            raise SimulationError(f"gate line {line} exceeds width {width}")
    for _, pol in gate.controls:
        if pol == POS2:
            raise SimulationError("qutrit controls cannot be simulated on a 2-level register")
        if pol not in (POS1, NEG0):
            raise SimulationError(f"unknown polarity {pol!r}")


def _check_contiguous(amps: np.ndarray) -> None:
    # reshape silently copies a non-contiguous array, and the writes would be lost
    if not amps.flags.c_contiguous:
        raise SimulationError("amplitudes must be C-contiguous to be updated in place")


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, width: int) -> None:
    """Apply a gate to raw amplitudes in place; amps is 1-D or (2^w, batch).

    The amplitudes are viewed as a (2,)*width (+ batch) tensor.  Each control
    axis is fixed to the index its polarity fires on, and the target axis
    split into its 0 and 1 halves; both halves are views, updated in place.
    """
    _check_contiguous(amps)
    _check_gate(gate, width)
    idx: list = [slice(None)] * width
    for line, pol in gate.controls:
        idx[line] = 1 if pol == POS1 else 0
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


# A run of gates on at most this many lines is applied as one 2^k x 2^k matrix.
FUSION_LINES = 3
# A fused matrix is applied to columns holding about this many entries at a time (4 MiB).
CHUNK_ENTRIES = 1 << 18


def _runs(gates, width: int) -> list[tuple[list[Gate], set[int]]]:
    """Check each gate, then split the gates into maximal runs on at most FUSION_LINES lines."""
    runs: list[tuple[list[Gate], set[int]]] = []
    for g in gates:
        _check_gate(g, width)
        if runs and len(runs[-1][1].union(g.lines)) <= FUSION_LINES:
            runs[-1][0].append(g)
            runs[-1][1].update(g.lines)
        else:
            runs.append(([g], set(g.lines)))
    return runs


def _run_matrix(run: list[Gate], lines: list[int]) -> np.ndarray:
    """The run's unitary on ``lines`` (lines[0] most significant), gate by gate from I."""
    pos = {line: i for i, line in enumerate(lines)}
    mat = np.eye(2 ** len(lines), dtype=complex)
    for g in run:
        local = Gate(g.kind, tuple(pos[t] for t in g.targets),
                     tuple((pos[line], pol) for line, pol in g.controls), g.angle, g.matrix)
        _apply_gate_inplace(mat, local, len(lines))
    return mat


def _apply_gates(mat: np.ndarray, gates, width: int) -> None:
    """Apply the gates in order to mat in place; mat is 1-D or (2^w, batch).

    Every gate is checked against the full width first.  A run of one gate
    goes through the in-place kernel.  A longer run is multiplied out on its
    k lines and applied as one 2^k x 2^k matrix, a chunk of columns at a
    time: the run's axes are gathered to the front, multiplied and scattered
    back, through two buffers that every chunk reuses (a fresh array of a few
    MB costs more in page faults than the product).
    """
    _check_contiguous(mat)
    tensor = mat.reshape((2,) * width + (-1,))  # a view: mat is contiguous
    step = max(1, CHUNK_ENTRIES // 2**width)
    buffers = None
    for run, run_lines in _runs(gates, width):
        if len(run) == 1:
            _apply_gate_inplace(mat, run[0], width)
            continue
        lines = sorted(run_lines)
        u = _run_matrix(run, lines)
        if buffers is None:
            size = 2**width * min(step, tensor.shape[-1])
            buffers = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        for c0 in range(0, tensor.shape[-1], step):
            moved = np.moveaxis(tensor[..., c0:c0 + step], lines, range(len(lines)))
            gathered = buffers[0][:moved.size].reshape(len(u), -1)
            product = buffers[1][:moved.size].reshape(len(u), -1)
            np.copyto(gathered.reshape(moved.shape), moved)
            np.matmul(u, gathered, out=product)
            np.copyto(moved, product.reshape(moved.shape))


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    amps = state.amplitudes.copy()
    _apply_gates(amps, circuit.gates, state.width)
    return Statevector(amps, state.width)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (product of gate matrices in order)."""
    if c.width > MAX_UNITARY_WIDTH:
        raise SimulationError(f"width {c.width} exceeds dense-unitary limit {MAX_UNITARY_WIDTH}")
    mat = np.eye(2**c.width, dtype=complex)
    _apply_gates(mat, c.gates, c.width)
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
    _apply_gates(mat, c.gates, c.width)
    return mat


def unit_phase(z: complex) -> complex:
    """z / |z|, or 1 when z is too small to carry a phase."""
    return z / abs(z) if abs(z) >= 1e-12 else 1.0


def phase_aligned_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """min over global phase of the elementwise max deviation |a - e^{i phi} b|."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise SimulationError(f"shape mismatch {a.shape} vs {b.shape}")
    k = np.argmax(np.abs(b))
    ref = b.flat[k]
    # no usable reference amplitude: compare without phase alignment
    phase = unit_phase(a.flat[k] / ref if abs(ref) >= 1e-12 else 0.0)
    return float(np.max(np.abs(a - phase * b)))
