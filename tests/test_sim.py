from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdecomp import sim
from mcdecomp.ir import Circuit, Gate, NEG0, POS1, POS2, ccx, cx, h, mcrx, mcx, rx, ry, rz, t_gate, x
from mcdecomp.sim import (
    SimulationError,
    _apply_gate_inplace,
    _apply_gates,
    Statevector,
    apply_circuit,
    bits_to_index,
    circuit_columns,
    circuit_unitary,
    phase_aligned_deviation,
)


def _apply_one(state, gate):
    """Apply one gate through a one-gate circuit."""
    return apply_circuit(state, Circuit(2, state.width, (gate,)))


def test_x_flips_zero():
    s = _apply_one(Statevector.zero(1), x(0))
    assert abs(s.amplitudes[1] - 1) < 1e-12


def test_ccx_on_110():
    s = _apply_one(Statevector.basis(3, (1, 1, 0)), ccx(0, 1, 2))
    assert abs(s.amplitudes[bits_to_index((1, 1, 1))] - 1) < 1e-12


def test_rx_pi_gives_minus_i_one():
    s = _apply_one(Statevector.zero(1), rx(0, np.pi))
    assert abs(s.amplitudes[1] - (-1j)) < 1e-12
    assert abs(s.amplitudes[0]) < 1e-12


def test_open_control_fires_on_zero():
    g = Gate("mcx", (1,), ((0, NEG0),))
    s = _apply_one(Statevector.zero(2), g)
    assert abs(s.amplitudes[bits_to_index((0, 1))] - 1) < 1e-12


def test_empty_circuit_unitary_is_identity():
    assert np.allclose(circuit_unitary(Circuit(2, 3, ())), np.eye(8))


def test_width_limit_enforced():
    with pytest.raises(SimulationError):
        circuit_unitary(Circuit(2, 13, ()))


def test_apply_gate_rejects_out_of_range():
    with pytest.raises(SimulationError):
        _apply_one(Statevector.zero(2), x(4))


def test_apply_matches_unitary_times_vector():
    rng = np.random.default_rng(5)
    gates = (h(0), ccx(0, 1, 3), mcrx([2, 3], 1, 0.77), rz(2, 0.3), mcx([0, (1, NEG0)], 2))
    c = Circuit(2, 4, gates)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    s = Statevector(amps, 4)
    direct = apply_circuit(s, c).amplitudes
    via_matrix = circuit_unitary(c) @ amps
    assert np.max(np.abs(direct - via_matrix)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_preserved_under_random_gates(seed):
    rng = np.random.default_rng(seed)
    width = 4
    s = Statevector.zero(width)
    for _ in range(40):
        kind = rng.integers(0, 4)
        lines = rng.permutation(width)
        if kind == 0:
            g = rx(int(lines[0]), float(rng.uniform(-3, 3)))
        elif kind == 1:
            g = h(int(lines[0]))
        elif kind == 2:
            g = mcx([int(lines[0]), int(lines[1])], int(lines[2]))
        else:
            g = mcrx([int(lines[0])], int(lines[1]), float(rng.uniform(-3, 3)))
        s = _apply_one(s, g)
    assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-9


def test_phase_alignment():
    a = np.diag([1, 1j])
    assert phase_aligned_deviation(a, np.exp(0.7j) * a) <= 1e-12
    assert phase_aligned_deviation(a, np.diag([1, -1j])) > 0.5


# --- cross-checks against unitaries built from np.kron ----------------------

_I2 = np.eye(2)
_X = np.array([[0, 1], [1, 0]])
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1, -1])
_PROJ = {POS1: np.diag([0, 1]), NEG0: np.diag([1, 0])}


def _rotation(pauli, angle):
    return np.cos(angle / 2) * _I2 - 1j * np.sin(angle / 2) * pauli


def _block(kind, angle=None, matrix=None):
    """The 2x2 target action, written out here independently of ir."""
    return {
        "x": lambda: _X, "mcx": lambda: _X,
        "h": lambda: (_X + _Z) / np.sqrt(2),
        "t": lambda: np.diag([1, np.exp(1j * np.pi / 4)]),
        "tdg": lambda: np.diag([1, np.exp(-1j * np.pi / 4)]),
        "s": lambda: np.diag([1, 1j]), "sdg": lambda: np.diag([1, -1j]),
        "rx": lambda: _rotation(_X, angle), "mcrx": lambda: _rotation(_X, angle),
        "ry": lambda: _rotation(_Y, angle), "rz": lambda: _rotation(_Z, angle),
        "u": lambda: np.asarray(matrix),
    }[kind]()


def _kron_unitary(gate, width):
    """I + P_fire (x) (U - I) on the target, as a kron product over lines 0..width-1."""
    controls = dict(gate.controls)
    target = gate.targets[0]

    def kron_all(target_block):
        out = np.eye(1)
        for line in range(width):
            if line == target:
                factor = target_block
            else:
                factor = _PROJ[controls[line]] if line in controls else _I2
            out = np.kron(out, factor)
        return out

    return np.eye(2**width) + kron_all(_block(gate.kind, gate.angle, gate.matrix) - _I2)


SINGLE = ("x", "h", "t", "tdg", "s", "sdg", "rx", "ry", "rz", "u")


def _random_gate(rng, width, kind):
    """A gate of the given kind on random lines; mcx/mcrx get random +/- controls."""
    target, *rest = (int(v) for v in rng.permutation(width))
    angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
    if kind in ("mcx", "mcrx"):
        controls = tuple((line, POS1 if rng.random() < 0.5 else NEG0)
                         for line in rest[:rng.integers(1, len(rest) + 1)])
        return Gate(kind, (target,), controls, angle if kind == "mcrx" else None)
    if kind == "u":
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return Gate("u", (target,), matrix=tuple(tuple(complex(v) for v in row) for row in q))
    return Gate(kind, (target,), angle=angle if kind in ("rx", "ry", "rz") else None)


@pytest.mark.parametrize("width", range(1, 8))
def test_kernel_matches_kron_unitary(width):
    rng = np.random.default_rng(100 + width)
    kinds = SINGLE + (("mcx", "mcrx") * 5 if width > 1 else ())
    gates = [_random_gate(rng, width, kind) for kind in kinds * 2]
    for gate in gates:
        u = _kron_unitary(gate, width)
        state = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        batch = rng.normal(size=(2**width, 3)) + 1j * rng.normal(size=(2**width, 3))
        want_state, want_batch = u @ state, u @ batch
        _apply_gate_inplace(state, gate, width)
        _apply_gate_inplace(batch, gate, width)
        assert np.max(np.abs(state - want_state)) < 1e-12, gate
        assert np.max(np.abs(batch - want_batch)) < 1e-12, gate
    product = np.linalg.multi_dot([np.eye(2**width)] + [_kron_unitary(g, width) for g in reversed(gates)])
    assert np.max(np.abs(circuit_unitary(Circuit(2, width, tuple(gates))) - product)) < 1e-10


def test_kernel_rejects_target_that_is_also_a_control():
    bad = Gate("mcx", (1,), ((0, POS1), (1, POS1)))
    with pytest.raises(SimulationError):
        _apply_one(Statevector.zero(2), bad)
    with pytest.raises(SimulationError):
        circuit_unitary(Circuit(2, 2, (Gate("mcrx", (0,), ((0, NEG0),), 0.3),)))


def test_kernel_rejects_non_contiguous_amplitudes():
    for apply in (lambda a: _apply_gate_inplace(a, x(0), 2),
                  lambda a: _apply_gates(a, [h(0), cx(0, 1), t_gate(1)], 2)):
        with pytest.raises(SimulationError):
            apply(np.zeros((3, 4), dtype=complex).T)
        with pytest.raises(SimulationError):
            apply(np.zeros(8, dtype=complex)[::2])


def test_kernel_rejects_qutrit_and_unknown_polarities():
    for pol in (POS2, "?"):
        with pytest.raises(SimulationError):
            _apply_one(Statevector.zero(2), Gate("mcx", (1,), ((0, pol),)))


# --- the fused gate loop against one gate at a time ---------------------------

def _one_gate_at_a_time(mat, gates, width):
    """The reference loop: every gate through the in-place kernel, in order."""
    for gate in gates:
        _apply_gate_inplace(mat, gate, width)
    return mat


ALPHABETS = {  # mixed runs, runs of only diagonal gates, runs of only X gates
    "mixed": SINGLE + ("mcx", "mcrx"), "diagonal": ("t", "tdg", "s", "sdg", "rz"), "x": ("x", "mcx"),
}


@st.composite
def _circuits(draw):
    """Gates on widths 1-8; mcx/mcrx take 1..width-1 controls of either polarity."""
    width = draw(st.integers(1, 8))
    alphabet = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]
    if width == 1:
        alphabet = tuple(k for k in alphabet if k not in ("mcx", "mcrx"))
    kinds = draw(st.lists(st.sampled_from(alphabet), max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Circuit(2, width, tuple(_random_gate(rng, width, kind) for kind in kinds))


@settings(max_examples=80, deadline=None)
@given(_circuits(), st.sampled_from(["one column", "few columns", "default"]), st.integers(0, 2**32 - 1))
def test_fused_loop_matches_one_gate_at_a_time(circuit, chunk, seed):
    width, dim = circuit.width, 2**circuit.width
    entries = {"one column": 1, "few columns": 3 * dim, "default": sim.CHUNK_ENTRIES}[chunk]
    rng = np.random.default_rng(seed)
    columns = rng.choice(dim, size=min(dim, 5), replace=False)
    block = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    with mock.patch.object(sim, "CHUNK_ENTRIES", entries):  # small chunks: runs cross them
        unitary = circuit_unitary(circuit)
        some_columns = circuit_columns(circuit, columns)
        got_block, got_state = block.copy(), state.copy()
        _apply_gates(got_block, circuit.gates, width)
        _apply_gates(got_state, circuit.gates, width)
    want = _one_gate_at_a_time(np.eye(dim, dtype=complex), circuit.gates, width)
    for got, expected in [(unitary, want), (some_columns, want[:, columns]),
                          (got_block, _one_gate_at_a_time(block, circuit.gates, width)),
                          (got_state, _one_gate_at_a_time(state, circuit.gates, width))]:
        assert np.max(np.abs(got - expected)) < 1e-12


def test_fused_loop_applies_gates_wider_than_a_run_in_place():
    wide = mcx([0, (1, NEG0), 2, (3, NEG0)], 5)
    assert wide.arity > sim.FUSION_LINES
    gates = (h(0), t_gate(1), cx(0, 1), rz(1, 0.4), wide, h(5), ry(4, 0.3), cx(5, 4), wide, x(2))
    want = _one_gate_at_a_time(np.eye(64, dtype=complex), gates, 6)
    with mock.patch.object(sim, "CHUNK_ENTRIES", 64 * 5):
        assert np.max(np.abs(circuit_unitary(Circuit(2, 6, gates)) - want)) < 1e-12


def _reference_deviation(a, b):
    k = np.argmax(np.abs(b))
    phase = a.flat[k] / b.flat[k]
    phase /= abs(phase)
    return float(np.max(np.abs(a - phase * b)))


@pytest.mark.parametrize("shape", [(1,), (1000,), (70_001,), (300, 7), (513, 200), (3, 70_000)])
def test_blockwise_deviation_matches_full_array(shape):
    rng = np.random.default_rng(sum(shape))
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a = np.exp(0.4j) * b + 1e-6 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    assert abs(phase_aligned_deviation(a, b) - _reference_deviation(a, b)) < 1e-15
    zero = np.zeros(shape, dtype=complex)
    assert phase_aligned_deviation(a, zero) == float(np.max(np.abs(a)))
    strided = np.repeat(a, 2, axis=-1)[..., ::2]  # equal to a, but a strided view
    assert phase_aligned_deviation(strided, b) == phase_aligned_deviation(a, b)
