"""Unitary-equivalence checks for every decomposition scheme.

Each check builds the scheme circuit, computes its dense unitary, and
compares against the ideal multi-controlled gate under the scheme's ancilla
contract: zeroed ancillas are restricted to |0> inputs and must return to
|0>; borrowed lines must be exact for every basis state; burnable schemes are
checked on computational-basis inputs and as paired compute/uncompute inside
the mixer body.
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
from .decompose import compile_partial_mixer, decompose
from .schemes import (
    borrowed_ladder,
    burnable_ladder,
    generalized_ladder,
    half_split_borrowed_x,
    half_split_zeroed,
    n_ancilla_ladder,
    su2_split,
)
from .sim import (
    MAX_UNITARY_WIDTH,
    _apply_gate_inplace,
    circuit_unitary,
    gate_unitary,
    identity_deviation,
    phase_aligned_deviation,
)


class VerifyError(ValueError):
    pass


@dataclass
class CheckResult:
    name: str
    ok: bool
    deviation: float


def restricted_deviation(circuit: Circuit, ideal_gate, register_width: int) -> float:
    """Deviation of the circuit from ideal (x) |0><0| on its ancilla lines.

    Ancilla lines are the trailing lines; the check covers both the restricted
    block (up to global phase) and leakage out of the ancilla-|0> subspace.
    Only the ancilla-|0> input columns are simulated.
    """
    from .sim import circuit_columns

    ideal = gate_unitary(ideal_gate, register_width)
    n_anc = circuit.width - register_width
    step = 2**n_anc
    cols = np.arange(2**register_width) * step
    u = circuit_columns(circuit, cols)
    sub = u[::step, :]
    dev = phase_aligned_deviation(sub, ideal)
    leak = np.abs(u).copy()
    leak[::step, :] = 0.0
    return max(dev, float(leak.max()))


def exact_deviation(circuit: Circuit, ideal_gate) -> float:
    """Deviation from ideal (x) identity over the full register (borrowed contract).

    The ideal is an X or MCX, a permutation that is its own inverse, so it is
    applied to the rows of the circuit's unitary in place and the product is
    compared with e^{i phi} I: the same entries as U - e^{i phi} V, one for
    one, without a second dense matrix.
    """
    if ideal_gate.kind not in ("x", "mcx"):
        raise VerifyError(f"exact_deviation needs an x or mcx ideal, got {ideal_gate.kind!r}")
    u = circuit_unitary(circuit)
    _apply_gate_inplace(u, ideal_gate, circuit.width)
    return identity_deviation(u)


def _basis_ladder_check(n: int) -> float:
    """Burnable ladder on basis inputs: target flips iff all controls are 1."""
    c = burnable_ladder(n)
    width = c.width
    u = circuit_unitary(c)
    worst = 0.0
    for controls_bits in range(2**n):
        for tbit in (0, 1):
            bits = [(controls_bits >> (n - 1 - i)) & 1 for i in range(n)]
            idx_in = 0
            for i in range(n):
                idx_in |= bits[i] << (width - 1 - i)
            idx_in |= tbit << (width - 1 - n)
            col = u[:, idx_in]
            out = int(np.argmax(np.abs(col)))
            if abs(abs(col[out]) - 1.0) > 1e-9:
                return 1.0
            expect_t = tbit ^ int(all(bits))
            got_t = (out >> (width - 1 - n)) & 1
            got_controls = [(out >> (width - 1 - i)) & 1 for i in range(n)]
            if got_t != expect_t or got_controls != bits:
                return 1.0
            worst = max(worst, abs(abs(col[out]) - 1.0))
    return worst


def verify_schemes(max_controls: int = 5, angles: int = 20, seed: int = 11,
                   tol: float = 1e-8) -> list[CheckResult]:
    """Run the oracle suite for every scheme and gate set up to max_controls."""
    if max_controls > 6:
        raise VerifyError("matrix oracle is limited to 6 controls (width 2n-1)")
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def angle_set(k: int = angles):
        return [float(a) for a in rng.uniform(0, 2 * np.pi, k)]

    for n in range(1, max_controls + 1):
        worst = max(
            phase_aligned_deviation(
                circuit_unitary(su2_split(n, th)), gate_unitary(mcrx(list(range(n)), n, th), n + 1)
            )
            for th in angle_set()
        )
        results.append(CheckResult(f"su2_split(n={n})", worst <= tol, worst))

    for n in range(2, max_controls + 1):
        worst = max(
            restricted_deviation(half_split_zeroed(n, th), mcrx(list(range(n)), n, th), n + 1)
            for th in angle_set()
        )
        results.append(CheckResult(f"half_split_zeroed(n={n})", worst <= tol, worst))

    for k in range(3, max_controls + 1):
        dev = exact_deviation(borrowed_ladder(k), mcx(list(range(k)), k))
        results.append(CheckResult(f"borrowed_ladder(k={k})", dev <= tol, dev))

    for n in range(3, max_controls + 1):
        worst = max(
            restricted_deviation(n_ancilla_ladder(n, th), mcrx(list(range(n)), n, th), n + 1)
            for th in angle_set()
        )
        results.append(CheckResult(f"n_ancilla_ladder(n={n})", worst <= tol, worst))

    for n in range(3, max_controls + 1):
        dev = exact_deviation(half_split_borrowed_x(n), mcx(list(range(n)), n))
        results.append(CheckResult(f"half_split_borrowed_x(n={n})", dev <= tol, dev))

    for k in range(3, max_controls + 1):
        for m in (3, 4):
            c = generalized_ladder(k, m)
            if c.width > MAX_UNITARY_WIDTH:
                continue
            dev = exact_deviation(c, mcx(list(range(k)), k))
            results.append(CheckResult(f"generalized_ladder(k={k},m={m})", dev <= tol, dev))

    for n in range(3, max_controls + 1):
        dev = _basis_ladder_check(n)
        results.append(CheckResult(f"burnable_ladder(n={n})", dev <= tol, dev))

    for family in (S2_2, S2_3):
        spec = GateSetSpec(family)
        for budget_count in (ONE, N_PER_CONTROLS):
            for n in range(1, max_controls + 1):
                worst = 0.0
                for th in angle_set(max(4, angles // 4)):
                    c = decompose(mcrx(list(range(n)), n, th), spec,
                                  AncillaBudget(budget_count, ZEROED))
                    worst = max(worst, restricted_deviation(c, mcrx(list(range(n)), n, th), n + 1))
                results.append(CheckResult(
                    f"decompose({family},{budget_count},zeroed,n={n})", worst <= tol, worst))
            for n in range(3, max_controls + 1):
                worst = 0.0
                for th in angle_set(4):
                    c = compile_partial_mixer(n, th, spec, AncillaBudget(budget_count, BURNABLE))
                    worst = max(worst, restricted_deviation(c, mcrx(list(range(n)), n, th), n + 1))
                results.append(CheckResult(
                    f"mixer_pair({family},{budget_count},burnable,n={n})", worst <= tol, worst))

    return results
