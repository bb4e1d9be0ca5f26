"""Dispatcher: rewrite a multi-controlled X/Rx into a chosen gate set and budget.

Zeroed budgets reproduce the exact entangling counts of the gate-count table
(one ancilla: 16n-8 CNOTs / 8n-24 Toffolis for n >= 5; n ancillae: 6n / 2n-2
for n >= 3, plus the hand base cases).  Burnable budgets use compute-only
constructions matching the asymptotic count tuples.  Qutrit synthesis is not
supported; that gate set is counts-only.
"""
from __future__ import annotations

from .ir import (
    AncillaBudget,
    BURNABLE,
    Circuit,
    Gate,
    GateSetSpec,
    NEG0,
    N_PER_CONTROLS,
    ONE,
    POS2,
    S2_2,
    S2_3,
    S3_2,
    ZEROED,
    ccx,
    mcx,
    x,
)
from .gadgets import (
    compact_c2rx_gates,
    crx_gates,
    margolus_gates,
    mcx_cx_gates,
    su2_split_gates,
    toffoli_cx_gates,
)


class DecomposeError(ValueError):
    pass


def _chain_toffolis(controls, ancillas) -> list[Gate]:
    """Compute chain: ancilla j accumulates the AND of controls 0..j+1."""
    gates = [ccx(controls[0], controls[1], ancillas[0])]
    for i in range(1, len(ancillas)):
        gates.append(ccx(controls[i + 1], ancillas[i - 1], ancillas[i]))
    return gates


def ladder_gates(controls, borrowed, target: int, m: int = 3) -> list[Gate]:
    """C^k(X) from (m-1)-controlled NOTs through borrowed carry lines (any state).

    The bottom gate absorbs m-1 controls and every further rung up to m-2, so
    ceil((k-m+1)/(m-2)) borrowed lines suffice; extra lines are ignored.  At
    m=3 this is the 4k-8 Toffoli ladder (Barenco et al., quant-ph/9503016).
    """
    if m < 3:
        raise DecomposeError("gate size parameter m must be >= 3")
    controls = list(controls)
    k = len(controls)
    if k <= m - 1:
        return [mcx(controls, target)]
    r = -(-(k - (m - 1)) // (m - 2))  # number of borrowed carry lines
    borrowed = list(borrowed)[:r]
    if len(borrowed) < r:
        raise DecomposeError(f"need {r} borrowed lines for a {k}-control ladder")
    if set(borrowed) & (set(controls) | {target}):
        raise DecomposeError("borrowed lines must be disjoint from controls and target")
    groups = [controls[:m - 1]] + [controls[p:p + m - 2] for p in range(m - 1, k, m - 2)]
    # groups[0] feeds the bottom gate; groups[j] rides carry line borrowed[j-1]
    rungs = [mcx(groups[-1] + [borrowed[r - 1]], target)]
    for i in range(1, r):
        rungs.append(mcx(groups[r - i] + [borrowed[r - 1 - i]], borrowed[r - i]))
    inner = rungs[1:] + [mcx(groups[0], borrowed[0])] + rungs[-1:0:-1]
    return [rungs[0]] + inner + [rungs[0]] + inner


# C^k(X) builder of each gate set, called as build(controls, target, dirty).
_MCX = {S2_2: mcx_cx_gates,
        S2_3: lambda controls, target, dirty: ladder_gates(controls, dirty, target)}


def _lower_ccx(ccxs, gadget) -> list[Gate]:
    """Expand each Toffoli of a chain with a CX-level gadget(a, b, target)."""
    out: list[Gate] = []
    for g in ccxs:
        (a, _), (b, _) = g.controls
        out += gadget(a, b, g.targets[0])
    return out


def _split_halves(n: int) -> tuple[list[int], list[int]]:
    return list(range((n + 1) // 2)), list(range((n + 1) // 2, n))


def _small_rx(n: int, theta: float, family: str) -> list[Gate]:
    """Base cases n <= 2, identical across budgets."""
    if n == 1:
        return crx_gates(0, 1, theta)
    if family == S2_3:
        return su2_split_gates([0, 1], 2, theta)
    return compact_c2rx_gates(0, 1, 2, theta)


def _zeroed_one_rx(n: int, theta: float, family: str) -> tuple[list[Gate], int]:
    """C^n(Rx) with one zeroed ancilla (half split through the ancilla)."""
    if n <= 2:
        return _small_rx(n, theta, family), 0
    target, anc = n, n + 1
    top, bottom = _split_halves(n)
    build = _MCX[family]
    if family == S2_2 and len(top) == 2:
        outer = margolus_gates(top[0], top[1], anc)
    else:
        outer = build(top, anc, bottom)
    mid_c = bottom + [anc]
    middle = su2_split_gates(mid_c, target, theta, build(mid_c, target, top))
    return outer + middle + outer, 1


def _zeroed_chain(n: int, family: str, middle) -> tuple[list[Gate], int]:
    """n-2 zeroed ancillas: compute chain, ``middle(controls)``, uncompute.

    The chain's Toffolis are lowered to Margolus gates on s2_2, whose relative
    phases cancel between the compute and the uncompute.
    """
    ancillas = list(range(n + 1, n + 1 + (n - 2)))
    chain = _chain_toffolis(range(n), ancillas)
    if family == S2_2:
        chain = _lower_ccx(chain, margolus_gates)
    uncompute = [g.inverse() for g in reversed(chain)]
    return chain + middle([n - 1, ancillas[-1]]) + uncompute, n - 2


def _zeroed_n_rx(n: int, theta: float, family: str) -> tuple[list[Gate], int]:
    """C^n(Rx) with n-2 zeroed ancillas (compute chain around a C^2(Rx))."""
    if n <= 2:
        return _small_rx(n, theta, family), 0
    build = _MCX[family]
    return _zeroed_chain(
        n, family, lambda mid: su2_split_gates(mid, n, theta, build(mid, n, [])))


def _zeroed_mcx(n: int, family: str, budget_count: str) -> tuple[list[Gate], int]:
    """C^n(X) under a zeroed budget (outer compute pair plus middle MCX)."""
    target = n
    build = _MCX[family]
    if n <= 2:
        return build(range(n), target, []), 0
    if budget_count == ONE:
        anc = n + 1
        top, bottom = _split_halves(n)
        outer = build(top, anc, bottom)
        middle = build(bottom + [anc], target, top)
        return outer + middle + outer, 1
    return _zeroed_chain(n, family, lambda mid: build(mid, target, []))


def _burnable_rx_one(n: int, theta: float, family: str) -> tuple[list[Gate], int]:
    """C^n(Rx), one burnable ancilla: AND all controls into it, then C(Rx).

    The C^n(X) onto the ancilla is split in half through the idle rotation
    target (restored by the four-gate borrowed split); the ancilla keeps the
    AND afterwards.
    """
    if n <= 2:
        return _small_rx(n, theta, family), 0
    target, anc = n, n + 1
    top, bottom = _split_halves(n)
    build = _MCX[family]
    first = build(top, target, bottom)  # target line doubles as the borrowed carry
    second = build(bottom + [target], anc, top)
    return first + second + first + second + crx_gates(anc, target, theta), 1


def _burnable_x_one(n: int, family: str) -> tuple[list[Gate], int]:
    """C^n(X), one burnable ancilla: compute-only half split (no restore)."""
    target, anc = n, n + 1
    build = _MCX[family]
    if n <= 2:
        return build(range(n), target, []), 0
    top, bottom = _split_halves(n)
    first = build(top, anc, bottom)
    second = build(bottom + [anc], target, top)
    return first + second, 1


def _burnable_rx_n(n: int, theta: float, family: str) -> tuple[list[Gate], int]:
    """C^n(Rx), n-2 burnable ancillas: compute chain plus C^2(Rx), no uncompute."""
    if n <= 2:
        return _small_rx(n, theta, family), 0
    target = n
    ancillas = list(range(n + 1, n + 1 + (n - 2)))
    chain = _chain_toffolis(range(n - 1), ancillas)
    mid_c = [n - 1, ancillas[-1]]
    if family == S2_3:
        return chain + su2_split_gates(mid_c, target, theta, [ccx(*mid_c, target)]), n - 2
    return (_lower_ccx(chain, toffoli_cx_gates)
            + compact_c2rx_gates(mid_c[0], mid_c[1], target, theta)), n - 2


def _burnable_x_n(n: int, family: str) -> tuple[list[Gate], int]:
    """C^n(X), n-2 burnable ancillas: the n-1 Toffoli compute ladder."""
    target = n
    build = _MCX[family]
    if n <= 2:
        return build(range(n), target, []), 0
    ancillas = list(range(n + 1, n + 1 + (n - 2)))
    ladder = _chain_toffolis(range(n), ancillas) + [ccx(n - 1, ancillas[-1], target)]
    if family == S2_2:
        return _lower_ccx(ladder, toffoli_cx_gates), n - 2
    return ladder, n - 2


def decompose(gate: Gate, gateset: GateSetSpec, budget: AncillaBudget) -> Circuit:
    """Rewrite a MultiControlledX/Rx into the gate set under the ancilla budget.

    The output acts on the gate's own lines with ancilla lines appended after
    the highest line in use.  Open (|0>) controls are expanded by X
    conjugation before dispatch and count as single-qudit gates.
    """
    if gate.kind not in ("mcx", "mcrx"):
        raise DecomposeError("decompose expects a multi-controlled X or Rx gate")
    if gateset.family == S3_2:
        raise DecomposeError("qutrit gate set is counts-only; use the count tables")
    if gateset.family not in (S2_2, S2_3):
        raise DecomposeError(f"unsupported gate set {gateset.family!r} for synthesis")
    if any(pol == POS2 for _, pol in gate.controls):
        raise DecomposeError("|2>-controls cannot be synthesized on a qubit register")
    n = len(gate.controls)
    if n == 0:
        raise DecomposeError("gate has no controls; apply the bare rotation directly")

    routes = {
        (ONE, ZEROED, "mcrx"): lambda: _zeroed_one_rx(n, gate.angle, gateset.family),
        (N_PER_CONTROLS, ZEROED, "mcrx"): lambda: _zeroed_n_rx(n, gate.angle, gateset.family),
        (ONE, ZEROED, "mcx"): lambda: _zeroed_mcx(n, gateset.family, ONE),
        (N_PER_CONTROLS, ZEROED, "mcx"): lambda: _zeroed_mcx(n, gateset.family, N_PER_CONTROLS),
        (ONE, BURNABLE, "mcrx"): lambda: _burnable_rx_one(n, gate.angle, gateset.family),
        (N_PER_CONTROLS, BURNABLE, "mcrx"): lambda: _burnable_rx_n(n, gate.angle, gateset.family),
        (ONE, BURNABLE, "mcx"): lambda: _burnable_x_one(n, gateset.family),
        (N_PER_CONTROLS, BURNABLE, "mcx"): lambda: _burnable_x_n(n, gateset.family),
    }
    key = (budget.count, budget.regime, gate.kind)
    if key not in routes:
        raise DecomposeError(
            f"unsupported (gate set, budget) combination: {gateset.family}, "
            f"{budget.count} {budget.regime}, {gate.kind}"
        )
    canon_gates, n_anc = routes[key]()
    return _remap(gate, canon_gates, n_anc, budget.regime)


def _remap(gate: Gate, canon_gates: list[Gate], n_anc: int, regime: str) -> Circuit:
    """Map a canonical-layout route output onto the gate's actual lines."""
    n = len(gate.controls)
    width = max(gate.lines) + 1
    mapping = {i: line for i, (line, _) in enumerate(gate.controls)}
    mapping[n] = gate.targets[0]
    anc_lines = []
    for j in range(n_anc):
        mapping[n + 1 + j] = width + j
        anc_lines.append(width + j)

    def map_gate(g: Gate) -> Gate:
        return Gate(
            g.kind,
            tuple(mapping[t] for t in g.targets),
            tuple((mapping[line], pol) for line, pol in g.controls),
            g.angle,
            g.matrix,
        )

    flips = [x(line) for line, pol in gate.controls if pol == NEG0]
    gates = flips + [map_gate(g) for g in canon_gates] + flips
    return Circuit(
        2,
        width + n_anc,
        tuple(gates),
        ancilla=tuple((a, regime) for a in anc_lines),
    )
