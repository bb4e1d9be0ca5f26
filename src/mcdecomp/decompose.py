"""Dispatcher: rewrite a multi-controlled X/Rx into a chosen gate set and budget.

Zeroed budgets reproduce the exact entangling counts of the gate-count table
(one ancilla: 16n-8 CNOTs / 8n-24 Toffolis for n >= 5; n ancillae: 6n / 2n-2
for n >= 3, plus the hand base cases).  Burnable budgets use compute-only
constructions matching the asymptotic count tuples.  Qutrit synthesis is not
supported; that gate set is counts-only.
"""
from __future__ import annotations

from functools import partial

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
    lrrccx_gates,
    margolus_gates,
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


def _lower_ccx(ccxs, gadget) -> list[Gate]:
    """Expand each Toffoli of a chain with a CX-level gadget(a, b, target)."""
    out: list[Gate] = []
    for g in ccxs:
        (a, _), (b, _) = g.controls
        out += gadget(a, b, g.targets[0])
    return out


def ladder_cx_gates(controls, borrowed, target: int) -> list[Gate]:
    """The m=3 ladder over {1q, CX}: exact for any borrowed state, 8k-6 CX for k >= 3.

    The rung onto the target becomes the exact 6-CX Toffoli, the others
    relative-phase Toffolis (Maslov, arXiv:1508.03273).  An inner rung drops
    its right wing on the way down and its left wing on the way back up,
    where the two would cancel.  The lowered first sweep is returned twice.
    """
    ladder = ladder_gates(controls, borrowed, target)
    if len(ladder) == 1:  # k <= 2: a CX or a Toffoli
        return ladder if len(ladder[0].controls) == 1 else _lower_ccx(ladder, toffoli_cx_gates)
    bottom = len(ladder) // 4  # the bottom rung's place in the first sweep
    lowerings = ([toffoli_cx_gates] + [partial(lrrccx_gates, cancel="right")] * (bottom - 1)
                 + [lrrccx_gates] + [partial(lrrccx_gates, cancel="left")] * (bottom - 1))
    sweep = [g for rung, lowering in zip(ladder, lowerings) for g in _lower_ccx([rung], lowering)]
    return sweep + sweep


# C^k(X) builder of each gate set, called as build(controls, target, dirty).
_MCX = {S2_2: lambda controls, target, dirty: ladder_cx_gates(controls, dirty, target),
        S2_3: lambda controls, target, dirty: ladder_gates(controls, dirty, target)}


def _split_halves(controls: list[int]) -> tuple[list[int], list[int]]:
    half = (len(controls) + 1) // 2
    return controls[:half], controls[half:]


def _small_rx(controls: list[int], target: int, theta: float, family: str) -> list[Gate]:
    """Base cases n <= 2, identical across budgets."""
    if len(controls) == 1:
        return crx_gates(controls[0], target, theta)
    if family == S2_3:
        return su2_split_gates(controls, target, theta)
    return compact_c2rx_gates(controls[0], controls[1], target, theta)


def _zeroed_one_rx(controls, target, ancillas, theta, family) -> list[Gate]:
    """C^n(Rx) with one zeroed ancilla (half split through the ancilla)."""
    if len(controls) <= 2:
        return _small_rx(controls, target, theta, family)
    anc = ancillas[0]
    top, bottom = _split_halves(controls)
    build = _MCX[family]
    if family == S2_2 and len(top) == 2:
        outer = margolus_gates(top[0], top[1], anc)
    else:
        outer = build(top, anc, bottom)
    mid_c = bottom + [anc]
    middle = su2_split_gates(mid_c, target, theta, build(mid_c, target, top))
    return outer + middle + outer


def _zeroed_chain(controls, ancillas, family, middle) -> list[Gate]:
    """n-2 zeroed ancillas: compute chain, ``middle(controls)``, uncompute.

    The chain's Toffolis are lowered to Margolus gates on s2_2, whose relative
    phases cancel between the compute and the uncompute.
    """
    chain = _chain_toffolis(controls, ancillas)
    if family == S2_2:
        chain = _lower_ccx(chain, margolus_gates)
    uncompute = [g.inverse() for g in reversed(chain)]
    return chain + middle([controls[-1], ancillas[-1]]) + uncompute


def _zeroed_n_rx(controls, target, ancillas, theta, family) -> list[Gate]:
    """C^n(Rx) with n-2 zeroed ancillas (compute chain around a C^2(Rx))."""
    if len(controls) <= 2:
        return _small_rx(controls, target, theta, family)
    build = _MCX[family]
    return _zeroed_chain(
        controls, ancillas, family,
        lambda mid: su2_split_gates(mid, target, theta, build(mid, target, [])))


def _zeroed_mcx(controls, target, ancillas, family, budget_count) -> list[Gate]:
    """C^n(X) under a zeroed budget (outer compute pair plus middle MCX)."""
    build = _MCX[family]
    if len(controls) <= 2:
        return build(controls, target, [])
    if budget_count == ONE:
        anc = ancillas[0]
        top, bottom = _split_halves(controls)
        outer = build(top, anc, bottom)
        middle = build(bottom + [anc], target, top)
        return outer + middle + outer
    return _zeroed_chain(controls, ancillas, family, lambda mid: build(mid, target, []))


def _burnable_rx_one(controls, target, ancillas, theta, family) -> list[Gate]:
    """C^n(Rx), one burnable ancilla: AND all controls into it, then C(Rx).

    The C^n(X) onto the ancilla is split in half through the idle rotation
    target (restored by the four-gate borrowed split); the ancilla keeps the
    AND afterwards.
    """
    if len(controls) <= 2:
        return _small_rx(controls, target, theta, family)
    anc = ancillas[0]
    top, bottom = _split_halves(controls)
    build = _MCX[family]
    first = build(top, target, bottom)  # target line doubles as the borrowed carry
    second = build(bottom + [target], anc, top)
    return first + second + first + second + crx_gates(anc, target, theta)


def _burnable_x_one(controls, target, ancillas, family) -> list[Gate]:
    """C^n(X), one burnable ancilla: compute-only half split (no restore)."""
    build = _MCX[family]
    if len(controls) <= 2:
        return build(controls, target, [])
    anc = ancillas[0]
    top, bottom = _split_halves(controls)
    first = build(top, anc, bottom)
    second = build(bottom + [anc], target, top)
    return first + second


def _burnable_rx_n(controls, target, ancillas, theta, family) -> list[Gate]:
    """C^n(Rx), n-2 burnable ancillas: compute chain plus C^2(Rx), no uncompute."""
    if len(controls) <= 2:
        return _small_rx(controls, target, theta, family)
    chain = _chain_toffolis(controls[:-1], ancillas)
    mid_c = [controls[-1], ancillas[-1]]
    if family == S2_3:
        return chain + su2_split_gates(mid_c, target, theta, [ccx(*mid_c, target)])
    return (_lower_ccx(chain, toffoli_cx_gates)
            + compact_c2rx_gates(mid_c[0], mid_c[1], target, theta))


def _burnable_x_n(controls, target, ancillas, family) -> list[Gate]:
    """C^n(X), n-2 burnable ancillas: the n-1 Toffoli compute ladder."""
    build = _MCX[family]
    if len(controls) <= 2:
        return build(controls, target, [])
    ladder = _chain_toffolis(controls, ancillas) + [ccx(controls[-1], ancillas[-1], target)]
    if family == S2_2:
        return _lower_ccx(ladder, toffoli_cx_gates)
    return ladder


def decompose(gate: Gate, gateset: GateSetSpec, budget: AncillaBudget) -> Circuit:
    """Rewrite a MultiControlledX/Rx into the gate set under the ancilla budget.

    Each route builds its gates directly on the gate's own control and target
    lines, with ancilla lines appended after the highest line in use; a block
    that a route repeats (an outer compute pair, a borrowed split) is the same
    gate objects each time.  Open (|0>) controls are expanded by X
    conjugation around the route and count as single-qudit gates.
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
    lines = gate.lines
    if len(set(lines)) != len(lines) or min(lines) < 0:
        raise DecomposeError(f"gate lines must be distinct and non-negative, got {lines}")

    controls = [line for line, _ in gate.controls]
    target, family, theta = gate.targets[0], gateset.family, gate.angle
    width = max(lines) + 1
    # the base cases (n <= 2) take no ancilla line, the others one or n-2
    n_anc = 0 if n <= 2 else 1 if budget.count == ONE else n - 2
    layout = (controls, target, range(width, width + n_anc))
    routes = {
        (ONE, ZEROED, "mcrx"): lambda: _zeroed_one_rx(*layout, theta, family),
        (N_PER_CONTROLS, ZEROED, "mcrx"): lambda: _zeroed_n_rx(*layout, theta, family),
        (ONE, ZEROED, "mcx"): lambda: _zeroed_mcx(*layout, family, ONE),
        (N_PER_CONTROLS, ZEROED, "mcx"): lambda: _zeroed_mcx(*layout, family, N_PER_CONTROLS),
        (ONE, BURNABLE, "mcrx"): lambda: _burnable_rx_one(*layout, theta, family),
        (N_PER_CONTROLS, BURNABLE, "mcrx"): lambda: _burnable_rx_n(*layout, theta, family),
        (ONE, BURNABLE, "mcx"): lambda: _burnable_x_one(*layout, family),
        (N_PER_CONTROLS, BURNABLE, "mcx"): lambda: _burnable_x_n(*layout, family),
    }
    key = (budget.count, budget.regime, gate.kind)
    if key not in routes:
        raise DecomposeError(
            f"unsupported (gate set, budget) combination: {gateset.family}, "
            f"{budget.count} {budget.regime}, {gate.kind}"
        )
    gates = routes[key]()
    flips = [x(line) for line, pol in gate.controls if pol == NEG0]
    return Circuit(2, width + n_anc, flips + gates + flips,
                   ancilla=tuple((width + j, budget.regime) for j in range(n_anc)))
