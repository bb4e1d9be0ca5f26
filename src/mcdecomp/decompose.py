"""Dispatcher: rewrite a multi-controlled X/Rx into a chosen gate set and budget.

A gate set is one row of ``_GATESETS``: its Toffoli (exact, or the Margolus
form onto a |0> line the route uncomputes), its C^2(Rx) and its borrowed-line
C^k(X).  One route per ancilla regime, in a one-ancilla and an n-2 form, is
written over those blocks for both gate kinds; n <= 2 takes no ancilla and is
the same under every budget.  Zeroed Rx routes give the gate-count table's
exact entangling counts (one ancilla: 16n-8 CNOTs / 8n-24 Toffolis for n >= 5;
n ancillae: 6n / 2n-2 for n >= 3, plus the hand base cases), burnable ones the
asymptotic count tuples.  The qutrit gate set is counts-only.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

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


def _lower(rung: Gate, gadget) -> list[Gate]:
    """A Toffoli rung expanded by a CX-level gadget(a, b, target)."""
    (a, _), (b, _) = rung.controls
    return gadget(a, b, rung.targets[0])


def ladder_cx_gates(controls, borrowed, target: int) -> list[Gate]:
    """The m=3 ladder over {1q, CX}: exact for any borrowed state, 8k-6 CX for k >= 3.

    The rung onto the target becomes the exact 6-CX Toffoli, the others
    relative-phase Toffolis (Maslov, arXiv:1508.03273).  An inner rung drops
    its right wing on the way down and its left wing on the way back up,
    where the two would cancel.  The lowered first sweep is returned twice.
    """
    ladder = ladder_gates(controls, borrowed, target)
    if len(ladder) == 1:  # k <= 2: a CX or a Toffoli
        return ladder if len(ladder[0].controls) == 1 else _lower(ladder[0], toffoli_cx_gates)
    bottom = len(ladder) // 4  # the bottom rung's place in the first sweep
    lowerings = ([toffoli_cx_gates] + [partial(lrrccx_gates, cancel="right")] * (bottom - 1)
                 + [lrrccx_gates] + [partial(lrrccx_gates, cancel="left")] * (bottom - 1))
    sweep = [g for rung, lowering in zip(ladder, lowerings) for g in _lower(rung, lowering)]
    return sweep + sweep


class _GateSet(NamedTuple):
    """The blocks a route takes from a gate set, each a gate list on given lines."""

    toffoli: Callable[[int, int, int], list[Gate]]  # exact C^2(X)
    zero_toffoli: Callable[[int, int, int], list[Gate]]  # onto a |0> line, uncomputed later
    c2rx: Callable[[int, int, int, float], list[Gate]]  # C^2(Rx)
    mcx: Callable[..., list[Gate]]  # borrowed-line C^k(X)(controls, borrowed, target)


def _ccx(a: int, b: int, t: int) -> list[Gate]:
    return [ccx(a, b, t)]


_GATESETS = {
    S2_2: _GateSet(toffoli_cx_gates, margolus_gates, compact_c2rx_gates, ladder_cx_gates),
    S2_3: _GateSet(_ccx, _ccx, lambda a, b, t, theta: su2_split_gates([a, b], t, theta),
                   ladder_gates),
}


def _split_halves(controls: list[int]) -> tuple[list[int], list[int]]:
    half = (len(controls) + 1) // 2
    return controls[:half], controls[half:]


def _chain(controls, ancillas, toffoli) -> list[Gate]:
    """Compute chain: ancilla j accumulates the AND of controls 0..j+1."""
    gates = list(toffoli(controls[0], controls[1], ancillas[0]))
    for i in range(1, len(ancillas)):
        gates += toffoli(controls[i + 1], ancillas[i - 1], ancillas[i])
    return gates


def _zeroed(count, gs, controls, target, ancillas, theta) -> list[Gate]:
    """Zeroed ancillas: compute, the middle C^k(X) (Rx: in the rotation split), uncompute.

    One ancilla takes the top half's AND (of a 2-line top half by the
    relative-phase Toffoli), and the middle borrows the top half's lines;
    n-2 ancillas take the compute chain.
    """
    if count == ONE:
        top, bottom = _split_halves(controls)
        anc = ancillas[0]
        compute = gs.zero_toffoli(*top, anc) if len(top) == 2 else gs.mcx(top, bottom, anc)
        uncompute, mid, borrowed = compute, bottom + [anc], top
    else:
        compute = _chain(controls, ancillas, gs.zero_toffoli)
        uncompute = [g.inverse() for g in reversed(compute)]
        mid, borrowed = [controls[-1], ancillas[-1]], []
    middle = gs.mcx(mid, borrowed, target)
    if theta is not None:
        middle = su2_split_gates(mid, target, theta, middle)
    return compute + middle + uncompute


def _burnable(count, gs, controls, target, ancillas, theta) -> list[Gate]:
    """Burnable ancillas, computed and never restored.

    One ancilla: X ANDs the top half into it, then borrows the top for the
    rest; Rx ANDs every control into it, split through the idle target
    (restored by the four-gate borrowed split), then applies C(Rx) from it.
    n-2 ancillas: the compute chain, then the last pair's C^2(X) or C^2(Rx).
    """
    if count != ONE:
        c, a = controls[-1], ancillas[-1]
        last = gs.toffoli(c, a, target) if theta is None else gs.c2rx(c, a, target, theta)
        return _chain(controls, ancillas, gs.toffoli) + last
    top, bottom = _split_halves(controls)
    anc = ancillas[0]
    if theta is None:
        return gs.mcx(top, bottom, anc) + gs.mcx(bottom + [anc], top, target)
    first = gs.mcx(top, bottom, target)  # target line doubles as the borrowed carry
    second = gs.mcx(bottom + [target], top, anc)
    return first + second + first + second + crx_gates(anc, target, theta)


_ROUTES = {ZEROED: _zeroed, BURNABLE: _burnable}


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
    if gateset.family not in _GATESETS:
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
    target, gs = gate.targets[0], _GATESETS[gateset.family]
    theta = gate.angle if gate.kind == "mcrx" else None
    width = max(lines) + 1
    route = _ROUTES.get(budget.regime)
    if route is None:
        raise DecomposeError(f"unsupported (gate set, budget) combination: {gateset.family}, "
                             f"{budget.count} {budget.regime}, {gate.kind}")
    n_anc = 0 if n <= 2 else 1 if budget.count == ONE else n - 2
    if n > 2:
        gates = route(budget.count, gs, controls, target, range(width, width + n_anc), theta)
    elif theta is None:
        gates = gs.mcx(controls, [], target)
    else:
        gates = (crx_gates if n == 1 else gs.c2rx)(*controls, target, theta)
    flips = [x(line) for line, pol in gate.controls if pol == NEG0]
    return Circuit(2, width + n_anc, flips + gates + flips,
                   ancilla=tuple((width + j, budget.regime) for j in range(n_anc)))
