"""Multi-controlled gate rewriting schemes at the Toffoli/MCX level.

Each scheme returns a Circuit laid out as: controls on lines 0..n-1, target
on line n, ancilla lines after that (unless the caller passes explicit
borrowed lines).  The CNOT-level compilation of these circuits lives in
``decompose``.
"""
from __future__ import annotations

from .ir import BORROWED, BURNABLE, ZEROED, Circuit, Gate, ccx, mcrx, mcx
from .gadgets import su2_split_gates


class SchemeError(ValueError):
    pass


def su2_split(n: int, theta: float) -> Circuit:
    """C^n(Rx(theta)) as two C^n(X) plus four single-qubit rotations; no ancilla."""
    if n < 1:
        raise SchemeError("su2_split needs at least one control")
    gates = su2_split_gates(range(n), n, theta)
    return Circuit(2, n + 1, gates)


def half_split_zeroed(n: int, theta: float) -> Circuit:
    """Split C^n(Rx) into three half-sized gates through one zeroed ancilla.

    Emits C^ceil(n/2)(X) onto the ancilla, C^(floor(n/2)+1)(Rx) controlled on
    the second half plus the ancilla, then the restoring C^ceil(n/2)(X).
    """
    if n < 2:
        raise SchemeError("half split needs at least two controls")
    target = n
    anc = n + 1
    top = list(range((n + 1) // 2))
    bottom = list(range((n + 1) // 2, n))
    gates = [
        mcx(top, anc),
        mcrx(bottom + [anc], target, theta),
        mcx(top, anc),
    ]
    return Circuit(2, n + 2, gates, ancilla=((anc, ZEROED),))


def _ladder_toffolis(controls, borrowed, target) -> list[Gate]:
    """The 4k-8 Toffoli chain of the borrowed-ancilla MCX scheme (k >= 3)."""
    controls = list(controls)
    borrowed = list(borrowed)
    k = len(controls)
    rungs = [ccx(controls[k - 1], borrowed[k - 3], target)]
    for i in range(1, k - 2):
        rungs.append(ccx(controls[k - 1 - i], borrowed[k - 3 - i], borrowed[k - 2 - i]))
    bottom = ccx(controls[0], controls[1], borrowed[0])
    inner = rungs[1:] + [bottom] + rungs[-1:0:-1]
    return [rungs[0]] + inner + [rungs[0]] + inner


def borrowed_ladder(k: int, borrowed=None) -> Circuit:
    """C^k(X) as exactly 4k-8 Toffolis, valid for any state of the borrowed lines."""
    if k < 3:
        raise SchemeError("borrowed ladder needs at least three controls")
    target = k
    if borrowed is None:
        borrowed = list(range(k + 1, k + 1 + (k - 2)))
    borrowed = list(borrowed)
    if len(borrowed) < k - 2:
        raise SchemeError(f"need {k - 2} borrowed lines, got {len(borrowed)}")
    borrowed = borrowed[: k - 2]
    if set(borrowed) & (set(range(k)) | {target}):
        raise SchemeError("borrowed lines must be disjoint from controls and target")
    width = max([target] + borrowed) + 1
    gates = _ladder_toffolis(range(k), borrowed, target)
    return Circuit(2, width, gates, ancilla=tuple((b, BORROWED) for b in borrowed))


def _chain_toffolis(controls, ancillas) -> list[Gate]:
    """Compute chain: ancilla j accumulates AND of controls 0..j+1."""
    controls = list(controls)
    ancillas = list(ancillas)
    gates = [ccx(controls[0], controls[1], ancillas[0])]
    for i in range(1, len(ancillas)):
        gates.append(ccx(controls[i + 1], ancillas[i - 1], ancillas[i]))
    return gates


def n_ancilla_ladder(n: int, theta: float) -> Circuit:
    """C^n(Rx) with n-2 zeroed ancillas: compute chain, C^2(Rx), uncompute chain.

    The middle C^2(Rx) is left unexpanded; after su2_split expands it the
    Toffoli count is 2n-2.
    """
    if n < 3:
        raise SchemeError("n-ancilla ladder needs at least three controls")
    target = n
    ancillas = list(range(n + 1, n + 1 + (n - 2)))
    chain = _chain_toffolis(range(n), ancillas)
    middle = mcrx([n - 1, ancillas[-1]], target, theta)
    gates = chain + [middle] + chain[::-1]
    return Circuit(2, 2 * n - 1, gates, ancilla=tuple((a, ZEROED) for a in ancillas))


def half_split_borrowed_x(n: int) -> Circuit:
    """C^n(X) as four half-sized MCX through one borrowed line (any state)."""
    if n < 3:
        raise SchemeError("borrowed half split needs at least three controls")
    target = n
    b = n + 1
    top = list(range((n + 1) // 2))
    bottom = list(range((n + 1) // 2, n))
    pair = [mcx(top, b), mcx(bottom + [b], target)]
    return Circuit(2, n + 2, pair + pair, ancilla=((b, BORROWED),))


def generalized_ladder(k: int, m: int, borrowed=None) -> Circuit:
    """C^k(X) from (m-1)-controlled NOTs with borrowed carry lines.

    Generalizes the Toffoli ladder: the bottom gate absorbs m-1 controls and
    every further rung absorbs up to m-2, so ceil((k-m+1)/(m-2)) borrowed
    lines suffice and the gate count is asymptotically 4k/(m-2).
    """
    if m < 3:
        raise SchemeError("gate size parameter m must be >= 3")
    if k < 1:
        raise SchemeError("need at least one control")
    target = k
    if k <= m - 1:
        return Circuit(2, k + 1, [mcx(range(k), target)])
    r = -(-(k - (m - 1)) // (m - 2))  # number of borrowed carry lines
    if borrowed is None:
        borrowed = list(range(k + 1, k + 1 + r))
    borrowed = list(borrowed)
    if len(borrowed) < r:
        raise SchemeError(f"need {r} borrowed lines, got {len(borrowed)}")
    borrowed = borrowed[:r]
    if set(borrowed) & (set(range(k)) | {target}):
        raise SchemeError("borrowed lines must be disjoint from controls and target")

    groups = [list(range(m - 1))]
    pos = m - 1
    while pos < k:
        groups.append(list(range(pos, min(pos + (m - 2), k))))
        pos += m - 2
    # groups[0] feeds the bottom gate; groups[j] rides carry line borrowed[j-1]
    rungs = [mcx(groups[-1] + [borrowed[r - 1]], target)]
    for i in range(1, r):
        g = groups[r - i]
        rungs.append(mcx(g + [borrowed[r - 1 - i]], borrowed[r - i]))
    bottom = mcx(groups[0], borrowed[0])
    inner = rungs[1:] + [bottom] + rungs[-1:0:-1]
    gates = [rungs[0]] + inner + [rungs[0]] + inner
    width = max([target] + borrowed) + 1
    return Circuit(2, width, gates, ancilla=tuple((b, BORROWED) for b in borrowed))


def burnable_ladder(n: int) -> Circuit:
    """C^n(X) with n-2 burnable ancillas: compute-only chain, n-1 Toffolis.

    The ancillas are left holding the AND-chain partial products.
    """
    if n < 3:
        raise SchemeError("burnable ladder needs at least three controls")
    target = n
    ancillas = list(range(n + 1, n + 1 + (n - 2)))
    gates = _chain_toffolis(range(n), ancillas)
    gates.append(ccx(n - 1, ancillas[-1], target))
    return Circuit(2, 2 * n - 1, gates, ancilla=tuple((a, BURNABLE) for a in ancillas))
