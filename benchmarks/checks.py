"""Output checks, each computed apart from the program.

Every function returns a list of failure messages (empty when the outputs
pass).  The reference values are computed here from first principles: the
paper's tables held as literals, exhaustive enumeration, a tensor-axis
statevector, and Kronecker-product unitaries.  Nothing here compares against
a stored copy of the program's earlier output.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

# Paper Table 3: entangling gates of C^n(Rx) with zeroed ancillas, built by
# construction, for the four synthesizable columns (the qutrit column is
# counts-only).  Rows n=1..12.
TABLE3_COLUMNS = (("s2_2", "one"), ("s2_3", "one"), ("s2_2", "n"), ("s2_3", "n"))
TABLE3 = {
    1: (2, 2, 2, 2),
    2: (6, 2, 6, 2),
    3: (18, 4, 18, 4),
    4: (42, 10, 24, 6),
    5: (72, 16, 30, 8),
    6: (88, 24, 36, 10),
    7: (104, 32, 42, 12),
    8: (120, 40, 48, 14),
    9: (136, 48, 54, 16),
    10: (152, 56, 60, 18),
    11: (168, 64, 66, 20),
    12: (184, 72, 72, 22),
}

# Paper Table 4: burnable-ancilla count tuples (entry i = (i+1)-qubit gates)
# as (slope, intercept) pairs in the control count n.
TABLE4 = {
    ("s2_2", "one", "rx"): ((16, 20), (16, -6)),
    ("s2_2", "one", "x"): ((8, 8), (8, -4)),
    ("s2_2", "n", "rx"): ((8, -8), (6, -6)),
    ("s2_2", "n", "x"): ((8, -8), (6, -6)),
    ("s2_3", "one", "rx"): ((0, 4), (0, 2), (8, -24)),
    ("s2_3", "one", "x"): ((0, 0), (0, 0), (4, -12)),
    ("s2_3", "n", "rx"): ((0, 6), (0, 2), (1, -2)),
    ("s2_3", "n", "x"): ((0, 0), (0, 0), (1, -1)),
}
TABLE4_SIZES = (50, 100)
# Lower-order terms of the built circuits differ from the table's leading
# behaviour by a constant; the slopes must match exactly.
TABLE4_TOLERANCE = 32

SWEEP_COLUMNS = ("s2_2/one", "s2_3/one", "s2_2/n", "s2_3/n", "s3_2/none")


# --- graphs ------------------------------------------------------------------

def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def is_independent(bits, edges) -> bool:
    return not any(bits[u] and bits[v] for u, v in edges)


def max_independent_size(n: int, edges) -> int:
    """Largest independent set by enumerating all 2^n subsets."""
    subsets = np.arange(2**n, dtype=np.int64)
    bad = np.zeros(2**n, dtype=bool)
    for u, v in edges:
        bad |= ((subsets >> u) & 1).astype(bool) & ((subsets >> v) & 1).astype(bool)
    sizes = np.zeros(2**n, dtype=np.int64)
    for b in range(n):
        sizes += (subsets >> b) & 1
    return int(sizes[~bad].max())


def degree_histogram(n: int, edges, layers: int, nodes=None) -> dict[int, int]:
    deg = degrees(n, edges)
    hist: Counter[int] = Counter()
    for v in (range(n) if nodes is None else nodes):
        if deg[v] > 0:
            hist[deg[v]] += layers
    return dict(hist)


# --- QAOA outputs --------------------------------------------------------------

def check_trials(trials, variants) -> list[str]:
    """Check captured ``(graph, record, reported_sets)`` triples.

    ``variants`` maps a record's variant label to ``(kind, p, nu)``.
    """
    errors = []
    for graph, record, sets in trials:
        n, edges = graph.n, sorted(graph.edges)
        tag = f"{record.graph_id}/{record.variant}"
        optimum = max_independent_size(n, edges)
        if record.optimum != optimum:
            errors.append(f"{tag}: optimum {record.optimum} != enumerated {optimum}")
        if not sets:
            errors.append(f"{tag}: no reported set was captured")
        sizes = []
        for bits in sets:
            bits = bits if bits is not None else (0,) * n
            if len(bits) != n or not is_independent(bits, edges):
                errors.append(f"{tag}: reported set {bits} is not independent")
            sizes.append(sum(bits))
        if sets and record.best_size != max(sizes):
            errors.append(f"{tag}: best_size {record.best_size} != best reported {max(sizes)}")
        if not 0 <= record.best_size <= optimum:
            errors.append(f"{tag}: best_size {record.best_size} outside [0, {optimum}]")
        if optimum and abs(record.ratio - record.best_size / optimum) > 1e-12:
            errors.append(f"{tag}: ratio {record.ratio} != best_size/optimum")
        kind, p, nu = variants[record.variant]
        hist = {int(k): v for k, v in record.mixer_histogram.items()}
        full = degree_histogram(n, edges, p)
        if kind == "dqva":
            if any(hist.get(k, 0) > full.get(k, 0) for k in hist) or sum(hist.values()) > nu:
                errors.append(f"{tag}: live mixers {hist} not a subset of {full} within nu={nu}")
        elif hist != full:
            errors.append(f"{tag}: mixer histogram {hist} != degree histogram {full}")
    return errors


def ansatz_state(n: int, edges, variant: str, p: int, params) -> np.ndarray:
    """Statevector of the single-/multi-angle ansatz as an n-axis tensor.

    Axis i is node i.  A partial mixer exp(-i beta X) acts on node v's axis
    inside the slice where every neighbour's axis is 0; the phase layer
    multiplies by exp(i gamma |x|).
    """
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    weight = np.indices((2,) * n).sum(axis=0)
    params = np.asarray(params, dtype=float)
    for k in range(p):
        if variant == "sa":
            betas, gamma = [params[2 * k]] * n, params[2 * k + 1]
        else:
            betas, gamma = params[k * (n + 1): k * (n + 1) + n], params[k * (n + 1) + n]
        for v in range(n):
            c, s = np.cos(betas[v]), np.sin(betas[v])
            index = [slice(None)] * n
            for u in nbrs[v]:
                index[u] = 0
            index[v] = 0
            i0 = tuple(index)
            index[v] = 1
            i1 = tuple(index)
            a0, a1 = psi[i0].copy(), psi[i1].copy()
            psi[i0] = c * a0 - 1j * s * a1
            psi[i1] = c * a1 - 1j * s * a0
        psi = psi * np.exp(1j * gamma * weight)
    return psi


def check_single_round(n: int, edges, variant: str, p: int, result) -> list[str]:
    """Recompute an ``optimize_single_round`` result's value at its params."""
    probs = np.abs(ansatz_state(n, edges, variant, p, result.params)) ** 2
    norm = float(probs.sum())
    value = float((probs * np.indices((2,) * n).sum(axis=0)).sum())
    bad = np.zeros((2,) * n, dtype=bool)
    for u, v in edges:
        index = [slice(None)] * n
        index[u] = index[v] = 1
        bad[tuple(index)] = True
    infeasible = float(probs[bad].sum())
    errors = []
    tag = f"{variant}(p={p}) n={n}"
    if abs(norm - 1.0) > 1e-10:
        errors.append(f"{tag}: state norm {norm}")
    if abs(value - result.value) > 1e-10:
        errors.append(f"{tag}: value {result.value} != recomputed {value}")
    if result.max_infeasible > 1e-9 or infeasible > 1e-9:
        errors.append(f"{tag}: infeasible mass {result.max_infeasible} / {infeasible}")
    return errors


# --- resource outputs ------------------------------------------------------------

def arity_counts(circuit, top: int) -> tuple[int, ...]:
    hist = Counter(len(g.controls) + len(g.targets) for g in circuit.gates)
    return tuple(hist.get(a, 0) for a in range(1, top + 1))


def check_table3(built: dict) -> list[str]:
    """``built[(n, family, budget)]`` = entangling gates of the built circuit."""
    errors = []
    for n, row in TABLE3.items():
        for (family, budget), want in zip(TABLE3_COLUMNS, row):
            got = built.get((n, family, budget))
            if got != want:
                errors.append(f"table3 {family}/{budget} n={n}: built {got} != paper {want}")
    return errors


def check_table4(tuples: dict) -> list[str]:
    """``tuples[(family, budget, gate, n)]`` = per-arity counts of the built circuit."""
    errors = []
    lo, hi = TABLE4_SIZES
    for key, rows in TABLE4.items():
        got = {n: tuples.get(key + (n,)) for n in TABLE4_SIZES}
        if any(g is None or len(g) != len(rows) for g in got.values()):
            errors.append(f"table4 {key}: missing or malformed tuples {got}")
            continue
        for n in TABLE4_SIZES:
            want = tuple(a * n + b for a, b in rows)
            if any(abs(x - y) > TABLE4_TOLERANCE for x, y in zip(got[n], want)):
                errors.append(f"table4 {key} n={n}: {got[n]} not within {want}")
        slopes = tuple((got[hi][i] - got[lo][i]) / (hi - lo) for i in range(len(rows)))
        if slopes != tuple(float(a) for a, _ in rows):
            errors.append(f"table4 {key}: slopes {slopes} != {tuple(a for a, _ in rows)}")
    return errors


def check_histograms(captured) -> list[str]:
    """Captured ``(graph, layers, nodes, result)`` against the edge-list degrees."""
    errors = []
    if not captured:
        errors.append("no mixer histogram was captured")
    for graph, layers, nodes, result in captured:
        want = degree_histogram(graph.n, graph.edges, layers, nodes)
        if dict(result) != want:
            errors.append(f"mixer histogram m={graph.n}: {dict(result)} != {want}")
    return errors


def check_sweep(rows, label: str) -> list[str]:
    """Linear growth (R^2 >= 0.999) of every column, with s2_3 lowest."""
    errors = []
    ms = np.array([r["m"] for r in rows], dtype=float)
    for col in SWEEP_COLUMNS:
        ys = np.array([r[col] for r in rows], dtype=float)
        slope, intercept = np.polyfit(ms, ys, 1)
        resid = ys - (slope * ms + intercept)
        total = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1 - float(resid @ resid) / total if total else 0.0
        if r2 < 0.999:
            errors.append(f"sweep {label} {col}: R^2 {r2:.5f} < 0.999")
    for r in rows:
        for low, others in (("s2_3/one", ("s2_2/one", "s3_2/none")),
                            ("s2_3/n", ("s2_2/n", "s3_2/none"))):
            if any(r[low] >= r[o] for o in others):
                errors.append(f"sweep {label} m={r['m']}: {low} {r[low]} is not the lowest")
    return errors


def check_oracle(results, tol: float = 1e-8) -> list[str]:
    if not results:
        return ["oracle returned no checks"]
    return [f"oracle {r.name}: deviation {r.deviation:.2e}"
            for r in results if not (r.ok and r.deviation <= tol)]


def check_oracle_not_vacuous(deviation, intact, corrupted, ideal, register: int) -> list[str]:
    """The oracle accepts the intact circuit and rejects one missing a gate."""
    errors = []
    good, bad = deviation(intact, ideal, register), deviation(corrupted, ideal, register)
    if not good <= 1e-8:
        errors.append(f"intact circuit rejected (deviation {good:.2e})")
    if not bad > 1e-6:
        errors.append(f"circuit missing a gate accepted (deviation {bad:.2e})")
    return errors


# --- Kronecker-product unitaries ---------------------------------------------------

def _matrix_2x2(gate) -> np.ndarray:
    a = gate.angle
    if gate.kind in ("x", "mcx"):
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if gate.kind in ("rx", "mcrx"):
        return np.array([[np.cos(a / 2), -1j * np.sin(a / 2)],
                         [-1j * np.sin(a / 2), np.cos(a / 2)]])
    if gate.kind == "ry":
        return np.array([[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]],
                        dtype=complex)
    if gate.kind == "rz":
        return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
    if gate.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    phases = {"t": np.pi / 4, "tdg": -np.pi / 4, "s": np.pi / 2, "sdg": -np.pi / 2}
    if gate.kind in phases:
        return np.diag([1, np.exp(1j * phases[gate.kind])])
    if gate.kind == "u":
        return np.array(gate.matrix, dtype=complex)
    raise ValueError(f"no reference matrix for {gate.kind!r}")


def gate_kron(gate, width: int) -> np.ndarray:
    """I + (P_controls (x) (M - I)_target), built as a Kronecker product."""
    factors = [np.eye(2, dtype=complex)] * width
    for line, pol in gate.controls:
        factors[line] = np.diag([0.0, 1.0]) if pol == "+" else np.diag([1.0, 0.0])
    target = gate.targets[0]
    factors[target] = _matrix_2x2(gate) - np.eye(2)
    term = factors[0]
    for f in factors[1:]:
        term = np.kron(term, f)
    return np.eye(2**width, dtype=complex) + term


def circuit_kron(circuit) -> np.ndarray:
    u = np.eye(2**circuit.width, dtype=complex)
    for g in circuit.gates:
        u = gate_kron(g, circuit.width) @ u
    return u


def check_kron(circuit, ideal_gate, register: int, program_unitary) -> list[str]:
    """Circuit equals ``ideal (x) |0><0|`` on its trailing ancillas, up to phase."""
    u = circuit_kron(circuit)
    errors = []
    diff = float(np.max(np.abs(u - program_unitary)))
    if diff > 1e-10:
        errors.append(f"program unitary differs from Kronecker product by {diff:.2e}")
    step = 2 ** (circuit.width - register)
    keep = np.arange(2**register) * step
    ideal = gate_kron(ideal_gate, register)
    sub = u[np.ix_(keep, keep)]
    k = np.unravel_index(np.argmax(np.abs(ideal)), ideal.shape)
    phase = sub[k] / ideal[k]
    phase = phase / abs(phase) if abs(phase) > 1e-12 else 1.0
    dev = float(np.max(np.abs(sub - phase * ideal)))
    leak = np.abs(u[:, keep])
    leak[keep, :] = 0.0
    dev = max(dev, float(leak.max()))
    if dev > 1e-10:
        errors.append(f"circuit deviates from the ideal gate by {dev:.2e}")
    return errors
