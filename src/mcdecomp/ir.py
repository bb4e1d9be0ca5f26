"""Gate-level intermediate representation for qubit/qutrit circuits and MIS graphs.

The IR is deliberately small: named single-qudit gates, multi-controlled X,
and multi-controlled Rx, over a fixed-width register with explicit ancilla
bookkeeping.  All types are immutable and safe to share between threads.
"""
from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Control polarities.  "+" fires on |1>, "-" fires on |0> (open control),
# "2" fires on |2> and is only meaningful on qutrit registers.
POS1 = "+"
NEG0 = "-"
POS2 = "2"
POLARITIES = (POS1, NEG0, POS2)

# Ancilla regimes.
ZEROED = "zeroed"
BORROWED = "borrowed"
BURNABLE = "burnable"
REGIMES = (ZEROED, BORROWED, BURNABLE)

SINGLE_KINDS = ("x", "h", "t", "tdg", "s", "sdg", "rx", "ry", "rz", "u")
ROTATION_KINDS = ("rx", "ry", "rz")
MULTI_KINDS = ("mcx", "mcrx")


class IRError(ValueError):
    """Raised for malformed gates, circuits, or graphs."""


@dataclass(frozen=True, slots=True)
class Gate:
    """A single gate: named single-qudit primitive or multi-controlled X/Rx.

    ``controls`` is a tuple of ``(line, polarity)`` pairs and is only allowed
    on the "mcx"/"mcrx" kinds.  Angles are radians, double precision, with the
    convention Rx(theta) = exp(-i theta X / 2) (Ry, Rz analogous).  The "u"
    kind carries an explicit 2x2 unitary and exists so that adjacent
    single-qubit gates can be merged during compilation.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, str], ...] = ()
    angle: float | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in SINGLE_KINDS and self.kind not in MULTI_KINDS:
            raise IRError(f"unknown gate kind {self.kind!r}")
        if self.kind in SINGLE_KINDS and self.controls:
            raise IRError(f"single-qudit gate {self.kind!r} cannot carry controls")
        if self.kind in ROTATION_KINDS or self.kind == "mcrx":
            if self.angle is None:
                raise IRError(f"{self.kind!r} requires an angle")
            try:
                finite = math.isfinite(self.angle)
            except TypeError:
                finite = False
            if not finite:
                raise IRError(f"{self.kind!r} angle must be a finite real number, got {self.angle!r}")
        if self.kind == "u" and self.matrix is None:
            raise IRError("'u' requires an explicit 2x2 matrix")

    @property
    def lines(self) -> tuple[int, ...]:
        return tuple(line for line, _ in self.controls) + self.targets

    @property
    def arity(self) -> int:
        """Number of distinct lines the gate touches."""
        return len(self.controls) + len(self.targets)

    def matrix1q(self) -> np.ndarray:
        """2x2 matrix of the single-qudit action (also the target action of mcx/mcrx)."""
        return _gate_matrix_1q(self.kind, self.angle, self.matrix)

    def inverse(self) -> "Gate":
        if self.kind in ("x", "h", "mcx"):
            return self
        if self.kind in ROTATION_KINDS or self.kind == "mcrx":
            return Gate(self.kind, self.targets, self.controls, -self.angle)
        if self.kind == "t":
            return Gate("tdg", self.targets)
        if self.kind == "tdg":
            return Gate("t", self.targets)
        if self.kind == "s":
            return Gate("sdg", self.targets)
        if self.kind == "sdg":
            return Gate("s", self.targets)
        mat = np.asarray(self.matrix, dtype=complex)
        return u_gate(self.targets[0], mat.conj().T)


def _gate_matrix_1q(kind: str, angle: float | None, matrix) -> np.ndarray:
    if kind in ("x", "mcx"):
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if kind == "t":
        return np.diag([1, np.exp(1j * np.pi / 4)])
    if kind == "tdg":
        return np.diag([1, np.exp(-1j * np.pi / 4)])
    if kind == "s":
        return np.diag([1, 1j])
    if kind == "sdg":
        return np.diag([1, -1j])
    if kind in ("rx", "mcrx"):
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -s], [s, c]])
    if kind == "rz":
        return np.diag([np.exp(-1j * angle / 2), np.exp(1j * angle / 2)])
    if kind == "u":
        return np.asarray(matrix, dtype=complex)
    raise IRError(f"no matrix for kind {kind!r}")


# Gate constructors; these keep call sites terse.
def x(t: int) -> Gate:
    return Gate("x", (t,))


def h(t: int) -> Gate:
    return Gate("h", (t,))


def t_gate(t: int) -> Gate:
    return Gate("t", (t,))


def tdg(t: int) -> Gate:
    return Gate("tdg", (t,))


def rx(t: int, angle: float) -> Gate:
    return Gate("rx", (t,), angle=angle)


def ry(t: int, angle: float) -> Gate:
    return Gate("ry", (t,), angle=angle)


def rz(t: int, angle: float) -> Gate:
    return Gate("rz", (t,), angle=angle)


def u_gate(t: int, matrix: np.ndarray) -> Gate:
    mat = tuple(tuple(complex(v) for v in row) for row in np.asarray(matrix))
    return Gate("u", (t,), matrix=mat)


def mcx(controls, target: int) -> Gate:
    return Gate("mcx", (target,), controls=_norm_controls(controls))


def mcrx(controls, target: int, angle: float) -> Gate:
    return Gate("mcrx", (target,), controls=_norm_controls(controls), angle=angle)


def cx(c: int, t: int) -> Gate:
    return mcx([c], t)


def ccx(c1: int, c2: int, t: int) -> Gate:
    return mcx([c1, c2], t)


def _norm_controls(controls) -> tuple[tuple[int, str], ...]:
    """(line, polarity) pairs; a bare line is a |1> control.  Lines are taken
    through ``operator.index``, so NumPy integers work and floats do not."""
    out = []
    for c in controls:
        line, pol = c if isinstance(c, (tuple, list)) and len(c) == 2 else (c, POS1)
        try:
            out.append((operator.index(line), str(pol)))
        except TypeError:
            raise IRError(f"control line {line!r} is not an integer") from None
    return tuple(out)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed-width register with ancilla bookkeeping.

    ``ancilla`` holds ``(line, regime)`` pairs; lines not listed there are the
    problem register.  Instances are immutable; builders assemble plain gate
    lists and wrap them at the end.
    """

    dim: int
    width: int
    gates: tuple[Gate, ...]
    ancilla: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "ancilla", tuple((int(l), str(r)) for l, r in self.ancilla))

    def to_json(self) -> str:
        return json.dumps(circuit_to_dict(self))

    @staticmethod
    def from_json(text: str) -> "Circuit":
        return circuit_from_dict(json.loads(text))


def validate_circuit(c: Circuit) -> str | None:
    """Return the first invariant violation as an error string, or None if ok."""
    if c.dim not in (2, 3):
        return f"dimension-invalid: dim={c.dim}"
    seen = set()
    for line, regime in c.ancilla:
        if regime not in REGIMES:
            return f"regime-invalid: {regime!r}"
        if not 0 <= line < c.width:
            return f"index-out-of-range: ancilla line {line} in width-{c.width} circuit"
        if line in seen:
            return f"ancilla-overlap: line {line} declared twice"
        seen.add(line)
    for i, g in enumerate(c.gates):
        lines = g.lines
        for line in lines:
            if not 0 <= line < c.width:
                return f"index-out-of-range: gate {i} touches line {line} in width-{c.width} circuit"
        if len(set(lines)) != len(lines):
            return f"line-overlap: gate {i} reuses a line as both control and target"
        if g.kind == "mcrx" and len(g.targets) != 1:
            return f"target-count: gate {i} mcrx must have exactly one target"
        for _, pol in g.controls:
            if pol not in POLARITIES:
                return f"polarity-invalid: gate {i} uses {pol!r}"
            if pol == POS2 and c.dim != 3:
                return f"polarity-mismatch: gate {i} uses |2>-control on a dimension-{c.dim} register"
    return None


def entangling_gate_histogram(c: Circuit) -> dict[int, int]:
    """Count gates touching >= 2 lines, keyed by arity (controls + targets)."""
    hist: Counter[int] = Counter()
    for g in c.gates:
        if g.arity >= 2:
            hist[g.arity] += 1
    return dict(hist)


def entangling_total(c: Circuit) -> int:
    return sum(entangling_gate_histogram(c).values())


def count_tuple(c: Circuit, max_arity: int | None = None) -> tuple[int, ...]:
    """Per-arity gate counts: entry i holds the number of (i+1)-line gates."""
    hist = Counter(g.arity for g in c.gates)
    top = max_arity if max_arity is not None else (max(hist) if hist else 1)
    return tuple(hist.get(a, 0) for a in range(1, top + 1))


# --- JSON wire format -------------------------------------------------------
#
# Circuit: {"dim":2,"width":7,"ancilla":[{"line":5,"regime":"zeroed"}],
#           "gates":[{"kind":"mcx","controls":[[0,"+"],[1,"+"]],"targets":[6]},...]}
# Graph:   {"nodes":5,"edges":[[0,1],[1,2]]}


def gate_to_dict(g: Gate) -> dict:
    d: dict = {"kind": g.kind}
    if g.controls:
        d["controls"] = [[line, pol] for line, pol in g.controls]
    d["targets"] = list(g.targets)
    if g.angle is not None:
        d["angle"] = g.angle
    if g.matrix is not None:
        d["matrix"] = [[[v.real, v.imag] for v in row] for row in g.matrix]
    return d


def gate_from_dict(d: dict) -> Gate:
    matrix = None
    if "matrix" in d:
        matrix = tuple(tuple(complex(re, im) for re, im in row) for row in d["matrix"])
    return Gate(
        kind=d["kind"],
        targets=tuple(d["targets"]),
        controls=tuple((int(line), str(pol)) for line, pol in d.get("controls", [])),
        angle=d.get("angle"),
        matrix=matrix,
    )


def circuit_to_dict(c: Circuit) -> dict:
    return {
        "dim": c.dim,
        "width": c.width,
        "ancilla": [{"line": line, "regime": regime} for line, regime in c.ancilla],
        "gates": [gate_to_dict(g) for g in c.gates],
    }


def circuit_from_dict(d: dict) -> Circuit:
    return Circuit(
        dim=d["dim"],
        width=d["width"],
        gates=tuple(gate_from_dict(g) for g in d["gates"]),
        ancilla=tuple((a["line"], a["regime"]) for a in d.get("ancilla", [])),
    )


# --- Gate sets and ancilla budgets ------------------------------------------

S2_2 = "s2_2"
S2_3 = "s2_3"
S2_M = "s2_m"
S3_2 = "s3_2"
FAMILIES = (S2_2, S2_3, S2_M, S3_2)


@dataclass(frozen=True)
class GateSetSpec:
    """A native basis: single-qudit gates plus multi-controlled NOTs.

    ``family`` selects the basis; "s2_m" additionally needs ``m`` (largest
    gate touches m qubits).  ``fidelities`` maps gate arity to a process
    fidelity in (0, 1].
    """

    family: str
    m: int | None = None
    fidelities: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise IRError(f"unknown gate-set family {self.family!r}")
        if self.family == S2_M:
            if self.m is None or self.m < 2:
                raise IRError("s2_m requires m >= 2")
        for arity, f in self.fidelities:
            if not 0 < f <= 1:
                raise IRError(f"fidelity for arity {arity} must be in (0, 1], got {f}")

    def fidelity(self, arity: int) -> float:
        for a, f in self.fidelities:
            if a == arity:
                return f
        raise IRError(f"no fidelity declared for arity {arity}")


ONE = "one"
N_PER_CONTROLS = "n"


@dataclass(frozen=True)
class AncillaBudget:
    """How many helper lines a decomposition may use, and in which regime."""

    count: str
    regime: str = ZEROED

    def __post_init__(self):
        if self.count not in (ONE, N_PER_CONTROLS):
            raise IRError(f"unknown ancilla count {self.count!r}")
        if self.regime not in REGIMES:
            raise IRError(f"unknown ancilla regime {self.regime!r}")


# --- MIS problem graphs -----------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n-1.

    ``adjacency`` holds each node's sorted neighbors; it is built once from
    the edges and takes no part in equality, hashing or repr.
    ``basis_masks`` holds each node's neighbors as a mask in the basis-index
    convention (node i is bit n-1-i); it is built on first use.
    """

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = frozenset((u, v) if u < v else (v, u) for u, v in self.edges)
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in norm:  # u <= v
            if u == v:
                raise IRError(f"self-loop on node {u}")
            if u < 0 or v >= self.n:
                raise IRError(f"edge ({u},{v}) out of range for {self.n} nodes")
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "edges", norm)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(a)) for a in nbrs))

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """The graph on n nodes with the given (u, v) pairs, in either order."""
        return Graph(n, edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise IRError(f"node {v} out of range for {self.n} nodes")
        return self.adjacency[v]

    @cached_property
    def basis_masks(self) -> tuple[int, ...]:
        n = self.n
        return tuple(sum(1 << (n - 1 - u) for u in nbrs) for nbrs in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency]

    def is_independent(self, bits) -> bool:
        """True if the selected nodes (bits[i] == 1) form an independent set."""
        return not any(bits[u] and bits[v] for u, v in self.edges)

    def to_json(self) -> str:
        return json.dumps({"nodes": self.n, "edges": sorted(list(e) for e in self.edges)})

    @staticmethod
    def from_json(text: str) -> "Graph":
        """The graph of a ``to_json`` object; ``IRError`` unless ``nodes`` is a
        non-negative integer and ``edges`` a list of integer pairs."""
        d = json.loads(text)
        if not isinstance(d, dict) or not {"nodes", "edges"} <= d.keys():
            raise IRError("graph JSON needs an object with 'nodes' and 'edges'")
        n, edges = d["nodes"], d["edges"]
        # type() is int, not isinstance: JSON true/false load as bools, which are ints
        if type(n) is not int or n < 0:
            raise IRError(f"graph 'nodes' must be a non-negative integer, got {n!r}")
        if not isinstance(edges, list) or any(
                type(e) is not list or len(e) != 2 or any(type(v) is not int for v in e)
                for e in edges):
            raise IRError("graph 'edges' must be a list of [u, v] integer pairs")
        return Graph.from_edges(n, edges)
