"""Closed-form gate counts, the gate-decomposition cost, and fidelity thresholds."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ir import (
    AncillaBudget,
    BURNABLE,
    GateSetSpec,
    N_PER_CONTROLS,
    ONE,
    S2_2,
    S2_3,
    S2_M,
    S3_2,
    ZEROED,
)


class MetricsError(ValueError):
    pass


NONE_BUDGET = "none"


def exact_count_zeroed(n: int, family: str, budget: str) -> int:
    """Exact entangling gate count for C^n(Rx) with zeroed ancillas.

    Columns: (s2_2|s2_3) x (one|n) and s3_2 with budget "none".  Piecewise
    base cases below the asymptotic formulas.
    """
    if n < 1:
        raise MetricsError("need n >= 1 controls")
    if family == S3_2:
        if budget != NONE_BUDGET:
            raise MetricsError("qutrit counts take no ancilla budget")
        return 6 * n - 4 if n % 2 else 6 * n - 8
    if family == S2_2 and budget == ONE:
        return {1: 2, 2: 6, 3: 18, 4: 42}.get(n, 16 * n - 8)
    if family == S2_3 and budget == ONE:
        return {1: 2, 2: 2, 3: 4, 4: 10}.get(n, 8 * n - 24)
    if family == S2_2 and budget == N_PER_CONTROLS:
        return {1: 2, 2: 6}.get(n, 6 * n)
    if family == S2_3 and budget == N_PER_CONTROLS:
        return {1: 2, 2: 2}.get(n, 2 * n - 2)
    raise MetricsError(f"unsupported count column: {family}/{budget}")


@dataclass(frozen=True)
class CountTuple:
    """Per-arity gate counts: entries[i] is the number of (i+1)-qudit gates."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.entries):
            raise MetricsError("negative count")

    @property
    def entangling(self) -> int:
        return sum(self.entries[1:])

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class LeadingTerm:
    """Per-control leading coefficient of the largest-gate count for s2_m."""

    coefficient: Fraction
    gate_arity: int


# Asymptotic burnable-ancilla tuples, entry i = (i+1)-qudit gates as a linear
# function a*n + b of the control count.
_BURNABLE_TABLE: dict[tuple[str, str, str], tuple[tuple[int, int], ...]] = {
    (S2_2, NONE_BUDGET, "rx"): ((28, -24), (28, -60)),
    (S2_2, ONE, "rx"): ((16, 20), (16, -6)),
    (S2_2, ONE, "x"): ((8, 8), (8, -4)),
    (S2_2, N_PER_CONTROLS, "rx"): ((8, -8), (6, -6)),
    (S2_3, NONE_BUDGET, "rx"): ((0, 12), (0, 6), (14, -38)),
    (S2_3, ONE, "rx"): ((0, 4), (0, 2), (8, -24)),
    (S2_3, ONE, "x"): ((0, 0), (0, 0), (4, -12)),
    (S2_3, N_PER_CONTROLS, "rx"): ((0, 6), (0, 2), (1, -2)),
    (S2_3, N_PER_CONTROLS, "x"): ((0, 0), (0, 0), (1, -1)),
    (S3_2, NONE_BUDGET, "rx"): ((10, -10), (6, -4)),
}

# s2_m cells: per-control count of (m-1)-controlled NOTs, as multiples of
# 1/(m-2).
_S2M_COEFF = {
    (NONE_BUDGET, "rx"): 16,
    (ONE, "rx"): 8,
    (ONE, "x"): 4,
    (N_PER_CONTROLS, "rx"): 1,
    (N_PER_CONTROLS, "x"): 1,
}


def asymptotic_count_burnable(
    n: int, gate: str, family: str, budget: str, m: int | None = None
) -> CountTuple | LeadingTerm:
    """Asymptotic burnable-ancilla counts; empty X cells fall back to the Rx row."""
    if family == S2_M:
        if m is None or m < 3:
            raise MetricsError("s2_m asymptotics need m >= 3")
        key = (budget, gate)
        if key not in _S2M_COEFF:
            raise MetricsError(f"unsupported s2_m cell: {budget}/{gate}")
        return LeadingTerm(Fraction(_S2M_COEFF[key], m - 2), m)
    return CountTuple(tuple(a * n + b for a, b in _burnable_rows(family, budget, gate)))


def _burnable_rows(family: str, budget: str, gate: str) -> tuple[tuple[int, int], ...]:
    """A cell's rows of the burnable table.  An X cell with no row takes the Rx
    row: it has no better decomposition than the Rx one."""
    if gate not in ("rx", "x"):
        raise MetricsError(f"unknown workload {gate!r}")
    for key in ((family, budget, gate), (family, budget, "rx")):
        if key in _BURNABLE_TABLE:
            return _BURNABLE_TABLE[key]
    raise MetricsError(f"unsupported table cell: {family}/{budget}/{gate}")


@lru_cache(maxsize=4096)
def _built_burnable_entangling(n: int, family: str, budget: str) -> int:
    from .ir import mcrx
    from .decompose import decompose
    from .ir import entangling_total

    g = mcrx(list(range(n)), n, 0.5)
    c = decompose(g, GateSetSpec(family), AncillaBudget(budget, BURNABLE))
    return entangling_total(c)


def mixer_entangling_count(ell: int, family: str, budget: str, regime: str = ZEROED) -> int:
    """Entangling cost of one partial mixer on a degree-ell node.

    Zeroed budgets use the exact table; burnable budgets use the compute-only
    construction counts, and qutrits their row of the burnable table (exact
    from n=1).
    """
    if ell == 0:
        return 0
    if regime == ZEROED:
        return exact_count_zeroed(ell, family, budget)
    if regime != BURNABLE:
        raise MetricsError(f"unsupported mixer regime {regime!r}")
    if family == S3_2:
        return asymptotic_count_burnable(ell, "rx", S3_2, budget).entangling
    return _built_burnable_entangling(ell, family, budget)


# --- Gate decomposition cost -------------------------------------------------


def gdc(histogram: dict, fidelities: dict) -> float:
    """Gate decomposition cost: -sum_i n_i ln F_i (natural log).

    Any log base only rescales all GDCs uniformly; natural log is used here.
    Zero iff every used fidelity is 1.  Every fidelity given is checked, used
    or not.
    """
    for key, f in fidelities.items():
        if not 0 < f <= 1:
            raise MetricsError(f"fidelity for {key!r} must be in (0, 1], got {f}")
    cost = 0.0
    for key, count in histogram.items():
        if count < 0:
            raise MetricsError(f"negative count for {key!r}")
        if count == 0:
            continue
        if key not in fidelities:
            raise MetricsError(f"no fidelity for gate type {key!r}")
        cost += count * (-math.log(fidelities[key]))
    return cost


# --- Fidelity thresholds ------------------------------------------------------


@dataclass(frozen=True)
class ThresholdRequirement:
    """The inequality F_m^lhs_exponent > prod_i F_{i}^{e_i} for set m over m-1."""

    m: int
    lhs_exponent: int
    rhs: tuple[tuple[int, int], ...]

    def __str__(self):
        left = f"F{self.m}" + (f"^{self.lhs_exponent}" if self.lhs_exponent != 1 else "")
        right = " ".join(
            f"F{i}" + (f"^{e}" if e != 1 else "") for i, e in self.rhs
        )
        return f"{left} > {right}"


def threshold_requirement(m: int) -> ThresholdRequirement:
    """Fidelity requirement for s2_m to beat s2_(m-1) asymptotically."""
    if m < 3:
        raise MetricsError("thresholds start at the 3-qubit gate set")
    if m == 3:
        return ThresholdRequirement(3, 1, ((1, 2), (2, 2)))
    if m == 4:
        return ThresholdRequirement(4, 1, ((3, 2),))
    return ThresholdRequirement(m, m - 3, ((m - 1, m - 2),))


@dataclass(frozen=True)
class ThresholdChain:
    """Derived thresholds F_m* assuming smaller gates just meet their own."""

    f1: float
    f2: float
    thresholds: tuple[tuple[int, float], ...]

    def value(self, m: int) -> float:
        for i, v in self.thresholds:
            if i == m:
                return v
        raise MetricsError(f"no threshold computed for m={m}")


def threshold_chain(f1: float, f2: float, max_m: int = 8) -> ThresholdChain:
    """Recursive threshold chain: F3* = f1^2 f2^2, F4* = F3*^2, then
    F_m* = F_{m-1}*^((m-2)/(m-3)); equivalently (f1 f2)^(2(m-2)) for m >= 4."""
    for name, f in (("f1", f1), ("f2", f2)):
        if not 0 < f <= 1:
            raise MetricsError(f"{name} must be in (0, 1], got {f}")
    if max_m < 3:
        raise MetricsError("max_m must be >= 3")
    vals = {3: f1 * f1 * f2 * f2}
    if max_m >= 4:
        vals[4] = vals[3] ** 2
    for m in range(5, max_m + 1):
        vals[m] = vals[m - 1] ** ((m - 2) / (m - 3))
    return ThresholdChain(f1, f2, tuple(sorted(vals.items())))


# Per-control entangling slopes of the burnable table, keyed by arity; used to
# compare gate sets at large n.
def _asymptotic_slopes(family: str, budget: str, gate: str, m: int | None) -> dict[int, Fraction]:
    if family == S3_2 and budget != NONE_BUDGET:
        raise MetricsError("qutrit set has counts only without ancillas")
    if family == S2_M:
        lead = asymptotic_count_burnable(1, gate, family, budget, m=m)
        return {lead.gate_arity: lead.coefficient}
    rows = _burnable_rows(family, budget, gate)
    return {i + 1: Fraction(a) for i, (a, _) in enumerate(rows) if a}


def gateset_dominates(a: GateSetSpec, b: GateSetSpec, workload: str = "rx",
                      budget: str = ONE) -> bool:
    """True iff set `a` has strictly smaller per-control log-infidelity than `b`.

    Uses the asymptotic per-control gate counts and each set's declared
    fidelities; consistent with the threshold inequalities at the boundary.
    """
    def cost(spec: GateSetSpec) -> float:
        bud = NONE_BUDGET if spec.family == S3_2 else budget
        slopes = _asymptotic_slopes(spec.family, bud, workload, spec.m)
        total = 0.0
        for arity, slope in slopes.items():
            total += float(slope) * (-math.log(spec.fidelity(arity)))
        return total

    return cost(a) < cost(b)
