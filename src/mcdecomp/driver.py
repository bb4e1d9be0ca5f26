"""Experiment runner: seeded ensembles, per-trial records, and aggregates."""
from __future__ import annotations

import json
import numbers
import operator
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .ir import Graph, N_PER_CONTROLS, ONE, S2_2, S2_3, S3_2, ZEROED
from .graphs import brute_force_mis, erdos_renyi, random_regular
from .metrics import mixer_entangling_count
from . import optimize as opt
from .qaoa import (
    DQVA, SA, EngineBatch, IndependentSets, check_variant, dqva_default_mask, dqva_execution,
    dqva_outer_loop, independent_set_indices, optimize_single_round, param_count, round_slots,
    single_round_execution,
)


class DriverError(ValueError):
    pass


# ``run_benchmark`` steps the executions of every variant on subspaces of at
# most this many amplitudes in lockstep.  Desk graphs (10 nodes) hold 28-154; on
# states of thousands the arithmetic, not the per-call overhead, sets the
# time, and one ragged batch is no faster than single calls.
LOCKSTEP_MAX_DIM = 512
# Engines in one lockstep batch, which bounds its joined state and index arrays.
# The batch's searches run as one ``optimize.SearchGroup`` per dimension (desk:
# three), whose step costs about as much for one row as for a few dozen, so
# the width is set for groups of tens of rows: at 32 a desk group held about
# five, too few to beat stepping each search on its own.
LOCKSTEP_WIDTH = 128


# Gate-set / budget columns reported on every trial record (zeroed regime).
COUNT_COLUMNS = (
    (S2_2, ONE),
    (S2_3, ONE),
    (S2_2, N_PER_CONTROLS),
    (S2_3, N_PER_CONTROLS),
    (S3_2, "none"),
)
# The records' entangling keys, one string per column for every record.
_COLUMN_KEYS = tuple(f"{family}/{budget}" for family, budget in COUNT_COLUMNS)


@dataclass(slots=True)
class TrialRecord:
    graph_id: str
    variant: str
    param_count: int
    best_size: int
    optimum: int
    ratio: float
    rounds: int
    evals: int
    seed: int
    mixer_histogram: dict[int, int]
    entangling: dict[str, int]
    converged: bool
    max_infeasible: float
    best_set: tuple[int, ...]
    params: list[float] | None  # the best execution's angles; None for DQVA

    def to_dict(self) -> dict:
        """The fields as a new dict, the containers copied; the histogram's
        keys become (interned) strings."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["mixer_histogram"] = {sys.intern(str(k)): v for k, v in self.mixer_histogram.items()}
        d["entangling"] = dict(self.entangling)
        if self.params is not None:
            d["params"] = list(self.params)
        return d


@dataclass
class VariantSpec:
    variant: str
    p: int = 1
    nu: int | None = None

    def __post_init__(self):
        _require_numbers(self, ("p",), integer=True)
        _require_numbers(self, ("nu",), integer=True, optional=True)
        check_variant(self.variant, self.p)
        if self.variant == DQVA and (self.nu is None or self.nu < 1):
            raise DriverError("the dqva variant needs nu >= 1")

    @property
    def label(self) -> str:
        if self.variant == DQVA:
            return f"dqva(p={self.p},nu={self.nu})"
        return f"{self.variant}(p={self.p})"


@dataclass
class BenchmarkConfig:
    """Ensemble spec, variants, repetition counts, seeds; JSON round-trips."""

    ensemble: str = "erdos_renyi"
    nodes: int = 10
    density: float | None = None
    edge_prob: float | None = None
    degree: int = 3
    graph_count: int = 10
    variants: list[VariantSpec] = field(default_factory=lambda: [VariantSpec(SA, 1)])
    repetitions: int = 10
    seed: int = 0
    mixer_rounds: int = 5
    max_evals: int | None = None
    tol: float = 1e-4

    def __post_init__(self):
        _require_numbers(self, ("nodes", "degree", "graph_count", "repetitions", "seed",
                                "mixer_rounds"), integer=True)
        _require_numbers(self, ("max_evals",), integer=True, optional=True)
        _require_numbers(self, ("tol",), integer=False)
        _require_numbers(self, ("density", "edge_prob"), integer=False, optional=True)
        if self.graph_count < 1:
            raise DriverError("graph_count must be >= 1")
        if self.repetitions < 1:
            raise DriverError("repetitions must be >= 1")
        if self.mixer_rounds < 1:
            raise DriverError("mixer_rounds must be >= 1")
        if not self.tol >= 0:
            raise DriverError(f"tol must be >= 0, got {self.tol!r}")
        if self.max_evals is not None and self.max_evals < 1:
            raise DriverError("max_evals must be >= 1 (or null for the default budget)")
        if not self.variants:
            raise DriverError("variants must not be empty")

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2)

    @staticmethod
    def from_json(text: str) -> "BenchmarkConfig":
        """Parse a config; missing keys keep their defaults, unknown keys raise."""
        d = _known_keys(BenchmarkConfig, json.loads(text), "config")
        if "variants" in d:
            if not isinstance(d["variants"], list):
                raise DriverError("variants must be a list of variant objects")
            d["variants"] = [VariantSpec(**_known_keys(VariantSpec, v, "variant"))
                             for v in d["variants"]]
        return BenchmarkConfig(**d)


def _is_number(value, integer: bool) -> bool:
    if isinstance(value, bool):
        return False
    if not integer:
        return isinstance(value, numbers.Real)
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _require_numbers(obj, names, integer: bool, optional: bool = False) -> None:
    """Raise ``DriverError`` unless each named field holds an integer (for
    ``integer``) or a real number, and not a bool; ``optional`` allows None."""
    for name in names:
        value = getattr(obj, name)
        if not (optional and value is None or _is_number(value, integer)):
            kind = "an integer" if integer else "a number"
            raise DriverError(f"{name} must be {kind}, got {value!r}")


def _known_keys(cls, d, what: str) -> dict:
    if not isinstance(d, dict):
        raise DriverError(f"a {what} must be a JSON object")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise DriverError(f"unknown {what} keys: {', '.join(unknown)}")
    return d


def _make_graph(cfg: BenchmarkConfig, seed) -> Graph:
    if cfg.ensemble == "erdos_renyi":
        d = cfg.density
        if d is None:
            if cfg.edge_prob is None:
                raise DriverError("erdos_renyi needs density or edge_prob")
            d = cfg.edge_prob * (cfg.nodes - 1)
        return erdos_renyi(cfg.nodes, d, seed)
    if cfg.ensemble == "random_regular":
        return random_regular(cfg.nodes, cfg.degree, seed)
    raise DriverError(f"unknown ensemble {cfg.ensemble!r}")


def mixer_histogram(graph: Graph, p: int, nodes=None) -> dict[int, int]:
    """Per-arity count of partial mixers: key = controls of the gated rotation."""
    nodes = list(nodes) if nodes is not None else list(range(graph.n))
    hist: Counter[int] = Counter()
    for _ in range(p):
        for v in nodes:
            ell = graph.degree(v)
            if ell > 0:
                hist[ell] += 1
    return dict(hist)


def entangling_totals(hist: dict[int, int], regime: str = ZEROED) -> dict[str, int]:
    """Entangling total of a mixer histogram per count column, in one regime."""
    return {
        key: sum(count * mixer_entangling_count(ell, family, budget, regime)
                 for ell, count in hist.items())
        for key, (family, budget) in zip(_COLUMN_KEYS, COUNT_COLUMNS)
    }


def dqva_live_nodes(graph: Graph, p: int, nu: int, sigma=None) -> list[int]:
    """Nodes of the live mixers of a dynamic ansatz, layer by layer.

    The live slots are those of ``dqva_default_mask`` with an empty current
    set; ``sigma`` is the mixer order, the identity by default.
    """
    n = graph.n
    mask = dqva_default_mask(p, n, nu, range(n) if sigma is None else sigma)
    return [node for mixers, _ in round_slots(DQVA, p, n)
            for node in range(n) if mask[mixers[node]]]


def trial_mixer_histogram(graph: Graph, spec: VariantSpec) -> dict[int, int]:
    """Mixer histogram reported for one variant: every node in every layer,
    or for the dynamic variant only the live mixers of the identity ordering."""
    if spec.variant == DQVA:
        return mixer_histogram(graph, 1, dqva_live_nodes(graph, spec.p, spec.nu))
    return mixer_histogram(graph, spec.p)


def _execution_seeds(seed, repetitions: int) -> list[int]:
    """The seed of each execution of a trial, drawn from the trial's seed."""
    rng = np.random.default_rng(seed)
    return [int(rng.integers(0, 2**31 - 1)) for _ in range(repetitions)]


def run_trial(graph: Graph, spec: VariantSpec, seed, optimum: int,
              graph_id: str, repetitions: int, mixer_rounds: int = 5,
              max_evals=None, tol: float = 1e-4, optimizer=None, sets=None) -> TrialRecord:
    """Best-of-N executions of one variant on one graph (fresh random starts).

    The record keeps the best execution's set, size, rounds, evals and (for
    SA/MA) angles; ``converged`` holds when every execution converged, and
    ``max_infeasible`` is the worst unaccounted mass over the executions.
    Each maximization is ``optimize.maximize`` with ``max_evals`` and ``tol``
    unless ``optimizer(objective, x0)`` is given.  ``sets`` is the graph's
    ``IndependentSets``, built once here unless given.
    """
    if repetitions < 1:
        raise DriverError("repetitions must be >= 1")
    if optimizer is None:
        optimizer = lambda f, x0: opt.maximize(f, x0, max_evals=max_evals, tol=tol)
    if sets is None:
        sets = IndependentSets(graph)
    best = None
    converged = True
    worst_inf = 0.0
    for sub in _execution_seeds(seed, repetitions):
        if spec.variant == DQVA:
            res = dqva_outer_loop(graph, spec.nu, seed=sub, p=spec.p, mixer_rounds=mixer_rounds,
                                  optimizer=optimizer, sets=sets)
        else:
            res = optimize_single_round(graph, spec.variant, spec.p, seed=sub,
                                        optimizer=optimizer, sets=sets)
        converged = converged and res.converged
        worst_inf = max(worst_inf, res.max_infeasible)
        if not graph.is_independent(res.best_bits):
            raise DriverError("reported set is not independent")
        if best is None or res.best_size > best.best_size:
            best = res
    size = best.best_size
    hist = trial_mixer_histogram(graph, spec)
    n_params = spec.nu if spec.variant == DQVA else param_count(spec.variant, spec.p, graph.n)
    return TrialRecord(
        graph_id=graph_id,
        variant=spec.label,
        param_count=n_params,
        best_size=size,
        optimum=optimum,
        ratio=size / optimum if optimum else 1.0,
        rounds=best.rounds,
        evals=best.evals,
        seed=int(seed) if np.isscalar(seed) else -1,
        mixer_histogram=hist,
        entangling=entangling_totals(hist),
        converged=converged,
        max_infeasible=worst_inf,
        best_set=best.best_bits,
        params=None if best.params is None else [float(v) for v in best.params],
    )


def _trial_seed(cfg: BenchmarkConfig, gi: int, vi: int):
    return np.random.SeedSequence((cfg.seed, gi, vi)).generate_state(1)[0]


def run_benchmark(cfg: BenchmarkConfig, jobs: int = 1):
    """Yield TrialRecords for every (graph, variant); reproducible from the seed.

    Each trial's seed derives from (master seed, graph index, variant index).
    The executions of every variant on subspaces of at most
    ``LOCKSTEP_MAX_DIM`` amplitudes are first run together (``_lockstep``),
    DQVA's inner rounds included; then every trial runs through
    ``run_trial`` in order, and those executions replay their maximizations
    there, so the records equal those of serial ``run_trial`` calls.  Such a
    graph's ``IndependentSets`` is built once and serves the lockstep and
    its trials.  Trials run in one thread: ``jobs`` accepts only 1.
    """
    if jobs != 1:
        raise DriverError(f"jobs must be 1 (trials run serially), got {jobs}")
    graphs = []
    for gi, graph_seed in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.graph_count)):
        graph = _make_graph(cfg, graph_seed)
        optimum, _ = brute_force_mis(graph)
        if optimum:
            graphs.append((gi, graph, optimum))
    shared = {gi: IndependentSets(graph) for gi, graph, _ in graphs
              if len(independent_set_indices(graph)) <= LOCKSTEP_MAX_DIM}
    replays = _lockstep_trials(cfg, shared)
    for gi, graph, optimum in graphs:
        graph_id = f"{cfg.ensemble}-{cfg.nodes}-{gi}"
        # the lockstep's sets; a larger graph's trials build their own, so
        # that only one of those is alive at a time
        sets = shared.pop(gi, None)
        for vi, spec in enumerate(cfg.variants):
            yield run_trial(
                graph, spec, _trial_seed(cfg, gi, vi), optimum, graph_id=graph_id,
                repetitions=cfg.repetitions, mixer_rounds=cfg.mixer_rounds,
                max_evals=cfg.max_evals, tol=cfg.tol, optimizer=replays.pop((gi, vi), None),
                sets=sets,
            )


def _lockstep_trials(cfg: BenchmarkConfig, shared) -> dict:
    """Run every execution on the graphs of ``shared`` (graph index to its
    ``IndependentSets``) through ``_lockstep``.

    Returns a replaying optimizer for ``run_trial`` per (graph index,
    variant index).
    """
    jobs = [((gi, vi), sets, spec, sub) for gi, sets in shared.items()
            for vi, spec in enumerate(cfg.variants)
            for sub in _execution_seeds(_trial_seed(cfg, gi, vi), cfg.repetitions)]
    executions = (
        dqva_execution(sets, spec.nu, sub, spec.p, cfg.mixer_rounds) if spec.variant == DQVA
        else single_round_execution(sets, spec.variant, spec.p, sub)
        for _, sets, spec, sub in jobs)
    runs: dict = {}
    for (key, *_), recorded in zip(jobs, _lockstep(executions, cfg.max_evals, cfg.tol)):
        runs.setdefault(key, []).extend(recorded)
    return {key: _replay(recorded) for key, recorded in runs.items()}


def _lockstep(executions, max_evals, tol) -> list[list[tuple[np.ndarray, opt.OptResult]]]:
    """Run the ``executions`` (see ``qaoa.dqva_execution``) with their rounds'
    searches stepped together; returns each execution's ``(x0, result)`` per
    round, in order.

    The searches of one dimension form one ``optimize.SearchGroup``, and
    each step evaluates the pending points of every group with one
    ``EngineBatch`` call.  Building a batch costs about as much per engine
    as ten of its evals, so it is rebuilt only once half of its searches
    have finished: finished rows are evaluated until then and their values
    dropped.  A finished search's result goes to its execution at once, and
    the round that execution yields next joins at the rebuild.  A rebuild
    drops the finished rows, adds those rounds and tops the batch up to
    ``LOCKSTEP_WIDTH`` with new executions, which start only then, so that
    at most that many executions are alive at a time.
    """
    executions = iter(executions)
    runs = []
    ready = []  # the (run index, execution, (engine, x0)) of the rounds to join
    groups: dict[int, opt.SearchGroup] = {}  # by search dimension
    live = 0
    while True:
        while live + len(ready) < LOCKSTEP_WIDTH:
            execution = next(executions, None)
            if execution is None:
                break
            runs.append([])
            _advance(ready, len(runs) - 1, execution, None)
        for group in groups.values():
            group.drop_finished()
        joining: dict[int, list] = {}
        for run, execution, (engine, x0) in ready:
            joining.setdefault(len(x0), []).append((run, execution, engine, x0))
        for n, tags in joining.items():
            if n not in groups:
                groups[n] = opt.SearchGroup(n, max_evals, tol)
            groups[n].add([x0 for *_, x0 in tags], tags)
        ready = []
        active = [group for group in groups.values() if len(group)]
        members = [tag for group in active for tag in group.tags]
        if not members:
            return runs
        batch = EngineBatch(engine for _, _, engine, _ in members)
        live = len(members)
        while 2 * live > len(members):
            values = batch.expectations(np.concatenate([group.points.ravel() for group in active]))
            at = 0
            for group in active:
                for (run, execution, _, x0), result in group.tell(values[at:at + len(group)]):
                    live -= 1
                    runs[run].append((x0, result))
                    _advance(ready, run, execution, result)
                at += len(group)


def _advance(ready, run, execution, result) -> None:
    """Send ``result`` to ``execution`` and queue the round it yields next."""
    try:
        ready.append((run, execution, execution.send(result)))
    except StopIteration:
        pass


def _replay(recorded):
    """An optimizer for ``run_trial`` that returns the recorded ``(x0, result)``
    pairs in order, and raises ``DriverError`` unless each call's start point
    equals the recorded one bit for bit."""
    recorded = iter(recorded)

    def optimizer(objective, x0):
        want, result = next(recorded, (None, None))
        if want is None or np.asarray(x0).tobytes() != want.tobytes():
            raise DriverError("a replayed execution's start point differs from the lockstep's")
        return result

    return optimizer


def aggregate(records) -> dict:
    """Ensemble summary per variant: ratio spread, rounds, mixer histograms."""
    by_variant: dict[str, list[TrialRecord]] = {}
    for r in records:
        by_variant.setdefault(r.variant, []).append(r)
    out = {}
    for variant, recs in by_variant.items():
        ratios = [r.ratio for r in recs]
        hist: Counter[int] = Counter()
        for r in recs:
            hist.update(r.mixer_histogram)
        out[variant] = {
            "trials": len(recs),
            "mean_ratio": float(np.mean(ratios)),
            "min_ratio": float(np.min(ratios)),
            "max_ratio": float(np.max(ratios)),
            "optimal_fraction": float(np.mean([r.ratio >= 1.0 for r in recs])),
            "mean_rounds": float(np.mean([r.rounds for r in recs])),
            "mean_evals": float(np.mean([r.evals for r in recs])),
            "mean_mixers": {str(k): v / len(recs) for k, v in sorted(hist.items())},
        }
    return out
