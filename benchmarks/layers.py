"""Per-layer tracing from outside the program.

Each probe replaces one function at the place its callers look it up (a
module global such as ``verify.circuit_unitary`` or a class attribute such
as ``qaoa.AnsatzEngine.expectation``) with a wrapper that records a span:
calls, wall time, and self time (wall time minus the time of wrapped calls
made inside it).  A probe whose function no longer exists is recorded as
absent instead of failing, so a rewrite of a layer needs no edit here.

The same mechanism captures program outputs for the output checks (see
``Capture``); those wrappers do no timing.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory spans keyed by layer name, plus per-layer counters."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child_seconds]
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def timed(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        A span nested inside a span of the same name (recursion) counts the
        call but adds no time, so totals are never counted twice.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.spans.setdefault(name, Span())
            span.calls += 1
            outer = not any(frame[0] == name for frame in tracer._stack)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                if outer:
                    span.total_s += dt
                    span.self_s += dt - frame[1]
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def patch(self, target: str, make_wrapper) -> bool:
        """Replace ``module.attr`` or ``module.Class.attr`` with a wrapper.

        ``target`` is a dotted path below ``mcdecomp``; returns False and
        records the target as absent when any part of the path is missing.
        """
        module_name, _, rest = target.partition(":")
        try:
            owner = importlib.import_module(f"mcdecomp.{module_name}")
        except ImportError:
            self.absent.append(target)
            return False
        *owners, attr = rest.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(target)
                return False
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            self.absent.append(target)
            return False
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def probe(self, target: str, name: str, on_result=None) -> bool:
        return self.patch(target, lambda fn: self.timed(name, fn, on_result))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def total(self, name: str) -> float:
        span = self.spans.get(name)
        return span.total_s if span else 0.0

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span else 0

    def self_time(self, name: str) -> float:
        span = self.spans.get(name)
        return span.self_s if span else 0.0


def install_probes(tracer: Tracer) -> None:
    """Wrap every traced layer where its production callers look it up."""
    t = tracer

    def on_maximize(args, kwargs, result):
        t.count("optimize.evals", getattr(result, "evals", 0))

    def maximize_wrapper(fn):
        inner = t.timed("optimize.maximize", fn, on_maximize)

        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            return inner(t.timed("optimize.objective", objective), *args, **kwargs)

        return wrapper

    t.patch("optimize:maximize", maximize_wrapper)

    def on_statevector(args, kwargs, result):
        t.count("qaoa.statevector_amplitudes", int(np.size(result)))

    t.probe("qaoa:AnsatzEngine.__init__", "qaoa.engine_build")
    t.probe("qaoa:AnsatzEngine.expectation", "qaoa.expectation")
    t.probe("qaoa:AnsatzEngine.statevector", "qaoa.statevector", on_statevector)
    t.probe("qaoa:AnsatzEngine.statevector_live", "qaoa.readout")
    t.probe("qaoa:best_measured_set", "qaoa.readout")
    t.probe("qaoa:infeasible_probability", "qaoa.readout")

    def on_dqva(args, kwargs, result):
        t.count("qaoa.dqva_rounds", getattr(result, "rounds", 0))

    t.probe("driver:dqva_outer_loop", "qaoa.dqva_outer_loop", on_dqva)
    t.probe("driver:run_trial", "driver.run_trial")
    for target in ("driver:erdos_renyi", "driver:random_regular", "cli:erdos_renyi"):
        t.probe(target, "graphs.generate")
    t.probe("driver:brute_force_mis", "graphs.brute_force_mis")
    for target in ("driver:mixer_histogram", "cli:mixer_histogram"):
        t.probe(target, "driver.mixer_histogram")
    t.probe("ir:Graph.neighbors", "ir.Graph.neighbors")
    for target in ("driver:mixer_entangling_count", "cli:mixer_entangling_count"):
        t.probe(target, "metrics.mixer_entangling_count")
    t.probe("cli:sweep_counts", "cli.sweep_counts")

    def on_decompose(args, kwargs, result):
        t.count("decompose.gates_emitted", len(getattr(result, "gates", ())))

    for target in ("decompose:decompose", "verify:decompose"):
        t.probe(target, "decompose.decompose", on_decompose)

    def on_verify(args, kwargs, result):
        t.count("verify.checks", len(result))

    t.probe("verify:verify_schemes", "verify.verify_schemes", on_verify)

    def on_matrix(args, kwargs, result):
        rows, cols = result.shape
        t.peak("sim.max_width", int(np.log2(rows)))
        # Computed from the shape of the complex128 result, not measured.
        t.peak("sim.matrix_mb", rows * cols * 16 / 2**20)

    t.probe("verify:circuit_unitary", "sim.circuit_unitary", on_matrix)
    t.probe("verify:gate_unitary", "sim.gate_unitary", on_matrix)
    t.probe("sim:circuit_columns", "sim.circuit_columns", on_matrix)


def _per_call_us(t: Tracer, name: str) -> float:
    calls = t.calls(name)
    return 1e6 * t.total(name) / calls if calls else 0.0


def _mean_dim(t: Tracer) -> float:
    calls = t.calls("qaoa.statevector")
    return t.counters.get("qaoa.statevector_amplitudes", 0) / calls if calls else 0.0


# (name, unit, how the value is read from the tracer), in BENCHMARK.json order.
PER_LAYER = (
    ("qaoa.expectation_calls", "count", lambda t: t.calls("qaoa.expectation")),
    ("qaoa.expectation_s", "s", lambda t: t.total("qaoa.expectation")),
    ("qaoa.expectation_us", "us", lambda t: _per_call_us(t, "qaoa.expectation")),
    ("qaoa.engine_dim", "amplitudes", _mean_dim),
    ("qaoa.engine_builds", "count", lambda t: t.calls("qaoa.engine_build")),
    ("qaoa.engine_build_s", "s", lambda t: t.total("qaoa.engine_build")),
    ("qaoa.readout_s", "s", lambda t: t.total("qaoa.readout")),
    ("qaoa.dqva_rounds", "count", lambda t: t.counters.get("qaoa.dqva_rounds", 0)),
    ("optimize.maximize_calls", "count", lambda t: t.calls("optimize.maximize")),
    ("optimize.evals", "count", lambda t: t.counters.get("optimize.evals", 0)),
    ("optimize.maximize_self_s", "s", lambda t: t.self_time("optimize.maximize")),
    ("graphs.generate_s", "s", lambda t: t.total("graphs.generate")),
    ("graphs.brute_force_mis_s", "s", lambda t: t.total("graphs.brute_force_mis")),
    ("driver.run_trial_s", "s", lambda t: t.total("driver.run_trial")),
    ("driver.mixer_histogram_s", "s", lambda t: t.total("driver.mixer_histogram")),
    ("ir.Graph.neighbors_calls", "count", lambda t: t.calls("ir.Graph.neighbors")),
    ("ir.Graph.neighbors_s", "s", lambda t: t.total("ir.Graph.neighbors")),
    ("metrics.mixer_entangling_count_calls", "count",
     lambda t: t.calls("metrics.mixer_entangling_count")),
    ("metrics.mixer_entangling_count_s", "s", lambda t: t.total("metrics.mixer_entangling_count")),
    ("cli.sweep_counts_s", "s", lambda t: t.total("cli.sweep_counts")),
    ("decompose.decompose_calls", "count", lambda t: t.calls("decompose.decompose")),
    ("decompose.decompose_s", "s", lambda t: t.total("decompose.decompose")),
    ("decompose.gates_emitted", "count", lambda t: t.counters.get("decompose.gates_emitted", 0)),
    ("verify.checks", "count", lambda t: t.counters.get("verify.checks", 0)),
    ("verify.verify_schemes_s", "s", lambda t: t.total("verify.verify_schemes")),
    ("sim.circuit_unitary_calls", "count", lambda t: t.calls("sim.circuit_unitary")),
    ("sim.circuit_unitary_s", "s", lambda t: t.total("sim.circuit_unitary")),
    ("sim.circuit_columns_s", "s", lambda t: t.total("sim.circuit_columns")),
    ("sim.max_width", "lines", lambda t: t.maxima.get("sim.max_width", 0)),
    ("sim.matrix_mb", "MB", lambda t: t.maxima.get("sim.matrix_mb", 0.0)),
)

# Maxima describe one round already; every other value is divided by rounds.
_NOT_SUMMED = {"qaoa.expectation_us", "qaoa.engine_dim", "sim.max_width", "sim.matrix_mb"}


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict:
    out = {}
    for name, unit, read in PER_LAYER:
        value = float(read(tracer))
        if name not in _NOT_SUMMED:
            value /= rounds
        out[name] = {"value": value, "unit": unit}
    return out


class Capture:
    """Records program outputs during one round, for the output checks.

    ``trials`` holds ``(graph, record, reported_sets)`` per ``run_trial``
    call; ``histograms`` holds ``(graph, layers, nodes, result)`` per
    ``cli.mixer_histogram`` call.  No timing is done here.
    """

    def __init__(self):
        self.trials: list[tuple] = []
        self.histograms: list[tuple] = []
        self._sets: list | None = None
        self._tracer = Tracer()

    def install(self, outputs) -> None:
        """Capture the named outputs: "trials" and/or "histograms"."""
        def run_trial_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(graph, *args, **kwargs):
                outer, self._sets = self._sets, []
                try:
                    record = fn(graph, *args, **kwargs)
                    self.trials.append((graph, record, self._sets))
                finally:
                    self._sets = outer
                return record
            return wrapper

        def reporter(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self._sets is not None:
                    self._sets.append(result.best_bits)
                return result
            return wrapper

        def histogram_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(graph, p, nodes=None):
                result = fn(graph, p, nodes)
                self.histograms.append((graph, p, None if nodes is None else list(nodes), result))
                return result
            return wrapper

        if "trials" in outputs:
            self._tracer.patch("driver:run_trial", run_trial_wrapper)
            self._tracer.patch("driver:optimize_single_round", reporter)
            self._tracer.patch("driver:dqva_outer_loop", reporter)
        if "histograms" in outputs:
            self._tracer.patch("cli:mixer_histogram", histogram_wrapper)

    def uninstall(self) -> None:
        self._tracer.uninstall()

    @property
    def absent(self) -> list[str]:
        return self._tracer.absent
