"""Derivative-free local maximization for the variational loops.

``search`` runs a port of scipy's non-adaptive Nelder–Mead
(``scipy.optimize._minimize_neldermead``, scipy 1.17): the same
coefficients (reflection 1, expansion 2, contraction 1/2, shrink 1/2), the
same centroid sum, the same unstable ``argsort`` ordering, the same
convergence test and the same budget cut-off. Every step computes the same
floating-point values in the same order, so the paths, evaluation counts and
records equal those of ``scipy.optimize.minimize(method="Nelder-Mead")``.
The package owns it because that call was scipy's only use here, and
importing ``scipy.optimize`` cost most of a fresh process's start-up.

The search is a generator that yields each point it needs and is sent that
point's value; ``maximize`` is the serial driver that evaluates each point as
it is asked for.  ``SearchGroup`` runs many searches of one dimension
together, each row on the same path bit for bit, with each step's arithmetic
done once for the whole group as array operations, so that a caller can
evaluate their points in one batch (``driver.run_benchmark``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

XATOL = 1e-4


@dataclass
class OptResult:
    x: np.ndarray
    value: float
    evals: int
    converged: bool


class _BudgetSpent(Exception):
    pass


def search(x0, max_evals: int | None = None, tol: float = 1e-4):
    """Nelder–Mead maximization from ``x0`` as a generator.

    Each yielded point must be answered with ``send(objective(point))``; the
    generator's return value (``StopIteration.value``) is the ``OptResult``.
    Bad arguments raise ``ValueError`` here, before any point is asked for:
    ``x0`` must be a non-empty, finite vector (a scalar is a 1-vector).

    Terminates on simplex/objective tolerance (``xatol=1e-4``, ``fatol=tol``)
    or on the evaluation budget (default 500 per parameter); deterministic
    for a deterministic objective. Budget exhaustion is flagged via
    ``converged`` with the best point so far returned.

    The budget contract: a plateau probe first evaluates the N+1 vertices of
    the initial simplex and returns ``x0`` when they agree to ``tol``. Those
    evals are counted, and the simplex search re-evaluates the same vertices
    under a budget of ``max(1, max_evals - (N+1))`` calls, so a non-flat
    start spends at least one more: ``evals <= max(max_evals, N+2)``.
    """
    x0 = _start(x0)
    return _steps(x0, _budget(max_evals, tol, len(x0)), tol)


def _budget(max_evals, tol, n: int) -> int:
    """The evaluation budget of a search in ``n`` dimensions; ``ValueError``
    unless ``max_evals`` (None for the default) and ``tol`` are valid."""
    if max_evals is not None and max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    return max_evals if max_evals is not None else 500 * n


def _start(x0) -> np.ndarray:
    """``x0`` as a float vector (a scalar becomes a 1-vector); ``ValueError``
    unless it is non-empty, one-dimensional and finite."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1 or len(x0) == 0 or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be a non-empty, finite vector, got {x0!r}")
    return x0


def maximize(objective, x0, max_evals: int | None = None, tol: float = 1e-4) -> OptResult:
    """Run ``search`` serially, evaluating each point with ``objective``."""
    steps = search(x0, max_evals, tol)
    try:
        x = next(steps)
        while True:
            x = steps.send(objective(x))
    except StopIteration as done:
        return done.value


def _steps(x0: np.ndarray, budget: int, tol: float):
    # Probe the initial simplex first: a flat objective returns x0 after
    # dimension+1 evaluations instead of bouncing around the plateau.
    n = len(x0)
    simplex = [x0]
    for i in range(n):
        pt = x0.copy()
        pt[i] = pt[i] * 1.05 if pt[i] != 0 else 0.00025
        simplex.append(pt)
    values = []
    for pt in simplex:
        values.append((yield pt))
    if max(values) - min(values) <= tol:
        return OptResult(x0, values[0], len(values), True)

    # Minimize the negated objective from that simplex, as scipy does. A call
    # past ``maxfev`` abandons the step in progress; a shrink cut off that way
    # leaves the moved vertices with their old values.
    maxfev = max(1, budget - len(values))
    sim = np.array(simplex)
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def ask(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return -(yield x.copy())

    try:
        for k in range(n + 1):
            fsim[k] = yield from ask(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the initial simplex twice; the sort is not stable, so on
    # tied values the second pass may reorder rows, and the path with it.
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    while calls < maxfev:
        try:
            # scipy's tests in the other order, both pure.  fsim is sorted
            # (NaN last), so max|fsim[0] - fsim[1:]| is fsim[-1] - fsim[0]:
            # rounding is monotone, so the same value decides the same way.
            if (fsim[-1] - fsim[0] <= tol
                    and np.abs(sim[1:] - sim[0]).max() <= XATOL):
                break
            worst = sim[-1]
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - worst
            fxr = yield from ask(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * worst
                fxe = yield from ask(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # outside contraction when the reflection improved on the
                # worst vertex, inside contraction otherwise
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * worst if outside else 0.5 * xbar + 0.5 * worst
                fxc = yield from ask(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = yield from ask(sim[j])
        except _BudgetSpent:
            pass
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    return OptResult(sim[0].copy(), -np.min(fsim), calls + len(values), calls < maxfev)


# A row's place in the search: the plateau probe, the simplex's initial
# evaluation, the pending reflection, expansion or contraction, a shrink
# (``k`` is the vertex asked for), or finished.
_PROBE, _INIT, _REFLECT, _EXPAND, _CONTRACT, _SHRINK, _DONE = range(7)
# The trial points a*xbar + b*worst, one (a, b) row per kind: reflection,
# expansion, outside and inside contraction.  x + (-b)*w is x - b*w bit for
# bit, so these are the serial 2*xbar - w, 3*xbar - 2*w, 1.5*xbar - 0.5*w and
# 0.5*xbar + 0.5*w.
_REFLECTION, _EXPANSION, _OUTSIDE, _INSIDE = range(4)
_TRIAL = np.array([[2.0, -1.0], [3.0, -2.0], [1.5, -0.5], [0.5, 0.5]])


class _Row:
    """One search's branch state, as Python scalars: the phase, the vertex
    ``k`` it asks for, its calls and ``maxfev``, the probe's values, and
    the reflection's value and the sorted simplex's best, second-worst and
    worst values for the step in progress."""

    __slots__ = ("tag", "x0", "phase", "k", "calls", "maxfev", "values", "fxr", "outside",
                 "best", "second", "worst")

    def __init__(self, tag, x0):
        self.tag, self.x0 = tag, x0
        self.phase, self.k, self.values = _PROBE, 0, []


class SearchGroup:
    """``search`` for many starts of one dimension ``n``, stepped together.

    Each row holds one search.  ``points`` is the ``(rows, n)`` array of
    the rows' pending points; ``tell`` takes their values in row order and
    returns ``(tag, OptResult)`` for each row that finished on that step.
    A row's path, evaluations and result are those of ``search(x0,
    max_evals, tol)`` bit for bit: the group keeps the simplices in one
    ``(rows, n+1, n)`` array and their values in one ``(rows, n+1)`` array,
    and each step computes the serial values element for element (a
    row-wise ``argsort``, the centroid as ``np.add.reduce`` over the
    vertex axis, the trial points and shrink moves), once for every row
    that needs it.  A finished row keeps its last point, and its values are
    ignored until ``drop_finished``.
    """

    def __init__(self, n: int, max_evals: int | None = None, tol: float = 1e-4):
        self.n, self._tol = n, tol
        self._budget = _budget(max_evals, tol, n)
        self._rows: list[_Row] = []
        self._sim = np.empty((0, n + 1, n))
        self._fsim = np.empty((0, n + 1))
        self.points = np.empty((0, n))
        self._xbar = np.empty((0, n))  # the centroid of the step in progress

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def tags(self) -> list:
        return [row.tag for row in self._rows]

    def add(self, starts, tags) -> None:
        """Start a search from each of ``starts``, tagged with ``tags``."""
        starts = [_start(x0) for x0 in starts]
        if any(len(x0) != self.n for x0 in starts):
            raise ValueError(f"every start must have {self.n} coordinates")
        x0 = np.array(starts).reshape(-1, self.n)
        # the probe's simplex: vertex i+1 moves coordinate i by 5 %
        sim = np.repeat(x0[:, None], self.n + 1, 1)
        i = np.arange(self.n)
        sim[:, i + 1, i] = np.where(x0 != 0, x0 * 1.05, 0.00025)
        self._sim = np.concatenate([self._sim, sim])
        self._fsim = np.concatenate([self._fsim, np.full((len(x0), self.n + 1), np.inf)])
        self.points = np.concatenate([self.points, x0])
        self._xbar = np.concatenate([self._xbar, x0])
        self._rows += [_Row(tag, x) for tag, x in zip(tags, starts)]

    def drop_finished(self) -> None:
        keep = np.array([row.phase != _DONE for row in self._rows], dtype=bool)
        if keep.all():
            return
        self._rows = [row for row, kept in zip(self._rows, keep) if kept]
        self._sim, self._fsim = self._sim[keep], self._fsim[keep]
        self.points, self._xbar = self.points[keep], self._xbar[keep]

    def tell(self, values) -> list[tuple[object, OptResult]]:
        """Take each row's value of its point; return the rows that finished."""
        n, m, tol = self.n, self.n + 1, self._tol
        finished = []
        # Vertices are addressed by their flat index row * (n+1) + vertex.
        cells, cell_values = [], []  # the values that enter the simplex
        takes, takes_xr = [], []  # rows whose worst vertex becomes the point / the reflection
        moves = []  # vertices that a shrink moves
        asks, asked = [], []  # rows whose next point is a vertex, and that vertex
        trials, kinds = [], []  # rows asking for an expansion or contraction, and which
        firsts, ends = [], []  # rows ending the initial evaluation / any step

        def shrink(r, row):
            moves.append(r * m + row.k)
            if row.calls < row.maxfev:
                row.calls += 1
                asks.append(r)
                asked.append(r * m + row.k)
            else:
                ends.append(r)

        for r, (row, v) in enumerate(zip(self._rows, values)):
            phase = row.phase
            if phase == _DONE:
                continue
            if phase == _PROBE:
                row.values.append(v)
                if row.k < n:
                    row.k += 1
                elif max(row.values) - min(row.values) <= tol:
                    row.phase = _DONE
                    finished.append((row.tag, OptResult(row.x0, row.values[0], m, True)))
                    continue
                else:
                    row.phase, row.k, row.calls = _INIT, 0, 1
                    row.maxfev = max(1, self._budget - m)
                asks.append(r)
                asked.append(r * m + row.k)
                continue
            f = -v
            if phase == _INIT:
                cells.append(r * m + row.k)
                cell_values.append(f)
                row.k += 1
                if row.k <= n and row.calls < row.maxfev:
                    row.calls += 1
                    asks.append(r)
                    asked.append(r * m + row.k)
                else:
                    firsts.append(r)
                    ends.append(r)
            elif phase == _REFLECT:
                row.fxr = f
                if f < row.best:
                    kind = _EXPANSION
                elif f < row.second:
                    takes.append(r)
                    cells.append(r * m + n)
                    cell_values.append(f)
                    ends.append(r)
                    continue
                else:
                    row.outside = f < row.worst
                    kind = _OUTSIDE if row.outside else _INSIDE
                if row.calls < row.maxfev:
                    row.calls += 1
                    row.phase = _EXPAND if kind == _EXPANSION else _CONTRACT
                    trials.append(r)
                    kinds.append(kind)
                else:
                    ends.append(r)
            elif phase == _EXPAND:
                (takes if f < row.fxr else takes_xr).append(r)
                cells.append(r * m + n)
                cell_values.append(f if f < row.fxr else row.fxr)
                ends.append(r)
            elif phase == _CONTRACT:
                if (f <= row.fxr) if row.outside else (f < row.worst):
                    takes.append(r)
                    cells.append(r * m + n)
                    cell_values.append(f)
                    ends.append(r)
                else:
                    row.phase, row.k = _SHRINK, 1
                    shrink(r, row)
            else:
                cells.append(r * m + row.k)
                cell_values.append(f)
                row.k += 1
                if row.k > n:
                    ends.append(r)
                else:
                    shrink(r, row)

        vertices, points = self._sim.reshape(-1, n), self.points
        if cells:
            self._fsim.reshape(-1)[cells] = cell_values
        if takes:
            takes = np.array(takes)
            vertices[takes * m + n] = points.take(takes, 0)
        if takes_xr:
            # the reflection again, from the same centroid and worst vertex
            rows = np.array(takes_xr)
            worst = rows * m + n
            vertices[worst] = 2 * self._xbar.take(rows, 0) - vertices.take(worst, 0)
        if moves:
            moves = np.array(moves)
            first = vertices.take(moves - moves % m, 0)
            vertices[moves] = first + 0.5 * (vertices.take(moves, 0) - first)
        if ends:
            finished += self._end_steps(firsts, ends, trials, kinds)
        if asks:
            points[asks] = vertices.take(asked, 0)
        if trials:
            rows = np.array(trials)
            ab = _TRIAL.take(kinds, 0)
            points[rows] = (ab[:, :1] * self._xbar.take(rows, 0)
                            + ab[:, 1:] * vertices.take(rows * m + n, 0))
        return finished

    def _sort(self, rows: np.ndarray):
        """Sort the simplices of ``rows`` by value; returns them and their values."""
        order = self._fsim.take(rows, 0).argsort(axis=1)
        cells = order + (rows * (self.n + 1))[:, None]
        sim, fsim = self._sim.reshape(-1, self.n).take(cells, 0), self._fsim.take(cells)
        self._sim[rows], self._fsim[rows] = sim, fsim
        return sim, fsim

    def _end_steps(self, firsts, ends, trials, kinds) -> list[tuple[object, OptResult]]:
        """Sort the simplices of ``ends`` (those of ``firsts`` twice, as scipy
        sorts the initial simplex), then finish each row that is out of budget
        or converged; the others take their centroid and join ``trials`` for
        their next reflection."""
        n = self.n
        if firsts:
            self._sort(np.array(firsts))
        sim, fsim = self._sort(np.array(ends))
        finished, go, reflect = [], [], []
        for i, (r, f) in enumerate(zip(ends, fsim.tolist())):
            row = self._rows[r]
            # scipy's tests in the other order, both pure; the values are
            # sorted (NaN last), so max|f[0] - f[1:]| is f[-1] - f[0]
            if row.calls < row.maxfev and not (
                    f[-1] - f[0] <= self._tol and np.abs(sim[i, 1:] - sim[i, 0]).max() <= XATOL):
                row.phase = _REFLECT
                row.calls += 1
                row.best, row.second, row.worst = f[0], f[-2], f[-1]
                go.append(i)
                reflect.append(r)
                continue
            row.phase = _DONE
            finished.append((row.tag, OptResult(sim[i, 0].copy(), -np.min(fsim[i]),
                                                row.calls + n + 1, row.calls < row.maxfev)))
        if go:
            kept = sim if len(go) == len(ends) else sim.take(go, 0)
            self._xbar[reflect] = np.add.reduce(kept[:, :-1], 1) / n
            trials += reflect
            kinds += [_REFLECTION] * len(reflect)
        return finished
