"""Derivative-free local maximization for the variational loops.

``maximize`` runs a port of scipy's non-adaptive Nelder–Mead
(``scipy.optimize._minimize_neldermead``, scipy 1.17): the same
coefficients (reflection 1, expansion 2, contraction 1/2, shrink 1/2), the
same centroid sum, the same convergence test and the same budget cut-off.
It orders the simplex with a stable ``argsort``, where scipy's is unstable:
numpy's default sort picks its kernel by CPU, and on tied values (common on
an objective that is flat along one axis) the kernels order the vertices,
and so the paths, differently.  Every step computes the same floating-point
values in the same order, so the paths equal those of
``scipy.optimize.minimize(method="Nelder-Mead")`` under a stable sort,
started from the plateau probe's simplex.  The search takes the probe's
values for that simplex rather than evaluating its vertices again, so each
start vertex costs one evaluation.  The package owns the port because that
call was scipy's only use here, and importing ``scipy.optimize`` cost most
of a fresh process's start-up.

``SearchGroup`` runs many searches together, of any dimensions, each row on
the path of ``maximize`` bit for bit, with each step's arithmetic done once
for the whole group as array operations over simplices padded to the widest
row (its docstring states the padding rules), so that a caller can evaluate
all their points in one batch (``driver.run_benchmark``).
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


def _probe_simplex(x0: np.ndarray) -> np.ndarray:
    """The ``(n+1, n)`` simplex around ``x0``, as scipy builds its default:
    vertex i+1 moves coordinate i by 5 %, or to 0.00025 from zero."""
    n = len(x0)
    sim = np.repeat(x0[None], n + 1, 0)
    i = np.arange(n)
    sim[i + 1, i] = np.where(x0 != 0, x0 * 1.05, 0.00025)
    return sim


def _stalled(sim, fsim, tol) -> bool:
    """scipy's stopping test on the sorted simplex ``sim`` and its values
    ``fsim``, its two tests in the other order, both pure.  The values are
    sorted (NaN last), so max|fsim[0] - fsim[1:]| is fsim[-1] - fsim[0]:
    rounding is monotone, so the same value decides the same way.  The
    simplex is read only when the values pass."""
    return fsim[-1] - fsim[0] <= tol and np.abs(sim[1:] - sim[0]).max() <= XATOL


# The trial points a*xbar + b*worst, one (a, b) row per kind: reflection,
# expansion, outside and inside contraction.  x + (-b)*w is x - b*w bit for
# bit, so these are scipy's 2*xbar - w, 3*xbar - 2*w, 1.5*xbar - 0.5*w and
# 0.5*xbar + 0.5*w.
_REFLECTION, _EXPANSION, _OUTSIDE, _INSIDE = range(4)
_TRIAL = np.array([[2.0, -1.0], [3.0, -2.0], [1.5, -0.5], [0.5, 0.5]])


def _trial(kinds, xbar, worst) -> np.ndarray:
    """The trial point of one kind, or of one kind per row of ``xbar`` and
    ``worst``."""
    ab = _TRIAL.take(kinds, 0)
    return ab[..., :1] * xbar + ab[..., 1:] * worst


def maximize(objective, x0, max_evals: int | None = None, tol: float = 1e-4) -> OptResult:
    """Nelder–Mead maximization of ``objective`` from ``x0``.

    Bad arguments raise ``ValueError`` before any point is evaluated:
    ``x0`` must be a non-empty, finite vector (a scalar is a 1-vector).

    Terminates on simplex/objective tolerance (``xatol=1e-4``, ``fatol=tol``)
    or on the evaluation budget (default 500 per parameter); deterministic
    for a deterministic objective. Budget exhaustion is flagged via
    ``converged`` with the best point so far returned.

    The budget contract: a plateau probe first evaluates the N+1 vertices of
    the initial simplex and returns ``x0`` when they agree to ``tol``.
    Otherwise the simplex search starts from those vertices and their
    values, and its steps run under a budget of ``max(1, max_evals - (N+1))``
    calls, so a non-flat start spends at least one more:
    ``evals <= max(max_evals, N+2)``.
    """
    x0 = _start(x0)
    n = len(x0)
    budget = _budget(max_evals, tol, n)
    # Probe the start simplex first: a flat objective returns x0 after N+1
    # evaluations instead of bouncing around the plateau.
    sim = _probe_simplex(x0)
    values = [objective(pt) for pt in sim]
    if max(values) - min(values) <= tol:
        return OptResult(x0, values[0], n + 1, True)

    # Minimize the negated objective from that simplex, as scipy does. A call
    # past ``maxfev`` abandons the step in progress; a shrink cut off that way
    # leaves the moved vertices with their old values.
    maxfev = max(1, budget - (n + 1))
    fsim = -np.array(values, dtype=float)
    calls = 0

    def ask(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return -objective(x.copy())

    # scipy sorts the initial simplex twice; a second stable sort changes
    # nothing.  The sort copies ``sim``, so the points the probe passed to
    # the objective are never written.
    ind = fsim.argsort(kind="stable")
    sim, fsim = sim[ind], fsim[ind]

    while calls < maxfev:
        try:
            if _stalled(sim, fsim, tol):
                break
            worst = sim[-1]
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = _trial(_REFLECTION, xbar, worst)
            fxr = ask(xr)
            if fxr < fsim[0]:
                xe = _trial(_EXPANSION, xbar, worst)
                fxe = ask(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # outside contraction when the reflection improved on the
                # worst vertex, inside contraction otherwise
                outside = fxr < fsim[-1]
                xc = _trial(_OUTSIDE if outside else _INSIDE, xbar, worst)
                fxc = ask(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = ask(sim[j])
        except _BudgetSpent:
            pass
        ind = fsim.argsort(kind="stable")
        sim, fsim = sim[ind], fsim[ind]

    return OptResult(sim[0].copy(), -np.min(fsim), calls + n + 1, calls < maxfev)


# A row's place in the search: the plateau probe, the pending reflection,
# expansion or contraction, a shrink (``k`` is the vertex asked for), or
# finished.
_PROBE, _REFLECT, _EXPAND, _CONTRACT, _SHRINK, _DONE = range(6)


class _Row:
    """One search's branch state, as Python scalars: its dimension ``n``,
    the phase, the vertex ``k`` it asks for, its calls and ``maxfev``, the
    probe's values, and the reflection's value and the sorted simplex's
    best, second-worst and worst values for the step in progress."""

    __slots__ = ("tag", "x0", "n", "phase", "k", "calls", "maxfev", "values", "fxr", "outside",
                 "best", "second", "worst")

    def __init__(self, tag, x0):
        self.tag, self.x0, self.n = tag, x0, len(x0)
        self.phase, self.k, self.values = _PROBE, 0, []


class SearchGroup:
    """``maximize`` for many starts of any dimensions, stepped together.

    Each row holds one search.  ``joined_points()`` returns the rows'
    pending points joined end to end (``points`` holds them padded, one
    row each), and ``tell`` takes their values in row order and returns
    ``(tag, OptResult)`` for each row that finished on that step.  A row asks for the points that ``maximize(objective, x0,
    max_evals, tol)`` evaluates, in order, and its result is that call's
    bit for bit: the group keeps the simplices in one ``(rows, w+1, w)``
    array and their values in one ``(rows, w+1)`` array, w the widest
    row's dimension, and each step computes the serial values element for
    element (a row-wise stable ``argsort``, the centroid as
    ``np.add.reduce`` over the vertex axis, the trial points and shrink
    moves), once for every row that needs it.  A row of dimension n < w is
    padded so that every step sees its own simplex:

    - its coordinates past n are 0.0, and so are its vertices past n;
      every step is coordinate-wise, so no real coordinate reads them;
    - its values past vertex n are NaN, which the stable sort keeps after
      every real value, real NaNs included, so the padded vertices stay put;
    - the centroid sums the first n vertices in order from -0.0 (-0.0 + x
      is x bit for bit, +0.0 included) and divides by n;
    - the stopping test, the budget (``500 * n`` by default) and the
      result's value read the real vertices only.

    A finished row keeps its last point, and its values are ignored until
    ``drop_finished``.
    """

    def __init__(self, *, max_evals: int | None = None, tol: float = 1e-4):
        _budget(max_evals, tol, 1)  # bad arguments raise here, not at a row's probe
        self._max_evals, self._tol = max_evals, tol
        self._rows: list[_Row] = []
        self._sim, self._fsim = np.empty((0, 1, 0)), np.empty((0, 1))
        # the pending points and the centroids of the steps in progress
        self.points, self._xbar = np.empty((0, 0)), np.empty((0, 0))
        self._reindex()

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def tags(self) -> list:
        return [row.tag for row in self._rows]

    def joined_points(self) -> np.ndarray:
        """The rows' pending points without their padding, joined end to end."""
        return self.points.take(self._coords)

    def add(self, starts, tags) -> None:
        """Start a search from each of ``starts``, tagged with ``tags``;
        ``ValueError`` before any change unless every start is valid and
        each has one tag."""
        starts, tags = [_start(x0) for x0 in starts], list(tags)
        if len(starts) != len(tags):
            raise ValueError(f"{len(starts)} starts for {len(tags)} tags")
        rows, old = self.points.shape
        w, size = max([old, *map(len, starts)]), rows + len(starts)
        sim, fsim = np.zeros((size, w + 1, w)), np.full((size, w + 1), np.nan)
        points, xbar = np.zeros((size, w)), np.zeros((size, w))
        sim[:rows, :old + 1, :old], fsim[:rows, :old + 1] = self._sim, self._fsim
        points[:rows, :old], xbar[:rows, :old] = self.points, self._xbar
        for r, x0 in enumerate(starts, rows):
            sim[r, :len(x0) + 1, :len(x0)], points[r, :len(x0)] = _probe_simplex(x0), x0
        self._sim, self._fsim, self.points, self._xbar = sim, fsim, points, xbar
        self._rows += [_Row(tag, x0) for tag, x0 in zip(tags, starts)]
        self._reindex()

    def drop_finished(self) -> None:
        keep = np.array([row.phase != _DONE for row in self._rows], dtype=bool)
        if keep.all():
            return
        self._rows = [row for row, kept in zip(self._rows, keep) if kept]
        self._sim, self._fsim = self._sim[keep], self._fsim[keep]
        self.points, self._xbar = self.points[keep], self._xbar[keep]
        self._reindex()

    def _reindex(self) -> None:
        """Index the rows' dimensions n: ``_inner`` marks each row's first n
        of w vertices or coordinates, and ``_last`` and ``_coords`` hold the
        flat indices of its worst vertex and of its real coordinates."""
        n = self._n = np.array([row.n for row in self._rows], dtype=np.intp)[:, None]
        w = self.points.shape[1]
        self._inner = (np.arange(w) < n)[:, :, None]
        self._last = np.arange(len(n)) * (w + 1) + n[:, 0]
        self._coords = np.flatnonzero(self._inner)

    def tell(self, values) -> list[tuple[object, OptResult]]:
        """Take each row's value of its point; return the rows that finished."""
        m, tol = self.points.shape[1] + 1, self._tol
        finished = []
        # Vertices are addressed by their flat index row * (w+1) + vertex.
        cells, cell_values = [], []  # the values that enter the simplex
        takes, takes_xr = [], []  # rows whose worst vertex becomes the point / the reflection
        moves = []  # vertices that a shrink moves
        asks, asked = [], []  # rows whose next point is a vertex, and that vertex
        trials, kinds = [], []  # rows asking for an expansion or contraction, and which
        ends = []  # rows ending a step, the probe included

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
            n = row.n
            if phase == _PROBE:
                row.values.append(v)
                if row.k < n:
                    row.k += 1
                    asks.append(r)
                    asked.append(r * m + row.k)
                elif max(row.values) - min(row.values) <= tol:
                    row.phase = _DONE
                    finished.append((row.tag, OptResult(row.x0, row.values[0], n + 1, True)))
                else:
                    # the simplex search starts from the probe's values
                    row.calls = 0
                    row.maxfev = max(1, _budget(self._max_evals, tol, n) - (n + 1))
                    cells += range(r * m, r * m + n + 1)
                    cell_values += [-f for f in row.values]
                    ends.append(r)
                continue
            f = -v
            if phase == _REFLECT:
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

        vertices, points = self._sim.reshape(len(self._sim) * m, m - 1), self.points
        if cells:
            self._fsim.reshape(-1)[cells] = cell_values
        if takes:
            takes = np.array(takes)
            vertices[self._last.take(takes)] = points.take(takes, 0)
        if takes_xr:
            # the reflection again, from the same centroid and worst vertex
            rows = np.array(takes_xr)
            worst = self._last.take(rows)
            vertices[worst] = _trial(_REFLECTION, self._xbar.take(rows, 0), vertices.take(worst, 0))
        if moves:
            moves = np.array(moves)
            first = vertices.take(moves - moves % m, 0)
            vertices[moves] = first + 0.5 * (vertices.take(moves, 0) - first)
        if ends:
            finished += self._end_steps(ends, trials, kinds)
        if asks:
            points[asks] = vertices.take(asked, 0)
        if trials:
            rows = np.array(trials)
            points[rows] = _trial(kinds, self._xbar.take(rows, 0),
                                  vertices.take(self._last.take(rows), 0))
        return finished

    def _sort(self, rows: np.ndarray):
        """Sort the simplices of ``rows`` by value; returns them and their values."""
        m = self._fsim.shape[1]
        order = self._fsim.take(rows, 0).argsort(axis=1, kind="stable")
        cells = order + (rows * m)[:, None]
        sim, fsim = self._sim.reshape(-1, m - 1).take(cells, 0), self._fsim.take(cells)
        self._sim[rows], self._fsim[rows] = sim, fsim
        return sim, fsim

    def _end_steps(self, ends, trials, kinds) -> list[tuple[object, OptResult]]:
        """Sort the simplices of ``ends``, then finish each row that is out of
        budget or converged; the others take their centroid and join
        ``trials`` for their next reflection.  The stopping test is
        ``_stalled``'s: the value test row by row, then the simplex test for
        all the rows that pass it at once, as one masked max."""
        sim, fsim = self._sort(np.array(ends))
        values = fsim.tolist()
        at = [i for i, (r, f) in enumerate(zip(ends, values))
              if f[self._rows[r].n] - f[0] <= self._tol]
        stalled = set()
        if at:
            spread = np.maximum.reduce(np.abs(sim[at, 1:] - sim[at, :1]), (1, 2), initial=0.0,
                                       where=self._inner.take([ends[i] for i in at], 0))
            stalled = {i for i, s in zip(at, spread.tolist()) if s <= XATOL}
        finished, go, reflect = [], [], []
        for i, (r, f) in enumerate(zip(ends, values)):
            row = self._rows[r]
            if row.calls < row.maxfev and i not in stalled:
                row.phase = _REFLECT
                row.calls += 1
                row.best, row.second, row.worst = f[0], f[row.n - 1], f[row.n]
                go.append(i)
                reflect.append(r)
                continue
            row.phase = _DONE
            finished.append((row.tag, OptResult(
                sim[i, 0, :row.n].copy(), -np.min(fsim[i, :row.n + 1]),
                row.calls + row.n + 1, row.calls < row.maxfev)))
        if go:
            # vertex v is real and not the worst when v < n
            self._xbar[reflect] = np.add.reduce(
                sim.take(go, 0)[:, :-1], 1, initial=-0.0,
                where=self._inner.take(reflect, 0)) / self._n.take(reflect, 0)
            trials += reflect
            kinds += [_REFLECTION] * len(reflect)
        return finished
