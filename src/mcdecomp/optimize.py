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
point's value, so one caller can step many searches together and evaluate
their points in one batch (``driver.run_benchmark``); ``maximize`` is the
serial driver that evaluates each point as it is asked for.
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
    Bad arguments raise ``ValueError`` here, before any point is asked for.

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
    if max_evals is not None and max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    budget = max_evals if max_evals is not None else 500 * len(x0)
    return _steps(x0, budget, tol)


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
