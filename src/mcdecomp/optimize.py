"""Derivative-free local maximization for the variational loops.

``maximize`` runs a port of scipy's non-adaptive Nelder–Mead
(``scipy.optimize._minimize_neldermead``, scipy 1.17): the same
coefficients (reflection 1, expansion 2, contraction 1/2, shrink 1/2), the
same centroid sum, the same unstable ``argsort``/``take`` ordering, the same
convergence test and the same budget cut-off. Every step computes the same
floating-point values in the same order, so the paths, evaluation counts and
records equal those of ``scipy.optimize.minimize(method="Nelder-Mead")``.
The package owns it because that call was scipy's only use here, and
importing ``scipy.optimize`` cost most of a fresh process's start-up.
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


def maximize(objective, x0, max_evals: int | None = None, tol: float = 1e-4) -> OptResult:
    """Nelder–Mead maximization of ``objective`` starting from ``x0``.

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
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    budget = max_evals if max_evals is not None else 500 * len(x0)

    # Probe the initial simplex first: a flat objective returns x0 after
    # dimension+1 evaluations instead of bouncing around the plateau.
    simplex = [x0]
    for i in range(len(x0)):
        pt = x0.copy()
        pt[i] = pt[i] * 1.05 if pt[i] != 0 else 0.00025
        simplex.append(pt)
    values = [objective(p) for p in simplex]
    if max(values) - min(values) <= tol:
        return OptResult(x0, values[0], len(values), True)

    x, fmin, calls, converged = _nelder_mead(
        lambda v: -objective(v), np.array(simplex), max(1, budget - len(values)), tol)
    return OptResult(x, -fmin, calls + len(values), converged)


def _nelder_mead(func, sim, maxfev: int, fatol: float):
    """Minimize ``func`` from the simplex ``sim`` (N+1 rows, owned here).

    Returns ``(x, f, calls, converged)``: the best vertex, the least value
    seen, the calls made and whether the tolerance test (not the budget)
    ended the search. A call past ``maxfev`` abandons the step in progress;
    a shrink cut off that way leaves the moved vertices with their old values.
    """
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(np.copy(x))

    def order(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the initial simplex twice; the sort is not stable, so on
    # tied values the second pass may reorder rows, and the path with it.
    sim, fsim = order(*order(sim, fsim))

    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # outside contraction when the reflection improved on the
                # worst vertex, inside contraction otherwise
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = order(sim, fsim)

    return sim[0], np.min(fsim), calls, calls < maxfev
