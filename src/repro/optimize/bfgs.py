"""BFGS quasi-Newton minimiser.

The paper maximises the branch-site likelihood with "iterative
maximization algorithms such as Newton-Raphson methods or an
approximation like the BFGS method" (§II-B) and reports *iteration
counts* per dataset (Table III); this implementation therefore exposes
both iteration and function-evaluation counts, and both engines in a
benchmark run the *same* optimiser so runtime differences isolate the
likelihood kernels.

Implementation notes
--------------------
* Dense inverse-Hessian update (parameter counts here are ≤ a few
  hundred: model params + 2s−3 branch lengths).
* The caller passes its gradient; the likelihood fits pass an analytic
  one, so every counted evaluation is the start point or a line-search
  step.  Probes a gradient makes through the counted objective it is
  handed count as evaluations too.
* Armijo line search.  The first trial step is 1 for a quasi-Newton
  direction and ``min(1, 1/‖g‖₂)`` for raw steepest descent (the
  identity start, or a reset after a non-descent direction), the scale
  SciPy's BFGS uses.  A rejected finite trial ``α`` is replaced by the
  minimiser of the quadratic through ``f(0)``, ``f'(0)`` and ``f(α)``,
  clipped to ``[0.1α, 0.5α]``; a non-finite trial halves.  The search
  fails once the step falls below 2⁻³⁹ of its first trial.
* The BFGS update is skipped when the curvature condition fails
  (standard damping-free safeguard, which keeps the inverse Hessian
  positive definite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

__all__ = [
    "OptimizeResult",
    "minimize_bfgs",
    "BARRIER_SLOPE",
    "FTOL",
    "GTOL",
    "ITERATION_CAP",
]

#: Finite stand-in slope for a gradient probe that hit a non-finite
#: objective (a parameter wall or a diagnosed numerical fault mapped to
#: ``+inf``).  Steep enough that the line search immediately backs away
#: from the wall, small enough that ``slope * h`` stays well inside the
#: double range for any reasonable step.
BARRIER_SLOPE = 1e8

#: ``OptimizeResult.message`` of a run that spent its iteration budget.
ITERATION_CAP = "maximum iterations reached"

#: Convergence on the gradient infinity norm.
GTOL = 1e-4

#: Convergence on the relative objective decrease between accepted
#: iterations.
FTOL = 1e-9


def _barrier(value: float) -> float:
    """Uniform non-finite handling: NaN, ``+inf`` *and* ``-inf`` → ``+inf``.

    A ``-inf`` objective (``+inf`` log-likelihood) is just as much a
    numerical fault as NaN — letting it through would make the line
    search chase an unbounded descent direction into garbage.
    """
    return value if np.isfinite(value) else np.inf


@dataclass
class OptimizeResult:
    """Outcome of a minimisation run."""

    x: np.ndarray
    fun: float
    n_iterations: int
    n_evaluations: int
    converged: bool
    message: str
    #: Objective value after each accepted iteration (for convergence plots).
    history: List[float] = field(default_factory=list)
    #: True when the run ended because backtracking found no decrease —
    #: either ordinary convergence-by-stagnation *or*, when it happens
    #: with ``n_iterations == 0``, a collapse the recovery policy in
    #: :mod:`repro.optimize.ml` treats as a restartable fault.
    line_search_failed: bool = False
    #: Infinity norm of the gradient at ``x`` (the last one computed).
    grad_norm: float = float("nan")


def _backtrack(step: float, f0: float, slope: float, f_step: float) -> float:
    """Next trial step after ``f_step = f(step)`` failed the Armijo test.

    Minimises the quadratic through ``f(0) = f0``, ``f'(0) = slope`` and
    ``f(step)``, kept within ``[0.1, 0.5]·step`` so one bad model can
    neither stall the search nor jump past the useful range.  A
    non-finite trial (a barrier) carries no curvature, so it halves.
    """
    if not np.isfinite(f_step):
        return 0.5 * step
    # Rejection means f_step > f0 + 1e-4·slope·step > f0 + slope·step,
    # so the curvature term is positive.
    trial = -slope * step * step / (2.0 * (f_step - f0 - slope * step))
    return min(max(trial, 0.1 * step), 0.5 * step)


def _bfgs_update(h_inv: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inverse-Hessian BFGS update for step ``s`` and gradient change ``y``
    (the caller has checked the curvature condition ``sᵀy > 0``)."""
    rho = 1.0 / float(s @ y)
    left = np.eye(s.shape[0]) - rho * np.outer(s, y)
    return left @ h_inv @ left.T + rho * np.outer(s, s)


#: ``gradient(fun, x, fx) -> grad``: ``fun`` is the minimiser's counted,
#: barrier-mapped objective, so probes a gradient makes through it count
#: as evaluations; ``fx`` is ``fun(x)``, the call made just before.
GradientFn = Callable[[Callable[[np.ndarray], float], np.ndarray, float], np.ndarray]


def minimize_bfgs(
    fun: Callable[[np.ndarray], float],
    x0: np.ndarray,
    gradient: GradientFn,
    max_iterations: int = 200,
    f0: Optional[float] = None,
) -> OptimizeResult:
    """Minimise ``fun`` from ``x0`` with BFGS.

    Converges on :data:`GTOL` (gradient infinity norm) or :data:`FTOL`
    (relative objective decrease between accepted iterations).

    Parameters
    ----------
    gradient:
        ``gradient(f, x, fx) -> grad`` (:data:`GradientFn`), called at
        the start point and after every accepted step, each time right
        after ``f(x)`` was evaluated.
    max_iterations:
        Iteration budget; benchmark fits use a *fixed* budget per engine
        so per-iteration speedups (paper Table IV, ``Si``) are measured
        on equal work.
    f0:
        ``fun(x0)`` when the caller has just evaluated it (it still
        counts as an evaluation); ``fun`` is then not called at ``x0``.

    Returns
    -------
    OptimizeResult
        ``n_evaluations`` counts every objective call, gradient probes
        made through ``f`` included.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError(f"x0 must be a vector, got shape {x.shape}")
    n = x.shape[0]
    evaluations = 0

    def f(z: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        # Any non-finite value (NaN, ±inf) becomes a +inf barrier so the
        # line search backs off uniformly.
        return _barrier(float(fun(z)))

    if f0 is None:
        fx = f(x)
    else:
        evaluations += 1
        fx = _barrier(float(f0))
    if not np.isfinite(fx):
        raise ValueError("objective is not finite at the start point")
    grad = gradient(f, x, fx)
    h_inv = np.eye(n)
    steepest = True
    history: List[float] = [fx]
    message = ITERATION_CAP
    converged = False
    line_search_failed = False

    iteration = 0
    for iteration in range(1, max_iterations + 1):
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < GTOL:
            message = f"gradient norm {grad_norm:.3g} < gtol"
            converged = True
            iteration -= 1
            break

        direction = -h_inv @ grad
        slope = float(grad @ direction)
        if slope >= 0:
            # Numerical breakdown: reset to steepest descent.
            h_inv = np.eye(n)
            steepest = True
            direction = -grad
            slope = float(grad @ direction)
            if slope >= 0:
                message = "zero gradient direction"
                converged = True
                iteration -= 1
                break

        # A raw steepest-descent direction carries the gradient's units,
        # so its first trial moves a unit distance at most; a
        # quasi-Newton direction is tried at its full length.
        step = min(1.0, 1.0 / float(np.linalg.norm(grad))) if steepest else 1.0
        # Give up at 2⁻³⁹ of the first trial (40 trials of pure halving):
        # interpolation can shrink the step tenfold per trial, and below
        # round-off x + step·direction == x would pass as a null "decrease".
        min_step = step * 2.0**-39
        accepted = False
        fx_new = fx
        while step >= min_step:
            x_new = x + step * direction
            fx_new = f(x_new)
            if fx_new <= fx + 1e-4 * step * slope:
                accepted = True
                break
            step = _backtrack(step, fx, slope, fx_new)
        if not accepted:
            message = "line search failed to find a decrease"
            converged = True
            line_search_failed = True
            iteration -= 1
            break

        grad_new = gradient(f, x_new, fx_new)
        s = x_new - x
        y = grad_new - grad
        if float(s @ y) > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            h_inv = _bfgs_update(h_inv, s, y)
            steepest = False

        f_decrease = fx - fx_new
        x, fx, grad = x_new, fx_new, grad_new
        history.append(fx)
        if 0 <= f_decrease < FTOL * (abs(fx) + 1.0):
            message = f"objective decrease {f_decrease:.3g} below ftol"
            converged = True
            break

    return OptimizeResult(
        x=x,
        fun=fx,
        n_iterations=iteration,
        n_evaluations=evaluations,
        converged=converged,
        message=message,
        history=history,
        line_search_failed=line_search_failed,
        grad_norm=float(np.max(np.abs(grad))) if n else 0.0,
    )
