"""Maximum-likelihood fit driver: the CodeML run loop.

``fit_model`` maximises one model's likelihood over its free parameters
and all branch lengths, exactly the quantity whose runtime and
iteration count the paper reports per dataset (Table III).
``fit_branch_site_test`` runs the H0+H1 pair and the LRT — one row of
the paper's evaluation.

Both engines being compared are driven through this same code path with
the same seed-derived start values, reproducing the paper's fixed-seed
fairness rule (§IV).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.engine import BoundLikelihood
from repro.core.recovery import MAX_RESTARTS, FitDiagnostics, NumericalEvent, perturb_start
from repro.models.base import CodonSiteModel
from repro.models.parameters import _X_CLIP
from repro.models.scaling import RawRateForm, mixture_scale
from repro.optimize.bfgs import BARRIER_SLOPE, ITERATION_CAP, OptimizeResult, minimize_bfgs
from repro.optimize.lrt import LRTResult, likelihood_ratio_test
from repro.utils.rng import RngLike, make_rng

__all__ = [
    "FitResult",
    "BranchSiteTest",
    "fit_model",
    "fit_branch_site_test",
]

#: Branch lengths are optimised as log(t); shorter than this is "zero".
_MIN_BRANCH = 1e-7
_MAX_LOG_BRANCH = 6.0  # t ≤ e^6 ≈ 400 expected substitutions — a wall, not a prior

#: A packed model coordinate beyond this fraction of the transform clip
#: (±`repro.models.parameters._X_CLIP`) counts as parked on its wall.
_BOUNDARY_FRACTION = 0.9


@dataclass
class FitResult:
    """One maximised model fit.

    ``n_iterations`` counts optimizer iterations (the paper's Table III
    "Iterations" column); ``n_evaluations`` counts likelihood calls (the
    start point and line-search steps; a gradient pass is not one).
    ``grad_norm`` is the infinity norm of the analytic objective
    gradient at the optimum, in the optimizer's coordinates.
    """

    model_name: str
    engine_name: str
    lnl: float
    values: Dict[str, float]
    branch_lengths: np.ndarray
    n_iterations: int
    n_evaluations: int
    runtime_seconds: float
    converged: bool
    message: str
    history: list = field(default_factory=list)
    #: Convergence/recovery diagnostics (empty = clean fit).
    diagnostics: FitDiagnostics = field(default_factory=FitDiagnostics)
    grad_norm: float = float("nan")

    @property
    def capped(self) -> bool:
        """True when the fit stopped on its iteration budget."""
        return not self.converged and self.message == ITERATION_CAP

    def summary(self) -> str:
        params = ", ".join(f"{k}={v:.4f}" for k, v in self.values.items())
        text = (
            f"{self.model_name} [{self.engine_name}] lnL = {self.lnl:.6f} "
            f"({self.n_iterations} iterations, {self.n_evaluations} evaluations, "
            f"{self.runtime_seconds:.2f} s)\n  {params}\n"
            f"  tree length = {float(np.sum(self.branch_lengths)):.4f}"
        )
        if self.diagnostics.recovered or self.diagnostics.boundary_flags:
            text += f"\n  numerics: {self.diagnostics.describe()}"
        return text


def _pack_full(
    model: CodonSiteModel, values: Dict[str, float], lengths: np.ndarray
) -> np.ndarray:
    safe = np.maximum(np.asarray(lengths, dtype=float), _MIN_BRANCH)
    return np.concatenate([model.pack(values), np.log(safe)])


def _unpack_full(model: CodonSiteModel, x: np.ndarray) -> tuple[Dict[str, float], np.ndarray]:
    k = model.n_params
    lengths = np.exp(np.clip(x[k:], math.log(_MIN_BRANCH), _MAX_LOG_BRANCH))
    return model.unpack(x[:k]), lengths


#: Relative step of the central differences on the packed → mixture
#: coordinate map (it evaluates no likelihood).
_MAP_STEP = 1e-5


def _mixture_coordinates(
    model: CodonSiteModel, values: Dict[str, float], pi: np.ndarray, code, raw_rate=None
) -> np.ndarray:
    """``(κ, log c, ω per class and partition, proportions)`` at ``values``.

    The coordinates :meth:`BoundLikelihood.gradient` differentiates in,
    laid out like its result: ``c`` is :func:`mixture_scale` (with its
    optional ``raw_rate``), the ω's run (background, foreground) per
    class.
    """
    nodes = model.site_class_graph(values).nodes
    scale = mixture_scale(values["kappa"], nodes, pi, code, raw_rate)
    return np.array(
        [values["kappa"], math.log(scale)]
        + [w for c in nodes for w in (c.omega_background, c.omega_foreground)]
        + [c.proportion for c in nodes]
    )


def _mixture_jacobian(
    model: CodonSiteModel,
    x_model: np.ndarray,
    coords: np.ndarray,
    pi: np.ndarray,
    code,
    width: int,
    raw_rate: Optional[Callable[[float, float], float]] = None,
) -> np.ndarray:
    """``∂(mixture coordinates)/∂x_i`` for packed coordinates ``coords``.

    Central differences on :func:`_mixture_coordinates` (``width``
    entries), a map that evaluates no likelihood, so every model stays
    generic.  Its probes read the unscaled mean rates from ``raw_rate``
    (a :class:`RawRateForm` of ``pi`` and ``code``, made here when not
    given), so they build no rate matrix.  Probes stay inside the
    transforms' clip ``[−_X_CLIP, _X_CLIP]``; a coordinate on the upper
    clip or beyond either one does not move the map, so its row is 0
    (the forward-difference convention of the branch walls).
    """
    if raw_rate is None:
        raw_rate = RawRateForm(pi, code)
    jacobian = np.zeros((len(coords), width))
    for row, i in enumerate(coords):
        x = float(x_model[i])
        if not -_X_CLIP <= x < _X_CLIP:
            continue
        h = _MAP_STEP * (abs(x) + 1.0)
        lo, hi = max(x - h, -_X_CLIP), min(x + h, _X_CLIP)
        probe = np.array(x_model, dtype=float)
        probe[i] = hi
        up = _mixture_coordinates(model, model.unpack(probe), pi, code, raw_rate)
        probe[i] = lo
        down = _mixture_coordinates(model, model.unpack(probe), pi, code, raw_rate)
        jacobian[row] = (up - down) / (hi - lo)
    return jacobian


#: Parameters eligible for ``fixed_params``: scalar coordinates whose
#: position in the packed vector equals their position in
#: ``model.param_names``.  The proportion pair (p0, p1) shares two
#: stick-breaking coordinates and cannot be fixed individually.
_FIXABLE = {"kappa", "omega0", "omega2", "omega"}


def fit_model(
    bound: BoundLikelihood,
    start_values: Optional[Dict[str, float]] = None,
    start_lengths: Optional[np.ndarray] = None,
    max_iterations: int = 200,
    seed: RngLike = None,
    fixed_params: Optional[set] = None,
) -> FitResult:
    """Maximise the likelihood of ``bound``'s model.

    Parameters
    ----------
    bound:
        Engine-bound problem from :meth:`LikelihoodEngine.bind`.
    start_values:
        Model-parameter start point; defaults to the model's seeded
        default (the paper fixes the seed so competing engines start
        identically).
    start_lengths:
        Branch-length start point, one finite length per branch of
        ``bound``'s tree (``ValueError`` otherwise); defaults to the
        tree's lengths where positive, else 0.1.  Branch lengths are
        always co-estimated with the model parameters (CodeML's
        behaviour for these tests).
    max_iterations:
        BFGS iteration budget (:func:`~repro.optimize.bfgs.minimize_bfgs`
        at its default tolerances).  Benchmarks use a fixed budget; for
        converged results use a large value and check ``converged``.
    fixed_params:
        Names of scalar model parameters to hold at their start values
        (CodeML's ``fix_kappa``-style options).  Only
        ``kappa``/``omega``/``omega0``/``omega2`` can be fixed; the
        proportion pair shares packed coordinates and cannot.

    Every gradient is one pass (:meth:`BoundLikelihood.gradient`): a
    branch-length coordinate takes its exact derivative through
    ``log t``; a free model coordinate takes the pass's derivatives in
    κ, each class's ω's, the class proportions and the rate scale ``c``,
    chained through ``model.unpack`` → ``site_classes`` →
    ``mixture_scale`` (:func:`_mixture_jacobian`).  No likelihood is
    probed by finite differences.

    The fit restarts — up to :data:`~repro.core.recovery.MAX_RESTARTS`
    times, from start points perturbed with the fit's own seeded RNG —
    on a non-finite objective at the start, on a line search that
    collapses before the first step, and on a fit whose model parameters
    are parked on their transform walls.  The best optimum across
    attempts is kept and every trigger lands on ``FitResult.diagnostics``;
    a healthy fit runs one attempt, bit-identical to a plain BFGS run.

    Returns
    -------
    FitResult
    """
    model = bound.model
    rng = make_rng(seed)
    if start_values is None:
        start_values = model.default_start(rng)
    base = np.asarray(bound.branch_lengths, dtype=float)
    if start_lengths is None:
        start_lengths = np.where(base > 0, base, 0.1)
    start_lengths = np.asarray(start_lengths, dtype=float)
    if start_lengths.shape != base.shape:
        raise ValueError(
            f"start_lengths has shape {start_lengths.shape}; "
            f"the tree has {base.size} branches"
        )
    if not np.all(np.isfinite(start_lengths)):
        raise ValueError("start_lengths must be finite")

    x0 = _pack_full(model, start_values, start_lengths)

    # Freeze requested scalar parameters at their packed start coordinates.
    frozen_idx = np.zeros(x0.shape[0], dtype=bool)
    if fixed_params:
        illegal = set(fixed_params) - _FIXABLE
        if illegal:
            raise ValueError(f"cannot fix parameters {sorted(illegal)}; only {sorted(_FIXABLE)}")
        unknown = set(fixed_params) - set(model.param_names)
        if unknown:
            raise ValueError(f"{model.name} has no parameters {sorted(unknown)}")
        for name in fixed_params:
            frozen_idx[model.param_names.index(name)] = True
    frozen_values = x0[frozen_idx]
    free_x0 = x0[~frozen_idx]

    def _expand(x_free: np.ndarray) -> np.ndarray:
        full = np.empty(x0.shape[0])
        full[frozen_idx] = frozen_values
        full[~frozen_idx] = x_free
        return full

    def objective(x_free: np.ndarray) -> float:
        values, lengths = _unpack_full(model, _expand(x_free))
        try:
            return -bound.log_likelihood(values, lengths)
        except (ValueError, FloatingPointError):
            return np.inf

    # Every free coordinate is analytic (DESIGN.md §9): log branch
    # lengths by the chain rule through ``log t``, model parameters
    # through the mixture coordinates.
    k = model.n_params
    free_pos = np.flatnonzero(~frozen_idx)
    branch_coords = np.flatnonzero(free_pos >= k)
    model_coords = np.flatnonzero(free_pos < k)
    log_min = math.log(_MIN_BRANCH)
    raw_rate = RawRateForm(bound.pi, bound.engine.code)

    def gradient(f, x_free: np.ndarray, fx: float) -> np.ndarray:
        # Right after f(x_free): the binding's last-point memo holds that
        # evaluation, so the pass runs no forward pruning of its own.
        x_full = _expand(x_free)
        values, lengths = _unpack_full(model, x_full)
        try:
            g = bound.gradient(values, lengths)
        except (ValueError, FloatingPointError):
            return np.full(x_free.shape[0], BARRIER_SLOPE)
        grad = np.empty(x_free.shape[0])
        logs = x_full[k:]
        # A coordinate clipped onto a wall does not move the length,
        # so its forward difference is zero — the analytic part agrees.
        moving = (logs >= log_min) & (logs < _MAX_LOG_BRANCH)
        grad[branch_coords] = np.where(moving, -lengths * g.branches, 0.0)
        if model_coords.size:
            dlnl = np.concatenate([[g.kappa, g.log_scale], g.omega.ravel(), g.proportions])
            jacobian = _mixture_jacobian(
                model, x_full[:k], free_pos[model_coords], bound.pi, bound.engine.code,
                dlnl.size, raw_rate,
            )
            grad[model_coords] = -(jacobian @ dlnl)
        grad[~np.isfinite(grad)] = BARRIER_SLOPE
        return grad

    def _parked_params(x_full: np.ndarray) -> list:
        """Names of coordinates parked on their transform walls."""
        flags = []
        k = model.n_params
        names = model.param_names
        for i in range(k):
            if frozen_idx[i]:
                continue
            if abs(float(x_full[i])) >= _BOUNDARY_FRACTION * _X_CLIP:
                flags.append(names[i] if i < len(names) else f"param[{i}]")
        return flags

    diagnostics = FitDiagnostics()
    recorder = bound.engine.events
    events_mark = recorder.mark()

    start_time = time.perf_counter()
    # Seeded restart loop: every perturbation draws from the fit's own
    # RNG, so recovery is reproducible from the master seed.
    best: Optional[OptimizeResult] = None
    attempts: list = []
    x_start = free_x0
    while True:
        f_start = objective(x_start)
        if not np.isfinite(f_start):
            diagnostics.events.append(
                NumericalEvent(
                    "nonfinite_start",
                    "optimizer",
                    f"objective = {f_start} at the start point",
                    {"restart": diagnostics.restarts},
                )
            )
            if diagnostics.restarts >= MAX_RESTARTS:
                if best is not None:
                    break
                raise ValueError(
                    "objective is not finite at the start point "
                    f"(after {diagnostics.restarts} restarts)"
                )
            diagnostics.restarts += 1
            diagnostics.events.append(
                NumericalEvent(
                    "optimizer_restart",
                    "optimizer",
                    "non-finite start",
                    {"restart": diagnostics.restarts},
                )
            )
            x_start = perturb_start(free_x0, rng)
            continue
        attempt = minimize_bfgs(
            objective,
            x_start,
            gradient,
            max_iterations=max_iterations,
            f0=f_start,
        )
        attempts.append(attempt)
        if best is None or attempt.fun < best.fun:
            best = attempt
        collapsed = attempt.line_search_failed and attempt.n_iterations == 0
        parked = _parked_params(_expand(attempt.x))
        if not (collapsed or parked) or diagnostics.restarts >= MAX_RESTARTS:
            break
        diagnostics.restarts += 1
        diagnostics.events.append(
            NumericalEvent(
                "optimizer_restart",
                "optimizer",
                "line search collapsed before the first step"
                if collapsed
                else "parameters parked at bounds: " + ",".join(parked),
                {"restart": diagnostics.restarts},
            )
        )
        x_start = perturb_start(free_x0, rng)
    assert best is not None
    # Attribute the *total* work across attempts to the kept optimum so
    # Table-III-style accounting reflects what was actually spent.
    best.n_iterations = sum(a.n_iterations for a in attempts)
    best.n_evaluations = sum(a.n_evaluations for a in attempts)
    opt = best
    runtime = time.perf_counter() - start_time

    parked = _parked_params(_expand(opt.x))
    for j, v in enumerate(_expand(opt.x)[k:]):
        if v <= log_min or v >= _MAX_LOG_BRANCH:
            parked.append(f"branch[{j}]")
    if parked:
        diagnostics.boundary_flags = parked
        diagnostics.events.append(
            NumericalEvent("boundary_parked", "optimizer", ",".join(parked))
        )
    diagnostics.events.extend(recorder.since(events_mark))

    values, lengths = _unpack_full(model, _expand(opt.x))
    return FitResult(
        model_name=model.name,
        engine_name=bound.engine.name,
        lnl=-opt.fun,
        values=values,
        branch_lengths=np.asarray(lengths, dtype=float),
        n_iterations=opt.n_iterations,
        n_evaluations=opt.n_evaluations,
        runtime_seconds=runtime,
        converged=opt.converged,
        message=opt.message,
        history=[-h for h in opt.history],
        diagnostics=diagnostics,
        grad_norm=opt.grad_norm,
    )


@dataclass
class BranchSiteTest:
    """An H0+H1 branch-site analysis: the paper's unit of work.

    Table III reports runtimes/iterations "combined for H0+H1"; the
    convenience properties below provide those combined quantities.
    """

    h0: FitResult
    h1: FitResult
    lrt: LRTResult

    @property
    def combined_runtime(self) -> float:
        return self.h0.runtime_seconds + self.h1.runtime_seconds

    @property
    def combined_iterations(self) -> int:
        return self.h0.n_iterations + self.h1.n_iterations

    @property
    def combined_evaluations(self) -> int:
        """Likelihood evaluations across H0+H1 (start points and
        line-search steps) — the per-task work metric batch scans
        aggregate."""
        return self.h0.n_evaluations + self.h1.n_evaluations

    def summary(self) -> str:
        return (
            f"{self.h0.summary()}\n{self.h1.summary()}\n"
            f"LRT: 2Δ = {self.lrt.statistic:.4f}, "
            f"p(χ²₁) = {self.lrt.pvalue_chi2:.4g}, "
            f"p(mixture) = {self.lrt.pvalue_mixture:.4g}"
        )


def fit_branch_site_test(
    make_bound: Callable[[CodonSiteModel], BoundLikelihood],
    seed: RngLike = 1,
    max_iterations: int = 200,
    start_overrides: Optional[Dict[str, float]] = None,
    models: "Optional[tuple[CodonSiteModel, CodonSiteModel]]" = None,
    **fit_kwargs,
) -> BranchSiteTest:
    """Fit an H0/H1 branch-site pair and run the 1-df LRT.

    Defaults to the paper's branch-site model A; any null/alternative
    model pair sharing the branch-site structure (e.g. the BS-REL
    family from ``repro.models.bsrel``) plugs in via ``models``.

    H1 starts from H0's fitted branch lengths (CodeML-style warm start).
    When the H0 optimum is also a stationary point of H1 (e.g. the
    selected proportion collapsed, making the foreground ω
    unidentifiable), the warm-started H1 fit terminates immediately;
    mirroring PAML's advice to try several initial ω values, a second
    H1 fit from the model's default start is then run and the better
    optimum kept.  Every engine follows the identical rule, so
    comparisons stay fair.

    Parameters
    ----------
    make_bound:
        Factory mapping a model instance to a bound likelihood (so each
        hypothesis gets its own binding against the same engine/data),
        e.g. ``lambda m: engine.bind(tree, alignment, m)``.  It is called
        once for H0, then once for H1: the binding of its last call is
        H1's, and post-fit analyses at the H1 MLEs (``--map``, BEB) can
        read it, its last-point memo usually still holding the fit's
        final evaluation.
    seed:
        Start-value seed — the same integer must be given to each engine
        under comparison (paper §IV fixed-seed rule).
    start_overrides:
        Explicit start values overriding the seeded defaults (e.g. the
        control file's ``kappa``); keys outside a hypothesis' parameter
        set are ignored for that hypothesis.
    models:
        ``(h0_model, h1_model)`` instances; default is model A's pair.
        The shared warm-start parameters are the intersection of the two
        models' parameter names, in H0 order.  A model that exposes a
        ``grid_start`` hook (BS-REL) runs its ω-grid start-point search
        before each hypothesis fit; model A has none.
    """
    from repro.models.branch_site import BranchSiteModelA

    if models is None:
        h0_model: CodonSiteModel = BranchSiteModelA(fix_omega2=True)
        h1_model: CodonSiteModel = BranchSiteModelA(fix_omega2=False)
    else:
        h0_model, h1_model = models

    def _with_overrides(model: CodonSiteModel, start: Dict[str, float]) -> Dict[str, float]:
        if start_overrides:
            for key, value in start_overrides.items():
                if key in model.param_names:
                    start[key] = float(value)
        return start

    def _grid(model: CodonSiteModel, bound: BoundLikelihood, start: Dict[str, float]):
        if not hasattr(model, "grid_start"):
            return start
        return model.grid_start(bound, start)

    bound0 = make_bound(h0_model)
    h0_start = _with_overrides(h0_model, h0_model.default_start(make_rng(seed)))
    h0 = fit_model(
        bound0,
        start_values=_grid(h0_model, bound0, h0_start),
        seed=seed,
        max_iterations=max_iterations,
        **fit_kwargs,
    )

    bound1 = make_bound(h1_model)
    h1_start = _with_overrides(h1_model, h1_model.default_start(make_rng(seed)))
    h1_start = _grid(h1_model, bound1, h1_start)
    # Warm-start the shared parameters from the H0 solution.
    for key in h0_model.param_names:
        if key in h1_model.param_names:
            h1_start[key] = h0.values[key]
    if start_overrides and "kappa" in start_overrides and "kappa" in (
        fit_kwargs.get("fixed_params") or ()
    ):
        h1_start["kappa"] = float(start_overrides["kappa"])
    h1 = fit_model(
        bound1,
        start_values=h1_start,
        start_lengths=h0.branch_lengths,
        seed=seed,
        max_iterations=max_iterations,
        **fit_kwargs,
    )
    if h1.n_iterations == 0 or h1.lnl <= h0.lnl + 1e-8:
        retry = fit_model(
            bound1,
            start_values=_with_overrides(h1_model, h1_model.default_start(make_rng(seed))),
            start_lengths=h0.branch_lengths,
            seed=seed,
            max_iterations=max_iterations,
            **fit_kwargs,
        )
        if retry.lnl > h1.lnl:
            # Account for the full work performed under H1.
            retry.n_iterations += h1.n_iterations
            retry.n_evaluations += h1.n_evaluations
            retry.runtime_seconds += h1.runtime_seconds
            retry.diagnostics.restarts += h1.diagnostics.restarts
            retry.diagnostics.events = h1.diagnostics.events + retry.diagnostics.events
            h1 = retry
    lrt = likelihood_ratio_test(h0.lnl, h1.lnl, df=1)
    return BranchSiteTest(h0=h0, h1=h1, lrt=lrt)
