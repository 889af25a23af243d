"""Analytic branch-length gradients against extrapolated finite differences.

``BoundLikelihood.branch_gradient`` returns ``∂lnL/∂t`` from one outside
pass (DESIGN.md §9).  Every case here compares ``t·∂lnL/∂t`` — the
derivative in the optimizer's ``log t`` coordinate — with a
Richardson-extrapolated central difference of the likelihood itself,
``(4·CD(h) − CD(2h))/3`` with ``h = 1e-4`` in ``log t``, and requires
``|g − ref| / max(|ref|, 1) ≤ 1e-6``.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import repro.core.engine as engine_mod
import repro.optimize.ml as ml_mod
from repro.core.engine import make_engine
from repro.datasets import make_dataset
from repro.likelihood.pruning import compute_recompute_rows
from repro.models.branch_site import BranchSiteModelA
from repro.models.registry import resolve_model_spec
from repro.optimize.bfgs import finite_difference_gradient
from repro.utils.rng import make_rng

from .conftest import ENGINE_NAMES

TOL = 1e-6
H = 1e-4


def _central(f, x, i, h):
    step = np.zeros_like(x)
    step[i] = h
    return (f(x + step) - f(x - step)) / (2.0 * h)


def _richardson(f, x, i, h=H):
    return (4.0 * _central(f, x, i, h) - _central(f, x, i, 2.0 * h)) / 3.0


def _error(g, ref):
    return abs(g - ref) / max(abs(ref), 1.0)


def _sample_branches(bound, k=4):
    """The foreground branch plus ``k - 1`` spread over the branch vector."""
    n = bound.n_branches
    picks = {int(j) for j in np.linspace(0, n - 1, k - 1)}
    picks |= {pos for _, _, pos, fg in bound._rows if fg}
    return sorted(picks)


def assert_gradient_agrees(bound, values, lengths=None, branches=None):
    """Analytic ``∂lnL/∂log t`` vs Richardson central differences."""
    lengths = np.asarray(
        bound.branch_lengths if lengths is None else lengths, dtype=float
    )
    x = np.log(lengths)

    def lnl(log_t):
        return bound.log_likelihood(values, np.exp(log_t))

    lnl0 = bound.log_likelihood(values, lengths)
    lnl_g, grad = bound.branch_gradient(values, lengths)
    assert lnl_g == lnl0
    assert np.all(np.isfinite(grad))
    worst = 0.0
    for j in branches if branches is not None else _sample_branches(bound):
        ref = _richardson(lnl, x, j)
        worst = max(worst, _error(lengths[j] * grad[j], ref))
    assert worst <= TOL, worst
    return worst


def _gradient_applications(bound, plans):
    """Outside + derivative applications one gradient pass makes.

    Per class pass: one outside application per internal child, and one
    derivative application per branch — for a partial share only on the
    foreground path (its base's derivatives serve the rest).  A full
    share and a skipped class make none.
    """
    rows = [(c, p, 0.0, fg) for c, p, _, fg in bound._rows]
    internal = sum(1 for child, _, _, _ in rows if bound._schedule.heights[child])
    fg_path = len(compute_recompute_rows(rows, set(bound._fg_children)))
    total = 0
    for plan in plans:
        if plan.mode == "populate":
            total += bound.n_branches + internal
        elif plan.mode == "derive" and not plan.full_share:
            total += fg_path + internal
    return total


def _h0_values(values):
    return {k: v for k, v in values.items() if k != "omega2"}


@pytest.fixture(scope="module")
def datasets():
    return {name: make_dataset(name) for name in ("i", "ii", "iii", "iv")}


# ----------------------------------------------------------------------
# Engines × datasets × hypotheses
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hypothesis", ["H0", "H1"])
@pytest.mark.parametrize("dataset", ["i", "ii", "iii", "iv"])
@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_agreement_on_paper_datasets(engine_name, dataset, hypothesis, datasets):
    ds = datasets[dataset]
    values = ds.spec.true_values()
    model = BranchSiteModelA(fix_omega2=hypothesis == "H0")
    if hypothesis == "H0":
        values = _h0_values(values)
    bound = make_engine(engine_name).bind(ds.tree, ds.alignment, model)
    assert_gradient_agrees(bound, values)


# ----------------------------------------------------------------------
# Mixture shapes: BS-REL, zero-weight classes, full shares
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_bsrel3(engine_name, small_tree, small_sim):
    h0, h1 = resolve_model_spec("bsrel:3").pair()
    for model in (h0, h1):
        values = model.default_start(make_rng(5))
        bound = make_engine(engine_name).bind(small_tree, small_sim.alignment, model)
        assert_gradient_agrees(bound, values, branches=range(bound.n_branches))


class _ZeroWeightModelA(BranchSiteModelA):
    """Model A with class 0's weight folded into class 1: class 0 is
    skipped, so class 2a loses its sharing base and populates."""

    def site_classes(self, values):
        c0, c1, c2a, c2b = super().site_classes(values)
        return [
            dataclasses.replace(c0, proportion=0.0),
            dataclasses.replace(c1, proportion=c0.proportion + c1.proportion),
            c2a,
            c2b,
        ]


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_zero_weight_class(engine_name, small_tree, small_sim, bsm_values):
    model = _ZeroWeightModelA()
    modes = [p.mode for p in model.site_class_graph(bsm_values).plan(skip_zero=True)]
    assert modes == ["skip", "populate", "populate", "derive"]
    bound = make_engine(engine_name).bind(small_tree, small_sim.alignment, model)
    assert_gradient_agrees(bound, bsm_values, branches=range(bound.n_branches))


def test_full_share_reuses_base_ratios(small_tree, small_sim, h0_model, bsm_values):
    # Under H0 class 2b is a full share of class 1: it runs no pass of
    # its own, yet the gradient still agrees.
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h0_model)
    values = _h0_values(bsm_values)
    assert_gradient_agrees(bound, values, branches=range(bound.n_branches))
    bound.log_likelihood(values)
    before = engine.counters["clv_propagations"]
    bound.branch_gradient(values)
    plans = h0_model.site_class_graph(values).plan(skip_zero=True)
    assert [(p.mode, p.full_share) for p in plans][3] == ("derive", True)
    grown = engine.counters["clv_propagations"] - before
    assert grown == _gradient_applications(bound, plans[:3])
    assert grown == _gradient_applications(bound, plans)


# ----------------------------------------------------------------------
# Recovery rungs: Padé fallback and uniformization operators
# ----------------------------------------------------------------------
def _dead_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("eigensolver injected dead")


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_pade_rung(engine_name, small_tree, small_sim, h1_model, bsm_values, monkeypatch):
    monkeypatch.setattr(scipy.linalg, "eigh", _dead_eigh)
    engine = make_engine(engine_name)
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    assert_gradient_agrees(bound, bsm_values, branches=range(bound.n_branches))
    assert engine.counters.get("rung_pade", 0) > 0
    assert engine.counters["derivative_builds"] > 0


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_uniformization_rung(
    engine_name, small_tree, small_sim, h1_model, bsm_values, monkeypatch
):
    # Dead eigensolvers force Padé; a guard-failing Padé leaves rung 4.
    monkeypatch.setattr(scipy.linalg, "eigh", _dead_eigh)
    monkeypatch.setattr(
        engine_mod, "transition_matrix_scipy", lambda q, t: np.full_like(q, -1.0)
    )
    engine = make_engine(engine_name)
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    assert_gradient_agrees(bound, bsm_values, branches=range(bound.n_branches))
    assert engine.counters.get("rung_uniformization", 0) > 0
    assert "rung_pade" not in engine.counters


def test_nonfinite_derivative_is_a_recorded_barrier(
    small_tree, small_sim, h1_model, bsm_values, monkeypatch
):
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    monkeypatch.setattr(
        type(engine), "_build_derivative_stack",
        lambda self, decomp, ts: np.full((61, 61 * len(ts)), np.nan, order="F"),
    )
    _, grad = bound.branch_gradient(bsm_values)
    assert not np.any(np.isfinite(grad))
    assert engine.events.counts().get("gradient_nonfinite") == 1


# ----------------------------------------------------------------------
# The optimizer's gradient: frozen parameters and the clip walls
# ----------------------------------------------------------------------
def _capture_fit_gradient(bound, monkeypatch, **fit_kwargs):
    """Run ``fit_model`` up to its first ``minimize_bfgs`` call and hand
    back the objective, start point and gradient callable it built."""
    seen = {}

    class Captured(Exception):
        pass

    def capture(fun, x0, gradient=None, **kwargs):
        seen.update(fun=fun, x0=np.asarray(x0, dtype=float), gradient=gradient)
        raise Captured

    monkeypatch.setattr(ml_mod, "minimize_bfgs", capture)
    with pytest.raises(Captured):
        ml_mod.fit_model(bound, seed=1, **fit_kwargs)
    return seen["fun"], seen["x0"], seen["gradient"]


def test_fit_gradient_with_frozen_kappa(small_tree, small_sim, h1_model, monkeypatch):
    bound = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    fun, x0, gradient = _capture_fit_gradient(
        bound, monkeypatch, fixed_params={"kappa"}
    )
    k = h1_model.n_params - 1  # kappa is frozen out of the free vector
    assert x0.shape[0] == k + bound.n_branches
    grad = gradient(fun, x0, fun(x0))
    for i in range(k, x0.shape[0]):
        assert _error(grad[i], _richardson(fun, x0, i)) <= TOL
    # Model coordinates are the forward differences of old, unchanged.
    np.testing.assert_array_equal(
        grad[:k], finite_difference_gradient(fun, x0, fun(x0))[:k]
    )


def test_fit_gradient_on_the_clip_walls(small_tree, small_sim, h1_model, monkeypatch):
    bound = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    fun, x0, gradient = _capture_fit_gradient(bound, monkeypatch)
    k = h1_model.n_params
    lo = math.log(ml_mod._MIN_BRANCH)
    hi = ml_mod._MAX_LOG_BRANCH
    x = x0.copy()
    x[k + 0] = lo          # on the lower wall: the length still moves up
    x[k + 1] = lo - 1.0    # beyond the lower wall: clipped, does not move
    x[k + 2] = hi          # on the upper wall: clipped, does not move
    x[k + 3] = hi + 1.0    # beyond the upper wall
    fx = fun(x)
    grad = gradient(fun, x, fx)
    forward = finite_difference_gradient(fun, x, fx)
    for i in (k + 1, k + 2, k + 3):
        assert grad[i] == forward[i] == 0.0
    # On the lower wall the forward difference sees the one-sided
    # derivative; extrapolate it, (2·FD(h) − FD(2h)).  At t = 1e-7 the
    # kernels' round-off swamps a 1e-4 step in log t, so the reference
    # takes a wider one (the derivative is ~t, its curvature tiny).
    i = k + 0

    def fd(h):
        step = np.zeros_like(x)
        step[i] = h
        return (fun(x + step) - fx) / h

    ref = 2.0 * fd(3e-3) - fd(6e-3)
    assert _error(grad[i], ref) <= TOL
    # Interior coordinates agree with central differences as usual.
    for i in range(k + 4, x.shape[0]):
        assert _error(grad[i], _richardson(fun, x, i)) <= TOL


def test_fixed_branch_lengths_use_forward_differences_only(
    small_tree, small_sim, h1_model, monkeypatch
):
    bound = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    fun, x0, gradient = _capture_fit_gradient(
        bound, monkeypatch, optimize_branch_lengths=False
    )
    assert x0.shape[0] == h1_model.n_params
    passes = bound.engine.counters["gradient_passes"]
    fx = fun(x0)
    np.testing.assert_array_equal(
        gradient(fun, x0, fx), finite_difference_gradient(fun, x0, fx)
    )
    assert bound.engine.counters["gradient_passes"] == passes


# ----------------------------------------------------------------------
# Reuse of the forward pass
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_gradient_after_evaluation_runs_no_forward_pass(
    engine_name, small_tree, small_sim, h1_model, bsm_values
):
    engine = make_engine(engine_name)
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    lengths = bound.branch_lengths * 1.1
    lnl = bound.log_likelihood(bsm_values, lengths)  # the line-search evaluation
    before = dict(engine.counters)
    evaluations = bound.n_evaluations
    lnl_g, _ = bound.branch_gradient(bsm_values, lengths)
    assert lnl_g == lnl
    assert bound.n_evaluations == evaluations
    # No forward operator was built and no inside CLV re-propagated:
    # every application is an outside or a derivative one.
    for key in ("operator_builds", "operator_builds_naive", "operator_build_saves",
                "clv_reuses", "decomposition_misses"):
        assert engine.counters.get(key) == before.get(key), key
    plans = h1_model.site_class_graph(bsm_values).plan(skip_zero=True)
    grown = engine.counters["clv_propagations"] - before["clv_propagations"]
    assert grown == _gradient_applications(bound, plans)
    assert engine.counters["gradient_passes"] == before["gradient_passes"] + 1
    assert engine.counters["gradient_s"] > before["gradient_s"]
    assert engine.counters["derivative_builds"] > before["derivative_builds"]


def test_gradient_without_a_matching_evaluation_evaluates_first(
    small_tree, small_sim, h1_model, bsm_values
):
    bound = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    bound.log_likelihood(bsm_values)
    moved = bound.branch_lengths * 1.2
    lnl, grad = bound.branch_gradient(bsm_values, moved)
    fresh = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    assert lnl == fresh.log_likelihood(bsm_values, moved)
    np.testing.assert_array_equal(grad, fresh.branch_gradient(bsm_values, moved)[1])


def test_fit_evaluations_per_iteration(small_tree, small_sim, h1_model):
    # One analytic pass per gradient replaces the branch probes, and it
    # is not a likelihood evaluation: the fit's evaluation count is the
    # line search plus the model-parameter probes, all of them real calls.
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    fit = ml_mod.fit_model(bound, seed=1, max_iterations=4)
    assert np.isfinite(fit.grad_norm) and fit.grad_norm > 0
    assert engine.counters["gradient_passes"] == fit.n_iterations + 1
    assert fit.n_evaluations == bound.n_evaluations
