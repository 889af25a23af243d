"""Analytic gradients against extrapolated finite differences.

``BoundLikelihood.gradient`` returns ``∂lnL/∂t`` for every branch and
the κ, per-class ω, proportion and rate-scale derivatives from one
outside pass (DESIGN.md §9); ``fit_model`` chains them onto its packed
coordinates.  Every case here compares an analytic derivative — in the
optimizer's coordinates (``log t`` and the packed model vector), or in
a model parameter itself — with a Richardson-extrapolated central
difference of the likelihood, ``(4·CD(h) − CD(2h))/3`` with
``h = 1e-4``, and requires ``|g − ref| / max(|ref|, 1) ≤ 1e-6``.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import repro.core.engine as engine_mod
import repro.optimize.ml as ml_mod
from repro.alignment.msa import CodonAlignment
from repro.core.engine import make_engine
from repro.datasets import make_dataset
from repro.models.branch_site import BranchSiteModelA
from repro.models.m0 import M0Model
from repro.models.registry import resolve_model_spec
from repro.utils.rng import make_rng

from tests.oracles import finite_difference_gradient

from .conftest import ENGINE_NAMES

TOL = 1e-6
H = 1e-4
#: Step in the packed model coordinates.  Each probe there builds new
#: eigendecompositions, whose round-off moves lnL by up to ~1e-8 on
#: dataset ii (dsyevr); a 1e-4 step would turn that into ~1e-4 of
#: reference error, while the O(h⁴) Richardson error at 3e-3 stays
#: far below the tolerance.
H_MODEL = 3e-3


def _central(f, x, i, h):
    step = np.zeros_like(x)
    step[i] = h
    return (f(x + step) - f(x - step)) / (2.0 * h)


def _richardson(f, x, i, h=H):
    return (4.0 * _central(f, x, i, h) - _central(f, x, i, 2.0 * h)) / 3.0


def _error(g, ref):
    return abs(g - ref) / max(abs(ref), 1.0)


def _worst(errors):
    """The largest error, NaN if any is NaN (so ``worst <= TOL`` fails)."""
    return float(np.max(list(errors)))


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
    g = bound.gradient(values, lengths)
    grad = g.branches
    assert g.lnl == lnl0
    assert np.all(np.isfinite(grad))
    worst = _worst(
        _error(lengths[j] * grad[j], _richardson(lnl, x, j))
        for j in (branches if branches is not None else _sample_branches(bound))
    )
    assert worst <= TOL, worst
    return worst


def _capture_fit_gradient(bound, monkeypatch, **fit_kwargs):
    """Run ``fit_model`` up to its first ``minimize_bfgs`` call and hand
    back the objective, start point and gradient callable it built."""
    seen = {}

    class Captured(Exception):
        pass

    def capture(fun, x0, gradient, **kwargs):
        seen.update(fun=fun, x0=np.asarray(x0, dtype=float), gradient=gradient)
        raise Captured

    monkeypatch.setattr(ml_mod, "minimize_bfgs", capture)
    with pytest.raises(Captured):
        ml_mod.fit_model(bound, seed=1, **fit_kwargs)
    return seen["fun"], seen["x0"], seen["gradient"]


def assert_fit_gradient_agrees(bound, values, monkeypatch, **fit_kwargs):
    """The fit's gradient at ``values`` vs Richardson central differences
    of its objective, on every free model coordinate."""
    fun, x0, gradient = _capture_fit_gradient(
        bound, monkeypatch, start_values=values, **fit_kwargs
    )
    grad = gradient(fun, x0, fun(x0))
    k = bound.model.n_params - len(fit_kwargs.get("fixed_params") or ())
    worst = _worst(_error(grad[i], _richardson(fun, x0, i, H_MODEL)) for i in range(k))
    assert worst <= TOL, worst
    return worst


def model_derivatives(bound, values, lengths=None):
    """``∂lnL/∂θ`` per model parameter θ, from the gradient pass chained
    through the mixture coordinates (central differences on that map)."""
    g = bound.gradient(values, lengths)
    dlnl = np.concatenate([[g.kappa, g.log_scale], g.omega.ravel(), g.proportions])

    def coordinates(vals):
        return ml_mod._mixture_coordinates(bound.model, vals, bound.pi, bound.engine.code)

    out = {}
    for name, value in values.items():
        h = 1e-6 * max(abs(value), 1e-2)
        up, down = dict(values), dict(values)
        up[name], down[name] = value + h, value - h
        out[name] = float(dlnl @ (coordinates(up) - coordinates(down))) / (2.0 * h)
    return out


def assert_model_derivatives_agree(bound, values, lengths=None):
    """:func:`model_derivatives` vs Richardson differences in each parameter."""
    lengths = bound.branch_lengths if lengths is None else lengths
    analytic = model_derivatives(bound, values, lengths)
    names = list(values)
    x = np.array([values[name] for name in names])

    def lnl(z):
        return bound.log_likelihood(dict(zip(names, z)), lengths)

    worst = _worst(
        _error(analytic[name], _richardson(lnl, x, i)) for i, name in enumerate(names)
    )
    assert worst <= TOL, worst
    return worst


def _gradient_applications(bound, graph, plans):
    """Outside applications one gradient (or counts) pass makes.

    One recursion per background group, the live classes that share a
    background ω: one application per internal row, except that an
    internal foreground child is seeded once per distinct foreground ω
    of the group.  A skipped class joins no group.
    """
    groups = {}
    for plan in plans:
        if plan.mode != "skip":
            cls = graph.nodes[plan.index]
            groups.setdefault(cls.omega_background, set()).add(cls.omega_foreground)
    heights = bound._schedule.heights
    internal = sum(1 for child, _, _, fg in bound._rows if heights[child] and not fg)
    seeded = sum(1 for child, _, _, fg in bound._rows if heights[child] and fg)
    return sum(internal + seeded * len(foreground) for foreground in groups.values())


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
def test_agreement_on_paper_datasets(engine_name, dataset, hypothesis, datasets, monkeypatch):
    ds = datasets[dataset]
    values = ds.spec.true_values()
    model = BranchSiteModelA(fix_omega2=hypothesis == "H0")
    if hypothesis == "H0":
        values = _h0_values(values)
    bound = make_engine(engine_name).bind(ds.tree, ds.alignment, model)
    assert_gradient_agrees(bound, values)
    assert_fit_gradient_agrees(bound, values, monkeypatch)


# ----------------------------------------------------------------------
# Mixture shapes: BS-REL, zero-weight classes, full shares
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_bsrel3(engine_name, small_tree, small_sim, monkeypatch):
    h0, h1 = resolve_model_spec("bsrel:3").pair()
    for model in (h0, h1):
        values = model.default_start(make_rng(5))
        bound = make_engine(engine_name).bind(small_tree, small_sim.alignment, model)
        assert_gradient_agrees(bound, values, branches=range(bound.n_branches))
        assert_fit_gradient_agrees(bound, values, monkeypatch)


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
def test_zero_weight_class(engine_name, small_tree, small_sim, bsm_values, monkeypatch):
    model = _ZeroWeightModelA()
    modes = [p.mode for p in model.site_class_graph(bsm_values).plan(skip_zero=True)]
    assert modes == ["skip", "populate", "populate", "derive"]
    bound = make_engine(engine_name).bind(small_tree, small_sim.alignment, model)
    assert_gradient_agrees(bound, bsm_values, branches=range(bound.n_branches))
    assert_fit_gradient_agrees(bound, bsm_values, monkeypatch)


def test_full_share_reuses_base_ratios(small_tree, small_sim, h0_model, bsm_values):
    # Under H0 class 2b is a full share of class 1: it runs no pass of
    # its own, yet the gradient still agrees.
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h0_model)
    values = _h0_values(bsm_values)
    assert_gradient_agrees(bound, values, branches=range(bound.n_branches))
    bound.log_likelihood(values)
    before = engine.counters["outside_propagations"]
    bound.gradient(values)
    graph = h0_model.site_class_graph(values)
    plans = graph.plan(skip_zero=True)
    assert [(p.mode, p.full_share) for p in plans][3] == ("derive", True)
    grown = engine.counters["outside_propagations"] - before
    assert grown == _gradient_applications(bound, graph, plans[:3])
    assert grown == _gradient_applications(bound, graph, plans)


# ----------------------------------------------------------------------
# Model parameters where ω values collide as dictionary keys
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_h0_full_share_model_derivatives(engine_name, small_tree, small_sim, h0_model, bsm_values):
    # Class 2b is a full share of class 1 (background and foreground ω
    # both 1): it reads class 1's pass with its own posterior weights.
    values = _h0_values(bsm_values)
    plans = h0_model.site_class_graph(values).plan(skip_zero=True)
    assert [(p.mode, p.full_share) for p in plans][3] == ("derive", True)
    bound = make_engine(engine_name).bind(small_tree, small_sim.alignment, h0_model)
    assert_model_derivatives_agree(bound, values)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_h1_at_omega2_one(engine_name, small_tree, small_sim, h1_model, bsm_values):
    # ω2 = 1.0 exactly: class 2b's foreground shares class 1's
    # decomposition (2b becomes a full share of 1), yet ∂/∂ω2 reads
    # only the classes whose foreground ω is ω2.
    values = dict(bsm_values, omega2=1.0)
    plans = h1_model.site_class_graph(values).plan(skip_zero=True)
    assert [(p.mode, p.full_share) for p in plans][3] == ("derive", True)
    bound = make_engine(engine_name).bind(small_tree, small_sim.alignment, h1_model)
    assert_model_derivatives_agree(bound, values)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_h1_at_omega2_equal_omega0(engine_name, small_tree, small_sim, h1_model, bsm_values):
    # ω2 = ω0: one decomposition serves classes 0 and 2a on every
    # branch, and 2a is a full share of 0; ∂/∂ω0 and ∂/∂ω2 still split.
    values = dict(bsm_values, omega2=bsm_values["omega0"])
    plans = h1_model.site_class_graph(values).plan(skip_zero=True)
    assert [(p.mode, p.full_share) for p in plans][2] == ("derive", True)
    bound = make_engine(engine_name).bind(small_tree, small_sim.alignment, h1_model)
    derivatives = model_derivatives(bound, values)
    assert abs(derivatives["omega0"] - derivatives["omega2"]) > 1e-3
    assert_model_derivatives_agree(bound, values)


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_bsrel3_equal_omegas_keep_their_own_derivatives(engine_name, small_tree, small_sim):
    # ω1 = ω2: the forward plan derives b2 from b1 (one background
    # decomposition serves both), yet ∂/∂ω1 and ∂/∂ω2 are different
    # parameters and must not share a contraction.
    model = resolve_model_spec("bsrel:3").pair()[1]
    values = model.default_start(make_rng(5))
    values["omega2"] = values["omega1"]
    plans = model.site_class_graph(values).plan(skip_zero=True)
    assert [(p.mode, p.base) for p in plans][1] == ("derive", 0)
    bound = make_engine(engine_name).bind(small_tree, small_sim.alignment, model)
    derivatives = model_derivatives(bound, values)
    assert abs(derivatives["omega1"] - derivatives["omega2"]) > 1e-3
    assert_model_derivatives_agree(bound, values)


@pytest.mark.parametrize(
    "p0, p1",
    [(1e-5, 0.3), (0.5, 1e-5), (0.6, 0.4 - 1e-5)],
    ids=["p0-low", "p1-low", "total-high"],
)
def test_proportions_near_their_walls(p0, p1, small_tree, small_sim, h1_model, bsm_values, monkeypatch):
    values = dict(bsm_values, p0=p0, p1=p1)
    bound = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    assert_fit_gradient_agrees(bound, values, monkeypatch)


# ----------------------------------------------------------------------
# The contraction: tied spectra, leaf columns, and both product orders
# ----------------------------------------------------------------------
def _alignment_of(sim, n_codons, edits=()):
    """The first ``n_codons`` of ``sim``'s alignment, with ``(row, codon,
    triplet)`` cells rewritten."""
    seqs = [list(seq[: 3 * n_codons]) for seq in sim.alignment.to_sequences()]
    for row, col, triplet in edits:
        seqs[row][3 * col : 3 * col + 3] = triplet
    return CodonAlignment.from_sequences(sim.alignment.names, ["".join(s) for s in seqs])


def _assert_finite(bound, values):
    # A NaN would slip through ``max`` in the agreement helpers.
    g = bound.gradient(values)
    assert np.isfinite(g.kappa) and np.all(np.isfinite(g.omega)) and np.isfinite(g.log_scale)


def _codon_order(bound):
    ev = bound.class_evaluation(bound.model.default_start(make_rng(1)))
    return engine_mod._RateContraction(bound, ev).codon_order


@pytest.mark.parametrize("n_codons", [40, 120], ids=["P<n", "P>n"])
def test_eigenvalue_ties(n_codons, small_tree, small_sim, uniform_pi):
    # κ = ω = 1 under uniform π: the generator is the single-nucleotide
    # adjacency of the sense codons, whose spectrum has large tied
    # blocks; every tied or near pair takes the Daleckii–Krein series.
    values = {"kappa": 1.0, "omega": 1.0}
    bound = make_engine("slim-v2").bind(
        small_tree, _alignment_of(small_sim, n_codons), M0Model(), pi=uniform_pi
    )
    assert _codon_order(bound) == (bound.n_patterns > 61)
    lam = next(iter(bound.class_evaluation(values).decomps.values())).eigenvalues
    gaps = np.abs(np.subtract.outer(lam, lam))[~np.eye(lam.size, dtype=bool)]
    assert np.sum(gaps < 1e-10) > lam.size
    _assert_finite(bound, values)
    assert_gradient_agrees(bound, values, branches=range(bound.n_branches))
    assert_model_derivatives_agree(bound, values)


#: Gaps, fully ambiguous, two-, three- and four-fold ambiguous cells.
_UNSURE = [
    (0, 0, "---"), (0, 3, "NNN"), (1, 1, "ACN"), (1, 2, "RTG"),
    (2, 5, "CAY"), (3, 4, "---"), (4, 7, "GGN"), (2, 9, "TTY"), (4, 1, "NNN"),
]


@pytest.mark.parametrize("n_codons", [40, 120], ids=["P<n", "P>n"])
def test_missing_and_ambiguous_leaf_cells(n_codons, small_tree, small_sim, h1_model, bsm_values):
    # A leaf's columns are gathered (P ≤ n) or scattered (P > n) by
    # state; missing and ambiguous columns take the dense fix-up.
    alignment = _alignment_of(small_sim, n_codons, _UNSURE)
    assert (alignment.states == -1).sum() and alignment.ambiguity_sets
    bound = make_engine("slim-v2").bind(small_tree, alignment, h1_model)
    assert _codon_order(bound) == (bound.n_patterns > 61)
    assert all(cols.other.size for cols in bound._leaf_columns.values())
    _assert_finite(bound, bsm_values)
    assert_gradient_agrees(bound, bsm_values, branches=range(bound.n_branches))
    assert_model_derivatives_agree(bound, bsm_values)


def test_codon_basis_order(small_tree, small_sim, h1_model, bsm_values, monkeypatch):
    # P > n: every row's W is formed in the codon basis, and it agrees
    # with the eigenbasis order as well as with the likelihood.
    bound = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    assert bound.n_patterns > 61 and _codon_order(bound)
    _assert_finite(bound, bsm_values)
    assert_gradient_agrees(bound, bsm_values, branches=range(bound.n_branches))
    assert_model_derivatives_agree(bound, bsm_values)
    codon = bound.gradient(bsm_values)
    init = engine_mod._RateContraction.__init__

    def eigenbasis(self, *args):
        init(self, *args)
        self.codon_order = False
        self._ut, self._lt = np.empty_like(self._scaled), np.empty_like(self._scaled)

    monkeypatch.setattr(engine_mod._RateContraction, "__init__", eigenbasis)
    eigen = bound.gradient(bsm_values)
    for name in ("branches", "kappa", "omega", "log_scale"):
        np.testing.assert_allclose(getattr(codon, name), getattr(eigen, name), rtol=1e-10)


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
    assert_fit_gradient_agrees(bound, bsm_values, monkeypatch)
    assert engine.events.counts().get("rate_derivative_difference", 0) > 0


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
    assert_fit_gradient_agrees(bound, bsm_values, monkeypatch)
    assert engine.events.counts().get("rate_derivative_difference", 0) > 0


def test_nonfinite_derivative_is_a_recorded_barrier(
    small_tree, small_sim, h1_model, bsm_values, monkeypatch
):
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    spectral = engine_mod._RateContraction._exponentials

    def poisoned(self, omega):
        e, rate = spectral(self, omega)
        return e, np.full_like(rate, np.nan)

    monkeypatch.setattr(engine_mod._RateContraction, "_exponentials", poisoned)
    grad = bound.gradient(bsm_values).branches
    assert not np.any(np.isfinite(grad))
    assert engine.events.counts().get("gradient_nonfinite") == 1


# ----------------------------------------------------------------------
# The optimizer's gradient: frozen parameters and the clip walls
# ----------------------------------------------------------------------


def test_fit_gradient_with_frozen_kappa(small_tree, small_sim, h1_model, monkeypatch):
    bound = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    fun, x0, gradient = _capture_fit_gradient(
        bound, monkeypatch, fixed_params={"kappa"}
    )
    k = h1_model.n_params - 1  # kappa is frozen out of the free vector
    assert x0.shape[0] == k + bound.n_branches
    grad = gradient(fun, x0, fun(x0))
    for i in range(x0.shape[0]):
        h = H_MODEL if i < k else H
        assert _error(grad[i], _richardson(fun, x0, i, h)) <= TOL


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
    assert bound.gradient(bsm_values, lengths).lnl == lnl
    assert bound.n_evaluations == evaluations
    # No forward operator was built and no inside CLV re-propagated:
    # every application is an outside or a derivative one.
    for key in ("operator_builds", "operator_builds_naive", "operator_build_saves",
                "clv_propagations", "clv_reuses", "eigh_s"):
        assert engine.counters.get(key) == before.get(key), key
    graph = h1_model.site_class_graph(bsm_values)
    grown = engine.counters["outside_propagations"] - before["outside_propagations"]
    assert grown == _gradient_applications(bound, graph, graph.plan(skip_zero=True))
    assert engine.counters["gradient_passes"] == before["gradient_passes"] + 1
    assert engine.counters["gradient_s"] > before["gradient_s"]


def test_outside_applications_have_their_own_counter(small_tree, small_sim, h1_model, bsm_values):
    # ``clv_propagations`` is the forward pass's figure (the survey's
    # ``clv reuse`` line reads it): a gradient pass leaves it alone and
    # counts its applications as ``outside_propagations``.
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    bound.log_likelihood(bsm_values)
    forward = engine.counters["clv_propagations"]
    assert forward > 0 and engine.counters["outside_propagations"] == 0
    bound.gradient(bsm_values)
    graph = h1_model.site_class_graph(bsm_values)
    assert engine.counters["clv_propagations"] == forward
    assert engine.counters["outside_propagations"] == _gradient_applications(
        bound, graph, graph.plan(skip_zero=True)
    )
    # Ancestral reconstruction's per-class pass counts there too: one
    # application per non-root internal node.
    ev = bound.class_evaluation(bsm_values)
    forward = engine.counters["clv_propagations"]
    before = engine.counters["outside_propagations"]
    bound.outside_vectors(ev, 0)
    assert engine.counters["clv_propagations"] == forward
    assert engine.counters["outside_propagations"] - before == sum(
        len(level) for level in bound._schedule.levels[1:]
    )


def test_substitution_counts_take_the_grouped_recursion(small_tree, small_sim, h1_model, bsm_values):
    # The counts ride the gradient's recursion: the same applications,
    # and again no forward pass.
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    bound.log_likelihood(bsm_values)
    before = dict(engine.counters)
    bound.substitution_counts(bsm_values)
    assert engine.counters["operator_builds"] == before["operator_builds"]
    assert engine.counters["clv_propagations"] == before["clv_propagations"]
    graph = h1_model.site_class_graph(bsm_values)
    grown = engine.counters["outside_propagations"] - before["outside_propagations"]
    assert grown == _gradient_applications(bound, graph, graph.plan(skip_zero=True))


def test_gradient_without_a_matching_evaluation_evaluates_first(
    small_tree, small_sim, h1_model, bsm_values
):
    bound = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    bound.log_likelihood(bsm_values)
    moved = bound.branch_lengths * 1.2
    g = bound.gradient(bsm_values, moved)
    fresh = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    assert g.lnl == fresh.log_likelihood(bsm_values, moved)
    np.testing.assert_array_equal(g.branches, fresh.gradient(bsm_values, moved).branches)


def test_fit_evaluations_per_iteration(small_tree, small_sim, h1_model):
    # One analytic pass per gradient replaces every probe, and it is not
    # a likelihood evaluation: the fit's evaluation count is the start
    # point plus the line-search steps, all of them real calls.
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    fit = ml_mod.fit_model(bound, seed=1, max_iterations=4)
    assert np.isfinite(fit.grad_norm) and fit.grad_norm > 0
    assert engine.counters["gradient_passes"] == fit.n_iterations + 1
    assert fit.n_evaluations == bound.n_evaluations
