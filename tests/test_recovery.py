"""Numerical self-healing layer: ladder, guards, restarts, end-to-end.

Covers the recovery subsystem top to bottom:

* :func:`repro.core.eigen.decompose_guarded` fallback ladder — each rung
  exercised via a monkeypatched ``scipy.linalg.eigh``;
* spectral vs Padé ``P(t)`` agreement across extreme branch lengths and
  ω (the fallback must be a drop-in for the healthy path);
* the P(t)/symmetric-operator guards (clamp / renormalise / hard error);
* CLV checks in pruning (zero columns, non-finite values);
* seeded optimizer restarts (non-finite start, line-search collapse);
* batch scans: injected failures recover end-to-end with diagnostics in
  the journal and summary, and the always-on guards leave healthy
  likelihoods bit-identical to the bare kernels.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg

from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import PadeFallback, SpectralDecomposition, decompose, decompose_guarded
import repro.optimize.ml as ml_mod
from repro.core.engine import LikelihoodEngine, SlimV2Engine, make_engine
from repro.core.expm import transition_matrix_einsum, transition_matrix_scipy
from repro.core.recovery import (
    FitDiagnostics,
    NumericalError,
    NumericalEvent,
    NumericalEventRecorder,
    PruningGuard,
    guard_symmetric_operator,
    guard_transition_matrix,
)
from repro.io.results_io import ResultJournal
from repro.optimize.bfgs import BARRIER_SLOPE, minimize_bfgs
from repro.optimize.ml import fit_model
from repro.parallel.batch import scan_branches
from tests.conftest import ENGINE_NAMES
from tests.oracles import finite_difference_gradient, prune_levels

REAL_EIGH = scipy.linalg.eigh


def _bare_kernels(monkeypatch):
    """Switch the operator guards off: no block flagged, no guard applied."""
    for cls in (LikelihoodEngine, SlimV2Engine):
        monkeypatch.setattr(cls, "_screen_stack", lambda self, stack, decomp: ())
        monkeypatch.setattr(cls, "_guard_operator", lambda self, op, t: op)


@pytest.fixture(scope="module")
def pi():
    rng = np.random.default_rng(5)
    raw = rng.dirichlet(np.full(61, 4.0))
    return raw / raw.sum()


@pytest.fixture(scope="module")
def matrix(pi):
    return build_rate_matrix(2.3, 0.6, pi)


# ----------------------------------------------------------------------
# Fallback ladder
# ----------------------------------------------------------------------
class TestFallbackLadder:
    def test_healthy_matrix_uses_first_rung(self, matrix):
        recorder = NumericalEventRecorder()
        decomp = decompose_guarded(matrix, recorder=recorder)
        assert isinstance(decomp, SpectralDecomposition)
        assert len(recorder) == 0  # nothing fired on the healthy path
        plain = decompose(matrix)
        assert np.array_equal(decomp.eigenvalues, plain.eigenvalues)
        assert np.array_equal(decomp.eigenvectors, plain.eigenvectors)

    def test_evr_failure_falls_to_ev(self, matrix, monkeypatch):
        def flaky(a, *args, **kwargs):
            if kwargs.get("driver") == "evr":
                raise np.linalg.LinAlgError("injected evr failure")
            return REAL_EIGH(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", flaky)
        recorder = NumericalEventRecorder()
        decomp = decompose_guarded(matrix, driver="evr", recorder=recorder)
        assert isinstance(decomp, SpectralDecomposition)
        counts = recorder.counts()
        assert counts == {"eigh_failure": 1, "eigh_fallback": 1}
        fallback = [e for e in recorder if e.kind == "eigh_fallback"][0]
        assert fallback.detail == "ev"

    def test_residual_rejection_falls_to_ev(self, matrix, monkeypatch):
        def garbage_evr(a, *args, **kwargs):
            if kwargs.get("driver") == "evr":
                n = a.shape[0]
                return np.zeros(n), np.eye(n)  # reconstructs to 0 != A
            return REAL_EIGH(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", garbage_evr)
        recorder = NumericalEventRecorder()
        decomp = decompose_guarded(matrix, driver="evr", recorder=recorder)
        assert isinstance(decomp, SpectralDecomposition)
        counts = recorder.counts()
        assert counts == {"eigh_residual": 1, "eigh_fallback": 1}

    def test_total_failure_falls_to_pade(self, matrix, monkeypatch):
        def dead(a, *args, **kwargs):
            raise np.linalg.LinAlgError("injected total failure")

        monkeypatch.setattr(scipy.linalg, "eigh", dead)
        recorder = NumericalEventRecorder()
        decomp = decompose_guarded(matrix, driver="evr", recorder=recorder)
        assert isinstance(decomp, PadeFallback)
        counts = recorder.counts()
        assert counts["eigh_failure"] == 2  # both evr and ev rungs
        pade = [e for e in recorder if e.kind == "eigh_fallback"][-1]
        assert pade.detail == "pade"
        # The fallback generator reproduces P(t) = expm(Q t).
        p = transition_matrix_scipy(decomp.q, 0.37)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_ev_driver_has_no_duplicate_rung(self, matrix, monkeypatch):
        def dead(a, *args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(scipy.linalg, "eigh", dead)
        recorder = NumericalEventRecorder()
        decomp = decompose_guarded(matrix, driver="ev", recorder=recorder)
        assert isinstance(decomp, PadeFallback)
        assert recorder.counts()["eigh_failure"] == 1  # single eigh rung


class TestSpectralVsPade:
    """The Padé fallback must be a drop-in for the spectral path."""

    @pytest.mark.parametrize("omega", [1e-6, 1e-2, 1.0, 50.0])
    @pytest.mark.parametrize("t", [1e-8, 1e-3, 0.5, 10.0, 100.0])
    def test_extreme_parameters(self, pi, omega, t):
        rm = build_rate_matrix(2.0, omega, pi)
        decomp = decompose(rm)
        p_spectral = transition_matrix_einsum(decomp, t)
        p_pade = transition_matrix_scipy(rm.q, t)
        assert np.allclose(p_spectral, p_pade, atol=1e-9)
        assert np.allclose(p_pade.sum(axis=1), 1.0, atol=1e-9)


# ----------------------------------------------------------------------
# Operator guards
# ----------------------------------------------------------------------
class TestTransitionGuard:
    def setup_method(self):
        self.recorder = NumericalEventRecorder()

    def test_clean_matrix_untouched(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        before = p.copy()
        out = guard_transition_matrix(p, self.recorder, t=0.1)
        assert out is p
        assert np.array_equal(p, before)  # bit-identical: no event, no edit
        assert len(self.recorder) == 0

    def test_tiny_negative_clamped(self):
        p = np.array([[-1e-10, 1.0 + 1e-10], [0.5, 0.5]])
        guard_transition_matrix(p, self.recorder, t=0.1)
        assert p[0, 0] == 0.0
        assert self.recorder.counts() == {"pt_negative_clamped": 1}

    def test_large_negative_is_hard_error(self):
        p = np.array([[-1e-3, 1.0 + 1e-3], [0.5, 0.5]])
        with pytest.raises(NumericalError):
            guard_transition_matrix(p, self.recorder, t=0.1)
        assert "pt_invalid" in self.recorder.counts()

    def test_row_drift_renormalized(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]]) * (1.0 + 1e-5)
        guard_transition_matrix(p, self.recorder, t=0.1)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert self.recorder.counts() == {"pt_row_renormalized": 1}

    def test_row_drift_beyond_repair_is_hard_error(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]]) * 1.5
        with pytest.raises(NumericalError):
            guard_transition_matrix(p, self.recorder, t=0.1)

    def test_nonfinite_is_hard_error(self):
        p = np.array([[np.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(NumericalError) as exc_info:
            guard_transition_matrix(p, self.recorder, t=2.5, engine="slim")
        assert exc_info.value.context["t"] == 2.5
        assert exc_info.value.context["engine"] == "slim"


class TestSymmetricGuard:
    def test_clean_operator_untouched(self):
        pi = np.array([0.5, 0.5])
        m = np.ones((2, 2))
        recorder = NumericalEventRecorder()
        out = guard_symmetric_operator(m, pi, recorder, t=0.1)
        assert out is m and len(recorder) == 0

    def test_drift_recorded_but_never_renormalized(self):
        pi = np.array([0.5, 0.5])
        m = np.ones((2, 2)) * (1.0 + 1e-5)
        before = m.copy()
        recorder = NumericalEventRecorder()
        guard_symmetric_operator(m, pi, recorder, t=0.1)
        # Renormalising would break the symmetry dsymm relies on.
        assert np.array_equal(m, before)
        assert recorder.counts() == {"pt_row_drift": 1}

    def test_large_drift_is_hard_error(self):
        pi = np.array([0.5, 0.5])
        m = np.ones((2, 2)) * 1.5
        with pytest.raises(NumericalError):
            guard_symmetric_operator(m, pi, None, t=0.1)


# ----------------------------------------------------------------------
# Pruning CLV checks
# ----------------------------------------------------------------------
def _toy_pruning(leaf_clvs, guard=None):
    branch_table = [(0, 2, 0.1, False), (1, 2, 0.1, False)]
    return prune_levels(
        branch_table,
        n_nodes=3,
        leaf_clvs=leaf_clvs,
        transition_factory=lambda t, fg: None,
        propagate=lambda op, clv: clv.copy(),
        guard=guard,
    )


class TestPruningGuards:
    def test_zero_column_raises_with_node_and_patterns(self):
        # Disjoint leaf indicators in column 0: the product is all-zero.
        a = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        recorder = NumericalEventRecorder()
        guard = PruningGuard(recorder=recorder, context={"site_class": "0"})
        with pytest.raises(NumericalError) as exc_info:
            _toy_pruning([a, b], guard=guard)
        assert exc_info.value.context["node"] == 2
        assert "0" in exc_info.value.context["patterns"]
        assert recorder.counts() == {"clv_zero_column": 1}

    def test_zero_column_raises_without_a_recorder(self):
        # Pruning is always guarded: even a guard with no recorder turns
        # the zero column into a typed error, never a silent -inf.
        a = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        with pytest.raises(NumericalError) as exc_info:
            _toy_pruning([a, b], guard=PruningGuard())
        assert exc_info.value.context["node"] == 2
        assert exc_info.value.context["patterns"] == "[0]"

    def test_nonfinite_clv_raises(self):
        a = np.array([[np.nan, 1.0], [0.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        b = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        recorder = NumericalEventRecorder()
        with pytest.raises(NumericalError):
            _toy_pruning([a, b], guard=PruningGuard(recorder=recorder))
        assert recorder.counts() == {"clv_nonfinite": 1}


# ----------------------------------------------------------------------
# Optimizer non-finite handling + restarts
# ----------------------------------------------------------------------
class TestBfgsBarrier:
    def test_barrier_slope_is_named(self):
        assert BARRIER_SLOPE == 1e8

    def test_minus_inf_is_a_barrier_not_a_descent(self):
        # Legacy code let -inf through the NaN-only check and accepted a
        # step into the fault region; now every non-finite maps to +inf.
        def f(x):
            if x[0] >= 2.0:
                return -np.inf
            return (x[0] - 1.9) ** 2

        result = minimize_bfgs(
            f, np.array([0.0]), finite_difference_gradient, max_iterations=50
        )
        assert np.isfinite(result.fun)
        assert result.x[0] < 2.0

    def test_line_search_collapse_flagged(self):
        x0 = np.array([0.5, -0.5])

        def spike(z):
            return 0.0 if np.array_equal(z, x0) else np.inf

        result = minimize_bfgs(spike, x0, finite_difference_gradient, max_iterations=10)
        assert result.line_search_failed
        assert result.n_iterations == 0


class _PoisonedBound:
    """Proxy bound whose log-likelihood NaNs for the first ``n_bad`` calls."""

    def __init__(self, inner, n_bad):
        self._inner = inner
        self._calls = 0
        self._n_bad = n_bad
        self.engine = inner.engine
        self.model = inner.model
        self.pi = inner.pi
        self.branch_lengths = inner.branch_lengths

    def log_likelihood(self, values, lengths):
        self._calls += 1
        if self._calls <= self._n_bad:
            return float("nan")
        return self._inner.log_likelihood(values, lengths)

    def gradient(self, values, lengths):
        return self._inner.gradient(values, lengths)


class _CliffBound:
    """Finite exactly twice (start point + first line-search step), then -inf.

    Forces a line-search collapse at iteration 0, then non-finite
    restarts until the budget runs out — both policy triggers in one
    deterministic fixture.
    """

    def __init__(self, inner):
        self._inner = inner
        self._calls = 0
        self.engine = inner.engine
        self.model = inner.model
        self.pi = inner.pi
        self.branch_lengths = inner.branch_lengths

    def log_likelihood(self, values, lengths):
        self._calls += 1
        return 0.0 if self._calls <= 2 else -np.inf

    def gradient(self, values, lengths):
        # A real, non-zero slope, so the fit takes a line search.
        return self._inner.gradient(values, lengths)


@pytest.fixture(scope="module")
def bound(small_tree, small_sim, h0_model):
    return make_engine("slim").bind(small_tree, small_sim.alignment, h0_model)


class TestRecoveryPolicy:
    def test_restart_recovers_poisoned_start(self, bound):
        poisoned = _PoisonedBound(bound, n_bad=1)
        fit = fit_model(poisoned, seed=3, max_iterations=10)
        assert np.isfinite(fit.lnl)
        assert fit.diagnostics.restarts == 1
        counts = fit.diagnostics.event_counts()
        assert counts["nonfinite_start"] == 1
        assert counts["optimizer_restart"] == 1
        assert fit.diagnostics.recovered

    def test_without_policy_poisoned_start_still_raises(self, bound, monkeypatch):
        # No restart budget: a non-finite start point is a hard error.
        monkeypatch.setattr(ml_mod, "MAX_RESTARTS", 0)
        with pytest.raises(ValueError, match="not finite at the start"):
            fit_model(_PoisonedBound(bound, n_bad=1), seed=3, max_iterations=10)

    def test_restarts_are_seeded_and_deterministic(self, bound):
        fits = [
            fit_model(
                _PoisonedBound(bound, n_bad=1),
                seed=3,
                max_iterations=10,
            )
            for _ in range(2)
        ]
        assert fits[0].lnl == fits[1].lnl
        assert np.array_equal(fits[0].branch_lengths, fits[1].branch_lengths)

    def test_collapse_then_budget_exhaustion_keeps_best(self, bound):
        assert ml_mod.MAX_RESTARTS == 3
        fit = fit_model(_CliffBound(bound), seed=3, max_iterations=10)
        assert fit.lnl == 0.0  # the one finite optimum survives
        assert fit.diagnostics.restarts == 3
        kinds = fit.diagnostics.event_counts()
        assert kinds["nonfinite_start"] >= 1
        assert any(
            "line search" in e.detail
            for e in fit.diagnostics.events
            if e.kind == "optimizer_restart"
        )

    def test_healthy_fit_is_bit_identical_with_policy(self, bound, monkeypatch):
        recovered = fit_model(bound, seed=3, max_iterations=15)
        # A single attempt with no restart budget is the plain BFGS fit.
        monkeypatch.setattr(ml_mod, "MAX_RESTARTS", 0)
        plain = fit_model(bound, seed=3, max_iterations=15)
        assert plain.lnl == recovered.lnl
        assert np.array_equal(plain.branch_lengths, recovered.branch_lengths)
        assert plain.n_evaluations == recovered.n_evaluations
        assert not recovered.diagnostics.recovered


# ----------------------------------------------------------------------
# Engine-level: guarded engines stay bit-identical; fallback agrees
# ----------------------------------------------------------------------
class TestEngineBitIdentity:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_recovery_enabled_is_bit_identical_on_clean_data(
        self, name, small_tree, small_sim, h1_model, bsm_values, monkeypatch
    ):
        lengths = np.asarray(
            [b[2] for b in small_tree.branch_table()], dtype=float
        )
        guarded = make_engine(name).bind(small_tree, small_sim.alignment, h1_model)
        lnl_guarded = guarded.log_likelihood(bsm_values, lengths)
        _bare_kernels(monkeypatch)
        plain = make_engine(name).bind(small_tree, small_sim.alignment, h1_model)
        lnl_plain = plain.log_likelihood(bsm_values, lengths)
        assert lnl_plain == lnl_guarded
        assert len(guarded.engine.events) == 0

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_pade_fallback_agrees_with_spectral(
        self, name, small_tree, small_sim, h1_model, bsm_values, monkeypatch
    ):
        lengths = np.asarray(
            [b[2] for b in small_tree.branch_table()], dtype=float
        )
        healthy = make_engine(name).bind(small_tree, small_sim.alignment, h1_model)
        lnl_healthy = healthy.log_likelihood(bsm_values, lengths)

        def dead(a, *args, **kwargs):
            raise np.linalg.LinAlgError("injected total failure")

        monkeypatch.setattr(scipy.linalg, "eigh", dead)
        guarded = make_engine(name).bind(
            small_tree, small_sim.alignment, h1_model
        )
        lnl_fallback = guarded.log_likelihood(bsm_values, lengths)
        assert lnl_fallback == pytest.approx(lnl_healthy, abs=1e-6)
        counts = guarded.engine.events.counts()
        assert counts.get("eigh_fallback", 0) > 0


# ----------------------------------------------------------------------
# End-to-end: scans, journal, summary
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scan_inputs(small_tree, small_sim):
    from repro.trees.newick import parse_newick, write_newick
    from repro.trees.tree import Tree  # noqa: F401 - parse round-trip strips marks

    newick = write_newick(small_tree)
    unmarked = parse_newick(newick.replace("#1", ""))
    return unmarked, small_sim.alignment


class TestScanRecovery:
    def test_injected_failure_recovers_end_to_end(
        self, scan_inputs, tmp_path, monkeypatch
    ):
        tree, alignment = scan_inputs
        journal = str(tmp_path / "scan.jsonl")

        def flaky(a, *args, **kwargs):
            if kwargs.get("driver") == "evr":
                raise np.linalg.LinAlgError("injected evr failure")
            return REAL_EIGH(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", flaky)
        scan = scan_branches(
            "geneX", tree, alignment,
            seed=1, max_iterations=3,
            internal_only=True, journal=journal,
        )
        assert scan.ok  # every branch produced an LRT despite the fault
        summary = scan.summary()
        assert summary.n_recovered == summary.n_ok > 0
        assert summary.events_by_kind.get("eigh_fallback", 0) > 0
        assert "numerics" in summary.format()

        # Diagnostics survive the JSONL journal round-trip.
        loaded = ResultJournal(journal).load()
        assert all(r.recovered for r in loaded)
        diag = FitDiagnostics.from_dict(loaded[0].diagnostics)
        assert diag.event_counts().get("eigh_fallback", 0) > 0
        with open(journal, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["version"] >= 3

    def test_unaffected_scan_is_bit_identical_with_recovery(self, scan_inputs, monkeypatch):
        tree, alignment = scan_inputs
        guarded = scan_branches(
            "geneY", tree, alignment,
            seed=1, max_iterations=3, internal_only=True,
        )
        _bare_kernels(monkeypatch)
        plain = scan_branches(
            "geneY", tree, alignment,
            seed=1, max_iterations=3, internal_only=True,
        )
        assert guarded.summary().n_recovered == 0
        for a, b in zip(plain.gene_results, guarded.gene_results):
            assert a.lnl0 == b.lnl0
            assert a.lnl1 == b.lnl1
            assert a.statistic == b.statistic

    def test_fit_diagnostics_event_roundtrip(self):
        diag = FitDiagnostics(
            restarts=2,
            boundary_flags=["h1:omega2"],
            events=[
                NumericalEvent("eigh_fallback", "eigen", "pade", {"omega": 0.5}),
                NumericalEvent("optimizer_restart", "optimizer", "non-finite start"),
            ],
        )
        clone = FitDiagnostics.from_dict(json.loads(json.dumps(diag.to_dict())))
        assert clone.restarts == 2
        assert clone.boundary_flags == ["h1:omega2"]
        assert clone.event_counts() == diag.event_counts()
        assert clone.events[0].context["omega"] == 0.5
        assert "restart" in clone.describe()
