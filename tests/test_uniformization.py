"""Uniformized transition kernel (rung 4): invariants, cross-validation,
engine wiring, and fault-injected scans that must complete through it."""

import numpy as np
import pytest
import scipy.linalg

import repro.core.engine as engine_mod
from repro.alignment.simulate import simulate_alignment
from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import PadeFallback, decompose
from repro.core.engine import make_engine
from repro.core.expm import transition_matrix_scipy, transition_matrix_syrk
from repro.core.recovery import NumericalError
from repro.core.uniformization import (
    UniformizedOperator,
    poisson_truncation,
)
from repro.models.branch_site import BranchSiteModelA
from repro.parallel.batch import map_survey_candidates, scan_branches
from repro.trees.newick import parse_newick

OMEGAS = (1e-4, 1.0, 50.0, 500.0)
TIMES = (1e-8, 1.0, 10.0, 100.0)


@pytest.fixture(scope="module")
def pi():
    rng = np.random.default_rng(11)
    raw = rng.dirichlet(np.full(61, 4.0))
    return raw / raw.sum()


class TestPoissonTruncation:
    def test_zero_rate_is_a_point_mass(self):
        w = poisson_truncation(0.0, 1e-12)
        assert w.shape == (1,) and w[0] == 1.0

    @pytest.mark.parametrize("mu_t", [0.1, 1.0, 10.0, 47.0])
    def test_tail_mass_bounded(self, mu_t):
        tol = 1e-12
        w = poisson_truncation(mu_t, tol)
        assert 1.0 - w.sum() <= tol
        assert np.all(w >= 0.0)

    def test_insufficient_terms_raises(self):
        with pytest.raises(ValueError, match="did not reach"):
            poisson_truncation(40.0, 1e-12, max_terms=10)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            poisson_truncation(-1.0, 1e-12)
        with pytest.raises(ValueError, match="finite and non-negative"):
            poisson_truncation(float("nan"), 1e-12)


class TestKernelInvariants:
    """The acceptance grid: every (ω, t) cell keeps every invariant."""

    @pytest.mark.parametrize("omega", OMEGAS)
    @pytest.mark.parametrize("t", TIMES)
    def test_rows_nonnegative_and_stochastic(self, pi, omega, t):
        q = build_rate_matrix(2.0, omega, pi).q
        p = UniformizedOperator(q, pi).transition_matrix(t)
        assert np.all(p >= 0.0), f"negative entry at omega={omega}, t={t}"
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("omega", OMEGAS)
    @pytest.mark.parametrize("t", TIMES)
    def test_agrees_with_spectral(self, pi, omega, t):
        # The uniformized P(t) must track the healthy spectral path to
        # 1e-10 max-abs everywhere on the grid — that is what qualifies
        # it as the ladder's independent witness.
        matrix = build_rate_matrix(2.0, omega, pi)
        p_spec = transition_matrix_syrk(decompose(matrix), t)
        p_uni = UniformizedOperator(matrix.q, pi).transition_matrix(t)
        assert np.max(np.abs(p_uni - p_spec)) <= 1e-10

    @pytest.mark.parametrize("omega", OMEGAS)
    @pytest.mark.parametrize("t", [1e-8, 1.0, 10.0])
    def test_agrees_with_pade(self, pi, omega, t):
        # Cross-validation against the algorithmically independent scipy
        # Padé path on the moderate grid.
        q = build_rate_matrix(2.0, omega, pi).q
        p_pade = transition_matrix_scipy(q, t)
        p_uni = UniformizedOperator(q, pi).transition_matrix(t)
        assert np.max(np.abs(p_uni - p_pade)) <= 1e-8

    def test_zero_time_is_identity(self, pi):
        q = build_rate_matrix(2.0, 1.0, pi).q
        assert np.array_equal(UniformizedOperator(q, pi).transition_matrix(0.0), np.eye(61))


class TestUniformizedOperator:
    def test_jump_matrix_is_stochastic(self, pi):
        uni = UniformizedOperator(build_rate_matrix(2.0, 0.5, pi).q, pi)
        assert np.all(uni.r >= 0.0)
        assert np.allclose(uni.r.sum(axis=1), 1.0, atol=1e-14)
        assert uni.r_clip == 0.0  # clean generator: nothing clamped

    def test_power_cache_grows_and_is_shared(self, pi):
        uni = UniformizedOperator(build_rate_matrix(2.0, 0.5, pi).q, pi)
        assert uni.n_cached_powers == 2
        p5 = uni.power(5)
        assert uni.n_cached_powers == 6
        assert np.allclose(p5, np.linalg.matrix_power(uni.r, 5))
        uni.power(3)  # served from cache, no growth
        assert uni.n_cached_powers == 6

    def test_noisy_generator_is_clamped_and_recorded(self, pi):
        # Rung 4 sees Q rebuilt from damaged spectral factors, which can
        # carry small negative off-diagonal noise.
        q = build_rate_matrix(2.0, 0.5, pi).q.copy()
        q[0, 1] = -1e-9
        uni = UniformizedOperator(q, pi)
        assert uni.r_clip > 0.0
        assert np.all(uni.r >= 0.0)
        assert np.allclose(uni.r.sum(axis=1), 1.0, atol=1e-14)

    def test_squaring_engages_above_threshold(self, pi):
        uni = UniformizedOperator(build_rate_matrix(2.0, 0.5, pi).q, pi)
        assert uni.terms_for(1.0 / uni.mu)[1] == 0
        terms, squarings = uni.terms_for(400.0 / uni.mu)
        assert squarings >= 3
        assert terms <= 200  # squaring keeps the series short

    def test_rejects_bad_inputs(self, pi):
        q = build_rate_matrix(2.0, 0.5, pi).q
        with pytest.raises(ValueError, match="square"):
            UniformizedOperator(q[:, :10], pi)
        with pytest.raises(ValueError, match="finite generator"):
            UniformizedOperator(np.full((4, 4), np.nan), pi[:4])
        with pytest.raises(ValueError, match="tol"):
            UniformizedOperator(q, pi, tol=0.0)
        bad = q.copy()
        np.fill_diagonal(bad, 1.0)
        with pytest.raises(ValueError, match="positive diagonal"):
            UniformizedOperator(bad, pi)
        uni = UniformizedOperator(q, pi)
        with pytest.raises(ValueError, match="branch length"):
            uni.transition_matrix(-1.0)
        with pytest.raises(ValueError, match="power exponent"):
            uni.power(-1)

    def test_evaluation_counter(self, pi):
        uni = UniformizedOperator(build_rate_matrix(2.0, 0.5, pi).q, pi)
        uni.transition_matrix(0.5)
        uni.transition_matrix(1.5)
        assert uni.evaluations == 2


class TestRung4Wiring:
    """Engine-level behaviour: fallback, attribution, exhaustion, kernel scope."""

    @pytest.fixture
    def fallback(self, pi):
        matrix = build_rate_matrix(2.0, 0.5, pi)
        return PadeFallback(
            q=matrix.q, pi=pi,
            ladder=(("evr", "residual 1e-5"), ("ev", "residual 2e-6")),
        )

    def test_pade_guard_failure_degrades_to_uniformization(
        self, fallback, monkeypatch
    ):
        engine = make_engine("slim")
        monkeypatch.setattr(
            engine_mod, "transition_matrix_scipy",
            lambda q, t: np.full_like(q, -1.0),
        )
        op = engine._make_operator(fallback, 0.4)
        p = np.asarray(op)
        ref = transition_matrix_scipy(fallback.q, 0.4)
        assert np.max(np.abs(p - ref)) < 1e-9
        events = [
            ev for ev in engine.events.events if ev.kind == "uniformization_fallback"
        ]
        assert len(events) == 1
        assert events[0].context["path"] == "pade"
        assert engine.counters.get("rung_uniformization") == 1
        assert "rung_pade" not in engine.counters

    def test_ladder_exhaustion_is_one_structured_event(self, fallback, monkeypatch):
        engine = make_engine("slim")
        monkeypatch.setattr(
            engine_mod, "transition_matrix_scipy",
            lambda q, t: np.full_like(q, np.nan),
        )
        monkeypatch.setattr(
            UniformizedOperator, "transition_matrix",
            lambda self, t: (_ for _ in ()).throw(ValueError("series diverged")),
        )
        with pytest.raises(NumericalError, match="every recovery rung failed") as err:
            engine._make_operator(fallback, 0.4)
        # The structured error carries the whole failure history — every
        # eigensolver rejection plus the Padé and uniformization errors —
        # not the last rung's raw exception.
        message = str(err.value)
        for rung in ("evr", "ev", "pade", "uniformization"):
            assert rung in message
        assert "series diverged" in message
        exhausted = [
            ev for ev in engine.events.events if ev.kind == "ladder_exhausted"
        ]
        assert len(exhausted) == 1
        assert exhausted[0].context["rungs_failed"] == 4

    def test_spectral_failure_without_cross_check_still_raises(self, pi, monkeypatch):
        engine = make_engine("slim")
        decomp = engine._decompose(build_rate_matrix(2.0, 0.5, pi))
        real_build = type(engine)._build_operator

        def corrupt(self, d, t):
            bad = np.array(real_build(self, d, t), copy=True)
            bad[0, :] += 0.5
            return bad

        monkeypatch.setattr(type(engine), "_build_operator", corrupt)
        with pytest.raises(NumericalError):
            engine._make_operator(decomp, 0.3)

    def test_pade_operators_are_rebuilt_per_build(self, fallback):
        engine = make_engine("slim")
        op1 = engine.build_operator_set(fallback, [0.2])[0.2]
        op2 = engine.build_operator_set(fallback, [0.2])[0.2]
        assert op1 is not op2
        assert np.array_equal(op1, op2)
        assert engine.cache_stats()["rung_pade"] == 2

    def test_one_rung4_kernel_per_build_call(self, fallback, monkeypatch):
        engine = make_engine("slim")
        monkeypatch.setattr(
            engine_mod, "transition_matrix_scipy",
            lambda q, t: np.full_like(q, -1.0),
        )
        kernels = []
        real = engine._uniformize

        def recording(decomp):
            kernels.append(real(decomp))
            return kernels[-1]

        monkeypatch.setattr(engine, "_uniformize", recording)
        ts = [0.1, 0.2, 0.4]
        opset = engine.build_operator_set(fallback, ts)
        # The call's lengths share the kernel its first failure made.
        assert len(kernels) == 1
        assert engine.counters["rung_uniformization"] == len(ts)
        for t in ts:
            assert np.array_equal(opset[t], kernels[0].transition_matrix(t))
        # A second call makes its own.
        engine.build_operator_set(fallback, ts)
        assert len(kernels) == 2

    def test_spectral_rung_usage_is_counted(self, pi):
        engine = make_engine("slim")
        decomp = engine._decompose(build_rate_matrix(2.0, 0.5, pi))
        engine._make_operator(decomp, 0.1)
        engine._make_operator(decomp, 0.2)
        assert engine.cache_stats()["rung_evr"] == 2


@pytest.fixture(scope="module")
def scan_problem():
    tree = parse_newick("((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);")
    sim = simulate_alignment(
        tree, BranchSiteModelA(),
        {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3},
        n_codons=30, seed=9,
    )
    return tree, sim.alignment


def _dead_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("eigensolver injected dead")


class TestFaultInjectedScan:
    """The acceptance scenario: scans complete via rung 4, and survive
    even total ladder exhaustion without aborting the batch."""

    def test_scan_completes_via_rung4_with_attribution(
        self, scan_problem, monkeypatch
    ):
        tree, alignment = scan_problem
        # Kill every LAPACK eigensolver (forces PadeFallback) *and* make
        # scipy's Padé produce guard-failing garbage: only rung 4 is left.
        monkeypatch.setattr(scipy.linalg, "eigh", _dead_eigh)
        monkeypatch.setattr(
            engine_mod, "transition_matrix_scipy",
            lambda q, t: np.full_like(q, -1.0),
        )
        scan = scan_branches(
            "faulted", tree, alignment,
            seed=3, max_iterations=3,
        )
        assert scan.ok, scan.failures
        assert scan.n_candidates == 7
        for res in scan.gene_results:
            assert res.metrics.get("rung_uniformization", 0) > 0
            assert "rung_evr" not in res.metrics and "rung_pade" not in res.metrics
            # Event attribution: rung 4 fired, every time from the Padé
            # path (the spectral rungs never produced a decomposition).
            fallback_events = [
                ev for ev in res.diagnostics["events"]
                if ev["kind"] == "uniformization_fallback"
            ]
            assert fallback_events
            assert all(
                ev["context"]["path"] == "pade" for ev in fallback_events
            )
        # The coordinator's fallback mapper, at every task's kept H1 MLEs, maps
        # with no eigensystem (expm_frechet per row): no error payload,
        # real per-branch event rows.
        payloads = map_survey_candidates("faulted", tree, alignment, scan, list(scan.by_branch))
        assert payloads.keys() == scan.by_branch.keys()
        for payload in payloads.values():
            assert "error" not in payload, payload
            assert payload["branches"]

    def test_total_exhaustion_survives_as_structured_failures(
        self, scan_problem, monkeypatch
    ):
        tree, alignment = scan_problem
        monkeypatch.setattr(scipy.linalg, "eigh", _dead_eigh)
        monkeypatch.setattr(
            engine_mod, "transition_matrix_scipy",
            lambda q, t: np.full_like(q, -1.0),
        )
        monkeypatch.setattr(
            UniformizedOperator, "transition_matrix",
            lambda self, t: (_ for _ in ()).throw(ValueError("series diverged")),
        )
        scan = scan_branches(
            "exhausted", tree, alignment,
            seed=3, max_iterations=3,
        )
        # Every branch failed — but the batch finished with structured
        # per-branch failures instead of aborting on a raw exception.
        assert not scan.ok
        assert len(scan.failures) == scan.n_candidates == 7
        for failure in scan.failures.values():
            assert failure.error_type == "ValueError"
            assert "not finite at the start point" in failure.message
        # Failed tasks keep no MLEs, so the coordinator has nothing to map.
        assert all(res.h1_mles is None for res in scan.gene_results)
        labels = list(scan.failures)
        assert map_survey_candidates("exhausted", tree, alignment, scan, labels) == {}


class TestLibraryDefaultsAreGuarded:
    """Every entry point runs the ladder — no opt-in, no unguarded mode."""

    def test_survey_mapper_completes_through_the_ladder(self, scan_problem, monkeypatch):
        import repro.parallel.batch as batch_mod
        from repro.parallel.batch import BranchScanResult, GeneResult, branch_label

        tree, alignment = scan_problem
        engines = []

        def recording_make_engine(name, **kwargs):
            engines.append(make_engine(name, **kwargs))
            return engines[-1]

        monkeypatch.setattr(batch_mod, "make_engine", recording_make_engine)
        monkeypatch.setattr(scipy.linalg, "eigh", _dead_eigh)
        node = next(n for n in tree.nodes if not n.is_root and not n.is_leaf)
        label = branch_label(tree, node.index)
        point = {
            "values": {"kappa": 2.2, "omega0": 0.2, "omega2": 4.0, "p0": 0.5, "p1": 0.3},
            "branch_lengths": list(tree.branch_lengths()),
        }
        scan = BranchScanResult(
            "g", by_branch={}, gene_results=[GeneResult(
                gene_id=f"g:{label}", lnl0=-1.0, lnl1=-1.0, statistic=0.0,
                pvalue=1.0, iterations=0, runtime_seconds=0.0, h1_mles=point,
            )],
        )
        payloads = map_survey_candidates("g", tree, alignment, scan, [label])
        assert "error" not in payloads[label], payloads[label]
        assert payloads[label]["branches"]
        (engine,) = engines
        assert engine.counters.get("rung_pade", 0) > 0
        assert "rung_evr" not in engine.counters

    def test_analyze_genes_defaults_report_rung_usage(self, scan_problem):
        from repro.parallel.batch import GeneJob, analyze_genes

        tree, alignment = scan_problem
        (res,) = analyze_genes(
            [GeneJob.from_objects("g", tree, alignment)], max_iterations=1
        )
        assert not res.failed
        assert res.metrics["rung_evr"] > 0
        assert res.converged == {"h0": False, "h1": False}
