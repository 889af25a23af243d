"""Batched BLAS-3 evaluation: bit-identity, view semantics, ledgers.

The stacked-operator build and the level-order propagation promise
*exact* float equality with the per-branch reference recursion
(``tests/oracles.py``, DESIGN.md §10) — every likelihood comparison here
is ``==``; a single ulp of drift fails.
"""

import numpy as np
import pytest

from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import decompose
from repro.core.engine import make_engine
from repro.core.expm import (
    stacked_symmetric_operators,
    stacked_syrk_operators,
    symmetric_branch_matrix,
    transition_matrix_syrk,
)
from repro.core.flops import FlopCounter, blas_level, symm_flops, syrk_flops
from repro.core.recovery import (
    NumericalError,
    NumericalEventRecorder,
    guard_symmetric_operator,
    guard_transition_matrix,
)
from repro.likelihood.pruning import (
    build_level_schedule,
    compute_recompute_rows,
)
from repro.trees.newick import parse_newick
from tests.oracles import nudge_operators, reference_class_matrix, reference_log_likelihood

ENGINE_NAMES = ("codeml", "slim", "slim-v2")

#: Branch lengths cover the regimes that stress the exponential: zero,
#: optimiser-probe tiny, ordinary, and saturating.
TS = [0.0, 1e-6, 0.01, 0.08, 0.3, 2.5]


@pytest.fixture(scope="module")
def decomp():
    rng = np.random.default_rng(3)
    pi = rng.dirichlet(np.full(61, 6.0))
    return decompose(build_rate_matrix(2.1, 0.8, pi))


# ----------------------------------------------------------------------
# Stacked operator builders: bitwise vs the per-branch kernels
# ----------------------------------------------------------------------
class TestStackedBuilders:
    @pytest.mark.parametrize("clip", [True, False])
    def test_syrk_stack_matches_per_branch(self, decomp, clip):
        stack = stacked_syrk_operators(decomp, TS, clip_negative=clip)
        n = decomp.n_states
        assert stack.flags.f_contiguous and stack.shape == (n, n * len(TS))
        for b, t in enumerate(TS):
            view = stack[:, b * n : (b + 1) * n]
            ref = transition_matrix_syrk(decomp, t, clip_negative=clip)
            np.testing.assert_array_equal(view, ref)

    def test_symmetric_stack_matches_per_branch(self, decomp):
        stack = stacked_symmetric_operators(decomp, TS)
        n = decomp.n_states
        assert stack.flags.f_contiguous
        for b, t in enumerate(TS):
            view = stack[:, b * n : (b + 1) * n]
            ref = symmetric_branch_matrix(decomp, t)
            np.testing.assert_array_equal(view, ref)

    def test_empty_ts(self, decomp):
        assert stacked_syrk_operators(decomp, []).shape == (61, 0)
        assert stacked_symmetric_operators(decomp, []).shape == (61, 0)

    def test_counter_charges_blas3(self, decomp):
        counter = FlopCounter()
        stacked_syrk_operators(decomp, TS, counter=counter)
        assert counter.blas3_fraction == 1.0
        n = decomp.n_states
        assert counter.by_operation["expm:dsyrk"] == len(TS) * syrk_flops(n, n)


# ----------------------------------------------------------------------
# Operator-set view semantics
# ----------------------------------------------------------------------
def _operator_matrix(engine_name, op):
    return op[0] if engine_name == "slim-v2" else op


def _stacked_views(engine_name, opset):
    """The operator matrices of ``opset`` in ``TS`` order, checked to be
    consecutive read-only column blocks of one F-ordered buffer."""
    views = [_operator_matrix(engine_name, opset[t]) for t in TS]
    n = views[0].shape[0]
    start = views[0].__array_interface__["data"][0]
    for b, view in enumerate(views):
        assert view.flags.f_contiguous and not view.flags.writeable
        assert view.base is not None and view.base is views[0].base
        assert view.__array_interface__["data"][0] == start + b * n * n * view.itemsize
    return views


class TestOperatorSetViews:
    @pytest.mark.parametrize("engine_name", ["slim", "slim-v2"])
    @pytest.mark.parametrize("recover", [False, True])
    def test_views_read_only_f_contiguous(self, decomp, engine_name, recover, monkeypatch):
        # recover=True: every block drifts, so the guards act on (and, for
        # P stacks, repair) the whole stack before it freezes.
        if recover:
            nudge_operators(monkeypatch)
        engine = make_engine(engine_name)
        opset = engine.build_operator_set(decomp, TS)
        assert len(engine.events) == (len(TS) if recover else 0)
        assert len(opset) == len(TS)
        n = decomp.n_states
        for t in TS:
            assert t in opset
            m = _operator_matrix(engine_name, opset[t])
            assert m.flags.f_contiguous
            assert not m.flags.writeable
            assert m.shape == (n, n)
            with pytest.raises((ValueError, RuntimeError)):
                m[0, 0] = 1.0
        # The views alias one frozen stack — zero-copy slicing.
        _stacked_views(engine_name, opset)

    @pytest.mark.parametrize("engine_name", ["slim", "slim-v2"])
    def test_views_survive_recovery_guards(self, decomp, engine_name):
        # The recovery ladder guards (and may repair) operators *before*
        # the stack freezes; the public views must equal the guarded
        # per-branch operators bit for bit afterwards.
        guarded = make_engine(engine_name)
        plain = make_engine(engine_name)
        opset = guarded.build_operator_set(decomp, TS)
        for t in TS:
            ref = _operator_matrix(engine_name, plain._make_operator(decomp, t))
            got = _operator_matrix(engine_name, opset[t])
            np.testing.assert_array_equal(got, ref)

    def test_unknown_length_is_an_error(self, decomp):
        opset = make_engine("slim").build_operator_set(decomp, TS)
        with pytest.raises(KeyError):
            opset[0.123456]


# ----------------------------------------------------------------------
# Stack screen: one vectorised pass decides which blocks get a guard
# ----------------------------------------------------------------------
_RAW_STACK = {"slim": stacked_syrk_operators, "slim-v2": stacked_symmetric_operators}


def _guard_each_view(engine_name, stack, decomp):
    """The per-operator reference: guard every block, in order."""
    recorder = NumericalEventRecorder()
    n = decomp.n_states
    for b, t in enumerate(TS):
        view = stack[:, b * n : (b + 1) * n]
        if engine_name == "slim":
            guard_transition_matrix(view, recorder, t=t, engine=engine_name)
        else:
            guard_symmetric_operator(view, decomp.pi, recorder, t=t, engine=engine_name)
    return recorder


def _screened(engine_name, stack, decomp, monkeypatch):
    """``build_operator_set`` over a given (possibly damaged) raw stack."""
    engine = make_engine(engine_name)
    monkeypatch.setattr(engine, "_build_operator_stack", lambda d, ts: stack)
    return engine, engine.build_operator_set(decomp, TS)


def _events(recorder):
    return [event.to_dict() for event in recorder]


class TestStackScreen:
    @pytest.mark.parametrize("engine_name", ["slim", "slim-v2"])
    def test_screened_stack_is_the_raw_stack(self, decomp, engine_name):
        # Guards never perturb healthy numbers: the screened, frozen
        # stack equals the raw stacked builder's output bit for bit.
        engine = make_engine(engine_name)
        opset = engine.build_operator_set(decomp, TS)
        np.testing.assert_array_equal(
            np.hstack(_stacked_views(engine_name, opset)), _RAW_STACK[engine_name](decomp, TS)
        )
        assert len(engine.events) == 0

    @pytest.mark.parametrize("engine_name", ["slim", "slim-v2"])
    def test_flagged_blocks_match_per_operator_guarding(
        self, decomp, engine_name, monkeypatch
    ):
        n = decomp.n_states
        damaged = np.array(_RAW_STACK[engine_name](decomp, TS), order="F")
        damaged[:, 2 * n : 3 * n] *= 1.0 + 1e-6  # past ROW_SUM_TOL, within repair
        if engine_name == "slim":
            damaged[3, 7] = -1e-10  # tiny negative in P(0) = I: clamped
        reference = damaged.copy(order="F")
        expected = _guard_each_view(engine_name, reference, decomp)
        engine, opset = _screened(engine_name, damaged, decomp, monkeypatch)
        assert _events(engine.events) == _events(expected)
        assert len(engine.events) == (2 if engine_name == "slim" else 1)
        # Same repairs: the frozen stack and every view equal the
        # per-operator guarded blocks.
        for b, view in enumerate(_stacked_views(engine_name, opset)):
            np.testing.assert_array_equal(view, reference[:, b * n : (b + 1) * n])

    @pytest.mark.parametrize("engine_name", ["slim", "slim-v2"])
    def test_unrepairable_block_raises_like_per_operator_guarding(
        self, decomp, engine_name, monkeypatch
    ):
        n = decomp.n_states
        damaged = np.array(_RAW_STACK[engine_name](decomp, TS), order="F")
        damaged[:, 1 * n : 2 * n] *= 1.0 + 1e-6
        damaged[:, 3 * n : 4 * n] *= 1.5  # beyond ROW_SUM_ERROR
        with pytest.raises(NumericalError) as want:
            _guard_each_view(engine_name, damaged.copy(order="F"), decomp)
        engine = make_engine(engine_name)
        monkeypatch.setattr(engine, "_build_operator_stack", lambda d, ts: damaged)
        with pytest.raises(NumericalError) as got:
            engine.build_operator_set(decomp, TS)
        assert str(got.value) == str(want.value)
        assert got.value.context == want.value.context
        kinds = [event.kind for event in engine.events]
        assert kinds[-1] == "pt_invalid" and len(kinds) == 2

    def test_nonfinite_block_is_flagged(self, decomp, monkeypatch):
        n = decomp.n_states
        damaged = np.array(stacked_symmetric_operators(decomp, TS), order="F")
        damaged[5, 5 * n + 5] = np.nan
        engine = make_engine("slim-v2")
        monkeypatch.setattr(engine, "_build_operator_stack", lambda d, ts: damaged)
        with pytest.raises(NumericalError, match="non-finite"):
            engine.build_operator_set(decomp, TS)
        assert [event.kind for event in engine.events] == ["pt_invalid"]


# ----------------------------------------------------------------------
# Level schedule + recompute planning
# ----------------------------------------------------------------------
class TestLevelSchedule:
    def _rows(self, newick):
        tree = parse_newick(newick)
        lengths = tree.branch_lengths()
        return [
            (n.index, n.parent.index, float(lengths[k]), bool(n.foreground))
            for k, n in enumerate(n for n in tree.nodes if not n.is_root)
        ], len(tree.nodes)

    def test_levels_respect_heights(self):
        rows, n_nodes = self._rows(
            "((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);"
        )
        schedule = build_level_schedule(rows, n_nodes)
        # Leaves sit at height 0, their parents at 1, the root above.
        for h, level_rows in enumerate(schedule.levels):
            for ri in level_rows:
                assert schedule.heights[rows[ri][0]] == h
        # Every branch row is scheduled exactly once.
        assert sorted(ri for lvl in schedule.levels for ri in lvl) == list(
            range(len(rows))
        )
        assert schedule.root_index == rows[-1][1]

    def test_recompute_rows_none_means_all(self):
        rows, n_nodes = self._rows(
            "((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);"
        )
        assert compute_recompute_rows(rows, None) == list(range(len(rows)))

    def test_recompute_rows_follows_root_path(self):
        rows, n_nodes = self._rows(
            "((A:0.2,B:0.1):0.08 #1,(C:0.15,D:0.12):0.05,E:0.3);"
        )
        # Dirtying one leaf branch recomputes it plus every ancestor
        # branch on its root path, and nothing else.
        leaf = rows[0][0]
        recomputed = compute_recompute_rows(rows, {leaf})
        assert rows[recomputed[0]][0] == leaf
        children = {rows[ri][0] for ri in recomputed}
        for ri in recomputed[1:]:
            assert rows[ri][0] not in (leaf,)
        # Each recomputed internal branch's child is the parent of some
        # earlier recomputed row (the path property).
        parents = {rows[ri][1] for ri in recomputed}
        assert children - {leaf} <= parents | {rows[-1][1]}


# ----------------------------------------------------------------------
# End-to-end bit-identity: level-order == per-branch oracle, all engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize("gradient", [False, True])
@pytest.mark.parametrize("recover", [False, True])
def test_batched_bitwise_identical(
    engine_name, gradient, recover, small_tree, small_sim, h1_model, bsm_values,
    monkeypatch,
):
    # recover=False: the guarded driver on clean operators (no guard
    # fires); recover=True: every operator drifts, so the guards repair
    # or record on both sides of the comparison.  gradient=True runs a
    # branch-gradient pass after every evaluation: it reads the
    # evaluation's states through the last-point memo and must leave
    # the next evaluation bit-identical.
    if recover:
        nudge_operators(monkeypatch)

    def build():
        return make_engine(engine_name).bind(small_tree, small_sim.alignment, h1_model)

    ref, ba = build(), build()

    def check(lengths=None):
        expected = reference_log_likelihood(ref, bsm_values, lengths)
        assert expected == ba.log_likelihood(bsm_values, lengths)
        if gradient:
            g = ba.gradient(bsm_values, lengths)
            assert g.lnl == expected and np.all(np.isfinite(g.branches))

    check()
    # Move one branch, then return to base.
    bumped = ba.branch_lengths.copy()
    bumped[2] *= 1.3
    check(bumped)
    check()
    assert (len(ba.engine.events) > 0) == recover
    assert (len(ref.engine.events) > 0) == recover


def test_batched_site_class_matrix_identical(small_tree, small_sim, h1_model, bsm_values):
    ref = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    ba = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
    m1, p1 = reference_class_matrix(ref, bsm_values)
    ev = ba.class_evaluation(bsm_values)
    np.testing.assert_array_equal(m1, ev.class_lnl)
    np.testing.assert_array_equal(p1, ev.proportions)


def test_slim_v2_defaults_batched(
    small_tree, small_sim, h1_model, bsm_values, tmp_path, monkeypatch
):
    import repro.cli as cli
    import repro.core.engine as engine_mod
    import repro.parallel.batch as batch
    from repro.alignment.parsers import write_phylip
    from repro.trees.newick import write_newick

    # Every engine `run` and `scan --map` build is slim-v2, named by
    # position (the form a wrapped `make_engine(name, **kwargs)` sees) ...
    calls = []
    for module in (cli, batch):
        def recorder(*args, _module=module.__name__, _make=module.make_engine, **kwargs):
            calls.append((_module, args, kwargs))
            return _make(*args, **kwargs)

        monkeypatch.setattr(module, "make_engine", recorder)
    seqfile, treefile = tmp_path / "small.phy", tmp_path / "small.nwk"
    write_phylip(small_sim.alignment, str(seqfile))
    treefile.write_text(write_newick(small_tree) + "\n")
    inputs = ["--seqfile", str(seqfile), "--treefile", str(treefile), "--max-iterations", "1"]
    assert cli.main(["run", *inputs, "--out", str(tmp_path / "run.txt")]) == 0
    assert cli.main([
        "scan", *inputs, "--internal-only", "--map", "--quiet",
        "--out", str(tmp_path / "scan.txt"),
    ]) == 0
    assert {module for module, _, _ in calls} == {"repro.cli", "repro.parallel.batch"}
    assert all(args == ("slim-v2",) and not kwargs for _, args, kwargs in calls)
    # ... and every engine evaluates through the level-order driver.
    evaluations = []
    driver = engine_mod.prune_site_class_batched
    monkeypatch.setattr(
        engine_mod, "prune_site_class_batched",
        lambda *a, **k: evaluations.append(1) or driver(*a, **k),
    )
    for name in ENGINE_NAMES:
        evaluations.clear()
        make_engine(name).bind(small_tree, small_sim.alignment, h1_model).log_likelihood(
            bsm_values
        )
        assert evaluations, name


# ----------------------------------------------------------------------
# Degenerate mixture weights: zero-weight classes build no operators
# ----------------------------------------------------------------------
class TestZeroWeightClasses:
    ZERO_P1 = {"kappa": 2.5, "omega0": 0.3, "omega2": 4.0, "p0": 0.9, "p1": 0.0}

    def test_skipped_without_building_operators(self, small_tree, small_sim, h1_model):
        engine = make_engine("slim-v2")
        bound = engine.bind(small_tree, small_sim.alignment, h1_model)
        classes = h1_model.site_classes(self.ZERO_P1)
        zero = [c for c in classes if c.proportion == 0.0]
        assert len(zero) == 2  # classes 1 and 2b when p1 == 0
        bound.log_likelihood(self.ZERO_P1)
        # Expected distinct (ω, t) requests from the *live* classes only.
        lengths = bound.branch_lengths
        rows = [
            (child, parent, float(lengths[pos]), fg)
            for child, parent, pos, fg in bound._rows
        ]
        expected = {
            (cls.omega_foreground if fg else cls.omega_background, t)
            for cls in classes
            if cls.proportion != 0.0
            for _, _, t, fg in rows
        }
        stats = engine.cache_stats()
        assert stats["operator_builds"] == stats["rung_evr"] == len(expected)
        # ω = 1 (the skipped classes' background) was never requested.
        live_omegas = {omega for omega, _ in expected}
        assert 1.0 not in live_omegas

    def test_zero_weight_lnl_matches_unbatched(self, small_tree, small_sim, h1_model):
        ref = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
        ba = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
        assert reference_log_likelihood(ref, self.ZERO_P1) == ba.log_likelihood(
            self.ZERO_P1
        )

    def test_class_matrix_keeps_zero_rows(self, small_tree, small_sim, h1_model):
        # class_evaluation feeds NEB/BEB and must report every class —
        # the skip optimisation only applies to the mixture evaluation.
        ba = make_engine("slim-v2").bind(small_tree, small_sim.alignment, h1_model)
        m = ba.class_evaluation(self.ZERO_P1).class_lnl
        assert m.shape[0] == 4
        assert np.all(np.isfinite(m))


# ----------------------------------------------------------------------
# Background-tied dedupe ledger
# ----------------------------------------------------------------------
def test_background_tied_builds_ledgered_as_saved(
    small_tree, small_sim, h1_model, bsm_values
):
    engine = make_engine("slim-v2")
    bound = engine.bind(small_tree, small_sim.alignment, h1_model)
    bound.log_likelihood(bsm_values)
    # Model A pairs 0↔2a and 1↔2b request identical background
    # operators; the planner builds each distinct (ω, t) once and
    # counts the aliases as build saves.
    assert engine.counters["operator_build_saves"] > 0


# ----------------------------------------------------------------------
# FlopCounter BLAS-level ledger
# ----------------------------------------------------------------------
class TestBlasLevelLedger:
    def test_blas_level_classification(self):
        assert blas_level("clv:dsymm") == "blas3"
        assert blas_level("expm:dsyrk") == "blas3"
        assert blas_level("expm:dgemm(eq9)") == "blas3"
        assert blas_level("clv:dgemv") == "blas2"
        assert blas_level("clv:dsymv") == "blas2"
        assert blas_level("eigh(dsyevr)") == "lapack"
        assert blas_level("clv:einsum-matvec") == "nonblas"

    def test_by_level_and_fraction(self):
        counter = FlopCounter()
        counter.add("expm:dsyrk", 600)
        counter.add("clv:dsymm", 300)
        counter.add("clv:dgemv", 100)
        assert counter.by_level == {"blas3": 900, "blas2": 100}
        assert counter.blas3_fraction == 0.9
        assert "BLAS-3 FRACTION" in counter.summary()
        assert "[blas3]" in counter.summary()

    def test_empty_counter_fraction_zero(self):
        assert FlopCounter().blas3_fraction == 0.0

    def test_batched_run_raises_blas3_fraction(
        self, small_tree, small_sim, h1_model, bsm_values
    ):
        def fraction(engine_name):
            counter = FlopCounter()
            engine = make_engine(engine_name, counter=counter)
            bound = engine.bind(small_tree, small_sim.alignment, h1_model)
            bound.log_likelihood(bsm_values)
            return counter.blas3_fraction

        # The paper's prototype kernel (slim: per-site dgemv) is
        # BLAS-2-heavy; the slim-v2 pipeline pushes the executed
        # arithmetic into dsyrk/dsymm.
        assert fraction("slim-v2") > fraction("slim")
        assert fraction("slim-v2") > 0.5
