"""Likelihood engines: agreement, evaluation-scoped state, accounting, binding."""

import gc
import os
import re
import weakref

import numpy as np
import pytest

from repro.alignment.patterns import compress_patterns
import repro.core.engine as engine_mod
from repro.core.engine import (
    COUNTER_KEYS,
    BaselineEngine,
    SlimEngine,
    SlimV2Engine,
    make_engine,
)
from repro.core.flops import FlopCounter

ENGINE_NAMES = ("codeml", "slim", "slim-v2")


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("codeml", BaselineEngine),
            ("slim", SlimEngine),
            ("slim-v2", SlimV2Engine),
        ],
    )
    def test_names(self, name, cls):
        assert isinstance(make_engine(name), cls)

    def test_unknown(self):
        # Only the engines' own names resolve.
        for name in ("warp-drive", "baseline", "slimcodeml", "slimv2"):
            with pytest.raises(ValueError, match="unknown engine"):
                make_engine(name)


class TestEngineAgreement:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_bsm_likelihood_matches_baseline(self, name, small_tree, small_sim, h1_model, bsm_values):
        reference = make_engine("codeml").bind(small_tree, small_sim.alignment, h1_model)
        lnl_ref = reference.log_likelihood(bsm_values)
        bound = make_engine(name).bind(small_tree, small_sim.alignment, h1_model)
        lnl = bound.log_likelihood(bsm_values)
        # The paper's accuracy metric D (§IV-1): near machine precision here.
        assert abs(lnl - lnl_ref) / abs(lnl_ref) < 1e-12

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_h0_likelihood_agreement(self, name, small_tree, small_sim, h0_model, bsm_values):
        values = {k: bsm_values[k] for k in h0_model.param_names}
        reference = make_engine("codeml").bind(small_tree, small_sim.alignment, h0_model)
        bound = make_engine(name).bind(small_tree, small_sim.alignment, h0_model)
        assert bound.log_likelihood(values) == pytest.approx(
            reference.log_likelihood(values), rel=1e-12
        )


class TestBinding:
    def test_taxon_mismatch_rejected(self, small_tree, small_sim, h1_model):
        bad = small_sim.alignment.subset_taxa(["A", "B", "C", "D"])
        with pytest.raises(ValueError, match="taxa differ"):
            make_engine("slim").bind(small_tree, bad, h1_model)

    def test_pattern_alignment_requires_pi(self, small_tree, small_sim, h1_model):
        patterns = compress_patterns(small_sim.alignment)
        with pytest.raises(ValueError, match="pi explicitly"):
            make_engine("slim").bind(small_tree, patterns, h1_model)

    def test_pattern_alignment_with_pi(self, small_tree, small_sim, h1_model, bsm_values):
        patterns = compress_patterns(small_sim.alignment)
        pi = np.full(61, 1 / 61)
        via_patterns = make_engine("slim").bind(small_tree, patterns, h1_model, pi=pi)
        via_alignment = make_engine("slim").bind(
            small_tree, small_sim.alignment, h1_model, pi=pi
        )
        assert via_patterns.log_likelihood(bsm_values) == pytest.approx(
            via_alignment.log_likelihood(bsm_values)
        )

    def test_freq_method_changes_pi(self, small_tree, small_sim, h1_model):
        b_f3x4 = make_engine("slim").bind(small_tree, small_sim.alignment, h1_model)
        b_equal = make_engine("slim").bind(
            small_tree, small_sim.alignment, h1_model, freq_method="equal"
        )
        assert not np.allclose(b_f3x4.pi, b_equal.pi)

    def test_branch_length_interface(self, small_tree, small_sim, h1_model, bsm_values):
        bound = make_engine("slim").bind(small_tree, small_sim.alignment, h1_model)
        assert bound.n_branches == small_tree.n_branches
        lnl_a = bound.log_likelihood(bsm_values)
        bound.set_branch_lengths(np.full(bound.n_branches, 0.2))
        lnl_b = bound.log_likelihood(bsm_values)
        assert lnl_a != lnl_b
        with pytest.raises(ValueError):
            bound.set_branch_lengths(np.full(bound.n_branches, -1.0))
        with pytest.raises(ValueError):
            bound.set_branch_lengths(np.ones(2))

    def test_evaluation_counter(self, small_tree, small_sim, h1_model, bsm_values):
        bound = make_engine("slim").bind(small_tree, small_sim.alignment, h1_model)
        bound.log_likelihood(bsm_values)
        bound.log_likelihood(bsm_values)
        assert bound.n_evaluations == 2


class TestEvaluationScopedState:
    """Decompositions and operators live exactly as long as the
    evaluation that made them; nothing carries over to the next one."""

    def test_one_decomposition_per_distinct_omega(
        self, small_tree, small_sim, h1_model, bsm_values, monkeypatch
    ):
        # The benchmark tracer counts ``eigen.calls`` as the spans of this
        # very name, so it must be called once per distinct ω and no more.
        calls = []
        real = engine_mod.decompose_guarded

        def counting(matrix, **kwargs):
            calls.append(matrix.omega)
            return real(matrix, **kwargs)

        monkeypatch.setattr(engine_mod, "decompose_guarded", counting)
        bound = make_engine("slim").bind(small_tree, small_sim.alignment, h1_model)
        bound.log_likelihood(bsm_values)
        distinct = {bsm_values["omega0"], 1.0, bsm_values["omega2"]}
        assert sorted(calls) == sorted(distinct)
        # A repeat at the same point decomposes again: no cross-evaluation reuse.
        bound.log_likelihood(bsm_values)
        assert sorted(calls) == sorted(2 * list(distinct))

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_state_dies_with_its_evaluation(
        self, name, small_tree, small_sim, h1_model, bsm_values
    ):
        bound = make_engine(name).bind(small_tree, small_sim.alignment, h1_model)
        bound.log_likelihood(bsm_values)
        ev = bound._last
        refs = [weakref.ref(d) for d in ev.decomps.values()]
        # A stacked build's operators are column-block views of one buffer.
        matrices = [
            op[0] if isinstance(op, tuple) else op
            for operators in ev.opsets.values()
            for op in operators.values()
        ]
        refs += [weakref.ref(m.base) for m in matrices if m.base is not None]
        del matrices
        del ev
        bound.log_likelihood(dict(bsm_values, omega0=0.5))
        assert refs and all(ref() is None for ref in refs)

    def test_repeated_pade_evaluation_rebuilds(
        self, small_tree, small_sim, h1_model, bsm_values, pade_decompositions
    ):
        engine = SlimEngine()
        bound = engine.bind(small_tree, small_sim.alignment, h1_model)
        first = bound.log_likelihood(bsm_values)
        builds_one = engine.counters["rung_pade"]
        assert builds_one == engine.counters["operator_builds"] > 0
        assert engine.counters["expm_s"] > 0
        assert bound.log_likelihood(bsm_values) == first
        assert engine.counters["rung_pade"] == 2 * builds_one


class TestCachingAndAccounting:
    def test_flop_split_reported(self, small_tree, small_sim, h1_model, bsm_values):
        counter = FlopCounter()
        engine = SlimEngine(counter=counter)
        engine.bind(small_tree, small_sim.alignment, h1_model).log_likelihood(bsm_values)
        assert "expm:dsyrk" in counter.by_operation
        assert "clv:dgemv" in counter.by_operation
        assert counter.total_flops > 0

    def test_phase_seconds_counters(self, small_tree, small_sim, h1_model, bsm_values):
        engine = make_engine("slim")
        engine.bind(small_tree, small_sim.alignment, h1_model).log_likelihood(bsm_values)
        assert engine.counters["expm_s"] > 0
        assert engine.counters["clv_s"] > 0
        assert engine.counters["eigh_s"] > 0

    def test_expm_count_matches_paper_model(self, small_tree, small_sim, h1_model, bsm_values):
        # Per evaluation: background branches need P(w0), P(w1);
        # the foreground branch needs P(w0), P(w1), P(w2) — but distinct
        # (omega, t) pairs are shared across classes (operator memo).
        engine = make_engine("slim")
        bound = engine.bind(small_tree, small_sim.alignment, h1_model)
        bound.log_likelihood(bsm_values)
        n_branches = small_tree.n_branches
        expected = 2 * (n_branches - 1) + 3  # distinct (omega, t) pairs
        assert engine.counters["operator_builds"] == expected
        assert engine.counters["rung_evr"] == expected


#: The benchmark tracer's reader of ``cache_stats()`` (it sums every
#: engine's stats under a ``cache.`` prefix).
SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "clibench", "spans.py")


#: Tracer keys whose caches are gone: absent, so the tracer reads 0 hits
#: and counts ``eigen.calls`` from its ``eigen.decompose`` spans.
REMOVED_CACHE_KEYS = {
    "decomposition_hits", "decomposition_misses",
    "transition_hits", "transition_misses",
}


class TestCounterMap:
    """``counters`` is the one place engine code writes counts, and
    ``cache_stats()`` is a copy of it holding every key the benchmark
    tracer reads but the removed caches'."""

    @staticmethod
    def _tracer_keys():
        with open(SPANS_PY, encoding="utf-8") as handle:
            source = handle.read()
        exact = set(re.findall(r'c\["cache\.(\w+)"\]', source))
        prefixes = set(re.findall(r'startswith\("cache\.(\w+)"\)', source))
        # Pinned, so a rename on either side fails here instead of
        # silently zeroing a per-layer benchmark metric.
        assert exact == {
            "decomposition_hits", "decomposition_misses",
            "transition_hits", "transition_misses",
            "clv_propagations", "clv_reuses",
        }
        assert prefixes == {"rung_"}
        return exact, prefixes

    def test_fresh_engine_has_every_tracer_key(self):
        exact, _ = self._tracer_keys()
        engine = make_engine("slim-v2")
        stats = engine.cache_stats()
        assert stats == engine.counters and stats is not engine.counters
        live = (exact - REMOVED_CACHE_KEYS) | set(COUNTER_KEYS)
        assert live <= set(stats)
        assert not REMOVED_CACHE_KEYS & set(stats)
        assert all(stats[key] == 0 for key in live)

    def test_fit_fills_every_tracer_key(self, small_tree, small_sim, h1_model):
        from repro.optimize.ml import fit_branch_site_test

        exact, prefixes = self._tracer_keys()
        engine = make_engine("slim-v2")
        # The H0+H1 pair a user runs.
        fit_branch_site_test(
            lambda m: engine.bind(small_tree, small_sim.alignment, m),
            seed=1, max_iterations=2,
        )
        stats = engine.cache_stats()
        assert exact - REMOVED_CACHE_KEYS <= set(stats)
        assert not REMOVED_CACHE_KEYS & set(stats)
        for key in ("clv_propagations", "clv_reuses"):
            assert stats[key] > 0, key
        (prefix,) = prefixes
        assert stats[f"{prefix}evr"] == stats["operator_builds"] > 0


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_dropped_engine_freed_by_refcount(name):
    # A scan builds one (guarded) engine per task; nothing may tie
    # the engine into a reference cycle, or every finished task's engine
    # would live until a gen-2 collection.
    gc.collect()
    gc.disable()
    try:
        engine = make_engine(name)
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()
