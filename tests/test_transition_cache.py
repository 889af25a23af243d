"""Engine transition-matrix cache: stable keying, LRU eviction, counters.

Only operators built off a Padé fallback ride the LRU; spectral ones are
rebuilt.  The cache used to be keyed by ``id(decomp)``; after the
decomposition cache evicted an entry and the object was
garbage-collected, CPython's allocator readily hands the same address to
the *next* decomposition, silently returning a stale ``P(t)`` for
different (κ, ω, scale).  The fix keys by the decomposition's ``token``
— a process-unique monotone sequence number that is never recycled.
"""

import gc

import numpy as np
import pytest

from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import (
    DecompositionCache,
    PadeFallback,
    SpectralDecomposition,
    decompose,
)
import repro.core.engine as engine_mod
from repro.core.engine import make_engine
from repro.core.expm import transition_matrix_scipy

PI = np.full(61, 1 / 61)


def _decomp(omega, kappa=2.0):
    return decompose(build_rate_matrix(kappa, omega, PI))


def _pade(omega, kappa=2.0):
    """A Padé-fallback decomposition: its operators ride the LRU."""
    return PadeFallback(q=build_rate_matrix(kappa, omega, PI).q, pi=PI)


def _clone_args(decomp):
    """Constructor kwargs reusing a decomposition's arrays (no new allocs)."""
    return dict(
        eigenvalues=decomp.eigenvalues,
        eigenvectors=decomp.eigenvectors,
        pi=decomp.pi,
        sqrt_pi=decomp.sqrt_pi,
        inv_sqrt_pi=decomp.inv_sqrt_pi,
    )


class TestTokens:
    def test_tokens_unique_and_monotone(self):
        a, b = _decomp(0.2), _decomp(0.3)
        assert a.token != b.token
        assert b.token > a.token

    def test_token_survives_identical_arrays(self):
        a = _decomp(0.2)
        clone = SpectralDecomposition(**_clone_args(a))
        assert clone.token != a.token


class TestStaleCacheRegression:
    def test_recycled_id_never_yields_stale_operator(self):
        """A garbage-collected decomposition's successor at the same
        address must not inherit its cached P(t).

        Each round drops every reference to the first decomposition
        (modelling DecompositionCache eviction of the last holder) and
        immediately constructs a different one — CPython's allocator
        then reuses the freed instance slot, so with ``id()``-keyed
        caching the second decomposition reads the first one's P(t).
        Several rounds are run because the very first allocations in a
        fresh process may not land on the recycled slot.
        """
        engine = make_engine("slim")
        t = 0.1
        gc.collect()
        for round_ in range(6):
            d1 = _pade(0.2 + 0.01 * round_)
            op1 = engine._operator_for(d1, t)
            assert np.allclose(op1, transition_matrix_scipy(d1.q, t), atol=1e-12)

            tmp = _pade(5.0 + 0.01 * round_)
            q = tmp.q
            expected = transition_matrix_scipy(q, t)
            del tmp
            del d1, op1  # last references gone: the eviction moment
            d2 = PadeFallback(q=q, pi=PI)
            op2 = engine._operator_for(d2, t)
            assert np.allclose(op2, expected, atol=1e-12), (
                f"round {round_}: stale P(t) served for a recycled "
                "decomposition id — transition cache must key by token"
            )
        gc.collect()

    def test_decomposition_cache_eviction_with_gc(self):
        """End-to-end: evicting through a maxsize-1 DecompositionCache
        plus explicit gc never corrupts cached transition matrices."""
        engine = make_engine("slim")
        engine._decomp_cache = DecompositionCache(
            maxsize=1,
            decomposer=lambda matrix, counter: PadeFallback(q=matrix.q, pi=matrix.pi),
        )
        t = 0.05
        for k in range(8):
            matrix = build_rate_matrix(2.0, 0.1 + 0.3 * k, PI)
            decomp = engine._decompose(matrix)  # evicts the previous one
            op = engine._operator_for(decomp, t)
            assert np.allclose(op, transition_matrix_scipy(matrix.q, t), atol=1e-12)
            del decomp, op
            gc.collect()


class TestLRUEviction:
    def test_hit_and_miss_counters(self):
        engine = make_engine("slim")
        d = _pade(0.2)
        engine._operator_for(d, 0.1)
        engine._operator_for(d, 0.1)
        engine._operator_for(d, 0.2)
        assert engine.counters["transition_hits"] == 1
        assert engine.counters["transition_misses"] == 2

    def test_lru_keeps_hot_entries(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "TRANSITION_CACHE_SIZE", 2)
        engine = make_engine("slim")
        d = _pade(0.2)
        engine._operator_for(d, 0.1)  # miss -> {0.1}
        engine._operator_for(d, 0.2)  # miss -> {0.1, 0.2}
        engine._operator_for(d, 0.1)  # hit, refreshes 0.1
        engine._operator_for(d, 0.3)  # miss, evicts the cold 0.2
        engine._operator_for(d, 0.1)  # hit: hot entry survived eviction
        assert engine.counters["transition_hits"] == 2
        engine._operator_for(d, 0.2)  # miss: 0.2 was the LRU victim
        assert engine.counters["transition_misses"] == 4
        assert len(engine._transition_cache) == 2

    def test_eviction_is_incremental_not_full_clear(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "TRANSITION_CACHE_SIZE", 4)
        engine = make_engine("slim")
        d = _pade(0.2)
        for k in range(8):
            engine._operator_for(d, 0.01 * (k + 1))
        # A full clear() would leave 1 entry; LRU keeps the cache full.
        assert len(engine._transition_cache) == 4

    def test_cache_disabled_keeps_counters_at_zero(self):
        # Spectral operators bypass the LRU entirely.
        engine = make_engine("slim")
        d = _decomp(0.2)
        engine._operator_for(d, 0.1)
        engine._operator_for(d, 0.1)
        assert engine.counters["transition_hits"] == 0
        assert engine.counters["transition_misses"] == 0
        assert len(engine._transition_cache) == 0


class TestCacheStats:
    def test_stats_exposed_for_metrics(self):
        engine = make_engine("slim")
        d = _pade(0.2)
        engine._operator_for(d, 0.1)
        engine._operator_for(d, 0.1)
        stats = engine.cache_stats()
        assert stats["transition_hits"] == 1
        assert stats["transition_misses"] == 1
        assert stats["transition_size"] == 1
        assert "decomposition_hits" in stats
        assert "decomposition_misses" in stats

    def test_stats_of_a_fresh_engine(self):
        # Every engine owns a decomposition cache: its counters are
        # reported from the start, at zero like the transition LRU's.
        stats = make_engine("slim").cache_stats()
        assert stats["decomposition_hits"] == stats["decomposition_misses"] == 0
        assert stats["decomposition_size"] == 0
        assert stats["transition_misses"] == 0
