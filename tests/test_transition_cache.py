"""Branch operators carry no identity-keyed state across builds.

The engines once cached Padé-built operators under a key derived from
the decomposition (first ``id()``, later a process-unique token).  A key
that outlives the object it names can alias a new decomposition onto a
stale ``P(t)``.  Operators are now built per evaluation and never cached,
so no key exists; these tests keep the aliasing scenarios as regressions
and pin what ``cache_stats()`` reports.
"""

import gc

import numpy as np

from repro.codon.matrix import build_rate_matrix
from repro.core.eigen import PadeFallback
from repro.core.engine import COUNTER_KEYS, make_engine
from repro.core.expm import transition_matrix_scipy

PI = np.full(61, 1 / 61)


def _pade(omega, kappa=2.0):
    """A Padé-fallback decomposition: its operators are built per branch."""
    return PadeFallback(q=build_rate_matrix(kappa, omega, PI).q, pi=PI)


def _operator(engine, decomp, t):
    return engine.build_operator_set(decomp, [t])[t]


class TestStaleCacheRegression:
    def test_recycled_id_never_yields_stale_operator(self):
        """A garbage-collected decomposition's successor at the same
        address must not inherit its ``P(t)``.

        Each round drops every reference to the first decomposition and
        immediately constructs a different one — CPython's allocator
        then reuses the freed instance slot, so any ``id()``-keyed reuse
        would hand the second decomposition the first one's ``P(t)``.
        Several rounds are run because the very first allocations in a
        fresh process may not land on the recycled slot.
        """
        engine = make_engine("slim")
        t = 0.1
        gc.collect()
        for round_ in range(6):
            d1 = _pade(0.2 + 0.01 * round_)
            op1 = _operator(engine, d1, t)
            assert np.allclose(op1, transition_matrix_scipy(d1.q, t), atol=1e-12)

            tmp = _pade(5.0 + 0.01 * round_)
            q = tmp.q
            expected = transition_matrix_scipy(q, t)
            del tmp
            del d1, op1  # last references gone
            d2 = PadeFallback(q=q, pi=PI)
            op2 = _operator(engine, d2, t)
            assert np.allclose(op2, expected, atol=1e-12), (
                f"round {round_}: stale P(t) served for a recycled decomposition id"
            )
        gc.collect()

    def test_collected_decompositions_never_corrupt_operators(self, pade_decompositions):
        """Decompositions dropped and collected between builds never
        corrupt a later operator."""
        engine = make_engine("slim")
        t = 0.05
        for k in range(8):
            matrix = build_rate_matrix(2.0, 0.1 + 0.3 * k, PI)
            decomp = engine._decompose(matrix)
            assert isinstance(decomp, PadeFallback)
            op = _operator(engine, decomp, t)
            assert np.allclose(op, transition_matrix_scipy(matrix.q, t), atol=1e-12)
            del decomp, op
            gc.collect()


class TestCacheStats:
    def test_stats_exposed_for_metrics(self):
        engine = make_engine("slim")
        d = _pade(0.2)
        _operator(engine, d, 0.1)
        _operator(engine, d, 0.1)
        stats = engine.cache_stats()
        # Both requests are built: there is no operator cache to hit.
        assert stats["rung_pade"] == 2
        assert stats["expm_s"] > 0
        assert stats == engine.counters
        for key in ("transition_hits", "transition_misses", "transition_size",
                    "decomposition_hits", "decomposition_misses", "decomposition_size"):
            assert key not in stats

    def test_stats_of_a_fresh_engine(self):
        stats = make_engine("slim").cache_stats()
        assert stats == dict.fromkeys(COUNTER_KEYS, 0)
