"""Likelihood engines: CodeML-comparator, SlimCodeML, and Slim-v2.

The three engines share *everything* — tree handling, pattern
compression, pruning, mixture combination, rate normalisation, the
optimizer — and differ only in the §II-C kernels, mirroring the paper's
single-variable comparison:

=============  ======================  ==========================  =================
engine         eigensolver             P(t) reconstruction          CLV propagation
=============  ======================  ==========================  =================
``baseline``   ``dsyev`` (QL, the      Eq. 9 left-to-right via     per-site non-BLAS
(CodeML)       classic EISPACK-style   non-BLAS ``einsum``          matvec
               method CodeML's C       (≈2n³, untuned loops)
               code implements)
``slim``       ``dsyevr`` (MRRR,       Eq. 10–11 ``dsyrk``          per-site ``dgemv``
(SlimCodeML)   §III-A step 2)          (≈n³)
``slim-v2``    ``dsyevr``              Eq. 12–13 symmetric          bundled ``dsymm``
(extension)                            branch matrix ``ŶŶᵀ``        on Π-scaled CLVs
                                                                    (BLAS-3, §III-B)
=============  ======================  ==========================  =================

See DESIGN.md §4–5 for why ``einsum`` models CodeML v4.4c (which contains
no BLAS — its products are hand-written portable C loops).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg.blas import dgemv, dsymm, dsymv

from repro.alignment.msa import CodonAlignment
from repro.alignment.patterns import PatternAlignment, compress_patterns
from repro.codon.frequencies import estimate_codon_frequencies
from repro.codon.genetic_code import GeneticCode, UNIVERSAL
from repro.codon.matrix import CodonRateMatrix
from repro.core.eigen import (
    DecompositionCache,
    PadeFallback,
    SpectralDecomposition,
    decompose_guarded,
)
from repro.core.expm import (
    stacked_symmetric_operators,
    stacked_syrk_operators,
    symmetric_branch_matrix,
    transition_matrix_einsum,
    transition_matrix_scipy,
    transition_matrix_syrk,
)
from repro.core.recovery import (
    TRANSITION_CACHE_SIZE,
    UNIFORMIZATION_TOL,
    NumericalError,
    NumericalEventRecorder,
    PruningGuard,
    guard_symmetric_operator,
    guard_transition_matrix,
    screen_operator_stack,
)
from repro.core.uniformization import UniformizedOperator
from repro.core.flops import (
    FlopCounter,
    gemv_flops,
    symm_flops,
    symv_flops,
)
from repro.likelihood.mixture import (
    check_finite_site_log_likelihoods,
    class_posteriors,
    mixture_log_likelihood,
    site_class_log_likelihoods,
)
from repro.likelihood.pruning import (
    PruningResult,
    PruningState,
    build_leaf_clvs,
    build_level_schedule,
    compute_recompute_rows,
    prune_site_class_batched,
)
from repro.models.base import CodonSiteModel, SiteClass
from repro.models.class_graph import ClassPlan, SiteClassGraph
from repro.models.scaling import build_class_matrices
from repro.trees.tree import Tree

__all__ = [
    "LikelihoodEngine",
    "BaselineEngine",
    "SlimEngine",
    "SlimV2Engine",
    "BatchedOperatorSet",
    "BoundLikelihood",
    "ClassEvaluation",
    "make_engine",
]


#: Keys every engine's :attr:`~LikelihoodEngine.counters` starts with
#: (DESIGN.md §8 says which code writes each).  ``rung_<name>`` keys
#: join on first use; ``*_s`` keys are seconds.
COUNTER_KEYS = (
    "transition_hits",
    "transition_misses",
    "clv_propagations",
    "clv_reuses",
    "operator_builds",
    "operator_build_saves",
    "operator_builds_naive",
    "eigh_s",
    "expm_s",
    "clv_s",
    "gradient_passes",
    "gradient_s",
    "derivative_builds",
)


def _decompose_guarded(matrix, counter, driver, recorder):
    """The recovery ladder's decomposer, looked up at call time."""
    return decompose_guarded(matrix, driver=driver, counter=counter, recorder=recorder)


class BatchedOperatorSet:
    """All branch operators of one ω class, possibly backed by one stack.

    ``stack`` is the frozen F-ordered ``(n, n·B)`` buffer from a stacked
    build (``None`` when the operators were built per branch — Padé
    fallback decompositions or engines without a stacked kernel).  Each
    entry of ``operators`` (keyed by branch length) is then a zero-copy,
    read-only, F-contiguous column-block view of the stack, packaged in
    the engine's operator form.
    """

    __slots__ = ("operators", "stack")

    def __init__(self, operators: Dict[float, object], stack: Optional[np.ndarray] = None):
        self.operators = operators
        self.stack = stack

    def view(self, t: float) -> object:
        """The operator for branch length ``t`` (KeyError if unplanned)."""
        return self.operators[float(t)]

    def __len__(self) -> int:
        return len(self.operators)

    def __contains__(self, t: object) -> bool:
        return float(t) in self.operators


class LikelihoodEngine:
    """Abstract engine: owns the kernels and cross-evaluation caches.

    Parameters
    ----------
    code:
        Genetic code (61-state universal by default).
    counter:
        Optional :class:`FlopCounter` accumulating analytic flops.

    Every count the engine makes lands in :attr:`counters`, one flat
    map (DESIGN.md §8 lists its keys): cache hits and misses, CLV
    propagations and reuses, the operator-build ledger, one
    ``rung_<name>`` entry per ladder rung that built operators, the
    seconds spent in the ``eigh``/``expm``/``clv`` phases, and the
    branch-gradient pass (``gradient_passes``, inclusive ``gradient_s``,
    and ``derivative_builds``, kept out of the forward build ledger).

    Every engine runs guarded (DESIGN.md §8): decompositions go through
    the eigensolver fallback ladder (``evr`` → ``ev`` → per-branch Padé
    ``expm`` → uniformization) and are reused across evaluations with
    unchanged (κ, ω, scale) — the per-ω reuse CodeML itself performs;
    every branch operator is screened and, when flagged, guarded; CLVs
    and per-class site log-likelihoods are checked during pruning.
    Every trigger is recorded on :attr:`events`.  Operators built off a
    Padé fallback ride an LRU of
    :data:`~repro.core.recovery.TRANSITION_CACHE_SIZE` entries; spectral
    operators never do: CodeML v4.4c recomputes P per evaluation, and
    the paper's cost model assumes one expm per branch per iteration.
    """

    name = "abstract"
    eigh_driver = "evr"

    def __init__(
        self,
        code: GeneticCode = UNIVERSAL,
        counter: Optional[FlopCounter] = None,
    ) -> None:
        self.code = code
        self.counter = counter
        #: The one counter map; rung keys appear on first use.
        self.counters: Dict[str, float] = dict.fromkeys(COUNTER_KEYS, 0)
        #: Structured numerical-event stream.
        self.events = NumericalEventRecorder()
        # A partial over plain values, not a closure over ``self``: the
        # decomposition cache holds the decomposer, so closing over the
        # engine would make a reference cycle that keeps every finished
        # task's engine (and its caches) alive until a gen-2 collection.
        self._decomp_cache = DecompositionCache(
            maxsize=16,
            decomposer=partial(
                _decompose_guarded, driver=self.eigh_driver, recorder=self.events
            ),
        )
        # Keyed by (decomposition token, t).  The token is the
        # process-unique sequence number on the decomposition — NOT
        # id(): after the decomposition cache evicts and the object is
        # collected, a recycled id would silently alias a fresh
        # decomposition onto a stale P(t).
        self._transition_cache: "OrderedDict[Tuple[int, float], object]" = OrderedDict()
        #: Rung 4 state: one reusable uniformized kernel per
        #: decomposition token (powers of R shared across branch lengths).
        self._uniformized: Dict[int, UniformizedOperator] = {}

    # ------------------------------------------------------------------
    # Kernel hooks (overridden per engine)
    # ------------------------------------------------------------------
    def _build_operator(self, decomp: SpectralDecomposition, t: float) -> object:
        """Branch operator for length ``t`` (a P matrix or symmetric M)."""
        raise NotImplementedError

    def _propagate(self, operator: object, clv: np.ndarray) -> np.ndarray:
        """Apply a branch operator to an ``(n_states, n_patterns)`` CLV."""
        raise NotImplementedError

    def _wrap_probability_matrix(self, p: np.ndarray, pi: np.ndarray) -> object:
        """Package a dense ``P(t)`` as this engine's operator type.

        The Padé fallback rung produces a plain probability matrix; the
        P-propagating engines use it as-is, while ``slim-v2`` overrides
        this to rebuild its symmetric operator form.
        """
        return p

    def _guard_operator(self, operator: object, t: float) -> object:
        """Reconstruction guards on a freshly built branch operator."""
        return guard_transition_matrix(operator, self.events, t=t, engine=self.name)

    def _screen_stack(self, stack: np.ndarray, decomp) -> np.ndarray:
        """Blocks of a freshly built stack that :meth:`_guard_operator` must see."""
        return screen_operator_stack(stack, np.ones(decomp.n_states), stochastic=True)

    # ------------------------------------------------------------------
    # Batched-evaluation hooks (DESIGN.md §10)
    # ------------------------------------------------------------------
    def _build_operator_stack(
        self, decomp: SpectralDecomposition, ts: Sequence[float]
    ) -> Optional[np.ndarray]:
        """F-ordered ``(n, n·B)`` stack of branch operators for ``ts``.

        Column block b must equal :meth:`_build_operator` for ``ts[b]``
        bit for bit.  ``None`` (default) means this engine has no
        stacked kernel; the batched driver falls back to per-branch
        builds (the baseline einsum engine, for instance, still gains
        the planning/level amortisation without a stacked build).
        """
        return None

    def _operator_from_view(self, view: np.ndarray, decomp) -> object:
        """Package one column-block view of a stack as an operator."""
        return view

    def _operator_probability_matrix(self, operator: object) -> np.ndarray:
        """Dense ``P(t)`` from this engine's operator representation.

        The mapping sampler needs plain transition probabilities; it
        reads them off the evaluation's operator sets through this
        hook.  P-propagating engines hold ``P`` directly.
        """
        return operator

    def _propagate_level(
        self, items: Sequence[Tuple[object, np.ndarray]]
    ) -> List[np.ndarray]:
        """Propagate every (operator, child CLV) pair of one tree level.

        Default: the per-branch kernel in sequence.  Engines with a
        fused level kernel override this; results must stay bit-identical
        to per-item :meth:`_propagate` calls.
        """
        return [self._propagate(op, clv) for op, clv in items]

    def build_operator_set(
        self, decomp, ts: Sequence[float]
    ) -> BatchedOperatorSet:
        """Build (and guard) the operators of one decomposition for ``ts``.

        The stacked path screens the whole stack in one vectorised pass
        and runs the per-operator guard only on the blocks the screen
        flags — the same events and repairs as guarding every block
        (:func:`~repro.core.recovery.screen_operator_stack`).  Guards
        repair in place, so they run *before* the stack is frozen; the
        public views are then created from the frozen buffer, read-only.
        """
        ts = [float(t) for t in ts]
        stack = (
            None
            if isinstance(decomp, PadeFallback)
            else self._build_operator_stack(decomp, ts)
        )
        if stack is None:
            return BatchedOperatorSet({t: self._make_operator(decomp, t) for t in ts})
        n = decomp.n_states
        for b in self._screen_stack(stack, decomp):
            self._guard_operator(
                self._operator_from_view(stack[:, b * n : (b + 1) * n], decomp), ts[b]
            )
        stack.setflags(write=False)
        operators = {
            t: self._operator_from_view(stack[:, b * n : (b + 1) * n], decomp)
            for b, t in enumerate(ts)
        }
        self._note_rung(getattr(decomp, "rung", "evr"), len(ts))
        return BatchedOperatorSet(operators, stack)

    def _build_derivative_stack(
        self, decomp: SpectralDecomposition, ts: Sequence[float]
    ) -> np.ndarray:
        """F-ordered ``(n, n·B)`` stack of ``P′(t_b) = Q·P(t_b)`` operators.

        Block b is the derivative of this engine's operator for
        ``ts[b]``, in the same representation, so the unchanged
        :meth:`_propagate_level` applies it (DESIGN.md §9).
        """
        raise NotImplementedError

    def derivative_set_for(
        self, decomp, ts: Sequence[float], forward: BatchedOperatorSet
    ) -> BatchedOperatorSet:
        """Branch-length derivative operators of one decomposition.

        A spectral decomposition gets one stacked build
        (:meth:`_build_derivative_stack`).  A Padé fallback has no
        eigensystem: its forward operators came from the Padé or the
        uniformization rung, so ``P′ = Q·P(t)`` is formed from the
        repaired ``P(t)`` in ``forward``.  Derivative builds are counted
        under ``derivative_builds``, outside the forward build ledger.
        """
        ts = [float(t) for t in ts]
        self.counters["derivative_builds"] += len(ts)
        if isinstance(decomp, PadeFallback):
            return BatchedOperatorSet({
                t: self._wrap_probability_matrix(
                    decomp.q @ self._operator_probability_matrix(forward.view(t)), decomp.pi
                )
                for t in ts
            })
        stack = self._build_derivative_stack(decomp, ts)
        stack.setflags(write=False)
        n = decomp.n_states
        return BatchedOperatorSet(
            {
                t: self._operator_from_view(stack[:, b * n : (b + 1) * n], decomp)
                for b, t in enumerate(ts)
            },
            stack,
        )

    def operator_set_for(self, decomp, ts: Sequence[float]) -> BatchedOperatorSet:
        """Operators of one decomposition for every distinct ``t``.

        Spectral decompositions get one (stacked) build per call.  A
        Padé fallback has no stacked kernel, so its operators go one by
        one through :meth:`_operator_for` and its LRU.
        """
        if isinstance(decomp, PadeFallback):
            return BatchedOperatorSet({float(t): self._operator_for(decomp, t) for t in ts})
        start = time.perf_counter()
        opset = self.build_operator_set(decomp, ts)
        self.counters["expm_s"] += time.perf_counter() - start
        return opset

    # ------------------------------------------------------------------
    def _decompose(self, matrix: CodonRateMatrix):
        start = time.perf_counter()
        decomp = self._decomp_cache.get(matrix, counter=self.counter)
        self.counters["eigh_s"] += time.perf_counter() - start
        return decomp

    def _make_operator(self, decomp, t: float) -> object:
        """Build and guard one branch operator."""
        if isinstance(decomp, PadeFallback):
            try:
                p = guard_transition_matrix(
                    transition_matrix_scipy(decomp.q, t),
                    self.events, t=t, engine=self.name, path="pade",
                )
            except (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeWarning) as exc:
                # Rung 4: a failed Padé residual check degrades to the
                # uniformized kernel instead of a hard NumericalError.
                return self._recover_operator(decomp, t, exc)
            self._note_rung("pade")
            return self._wrap_probability_matrix(p, decomp.pi)
        op = self._guard_operator(self._build_operator(decomp, t), t)
        self._note_rung(getattr(decomp, "rung", "evr"))
        return op

    # ------------------------------------------------------------------
    # Rung 4: uniformized recovery (DESIGN.md §13)
    # ------------------------------------------------------------------
    def _note_rung(self, rung: str, count: int = 1) -> None:
        if count:
            key = f"rung_{rung}"
            self.counters[key] = self.counters.get(key, 0) + count

    def _uniformized_for(self, decomp) -> UniformizedOperator:
        """The per-decomposition uniformized kernel (cached R powers)."""
        uni = self._uniformized.get(decomp.token)
        if uni is None:
            q = decomp.q if isinstance(decomp, PadeFallback) else decomp.reconstruct_q()
            uni = UniformizedOperator(
                q, decomp.pi, tol=UNIFORMIZATION_TOL, counter=self.counter
            )
            self._uniformized[decomp.token] = uni
        return uni

    def _recover_operator(self, decomp, t: float, exc: BaseException) -> object:
        """Serve one branch operator from the uniformized kernel (rung 4).

        Called after a Padé-built P(t) failed its guard with ``exc``.
        Records ``uniformization_fallback``; if the uniformized P(t)
        *also* fails, emits one structured ``ladder_exhausted`` event
        carrying every rung's rejection reason and raises a matching
        :class:`NumericalError` — never the last rung's raw LAPACK/scipy
        exception.
        """
        history = [list(pair) for pair in getattr(decomp, "ladder", ())]
        history.append(["pade", str(exc)])
        try:
            uni = self._uniformized_for(decomp)
            p = guard_transition_matrix(
                uni.transition_matrix(t),
                self.events, t=t, engine=self.name, path="uniformization",
            )
        except (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeWarning) as last:
            history.append(["uniformization", str(last)])
            detail = "; ".join(f"{rung}: {why}" for rung, why in history)
            self.events.record(
                "ladder_exhausted", "expm", detail,
                t=float(t), engine=self.name, rungs_failed=len(history),
            )
            raise NumericalError(
                f"every recovery rung failed for P(t={float(t):g}) — {detail}",
                where="expm",
                context={"t": float(t), "engine": self.name, "rungs": detail},
            ) from last
        self.events.record(
            "uniformization_fallback", "expm",
            f"pade P(t) guard failed ({exc}); served by uniformized kernel",
            t=float(t), path="pade", mu=float(uni.mu), engine=self.name,
        )
        self._note_rung("uniformization")
        return self._wrap_probability_matrix(p, decomp.pi)

    def _timed_operator(self, decomp, t: float) -> object:
        start = time.perf_counter()
        op = self._make_operator(decomp, t)
        self.counters["expm_s"] += time.perf_counter() - start
        return op

    def _operator_for(self, decomp, t: float) -> object:
        """One branch operator, through the LRU when ``decomp`` is Padé.

        Each Padé build is a full scipy ``expm`` (orders costlier than a
        spectral rescale), and :class:`DecompositionCache` hands back the
        *same* ``PadeFallback`` per (κ, ω), so its token is stable across
        gradient probes.  Rung-4 results built for a failed Padé step are
        cached under the same key.  Spectral operators are rebuilt.
        """
        if not isinstance(decomp, PadeFallback):
            return self._timed_operator(decomp, t)
        key = (decomp.token, float(t))
        op = self._transition_cache.get(key)
        if op is not None:
            self.counters["transition_hits"] += 1
            self._transition_cache.move_to_end(key)
            return op
        self.counters["transition_misses"] += 1
        op = self._timed_operator(decomp, t)
        self._transition_cache[key] = op
        # LRU eviction: drop the coldest entry, never the whole
        # working set (a full clear() thrashes the hot branches).
        while len(self._transition_cache) > TRANSITION_CACHE_SIZE:
            self._transition_cache.popitem(last=False)
        return op

    def cache_stats(self) -> Dict[str, float]:
        """:attr:`counters` plus the caches' own sizes and hit/miss counts.

        The decomposition cache and the uniformized kernels keep their
        counts themselves; they are read here, under ``decomposition_*``
        and ``uniformized_*``, next to the engine's counter map.
        """
        stats = dict(self.counters)
        stats["transition_size"] = len(self._transition_cache)
        stats["decomposition_hits"] = self._decomp_cache.hits
        stats["decomposition_misses"] = self._decomp_cache.misses
        stats["decomposition_size"] = len(self._decomp_cache)
        if self._uniformized:
            # Rung-4 / mapping kernel reuse: R-power products actually
            # run vs served from the per-decomposition caches, and the
            # endpoint-conditioned histories drawn off those kernels.
            kernels = list(self._uniformized.values())
            stats["uniformized_kernels"] = len(kernels)
            stats["uniformized_power_builds"] = sum(u.power_builds for u in kernels)
            stats["uniformized_power_hits"] = sum(u.power_hits for u in kernels)
            stats["uniformized_draws_served"] = sum(u.draws_served for u in kernels)
        return stats

    # ------------------------------------------------------------------
    def bind(
        self,
        tree: Tree,
        data: Union[CodonAlignment, PatternAlignment],
        model: CodonSiteModel,
        pi: Optional[np.ndarray] = None,
        freq_method: str = "f3x4",
        leaf_clvs: Optional[Sequence[np.ndarray]] = None,
    ) -> "BoundLikelihood":
        """Bind this engine to a (tree, alignment, model) problem.

        ``pi`` defaults to the CodeML-style empirical estimate
        (``freq_method``, default F3x4) computed from the *uncompressed*
        alignment.  ``leaf_clvs``
        (indexed by leaf node index, as :func:`build_leaf_clvs` returns)
        lets several bindings over the *same* (topology, pattern
        alignment) — e.g. the scan mapper's per-candidate foreground
        marks — share one leaf-CLV build instead of redoing it per
        binding; the caller guarantees the leaf order matches
        ``tree.leaf_names()``.
        """
        if isinstance(data, PatternAlignment):
            patterns = data
            if pi is None:
                raise ValueError(
                    "pass pi explicitly when binding a pre-compressed PatternAlignment"
                )
        else:
            if pi is None:
                # Gap ('---') and ambiguous ('NNN') codons are skipped by
                # the estimators themselves.
                pi = estimate_codon_frequencies(
                    data.to_sequences(), method=freq_method, code=self.code
                )
            patterns = compress_patterns(data)
        return BoundLikelihood(
            self, tree, patterns, model, np.asarray(pi, dtype=float),
            leaf_clvs=leaf_clvs,
        )


class BaselineEngine(LikelihoodEngine):
    """The CodeML v4.4c comparator (see module docstring)."""

    name = "codeml"
    eigh_driver = "ev"

    def _build_operator(self, decomp: SpectralDecomposition, t: float) -> np.ndarray:
        return transition_matrix_einsum(decomp, t, counter=self.counter)

    def _build_derivative_stack(
        self, decomp: SpectralDecomposition, ts: Sequence[float]
    ) -> np.ndarray:
        # No stacked kernel: the Eq. 9 contraction per branch, laid into
        # the column blocks of one buffer.
        n = decomp.n_states
        stack = np.empty((n, n * len(ts)), order="F")
        for b, t in enumerate(ts):
            stack[:, b * n : (b + 1) * n] = transition_matrix_einsum(
                decomp, t, counter=self.counter, derivative=True
            )
        return stack

    def _propagate(self, operator: np.ndarray, clv: np.ndarray) -> np.ndarray:
        n, n_patterns = clv.shape
        out = np.empty_like(clv, order="F")
        for p in range(n_patterns):
            np.einsum("ij,j->i", operator, clv[:, p], out=out[:, p], optimize=False)
        if self.counter is not None:
            self.counter.add("clv:einsum-matvec", n_patterns * gemv_flops(n, n),
                             reads=n_patterns * n * n)
        return out


class SlimEngine(LikelihoodEngine):
    """SlimCodeML as evaluated in the paper: dsyrk expm + per-site dgemv.

    The §III-B bundling the paper describes but left out of its
    evaluated prototype is ``slim-v2``'s; E-K2 measures it on the raw
    kernels (``benchmarks/bench_clv_bundling.py``).
    """

    name = "slim"
    eigh_driver = "evr"

    def _build_operator(self, decomp: SpectralDecomposition, t: float) -> np.ndarray:
        # Fortran layout once at build time: every per-pattern dgemv then
        # takes the operator as-is, instead of re-deriving a BLAS-ready
        # operand on each CLV application.
        return np.asfortranarray(transition_matrix_syrk(decomp, t, counter=self.counter))

    def _wrap_probability_matrix(self, p: np.ndarray, pi: np.ndarray) -> np.ndarray:
        return np.asfortranarray(p)

    def _propagate(self, operator: np.ndarray, clv: np.ndarray) -> np.ndarray:
        n, n_patterns = clv.shape
        out = np.empty_like(clv, order="F")
        for p in range(n_patterns):
            # Writing straight into the F-contiguous output column skips
            # the per-site result allocation + copy-back of `out[:, p] = ...`.
            dgemv(1.0, operator, clv[:, p], beta=0.0, y=out[:, p], overwrite_y=1)
        if self.counter is not None:
            self.counter.add("clv:dgemv", n_patterns * gemv_flops(n, n),
                             reads=n_patterns * n * n)
        return out

    def _build_operator_stack(
        self, decomp: SpectralDecomposition, ts: Sequence[float]
    ) -> np.ndarray:
        return stacked_syrk_operators(decomp, ts, counter=self.counter)

    def _build_derivative_stack(
        self, decomp: SpectralDecomposition, ts: Sequence[float]
    ) -> np.ndarray:
        return stacked_syrk_operators(decomp, ts, counter=self.counter, derivative=True)


class SlimV2Engine(LikelihoodEngine):
    """Eq. 12–13 + §III-B bundling: symmetric branch matrices, BLAS-3 CLVs.

    The branch operator is the symmetric ``M = Ŷ Ŷᵀ`` with
    ``P(t)·w = M·(Πw)``; propagation Π-scales the child CLV (O(n) per
    pattern) and applies one ``dsymm`` over all patterns (or per-site
    ``dsymv`` when ``bundled=False``).
    """

    name = "slim-v2"
    eigh_driver = "evr"

    def __init__(self, *args, bundled: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bundled = bundled

    def _build_operator(self, decomp: SpectralDecomposition, t: float) -> tuple:
        # M is exactly symmetric by construction (lower + lowerᵀ), so the
        # Fortran relayout at build time changes which triangle dsymm
        # reads but not a single value — and drops the per-application
        # transpose-view/relayout work from the hot path.
        m = symmetric_branch_matrix(decomp, t, counter=self.counter)
        return (np.asfortranarray(m), decomp.pi)

    def _wrap_probability_matrix(self, p: np.ndarray, pi: np.ndarray) -> tuple:
        # Rebuild the symmetric form from a Padé P(t): M = P Π^{-1} is
        # symmetric in exact arithmetic; averaging with its transpose
        # removes the Padé round-off asymmetry the dsymm kernel would
        # otherwise silently half-read.
        m = p * (1.0 / pi)[None, :]
        return (np.asfortranarray(0.5 * (m + m.T)), pi)

    def _guard_operator(self, operator: tuple, t: float) -> tuple:
        m, pi = operator
        guard_symmetric_operator(m, pi, self.events, t=t, engine=self.name)
        return operator

    def _screen_stack(self, stack: np.ndarray, decomp) -> np.ndarray:
        return screen_operator_stack(stack, decomp.pi, stochastic=False)

    def _propagate(self, operator: tuple, clv: np.ndarray) -> np.ndarray:
        m, pi = operator
        n, n_patterns = clv.shape
        # Π-scale into a preallocated F buffer (no C-temp + relayout copy).
        scaled = np.empty((n, n_patterns), order="F")
        np.multiply(pi[:, None], clv, out=scaled)
        if self.bundled:
            out = dsymm(1.0, m, scaled, side=0, lower=0)
            if self.counter is not None:
                self.counter.add("clv:dsymm", symm_flops(n, n_patterns),
                                 reads=n * (n + 1) // 2)
            return out
        out = np.empty_like(clv, order="F")
        for p in range(n_patterns):
            dsymv(1.0, m, scaled[:, p], beta=0.0, y=out[:, p], overwrite_y=1, lower=0)
        if self.counter is not None:
            self.counter.add("clv:dsymv", n_patterns * symv_flops(n),
                             reads=n_patterns * n * (n + 1) // 2)
        return out

    def _build_operator_stack(
        self, decomp: SpectralDecomposition, ts: Sequence[float]
    ) -> np.ndarray:
        return stacked_symmetric_operators(decomp, ts, counter=self.counter)

    def _build_derivative_stack(
        self, decomp: SpectralDecomposition, ts: Sequence[float]
    ) -> np.ndarray:
        return stacked_symmetric_operators(decomp, ts, counter=self.counter, derivative=True)

    def _operator_from_view(self, view: np.ndarray, decomp) -> tuple:
        return (view, decomp.pi)

    def _operator_probability_matrix(self, operator: tuple) -> np.ndarray:
        # P(t)·w = M·(Πw), column-wise: P = M·Π.
        m, pi = operator
        return m * pi[None, :]

    def _propagate_level(
        self, items: Sequence[Tuple[object, np.ndarray]]
    ) -> List[np.ndarray]:
        """One fused level pass: shared Π-scale workspace, one output stack.

        Distinct per-branch operators rule out a *single* ``dsymm`` for
        the whole level (and at n = 61 a fused wide call is no faster —
        BLAS is already at peak); what the level fuses is everything
        around the kernels: one workspace allocation, one output stack,
        one flop-counter entry.  Each block is still the per-branch
        arithmetic on identically-laid-out operands (``dsymm`` into an
        F-contiguous column view with ``beta=0`` is bit-identical to a
        standalone call), so results match :meth:`_propagate` bit for
        bit.
        """
        if not self.bundled or len(items) <= 1:
            return [self._propagate(op, clv) for op, clv in items]
        n, n_patterns = items[0][1].shape
        k = len(items)
        scaled = np.empty((n, n_patterns * k), order="F")
        for i, (op, clv) in enumerate(items):
            np.multiply(
                op[1][:, None], clv, out=scaled[:, i * n_patterns : (i + 1) * n_patterns]
            )
        out = np.empty((n, n_patterns * k), order="F")
        for i, (op, _) in enumerate(items):
            block = slice(i * n_patterns, (i + 1) * n_patterns)
            view = out[:, block]
            res = dsymm(1.0, op[0], scaled[:, block], c=view,
                        side=0, lower=0, overwrite_c=1)
            if res is not view and not np.shares_memory(res, view):  # pragma: no cover
                view[...] = res
        if self.counter is not None:
            self.counter.add("clv:dsymm", k * symm_flops(n, n_patterns),
                             reads=k * (n * (n + 1) // 2))
        return [out[:, i * n_patterns : (i + 1) * n_patterns] for i in range(k)]


@dataclass
class ClassEvaluation:
    """One evaluation's per-class pass, kept as the binding's last-point memo.

    Everything the branch gradient and the post-fit analyses read at
    the point just evaluated: the class graph and decompositions, the
    forward operator sets, the per-class plans, results and pruning
    states.  States and operator stacks are immutable once written.
    ``class_lnl`` is filled (and finite-checked) on first use.
    """

    values: Dict[str, float]
    lengths: np.ndarray
    skip_zero: bool
    graph: SiteClassGraph
    decomps: Dict[float, object]
    opsets: Dict[float, BatchedOperatorSet]
    plans: List[ClassPlan]
    rows: List[Tuple[int, int, float, bool]]
    results: List[PruningResult]
    states: Dict[int, PruningState]
    class_lnl: Optional[np.ndarray] = None

    @property
    def proportions(self) -> np.ndarray:
        """The class proportions the evaluation mixed."""
        return self.graph.proportions

    def at(self, values: Dict[str, float], lengths: np.ndarray) -> bool:
        """Whether this evaluation was made at exactly ``(values, lengths)``."""
        return self.values == values and np.array_equal(self.lengths, lengths)


class BoundLikelihood:
    """A (engine, tree, patterns, model) problem ready for evaluation.

    Owns a private branch-length vector (ordered like
    :meth:`Tree.branch_lengths`) so evaluations never mutate the caller's
    tree.  Exposes exactly what the optimizer and the post-fit analyses
    need: lnL, lnL with its exact branch-length gradient
    (:meth:`branch_gradient`), and the all-class evaluation
    (:meth:`class_evaluation`) that NEB/BEB, ancestral reconstruction
    and the mapping sampler read.

    Every evaluation runs the level-order driver (stacked operators,
    one fused propagation call per tree level, DESIGN.md §10) over
    fresh per-class :class:`~repro.likelihood.pruning.PruningState`
    buffers.  Site classes sharing their background ω (model A pairs
    0↔2a and 1↔2b) alias each other's buffers and re-prune only the
    foreground-to-root path — or nothing when the foreground ω is also
    equal (H0's 1↔2b; DESIGN.md §11).  The aliasing is bit-identical to
    pruning every class from scratch (exact float equality), enforced
    against the per-branch reference recursion in ``tests/oracles.py``.

    The binding keeps its last evaluation (:class:`ClassEvaluation`) as a
    one-entry, exact-key memo: the branch gradient and
    :meth:`class_evaluation` read it instead of re-pruning.
    """

    def __init__(
        self,
        engine: LikelihoodEngine,
        tree: Tree,
        patterns: PatternAlignment,
        model: CodonSiteModel,
        pi: np.ndarray,
        leaf_clvs: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        tree.validate_branch_lengths()
        if model.requires_foreground:
            tree.require_single_foreground()
        leaf_names = tree.leaf_names()
        alignment = patterns.alignment
        if set(leaf_names) != set(alignment.names):
            missing = set(leaf_names) ^ set(alignment.names)
            raise ValueError(f"tree and alignment taxa differ: {sorted(missing)}")
        self.engine = engine
        self.tree = tree
        self.patterns = patterns
        self.model = model
        self.pi = pi
        self.n_evaluations = 0

        # Leaf CLVs indexed by leaf node index (alignment rows reordered);
        # an injected list (survey mapping's shared build) is trusted to
        # match this binding's leaf order.
        self._leaf_clvs = (
            leaf_clvs
            if leaf_clvs is not None
            else build_leaf_clvs(alignment.subset_taxa(leaf_names))
        )

        # Static branch structure; lengths layered in per evaluation.
        non_root = [n for n in tree.nodes if not n.is_root]
        self._pos_of_child = {node.index: pos for pos, node in enumerate(non_root)}
        self._rows = [
            (child, parent, self._pos_of_child[child], fg)
            for child, parent, _, fg in tree.branch_table()
        ]
        self._n_nodes = len(tree.nodes)
        self.branch_lengths = np.array(tree.branch_lengths(), dtype=float)
        # The level schedule is static per binding.
        self._schedule = build_level_schedule(self._rows, self._n_nodes)
        self._fg_children = [child for child, _, _, fg in self._rows if fg]
        #: Last-point memo: the most recent evaluation's per-class pass.
        self._last: Optional[ClassEvaluation] = None

    # ------------------------------------------------------------------
    @property
    def n_branches(self) -> int:
        return len(self._rows)

    @property
    def n_patterns(self) -> int:
        return self.patterns.n_patterns

    def set_branch_lengths(self, lengths: Sequence[float]) -> None:
        lengths = np.asarray(lengths, dtype=float)
        if lengths.shape != self.branch_lengths.shape:
            raise ValueError(
                f"expected {self.branch_lengths.shape[0]} branch lengths, got {lengths.shape}"
            )
        if np.any(lengths < 0) or not np.all(np.isfinite(lengths)):
            raise ValueError("branch lengths must be finite and non-negative")
        self.branch_lengths = lengths.copy()

    def _lengths(self, branch_lengths: Optional[Sequence[float]]) -> np.ndarray:
        if branch_lengths is None:
            return self.branch_lengths
        return np.asarray(branch_lengths, dtype=float)

    # ------------------------------------------------------------------
    def _note_reuse(self, contribution: np.ndarray) -> None:
        self.engine.counters["clv_reuses"] += 1

    def _skipped_class_result(self) -> PruningResult:
        """Placeholder for a zero-weight class skipped without operators.

        An all-zero root CLV maps to ``-inf`` per-pattern
        log-likelihoods; :func:`logsumexp_weighted` masks zero-weight
        rows out of its max shift, so splicing this row in is bitwise
        neutral for the mixture.
        """
        n = self.engine.code.n_states
        return PruningResult(
            root_clv=np.zeros((n, self.n_patterns)),
            log_scalers=np.zeros(self.n_patterns),
        )

    def _evaluate_classes(
        self,
        values: Dict[str, float],
        lengths: np.ndarray,
        skip_zero: bool = False,
    ) -> ClassEvaluation:
        """Stacked-operator, level-order evaluation of every site class.

        Plans each class's pass on the site-class graph (skip a
        zero-weight class, derive a background-tied class from its base,
        populate the rest), aggregates the distinct (ω, t) operators
        those passes need, builds one stack per decomposition, then
        prunes level by level.  A derived class aliases its base's
        background subtrees (for model A: 0↔2a, 1↔2b) — every reused CLV
        is bit-identical to what recomputation would produce.

        The returned evaluation (also kept as the last-point memo)
        carries the per-class :class:`PruningState` dict (keyed by class
        index; absent for skipped classes): the per-node inside CLVs the
        branch gradient and the post-fit analyses read, so none of them
        re-prunes privately.
        """
        self._last = None
        engine = self.engine
        graph = self.model.site_class_graph(values)
        matrices = build_class_matrices(values["kappa"], graph.nodes, self.pi, engine.code)
        decomps = {omega: engine._decompose(m) for omega, m in matrices.items()}
        rows = [
            (child, parent, float(lengths[pos]), fg)
            for child, parent, pos, fg in self._rows
        ]

        def guard_for(cls: SiteClass) -> PruningGuard:
            return PruningGuard(
                recorder=engine.events,
                context={"site_class": cls.label, "engine": engine.name},
            )

        # Plan: per-class evaluation mode (skipped classes cannot anchor
        # a sharing edge).
        plans = graph.plan(skip_zero=skip_zero)

        def dirty_for(plan: ClassPlan) -> Optional[set]:
            if plan.mode == "derive":
                return set() if plan.full_share else set(self._fg_children)
            return None

        # Aggregate the distinct (ω, t) operators those passes will ask
        # for; duplicate requests (graph-edge-tied classes, equal branch
        # lengths) are built once and counted as build saves.  The
        # naive ledger records the per-class-independent baseline — each
        # class pruning every row with only its own operator memo, i.e.
        # evaluation without the class graph's sharing edges — so
        # ``1 − builds/naive`` is the dedupe saving.
        requested: Dict[float, List[float]] = {}
        seen: set = set()
        counters = engine.counters
        for plan in plans:
            if plan.mode == "skip":
                continue
            cls = graph.nodes[plan.index]
            counters["operator_builds_naive"] += len({
                (cls.omega_foreground if fg else cls.omega_background, t)
                for _, _, t, fg in rows
            })
            for ri in compute_recompute_rows(rows, dirty_for(plan)):
                child, parent, t, fg = rows[ri]
                omega = cls.omega_foreground if fg else cls.omega_background
                key = (omega, t)
                if key in seen:
                    counters["operator_build_saves"] += 1
                    continue
                seen.add(key)
                counters["operator_builds"] += 1
                requested.setdefault(omega, []).append(t)

        opsets = {
            omega: engine.operator_set_for(decomps[omega], ts)
            for omega, ts in requested.items()
        }

        def factory_for(cls: SiteClass):
            fg_set = opsets.get(cls.omega_foreground)
            bg_set = opsets.get(cls.omega_background)

            def transition(t: float, foreground: bool) -> object:
                return (fg_set if foreground else bg_set).operators[t]

            return transition

        results: List[PruningResult] = []
        states: Dict[int, PruningState] = {}
        for plan in plans:
            if plan.mode == "skip":
                results.append(self._skipped_class_result())
                continue
            idx, cls = plan.index, graph.nodes[plan.index]
            if plan.mode == "derive":
                state = states[plan.base].derive()
            else:
                state = PruningState.empty(self._n_nodes)
            results.append(prune_site_class_batched(
                rows, self._schedule, self._leaf_clvs, factory_for(cls),
                self._propagate_level, state, guard=guard_for(cls),
                dirty=dirty_for(plan), on_reuse=self._note_reuse,
            ))
            states[idx] = state
        self._last = ClassEvaluation(
            values=dict(values),
            lengths=np.array(lengths, dtype=float),
            skip_zero=skip_zero,
            graph=graph,
            decomps=decomps,
            opsets=opsets,
            plans=plans,
            rows=rows,
            results=results,
            states=states,
        )
        return self._last

    def _propagate_level(self, items) -> List[np.ndarray]:
        """The engine's fused level kernel, counted and timed."""
        counters = self.engine.counters
        counters["clv_propagations"] += len(items)
        start = time.perf_counter()
        out = self.engine._propagate_level(items)
        counters["clv_s"] += time.perf_counter() - start
        return out

    def _memoised(
        self, values: Dict[str, float], lengths: np.ndarray, skip_zero: bool
    ) -> ClassEvaluation:
        """The last evaluation if it was made at this point, else a new one.

        A memo that skipped zero-weight classes cannot serve a caller
        that needs every class.
        """
        ev = self._last
        if ev is None or not ev.at(values, lengths) or (ev.skip_zero and not skip_zero):
            ev = self._evaluate_classes(values, lengths, skip_zero=skip_zero)
            self.n_evaluations += 1
        return ev

    def _checked_class_lnl(self, ev: ClassEvaluation) -> np.ndarray:
        """``ev``'s per-class site log-likelihoods, checked for NaN/+inf."""
        return check_finite_site_log_likelihoods(
            self._class_lnl(ev),
            recorder=self.engine.events,
            class_labels=list(ev.graph.labels),
            engine=self.engine.name,
        )

    def class_evaluation(
        self,
        values: Dict[str, float],
        branch_lengths: Optional[Sequence[float]] = None,
    ) -> ClassEvaluation:
        """The all-class evaluation at ``values``: the post-fit data plane.

        NEB/BEB read its finite-checked ``class_lnl`` (the
        ``(n_classes, n_patterns)`` :func:`site_class_log_likelihoods`
        matrix) and ``proportions``; ancestral reconstruction its inside
        states and :meth:`outside_vectors`; the mapping sampler its
        inside states, decompositions and forward operator sets.  Every
        class is evaluated (``skip_zero`` off), so zero-weight classes
        keep their rows and states.  The last-point memo serves a repeat
        at the same point — post-fit analyses typically read one MLE
        several times — and the decompositions are the exact objects the
        pass evaluated with, so their tokens stay aligned with the Padé
        operator LRU and the uniformized kernels.
        """
        ev = self._memoised(values, self._lengths(branch_lengths), skip_zero=False)
        self._checked_class_lnl(ev)
        return ev

    def log_likelihood(
        self,
        values: Dict[str, float],
        branch_lengths: Optional[Sequence[float]] = None,
    ) -> float:
        """Evaluate lnL at ``values`` (model params) and branch lengths.

        Every call is a fresh evaluation; it replaces the last-point memo.
        """
        ev = self._evaluate_classes(values, self._lengths(branch_lengths), skip_zero=True)
        self.n_evaluations += 1
        return self._mixture_lnl(ev)

    def _mixture_lnl(self, ev: ClassEvaluation) -> float:
        lnl, _ = mixture_log_likelihood(
            ev.results, self.pi, ev.graph.proportions, self.patterns.weights,
            class_lnl=self._checked_class_lnl(ev),
        )
        return lnl

    def _class_lnl(self, ev: ClassEvaluation) -> np.ndarray:
        """``ev``'s per-class per-pattern log-likelihoods, computed once."""
        if ev.class_lnl is None:
            ev.class_lnl = site_class_log_likelihoods(ev.results, self.pi)
        return ev.class_lnl

    def branch_gradient(
        self,
        values: Dict[str, float],
        branch_lengths: Optional[Sequence[float]] = None,
    ) -> Tuple[float, np.ndarray]:
        """lnL and ``∂lnL/∂t`` for every branch, by one outside pass.

        The gradient is ordered like :attr:`branch_lengths`.  It reads
        the class states and operator sets of the last evaluation when
        that was made at exactly this point (the optimizer's line-search
        or start evaluation), so it runs no forward pass of its own;
        otherwise it evaluates first.  Per class, one pre-order pass
        over the level schedule forms the outside vectors and applies
        the derivative operators (DESIGN.md §9); the class ratios are
        mixed with the per-pattern class posteriors.  A
        derivative that comes out non-finite is left in the result and
        recorded as a ``gradient_nonfinite`` event.
        """
        engine = self.engine
        counters = engine.counters
        start = time.perf_counter()
        ev = self._memoised(values, self._lengths(branch_lengths), skip_zero=True)
        graph = ev.graph
        lnl = self._mixture_lnl(ev)
        weighted_post = (
            class_posteriors(self._class_lnl(ev), graph.proportions) * self.patterns.weights
        )

        # Rows whose derivative application D = P′·L each class pass
        # must run: every row for a populated class; for a partial share
        # only the foreground path, where its inside CLVs or ω differ
        # from its base's — elsewhere the base's D is the same array.  A
        # full share reuses its base's ratios outright.
        fresh_rows: Dict[int, List[int]] = {}
        for plan in ev.plans:
            if plan.mode == "populate":
                fresh_rows[plan.index] = list(range(len(ev.rows)))
            elif plan.mode == "derive" and not plan.full_share:
                fresh_rows[plan.index] = compute_recompute_rows(
                    ev.rows, set(self._fg_children)
                )
        requested: Dict[float, List[float]] = {}
        for idx, fresh in fresh_rows.items():
            cls = graph.nodes[idx]
            for ri in fresh:
                _, _, t, fg = ev.rows[ri]
                ts = requested.setdefault(
                    cls.omega_foreground if fg else cls.omega_background, []
                )
                if t not in ts:
                    ts.append(t)
        dsets = {
            omega: engine.derivative_set_for(ev.decomps[omega], ts, ev.opsets[omega])
            for omega, ts in requested.items()
        }

        row_grad = np.zeros(len(ev.rows))
        ratios: Dict[int, np.ndarray] = {}
        derivatives: Dict[int, List[Optional[np.ndarray]]] = {}
        for plan in ev.plans:
            idx = plan.index
            if plan.mode == "skip":
                continue
            if plan.mode == "derive" and plan.full_share:
                ratios[idx] = ratios[plan.base]
            else:
                ratios[idx], derivatives[idx] = self._outside_ratios(
                    ev, idx, dsets, fresh_rows[idx], derivatives.get(plan.base),
                )
            row_grad += ratios[idx] @ weighted_post[idx]
        grad = np.empty(len(ev.rows))
        for ri, (_, _, pos, _) in enumerate(self._rows):
            grad[pos] = row_grad[ri]
        bad = np.flatnonzero(~np.isfinite(grad))
        if bad.size:
            engine.events.record(
                "gradient_nonfinite", "gradient",
                f"branch derivative non-finite at {bad.size} branch(es)",
                branches=str([int(b) for b in bad[:8]]), engine=engine.name,
            )
        counters["gradient_passes"] += 1
        counters["gradient_s"] += time.perf_counter() - start
        return lnl, grad

    def _outside_pass(
        self,
        ev: ClassEvaluation,
        index: int,
        outside: List[Optional[np.ndarray]],
        extra: Optional[Callable] = None,
    ) -> Iterator[Tuple[List[int], List[np.ndarray], Dict[int, np.ndarray]]]:
        """Pre-order pass over the level schedule for one class of ``ev``.

        Top level first, the branch above child ``c`` (parent ``p``) gets
        ``U_c = O_p ∘ ∏_{siblings s} contribution_s`` with
        ``O_root = π``, rescaled per pattern column; an internal child
        then gets ``O_c = P(t_c)ᵀ U_c = Π·P·(Π⁻¹U_c)`` (reversibility), so
        the forward operators serve the outside pass unchanged.  π sits
        at the root only: ``O_v(x)`` is ``P(state_v = x, data outside
        v's subtree)`` up to a per-column scale (DESIGN.md §9).

        Fills ``outside`` (indexed by node; leaves stay ``None``) and
        yields, per level, its rows, their ``U`` vectors and the results
        of the ``extra`` items.  ``extra(row, ω, t)`` may return one more
        (operator, CLV) item for a row; it rides the level's one fused
        propagation call, just ahead of that row's outside item.
        """
        cls = ev.graph.nodes[index]
        state = ev.states[index]
        rows = ev.rows
        pi_col = self.pi[:, None]
        schedule = self._schedule
        outside[schedule.root_index] = np.broadcast_to(pi_col, (pi_col.shape[0], self.n_patterns))
        for h in range(len(schedule.levels) - 1, -1, -1):
            level = schedule.levels[h]
            applied: Dict[int, np.ndarray] = {}
            items, targets, us = [], [], []
            for ri in level:
                child, parent, t, fg = rows[ri]
                omega = cls.omega_foreground if fg else cls.omega_background
                u = np.array(outside[parent])
                for sibling in state.children[parent]:
                    if sibling != child:
                        u *= state.contributions[sibling]
                col_max = u.max(axis=0)
                col_max[col_max == 0.0] = 1.0
                u /= col_max
                us.append(u)
                item = extra(ri, omega, t) if extra is not None else None
                if item is not None:
                    items.append(item)
                    targets.append((applied, ri))
                if h > 0:
                    items.append((ev.opsets[omega].operators[t], u / pi_col))
                    targets.append((outside, child))
            if items:
                # Counted as propagations; not timed under clv_s, so the
                # eigh/expm/clv phase seconds stay the evaluation's.
                self.engine.counters["clv_propagations"] += len(items)
                for (store, key), out in zip(targets, self.engine._propagate_level(items)):
                    store[key] = out if store is applied else pi_col * out
            yield level, us, applied

    def outside_vectors(self, ev: ClassEvaluation, index: int) -> List[Optional[np.ndarray]]:
        """Every internal node's outside vector ``O_v`` for class ``index``.

        ``L_v ∘ O_v`` (with ``L_v`` the class's stored inside CLV) is
        proportional, per pattern column, to ``P(state_v = x, data |
        class)`` — the marginal reconstruction's per-class posterior.
        Leaves get ``None``.
        """
        outside: List[Optional[np.ndarray]] = [None] * self._n_nodes
        for _ in self._outside_pass(ev, index, outside):
            pass
        return outside

    def _outside_ratios(
        self,
        ev: ClassEvaluation,
        index: int,
        dsets: Dict[float, BatchedOperatorSet],
        fresh_rows: List[int],
        base_derivatives: Optional[List[Optional[np.ndarray]]],
    ) -> Tuple[np.ndarray, List[Optional[np.ndarray]]]:
        """Per-branch ratios ``∂L_k/∂t_b / L_k`` of one class, ``(B, P)``.

        The ratio is ``Σ_x U_c·D_c / Σ_x U_c·contribution_c`` with
        ``D_c = P′(t_c)·L_c`` and ``U_c`` from :meth:`_outside_pass`: the
        column scalings of ``U`` and of the stored CLVs cancel.  ``D_c``
        is applied for ``fresh_rows``, riding each level's fused call
        with the outside applications, and taken from
        ``base_derivatives`` elsewhere.  Returns the ratios and every
        row's ``D_c``.
        """
        state = ev.states[index]
        rows = ev.rows
        fresh = set(fresh_rows)
        derivatives = (
            list(base_derivatives) if base_derivatives is not None else [None] * len(rows)
        )

        def derivative_item(ri: int, omega: float, t: float):
            if ri in fresh:
                return (dsets[omega].operators[t], state.clvs[rows[ri][0]])
            return None

        ratios = np.zeros((len(rows), self.n_patterns))
        outside: List[Optional[np.ndarray]] = [None] * self._n_nodes
        for level, us, applied in self._outside_pass(ev, index, outside, derivative_item):
            for ri, u in zip(level, us):
                if ri in applied:
                    derivatives[ri] = applied[ri]
                num = np.einsum("ij,ij->j", u, derivatives[ri])
                den = np.einsum("ij,ij->j", u, state.contributions[rows[ri][0]])
                np.divide(num, den, out=ratios[ri], where=den != 0.0)
        return ratios, derivatives

_ENGINES = {
    "codeml": BaselineEngine,
    "baseline": BaselineEngine,
    "slim": SlimEngine,
    "slimcodeml": SlimEngine,
    "slim-v2": SlimV2Engine,
    "slimv2": SlimV2Engine,
}


def make_engine(name: str, **kwargs) -> LikelihoodEngine:
    """Engine factory by CLI-friendly name (see module docstring table)."""
    try:
        cls = _ENGINES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {sorted(set(_ENGINES))}"
        ) from None
    return cls(**kwargs)
