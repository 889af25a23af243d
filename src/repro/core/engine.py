"""Likelihood engines: CodeML-comparator, SlimCodeML, and Slim-v2.

The three engines share *everything* — tree handling, pattern
compression, pruning, mixture combination, rate normalisation, the
optimizer — and differ only in the §II-C kernels, mirroring the paper's
single-variable comparison:

=============  ======================  ==========================  =================
engine         eigensolver             P(t) reconstruction          CLV propagation
=============  ======================  ==========================  =================
``codeml``     ``dsyev`` (QL, the      Eq. 9 left-to-right via     per-site non-BLAS
(CodeML)       classic EISPACK-style   non-BLAS ``einsum``          matvec
               method CodeML's C       (≈2n³, untuned loops)
               code implements)
``slim``       ``dsyevr`` (MRRR,       Eq. 10–11 ``dsyrk``          per-site ``dgemv``
(SlimCodeML)   §III-A step 2)          (≈n³)
``slim-v2``    ``dsyevr``              Eq. 12–13 symmetric          batched ``dsymm``
(extension)                            branch matrix ``ŶŶᵀ``        on Π-scaled CLVs
                                                                    (BLAS-3, §III-B)
=============  ======================  ==========================  =================

See DESIGN.md §4–5 for why ``einsum`` models CodeML v4.4c (which contains
no BLAS — its products are hand-written portable C loops).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import expm_frechet
from scipy.linalg.blas import dgemv, dsymm

from repro.alignment.msa import CodonAlignment
from repro.alignment.patterns import PatternAlignment, compress_patterns
from repro.codon.classify import classification_table
from repro.codon.frequencies import estimate_codon_frequencies
from repro.codon.genetic_code import GeneticCode, UNIVERSAL
from repro.codon.matrix import CodonRateMatrix, exchangeability_derivatives
from repro.core.eigen import PadeFallback, SpectralDecomposition, decompose_guarded
from repro.core.expm import (
    stacked_symmetric_operators,
    stacked_syrk_operators,
    symmetric_branch_matrix,
    transition_matrix_einsum,
    transition_matrix_scipy,
    transition_matrix_syrk,
)
from repro.core.recovery import (
    UNIFORMIZATION_TOL,
    NumericalError,
    NumericalEventRecorder,
    PruningGuard,
    guard_symmetric_operator,
    guard_transition_matrix,
    screen_operator_stack,
)
from repro.core.uniformization import UniformizedOperator
from repro.core.flops import FlopCounter, gemv_flops, symm_flops
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
    "BoundLikelihood",
    "ClassEvaluation",
    "LikelihoodGradient",
    "make_engine",
]


#: Keys every engine's :attr:`~LikelihoodEngine.counters` starts with
#: (DESIGN.md §8 says which code writes each).  ``rung_<name>`` keys
#: join on first use; ``*_s`` keys are seconds.
COUNTER_KEYS = (
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
)


class LikelihoodEngine:
    """Abstract engine: owns the kernels, the counters and the event stream.

    Parameters
    ----------
    code:
        Genetic code (61-state universal by default).
    counter:
        Optional :class:`FlopCounter` accumulating analytic flops.

    Every count the engine makes lands in :attr:`counters`, one flat
    map (DESIGN.md §8 lists its keys): CLV propagations and reuses,
    the operator-build ledger, one ``rung_<name>`` entry per ladder rung
    that built operators, the seconds spent in the ``eigh``/``expm``/
    ``clv`` phases, and the gradient pass (``gradient_passes`` and
    inclusive ``gradient_s``).

    Every engine runs guarded (DESIGN.md §8): decompositions go through
    the eigensolver fallback ladder (``evr`` → ``ev`` → per-branch Padé
    ``expm`` → uniformization); every branch operator is screened and,
    when flagged, guarded; CLVs and per-class site log-likelihoods are
    checked during pruning.  Every trigger is recorded on
    :attr:`events`.

    The engine keeps no numerical state between evaluations: each
    evaluation decomposes every distinct ω once and builds its
    operators once, and they live exactly as long as the evaluation —
    as CodeML v4.4c, which recomputes P per evaluation, and the paper's
    cost model of one expm per branch per iteration.
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

    def _propagate_level(
        self, items: Sequence[Tuple[object, np.ndarray]]
    ) -> List[np.ndarray]:
        """Propagate every (operator, child CLV) pair of one tree level.

        Default: the per-branch kernel in sequence.  Engines with a
        fused level kernel override this; results must stay bit-identical
        to per-item :meth:`_propagate` calls.
        """
        return [self._propagate(op, clv) for op, clv in items]

    def _propagate_transposed_level(
        self,
        items: Sequence[Tuple[object, np.ndarray]],
        pi: np.ndarray,
        out: Sequence[np.ndarray],
    ) -> None:
        """``P(t)ᵀu`` for every (operator, u) pair of one tree level,
        into the matching F-ordered ``(n, P)`` array of ``out``.

        The gradient's outside pass applies the branch operators
        transposed.  Reversibility (``ΠP = PᵀΠ``) gives
        ``Pᵀu = Π·P·(Π⁻¹u)``, so by default the forward level kernel
        serves.
        """
        pi_col = pi[:, None]
        forward = self._propagate_level([(op, u / pi_col) for op, u in items])
        for res, o in zip(forward, out):
            np.multiply(pi_col, res, out=o)

    def build_operator_set(
        self, decomp, ts: Sequence[float]
    ) -> Dict[float, object]:
        """Build (and guard) the operators of one decomposition for ``ts``.

        Returns ``{t: operator}`` in the engine's operator form, keyed by
        branch length.

        The one operator builder, timed under ``expm_s``.  A spectral
        decomposition gets one stacked build where the engine has a
        stacked kernel; the stacked path screens the whole stack in one
        vectorised pass and runs the per-operator guard only on the
        blocks the screen flags — the same events and repairs as
        guarding every block
        (:func:`~repro.core.recovery.screen_operator_stack`).  Guards
        repair in place, so they run *before* the stack is frozen; each
        operator then wraps a zero-copy, read-only, F-contiguous
        column-block view of the frozen ``(n, n·B)`` buffer.  Otherwise
        (a Padé fallback, or no stacked kernel) each length is built on
        its own, and a rung-4 kernel made for one length serves the
        call's remaining lengths.
        """
        start = time.perf_counter()
        ts = [float(t) for t in ts]
        stack = (
            None
            if isinstance(decomp, PadeFallback)
            else self._build_operator_stack(decomp, ts)
        )
        if stack is None:
            kernel: List[UniformizedOperator] = []
            operators = {t: self._make_operator(decomp, t, kernel) for t in ts}
        else:
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
        self.counters["expm_s"] += time.perf_counter() - start
        return operators

    # ------------------------------------------------------------------
    def _decompose(self, matrix: CodonRateMatrix):
        start = time.perf_counter()
        decomp = decompose_guarded(
            matrix, driver=self.eigh_driver, counter=self.counter, recorder=self.events
        )
        self.counters["eigh_s"] += time.perf_counter() - start
        return decomp

    def _make_operator(
        self, decomp, t: float, kernel: Optional[List[UniformizedOperator]] = None
    ) -> object:
        """Build and guard one branch operator.

        ``kernel`` holds the rung-4 uniformized kernel of ``decomp`` once
        one is made, so a build call's lengths share it.
        """
        if isinstance(decomp, PadeFallback):
            try:
                p = guard_transition_matrix(
                    transition_matrix_scipy(decomp.q, t),
                    self.events, t=t, engine=self.name, path="pade",
                )
            except (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeWarning) as exc:
                # Rung 4: a failed Padé residual check degrades to the
                # uniformized kernel instead of a hard NumericalError.
                return self._recover_operator(
                    decomp, t, exc, kernel if kernel is not None else []
                )
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

    def _uniformize(self, decomp: PadeFallback) -> UniformizedOperator:
        """A new uniformized kernel of a Padé decomposition's generator.

        The caller owns it: its cached powers of ``R`` live as long as
        the one build call that asked for it.
        """
        return UniformizedOperator(decomp.q, decomp.pi, tol=UNIFORMIZATION_TOL, counter=self.counter)

    def _recover_operator(
        self, decomp, t: float, exc: BaseException, kernel: List[UniformizedOperator]
    ) -> object:
        """Serve one branch operator from the uniformized kernel (rung 4).

        Called after a Padé-built P(t) failed its guard with ``exc``;
        ``kernel`` is the build call's holder (see :meth:`_make_operator`).
        Records ``uniformization_fallback``; if the uniformized P(t)
        *also* fails, emits one structured ``ladder_exhausted`` event
        carrying every rung's rejection reason and raises a matching
        :class:`NumericalError` — never the last rung's raw LAPACK/scipy
        exception.
        """
        history = [list(pair) for pair in getattr(decomp, "ladder", ())]
        history.append(["pade", str(exc)])
        try:
            if not kernel:
                kernel.append(self._uniformize(decomp))
            uni = kernel[0]
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

    def cache_stats(self) -> Dict[str, float]:
        """A copy of :attr:`counters` (the benchmark tracer's reader)."""
        return dict(self.counters)

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


class SlimV2Engine(LikelihoodEngine):
    """Eq. 12–13 + §III-B bundling: symmetric branch matrices, BLAS-3 CLVs.

    The branch operator is the symmetric ``M = Ŷ Ŷᵀ`` with
    ``P(t)·w = M·(Πw)``; propagation Π-scales the child CLV (O(n) per
    pattern) and applies one ``dsymm`` over all patterns.
    """

    name = "slim-v2"
    eigh_driver = "evr"

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
        out = dsymm(1.0, m, scaled, side=0, lower=0)
        if self.counter is not None:
            self.counter.add("clv:dsymm", symm_flops(n, n_patterns),
                             reads=n * (n + 1) // 2)
        return out

    def _build_operator_stack(
        self, decomp: SpectralDecomposition, ts: Sequence[float]
    ) -> np.ndarray:
        return stacked_symmetric_operators(decomp, ts, counter=self.counter)

    def _operator_from_view(self, view: np.ndarray, decomp) -> tuple:
        return (view, decomp.pi)

    def _propagate_transposed_level(
        self,
        items: Sequence[Tuple[object, np.ndarray]],
        pi: np.ndarray,
        out: Sequence[np.ndarray],
    ) -> None:
        # P = M·Π, so Pᵀu = Π·(M·u): one dsymm on u as it stands.
        for ((m, _), u), o in zip(items, out):
            res = dsymm(1.0, m, u, c=o, side=0, lower=0, overwrite_c=1)
            if res is not o and not np.shares_memory(res, o):  # pragma: no cover
                o[...] = res
            o *= pi[:, None]
        if self.counter is not None and items:
            n, n_patterns = items[0][1].shape
            self.counter.add("clv:dsymm", len(items) * symm_flops(n, n_patterns),
                             reads=len(items) * (n * (n + 1) // 2))

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
        if len(items) <= 1:
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

    Everything the gradient pass and the post-fit analyses read at
    the point just evaluated: the class graph, the rate matrices (with
    their unscaled mean rates by ω, ``rates``) and decompositions, the
    forward operator sets, the per-class plans, results and pruning
    states.  States and operator stacks are immutable once written.
    ``class_lnl`` is filled (and finite-checked) on first use.
    """

    values: Dict[str, float]
    lengths: np.ndarray
    skip_zero: bool
    graph: SiteClassGraph
    scale: float
    rates: Dict[float, float]
    matrices: Dict[float, CodonRateMatrix]
    decomps: Dict[float, object]
    opsets: Dict[float, Dict[float, object]]
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


@dataclass
class LikelihoodGradient:
    """lnL and its derivatives at one point, from one gradient pass.

    ``branches`` is ``∂lnL/∂t`` ordered like
    :attr:`BoundLikelihood.branch_lengths`.  ``kappa`` and ``omega`` hold
    the common rate scale ``c`` fixed; ``c`` enters through
    ``log_scale = ∂lnL/∂log c = −Σ_b t_b·∂lnL/∂t_b`` alone.  ``omega`` is
    ``(n_classes, 2)``: per site class, the derivative through its
    background and through its foreground ω (0 for a partition with no
    branch).  Coordinates whose ω has the same derivative in every model
    parameter form a tie group (:meth:`BoundLikelihood._omega_ties`): the
    group's derivative sits on its first member in row-major order and
    the rest read 0, so a chain rule through the model parameters reads
    the same sum.  ``proportions`` treats each class weight as a free
    coordinate; the model's simplex is the caller's chain rule.
    """

    lnl: float
    branches: np.ndarray
    kappa: float
    omega: np.ndarray
    proportions: np.ndarray
    log_scale: float


class BoundLikelihood:
    """A (engine, tree, patterns, model) problem ready for evaluation.

    Owns a private branch-length vector (ordered like
    :meth:`Tree.branch_lengths`) so evaluations never mutate the caller's
    tree.  Exposes exactly what the optimizer and the post-fit analyses
    need: lnL, lnL with its exact gradient in every coordinate
    (:meth:`gradient`), and the all-class evaluation
    (:meth:`class_evaluation`) that NEB/BEB and ancestral
    reconstruction read, and the expected substitution counts
    (:meth:`substitution_counts`) on the gradient's outside pass.

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
    one-entry, exact-key memo: the gradient pass and
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
        self._leaf_index: Optional[Dict[int, _LeafColumns]] = None
        # The outside recursion's buffers, reused from group to group and
        # pass to pass: one (rows, P, n) block of the rows' vectors, and
        # one block of the downward vectors of the internal non-root
        # nodes (slot per node).
        self._z_block: Optional[np.ndarray] = None
        self._d_block: Optional[np.ndarray] = None
        self._d_slot = {
            child: k
            for k, child in enumerate(c for c, _, _, _ in self._rows if self._schedule.heights[c])
        }
        #: Per row, the other children of its parent.
        self._siblings = [
            [s for s in self._schedule.children[parent] if s != child]
            for child, parent, _, _ in self._rows
        ]
        #: Rows whose contribution can differ between classes that share
        #: their background operators: the foreground rows and the rows
        #: above them (DESIGN.md §9), and the nodes those rows hang from.
        self._path = frozenset(compute_recompute_rows(self._rows, set(self._fg_children)))
        self._path_parents = {self._rows[ri][1] for ri in self._path}

    @property
    def _leaf_columns(self) -> Dict[int, "_LeafColumns"]:
        """Leaf node index → its CLV's columns as state indices (the
        gradient pass's gather and scatter), made on first use."""
        if self._leaf_index is None:
            self._leaf_index = {
                leaf: _LeafColumns.of(clv) for leaf, clv in enumerate(self._leaf_clvs)
            }
        return self._leaf_index

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
        base: Optional[ClassEvaluation] = None,
    ) -> ClassEvaluation:
        """Stacked-operator, level-order evaluation of every site class.

        Plans each class's pass on the site-class graph (skip a
        zero-weight class, derive a background-tied class from its base,
        populate the rest), aggregates the distinct (ω, t) operators
        those passes need, builds one stack per decomposition, then
        prunes level by level.  A derived class aliases its base's
        background subtrees (for model A: 0↔2a, 1↔2b) — every reused CLV
        is bit-identical to what recomputation would produce.

        ``base`` is an earlier evaluation of this binding.  When it was
        made at the same κ, rate scale and branch lengths, its rate
        matrices, decompositions and operator sets serve every ω it
        shares with this point (no matrix is built for them:
        :func:`build_class_matrices` reads their mean rates from
        ``base.rates``), and each class it evaluated with the same
        (background, foreground) ω pair is taken from it whole — result
        and state — instead of pruned again.  The same arithmetic on the
        same inputs, so the reuse is bit-identical too.

        The returned evaluation (also kept as the last-point memo)
        carries the per-class :class:`PruningState` dict (keyed by class
        index; absent for skipped classes): the per-node inside CLVs the
        gradient pass and the post-fit analyses read, so none of them
        re-prunes privately.
        """
        self._last = None
        engine = self.engine
        graph = self.model.site_class_graph(values)
        if not (
            base is not None
            and base.values["kappa"] == values["kappa"]
            and np.array_equal(base.lengths, lengths)
        ):
            base = None
        rates = {} if base is None else dict(base.rates)
        matrices = build_class_matrices(
            values["kappa"], graph.nodes, self.pi, engine.code,
            rates=rates, lent=None if base is None else base.matrices,
        )
        scale = next(iter(matrices.values())).scale
        if base is not None and base.scale != scale:
            base = None
        # A lent matrix comes back as the lent object; its decomposition
        # comes with it.
        decomps = {
            omega: base.decomps[omega]
            if base is not None and m is base.matrices.get(omega)
            else engine._decompose(m)
            for omega, m in matrices.items()
        }
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

        def pair(cls: SiteClass) -> Tuple[float, float]:
            return cls.omega_background, cls.omega_foreground

        reused = set() if base is None else {
            plan.index
            for plan in plans
            if plan.mode != "skip"
            and plan.index in base.states
            and pair(graph.nodes[plan.index]) == pair(base.graph.nodes[plan.index])
        }
        base_sets = {} if base is None else {
            omega: opset for omega, opset in base.opsets.items() if omega in matrices
        }

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
            if plan.mode == "skip" or plan.index in reused:
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
                if key in seen or (omega in base_sets and t in base_sets[omega]):
                    counters["operator_build_saves"] += 1
                    continue
                seen.add(key)
                counters["operator_builds"] += 1
                requested.setdefault(omega, []).append(t)

        # A shared ω whose base set lacks a length gets one complete set.
        opsets = dict(base_sets)
        for omega, ts in requested.items():
            if omega in base_sets:
                ts = list(base_sets[omega]) + ts
            opsets[omega] = engine.build_operator_set(decomps[omega], ts)

        def factory_for(cls: SiteClass):
            fg_set = opsets.get(cls.omega_foreground)
            bg_set = opsets.get(cls.omega_background)

            def transition(t: float, foreground: bool) -> object:
                return (fg_set if foreground else bg_set)[t]

            return transition

        results: List[PruningResult] = []
        states: Dict[int, PruningState] = {}
        for plan in plans:
            if plan.mode == "skip":
                results.append(self._skipped_class_result())
                continue
            idx, cls = plan.index, graph.nodes[plan.index]
            if idx in reused:
                results.append(base.results[idx])
                states[idx] = base.states[idx]
                continue
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
            scale=scale,
            rates=rates,
            matrices=matrices,
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
        self,
        values: Dict[str, float],
        lengths: np.ndarray,
        skip_zero: bool,
        base: Optional[ClassEvaluation] = None,
    ) -> ClassEvaluation:
        """The last evaluation if it was made at this point, else a new one.

        A memo that skipped zero-weight classes cannot serve a caller
        that needs every class.
        """
        ev = self._last
        if ev is None or not ev.at(values, lengths) or (ev.skip_zero and not skip_zero):
            ev = self._evaluate_classes(values, lengths, skip_zero=skip_zero, base=base)
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
        base: Optional[ClassEvaluation] = None,
    ) -> ClassEvaluation:
        """The all-class evaluation at ``values``: the post-fit data plane.

        NEB/BEB read its finite-checked ``class_lnl`` (the
        ``(n_classes, n_patterns)`` :func:`site_class_log_likelihoods`
        matrix) and ``proportions``; ancestral reconstruction its inside
        states and :meth:`outside_vectors`.  Every class is evaluated
        (``skip_zero`` off), so zero-weight classes keep their rows and
        states.  The last-point memo serves a repeat
        at the same point — post-fit analyses typically read one MLE
        several times — and the decompositions and operator sets are the
        exact objects the pass evaluated with; they live as long as the
        evaluation does.  ``base`` lends an earlier evaluation's
        decompositions, operator sets and unchanged classes
        (:meth:`_evaluate_classes`): BEB's ω2 grid moves only the
        ω2 classes.
        """
        ev = self._memoised(values, self._lengths(branch_lengths), skip_zero=False, base=base)
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

    def gradient(
        self,
        values: Dict[str, float],
        branch_lengths: Optional[Sequence[float]] = None,
    ) -> "LikelihoodGradient":
        """lnL and its derivative in every coordinate, by one outside pass.

        It reads the class states and operator sets of the last
        evaluation when that was made at exactly this point (the
        optimizer's line-search or start evaluation), so it runs no
        forward pass of its own; otherwise it evaluates first.  One
        pre-order recursion per background group (:meth:`_outside_recursion`)
        hands the contraction (:class:`_RateContraction`) each row's
        posterior-weighted outside vectors; with the stored inside CLVs
        it yields ``∂lnL/∂t``, ``∂lnL/∂κ`` and ``∂lnL/∂ω`` per tie group
        (:meth:`_omega_ties`).  The proportion derivatives come from the
        class likelihoods (DESIGN.md §9).  A branch derivative that comes
        out non-finite is left in the result and recorded as a
        ``gradient_nonfinite`` event.
        """
        engine = self.engine
        counters = engine.counters
        start = time.perf_counter()
        ev = self._memoised(values, self._lengths(branch_lengths), skip_zero=True)
        graph = ev.graph
        class_lnl = self._checked_class_lnl(ev)
        weights = self.patterns.weights
        lnl, site_lnl = mixture_log_likelihood(
            ev.results, self.pi, graph.proportions, weights, class_lnl=class_lnl
        )
        weighted_post = class_posteriors(class_lnl, graph.proportions) * weights
        # ∂lnL/∂p_k = Σ_p w_p·L_k(p)/L(p); a skipped class reads 0.
        with np.errstate(invalid="ignore", over="ignore"):
            d_proportions = np.exp(class_lnl - site_lnl[None, :]) @ weights

        contraction = _RateContraction(self, ev)
        self._outside_recursion(ev, contraction, weighted_post, self._omega_ties(values))
        grad = self._by_branch(contraction.branches)
        bad = np.flatnonzero(~np.isfinite(grad))
        if bad.size:
            engine.events.record(
                "gradient_nonfinite", "gradient",
                f"branch derivative non-finite at {bad.size} branch(es)",
                branches=str([int(b) for b in bad[:8]]), engine=engine.name,
            )
        d_kappa, d_omega = contraction.derivatives()
        counters["gradient_passes"] += 1
        counters["gradient_s"] += time.perf_counter() - start
        return LikelihoodGradient(
            lnl=lnl,
            branches=grad,
            kappa=d_kappa,
            omega=d_omega,
            proportions=d_proportions,
            log_scale=-float(ev.lengths @ grad),
        )

    def substitution_counts(
        self,
        values: Dict[str, float],
        branch_lengths: Optional[Sequence[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior expected synonymous and non-synonymous substitution
        counts at ``values``, by the gradient's outside recursion.

        Returns ``(totals, foreground)``: ``totals`` is ``(n_branches, 2)``
        (syn, nonsyn), ordered like :attr:`branch_lengths` and summed
        over sites; ``foreground`` is ``(2, n_patterns)``, the counts at
        one site of each pattern, summed over the foreground branches.
        Each class is weighted by its posterior at the pattern, as the
        gradient weights it; counts sum over classes, so the recursion
        groups classes by operator alone (:class:`_CountContraction`,
        DESIGN.md §14).
        """
        ev = self._memoised(values, self._lengths(branch_lengths), skip_zero=True)
        weights = self.patterns.weights
        weighted_post = class_posteriors(self._checked_class_lnl(ev), ev.graph.proportions) * weights
        counts = _CountContraction(self, ev)
        self._outside_recursion(ev, counts, weighted_post, None)
        return self._by_branch(counts.totals), counts.foreground / weights

    def _omega_ties(self, values: Dict[str, float]) -> np.ndarray:
        """Per (class, partition) ω coordinate, ``(n_classes, 2)``: the
        flat index of the first coordinate with the same derivative in
        every model parameter.

        :meth:`CodonSiteModel.site_classes` is probed one parameter at a
        time in value space (the packed space cannot hold H1's ω2 = 1):
        two coordinates tie when they start equal and move identically
        under every probe.  Equal values alone tie nothing, and a
        parameter the model rejects both probes of leaves every
        coordinate untied.
        """
        model = self.model

        def coordinates(vals: Dict[str, float]) -> List[float]:
            return [w for c in model.site_classes(vals) for w in (c.omega_background, c.omega_foreground)]

        columns = [coordinates(values)]
        for name, value in values.items():
            step = _TIE_STEP * max(abs(value), 1.0)
            for probe in (value + step, value - step):
                try:
                    columns.append(coordinates(dict(values, **{name: probe})))
                    break
                except ValueError:
                    continue
            else:
                columns.append(list(range(len(columns[0]))))
        first: Dict[tuple, int] = {}
        keys = zip(*columns)
        return np.array([first.setdefault(key, i) for i, key in enumerate(keys)]).reshape(-1, 2)

    def _by_branch(self, per_row: np.ndarray) -> np.ndarray:
        """A per-row array of ``ev.rows`` reordered like :attr:`branch_lengths`."""
        out = np.empty_like(per_row)
        for ri, (_, _, pos, _) in enumerate(self._rows):
            out[pos] = per_row[ri]
        return out

    def _outside_recursion(
        self,
        ev: ClassEvaluation,
        contraction: "_RateContraction",
        weighted_post: np.ndarray,
        ties: Optional[np.ndarray],
    ) -> None:
        """Fold every live class of ``ev`` into ``contraction``, one
        pre-order recursion per background group.

        A group is the set of live classes that share every background
        operator, and, when ``ties`` is given (the gradient), the tie of
        their background ω (:meth:`_omega_ties`): their inside CLVs
        agree off the foreground path, so one recursion serves them all
        (:meth:`_group_pass`).  Unless the tree has exactly one
        foreground row, the foreground ω joins the key, so no path row
        meets two operators inside a group.
        A row's vectors reach the contraction by slot: its operator's ω,
        plus the coordinate's tie for the gradient.
        """
        graph = ev.graph

        def slot_of(k: int, fg: bool) -> tuple:
            cls = graph.nodes[k]
            omega = cls.omega_foreground if fg else cls.omega_background
            return (omega,) if ties is None else (omega, int(ties[k, int(fg)]))

        single = len(self._fg_children) == 1
        groups: Dict[tuple, List[int]] = {}
        for plan in ev.plans:
            if plan.mode != "skip":
                k = plan.index
                key = slot_of(k, False) + (() if single else (graph.nodes[k].omega_foreground,))
                groups.setdefault(key, []).append(k)
        for classes in groups.values():
            for slot, (rows, terms) in self._group_pass(ev, classes, weighted_post, slot_of).items():
                contraction.add(slot, self._z_block, sorted(rows), terms)

    def _group_pass(
        self,
        ev: ClassEvaluation,
        classes: List[int],
        weighted_post: np.ndarray,
        slot_of,
    ) -> Dict[tuple, Tuple[List[int], Dict[int, List["_Term"]]]]:
        """One background group's pre-order recursion (DESIGN.md §9).

        Fills the binding's row block with one vector per row and
        returns, per contraction slot, its rows and each row's terms
        (:data:`_Term`).  Weighting pattern p of class k by
        ``r_k = w_p·posterior_k / (Uᵀ contribution)_p``, a row's vector
        is either

        * the outside vector ``U_c = O_p ∘ ∏_siblings C_s`` that every
          class of the group shares: on the foreground→root path and on
          the foreground row, where the classes' inside CLVs or operators
          differ, so each class (or each set of classes with one inside
          CLV) is a term ``(r_k, L_k)``.  ``O_root = π``, and down the
          path ``O_c = P_cᵀ U_c`` divided by the column sums of ``U_c``
          (0 in a column the group carries no weight in);
        * or, everywhere else, the weighted sum ``Z_c = Σ_k r_k·U_{k,c}``
          with the shared inside CLV as its one term.  Below a path node
          it is ``O_p ∘ Σ_k r_k ∏_siblings C_{k,s}``; below the
          foreground child it is seeded through each foreground
          operator, ``Σ_ω P_ωᵀ(Σ_{k: ω} r_k·U_fg) / s_p ∘ ∏ C_s``; and
          below that ``Z_c = (P_pᵀ Z_p / s_p) ∘ ∏_siblings C_s`` exactly,
          with ``s_p`` the inside pass's rescale at p (1 where none
          fired).
        """
        rows = ev.rows
        schedule = self._schedule
        engine = self.engine
        n, n_patterns = self.pi.shape[0], self.n_patterns
        if self._z_block is None:
            self._z_block = np.empty((len(rows), n_patterns, n))
            self._d_block = np.empty((len(self._d_slot), n_patterns, n))
        block, d_block = self._z_block, self._d_block
        states = [ev.states[k] for k in classes]
        base = states[0]
        nodes = ev.graph.nodes
        post = weighted_post[classes]
        dead = post.sum(axis=0) == 0.0
        ones = np.ones(n)
        root = schedule.root_index
        #: Internal node → the vector its children read: the shared
        #: outside vector O_p for the root and the path nodes, else the
        #: weighted P_pᵀ Z_p / s_p.
        down: Dict[int, np.ndarray] = {root: np.broadcast_to(self.pi[:, None], (n, n_patterns))}
        shared = {root}
        ratios: Dict[int, np.ndarray] = {}
        slots: Dict[tuple, Tuple[List[int], Dict[int, List[_Term]]]] = {}

        def ratios_at(p: int) -> np.ndarray:
            """``r_k`` per class of the group below shared node ``p``."""
            found = ratios.get(p)
            if found is None:
                kids = schedule.children[p]
                dens = np.empty((len(classes), n_patterns))
                seen: Dict[tuple, np.ndarray] = {}
                for j, state in enumerate(states):
                    key = tuple(id(state.contributions[c]) for c in kids)
                    if key not in seen:
                        joint = np.multiply(down[p], state.contributions[kids[0]])
                        for c in kids[1:]:
                            joint *= state.contributions[c]
                        seen[key] = ones @ joint
                    dens[j] = seen[key]
                found = ratios[p] = np.divide(post, dens, out=np.zeros_like(dens), where=dens != 0.0)
            return found

        def add_term(slot: tuple, ri: int, r: Optional[np.ndarray], state: PruningState) -> None:
            slot_rows, terms = slots.setdefault(slot, ([], {}))
            row_terms = terms.get(ri)
            if row_terms is None:
                slot_rows.append(ri)
                row_terms = terms[ri] = []
            child = rows[ri][0]
            clv = state.clvs[child]
            for i, (r0, c0, clv0, contribution0) in enumerate(row_terms):
                if clv0 is clv:
                    row_terms[i] = (r0 + r, c0, clv0, contribution0)
                    return
            row_terms.append((r, child, clv, state.contributions[child]))

        def siblings_product(ri: int, vector: np.ndarray, out: np.ndarray) -> None:
            sibs = self._siblings[ri]
            if not sibs:
                out[...] = vector
                return
            np.multiply(vector, base.contributions[sibs[0]], out=out)
            for s in sibs[1:]:
                out *= base.contributions[s]

        background = slot_of(classes[0], False)
        for h in range(len(schedule.levels) - 1, -1, -1):
            level = schedule.levels[h]
            for ri in level:
                child, parent, _, fg = rows[ri]
                v = block[ri].T
                if parent not in shared:
                    siblings_product(ri, down[parent], v)
                    add_term(background, ri, None, base)
                    continue
                r = ratios_at(parent)
                if ri in self._path:
                    siblings_product(ri, down[parent], v)
                    for j, k in enumerate(classes):
                        add_term(slot_of(k, fg), ri, r[j], states[j])
                    continue
                # Σ_k r_k ∏ C_{k,s}, one product per distinct sibling set.
                sibs = self._siblings[ri]
                weight: Dict[tuple, list] = {}
                for j, state in enumerate(states):
                    key = tuple(id(state.contributions[s]) for s in sibs)
                    if key in weight:
                        weight[key][0] = weight[key][0] + r[j]
                    else:
                        weight[key] = [r[j], state]
                total = None
                for rk, state in weight.values():
                    term = np.broadcast_to(rk, (n, n_patterns)).copy(order="F")
                    for s in sibs:
                        term *= state.contributions[s]
                    total = term if total is None else np.add(total, term, out=total)
                np.multiply(down[parent], total, out=v)
                add_term(background, ri, None, base)
            if h == 0:
                continue
            items, outs, finish = [], [], []
            for ri in level:
                child, parent, t, fg = rows[ri]
                v = block[ri].T
                d = d_block[self._d_slot[child]].T
                down[child] = d
                if ri not in self._path:
                    items.append((ev.opsets[background[0]][t], v))
                    outs.append(d)
                    finish.append((child, None, ()))
                    continue
                if child in self._path_parents:
                    # A path node: the group keys make its row's operator
                    # one for every class, so its outside vector is shared.
                    items.append((ev.opsets[slot_of(classes[0], fg)[0]][t], v))
                    outs.append(d)
                    finish.append((child, v, ()))
                    shared.add(child)
                    continue
                # The foreground child: one seed per foreground operator.
                omegas: Dict[float, np.ndarray] = {}
                r = ratios_at(parent)
                for j, k in enumerate(classes):
                    omega = nodes[k].omega_foreground
                    omegas[omega] = omegas[omega] + r[j] if omega in omegas else r[j]
                seeds = []
                for omega, r_sum in omegas.items():
                    weighted = np.multiply(v, r_sum, out=np.empty((n, n_patterns), order="F"))
                    items.append((ev.opsets[omega][t], weighted))
                    outs.append(d if not seeds else np.empty((n, n_patterns), order="F"))
                    seeds.append(outs[-1])
                finish.append((child, None, seeds[1:]))
            engine.counters["clv_propagations"] += len(items)
            engine._propagate_transposed_level(items, self.pi, outs)
            for child, u, more_seeds in finish:
                d = down[child]
                if u is not None:
                    total = ones @ u
                    total[total == 0.0] = 1.0
                    d /= total
                    d[:, dead] = 0.0
                    continue
                for seed in more_seeds:
                    d += seed
                log_scale = base.scalers[child]
                if log_scale is not None:
                    d /= np.exp(log_scale)
        return slots

    def outside_vectors(self, ev: ClassEvaluation, index: int) -> List[Optional[np.ndarray]]:
        """Every internal node's outside vector ``O_v`` for class ``index``.

        ``L_v ∘ O_v`` (with ``L_v`` the class's stored inside CLV) is
        proportional, per pattern column, to ``P(state_v = x, data |
        class)`` — the marginal reconstruction's per-class posterior.
        Leaves get ``None``.

        One pre-order pass over the level schedule for the class alone:
        ``O_root = π`` and ``O_c = P(t_c)ᵀ U_c`` with
        ``U_c = O_p ∘ ∏_{siblings s} contribution_s``
        (:meth:`LikelihoodEngine._propagate_transposed_level`, one call
        per level), divided per pattern column by the column sum of
        ``U_c``, which is the column sum of ``P(t_c)ᵀU_c`` (the rows of
        ``P`` sum to 1): every ``O_c`` column sums to 1.
        """
        cls = ev.graph.nodes[index]
        state = ev.states[index]
        schedule = self._schedule
        n, n_patterns = self.pi.shape[0], self.n_patterns
        ones = np.ones(n)
        outside: List[Optional[np.ndarray]] = [None] * self._n_nodes
        outside[schedule.root_index] = np.broadcast_to(self.pi[:, None], (n, n_patterns))
        for level in reversed(schedule.levels[1:]):
            items, out = [], []
            for ri in level:
                child, parent, t, fg = ev.rows[ri]
                u = np.empty((n, n_patterns), order="F")
                u[...] = outside[parent]
                for sibling in self._siblings[ri]:
                    u *= state.contributions[sibling]
                items.append((ev.opsets[cls.omega_foreground if fg else cls.omega_background][t], u))
                outside[child] = np.empty((n, n_patterns), order="F")
                out.append(outside[child])
            self.engine.counters["clv_propagations"] += len(items)
            self.engine._propagate_transposed_level(items, self.pi, out)
            for (_, u), o in zip(items, out):
                total = ones @ u
                total[total == 0.0] = 1.0
                o /= total
        return outside


#: One row's term in a contraction slot: ``(r, child, L, contribution)``.
#: The row's vector ``V`` (the group's row block) weighted by ``r`` per
#: pattern (``None`` when ``V`` is already weighted) meets the child's
#: inside CLV ``L``; ``contribution`` is ``P(t)·L`` under the slot's
#: operator.
_Term = Tuple[Optional[np.ndarray], int, np.ndarray, np.ndarray]

#: Relative step of the value-space probes that find the ω ties.
_TIE_STEP = 2.0 ** -20

#: Bytes per block of the contraction's ``(rows, patterns, n)``
#: temporaries: a block of rows that stays in cache.
_BLOCK_BYTES = 1 << 18

#: Below this ``|λ_i − λ_j|·t_max`` an eigenvalue pair takes the
#: Daleckii–Krein series instead of the divided difference.
_NEAR_GAP = 1e-4

#: Relative step of the operator differences that stand in for the
#: Daleckii–Krein contraction on a decomposition with no eigensystem.
_RATE_STEP = 1e-4


@dataclass
class _LeafColumns:
    """A leaf CLV's columns as state indices, for the gradient pass.

    ``states[p]`` is the one state of a unit column p; ``other`` lists
    the columns that are not unit vectors (missing or ambiguous codons),
    whose ``states`` entry is 0.  ``flat`` indexes a ``(P, n)`` array's
    elements into a flattened ``(n, n)`` one by the row's state (other
    columns' elements into ``n`` spill bins past the end), so one
    weighted ``bincount`` is the scatter-add ``L·Y`` over unit columns.
    """

    states: np.ndarray
    other: np.ndarray
    flat: np.ndarray

    @classmethod
    def of(cls, clv: np.ndarray) -> "_LeafColumns":
        n = clv.shape[0]
        unit = (np.count_nonzero(clv, axis=0) == 1) & (clv.max(axis=0) == 1.0)
        states = np.where(unit, clv.argmax(axis=0), 0)
        rows = np.where(unit, states * n, n * n)
        return cls(
            states=states,
            other=np.flatnonzero(~unit),
            flat=(rows[:, None] + np.arange(n)).ravel(),
        )

    def scatter(self, clv: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``clv @ y`` for a ``(P, n)`` array ``y``, ``(n, n)``."""
        n = clv.shape[0]
        out = np.bincount(self.flat, weights=y.ravel(), minlength=n * n + n)[: n * n]
        out = out.reshape(n, n)
        if self.other.size:
            out += clv[:, self.other] @ y[self.other]
        return out


class _RateContraction:
    """Every derivative of one gradient pass but the proportions'.

    For a branch with operator ``P(t) = Π^{-½} X e^{Λt} Xᵀ Π^{½}`` and a
    rate parameter θ of its symmetric generator ``A = XΛXᵀ``,
    ``Uᵀ ∂P L = Ũᵀ (F(t) ∘ XᵀA′X) L̃`` (Daleckii–Krein) with
    ``Ũ = XᵀΠ^{-½}U``, ``L̃ = XᵀΠ^{½}L`` and
    ``F_ij = (e^{λ_i t} − e^{λ_j t})/(λ_i − λ_j)``.  Weighting pattern p
    by ``r_p = w_p·posterior_p / (Uᵀ P L)_p``, each row of a slot forms
    ``W_b = Σ_terms Ṽ_b diag(r) L̃ᵀ`` from the outside recursion's
    vector ``V_b`` and its terms (:data:`_Term`); then

    * ``∂lnL/∂t_b`` sums ``λ_i e^{λ_i t_b}·(W_b)_ii`` over the slots
      (``∂P/∂t = Q·P`` is diagonal in the eigenbasis);
    * each slot (ω, tie) accumulates ``M = Σ_b F_b ∘ W_b``
      as ``(Σ_b e_{b,i}W_{b,ij} − Σ_b W_{b,ij}e_{b,j})/(λ_i − λ_j)``,
      with ``e_b = e^{λ t_b}``; a pair with ``|λ_i − λ_j|·t_max`` below
      :data:`_NEAR_GAP` (the diagonal and ties included) sums the
      per-row series of ``F`` against its gathered ``W_{b,ij}``.  A
      parameter then costs one inner product ``⟨XᵀA′X, M⟩``.

    ``W_b`` is formed in the order that costs fewer flops, by the
    pattern count P against the n states: with ``P ≤ n`` as above, with
    a leaf's ``L̃`` gathered from rows of ``Π^{½}X``; with ``P > n`` as
    ``XᵀΠ^{-½}·G·Π^{½}X`` with ``G = Σ_terms L diag(r) Vᵀ``, where a
    leaf's product is a scatter-add of columns: one eigenbasis change per
    row and slot.  ``∂P`` and ``F`` are never formed.  Rate derivatives
    hold the common scale fixed (DESIGN.md §9).

    A Padé or uniformization decomposition has no eigensystem: a row
    takes ``∂lnL/∂t`` from ``Vᵀ(Q·contribution)`` and contracts
    ``W_b = Σ_terms V_b diag(r) Lᵀ`` with a central difference of the
    operator, ``⟨∂P_b, W_b⟩``, re-pruning nothing, and the pass records
    a ``rate_derivative_difference`` event.
    """

    def __init__(self, bound: "BoundLikelihood", ev: ClassEvaluation) -> None:
        self.bound = bound
        self.ev = ev
        self.sqrt_pi = np.sqrt(bound.pi)
        #: ``∂lnL/∂t`` per row of ``ev.rows``.
        self.branches = np.zeros(len(ev.rows))
        #: slot (ω, tie) → ω and its accumulated M (spectral only).
        self.slots: Dict[tuple, Tuple[float, np.ndarray]] = {}
        #: slot (ω, tie) → [∂κ, ∂ω] from difference rows.
        self.differenced: Dict[tuple, np.ndarray] = {}
        n, p = bound.engine.code.n_states, bound.n_patterns
        #: Whether rows contract in the codon basis (P > n).
        self.codon_order = p > n
        #: Rows per block: one block's (rows, P, n) temporaries stay
        #: within _BLOCK_BYTES.  The block workspace is allocated once.
        self.step = max(1, _BLOCK_BYTES // (8 * p * n))
        self._w = np.empty((self.step, n, n))
        if self.codon_order:
            self._scaled = np.empty((self.step, p, n))
            self._gt = np.empty((self.step, n, n))
            self._tmp = np.empty((self.step, n, n))
        else:
            self._ut = np.empty((self.step, p, n))
            self._lt = np.empty((self.step, p, n))
        self._e: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        self._basis: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        self._dp: Dict[Tuple[float, float], Tuple[np.ndarray, np.ndarray]] = {}
        self._differenced_omegas: set = set()
        self._generators: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

    def add(self, slot: tuple, block: np.ndarray, rows: List[int], terms: Dict[int, List[_Term]]) -> None:
        """Fold one slot's ``rows`` in: row ri's vector is ``block[ri]``
        (``(P, n)``), its terms ``terms[ri]``; ``slot[0]`` is its ω."""
        omega = slot[0]
        decomp = self.ev.decomps[omega]
        if isinstance(decomp, PadeFallback):
            self._add_differenced(slot, omega, decomp, block, rows, terms)
        else:
            self._add_spectral(slot, omega, block, rows, terms)

    def _add_spectral(self, slot: tuple, omega: float, block, rows: List[int], terms) -> None:
        m = self._accumulate(omega, block, rows, terms)
        found = self.slots.get(slot)
        self.slots[slot] = (omega, m if found is None else found[1] + m)

    def _spans(self, rows: List[int]) -> List[Tuple[int, int]]:
        """``rows`` cut into blocks: runs of consecutive rows, so a
        block's vectors are one slice of the row block, each at most
        ``step`` rows long."""
        cuts = [0] + [k for k in range(1, len(rows)) if rows[k] != rows[k - 1] + 1] + [len(rows)]
        return [
            (lo, min(lo + self.step, end))
            for start, end in zip(cuts, cuts[1:])
            for lo in range(start, end, self.step)
        ]

    def _accumulate(self, omega: float, block, rows: List[int], terms) -> np.ndarray:
        """``M = Σ_b F_b ∘ W_b`` over ``rows``, adding each row's ``∂lnL/∂t``."""
        ev = self.ev
        lam = ev.decomps[omega].eigenvalues
        e_all, rate_all = self._exponentials(omega)
        t = np.array([ev.rows[ri][2] for ri in rows])
        gap = np.subtract.outer(lam, lam)
        near = np.abs(gap) < _NEAR_GAP / max(t.max(), 1e-300)
        ni, nj = np.nonzero(near)
        e_rows = e_all[rows]
        x = np.abs(gap[ni, nj]) * t[:, None]
        series = np.maximum(e_rows[:, ni], e_rows[:, nj]) * t[:, None] * (1.0 - x * (0.5 - x / 6.0))
        left = np.zeros_like(gap)
        right = np.zeros_like(gap)
        near_sum = np.zeros(ni.size)
        for lo, hi in self._spans(rows):
            span = range(rows[lo], rows[hi - 1] + 1)
            w = self._w_block(omega, block, span, terms)
            e = e_all[span.start : span.stop]
            self.branches[span.start : span.stop] += np.einsum("bii,bi->b", w, rate_all[span.start : span.stop])
            left += np.einsum("bi,bij->ij", e, w)
            right += np.einsum("bij,bj->ij", w, e)
            near_sum += np.einsum("bk,bk->k", w[:, ni, nj], series[lo:hi])
        m = left
        m -= right
        with np.errstate(divide="ignore", invalid="ignore"):
            m /= gap
        m[ni, nj] = near_sum
        return m

    def _w_block(self, omega: float, block: np.ndarray, span: range, terms) -> np.ndarray:
        """``W_b`` for the consecutive rows of ``span``, ``(rows, n, n)``,
        in the contraction's workspace (valid until the next block)."""
        basis_u, basis_l = self._bases(omega)
        k = len(span)
        w = self._w[:k]
        vectors = block[span.start : span.stop]
        if not self.codon_order:
            ut = np.matmul(vectors, basis_u, out=self._ut[:k])
            lt = self._lt[:k]
            for j, ri in enumerate(span):
                self._projected(omega, terms[ri], out=lt[j])
            return np.matmul(ut.transpose(0, 2, 1), lt, out=w)
        # Codon basis: Gᵀ = Σ_terms L diag(r) V, then
        # W = (Gᵀ Π^{-½}X)ᵀ Π^{½}X.
        leaves = self.bound._leaf_columns
        gt, tmp = self._gt[:k], self._tmp[:k]
        for j, ri in enumerate(span):
            for i, (r, child, clv, _) in enumerate(terms[ri]):
                v = vectors[j] if r is None else np.multiply(vectors[j], r[:, None], out=self._scaled[j])
                cols = leaves.get(child)
                if cols is not None:
                    g = cols.scatter(clv, v)
                elif i == 0:
                    np.matmul(clv, v, out=gt[j])
                    continue
                else:
                    g = clv @ v
                if i == 0:
                    gt[j] = g
                else:
                    gt[j] += g
        np.matmul(gt, basis_u, out=tmp)
        return np.matmul(tmp.transpose(0, 2, 1), basis_l, out=w)

    # -- eigenbasis pieces ---------------------------------------------
    def _bases(self, omega: float) -> Tuple[np.ndarray, np.ndarray]:
        """``Π^{-½}X`` and ``Π^{½}X`` of decomposition ``omega``."""
        found = self._basis.get(omega)
        if found is None:
            x = self.ev.decomps[omega].eigenvectors
            found = self._basis[omega] = (
                x / self.sqrt_pi[:, None], x * self.sqrt_pi[:, None]
            )
        return found

    def _projected(self, omega: float, row_terms: List[_Term], out: np.ndarray) -> np.ndarray:
        """``Σ_terms diag(r)·LᵀΠ^{½}X`` into ``out``, ``(P, n)``; a
        leaf's ``LᵀΠ^{½}X`` by gathering rows of ``Π^{½}X``."""
        basis_l = self._bases(omega)[1]
        leaves = self.bound._leaf_columns
        for i, (r, child, clv, _) in enumerate(row_terms):
            cols = leaves.get(child)
            if cols is None:
                lt = clv.T @ basis_l
            else:
                lt = basis_l[cols.states]
                if cols.other.size:
                    lt[cols.other] = clv[:, cols.other].T @ basis_l
            if r is not None:
                lt *= r[:, None]
            if i == 0:
                out[...] = lt
            else:
                out += lt
        return out

    def _exponentials(self, omega: float) -> Tuple[np.ndarray, np.ndarray]:
        """``e^{λ t_b}`` and ``λ e^{λ t_b}`` per row of ``ev.rows``, ``(rows, n)``."""
        found = self._e.get(omega)
        if found is None:
            lam = self.ev.decomps[omega].eigenvalues
            e = np.exp(np.multiply.outer([row[2] for row in self.ev.rows], lam))
            found = self._e[omega] = (e, e * lam)
        return found

    def _rate_derivatives(self, omega: float) -> Tuple[np.ndarray, np.ndarray]:
        """``∂A/∂κ`` and ``∂A/∂ω`` of the symmetric generator at fixed scale."""
        ev = self.ev
        pi = self.bound.pi
        out = []
        for d_r in exchangeability_derivatives(
            ev.values["kappa"], omega, self.bound.engine.code
        ):
            a = (self.sqrt_pi[:, None] * d_r) * self.sqrt_pi[None, :]
            np.fill_diagonal(a, -(d_r @ pi))
            out.append(a / ev.scale)
        return out[0], out[1]

    def _generators_for(self, omega: float) -> Tuple[np.ndarray, np.ndarray]:
        """``XᵀA′X`` for κ and ω of decomposition ``omega``."""
        found = self._generators.get(omega)
        if found is None:
            x = self.ev.decomps[omega].eigenvectors
            found = self._generators[omega] = tuple(
                x.T @ a @ x for a in self._rate_derivatives(omega)
            )
        return found

    # -- no eigensystem ------------------------------------------------
    def _add_differenced(self, slot: tuple, omega: float, decomp, block, rows, terms) -> None:
        acc = self.differenced.setdefault(slot, np.zeros(2))
        for ri in rows:
            t = self.ev.rows[ri][2]
            v = block[ri].T
            w = np.zeros((v.shape[0], v.shape[0]))
            for r, _, clv, contribution in terms[ri]:
                vr = v if r is None else v * r
                # P′ = Q·P(t) on the rung's repaired forward operator.
                self.branches[ri] += np.vdot(vr, decomp.q @ contribution)
                w += vr @ clv.T
            d_kappa, d_omega = self._operator_difference(omega, decomp, t)
            acc += (np.vdot(d_kappa, w), np.vdot(d_omega, w))

    def _operator_difference(self, omega: float, decomp, t: float):
        """Central differences of ``P(t)`` in κ and ω, from the rung that
        serves this decomposition (Padé, else uniformization)."""
        key = (omega, t)
        found = self._dp.get(key)
        if found is not None:
            return found
        if omega not in self._differenced_omegas:
            self._differenced_omegas.add(omega)
            self.bound.engine.events.record(
                "rate_derivative_difference", "gradient",
                f"no eigensystem for omega={omega:g} ({decomp.rung}): "
                "kappa/omega derivatives by operator differences",
                omega=float(omega), engine=self.bound.engine.name,
            )
        pi = decomp.pi
        values = (self.ev.values["kappa"], omega)
        diffs = []
        for i, a_prime in enumerate(self._rate_derivatives(omega)):
            # A′ = Π^{½} Q′ Π^{-½}: back to the generator's own basis.
            q_prime = (a_prime / self.sqrt_pi[:, None]) * self.sqrt_pi[None, :]
            h = _RATE_STEP * max(abs(values[i]), 1.0)
            up = self._probability(decomp.q + h * q_prime, pi, t)
            down = self._probability(decomp.q - h * q_prime, pi, t)
            diffs.append((up - down) / (2.0 * h))
        found = self._dp[key] = (diffs[0], diffs[1])
        return found

    def _probability(self, q: np.ndarray, pi: np.ndarray, t: float) -> np.ndarray:
        try:
            return guard_transition_matrix(transition_matrix_scipy(q, t), None, t=t)
        except (ValueError, ArithmeticError, np.linalg.LinAlgError, RuntimeWarning):
            return UniformizedOperator(q, pi, tol=UNIFORMIZATION_TOL).transition_matrix(t)

    # ------------------------------------------------------------------
    def derivatives(self) -> Tuple[float, np.ndarray]:
        """``(∂lnL/∂κ, ∂lnL/∂ω)``, the latter ``(n_classes, 2)`` as
        (background, foreground) per class: each tie group's derivative
        on its first member, 0 on the rest."""
        d_omega = np.zeros((self.ev.graph.n_classes, 2))
        flat = d_omega.reshape(-1)
        d_kappa = 0.0
        for (_, tie), (omega, m) in self.slots.items():
            g_kappa, g_omega = self._generators_for(omega)
            d_kappa += float(np.vdot(g_kappa, m))
            flat[tie] += float(np.vdot(g_omega, m))
        for (_, tie), (dk, dw) in self.differenced.items():
            d_kappa += float(dk)
            flat[tie] += float(dw)
        return d_kappa, d_omega


class _CountContraction(_RateContraction):
    """Posterior expected synonymous and non-synonymous substitution
    counts per row, on the gradient's outside recursion.

    For a set L of labelled transitions (the synonymous or the
    non-synonymous codon pairs) on a branch,
    ``E[N_L | data] = Uᵀ D(t)[Q_L] L / Uᵀ P(t) L`` per pattern (Minin &
    Suchard 2008), where ``D(t)[Q_L]`` is the derivative of ``P(t)`` in
    the direction of ``Q_L``, the labelled off-diagonal part of the
    class's scaled Q.  That is a rate derivative with
    ``A′ = A_L = Π^{½}Q_LΠ^{-½}``, contracted per row instead of summed
    over rows: with the gradient's weights, row b's count is
    ``⟨W_b, F_b ∘ B_L⟩``, ``B_L = XᵀA_L X``, so a slot is an operator
    alone (ω), every class of it summed in one ``W_b``.  A foreground
    row also keeps it per pattern,
    ``colsum(Ṽ_b ∘ ((F_b ∘ B_L)·Σ_terms diag(r) L̃))``.

    A count is read per row, so ``F_b`` is formed per row, in the form
    ``F_{b,ij} = e^{max(λ_i, λ_j) t}·t·(1 − e^{−x})/x`` with
    ``x = |λ_i − λ_j|·t`` (``expm1``), which loses no digits at any gap:
    the gradient's shared near-gap threshold, set by the longest row,
    would leave a short row's divided differences to cancel.

    A Padé decomposition has no eigensystem: its rows take
    ``D(t)[Q_L]`` from :func:`scipy.linalg.expm_frechet` on its Q, and
    the pass records one ``count_frechet`` event per ω.
    """

    def __init__(self, bound: "BoundLikelihood", ev: ClassEvaluation) -> None:
        super().__init__(bound, ev)
        #: (syn, nonsyn) per row of ``ev.rows``, weighted by ``r``.
        self.totals = np.zeros((len(ev.rows), 2))
        #: (syn, nonsyn) per pattern, summed over the foreground rows.
        self.foreground = np.zeros((2, bound.n_patterns))
        table = classification_table(bound.engine.code)
        self._masks = np.stack([table.synonymous, table.single & ~table.synonymous])
        self._labelled_basis: Dict[float, np.ndarray] = {}
        self._frechet: Dict[Tuple[float, float], np.ndarray] = {}

    def _labelled(self, omega: float) -> np.ndarray:
        """``Q_L`` of decomposition ``omega`` for (syn, nonsyn), ``(2, n, n)``."""
        return self.ev.matrices[omega].q * self._masks

    def _eigen_labelled(self, omega: float) -> np.ndarray:
        """``B_L = XᵀA_L X`` for (syn, nonsyn), ``(2, n, n)``."""
        found = self._labelled_basis.get(omega)
        if found is None:
            x = self.ev.decomps[omega].eigenvectors
            a = self.sqrt_pi[:, None] * self._labelled(omega) / self.sqrt_pi[None, :]
            found = self._labelled_basis[omega] = x.T @ a @ x
        return found

    def _divided(self, omega: float, ri: int) -> np.ndarray:
        """``F_b`` of row ``ri`` under decomposition ``omega``, ``(n, n)``."""
        t = self.ev.rows[ri][2]
        lam = self.ev.decomps[omega].eigenvalues
        e = self._exponentials(omega)[0][ri]
        x = np.abs(np.subtract.outer(lam, lam)) * t
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(x > 0.0, -np.expm1(-x) / x, 1.0)
        return np.maximum.outer(e, e) * t * g

    def _add_spectral(self, slot: tuple, omega: float, block, rows: List[int], terms) -> None:
        b = self._eigen_labelled(omega)
        flat = b.reshape(2, -1).T
        divided = {ri: self._divided(omega, ri) for ri in rows}
        for lo, hi in self._spans(rows):
            span = range(rows[lo], rows[hi - 1] + 1)
            w = self._w_block(omega, block, span, terms)
            w *= np.stack([divided[ri] for ri in span])
            self.totals[span.start : span.stop] += w.reshape(hi - lo, -1) @ flat
        basis_u = self._bases(omega)[0]
        for ri in rows:
            if not self.ev.rows[ri][3]:
                continue
            fb = divided[ri] * b
            ut = block[ri] @ basis_u
            lt = self._projected(omega, terms[ri], out=np.empty_like(ut))
            self.foreground += np.einsum("lpi,pi->lp", lt @ fb.transpose(0, 2, 1), ut)

    def _add_differenced(self, slot: tuple, omega: float, decomp, block, rows, terms) -> None:
        if omega not in self._differenced_omegas:
            self._differenced_omegas.add(omega)
            self.bound.engine.events.record(
                "count_frechet", "mapping",
                f"no eigensystem for omega={omega:g} ({decomp.rung}): "
                "expected counts by expm_frechet",
                omega=float(omega), engine=self.bound.engine.name,
            )
        for ri in rows:
            _, _, t, fg = self.ev.rows[ri]
            d = self._frechet.get((omega, t))
            if d is None:
                d = self._frechet[(omega, t)] = np.stack([
                    expm_frechet(decomp.q * t, q_l * t, compute_expm=False)
                    for q_l in self._labelled(omega)
                ])
            v = block[ri].T
            for r, _, clv, _ in terms[ri]:
                vr = v if r is None else v * r
                self.totals[ri] += np.einsum("lij,ij->l", d, vr @ clv.T)
                if fg:
                    self.foreground += np.einsum("ip,lip->lp", vr, d @ clv)


_ENGINES = {cls.name: cls for cls in (BaselineEngine, SlimEngine, SlimV2Engine)}

#: The engine ``run``, ``scan`` and the batch API run.  ``codeml`` and
#: ``slim`` stay reachable through :func:`make_engine` for the paper's
#: kernel comparisons.
PIPELINE_ENGINE = SlimV2Engine.name


def make_engine(name: str, **kwargs) -> LikelihoodEngine:
    """Engine factory by name (see module docstring table)."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {sorted(_ENGINES)}"
        ) from None
    return cls(**kwargs)
