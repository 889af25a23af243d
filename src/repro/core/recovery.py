"""Numerical self-healing: event taxonomy, typed errors, ladder constants.

The paper's claim (§II-C1) is that the symmetrised eigenpath is the
numerically *well-conditioned* route to ``P(t) = e^{Qt}``.  This module
is what the rest of the library uses to notice when that promise is
violated and to recover instead of failing — the way gcodeml (Moretti
et al., arXiv:1203.3092) restarts failed codeml runs, and in the spirit
of Woodhams et al. (arXiv:1709.05079), who show codon-model matrix
paths do go numerically bad in practice.

Four cooperating pieces:

* :class:`NumericalEvent` / :class:`NumericalEventRecorder` — every
  guard trigger and fallback is recorded as a structured event, so a
  genome scan can report *which* genes needed recovery and why.
* :class:`NumericalError` — a typed ``ValueError`` subclass carrying
  site-pattern/branch context.  Being a ``ValueError`` means the
  optimizer's existing barrier logic (``except ValueError → +inf``)
  keeps working unchanged; being *typed* means callers and tests can
  tell a diagnosed numerical fault from a plain validation error.
* The guards — :func:`guard_transition_matrix`,
  :func:`guard_symmetric_operator`, :class:`PruningGuard` — and
  :func:`screen_operator_stack`, the vectorised pass that decides which
  blocks of a stacked operator build need a guard at all.
* The ladder constants (``RESIDUAL_TOL`` … ``PERTURB_SCALE``)
  and :func:`perturb_start`, the optimizer's seeded restart draw.

Always-on contract: every engine, every fit and every batch task runs
guarded; there is no unguarded mode.  A guard acts only on an operator
or CLV that is already broken — a healthy one is read, never rewritten —
so wherever nothing is broken the likelihoods are bit-identical to the
bare kernels'.  The cost is one screen per
operator stack instead of one Python guard call per branch operator
(DESIGN.md §8 records the measured overhead).

Event taxonomy (``NumericalEvent.kind``)
----------------------------------------
``eigh_failure``          LAPACK eigensolver raised (per-rung).
``eigh_residual``         ``‖A − XΛXᵀ‖`` residual check failed (per-rung).
``eigh_fallback``         decomposition served by a lower rung of the
                          ladder (``detail`` names the rung: ``ev`` or
                          ``pade``).
``uniformization_fallback``  a branch operator whose Padé ``P(t)``
                          failed its guard was served by the
                          uniformized kernel instead — rung 4
                          (:mod:`repro.core.uniformization`).
``ladder_exhausted``      every rung — spectral, Padé *and* the
                          uniformized kernel — failed for one branch
                          operator; the single structured event carries
                          the per-rung residuals/errors and the matching
                          :class:`NumericalError` is raised.
``pt_negative_clamped``   P(t) entries below zero but within tolerance
                          were clamped.
``pt_row_renormalized``   P(t) row sums drifted beyond tolerance and the
                          rows were renormalised.
``pt_row_drift``          symmetric-operator row sums drifted beyond
                          tolerance (recorded; renormalising would break
                          the symmetry the BLAS kernel relies on).
``pt_invalid``            P(t) was unrecoverable (non-finite / far from
                          stochastic) — raised as :class:`NumericalError`.
``clv_zero_column``       a pattern column went entirely zero during
                          pruning (underflow past rescue, or genuinely
                          impossible data under the current parameters).
``clv_nonfinite``         NaN/Inf appeared in a CLV during pruning.
``mixture_nonfinite``     NaN or +Inf in a per-class site log-likelihood.
``nonfinite_start``       the objective was non-finite at an optimizer
                          start point.
``optimizer_restart``     the optimizer was restarted from a perturbed
                          start point (``detail`` says why).
``boundary_parked``       a converged fit left parameters parked on
                          their transform walls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

__all__ = [
    "NumericalEvent",
    "NumericalEventRecorder",
    "NumericalError",
    "FitDiagnostics",
    "PruningGuard",
    "guard_transition_matrix",
    "guard_symmetric_operator",
    "screen_operator_stack",
    "perturb_start",
]

#: JSON-representable context value.
ContextValue = Union[str, int, float, bool, None]


@dataclass(frozen=True)
class NumericalEvent:
    """One structured record of a guard trigger or recovery action.

    ``kind`` is drawn from the module-level taxonomy; ``where`` names
    the subsystem that fired (``eigen``, ``expm``, ``pruning``,
    ``mixture``, ``optimizer``); ``context`` carries the numerical
    scene — ω, t, node/pattern indices — as JSON-friendly scalars.
    """

    kind: str
    where: str
    detail: str = ""
    context: Mapping[str, ContextValue] = field(default_factory=dict)

    def describe(self) -> str:
        ctx = ", ".join(f"{k}={v}" for k, v in self.context.items())
        bits = [f"[{self.where}] {self.kind}"]
        if self.detail:
            bits.append(f": {self.detail}")
        if ctx:
            bits.append(f" ({ctx})")
        return "".join(bits)

    def to_dict(self) -> Dict[str, ContextValue]:
        payload: Dict = {"kind": self.kind, "where": self.where}
        if self.detail:
            payload["detail"] = self.detail
        if self.context:
            payload["context"] = dict(self.context)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "NumericalEvent":
        return cls(
            kind=str(payload["kind"]),
            where=str(payload.get("where", "")),
            detail=str(payload.get("detail", "")),
            context=dict(payload.get("context", {})),
        )


class NumericalEventRecorder:
    """Append-only sink for :class:`NumericalEvent` records.

    Every engine owns one of these; the optimizer and
    the batch layer read it back to build per-fit / per-gene diagnostics.
    """

    def __init__(self) -> None:
        self.events: List[NumericalEvent] = []

    def record(
        self, kind: str, where: str, detail: str = "", **context: ContextValue
    ) -> NumericalEvent:
        event = NumericalEvent(kind=kind, where=where, detail=detail, context=context)
        self.events.append(event)
        return event

    def counts(self) -> Dict[str, int]:
        """Event kind → occurrence count."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def since(self, mark: int) -> List[NumericalEvent]:
        """Events recorded after position ``mark`` (see :meth:`mark`)."""
        return list(self.events[mark:])

    def mark(self) -> int:
        """Current position, for later :meth:`since` slicing."""
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[NumericalEvent]:
        return iter(self.events)


class NumericalError(ValueError):
    """A *diagnosed* numerical failure with structured context.

    Subclasses :class:`ValueError` so the optimizer's existing
    ``except (ValueError, FloatingPointError) → +inf`` barrier treats a
    diagnosed fault exactly like the legacy undiagnosed one — but the
    context (site-pattern / branch / parameter scene) survives on the
    exception and, when a recorder is attached, in the event stream.
    """

    def __init__(
        self,
        message: str,
        *,
        where: str = "",
        context: Optional[Mapping[str, ContextValue]] = None,
    ) -> None:
        super().__init__(message)
        self.where = where
        self.context: Dict[str, ContextValue] = dict(context or {})

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.context:
            ctx = ", ".join(f"{k}={v}" for k, v in self.context.items())
            return f"{base} ({ctx})"
        return base


# ----------------------------------------------------------------------
# Ladder constants (one value each; the guards run on every evaluation)
# ----------------------------------------------------------------------
# Tolerances are chosen so a *healthy* evaluation never trips a guard:
# double-precision eigendecomposition residuals and row-sum drift sit
# around 1e-14, orders below every threshold here — which is what keeps
# guarded evaluation bit-identical to the bare kernels on clean data.

#: Relative residual ``‖A − XΛXᵀ‖_max / max(1, ‖A‖_max)`` above which a
#: decomposition is rejected and the next rung tried.
RESIDUAL_TOL = 1e-9
#: P(t) rows whose sums deviate from 1 by more than this are
#: renormalised (and the event recorded).
ROW_SUM_TOL = 1e-8
#: Row-sum deviation beyond this is unrecoverable: hard error.
ROW_SUM_ERROR = 1e-3
#: P(t) entries below ``-NEGATIVE_TOL`` are a hard error; entries in
#: ``[-NEGATIVE_TOL, 0)`` are clamped to zero.
NEGATIVE_TOL = 1e-8
#: Poisson-tail truncation bound for the uniformized series (rung 4).
UNIFORMIZATION_TOL = 1e-12
#: Optimizer restart budget across all triggers within one fit.
MAX_RESTARTS = 3
#: Std-dev of a restart's Gaussian start perturbation, relative to
#: ``|x| + 0.1`` per unconstrained coordinate.
PERTURB_SCALE = 0.25


def perturb_start(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A perturbed copy of unconstrained start vector ``x`` (restart draw).

    Draws from the fit's own seeded RNG (:mod:`repro.utils.rng`), so a
    restart is reproducible from the same master seed, per the paper's
    fixed-seed fairness rule (§IV).
    """
    x = np.asarray(x, dtype=float)
    sigma = PERTURB_SCALE * (np.abs(x) + 0.1)
    return x + rng.normal(0.0, 1.0, size=x.shape) * sigma


@dataclass
class FitDiagnostics:
    """Convergence diagnostics riding on a :class:`~repro.optimize.ml.FitResult`.

    Serialises to a flat JSON dict so it travels through gene-result
    journals and batch summaries unchanged.
    """

    #: Optimizer restarts performed (0 on the healthy path).
    restarts: int = 0
    #: Names of parameters parked on their transform walls at the optimum
    #: (e.g. ``"omega2"``, ``"branch[3]"``).
    boundary_flags: List[str] = field(default_factory=list)
    #: Numerical events recorded during this fit (engine + optimizer).
    events: List[NumericalEvent] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """True when any recovery machinery actually fired."""
        return self.restarts > 0 or bool(self.events)

    def event_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def describe(self) -> str:
        bits = []
        if self.restarts:
            bits.append(f"{self.restarts} restart{'s' if self.restarts != 1 else ''}")
        if self.boundary_flags:
            bits.append("at bounds: " + ",".join(self.boundary_flags))
        counts = self.event_counts()
        if counts:
            bits.append(
                "events: " + ", ".join(f"{k}x{v}" for k, v in sorted(counts.items()))
            )
        return "; ".join(bits) if bits else "clean"

    def to_dict(self) -> Dict:
        return {
            "restarts": self.restarts,
            "boundary_flags": list(self.boundary_flags),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Optional[Mapping]) -> "FitDiagnostics":
        if not payload:
            return cls()
        return cls(
            restarts=int(payload.get("restarts", 0)),
            boundary_flags=list(payload.get("boundary_flags", [])),
            events=[NumericalEvent.from_dict(e) for e in payload.get("events", [])],
        )


@dataclass
class PruningGuard:
    """CLV sanity checks threaded into the level-order pruning pass.

    Carries the recorder plus whatever identifying context the engine
    knows (site-class label, ω), so a diagnosed fault names the exact
    scene: *which class, which node, which patterns*.
    """

    recorder: Optional[NumericalEventRecorder] = None
    context: Dict[str, ContextValue] = field(default_factory=dict)

    def fail(self, kind: str, message: str, **context: ContextValue) -> "NumericalError":
        """Record ``kind`` and build the matching typed error (not raised here)."""
        merged = {**self.context, **context}
        if self.recorder is not None:
            self.recorder.record(kind, "pruning", message, **merged)
        return NumericalError(message, where="pruning", context=merged)


# ----------------------------------------------------------------------
# Transition-operator guards
# ----------------------------------------------------------------------
def _summarize_indices(indices: np.ndarray, limit: int = 8) -> str:
    idx = [int(i) for i in np.atleast_1d(indices)[:limit]]
    more = np.atleast_1d(indices).shape[0] - len(idx)
    return str(idx) + (f" (+{more} more)" if more > 0 else "")


def guard_transition_matrix(
    p: np.ndarray,
    recorder: Optional[NumericalEventRecorder],
    *,
    t: float,
    where: str = "expm",
    **context: ContextValue,
) -> np.ndarray:
    """Validate/repair a reconstructed ``P(t)`` (stochastic matrix).

    In order: non-finite entries are a hard error; entries below
    ``-NEGATIVE_TOL`` are a hard error and tiny negatives are clamped;
    row sums within ``ROW_SUM_TOL`` of 1 are left untouched (bit-identity
    on the healthy path), drift up to ``ROW_SUM_ERROR`` is renormalised
    with an event, and anything beyond is a hard error.  May modify
    ``p`` in place; returns it.

    Stacked builds only reach this guard for the blocks that
    :func:`screen_operator_stack` flags: a new trigger added here must
    be added to the screen too, or stacked blocks will skip it.
    """
    ctx: Dict[str, ContextValue] = {"t": float(t), **context}
    if not np.all(np.isfinite(p)):
        bad = np.argwhere(~np.isfinite(p))
        if recorder is not None:
            recorder.record("pt_invalid", where, "non-finite entries in P(t)", **ctx)
        raise NumericalError(
            f"P(t) has {bad.shape[0]} non-finite entries "
            f"(first at {tuple(int(v) for v in bad[0])})",
            where=where,
            context=ctx,
        )
    min_entry = float(p.min())
    if min_entry < 0.0:
        if min_entry < -NEGATIVE_TOL:
            if recorder is not None:
                recorder.record(
                    "pt_invalid", where,
                    f"P(t) entry {min_entry:.3e} below -{NEGATIVE_TOL:.0e}", **ctx
                )
            raise NumericalError(
                f"P(t) has an entry {min_entry:.3e} far below zero",
                where=where,
                context=ctx,
            )
        if recorder is not None:
            recorder.record(
                "pt_negative_clamped", where,
                f"min entry {min_entry:.3e} clamped to 0", **ctx
            )
        np.maximum(p, 0.0, out=p)
    row_sums = p.sum(axis=1)
    drift = float(np.max(np.abs(row_sums - 1.0)))
    if drift > ROW_SUM_TOL:
        if drift > ROW_SUM_ERROR:
            rows = np.argwhere(np.abs(row_sums - 1.0) > ROW_SUM_ERROR).ravel()
            if recorder is not None:
                recorder.record(
                    "pt_invalid", where,
                    f"row sums off by {drift:.3e} in rows {_summarize_indices(rows)}",
                    **ctx,
                )
            raise NumericalError(
                f"P(t) row sums deviate from 1 by {drift:.3e} "
                f"(rows {_summarize_indices(rows)}) — beyond repair tolerance",
                where=where,
                context=ctx,
            )
        p /= row_sums[:, None]
        if recorder is not None:
            recorder.record(
                "pt_row_renormalized", where,
                f"row-sum drift {drift:.3e} renormalised", **ctx
            )
    return p


def guard_symmetric_operator(
    m: np.ndarray,
    pi: np.ndarray,
    recorder: Optional[NumericalEventRecorder],
    *,
    t: float,
    where: str = "expm",
    **context: ContextValue,
) -> np.ndarray:
    """Validate a symmetric branch operator ``M`` with ``P(t)w = M(Πw)``.

    The stochasticity condition translates to ``M π = 1``.  Unlike the
    plain P(t) guard this never renormalises: scaling rows of ``M``
    would break the exact symmetry the ``dsymv``/``dsymm`` kernels rely
    on, so drift beyond ``ROW_SUM_TOL`` is recorded (``pt_row_drift``)
    and drift beyond ``ROW_SUM_ERROR`` is a hard error.

    As with :func:`guard_transition_matrix`, stacked blocks only get here
    when :func:`screen_operator_stack` flags them, so any new trigger
    must be mirrored in the screen.
    """
    ctx: Dict[str, ContextValue] = {"t": float(t), **context}
    if not np.all(np.isfinite(m)):
        if recorder is not None:
            recorder.record("pt_invalid", where, "non-finite entries in M", **ctx)
        raise NumericalError(
            "symmetric branch operator has non-finite entries", where=where, context=ctx
        )
    row_sums = m @ pi
    drift = float(np.max(np.abs(row_sums - 1.0)))
    if drift > ROW_SUM_TOL:
        if drift > ROW_SUM_ERROR:
            if recorder is not None:
                recorder.record(
                    "pt_invalid", where, f"M·π off by {drift:.3e}", **ctx
                )
            raise NumericalError(
                f"symmetric branch operator drifts from stochasticity by {drift:.3e}",
                where=where,
                context=ctx,
            )
        if recorder is not None:
            recorder.record(
                "pt_row_drift", where,
                f"M·π drift {drift:.3e} (within repair threshold; left symmetric)",
                **ctx,
            )
    return m


def screen_operator_stack(
    stack: np.ndarray, weights: np.ndarray, *, stochastic: bool
) -> np.ndarray:
    """Indices of the blocks of an operator stack that need their guard.

    ``stack`` is an ``(n, n·B)`` stack of B column blocks ``X_b``, each
    of which should satisfy ``X_b · weights = 1``: all-ones weights for
    P(t) blocks (row sums), ``π`` for symmetric blocks (``M π = 1``).
    One vectorised pass over the whole stack flags a block when

    * it holds a non-finite entry;
    * a weighted row sum drifts from 1 by more than ``ROW_SUM_TOL / 2``
      (all B·n sums come from one batched matrix–vector product);
    * ``stochastic`` and its smallest entry is negative.

    The threshold is half the guards' own, so rounding differences
    between this product and a guard's per-block sum cannot hide a
    block the guard would act on.  Every block that
    :func:`guard_transition_matrix` or :func:`guard_symmetric_operator`
    would clamp, renormalise, record or reject is therefore flagged, and
    guarding just the flagged blocks, in order, records the same events
    and makes the same repairs as guarding each block.
    """
    n = stack.shape[0]
    # blocks[b] is X_bᵀ: a C-ordered view of an F-ordered stack, so
    # weights @ blocks[b] = X_b · weights.
    blocks = stack.T.reshape(-1, n, n)
    flat = blocks.reshape(blocks.shape[0], n * n)
    with np.errstate(invalid="ignore", over="ignore"):
        flagged = ~np.isfinite(flat).all(axis=1)
        drift = np.abs(np.matmul(weights, blocks) - 1.0).max(axis=1)
        flagged |= drift > 0.5 * ROW_SUM_TOL
        if stochastic:
            flagged |= flat.min(axis=1) < 0.0
    return np.flatnonzero(flagged)
