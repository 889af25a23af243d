"""Profiling helpers: where does a likelihood evaluation spend its time?

"No optimization without measuring" — the methodology behind the paper
(and behind this reproduction's calibration decisions).  Two levels:

* :func:`profile_call` — cProfile a callable and return the hottest
  functions as structured rows (handy in notebooks and bug reports);
* :func:`evaluation_breakdown` — the engine-level phase split
  (eigendecomposition / matrix exponential / CLV propagation) read off
  the engines' phase-seconds counters, i.e. the decomposition that motivates
  each of the paper's optimizations, plus the branch-gradient pass.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

__all__ = ["HotSpot", "profile_call", "evaluation_breakdown"]


@dataclass(frozen=True)
class HotSpot:
    """One row of a profile: a function and its cumulative cost."""

    function: str
    calls: int
    total_seconds: float
    cumulative_seconds: float


def profile_call(fn: Callable, *args, top: int = 10, **kwargs) -> Tuple[object, List[HotSpot]]:
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns
    -------
    (result, hotspots)
        The callable's return value and the ``top`` functions by
        internal time.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream).sort_stats("tottime")
    hotspots: List[HotSpot] = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda kv: -kv[1][2]
    )[:top]:
        filename, line, name = func
        label = f"{filename.rsplit('/', 1)[-1]}:{line}({name})"
        hotspots.append(
            HotSpot(function=label, calls=nc, total_seconds=tt, cumulative_seconds=ct)
        )
    return result, hotspots


def evaluation_breakdown(engine, bound, values, n_evaluations: int = 3) -> Dict[str, float]:
    """Fractional time per engine phase over ``n_evaluations`` likelihood calls.

    Returns a dict with keys ``eigh``, ``expm``, ``clv`` (fractions of
    their sum) plus ``total_seconds``.  The phases are the growth of the
    engine's ``eigh_s``/``expm_s``/``clv_s`` counters over exactly these
    evaluations.  After each evaluation the gradient is taken at the
    same point, as the optimizer does; ``gradient_seconds`` is the
    growth of ``gradient_s`` over those passes (the outside pass and the
    contraction; they add nothing to the three phases).
    """
    before = dict(engine.counters)
    for _ in range(n_evaluations):
        bound.log_likelihood(values)
        bound.gradient(values)
    phases = {
        label: engine.counters[f"{label}_s"] - before[f"{label}_s"]
        for label in ("eigh", "expm", "clv")
    }
    total = sum(phases.values())
    out = {label: (secs / total if total > 0 else 0.0) for label, secs in phases.items()}
    out["total_seconds"] = total
    out["gradient_seconds"] = engine.counters["gradient_s"] - before["gradient_s"]
    return out
