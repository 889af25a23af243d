"""Machine-readable (JSON) serialisation of analysis results.

Genome-scale pipelines (Selectome-style) archive per-gene results for
downstream aggregation; the ``mlc``-style text report is for humans.
This module round-trips :class:`FitResult`, :class:`BranchSiteTest` and
:class:`LRTResult` through plain JSON-compatible dicts with a schema
version, so archives stay readable across library versions.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Union

import numpy as np

from repro.optimize.lrt import LRTResult
from repro.optimize.ml import BranchSiteTest, FitResult

__all__ = [
    "SCHEMA_VERSION",
    "fit_to_dict",
    "fit_from_dict",
    "branch_site_test_to_dict",
    "branch_site_test_from_dict",
    "write_json_result",
    "read_json_result",
    "gene_result_to_dict",
    "gene_result_from_dict",
    "ResultJournal",
]

PathLike = Union[str, os.PathLike]

#: Bump when the serialised layout changes incompatibly.
SCHEMA_VERSION = 1

#: Journal format version, recorded in the JSONL header record.  Bump on
#: *additive* growth (new record keys, new record kinds); the reader
#: skips unknown keys and unknown kinds, so older journals — including
#: headerless v1 journals from before this field existed — stay
#: resumable.  Version 2 added the header itself and per-record worker
#: identity; version 3 added per-gene numerical-recovery ``diagnostics``;
#: version 4 added per-gene incremental-evaluation ``clv_stats``;
#: version 5 added ``setup_seconds`` (broadcast-context cold start);
#: version 6 added the ``model`` spec string (``None``/absent = the
#: historical branch-site model A — survey scans record which test ran);
#: version 7 added ``rung_usage`` (per-ladder-rung operator-build
#: counts when recovery ran) and ``mapping`` (stochastic substitution
#: mapping payload from ``--map``) — both ``None``/absent when off;
#: version 8 grew the ``mapping`` payload additively (``mapping_ci``
#: normal-approximation confidence intervals, ``seconds``, ``method``)
#: and added ``h1_mles`` (the H1 maximum-likelihood point the
#: coordinator's ``--map`` pass re-binds at; written for every successful
#: task, while older v8+ writers kept it only for ``scan --survey
#: --map`` — the reader treats absence as ``None``); version 9 added
#: ``converged`` (per-hypothesis ``{"h0": bool, "h1": bool}``; absent on
#: older records, which read back as unknown, ``None``); version 10
#: replaced ``clv_stats``, ``setup_seconds`` and ``rung_usage`` with one
#: open ``metrics`` map (the task's engine counters plus ``setup_s`` and
#: ``cold_starts``).  The reader maps the three older fields into
#: ``metrics`` (:func:`_legacy_metrics`), and keys it has never seen are
#: kept as they are, so a new counter needs no version bump.
JOURNAL_VERSION = 10


def fit_to_dict(fit: FitResult) -> Dict:
    """Serialise one fit (arrays become lists, floats stay exact via repr)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "fit",
        "model": fit.model_name,
        "engine": fit.engine_name,
        "lnl": fit.lnl,
        "values": dict(fit.values),
        "branch_lengths": [float(t) for t in fit.branch_lengths],
        "n_iterations": fit.n_iterations,
        "n_evaluations": fit.n_evaluations,
        "runtime_seconds": fit.runtime_seconds,
        "converged": fit.converged,
        "message": fit.message,
        "diagnostics": (
            fit.diagnostics.to_dict()
            if fit.diagnostics.recovered or fit.diagnostics.boundary_flags
            else None
        ),
    }


def fit_from_dict(payload: Dict) -> FitResult:
    """Inverse of :func:`fit_to_dict` (history is not archived)."""
    from repro.core.recovery import FitDiagnostics

    _check(payload, "fit")
    return FitResult(
        model_name=payload["model"],
        engine_name=payload["engine"],
        lnl=float(payload["lnl"]),
        values={k: float(v) for k, v in payload["values"].items()},
        branch_lengths=np.asarray(payload["branch_lengths"], dtype=float),
        n_iterations=int(payload["n_iterations"]),
        n_evaluations=int(payload["n_evaluations"]),
        runtime_seconds=float(payload["runtime_seconds"]),
        converged=bool(payload["converged"]),
        message=payload["message"],
        diagnostics=FitDiagnostics.from_dict(payload.get("diagnostics")),
    )


def _lrt_to_dict(lrt: LRTResult) -> Dict:
    return {
        "lnl_null": lrt.lnl_null,
        "lnl_alternative": lrt.lnl_alternative,
        "statistic": lrt.statistic,
        "df": lrt.df,
        "pvalue_chi2": lrt.pvalue_chi2,
        "pvalue_mixture": lrt.pvalue_mixture,
    }


def _lrt_from_dict(payload: Dict) -> LRTResult:
    return LRTResult(
        lnl_null=float(payload["lnl_null"]),
        lnl_alternative=float(payload["lnl_alternative"]),
        statistic=float(payload["statistic"]),
        df=int(payload["df"]),
        pvalue_chi2=float(payload["pvalue_chi2"]),
        pvalue_mixture=float(payload["pvalue_mixture"]),
    )


def branch_site_test_to_dict(test: BranchSiteTest) -> Dict:
    """Serialise a full H0+H1 analysis."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "branch_site_test",
        "h0": fit_to_dict(test.h0),
        "h1": fit_to_dict(test.h1),
        "lrt": _lrt_to_dict(test.lrt),
    }


def branch_site_test_from_dict(payload: Dict) -> BranchSiteTest:
    """Inverse of :func:`branch_site_test_to_dict`."""
    _check(payload, "branch_site_test")
    return BranchSiteTest(
        h0=fit_from_dict(payload["h0"]),
        h1=fit_from_dict(payload["h1"]),
        lrt=_lrt_from_dict(payload["lrt"]),
    )


def _check(payload: Dict, kind: str) -> None:
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {payload.get('schema')!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    if payload.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} payload, got {payload.get('kind')!r}")


def write_json_result(
    destination: PathLike, result: Union[FitResult, BranchSiteTest]
) -> None:
    """Write a fit or full test to a JSON file."""
    payload = (
        branch_site_test_to_dict(result) if isinstance(result, BranchSiteTest) else fit_to_dict(result)
    )
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json_result(source: PathLike) -> Union[FitResult, BranchSiteTest]:
    """Read a JSON result, dispatching on its ``kind`` field."""
    with open(source, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    kind = payload.get("kind")
    if kind == "fit":
        return fit_from_dict(payload)
    if kind == "branch_site_test":
        return branch_site_test_from_dict(payload)
    raise ValueError(f"unknown result kind {kind!r}")


# ----------------------------------------------------------------------
# Gene-result journal (checkpoint/resume for batch scans)
# ----------------------------------------------------------------------
def gene_result_to_dict(result) -> Dict:
    """Serialise a :class:`~repro.parallel.batch.GeneResult` (one JSONL record).

    Non-finite floats (a failed task's NaN likelihoods) become ``None``
    so the payload is strict JSON — ``json.dumps`` would otherwise emit
    the non-standard ``NaN`` token.
    """
    failure = None
    if result.failure is not None:
        failure = {
            "task_id": result.failure.task_id,
            "kind": result.failure.kind,
            "error_type": result.failure.error_type,
            "message": result.failure.message,
            "attempts": result.failure.attempts,
        }
    return _nan_to_none({
        "schema": SCHEMA_VERSION,
        "kind": "gene_result",
        "gene_id": result.gene_id,
        "lnl0": result.lnl0,
        "lnl1": result.lnl1,
        "statistic": result.statistic,
        "pvalue": result.pvalue,
        "iterations": result.iterations,
        "n_evaluations": result.n_evaluations,
        "runtime_seconds": result.runtime_seconds,
        "attempts": result.attempts,
        "error": result.error,
        "failure": failure,
        "worker": getattr(result, "worker", None),
        "diagnostics": getattr(result, "diagnostics", None),
        "metrics": dict(result.metrics),
        "model": getattr(result, "model", None),
        "mapping": getattr(result, "mapping", None),
        "h1_mles": getattr(result, "h1_mles", None),
        "converged": getattr(result, "converged", None),
    })


def gene_result_from_dict(payload: Dict):
    """Inverse of :func:`gene_result_to_dict` (``None`` numerics → NaN)."""
    # Imported lazily: repro.parallel.batch imports this module at top level.
    from repro.parallel.batch import GeneResult
    from repro.parallel.faults import TaskFailure

    _check(payload, "gene_result")
    payload = _none_to_nan(payload)
    failure = None
    if payload.get("failure") is not None:
        raw = payload["failure"]
        failure = TaskFailure(
            task_id=raw["task_id"],
            kind=raw["kind"],
            error_type=raw["error_type"],
            message=raw["message"],
            attempts=int(raw["attempts"]),
        )
    # Keys this reader does not know (written by a newer library) are
    # simply not looked at, so journal records can grow new fields
    # without breaking resume on older code.
    return GeneResult(
        gene_id=payload["gene_id"],
        lnl0=float(payload["lnl0"]),
        lnl1=float(payload["lnl1"]),
        statistic=float(payload["statistic"]),
        pvalue=float(payload["pvalue"]),
        iterations=int(payload["iterations"]),
        runtime_seconds=float(payload["runtime_seconds"]),
        error=payload.get("error"),
        n_evaluations=int(payload.get("n_evaluations", 0)),
        attempts=int(payload.get("attempts", 1)),
        failure=failure,
        worker=payload.get("worker"),
        diagnostics=payload.get("diagnostics"),
        metrics={**_legacy_metrics(payload), **(payload.get("metrics") or {})},
        model=payload.get("model"),
        mapping=payload.get("mapping"),
        h1_mles=payload.get("h1_mles"),
        converged=payload.get("converged"),
    )


def _legacy_metrics(payload: Dict) -> Dict[str, float]:
    """The v4–v9 counter fields of a record as ``metrics`` keys.

    v4 ``clv_stats`` → ``clv_propagations``/``clv_reuses``; v5
    ``setup_seconds`` (when non-zero) → ``setup_s`` plus
    ``cold_starts: 1``; v7 ``rung_usage`` → one ``rung_<name>`` key
    per rung.
    """
    metrics: Dict[str, float] = {}
    clv = payload.get("clv_stats") or {}
    for old, new in (("propagations", "clv_propagations"), ("reuses", "clv_reuses")):
        if old in clv:
            metrics[new] = clv[old]
    setup = payload.get("setup_seconds") or 0.0
    if setup > 0.0:
        metrics.update(setup_s=setup, cold_starts=1)
    for rung, count in (payload.get("rung_usage") or {}).items():
        metrics[f"rung_{rung}"] = count
    return metrics


class ResultJournal:
    """Append-only JSONL journal of per-gene scan results.

    One JSON object per line; completed results are appended (and the
    stream flushed + fsynced) as soon as each task finishes, so a
    scan killed mid-batch leaves a journal from which a resumed run
    recomputes only the unfinished genes.  A truncated final line — the
    signature of a mid-write kill — is tolerated on read.

    A fresh journal starts with a ``journal_header`` record carrying a
    ``version`` field (:data:`JOURNAL_VERSION`).  The reader skips the
    header, skips record kinds it does not recognise, and record
    parsing ignores unknown keys — so journals survive schema growth
    in both directions: headerless v1 journals resume on this code,
    and a v2 journal with fields a v1 reader never heard of resumes
    there too.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self._handle = None

    # -- writing --------------------------------------------------------
    def append(self, result) -> None:
        """Durably append one result (non-finite floats survive as JSON nulls)."""
        if self._handle is None:
            fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                header = {
                    "kind": "journal_header",
                    "schema": SCHEMA_VERSION,
                    "version": JOURNAL_VERSION,
                    "writer": "slimcodeml",
                }
                self._handle.write(json.dumps(header, sort_keys=True) + "\n")
        payload = gene_result_to_dict(result)
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading --------------------------------------------------------
    def load(self) -> list:
        """All parseable results, journal order (later duplicates win on id).

        Header records and record kinds this reader does not know are
        skipped (forward compatibility), but a header from a *newer
        major* journal version is refused outright — the one fence
        against silently misreading a future incompatible layout.
        """
        results = []
        if not os.path.exists(self.path):
            return results
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    continue  # truncated final record from a killed run
                raise ValueError(
                    f"{self.path}:{lineno + 1}: corrupt journal record"
                ) from None
            kind = payload.get("kind") if isinstance(payload, dict) else None
            if kind == "journal_header":
                version = payload.get("version", 1)
                if isinstance(version, int) and version > JOURNAL_VERSION:
                    raise ValueError(
                        f"{self.path}: journal version {version} is newer than "
                        f"this library supports ({JOURNAL_VERSION})"
                    )
                continue
            if kind != "gene_result":
                continue  # unknown record kind from a newer writer
            results.append(gene_result_from_dict(payload))
        return results

    def completed(self) -> Dict[str, object]:
        """``gene_id`` → latest *successful* result (resume skips these)."""
        done: Dict[str, object] = {}
        for result in self.load():
            if not result.failed:
                done[result.gene_id] = result
            else:
                # A later failure supersedes an earlier success (e.g. a
                # forced re-run) so resume recomputes the gene.
                done.pop(result.gene_id, None)
        return done


def _nan_to_none(value):
    """Recursively map non-finite floats to ``None`` for strict-JSON output."""
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _nan_to_none(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nan_to_none(v) for v in value]
    return value


def _none_to_nan(payload: Dict) -> Dict:
    """Restore journalled ``None`` numerics to NaN for the float fields."""
    out = dict(payload)
    for key in ("lnl0", "lnl1", "statistic", "pvalue"):
        if out.get(key) is None:
            out[key] = float("nan")
    return out
