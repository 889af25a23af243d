"""The JSONL result journal: the one machine-readable archive of scans.

Genome-scale pipelines (Selectome-style) archive per-gene results for
downstream aggregation and resume; the ``mlc``-style text report is for
humans.  Each journal record is one
:class:`~repro.parallel.batch.GeneResult` laid out from the dataclass'
own fields, so a new result field reaches the journal without an edit
here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple, Type, Union, get_args, get_type_hints

__all__ = [
    "SCHEMA_VERSION",
    "gene_result_to_dict",
    "gene_result_from_dict",
    "ResultJournal",
]

PathLike = Union[str, os.PathLike]

#: Record-layout version, written as every record's ``schema`` key.
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
#: kept as they are, so a new counter needs no version bump.  Version 11
#: made the ``mapping`` payload exact expected counts: ``method`` is
#: ``"exact"`` and ``n_samples`` and ``mapping_ci`` are gone; older
#: sampled payloads load as they are.
JOURNAL_VERSION = 11


def _check(payload: Dict, kind: str) -> None:
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {payload.get('schema')!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    if payload.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} payload, got {payload.get('kind')!r}")


def _jsonable(value):
    """Dataclasses as field maps, non-finite floats as ``None``, recursively.

    ``json.dumps`` would otherwise emit the non-standard ``NaN`` token
    for a failed task's likelihoods.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    return value


@lru_cache(maxsize=None)
def _field_types(cls: Type) -> Tuple[Tuple[str, bool, Optional[type]], ...]:
    """Per field of ``cls``: its name, whether it is a ``float``, and the
    dataclass it holds (``Optional[...]`` unwrapped), if any."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        hint = hints[f.name]
        nested = next((a for a in get_args(hint) or (hint,) if is_dataclass(a)), None)
        out.append((f.name, hint is float, nested))
    return tuple(out)


def _from_record(cls: Type, record: Dict):
    """Build ``cls`` from the record keys named like its fields.

    Keys it does not name (written by a newer library) are not looked
    at, absent keys take the field's default, and a ``float`` field
    journalled as ``null`` (or absent) reads back NaN.
    """
    kwargs = {}
    for name, is_float, nested in _field_types(cls):
        value = record.get(name)
        if value is None and is_float:
            kwargs[name] = float("nan")
        elif name in record:
            kwargs[name] = value if value is None or nested is None else _from_record(nested, value)
    return cls(**kwargs)


def gene_result_to_dict(result) -> Dict:
    """Serialise a :class:`~repro.parallel.batch.GeneResult` (one JSONL
    record): every field, plus the ``schema``/``kind`` keys."""
    return {"schema": SCHEMA_VERSION, "kind": "gene_result", **_jsonable(result)}


def gene_result_from_dict(payload: Dict):
    """Inverse of :func:`gene_result_to_dict` (``None`` floats → NaN)."""
    # Imported lazily: repro.parallel.batch imports this module at top level.
    from repro.parallel.batch import GeneResult

    _check(payload, "gene_result")
    return _from_record(GeneResult, _legacy_metrics(payload))


def _legacy_metrics(payload: Dict) -> Dict:
    """The record with its v4–v9 counter fields folded into ``metrics``.

    v4 ``clv_stats`` → ``clv_propagations``/``clv_reuses``; v5
    ``setup_seconds`` (when non-zero) → ``setup_s`` plus
    ``cold_starts: 1``; v7 ``rung_usage`` → one ``rung_<name>`` key
    per rung.  Keys of the record's own ``metrics`` map win.
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
    return {**payload, "metrics": {**metrics, **(payload.get("metrics") or {})}}


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
