"""Output checks: every reported likelihood is re-derived independently.

* Each reported lnL is re-evaluated at its reported MLEs with the
  ``codeml`` engine, which shares no kernel with the CLI default.
  ``run`` reports print parameters to 6 decimals and branch lengths to
  6 significant digits, so their tolerance is :data:`RUN_TOL` nats;
  survey journals store exact MLEs (``h1_mles``), so theirs is relative
  round-off.
* The reported LRT is the one the two lnLs give: 2Δ = 2(lnL1 − lnL0)
  clamped at zero, and its χ²₁ p-value (1 when clamped).  lnL1 ≥ lnL0
  itself is not checked: every workload caps the optimiser's
  iterations, and a capped H1 fit may stop below H0 (the program then
  clamps the statistic, as it documents).
* A survey journal holds every candidate branch exactly once (plus at
  most one mapped re-journal of it), and every Holm-significant branch
  carries a finite mapping payload.

A test that fails any check counts as failed; ``error_rate`` is failed
tests over tests attempted.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from scipy.stats import chi2

from repro.alignment.parsers import read_alignment
from repro.core.engine import make_engine
from repro.models.branch_site import BranchSiteModelA
from repro.trees.newick import parse_newick

__all__ = ["RUN_TOL", "Outcome", "Checker", "holm_significant", "lrt_problem",
           "parse_run_report"]

#: Absolute lnL tolerance for ``run`` reports (rounded parameters).
RUN_TOL = 0.01
#: Relative lnL tolerance for exact MLEs (engine round-off).
EXACT_RTOL = 1e-7
#: Absolute tolerance of a ``run`` report's 2Δ (lnLs printed to 6 decimals).
RUN_STAT_TOL = 1e-5
#: Relative tolerance of a printed (6 significant digits) p-value.
PVALUE_RTOL = 1e-4


@dataclass
class Outcome:
    """Checked result of one invocation."""

    attempted: int
    failed: int
    lnl_sum: float = math.nan
    fits: int = 0
    problems: List[str] = field(default_factory=list)


def _read_tree(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_newick(handle.read())


def parse_run_report(text: str) -> List[Tuple[float, Dict[str, float], str]]:
    """``[(lnL, parameters, fitted newick)]`` for H0 then H1 of a run report."""
    blocks = re.split(r"^--- Alternative hypothesis", text, flags=re.M)
    if len(blocks) != 2:
        raise ValueError("report has no H0/H1 blocks")
    fits = []
    for block in blocks:
        lnl = float(re.search(r"^lnL = (\S+)$", block, flags=re.M).group(1))
        params = {
            key: float(value)
            for key, value in re.findall(r"^  (\w+)\s+= (\S+)$", block, flags=re.M)
        }
        newick = re.search(r"^Fitted tree[^\n]*\n([^\n]+)$", block, flags=re.M).group(1)
        fits.append((lnl, params, newick))
    return fits


def lrt_problem(lnl0: float, lnl1: float, statistic: float, pvalue: float,
                stat_tol: float, p_rtol: float) -> Optional[str]:
    """Why a reported LRT disagrees with its two lnLs, or ``None``."""
    expected = max(2.0 * (lnl1 - lnl0), 0.0)
    if not abs(statistic - expected) <= stat_tol:
        return f"2*(lnL1 - lnL0) reported {statistic}, lnLs give {expected}"
    p = 1.0 if statistic == 0.0 else float(chi2.sf(statistic, 1))
    if not abs(pvalue - p) <= p_rtol * p + 1e-300:
        return f"p-value reported {pvalue}, chi2_1 of {statistic} is {p}"
    return None


def holm_significant(pvalues: Dict[str, float], alpha: float = 0.05) -> List[str]:
    """Labels rejected by Holm's step-down procedure at family-wise ``alpha``."""
    order = sorted(pvalues, key=lambda k: pvalues[k])
    m = len(order)
    selected, running = [], 0.0
    for rank, label in enumerate(order):
        running = max(running, min(1.0, (m - rank) * pvalues[label]))
        if running >= alpha:
            break
        selected.append(label)
    return selected


class Checker:
    """Re-derives one workload's outputs from its input files."""

    def __init__(self, phy: str, nwk: str, true_values: Dict[str, float]) -> None:
        self.alignment = read_alignment(phy)
        self.tree = _read_tree(nwk)
        self.engine = make_engine("codeml")
        #: lnL of the generating model on the generating tree: the scale
        #: ``lnl_ratio`` divides by, so the metric is comparable across seeds.
        self.truth_lnl = self._lnl(None, True, true_values, self.tree.branch_lengths())

    def _lnl(self, fg_node: Optional[int], h1: bool, values, lengths, tree=None) -> float:
        tree = tree if tree is not None else self.tree.copy()
        if fg_node is not None:
            tree.mark_foreground(tree.nodes[fg_node])
        bound = self.engine.bind(tree, self.alignment, BranchSiteModelA(fix_omega2=not h1))
        return bound.log_likelihood(values, lengths)

    def check_run(self, code: int, report: str) -> Outcome:
        """One gene test from a ``run`` report."""
        out = Outcome(attempted=1, failed=0)
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            fits = parse_run_report(report)
            for (lnl, params, newick), h1 in zip(fits, (False, True)):
                tree = parse_newick(newick)
                again = self._lnl(None, h1, params, tree.branch_lengths(), tree=tree)
                if not abs(again - lnl) <= RUN_TOL:
                    out.problems.append(f"{'H1' if h1 else 'H0'} lnL {lnl} re-evaluates to {again}")
            lnl0, lnl1 = fits[0][0], fits[1][0]
            statistic = float(re.search(r"^2\*\(lnL1 - lnL0\) = (\S+)", report, flags=re.M).group(1))
            pvalue = float(re.search(r"^p-value \(chi2_1, conservative\)\s+= (\S+)$",
                                     report, flags=re.M).group(1))
            problem = lrt_problem(lnl0, lnl1, statistic, pvalue, RUN_STAT_TOL, PVALUE_RTOL)
            if problem:
                out.problems.append(problem)
            out.lnl_sum, out.fits = lnl0 + lnl1, 2
        except (ValueError, AttributeError) as exc:
            out.problems.append(f"unreadable run output: {exc}")
        out.failed = int(bool(out.problems))
        return out

    def candidates(self) -> Dict[str, int]:
        """Survey candidates (internal branches): label -> node index."""
        return {
            (n.name or f"node#{n.index}"): n.index
            for n in self.tree.nodes
            if not n.is_root and not n.is_leaf
        }

    def check_survey(self, code: int, journal: str, gene_id: str, alpha: float = 0.05) -> Outcome:
        """Every branch test of a ``scan --survey --map --journal`` run."""
        nodes = self.candidates()
        out = Outcome(attempted=len(nodes), failed=0)
        bad: Dict[str, str] = {}
        try:
            with open(journal, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle if line.strip()]
        except (OSError, ValueError) as exc:
            records = []
            out.problems.append(f"unreadable journal: {exc}")
        records = [r for r in records if r.get("kind") == "gene_result"]
        tests: Dict[str, dict] = {}
        mapped: Dict[str, dict] = {}
        prefix = f"{gene_id}:"
        for rec in records:
            label = rec["gene_id"][len(prefix):] if rec["gene_id"].startswith(prefix) else None
            if label not in nodes:
                out.problems.append(f"journal holds unknown task {rec['gene_id']!r}")
                continue
            target = mapped if rec.get("mapping") is not None else tests
            if label in target:
                bad[label] = "journaled more than once"
            target[label] = rec
        pvalues = {}
        for label, node in nodes.items():
            rec = tests.get(label)
            if rec is None:
                bad.setdefault(label, "missing from the journal")
                continue
            if rec.get("error") is not None:
                bad.setdefault(label, f"failed: {rec['error']}")
                continue
            lnl0, lnl1 = rec["lnl0"], rec["lnl1"]
            mles = rec.get("h1_mles") or {}
            try:
                again = self._lnl(node, True, mles["values"], mles["branch_lengths"])
            except (KeyError, ValueError) as exc:
                bad.setdefault(label, f"H1 MLEs unusable: {exc}")
                continue
            if not abs(again - lnl1) <= EXACT_RTOL * abs(lnl1):
                bad.setdefault(label, f"lnL1 {lnl1} re-evaluates to {again}")
            problem = lrt_problem(lnl0, lnl1, rec.get("statistic", math.nan), rec.get("pvalue", math.nan),
                                  EXACT_RTOL * abs(lnl1), EXACT_RTOL)
            if problem:
                bad.setdefault(label, problem)
            out.lnl_sum = (0.0 if math.isnan(out.lnl_sum) else out.lnl_sum) + lnl0 + lnl1
            out.fits += 2
            pvalues[label] = float(chi2.sf(max(2.0 * (lnl1 - lnl0), 0.0), 1))
        for label in holm_significant(pvalues, alpha):
            payload = (mapped.get(label) or {}).get("mapping") or {"error": "not mapped"}
            rows = payload.get("branches") or []
            finite = rows and all(
                math.isfinite(row.get("syn", math.nan)) and math.isfinite(row.get("nonsyn", math.nan))
                for row in rows
            )
            if "error" in payload or not finite:
                bad.setdefault(label, f"Holm-significant but mapping is {payload.get('error', 'not finite')}")
        if code != 0:
            out.problems.append(f"exit code {code}")
        whole_run_failed = bool(out.problems)
        out.problems.extend(f"{label}: {why}" for label, why in sorted(bad.items()))
        out.failed = out.attempted if whole_run_failed else len(bad)
        return out
