"""Results report writer (CodeML ``mlc``-style).

Formats a complete branch-site analysis — both hypotheses, the LRT, the
site-class table rendered from the model's validated class graph, the
fitted tree and (when provided) the empirical-Bayes positively selected
sites — as a plain-text report a PAML user would recognise.  Also the
all-branches survey table (``slimcodeml scan --survey``): per-branch
LRT statistics with Holm-corrected p-values.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.recovery import FitDiagnostics
from repro.models.base import CodonSiteModel
from repro.optimize.beb import SiteProbabilities
from repro.optimize.lrt import holm_correction
from repro.optimize.ml import BranchSiteTest, FitResult
from repro.trees.newick import write_newick
from repro.trees.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.parallel.batch import BranchScanResult

__all__ = [
    "format_report",
    "format_fit_block",
    "format_mapping_block",
    "format_recovery_block",
    "convergence_mark",
    "format_survey_report",
]

#: Foreground sites listed under a mapping table, most non-synonymous first.
MAPPED_SITES_SHOWN = 10

_RULE = "=" * 72


def _model_for_fit(fit: FitResult) -> CodonSiteModel:
    """Reconstruct the fitted model from a result's parameter names.

    ``FitResult`` carries values but not the model object; the
    parameter-name signature identifies it.  Model A and BS-REL cover
    every branch-site fit this report renders — callers with an exotic
    model pass it to :func:`format_fit_block` explicitly.
    """
    from repro.models.branch_site import BranchSiteModelA
    from repro.models.bsrel import BSRELModel

    keys = set(fit.values)
    if {"omega0", "p0", "p1"} <= keys:
        return BranchSiteModelA(fix_omega2="omega2" not in keys)
    n_weights = sum(1 for k in keys if k.startswith("p") and k[1:].isdigit())
    if n_weights >= 2:
        return BSRELModel(n_weights, fix_omega_fg="omega_fg" not in keys)
    raise ValueError(f"cannot identify a site-class model from parameters {sorted(keys)}")


def _class_table(fit: FitResult, model: Optional[CodonSiteModel] = None) -> str:
    """Render the site-class table from the model's class graph.

    Labels, weights and ω's come from the graph nodes — never from
    hard-coded class names — so the table stays correct for any N-class
    model and any class ordering.  Positive-selection classes (the ones
    BEB reports on) are flagged with ``+``.
    """
    if model is None:
        model = _model_for_fit(fit)
    graph = model.site_class_graph(fit.values)
    lines = ["site class   proportion   background w   foreground w"]
    for node in graph.nodes:
        label = node.label + ("+" if node.positive else "")
        lines.append(
            f"{label:<12s} {node.proportion:>10.5f}   "
            f"{node.omega_background:>12.5f}   {node.omega_foreground:>12.5f}"
        )
    return "\n".join(lines)


def format_fit_block(
    fit: FitResult, tree: Optional[Tree] = None, model: Optional[CodonSiteModel] = None
) -> str:
    """One hypothesis' results block."""
    lines = [
        f"Model: {fit.model_name}   engine: {fit.engine_name}",
        f"lnL = {fit.lnl:.6f}",
        f"optimizer: {fit.n_iterations} iterations, {fit.n_evaluations} evaluations, "
        f"{fit.runtime_seconds:.2f} s"
        + (f", |gradient| = {fit.grad_norm:.3g}" if math.isfinite(fit.grad_norm) else "")
        + ("" if fit.converged else "  [NOT CONVERGED: " + fit.message + "]"),
        "",
        "Parameter estimates:",
    ]
    for key, value in fit.values.items():
        lines.append(f"  {key:<8s} = {value:.6f}")
    lines.append(f"  tree length = {float(np.sum(fit.branch_lengths)):.6f}")
    lines.append("")
    lines.append(_class_table(fit, model))
    if tree is not None:
        fitted = tree.copy()
        fitted.set_branch_lengths(fit.branch_lengths)
        lines.append("")
        lines.append("Fitted tree (foreground marked #1):")
        lines.append(write_newick(fitted))
    return "\n".join(lines)


def _positive_label_phrase(fit: FitResult, model: Optional[CodonSiteModel]) -> str:
    """Human-readable name for the positive-selection classes, e.g. ``2a/2b``."""
    try:
        if model is None:
            model = _model_for_fit(fit)
        labels = model.site_class_graph(fit.values).positive_labels
    except (ValueError, KeyError):
        labels = ()
    return "/".join(labels) if labels else "positive"


def format_mapping_block(mapping: dict, indent: str = "") -> str:
    """Render one task's substitution-mapping payload as an event table.

    ``mapping`` is the journal payload from
    :meth:`repro.likelihood.mapping.SubstitutionMapping.to_payload` (or
    its ``{"error": ...}`` degradation).  One row per branch — expected
    synonymous/non-synonymous events and their ratio (the event-count
    analogue of dN/dS) — followed by the ``MAPPED_SITES_SHOWN``
    foreground sites with the largest expected non-synonymous counts.
    A sampled payload from a journal before v11 renders its means.
    """
    if "error" in mapping:
        return f"{indent}mapping failed: {mapping['error']}"
    lines = [
        f"{indent}{'branch':<20s} {'fg':>2s} {'length':>8s} "
        f"{'E[syn]':>8s} {'E[nonsyn]':>9s} {'N/S':>8s}"
    ]
    for row in mapping.get("branches", []):
        ratio = row.get("ratio")
        ratio_text = f"{ratio:>8.3f}" if ratio is not None else f"{'-':>8s}"
        lines.append(
            f"{indent}{row['branch']:<20s} {'#1' if row.get('foreground') else '':>2s} "
            f"{row.get('length', 0.0):>8.4f} {row.get('syn', 0.0):>8.3f} "
            f"{row.get('nonsyn', 0.0):>9.3f} {ratio_text}"
        )
    sites = mapping.get("foreground_sites") or {}
    nonsyn = np.asarray(sites.get("nonsyn", []), dtype=float)
    syn = np.asarray(sites.get("syn", []), dtype=float)
    hot = np.nonzero(nonsyn > 0)[0]
    if hot.size:
        top = hot[np.argsort(nonsyn[hot], kind="stable")[::-1][:MAPPED_SITES_SHOWN]]
        lines.append(
            f"{indent}foreground sites with expected non-synonymous events "
            f"(top {min(MAPPED_SITES_SHOWN, hot.size)} of {hot.size}):"
        )
        for site in top:
            lines.append(
                f"{indent}  site {site + 1:>5d}   E[nonsyn]={nonsyn[site]:.3f}"
                f"   E[syn]={syn[site] if site < syn.size else 0.0:.3f}"
            )
    return "\n".join(lines)


def format_recovery_block(
    entries: Iterable[Tuple[str, Union[FitDiagnostics, Mapping, None]]],
    per: str,
) -> str:
    """What the numerical recovery layer did, one line per fit that needed it.

    ``entries`` pairs a label (hypothesis, gene or branch task) with its
    :class:`~repro.core.recovery.FitDiagnostics` or the journal's dict
    form of one.  Returns ``""`` when nothing fired anywhere, else a
    ``numerical recovery (per <per>):`` heading followed by
    ``  <label>: <restarts, bounds, events>`` lines — never in the
    ``  name = value`` shape of the report's parameter lines.
    """
    lines = []
    for label, diagnostics in entries:
        if not isinstance(diagnostics, FitDiagnostics):
            diagnostics = FitDiagnostics.from_dict(diagnostics)
        if diagnostics.recovered:
            lines.append(f"  {label}: {diagnostics.describe()}")
    if not lines:
        return ""
    return "\n".join([f"numerical recovery (per {per}):", *lines])


def convergence_mark(hypotheses: Sequence[str]) -> str:
    """Row suffix flagging the hypotheses whose fit did not converge."""
    return f"  [not converged: {'+'.join(hypotheses)}]" if hypotheses else ""


def format_report(
    test: BranchSiteTest,
    tree: Optional[Tree] = None,
    sites: Optional[SiteProbabilities] = None,
    dataset_name: str = "",
    threshold: float = 0.95,
    models: Optional[tuple[CodonSiteModel, CodonSiteModel]] = None,
    mapping: Optional[dict] = None,
) -> str:
    """Full analysis report: H0 block, H1 block, LRT, selected sites,
    (when mapped) the expected substitution-count table, and
    (when anything fired) what the numerical recovery layer did."""
    h0_model, h1_model = models if models is not None else (None, None)
    header = "SlimCodeML reproduction — branch-site test for positive selection"
    lines = [_RULE, header]
    if dataset_name:
        lines.append(f"dataset: {dataset_name}")
    lines += [_RULE, "", "--- Null hypothesis (H0: foreground w fixed) " + "-" * 16, ""]
    lines.append(format_fit_block(test.h0, tree, h0_model))
    lines += ["", "--- Alternative hypothesis (H1) " + "-" * 29, ""]
    lines.append(format_fit_block(test.h1, tree, h1_model))
    lines += [
        "",
        "--- Likelihood ratio test " + "-" * 35,
        "",
        f"2*(lnL1 - lnL0) = {test.lrt.statistic:.6f}  (df = {test.lrt.df})",
        f"p-value (chi2_1, conservative)   = {test.lrt.pvalue_chi2:.6g}",
        f"p-value (50:50 boundary mixture) = {test.lrt.pvalue_mixture:.6g}",
        (
            "Positive selection on the foreground branch: "
            + ("SUPPORTED" if test.lrt.significant() else "not supported")
            + " at alpha = 0.05 (conservative chi2)"
        ),
    ]
    if sites is not None:
        positive = _positive_label_phrase(test.h1, h1_model)
        lines += ["", f"--- {sites.method} positively selected sites " + "-" * 24, ""]
        selected = sites.selected_sites(threshold)
        if selected.size == 0:
            lines.append(f"no sites with posterior > {threshold}")
        else:
            lines.append(f"codon sites with P(class {positive}) > {threshold}:")
            for site in selected:
                prob = sites.probabilities[site - 1]
                stars = "**" if prob > 0.99 else "*"
                lines.append(f"  {site:>6d}   {prob:.4f} {stars}")
    if mapping is not None:
        lines += ["", "--- Substitution mapping (expected counts) " + "-" * 18, ""]
        lines.append(format_mapping_block(mapping))
    recovery = format_recovery_block(
        [("H0", test.h0.diagnostics), ("H1", test.h1.diagnostics)], per="hypothesis"
    )
    if recovery:
        lines += ["", recovery]
    lines += ["", _RULE]
    return "\n".join(lines)


def format_survey_report(
    scan: "BranchScanResult",
    dataset_name: str = "",
    alpha: float = 0.05,
    model_spec: str = "",
) -> str:
    """All-branches survey table with Holm-corrected p-values.

    One row per tested branch: the LRT statistic, the raw conservative
    χ² p-value, the Holm-Bonferroni adjusted p-value over the whole
    survey, and the verdict at family-wise level ``alpha``.  Branches
    are sorted by raw p-value so the interesting ones lead; a row whose
    H0 or H1 fit stopped before convergence is marked.
    """
    branches = sorted(scan.by_branch)
    header = "SlimCodeML reproduction — all-branches positive-selection survey"
    lines = [_RULE, header]
    if dataset_name:
        lines.append(f"dataset: {dataset_name}")
    if model_spec:
        lines.append(f"model: {model_spec}")
    lines += [_RULE, ""]
    if not branches:
        lines += ["no branches were tested", "", _RULE]
        return "\n".join(lines)
    raw = np.array([scan.by_branch[b].pvalue_chi2 for b in branches])
    adjusted = holm_correction(raw)
    order = np.argsort(raw, kind="stable")
    lines.append(
        f"{'branch':<24s} {'2*dlnL':>10s} {'p (chi2)':>12s} {'p (Holm)':>12s}   verdict"
    )
    n_selected = 0
    unconverged = scan.unconverged()
    for idx in order:
        branch = branches[idx]
        lrt = scan.by_branch[branch]
        selected = adjusted[idx] < alpha
        n_selected += selected
        verdict = "POSITIVE SELECTION" if selected else "-"
        lines.append(
            f"{branch:<24s} {lrt.statistic:>10.4f} {raw[idx]:>12.4g} "
            f"{adjusted[idx]:>12.4g}   {verdict}"
            + convergence_mark(unconverged.get(branch, ()))
        )
    lines += [
        "",
        f"{n_selected} of {len(branches)} branches under positive selection "
        f"(Holm-corrected, family-wise alpha = {alpha})",
    ]
    if unconverged:
        lines.append(
            f"{len(unconverged)} of {len(branches)} rows marked [not converged]: "
            "an H0 or H1 fit stopped before convergence"
        )
    if scan.failures:
        lines.append("")
        lines.append(f"failed branches ({len(scan.failures)}):")
        for branch, failure in sorted(scan.failures.items()):
            lines.append(f"  {branch}: {failure.describe()}")
    lines += ["", _RULE]
    return "\n".join(lines)
