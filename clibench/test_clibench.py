"""Self-tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q clibench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def _bytes(spec, seed, prefix, gene=0):
    phy, nwk = inputs.write_inputs(spec, seed, prefix, gene)
    with open(phy, "rb") as a, open(nwk, "rb") as b:
        return a.read(), b.read()


@pytest.mark.parametrize("shape", ["i", "ii", "iii"])
def test_default_seed_matches_datasets_command(tmp_path, shape):
    from repro.alignment.parsers import write_phylip
    from repro.datasets import make_dataset
    from repro.trees.newick import write_newick

    ds = make_dataset(shape)
    write_phylip(ds.alignment, tmp_path / "ref.phy")
    (tmp_path / "ref.nwk").write_text(write_newick(ds.tree) + "\n", encoding="utf-8")
    ref = ((tmp_path / "ref.phy").read_bytes(), (tmp_path / "ref.nwk").read_bytes())
    assert _bytes(inputs.spec_for(shape), 0, str(tmp_path / "gen")) == ref


def test_generator_is_deterministic_and_seeded(tmp_path):
    spec = inputs.spec_for("i")
    a = _bytes(spec, 7, str(tmp_path / "a"))
    b = _bytes(spec, 7, str(tmp_path / "b"))
    c = _bytes(spec, 8, str(tmp_path / "c"))
    zero = _bytes(spec, 0, str(tmp_path / "z"))
    genes = [_bytes(spec, 7, str(tmp_path / f"g{g}"), g) for g in (1, 2)]
    assert a == b
    assert a[0] != c[0] and a[0] != zero[0]
    assert len({a[0], genes[0][0], genes[1][0]}) == 3
    assert genes[0] == _bytes(spec, 7, str(tmp_path / "again"), 1)
    # Same shape and tree on every seed; only the alignment is re-drawn.
    assert a[0].split(b"\n", 1)[0] == c[0].split(b"\n", 1)[0]
    assert a[1] == c[1] == zero[1]


def _synthetic_main():
    # import [0, 1]; read [1, 2]; fit [2, 9] > eval [3, 5] > prune [3.5, 4.5];
    #                                       > eval [6, 8];  wall 10.
    proc = spans.Process(pid=1, main=True)
    proc.spans = [
        ("import", 0.0, 1.0, -1, None),
        ("input.parse", 1.0, 2.0, -1, None),
        ("optimize.fit", 2.0, 9.0, -1, None),
        ("engine.eval", 3.0, 5.0, 2, None),
        ("pruning.site_class", 3.5, 4.5, 3, None),
        ("engine.eval", 6.0, 8.0, 2, None),
    ]
    return proc


def test_self_time_arithmetic():
    proc = _synthetic_main()
    assert spans.self_times(proc.spans) == [1.0, 1.0, 3.0, 1.0, 1.0, 2.0]
    layers, residual = spans.wall_breakdown(proc, wall=10.0)
    assert layers == {"import": 1.0, "input": 1.0, "optimize": 3.0, "engine": 3.0, "pruning": 1.0}
    assert residual == pytest.approx(1.0)
    assert sum(layers.values()) + residual == pytest.approx(10.0)
    metrics = spans.layer_metrics([proc], wall=10.0, untraced_wall=8.0)
    assert metrics["engine.evals"] == 2
    assert metrics["engine.eval_ms"] == pytest.approx(2000.0)
    assert metrics["engine.self_s"] == pytest.approx(3.0)
    assert metrics["residual_s"] == pytest.approx(1.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)


def test_metrics_match_benchmark_json(tmp_path):
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    layers = spans.layer_metrics([_synthetic_main()], wall=10.0, untraced_wall=8.0)
    layers.update(run.journal_counters(str(tmp_path / "none.jsonl")))
    layers["calib.dsymm_gflops"] = 1.0
    layers.update({key: 1.0 for key in ("host.wall_s", "host.cpu_s", "host.setup_s", "host.ref_s")})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        key: run.UNITS.get(key, "s") for key in layers
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS


def test_chrome_trace_is_well_formed():
    trace = spans.chrome_trace([_synthetic_main()])
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 6
    assert events[2]["name"] == "optimize.fit" and events[2]["dur"] == pytest.approx(7e6)
    json.dumps(trace)


def _survey_journal(tmp_path, checker, gene_id="gene"):
    """A journal the way ``scan --survey --journal`` writes one."""
    from repro.models.branch_site import BranchSiteModelA
    from repro.optimize.lrt import likelihood_ratio_test

    values = {"kappa": 2.0, "omega0": 0.3, "omega2": 2.5, "p0": 0.5, "p1": 0.3}
    h0_values = {k: v for k, v in values.items() if k != "omega2"}
    lengths = checker.tree.branch_lengths()
    lines = [{"kind": "journal_header", "version": 8}]
    for label, node in checker.candidates().items():
        tree = checker.tree.copy()
        tree.mark_foreground(tree.nodes[node])
        lnl0 = checker.engine.bind(tree, checker.alignment, BranchSiteModelA(fix_omega2=True)) \
            .log_likelihood(h0_values, lengths)
        lnl1 = checker._lnl(node, True, values, lengths)
        lrt = likelihood_ratio_test(lnl0, lnl1)
        lines.append({
            "kind": "gene_result", "gene_id": f"{gene_id}:{label}", "lnl0": lnl0,
            "lnl1": lnl1, "statistic": lrt.statistic, "pvalue": lrt.pvalue_chi2,
            "error": None, "mapping": None,
            "h1_mles": {"values": values, "branch_lengths": lengths},
        })
    path = tmp_path / "journal.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    return path, lines


def test_checker_rejects_tampered_journal(tmp_path):
    spec = inputs.spec_for("iii", toy=True)
    phy, nwk = inputs.write_inputs(spec, 3, str(tmp_path / "gene"))
    checker = checks.Checker(phy, nwk, spec.true_values())
    path, lines = _survey_journal(tmp_path, checker)
    clean = checker.check_survey(0, str(path), "gene")
    # H1 at these values may not beat H0 (as in a capped fit): a clamped
    # LRT is consistent, so only unmapped Holm-significant branches remain.
    assert all("mapping is not mapped" in p for p in clean.problems)

    lines[1]["statistic"] += 0.1
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    misreported = checker.check_survey(0, str(path), "gene")
    assert any("2*(lnL1 - lnL0) reported" in p for p in misreported.problems)
    lines[1]["statistic"] -= 0.1

    lines[1]["lnl1"] += 0.5
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    tampered = checker.check_survey(0, str(path), "gene")
    assert tampered.failed >= 1
    assert any("re-evaluates" in p for p in tampered.problems)

    lines[1]["lnl1"] -= 0.5
    path.write_text("".join(json.dumps(r) + "\n" for r in lines[:-1]), encoding="utf-8")
    missing = checker.check_survey(0, str(path), "gene")
    assert any("missing from the journal" in p for p in missing.problems)


def test_lrt_problem_accepts_clamped_and_rejects_misreported():
    # A capped H1 fit below H0 reports the clamped statistic and p = 1.
    assert checks.lrt_problem(-100.0, -100.5, 0.0, 1.0, 1e-9, 1e-9) is None
    assert checks.lrt_problem(-100.0, -98.0, 4.0, 0.0455003, 1e-9, 1e-4) is None
    assert "reported" in checks.lrt_problem(-100.0, -98.0, 3.0, 0.0833, 1e-9, 1e-4)
    assert "p-value" in checks.lrt_problem(-100.0, -98.0, 4.0, 0.5, 1e-9, 1e-4)


def test_holm_step_down():
    p = {"a": 0.001, "b": 0.02, "c": 0.04, "d": 0.5}
    # 4·0.001 < 0.05; 3·0.02 = 0.06 stops the procedure.
    assert checks.holm_significant(p, 0.05) == ["a"]
    assert checks.holm_significant({"a": 0.01, "b": 0.02}, 0.05) == ["a", "b"]


def test_quick_mode_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"quick": True, "correct": True}
