"""E-GRAD — the analytic gradient versus finite differences.

``BoundLikelihood.gradient`` yields ``∂lnL/∂t`` for every branch and the
κ, per-class ω, proportion and rate-scale derivatives from one outside
pass (DESIGN.md §9); ``fit_model`` chains them onto every free
coordinate and probes no likelihood.  Per dataset this bench reports

* agreement: the worst ``|g − ref| / max(|ref|, 1)`` against a
  Richardson-extrapolated central difference ``(4·CD(h) − CD(2h))/3`` of
  the likelihood, under H0 and H1 — for ``∂lnL/∂log t`` with
  ``h = 1e-4``, and for every packed model coordinate with ``h = 3e-3``
  (a model probe builds new eigendecompositions, whose round-off a
  smaller step would amplify);
* milliseconds per gradient: the analytic pass (reading the evaluation
  it follows) against forward differences over every coordinate (one
  likelihood evaluation per branch and per model parameter);
* the analytic pass's cost in evaluations (``grad/eval``): median ms
  per gradient over median ms per evaluation, timed in alternation at
  the same point (H1 at the dataset's true values), each gradient
  reading the evaluation just before it;
* likelihood evaluations per BFGS iteration of an H1 fit run to
  convergence (cap 1000; start point included) against the all-FD
  count ``1 + n_free_coords``.  A short budget would measure the first
  steps, taken before the inverse-Hessian estimate has any curvature.

Standalone so CI can gate it::

    PYTHONPATH=src python benchmarks/bench_gradient.py --quick \\
        --assert-agreement 1e-6 --assert-eval-reduction 4.0 \\
        --assert-evals-per-iter 2.0 --assert-gradient-cost 2.0
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np
from harness import SEED, format_table, get_dataset, write_result

from repro.core.engine import make_engine
from repro.models.branch_site import BranchSiteModelA
from repro.optimize.ml import _mixture_jacobian, fit_model

H = 1e-4
H_MODEL = 3e-3


def _richardson(f, x, i, h):
    def central(step_size):
        step = np.zeros_like(x)
        step[i] = step_size
        return (f(x + step) - f(x - step)) / (2.0 * step_size)

    return (4.0 * central(h) - central(2.0 * h)) / 3.0


def agreement(bound, values, branches) -> float:
    """Worst relative error of ``t·∂lnL/∂t`` over ``branches`` and of
    ``∂lnL/∂x`` over every packed model coordinate."""
    model = bound.model
    lengths = np.asarray(bound.branch_lengths, dtype=float)
    bound.log_likelihood(values, lengths)
    g = bound.gradient(values, lengths)
    # np.max, not max(): a NaN derivative makes the result NaN.
    errors = []

    def lnl_of_log_t(log_t):
        return bound.log_likelihood(values, np.exp(log_t))

    for j in branches:
        ref = _richardson(lnl_of_log_t, np.log(lengths), j, H)
        errors.append(abs(lengths[j] * g.branches[j] - ref) / max(abs(ref), 1.0))

    def lnl_of_x(x):
        return bound.log_likelihood(model.unpack(x), lengths)

    x = model.pack(values)
    dlnl = np.concatenate([[g.kappa, g.log_scale], g.omega.ravel(), g.proportions])
    analytic = _mixture_jacobian(
        model, x, np.arange(x.size), bound.pi, bound.engine.code, dlnl.size
    ) @ dlnl
    for i in range(x.size):
        ref = _richardson(lnl_of_x, x, i, H_MODEL)
        errors.append(abs(analytic[i] - ref) / max(abs(ref), 1.0))
    return float(np.max(errors))


def gradient_ms(bound, values, reps: int):
    """Median ms per gradient: analytic pass vs forward differences
    over every branch and model coordinate."""
    model = bound.model
    lengths = np.asarray(bound.branch_lengths, dtype=float)
    x = model.pack(values)
    analytic, fd = [], []
    for _ in range(reps):
        bound.log_likelihood(values, lengths)
        start = time.perf_counter()
        bound.gradient(values, lengths)
        analytic.append(time.perf_counter() - start)
        start = time.perf_counter()
        for j in range(bound.n_branches):
            probe = lengths.copy()
            probe[j] *= np.exp(1e-6)
            bound.log_likelihood(values, probe)
        for i in range(x.size):
            probe = x.copy()
            probe[i] += 1e-6 * (abs(probe[i]) + 1.0)
            bound.log_likelihood(model.unpack(probe), lengths)
        fd.append(time.perf_counter() - start)
    return 1e3 * statistics.median(analytic), 1e3 * statistics.median(fd)


def gradient_cost(bound, values, reps: int):
    """``(ms per evaluation, ms per gradient)``, medians over ``reps``
    alternations of one evaluation and the gradient that reads it."""
    lengths = np.asarray(bound.branch_lengths, dtype=float)
    evals, grads = [], []
    for _ in range(reps + 1):
        start = time.perf_counter()
        bound.log_likelihood(values, lengths)
        middle = time.perf_counter()
        bound.gradient(values, lengths)
        evals.append(middle - start)
        grads.append(time.perf_counter() - middle)
    # The first alternation warms the binding's buffers.
    return 1e3 * statistics.median(evals[1:]), 1e3 * statistics.median(grads[1:])


def evals_per_iteration(dataset, engine_name: str, budget: int):
    """``(evaluations per iteration, all-FD count)`` of an H1 fit."""
    model = BranchSiteModelA(fix_omega2=False)
    bound = make_engine(engine_name).bind(dataset.tree, dataset.alignment, model)
    fit = fit_model(bound, seed=SEED, max_iterations=budget)
    per_iter = fit.n_evaluations / (fit.n_iterations + 1)
    return per_iter, 1 + model.n_params + bound.n_branches


def sampled_branches(bound, k: int):
    n = bound.n_branches
    picks = {int(j) for j in np.linspace(0, n - 1, k)}
    picks |= {pos for _, _, pos, fg in bound._rows if fg}
    return sorted(picks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: datasets i and iii, 4 branches checked, 3 timing reps",
    )
    parser.add_argument(
        "--engine", default="slim-v2", choices=["codeml", "slim", "slim-v2"],
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="H1 fit cap for the evaluations-per-iteration column (default 1000: converged)",
    )
    parser.add_argument(
        "--assert-agreement", type=float, default=None, metavar="TOL",
        help="exit non-zero if any checked gradient errs by more than TOL",
    )
    parser.add_argument(
        "--assert-eval-reduction", type=float, default=None, metavar="FACTOR",
        help="exit non-zero unless the dataset-iii H1 fit's evaluations per "
             "iteration are at least FACTOR below the all-FD count",
    )
    parser.add_argument(
        "--assert-evals-per-iter", type=float, default=None, metavar="MAX",
        help="exit non-zero if the dataset-iii H1 fit takes more than MAX "
             "likelihood evaluations per iteration",
    )
    parser.add_argument(
        "--assert-gradient-cost", type=float, default=None, metavar="MAX",
        help="exit non-zero if one dataset-iii gradient costs more than MAX "
             "evaluations (the grad/eval column)",
    )
    args = parser.parse_args(argv)

    names = ["i", "iii"] if args.quick else ["i", "ii", "iii", "iv"]
    n_check = 4 if args.quick else 8
    reps = 3 if args.quick else 7
    cost_reps = 21 if args.quick else 41
    budget = args.iterations if args.iterations is not None else 1000

    rows = []
    worst = 0.0
    reduction_iii = None
    per_iter_iii = None
    cost_iii = None
    for name in names:
        dataset = get_dataset(name)
        values1 = dataset.spec.true_values()
        values0 = {k: v for k, v in values1.items() if k != "omega2"}
        errors = []
        for model, values in (
            (BranchSiteModelA(fix_omega2=True), values0),
            (BranchSiteModelA(fix_omega2=False), values1),
        ):
            bound = make_engine(args.engine).bind(dataset.tree, dataset.alignment, model)
            errors.append(agreement(bound, values, sampled_branches(bound, n_check)))
        worst = float(np.max([worst, *errors]))
        ms_analytic, ms_fd = gradient_ms(bound, values1, reps)
        ms_eval, ms_grad = gradient_cost(bound, values1, cost_reps)
        per_iter, all_fd = evals_per_iteration(dataset, args.engine, budget)
        if name == "iii":
            reduction_iii = all_fd / per_iter
            per_iter_iii = per_iter
            cost_iii = ms_grad / ms_eval
        rows.append([
            name,
            str(bound.n_branches),
            f"{errors[0]:.1e}",
            f"{errors[1]:.1e}",
            f"{ms_fd:.1f}",
            f"{ms_analytic:.1f}",
            f"{ms_fd / ms_analytic:.1f}x",
            f"{ms_eval:.1f}",
            f"{ms_grad:.1f}",
            f"{ms_grad / ms_eval:.2f}",
            str(all_fd),
            f"{per_iter:.1f}",
        ])
        print(f"dataset {name}: done", file=sys.stderr)

    table = format_table(
        [
            "dataset", "branches", "agree H0", "agree H1",
            "FD ms/grad", "analytic ms/grad", "speedup",
            "ms/eval", "ms/grad", "grad/eval",
            "all-FD evals/iter", "evals/iter",
        ],
        rows,
        title=(
            f"E-GRAD analytic gradients — engine {args.engine}, "
            f"agreement vs Richardson central FD (h={H:g} in log t, "
            f"{H_MODEL:g} in the packed model coordinates), "
            f"FD = one evaluation per coordinate, grad/eval = median ms per "
            f"gradient over median ms per evaluation ({cost_reps} alternations), "
            f"H1 fit cap {budget}, seed {SEED}"
        ),
    )
    if args.quick:
        print(table)
    else:
        write_result("E-GRAD_gradients.txt", table)

    status = 0
    # "not <=" so that a NaN agreement fails too.
    if args.assert_agreement is not None and not worst <= args.assert_agreement:
        print(
            f"FAIL: gradient agreement {worst:.3e} exceeds {args.assert_agreement:.1e}",
            file=sys.stderr,
        )
        status = 1
    if args.assert_eval_reduction is not None:
        if reduction_iii is None or reduction_iii < args.assert_eval_reduction:
            print(
                f"FAIL: dataset-iii evaluations per iteration are {reduction_iii} "
                f"times below the all-FD count, need {args.assert_eval_reduction}",
                file=sys.stderr,
            )
            status = 1
    if args.assert_evals_per_iter is not None:
        if per_iter_iii is None or per_iter_iii > args.assert_evals_per_iter:
            print(
                f"FAIL: the dataset-iii H1 fit takes {per_iter_iii} evaluations "
                f"per iteration, allowed {args.assert_evals_per_iter}",
                file=sys.stderr,
            )
            status = 1
    if args.assert_gradient_cost is not None:
        if cost_iii is None or cost_iii > args.assert_gradient_cost:
            print(
                f"FAIL: one dataset-iii gradient costs {cost_iii} evaluations, "
                f"allowed {args.assert_gradient_cost}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
