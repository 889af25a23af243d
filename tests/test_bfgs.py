"""BFGS optimizer on analytic objectives."""

import numpy as np
import pytest

from repro.optimize import bfgs
from repro.optimize.bfgs import minimize_bfgs
from tests.oracles import finite_difference_gradient


def quadratic(x):
    return float((x - 1.5) @ (x - 1.5))


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)


class TestMinimize:
    def test_quadratic_converges(self):
        res = minimize_bfgs(quadratic, np.zeros(4), finite_difference_gradient)
        assert res.converged
        assert np.allclose(res.x, 1.5, atol=1e-3)
        assert res.fun < 1e-6

    def test_rosenbrock_converges(self):
        res = minimize_bfgs(
            rosenbrock, np.array([-1.2, 1.0]), finite_difference_gradient, max_iterations=500
        )
        assert res.converged
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-2)

    def test_iteration_budget_respected(self):
        res = minimize_bfgs(
            rosenbrock, np.array([-1.2, 1.0]), finite_difference_gradient, max_iterations=3
        )
        assert res.n_iterations == 3
        assert not res.converged
        assert "maximum iterations" in res.message

    def test_history_monotone_nonincreasing(self):
        res = minimize_bfgs(
            rosenbrock, np.array([-1.2, 1.0]), finite_difference_gradient, max_iterations=50
        )
        assert len(res.history) == res.n_iterations + 1
        assert all(b <= a + 1e-12 for a, b in zip(res.history, res.history[1:]))

    def test_already_at_optimum(self):
        res = minimize_bfgs(quadratic, np.full(3, 1.5), finite_difference_gradient)
        assert res.converged
        assert res.n_iterations == 0

    def test_evaluation_count_includes_gradient_probes(self):
        n = 5
        res = minimize_bfgs(quadratic, np.zeros(n), finite_difference_gradient, max_iterations=2)
        # Each iteration needs at least one line-search eval + n probes.
        assert res.n_evaluations >= (n + 1) * 2

    def test_nan_objective_treated_as_barrier(self):
        def partial(x):
            if x[0] > 2.0:
                return float("nan")
            return float((x[0] - 1.0) ** 2)

        res = minimize_bfgs(partial, np.array([0.0]), finite_difference_gradient)
        assert res.converged
        assert res.x[0] == pytest.approx(1.0, abs=1e-3)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            minimize_bfgs(lambda x: float("inf"), np.zeros(2), finite_difference_gradient)

    def test_matrix_x0_rejected(self):
        with pytest.raises(ValueError, match="vector"):
            minimize_bfgs(quadratic, np.zeros((2, 2)), finite_difference_gradient)


def _recording(fun):
    """``fun`` plus the list of points it was called at."""
    calls = []

    def wrapped(x):
        calls.append(np.array(x, dtype=float))
        return fun(x)

    return wrapped, calls


def _quadratic_gradient(f, x, fx):
    return 2.0 * (x - 1.5)


class TestStepRule:
    @pytest.mark.parametrize("scale", [1.0, 0.02])
    def test_first_trial_is_scaled_steepest_descent(self, scale):
        def fun(x):
            return scale * quadratic(x)

        def gradient(f, x, fx):
            return scale * _quadratic_gradient(f, x, fx)

        recorded, calls = _recording(fun)
        x0 = np.zeros(4)
        minimize_bfgs(recorded, x0, gradient=gradient, max_iterations=1)
        g = gradient(None, x0, None)
        step = min(1.0, 1.0 / np.linalg.norm(g))
        # ‖g‖ = 6: a unit-length move; ‖g‖ = 0.12: the full unit step.
        assert step == (1 / 6 if scale == 1.0 else 1.0)
        np.testing.assert_allclose(calls[1], x0 - step * g, rtol=0, atol=1e-15)

    def test_quasi_newton_step_tried_at_unit_length(self):
        recorded, calls = _recording(quadratic)
        res = minimize_bfgs(recorded, np.zeros(2), gradient=_quadratic_gradient)
        # Iteration 1 stops at x = 0.5 (a unit move); the secant update
        # then sees the exact curvature, so one unit step hits 1.5.
        assert res.n_iterations == 2 and res.n_evaluations == 3
        np.testing.assert_allclose(calls[2], 1.5, rtol=0, atol=1e-12)

    def test_reset_to_steepest_descent_rescales_the_first_trial(self, monkeypatch):
        # A BFGS update that loses positive definiteness (round-off in a
        # real fit) makes the next direction non-descent and forces the
        # reset to h_inv = I.
        monkeypatch.setattr(bfgs, "_bfgs_update", lambda h, s, y: -np.eye(s.shape[0]))
        recorded, calls = _recording(quadratic)
        res = minimize_bfgs(recorded, np.zeros(2), gradient=_quadratic_gradient, max_iterations=2)
        assert res.n_iterations == 2
        x1 = calls[1]
        g1 = _quadratic_gradient(None, x1, None)
        step = min(1.0, 1.0 / np.linalg.norm(g1))
        assert step < 1.0
        np.testing.assert_allclose(calls[2], x1 - step * g1, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "f_step, expected",
        [
            (2.0, 0.25),  # model minimum inside the bracket
            (101.0, 0.1),  # very steep rise: clipped to 0.1·α
            (0.99995, 0.5),  # barely rejected, nearly linear: clipped to 0.5·α
        ],
    )
    def test_backtrack_interpolates_within_bracket(self, f_step, expected):
        # f(0) = 1, f'(0) = -1, α = 1.  Minimiser of the quadratic through
        # these: 1 / (2·(f(α) − f(0) + 1)) = 1 / (2·f(α)).
        assert bfgs._backtrack(1.0, 1.0, -1.0, f_step) == pytest.approx(expected)

    def test_interpolated_steps_stay_within_bracket(self):
        # A steep quartic wall: the minimum is at x = 0.005, far short of
        # the first (unit) trial, so several trials are rejected; the
        # last interpolant (0.0025) falls strictly inside its bracket.
        def fun(x):
            return float(2e6 * x[0] ** 4 - x[0])

        def gradient(f, x, fx):
            return np.array([8e6 * x[0] ** 3 - 1.0])

        recorded, calls = _recording(fun)
        x0 = np.array([0.0])
        minimize_bfgs(recorded, x0, gradient=gradient, max_iterations=1)
        g0 = gradient(None, x0, None)
        steps = [float((c - x0)[0] / -g0[0]) for c in calls[1:]]
        assert len(steps) == 4 and 0.1 * steps[2] < steps[3] < 0.5 * steps[2]
        f0, slope = fun(x0), -float(g0 @ g0)
        for before, after in zip(steps, steps[1:]):
            assert 0.1 * before <= after <= 0.5 * before
            assert after == bfgs._backtrack(before, f0, slope, fun(x0 - before * g0))

    def test_nonfinite_trial_halves(self):
        def fun(x):
            return float("nan") if x[0] > 0.3 else float((x[0] - 1.0) ** 2)

        def gradient(f, x, fx):
            return 2.0 * (x - 1.0)

        recorded, calls = _recording(fun)
        minimize_bfgs(recorded, np.array([0.0]), gradient=gradient, max_iterations=1)
        # ‖g‖ = 2: first trial 0.5·2 = 1.0, then 0.5 and 0.25 (accepted).
        assert [float(c[0]) for c in calls[1:]] == [1.0, 0.5, 0.25]

    def test_collapse_before_first_step_is_a_line_search_failure(self):
        # A gradient of the wrong sign: every trial rises.  The search
        # must fail with no iteration taken (the fit restart trigger),
        # not shrink the step until x + step·d == x passes as a decrease.
        res = minimize_bfgs(
            lambda x: float(x @ x), np.ones(1), gradient=lambda f, x, fx: -2.0 * x
        )
        assert res.line_search_failed
        assert res.n_iterations == 0
        assert res.x[0] == 1.0 and res.fun == 1.0


def test_converged_dataset_i_fit_evaluation_count():
    # E-ACC/2 protocol: H0 and H1 as independent seeded fits, run to
    # convergence.
    from repro.core.engine import make_engine
    from repro.datasets import make_dataset
    from repro.models.branch_site import BranchSiteModelA
    from repro.optimize.ml import fit_model

    ds = make_dataset("i")
    engine = make_engine("slim-v2")
    fits = [
        fit_model(
            engine.bind(ds.tree, ds.alignment, BranchSiteModelA(fix_omega2=fix)),
            seed=1,
            max_iterations=150,
        )
        for fix in (True, False)
    ]
    assert all(fit.converged for fit in fits)
    assert [fit.lnl for fit in fits] == pytest.approx([-2590.416087, -2583.859694], abs=1e-5)
    assert [fit.n_evaluations for fit in fits] == [45, 53]


class TestFiniteDifference:
    def test_gradient_of_quadratic(self):
        x = np.array([0.3, -2.0, 5.0])
        grad = finite_difference_gradient(quadratic, x, quadratic(x))
        assert np.allclose(grad, 2 * (x - 1.5), rtol=1e-4)

    def test_gradient_at_minimum_is_small(self):
        x = np.full(3, 1.5)
        grad = finite_difference_gradient(quadratic, x, quadratic(x))
        assert np.max(np.abs(grad)) < 1e-4
