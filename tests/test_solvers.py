import numpy as np
import pytest

from proxframe import (
    AnalysisProblem,
    NonPositiveLambda,
    NotParsevalRow,
    analysis_objective,
    build_operator,
    example_operator,
    example_shrinkage,
    frame_prox,
    random_operator,
    soft_shrink,
    solve_analysis_dual,
    synthesis_solution,
)
from support import grid_min


def random_parseval_rows(n, d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, n)))
    return q[:, :n].T  # n orthonormal rows of length d


def test_dual_solver_orthogonal_case(rng):
    x = rng.standard_normal(6)
    prob = AnalysisProblem(x, build_operator(np.eye(6)), 0.8)
    rep = solve_analysis_dual(prob, tol=1e-12)
    assert rep.converged
    np.testing.assert_allclose(rep.minimizer, soft_shrink(x, 0.8), atol=1e-8)


def test_dual_solver_vanishing_regularization(rng):
    x = rng.standard_normal(4)
    op = random_operator(6, 4, rng)
    rep = solve_analysis_dual(AnalysisProblem(x, op, 1e-12), tol=1e-12)
    np.testing.assert_allclose(rep.minimizer, x, atol=1e-6)


def test_dual_solver_flagship_differs_from_shrinkage():
    prob = AnalysisProblem(np.array([1.0]), example_operator(), 1.0)
    rep = solve_analysis_dual(prob, tol=1e-12)
    assert rep.converged
    # grid oracle for the primal objective
    y_grid, _ = grid_min(lambda y: 0.5 * (1 - y) ** 2 + 3.0 * abs(y), -2.0, 2.0)
    assert abs(rep.minimizer[0] - y_grid) <= 1e-4
    assert abs(rep.minimizer[0]) <= 1e-6  # the true minimizer is 0
    y_shrink = frame_prox(example_shrinkage(), np.array([1.0]))
    assert abs(rep.minimizer[0] - y_shrink[0]) > 0.3
    # and the dual solution really has the lower analysis objective
    assert rep.objective < analysis_objective(prob, y_shrink) - 0.5


def test_dual_solver_duality_gap_reported(rng):
    op = random_operator(8, 5, rng)
    prob = AnalysisProblem(rng.standard_normal(5), op, 0.5)
    rep = solve_analysis_dual(prob, tol=1e-10)
    assert rep.converged
    assert rep.residual <= 1e-10
    assert rep.iterations >= 1


def test_dual_solver_not_converged_flag(rng):
    # one iteration leaves a gap of 0.08 here; the second certifies 1e-14
    op = random_operator(8, 5, rng)
    prob = AnalysisProblem(rng.standard_normal(5), op, 0.5)
    rep = solve_analysis_dual(prob, tol=1e-14, max_iter=1)
    assert not rep.converged
    assert rep.iterations == 1


def test_dual_solver_single_column_closed_form(rng):
    # for T = t in R^{n x 1}, lam ||Ty||_1 = lam ||t||_1 |y|: the minimizer is
    # soft shrinkage of x at lam ||t||_1; a gap of tol bounds |y - y*| by sqrt(2 tol)
    for n in range(1, 41):
        op = random_operator(n, 1, rng)
        x = 3.0 * rng.standard_normal(1)
        lam = float(rng.choice([0.1, 0.5, 1.0]))
        rep = solve_analysis_dual(AnalysisProblem(x, op, lam), tol=1e-12)
        assert rep.converged and rep.residual <= 1e-12
        expected = soft_shrink(x, lam * np.sum(np.abs(op.matrix)))
        np.testing.assert_allclose(rep.minimizer, expected, rtol=0, atol=np.sqrt(2e-12))


def random_problems(count=100):
    """Random analysis problems: 2 <= n < 60, 1 <= d <= n, condition 1-1e3."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        n = rng.integers(2, 60)
        d = rng.integers(1, n + 1)
        cond = 10 ** rng.uniform(0, 3)
        op = random_operator(n, d, rng, cond=cond)
        x = rng.standard_normal(d) * 10 ** rng.uniform(-2, 1)
        lam = rng.choice([0.1, 0.5, 1, 10])
        yield AnalysisProblem(x, op, lam)


# draws of random_problems on which 200000 steps of plain projected gradient
# stay above a gap of 1e-10
@pytest.mark.parametrize("index", [6, 27, 50, 62])
def test_dual_solver_certifies_slow_projected_gradient_cases(index):
    prob = list(random_problems(index + 1))[index]
    rep = solve_analysis_dual(prob, tol=1e-10)
    assert rep.converged and rep.residual <= 1e-10
    ref = solve_analysis_dual(prob, tol=1e-12)
    assert ref.converged
    assert rep.objective <= ref.objective + 1e-10


def test_analysis_problem_requires_positive_lambda():
    with pytest.raises(NonPositiveLambda):
        AnalysisProblem(np.array([1.0]), example_operator(), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analysis_problem_requires_finite_operator(bad):
    matrix = np.array([[1.0, 2.0], [bad, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        AnalysisProblem(np.array([1.0, 2.0]), matrix, 1.0)


def test_synthesis_identity_case(rng):
    x = rng.standard_normal(5)
    out = synthesis_solution(x, np.eye(5), 0.4)
    np.testing.assert_allclose(out, soft_shrink(x, 0.4), atol=1e-14)


def test_synthesis_matches_dual_solver():
    t = np.array([[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]])
    x = np.array([2.0, 0.0])
    out = synthesis_solution(x, t, 0.5)
    rep = solve_analysis_dual(AnalysisProblem(x, t, 0.5), tol=1e-14)
    np.testing.assert_allclose(out, rep.minimizer, atol=1e-6)


def test_synthesis_large_lambda_projects_out_rows(rng):
    t = random_parseval_rows(2, 5, rng)
    x = rng.standard_normal(5)
    out = synthesis_solution(x, t, 1e6)
    np.testing.assert_allclose(out, x - t.T @ (t @ x), atol=1e-12)


def test_synthesis_rejects_non_parseval(rng):
    with pytest.raises(NotParsevalRow):
        synthesis_solution(rng.standard_normal(3), 2.0 * np.eye(3), 1.0)
    with pytest.raises(NotParsevalRow):
        synthesis_solution(rng.standard_normal(2), np.eye(3)[:, :2], 1.0)  # n > d


def test_synthesis_random_parseval_instances(rng):
    for _ in range(8):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(n, n + 4))
        t = random_parseval_rows(n, d, rng)
        x = rng.standard_normal(d) * rng.choice([0.5, 2.0])
        lam = float(rng.choice([0.1, 0.5, 1.0]))
        out = synthesis_solution(x, t, lam)
        rep = solve_analysis_dual(AnalysisProblem(x, t, lam), tol=1e-14)
        assert rep.converged
        np.testing.assert_allclose(out, rep.minimizer, atol=1e-6)
