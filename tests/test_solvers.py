import numpy as np
import pytest

from proxframe import (
    AnalysisProblem,
    DimensionMismatch,
    InducedRegularizer,
    NonPositiveLambda,
    NotConverged,
    NotParsevalRow,
    analysis_objective,
    build_operator,
    example_operator,
    example_shrinkage,
    frame_prox,
    induced_regularizer,
    random_operator,
    soft_shrink,
    solve_analysis_dual,
    synthesis_solution,
)
from proxframe import shrinkage, solvers
from proxframe.cli import load_named_matrix
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
    op = build_operator(rng.standard_normal((6, 4)))
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
    op = build_operator(rng.standard_normal((8, 5)))
    prob = AnalysisProblem(rng.standard_normal(5), op, 0.5)
    rep = solve_analysis_dual(prob, tol=1e-10)
    assert rep.converged
    assert rep.residual <= 1e-10
    assert rep.iterations >= 1


@pytest.mark.parametrize("k", [-400, -3, 5, 531])
def test_dual_solver_power_of_two_scaling_is_exact(k):
    # data and lam scaled by 2^k, and tol by 4^k, give the same iterations
    # and the minimizer scaled by 2^k, bit for bit, whether the solve scales
    # them down or up; at k = 531 the squares of the data overflow float64,
    # and so does the objective, which reports inf
    t = load_named_matrix("random:6x3:1")
    x, lam, tol = np.array([1.25, 2.0**-30, -0.25]), 0.375, 1e-14
    small = solve_analysis_dual(AnalysisProblem(x, t, lam), tol=tol)
    scaled = solve_analysis_dual(
        AnalysisProblem(np.ldexp(x, k), t, np.ldexp(lam, k)), tol=np.ldexp(tol, 2 * k)
    )
    assert small.converged and scaled.converged
    assert scaled.iterations == small.iterations
    np.testing.assert_array_equal(scaled.minimizer, np.ldexp(small.minimizer, k))
    assert scaled.residual == np.ldexp(small.residual, 2 * k)
    assert scaled.objective == (np.inf if k == 531 else np.ldexp(small.objective, 2 * k))


def test_dual_solver_tiny_data_certifies_no_underflowed_gap():
    # near 1e-170 the gap's terms underflow to 0 unless the solve scales the
    # data up: at tol 0 it then stops unconverged at its first iterate, as
    # the problem one scale up does, and lands on that iterate scaled down;
    # its gap, scaled back, is below the smallest subnormal, and the report
    # keeps it above tol rather than rounding it to 0
    t = load_named_matrix("random:6x3:1")
    x, lam = np.array([1.25, 0.5, -0.25]), 0.375
    ref = solve_analysis_dual(AnalysisProblem(x, t, lam), tol=0.0)
    rep = solve_analysis_dual(AnalysisProblem(x * 1e-170, t, lam * 1e-170), tol=0.0)
    assert not ref.converged and not rep.converged
    assert rep.iterations == ref.iterations == 1
    assert rep.residual > 0.0  # the tol it was given
    scale = np.max(np.abs(ref.minimizer))
    np.testing.assert_allclose(rep.minimizer / 1e-170, ref.minimizer, rtol=0, atol=1e-14 * scale)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analysis_objective_scales_its_data_by_a_power_of_two():
    # the squares of data near 1e160 overflow float64: the objective is
    # taken on the data divided by a power of two and reports inf without an
    # overflow warning; at any power-of-two scale it is exact. A lam far
    # above y scales the l1 term apart from y, so y / lam does not underflow
    t = load_named_matrix("random:6x3:1")
    big = AnalysisProblem(np.array([1e160, 1.0, -3e159]), t, 3e159)
    assert analysis_objective(big, np.array([1.0, 0.0, 0.0])) == np.inf
    e1 = np.array([1.0, 0.0, 0.0])
    l1 = np.sum(np.abs(t @ e1))
    value = analysis_objective(AnalysisProblem(1e-280 * e1, t, 1e200), 1e-280 * e1)
    assert value == pytest.approx(1e-80 * l1, rel=1e-14, abs=0)
    x, y, lam = np.array([1.25, 2.0**-30, -0.25]), np.array([0.5, -3.0, 0.125]), 0.375
    value = analysis_objective(AnalysisProblem(x, t, lam), y)
    for k in (-400, -3, 5, 400):
        scaled = AnalysisProblem(np.ldexp(x, k), t, np.ldexp(lam, k))
        assert analysis_objective(scaled, np.ldexp(y, k)) == np.ldexp(value, 2 * k)


def test_iteration_caps_are_module_constants(monkeypatch):
    # no solver takes its cap as an argument: each reads its module's
    # _MAX_ITER, which a test lowers to reach it
    assert (shrinkage._MAX_ITER, solvers._MAX_ITER) == (100000, 200000)
    monkeypatch.setattr(shrinkage, "_MAX_ITER", 16)
    with pytest.raises(NotConverged, match="after 16 iterations"):
        induced_regularizer(InducedRegularizer(example_shrinkage()), 0.3, tol=1e-12)


def test_dual_solver_not_converged_flag(monkeypatch):
    # the first draw of random_problems takes 46 BVLS steps to certify 1e-10;
    # one step leaves it uncertified
    prob = next(random_problems(1))
    assert solve_analysis_dual(prob, tol=1e-10).iterations >= 2
    monkeypatch.setattr(solvers, "_MAX_ITER", 1)
    rep = solve_analysis_dual(prob, tol=1e-10)
    assert not rep.converged
    assert rep.iterations == 1


@pytest.mark.parametrize("matrix", [np.zeros((3, 2)), np.zeros((0, 2))], ids=["zeros3x2", "rowless"])
def test_dual_solver_zero_matrix_certifies_the_data(matrix):
    # T y = 0 for every y, so y = x is the minimizer, with a duality gap of 0
    x = np.array([1.0, -2.0])
    rep = solve_analysis_dual(AnalysisProblem(x, matrix, 1.0), tol=0.0)
    assert rep.converged and rep.iterations == 1 and rep.residual == 0.0
    np.testing.assert_array_equal(rep.minimizer, x)
    assert rep.objective == 0.0


def test_dual_solver_single_column_closed_form(rng):
    # for T = t in R^{n x 1}, lam ||Ty||_1 = lam ||t||_1 |y|: the minimizer is
    # soft shrinkage of x at lam ||t||_1; a gap of tol bounds |y - y*| by sqrt(2 tol)
    for n in range(1, 41):
        op = build_operator(rng.standard_normal((n, 1)))
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


def test_dual_solver_certifies_every_random_problem_within_60_iterations():
    # BVLS moves one coordinate from the bound to the free set per step; the
    # worst of the 100 draws takes 46 steps
    for index, prob in enumerate(random_problems()):
        rep = solve_analysis_dual(prob, tol=1e-10)
        assert rep.converged and rep.residual <= 1e-10, index
        assert rep.iterations <= 60, index


def test_dual_solver_runs_past_the_rounding_of_an_early_gap():
    # the first iterate's gap, 1.9, has terms whose rounding is above 3e-15;
    # a later iterate certifies a gap of 1.8e-15, and at tol 0 the solve
    # ends at that same iterate, where no bound coordinate points inward
    prob = AnalysisProblem(np.full(20, 2.0), load_named_matrix("random:40x20:1"), 0.2)
    rep = solve_analysis_dual(prob, tol=3e-15)
    assert rep.converged and rep.residual <= 3e-15 and rep.iterations == 6
    exact = solve_analysis_dual(prob, tol=0.0)
    assert not exact.converged and exact.iterations == 6
    np.testing.assert_array_equal(exact.minimizer, rep.minimizer)


def test_dual_solver_tol_zero_ends_on_its_own_stops():
    # at tol 0 only a gap of exactly 0 certifies; every draw still ends, on
    # such a gap or once BVLS has no coordinate left to free, at a point no
    # worse than the one certified at 1e-10. The worst takes 49 steps
    for index, prob in enumerate(random_problems()):
        rep = solve_analysis_dual(prob, tol=0.0)
        assert rep.iterations <= 60, index
        assert rep.residual <= 1e-10, index
        assert rep.objective <= solve_analysis_dual(prob, tol=1e-10).objective + 1e-12, index


def test_dual_solver_repeated_and_negated_rows_certify(monkeypatch):
    # rows repeated, negated or zero make the least-squares problem on the
    # free set rank-deficient and tie coordinates; integer entries make the
    # ties exact
    rng = np.random.default_rng(5)
    monkeypatch.setattr(solvers, "_MAX_ITER", 400)
    for _ in range(200):
        d, m = int(rng.integers(1, 12)), int(rng.integers(1, 15))
        base = rng.standard_normal((m, d))
        if rng.random() < 0.5:
            base = np.round(base)
        t = np.vstack([base, -base, base[: m // 2], np.zeros((int(rng.integers(0, 3)), d))])
        t = t[rng.permutation(t.shape[0])]
        x = np.round(rng.standard_normal(d) * 4) / 2
        lam = float(rng.choice([0.125, 0.5, 1, 4]))
        rep = solve_analysis_dual(AnalysisProblem(x, t, lam), tol=1e-10)
        assert rep.converged and rep.iterations <= 30


def test_dual_solver_certifies_a_zero_minimizer_by_its_own_gap():
    # at lam = 1e300 the minimizer is 0: the dual point solving T* p = x lies
    # inside the box. The usual gap lam ||Ty||_1 - <p, Ty> rounds to about
    # 1e285 there, but the gap of the primal point 0, 1/2 ||x - T* p||^2,
    # certifies it; taken on y divided by its own power of two, that square
    # does not underflow to 0
    t = load_named_matrix("random:6x3:1")
    x = np.array([1.25, 0.5, -0.25])
    rep = solve_analysis_dual(AnalysisProblem(x, t, 1e300), tol=1e-10)
    assert rep.converged and rep.iterations == 1
    assert 0.0 < rep.residual <= 1e-10
    np.testing.assert_array_equal(rep.minimizer, np.zeros(3))
    assert rep.objective == 0.5 * float(x @ x)


def test_analysis_problem_requires_positive_lambda():
    with pytest.raises(NonPositiveLambda):
        AnalysisProblem(np.array([1.0]), example_operator(), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analysis_problem_requires_finite_operator(bad):
    matrix = np.array([[1.0, 2.0], [bad, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        AnalysisProblem(np.array([1.0, 2.0]), matrix, 1.0)


@pytest.mark.parametrize("x, matrix", [
    (np.ones((1, 2)), example_operator()),  # x is not a vector
    (np.ones(3), example_operator()),  # three entries for one column
    (np.ones(2), np.ones(3)),  # the matrix is not 2-d
])
def test_analysis_problem_requires_matching_shapes(x, matrix):
    with pytest.raises(DimensionMismatch):
        AnalysisProblem(x, matrix, 1.0)


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
