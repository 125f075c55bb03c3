"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a summary line; the terminal summary block lists PASS/FAIL
per criterion.
"""

import time

import numpy as np

from proxframe import (
    AnalysisProblem,
    FrameShrinkage,
    InducedRegularizer,
    analysis_objective,
    build_operator,
    example_operator,
    example_regularizer_closed_form,
    example_shrinkage,
    frame_prox,
    huber_envelope,
    induced_regularizer,
    numeric_prox,
    random_operator,
    shrink_potential,
    soft_shrink,
    soft_shrink_map,
    solve_analysis_dual,
    synthesis_solution,
    verify_operator_identities,
    verify_t_firm_nonexpansive,
    weaker_regularizer_check,
)
from support import central_diff


def test_criterion_1_closed_form_grid():
    """Induced regularizer matches the closed form on [-2, 2] within 1e-6."""
    start = time.perf_counter()
    reg = InducedRegularizer(example_shrinkage())
    grid = -2.0 + 0.01 * np.arange(401)
    numeric = induced_regularizer(reg, grid[None, :], tol=1e-9)
    closed = example_regularizer_closed_form(grid)
    worst = float(np.max(np.abs(numeric - closed)))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: grid of 401 points, max |f_num - f_closed| = {worst:.3e} "
          f"(tol 1e-6), {elapsed:.2f} s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_prox_identity_random_operators():
    """Shrinkage equals the T-metric numeric prox of f across 50 operators.

    This is the distance term of ``verify_prox_identity`` alone. The oracle
    solves the prox of g at Tx, so it tests the composition code and the
    scaled prox handle; the envelope term of that check is what ties f to
    the shrinkage.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    scales = np.array([0.1, 1.0, 10.0, 1.0, 0.1, 10.0, 1.0, 0.1, 1.0, 10.0] * 2)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, min(n, 10) + 1))
        cond = 10.0 ** rng.uniform(0.0, 3.0)
        op = random_operator(n, d, rng, cond=cond)
        x_block = rng.standard_normal((d, 20)) * scales
        for lam in (0.1, 1.0, 10.0):
            fs = FrameShrinkage(op, soft_shrink_map(lam))
            y1 = frame_prox(fs, x_block)
            rep = numeric_prox(fs, x_block, tol=1e-6)
            assert rep.converged
            gap = op.matrix @ (y1 - rep.minimizer)
            worst = max(worst, float(np.max(np.sqrt(np.sum(gap * gap, axis=0)))))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: 50 operators x 3 lambdas x 20 points, "
          f"max T-distance = {worst:.3e} (tol 1e-5), {elapsed:.1f} s")
    assert worst <= 1e-5
    assert elapsed < 120.0


def test_criterion_3_t_firm_nonexpansiveness():
    """Sampled firm nonexpansiveness in the T metric, 1e4 pairs per operator."""
    rng = np.random.default_rng(3)
    operators = [example_operator(), build_operator(np.eye(4))]
    for _ in range(8):
        n = int(rng.integers(2, 16))
        d = int(rng.integers(1, n + 1))
        operators.append(random_operator(n, d, rng, cond=10.0 ** rng.uniform(0.0, 3.0)))
    worst = -np.inf
    for i, op in enumerate(operators):
        fs = FrameShrinkage(op, soft_shrink_map(1.0))
        rep = verify_t_firm_nonexpansive(fs, trials=10000, tol=1e-12, seed=100 + i)
        worst = max(worst, rep.max_violation)
        assert rep.passed, (op.matrix.shape, rep)
    print(f"criterion 3: {len(operators)} operators x 1e4 pairs, "
          f"max violation = {worst:.3e} (tol 1e-12)")


def test_criterion_4_moreau_machinery():
    """Envelope gradient is the shrinkage residual; potential + envelope tile x^2/2."""
    rng = np.random.default_rng(4)
    worst_grad = 0.0
    checked = 0
    for lam in (0.3, 1.0, 2.5):
        for _ in range(200):
            x = rng.standard_normal(3) * rng.choice([0.1, 1.0, 10.0])
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            if np.any(np.abs(np.abs(x) - lam) < 10 * h):
                continue
            fd = central_diff(lambda v: huber_envelope(v, lam), x)
            expected = x - soft_shrink(x, lam)
            rel = np.max(np.abs(fd - expected)) / max(1.0, np.max(np.abs(expected)))
            worst_grad = max(worst_grad, float(rel))
            checked += 1
    assert checked > 400
    assert worst_grad <= 1e-6

    xs = np.linspace(-30.0, 30.0, 2001)
    worst_split = 0.0
    for lam in (0.05, 0.5, 1.0, 5.0):
        vals = np.array([
            abs(0.5 * x * x - (shrink_potential(x, lam) + huber_envelope(x, lam)))
            for x in xs
        ])
        worst_split = max(worst_split, float(vals.max()))
    assert worst_split <= 1e-12
    print(f"criterion 4: envelope-gradient rel err = {worst_grad:.3e} (tol 1e-6) on "
          f"{checked} samples; decomposition err = {worst_split:.3e} (tol 1e-12)")


def test_criterion_5_special_cases():
    """Orthogonal and row-orthonormal operators recover the closed forms."""
    rng = np.random.default_rng(5)

    # identity operator: the composition is plain soft shrinkage
    fs_id = FrameShrinkage(build_operator(np.eye(5)), soft_shrink_map(0.7))
    worst_id = 0.0
    for _ in range(20):
        x = rng.standard_normal(5) * rng.choice([0.1, 1.0, 10.0])
        worst_id = max(worst_id, float(np.max(np.abs(frame_prox(fs_id, x) - soft_shrink(x, 0.7)))))
    assert worst_id <= 1e-12

    # orthogonal T: composition matches T* S_lam T and f(x) = lam ||Tx||_1
    worst_orth = 0.0
    worst_f = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 9))
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        q = q * np.sign(np.diag(r))
        lam = float(rng.choice([0.3, 1.0]))
        fs = FrameShrinkage(build_operator(q), soft_shrink_map(lam))
        reg = InducedRegularizer(fs)
        x = rng.standard_normal(d)
        worst_orth = max(worst_orth, float(np.max(np.abs(
            frame_prox(fs, x) - q.T @ soft_shrink(q @ x, lam)))))
        worst_f = max(worst_f, abs(
            induced_regularizer(reg, x) - lam * np.sum(np.abs(q @ x))))
        # and it solves the analysis problem for orthogonal T
        rep = solve_analysis_dual(AnalysisProblem(x, q, lam), tol=1e-13)
        assert np.max(np.abs(rep.minimizer - frame_prox(fs, x))) <= 1e-6
    assert worst_orth <= 1e-12
    assert worst_f <= 1e-12

    # row-orthonormal T: closed-form synthesis solution matches the dual solver
    worst_synth = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, n)))
        t = q[:, :n].T
        x = rng.standard_normal(d) * rng.choice([0.5, 2.0])
        lam = float(rng.choice([0.1, 0.5, 1.0]))
        out = synthesis_solution(x, t, lam)
        rep = solve_analysis_dual(AnalysisProblem(x, t, lam), tol=1e-14)
        assert rep.converged
        worst_synth = max(worst_synth, float(np.max(np.abs(out - rep.minimizer))))
    assert worst_synth <= 1e-6
    print(f"criterion 5: identity err = {worst_id:.2e}, orthogonal err = {worst_orth:.2e}, "
          f"f = g o T err = {worst_f:.2e} (tol 1e-12); synthesis vs dual on 50 instances "
          f"= {worst_synth:.3e} (tol 1e-6)")


def test_criterion_6_weaker_regularizer():
    """f never exceeds g o T, and the drop is strict at the flagship point."""
    rng = np.random.default_rng(6)
    shrinkages = [example_shrinkage()]
    for _ in range(6):
        n = int(rng.integers(2, 14))
        d = int(rng.integers(1, n))
        lam = float(rng.choice([0.1, 1.0, 10.0]))
        shrinkages.append(FrameShrinkage(
            random_operator(n, max(d, 1), rng, cond=10.0 ** rng.uniform(0.0, 3.0)),
            soft_shrink_map(lam),
        ))
    worst = -np.inf
    for i, fs in enumerate(shrinkages):
        reg = InducedRegularizer(fs)
        rep = weaker_regularizer_check(reg, trials=300, tol=1e-9, seed=60 + i)
        worst = max(worst, rep.max_violation)
        assert rep.passed, rep

    reg0 = InducedRegularizer(example_shrinkage())
    f1 = induced_regularizer(reg0, np.array([1.0]), tol=1e-9)
    g1 = float(reg0.g(example_operator().matrix @ np.array([1.0])))
    assert g1 == 3.0
    assert f1 <= 2.9 + 1e-6
    assert g1 - f1 > 0.05
    print(f"criterion 6: max f - g over {len(shrinkages)} shrinkages = {worst:.3e} "
          f"(tol 1e-9); strict drop at flagship point: {g1 - f1:.3f}")


def test_criterion_7_shrinkage_is_not_the_analysis_minimizer():
    """The analysis-problem solution and the shrinkage differ decisively."""
    prob = AnalysisProblem(np.array([1.0]), example_operator(), 1.0)
    rep = solve_analysis_dual(prob, tol=1e-12)
    assert rep.converged
    y_dual = float(rep.minimizer[0])
    y_shrink = float(frame_prox(example_shrinkage(), np.array([1.0]))[0])
    assert abs(y_shrink - 0.4) <= 1e-12
    assert abs(y_dual) <= 1e-6
    assert abs(y_dual - y_shrink) > 0.1  # far beyond the combined solver tolerances
    assert rep.objective < analysis_objective(prob, np.array([y_shrink])) - 0.5
    print(f"criterion 7: analysis minimizer {y_dual:.2e} vs shrinkage {y_shrink:.3f}; "
          f"objectives {rep.objective:.4f} < "
          f"{analysis_objective(prob, np.array([y_shrink])):.4f}")


def test_criterion_8_operator_identities():
    """Pseudoinverse and frame-bound identities hold on 100 random operators."""
    rng = np.random.default_rng(8)
    worst = -np.inf
    for i in range(100):
        n = int(rng.integers(1, 26))
        d = int(rng.integers(1, min(n, 12) + 1))
        if i % 2 == 0:
            op = random_operator(n, d, rng, cond=10.0 ** rng.uniform(0.0, 3.0))
        else:
            # plain Gaussian, padded tall enough to stay well conditioned
            op = build_operator(rng.standard_normal((n + 3, d)))
        rep = verify_operator_identities(op, tol=1e-10, trials=100, seed=800 + i)
        worst = max(worst, rep.max_violation)
        assert rep.passed, (op.matrix.shape, rep)
    print(f"criterion 8: 100 operators, max identity violation = {worst:.3e} (tol 1e-10)")
