import dataclasses
import warnings
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxframe import (
    AnalysisProblem,
    DimensionMismatch,
    FrameShrinkage,
    InducedRegularizer,
    NotConverged,
    ProxMap,
    build_operator,
    example_operator,
    example_regularizer_closed_form,
    example_shrinkage,
    frame_prox,
    huber_envelope,
    identity_map,
    induced_regularizer,
    numeric_prox,
    random_operator,
    soft_shrink,
    soft_shrink_map,
    solve_analysis_dual,
    verify_firm_nonexpansive,
    verify_moreau_characterization,
    verify_operator_identities,
    verify_prox_identity,
    verify_t_firm_nonexpansive,
    weaker_regularizer_check,
)
import dead_zone_grids
from proxframe import sampling as sampling_module
from proxframe import shrinkage as shrinkage_module
from proxframe.cli import load_named_matrix
from support import (
    _rational_solve,
    central_diff,
    exact_regularizer,
    exact_t_firm_violations,
    fista_steps_reference,
    golden_section,
    line_regularizer,
    run_samples,
    t_gradient,
)


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def test_frame_prox_flagship_value():
    fs = example_shrinkage()
    assert abs(frame_prox(fs, np.array([1.0]))[0] - 0.4) <= 1e-14


def test_frame_prox_orthogonal_reduces_to_soft(rng):
    q = random_orthogonal(5, rng)
    fs = FrameShrinkage(build_operator(q), soft_shrink_map(0.7))
    for _ in range(20):
        x = rng.standard_normal(5) * rng.choice([0.1, 1.0, 10.0])
        lhs = frame_prox(fs, x)
        rhs = q.T @ soft_shrink(q @ x, 0.7)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_frame_prox_identity_inner_is_identity(rng):
    op = build_operator(rng.standard_normal((7, 3)))
    fs = FrameShrinkage(op, identity_map())
    x = rng.standard_normal(3)
    np.testing.assert_allclose(frame_prox(fs, x), x, atol=1e-12)


def test_frame_prox_batch_matches_columns(rng):
    fs = example_shrinkage()
    xs = rng.standard_normal((1, 9))
    batch = frame_prox(fs, xs)
    single = np.column_stack([frame_prox(fs, xs[:, i]) for i in range(9)])
    np.testing.assert_array_equal(batch, single)


def test_frame_prox_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        frame_prox(example_shrinkage(), np.array([1.0, 2.0]))


def test_closed_form_branches():
    # both branch formulas agree at the breakpoint to machine precision
    inner = 2.5 * 0.4 + 0.625 * 0.4**2
    outer = 3.0 * 0.4 - 0.1
    assert abs(inner - outer) <= 5e-16
    assert example_regularizer_closed_form(0.4) == inner
    assert example_regularizer_closed_form(0.0) == 0.0
    assert np.isclose(example_regularizer_closed_form(-1.0), 2.9, atol=1e-15)
    grid = np.array([-0.3, 0.1, 0.9])
    np.testing.assert_allclose(
        example_regularizer_closed_form(grid),
        [2.5 * 0.3 + 0.625 * 0.09, 2.5 * 0.1 + 0.625 * 0.01, 2.7 - 0.1],
        atol=1e-15,
    )


def test_induced_regularizer_flagship_values():
    reg = InducedRegularizer(example_shrinkage())
    assert abs(induced_regularizer(reg, np.array([0.2]), tol=1e-9) - 0.525) <= 1e-8
    assert abs(induced_regularizer(reg, np.array([1.0]), tol=1e-9) - 2.9) <= 1e-8
    assert abs(induced_regularizer(reg, np.array([0.0]), tol=1e-9)) <= 1e-12


def test_induced_regularizer_grid_matches_closed_form():
    reg = InducedRegularizer(example_shrinkage())
    ys = np.arange(-1.0, 1.0 + 1e-12, 0.05)
    vals = induced_regularizer(reg, ys[None, :], tol=1e-9)
    np.testing.assert_allclose(vals, example_regularizer_closed_form(ys), atol=1e-7)


def test_induced_regularizer_bijective_shortcut(rng):
    q = random_orthogonal(4, rng) * 1.7
    fs = FrameShrinkage(build_operator(q), soft_shrink_map(0.9))
    reg = InducedRegularizer(fs)
    x = rng.standard_normal(4)
    assert induced_regularizer(reg, x) == 0.9 * np.sum(np.abs(q @ x))


def test_induced_regularizer_batch_matches_single(rng):
    op = build_operator(rng.standard_normal((6, 3)))
    reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(0.5)))
    xs = rng.standard_normal((3, 7))
    batch = induced_regularizer(reg, xs, tol=1e-10)
    singles = np.array([induced_regularizer(reg, xs[:, i], tol=1e-10) for i in range(7)])
    np.testing.assert_allclose(batch, singles, atol=1e-10)


def test_induced_regularizer_not_converged(monkeypatch):
    reg = InducedRegularizer(example_shrinkage())
    monkeypatch.setattr(shrinkage_module, "_MAX_ITER", 2)
    with pytest.raises(NotConverged):
        induced_regularizer(reg, np.array([1.0]), tol=1e-12)


@pytest.mark.parametrize("cap, message", [
    # the gap is checked every 8 iterations: below 8 none runs, and 12 runs 8
    (5, "duality gap of inf after 0 iterations"),
    (12, r"duality gap of \d\.\d{3}e-0\d after 8 iterations"),
])
def test_induced_regularizer_not_converged_names_the_iterations_run(cap, message, monkeypatch):
    reg = InducedRegularizer(example_shrinkage())
    monkeypatch.setattr(shrinkage_module, "_MAX_ITER", cap)
    with pytest.raises(NotConverged, match=message):
        induced_regularizer(reg, 0.3)


def test_induced_regularizer_beyond_the_float64_range_is_not_converged():
    # at lam 1e200 the dual's ||u||^2 and ADMM's c / rho overflow: an
    # infinite rounding floor would certify any value, and a NaN gap never
    # closes. The solve raises at the first gap check that is not finite,
    # with no RuntimeWarning
    reg = InducedRegularizer(FrameShrinkage(example_operator(), soft_shrink_map(1e200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotConverged, match=r"lam 1e\+200 .* at iteration \d+"):
            induced_regularizer(reg, 1.0)


def test_nonfinite_signals_rejected(rng):
    fs = FrameShrinkage(build_operator(rng.standard_normal((6, 3))), soft_shrink_map(1.0))
    reg = InducedRegularizer(fs)
    for bad in (np.nan, np.inf, -np.inf):
        xs = rng.standard_normal((3, 5))
        xs[1, 2] = bad
        for fn in (lambda x: frame_prox(fs, x), lambda x: induced_regularizer(reg, x)):
            with pytest.raises(ValueError, match="column 2"):
                fn(xs)
            with pytest.raises(ValueError, match="column 0"):
                fn(xs[:, 2])
    # a lone infinity once surfaced as NonPositiveLambda from inside the solve
    with pytest.raises(ValueError, match="not finite"):
        induced_regularizer(InducedRegularizer(example_shrinkage()), [np.inf])


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 13),
    d_frac=st.floats(0.0, 1.0, exclude_max=True),
    lam=st.sampled_from([0.1, 1.0, 10.0]),
    log_cond=st.floats(0.0, 3.0),
)
def test_induced_regularizer_gap_certificate(seed, n, d_frac, lam, log_cond):
    # At a shrinkage point y = T^+ S(Tx), with p = S(Tx), the pair
    # w = B^T p, u = Tx - p is primal-dual optimal for f(y), so the dual
    # objective at u is a lower bound on f(y) that is tight in exact arithmetic.
    rng = np.random.default_rng(seed)
    d = 1 + int(d_frac * (n - 1))
    op = random_operator(n, d, rng, cond=10.0**log_cond)
    fs = FrameShrinkage(op, soft_shrink_map(lam))
    reg = InducedRegularizer(fs)
    tol = 1e-9
    x = rng.standard_normal((d, 6)) * np.array([0.1, 1.0, 10.0, 0.1, 1.0, 10.0])
    y = frame_prox(fs, x)
    tx, ty = op.matrix @ x, op.matrix @ y
    u = tx - soft_shrink(tx, lam)
    null_u = u - op.range_proj @ u
    dual = np.sum(u * ty, axis=0) - 0.5 * np.sum(u * null_u, axis=0)
    g_ty = reg.g(ty)
    # float64 rounding of the bound and of the certified value
    slack = 1e-12 * (1.0 + g_ty + np.sum(u * u, axis=0))

    vals = induced_regularizer(reg, y, tol=tol)
    assert np.all(vals >= dual - slack)
    assert np.all(vals - dual <= tol + slack)
    assert np.all(vals <= g_ty)
    # each column is certified on its own; BLAS may round a one-column
    # product differently, so batch and single agree to the certified gap
    singles = np.array([induced_regularizer(reg, y[:, j], tol=tol) for j in range(6)])
    np.testing.assert_allclose(vals, singles, rtol=0.0, atol=tol + np.max(slack))


def test_induced_regularizer_deep_in_dead_zone(rng):
    # |Tx| about 1e-10 lam: unit-step FISTA on the dual creeps here, yet the
    # values must come back certified, inside [0, g(Tx)] and consistent
    # across tolerances
    op = build_operator(rng.standard_normal((9, 2)))
    reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(10.0)))
    xs = 1e-9 * rng.standard_normal((2, 20))
    loose = induced_regularizer(reg, xs, tol=1e-7)
    tight = induced_regularizer(reg, xs, tol=1e-10)
    assert np.all(loose >= 0.0) and np.all(loose <= reg.g(op.matrix @ xs))
    assert np.all(np.abs(loose - tight) <= 1e-7)


def test_induced_regularizer_compaction_across_both_phases(rng, certified):
    # ordinary columns are certified by FISTA and leave the block while the
    # deep-dead-zone ones stay past _FISTA_ITERS, where ADMM joins the same
    # FISTA run on them, and leave it one by one; each column must still
    # come back as its own single-column evaluation
    op = build_operator(rng.standard_normal((9, 2)))
    fs = FrameShrinkage(op, soft_shrink_map(10.0))
    reg = InducedRegularizer(fs)
    tol = 1e-9
    x = rng.standard_normal((2, 12))
    x[:, ::2] *= 1e-9
    vals = induced_regularizer(reg, x, tol=tol)
    # one solve of the whole block, in which ADMM joins on some columns only
    (iters,) = certified
    assert 0 < np.sum(iters > shrinkage_module._FISTA_ITERS) < x.shape[1], iters

    tx = op.matrix @ x
    u = tx - soft_shrink(tx, 10.0)
    g_tx = reg.g(tx)
    # the rounding slack of test_induced_regularizer_gap_certificate
    slack = 1e-12 * (1.0 + g_tx + np.sum(u * u, axis=0))
    singles = np.array([induced_regularizer(reg, x[:, j], tol=tol) for j in range(12)])
    assert np.all(np.abs(vals - singles) <= tol + slack)
    assert np.all(vals <= g_tx)


def test_admm_at_its_starting_penalty_certifies_a_conditioned_dead_zone(certified):
    # a case of the dead-zone grids (tests/dead_zone_grids.py): |Tx| below
    # 1e-6 lam on an operator of condition 1e3. ADMM, held at its starting
    # penalty max|Tx| / lam, certifies it at tol 1e-11 in 15624 iterations;
    # with the penalty balanced against ADMM's residuals it stayed open at
    # _MAX_ITER, at a gap of 1.4e-11
    op = random_operator(60, 30, np.random.default_rng(60030), 1e3)
    reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(0.1)))
    x = 1e-7 * np.random.default_rng(7).standard_normal((30, 8))
    vals = induced_regularizer(reg, x, tol=1e-11)
    (iters,) = certified
    assert np.max(iters) > shrinkage_module._FISTA_ITERS, iters
    assert np.all(vals >= 0.0) and np.all(vals <= reg.g(op.matrix @ x))


def test_dead_zone_grids_script_runs_a_case(capsys):
    # one case of the script's 96-case grid whose columns reach the ADMM
    # join, so its grid construction and recording keep working
    label = "9x2 cond 1 lam 1 scale 1e-07"
    cases = [case for case in dead_zone_grids.grid96() if case[0] == label]
    ((got, iters),) = dead_zone_grids.run_grid("96", cases, tol=1e-7)
    assert got == label and np.max(iters) > shrinkage_module._FISTA_ITERS, iters
    assert capsys.readouterr().out.splitlines()[-1].startswith("96: 1/1 certified")


def test_fista_beside_admm_certifies_a_conditioned_dead_zone_at_tight_tol():
    # FISTA goes on beside ADMM after the join: on this case of the 96-case
    # grid the two together certify at tol 1e-11 (in 39,096 iterations),
    # while ADMM alone after the join stayed open at a gap of 1.5e-9
    label = "200x100 cond 1000 lam 1 scale 0.0001"
    cases = [case for case in dead_zone_grids.grid96() if case[0] == label]
    ((got, iters),) = dead_zone_grids.run_grid("96", cases, tol=1e-11)
    assert got == label and iters is not None
    assert np.max(iters) > shrinkage_module._FISTA_ITERS, iters


@pytest.mark.parametrize("d", range(1, 13))
def test_induced_regularizer_matches_exact_line_reference(d):
    # for a (d+1) x d operator the inner problem is one-dimensional, and
    # support.line_regularizer solves it exactly from its breakpoints; the
    # evaluation must land within its certified gap of that value
    rng = np.random.default_rng(100 + d)
    tol = 1e-10
    for cond in (1.0, 1e3):
        op = random_operator(d + 1, d, rng, cond=cond)
        b = np.linalg.svd(op.matrix)[0][:, d]
        x = rng.standard_normal((d, 5)) * np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
        c = op.matrix @ x
        for lam in (0.1, 1.0, 10.0):
            reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(lam)))
            vals = induced_regularizer(reg, x, tol=tol)
            ref = np.array([line_regularizer(c[:, j], b, lam) for j in range(5)])
            # the gap floor, 64 ulps of at most 1 + g(Tx) + (d+1) lam^2, and
            # the reference's own rounding
            slack = 1e-13 * (1.0 + reg.g(c) + (d + 1) * lam * lam)
            assert np.all(np.abs(vals - ref) <= tol + slack), (cond, lam, vals - ref)


def integer_operator(n, d, rng):
    """An n x d matrix of integers in [-3, 3] with full column rank."""
    while True:
        t = rng.integers(-3, 4, size=(n, d))
        if np.linalg.matrix_rank(t) == d:
            return t


@pytest.mark.parametrize("d", range(1, 7))
def test_exact_reference_agrees_with_line_reference(d):
    # two references for a (d+1) x d operator: support.exact_regularizer in
    # rational arithmetic, and line_regularizer, which rounds through b
    rng = np.random.default_rng(300 + d)
    t = integer_operator(d + 1, d, rng)
    b = np.linalg.svd(t.astype(float))[0][:, d]
    for lam in (0.5, 2.0):
        y = rng.integers(-64, 65, size=d) / 16.0
        exact = exact_regularizer(t, y, lam)
        assert abs(line_regularizer(t @ y, b, lam) - exact) <= 1e-13 * (1 + abs(exact))


@pytest.mark.parametrize("n", range(3, 8))
def test_induced_regularizer_matches_exact_reference(n):
    # at tol 1e-12 the evaluation is within 1e-12 of the exact f, relative
    # to max(1, f). The certified bracket itself is not asserted: rounding in
    # P and in the gap terms can put a computed end some ulps past exact f
    rng = np.random.default_rng(400 + n)
    for d in range(1, n):
        t = integer_operator(n, d, rng)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        fs = FrameShrinkage(build_operator(t.astype(float)), soft_shrink_map(lam))
        reg = InducedRegularizer(fs)
        # signals of size ~lam, and ones deep inside the dead zone
        for scale in (1.0, 2.0 ** -10):
            y = rng.integers(-64, 65, size=d) / 16.0 * scale
            exact = exact_regularizer(t, y, lam)
            value = induced_regularizer(reg, y, tol=1e-12)
            assert abs(value - exact) <= 1e-12 * max(1, abs(exact)), (d, lam, scale)


def test_certify_bracket_contains_the_exact_value():
    # lower <= f <= upper at every column _certify returns, at tol 1e-9 and
    # 0, against the exact f. Rounding in P and in the gap terms can put an
    # end some ulps past it (most often at tol 0, where the rounding floor
    # closes the bracket), hence a slack of 1e-12 relative to max(1, |f|)
    rng = np.random.default_rng(700)
    for n in range(3, 8):
        for d in range(1, n):
            t = integer_operator(n, d, rng)
            lam = float(rng.choice([0.5, 1.0, 2.0]))
            reg = InducedRegularizer(FrameShrinkage(build_operator(t.astype(float)), soft_shrink_map(lam)))
            # signals of size ~lam, and ones inside the dead zone
            y = rng.integers(-64, 65, size=(d, 3)) / 16.0 * [1.0, 0.125, 2.0 ** -6]
            c = t @ y
            exact = [exact_regularizer(t, y[:, j], lam) for j in range(3)]
            for tol in (1e-9, 0.0):
                upper, lower, _ = shrinkage_module._certify(reg, c, reg.g(c), tol)
                for j, f in enumerate(exact):
                    slack = 1e-12 * max(1, abs(f))
                    assert lower[j] - slack <= f <= upper[j] + slack, (n, d, lam, j, tol)


def test_certify_bracket_contains_the_exact_value_on_the_float32_path(monkeypatch):
    # the test above with the size gate at 0, so that these small frames run
    # FISTA's float32 phase. lam 0.1 is not a float32 number: a gap check on
    # the float32-clipped iterate, not re-clipped into [-lam, lam], would
    # take a dual point outside the box, whose value can exceed f
    monkeypatch.setattr(shrinkage_module, "_FLOAT32_ROWS", 0)
    dtypes, fista = set(), shrinkage_module._fista_steps

    def fista_spy(proj, *args):
        dtypes.add(proj.dtype.type)
        return fista(proj, *args)

    monkeypatch.setattr(shrinkage_module, "_fista_steps", fista_spy)
    rng = np.random.default_rng(710)
    for n in range(3, 7):
        for d in range(1, n):
            t = integer_operator(n, d, rng)
            op = build_operator(t.astype(float))
            y = rng.integers(-64, 65, size=(d, 3)) / 16.0 * [1.0, 0.125, 2.0 ** -6]
            c = t @ y
            for lam in (0.1, 0.5, 1.0, 2.0):
                reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(lam)))
                exact = [exact_regularizer(t, y[:, j], lam) for j in range(3)]
                for tol in (1e-9, 0.0):
                    upper, lower, _ = shrinkage_module._certify(reg, c, reg.g(c), tol)
                    for j, f in enumerate(exact):
                        slack = 1e-12 * max(1, abs(f))
                        assert lower[j] - slack <= f <= upper[j] + slack, (n, d, lam, j, tol)
    assert dtypes == {np.float32, np.float64}


@pytest.mark.parametrize("lam", [1.0, 1e40])
def test_float32_phase_is_skipped_beyond_the_float32_range(lam, monkeypatch):
    # Tx of size 1e40 has no float32 copy (the cast would overflow, and its
    # RuntimeWarning fail the test): the solve runs in float64 from the
    # start, bit for bit as with the float32 phase off
    op = build_operator(load_named_matrix("random:80x40:1"))
    reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(lam)))
    c = op.matrix @ (1e40 * np.random.default_rng(3).standard_normal((40, 4)))
    results = [shrinkage_module._certify(reg, c, reg.g(c), 1e-9)]
    monkeypatch.setattr(shrinkage_module, "_FLOAT32_ROWS", np.inf)
    results.append(shrinkage_module._certify(reg, c, reg.g(c), 1e-9))
    for got, first in zip(*results):
        np.testing.assert_array_equal(got, first)


@pytest.mark.parametrize("case", ["square", "identity", "empty"])
def test_certify_shortcut_returns_the_feasible_value(case):
    # where f = g o T, or there is no column, the bracket is the feasible
    # value at both ends and no dual solver of f takes a step
    op = build_operator(np.eye(3) if case == "square" else np.eye(4)[:, :3])
    inner = identity_map() if case == "identity" else soft_shrink_map(1.0)
    reg = InducedRegularizer(FrameShrinkage(op, inner))
    c = op.matrix @ (np.zeros((3, 0)) if case == "empty" else np.ones((3, 2)))
    feasible = np.asarray(reg.g(c), dtype=float)
    upper, lower, iters = shrinkage_module._certify(reg, c, feasible, 1e-9)
    assert upper is feasible and lower is feasible
    np.testing.assert_array_equal(iters, np.zeros(c.shape[1]))


def test_weaker_regularizer_maximum_matches_exact_reference():
    # the reported maximum of f(x_j) - g(Tx_j) against the exact f of each
    # sampled x_j (every float is dyadic), to the check's inner tolerance
    t = integer_operator(6, 3, np.random.default_rng(500))
    reg = InducedRegularizer(FrameShrinkage(build_operator(t.astype(float)), soft_shrink_map(1.0)))
    trials, seed, inner_tol = 8, 3, 1e-11
    rep = weaker_regularizer_check(reg, trials=trials, tol=1e-9, seed=seed)
    x = run_samples(seed, trials, 3)[0]
    g_tx = reg.g(reg.shrinkage.operator.matrix @ x)
    ref = max(float(exact_regularizer(t, x[:, j], 1.0)) - g_tx[j] for j in range(trials))
    assert rep.passed
    assert abs(rep.max_violation - ref) <= inner_tol


def test_example_closed_form_equals_exact_reference():
    # on a dyadic grid across both branches the closed form's floats are
    # the exact f's, rounded
    t = example_operator().matrix
    for y in np.arange(-40, 41) / 16.0:
        assert example_regularizer_closed_form(y) == float(exact_regularizer(t, [y], 1.0))


def test_fista_kernel_matches_plain_reference(rng, monkeypatch):
    # the kernel forms P y by its own product and clips in place; the same
    # columns must be certified by FISTA alone as with the plain reference,
    # each within one gap check of the reference's count, and every column at
    # its value up to tol and the rounding slack of the gap-certificate test,
    # ADMM's join included.
    # Blocks: f(y1) of the random:200x100:2 CLI regression at tol 1e-7, and
    # the 9x2 block at lam = 10 half deep in the dead zone of
    # test_induced_regularizer_compaction_across_both_phases. The reference
    # is a float64 form (it carries P u and P y, whose float32 rounding would
    # accumulate), so the float32 phase is off here; the bracket tests below
    # hold that phase to the exact f
    monkeypatch.setattr(shrinkage_module, "_FLOAT32_ROWS", np.inf)
    op = build_operator(load_named_matrix("random:200x100:2"))
    regression = FrameShrinkage(op, soft_shrink_map(1.0))
    y1 = frame_prox(regression, run_samples(5, 100, 100)[0])
    dead_zone = FrameShrinkage(build_operator(rng.standard_normal((9, 2))), soft_shrink_map(10.0))
    x = rng.standard_normal((2, 12))
    x[:, ::2] *= 1e-9
    fista_only = shrinkage_module._FISTA_ITERS
    for fs, y, tol in ((regression, y1, 1e-7), (dead_zone, x, 1e-9)):
        reg = InducedRegularizer(fs)
        c = fs.operator.matrix @ y
        u = c - soft_shrink(c, fs.inner_prox.lam)
        slack = 1e-12 * (1.0 + reg.g(c) + np.sum(u * u, axis=0))
        value, _, iters = shrinkage_module._certify(reg, c, reg.g(c), tol)
        with monkeypatch.context() as patch:
            patch.setattr(shrinkage_module, "_fista_steps", fista_steps_reference)
            ref_value, _, ref_iters = shrinkage_module._certify(reg, c, reg.g(c), tol)
        done = iters <= fista_only
        np.testing.assert_array_equal(done, ref_iters <= fista_only)
        assert np.all(np.abs(iters - ref_iters)[done] <= shrinkage_module._GAP_STRIDE), (iters, ref_iters)
        assert np.all(np.abs(value - ref_value) <= tol + slack)
    assert not np.all(done), "the dead-zone columns should need ADMM"


def test_certify_bounds_do_not_depend_on_the_layout_of_c(rng, monkeypatch):
    # _certify solves on a column-contiguous copy of c, and FISTA's state
    # takes its layout, so a C-ordered c, its Fortran copy and a strided view
    # of the same numbers give the same bits and the same iteration counts.
    # Blocks: f(y1) of the random:200x100:2 CLI regression at tol 1e-7,
    # seeded at the shrinkage's feasible point, and the 9x2 dead-zone block
    # of test_fista_kernel_matches_plain_reference, which reaches ADMM
    op = build_operator(load_named_matrix("random:200x100:2"))
    regression = FrameShrinkage(op, soft_shrink_map(1.0))
    x = run_samples(5, 100, 100)[0]
    y1 = frame_prox(regression, x)
    dead_zone = FrameShrinkage(build_operator(rng.standard_normal((9, 2))), soft_shrink_map(10.0))
    x_dead = rng.standard_normal((2, 12))
    x_dead[:, ::2] *= 1e-9
    projs, fista = [], shrinkage_module._fista_steps

    def fista_spy(proj, c, lam, *state):
        projs.append((proj, lam))
        assert all(a.flags.f_contiguous for a in (c, *state))
        return fista(proj, c, lam, *state)

    monkeypatch.setattr(shrinkage_module, "_fista_steps", fista_spy)
    for fs, y, p, tol in ((regression, y1, regression.inner_prox(op.matrix @ x), 1e-7),
                          (dead_zone, x_dead, None, 1e-9)):
        reg = InducedRegularizer(fs)
        c = np.ascontiguousarray(fs.operator.matrix @ y)
        feasible = reg.g(c)
        if p is not None:
            # the primal at z = p, as verify_prox_identity passes it
            feasible = np.minimum(feasible, 0.5 * np.add.reduce((p - c) ** 2, 0) + reg.g(p))
        wide = np.zeros((c.shape[0], 2 * c.shape[1]))
        wide[:, ::2] = c
        results = [shrinkage_module._certify(reg, block, feasible, tol)
                   for block in (c, np.asfortranarray(c), wide[:, ::2])]
        for result in results[1:]:
            for got, first in zip(result, results[0]):
                np.testing.assert_array_equal(got, first)
    assert np.max(results[0][2]) > shrinkage_module._FISTA_ITERS, "the dead-zone block should reach ADMM"
    # P reaches every gap stride of the solve column-major: in float64 as a
    # read-only view of the operator's one projector, and in the float32
    # phase, which the 200-row frame takes and the 9-row one does not, as
    # that projector's transpose cast to float32
    assert {(lam, proj.dtype.type) for proj, lam in projs} == {
        (1.0, np.float32), (1.0, np.float64), (10.0, np.float64)}
    for proj, lam in projs:
        fs = regression if lam == 1.0 else dead_zone
        assert proj.flags.f_contiguous
        if proj.dtype == np.float32:
            np.testing.assert_array_equal(proj, fs.operator.range_proj.T.astype(np.float32))
        else:
            assert not proj.flags.writeable
            assert proj.base is fs.operator.range_proj
            assert np.shares_memory(proj, fs.operator.range_proj)


def test_evaluating_f_stores_nothing_on_the_operator():
    # f's dual solve reads the operator's arrays as built and caches nothing on it
    op = build_operator(load_named_matrix("random:200x100:2"))
    keys = set(vars(op))
    fs = FrameShrinkage(op, soft_shrink_map(1.0))
    reg = InducedRegularizer(fs)
    induced_regularizer(reg, run_samples(5, 10, 100)[0], tol=1e-7)
    verify_prox_identity(fs, reg, trials=10, tol=1e-6, seed=5)
    weaker_regularizer_check(reg, trials=10, seed=6)
    assert set(vars(op)) == keys


@pytest.mark.parametrize("n, k", [(9, 12), (200, 100), (200, 1), (200, 0)])
def test_col_dot_matches_the_column_sums(rng, n, k):
    # one fused pass per column against the multiply-and-sum it replaced,
    # on C-ordered, Fortran-ordered and strided blocks; each is within a
    # few ulps of the sum of |a b| over the column, and exact on integers
    a, b = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    wide = np.zeros((n, 2 * k))
    eps = np.finfo(float).eps
    for x, y in ((a, b), (np.asfortranarray(a), np.asfortranarray(b)), (a, wide[:, ::2])):
        wide[:, ::2] = b
        dot = shrinkage_module._col_dot(x, y)
        assert dot.shape == (k,)
        ref = np.add.reduce(x * y, 0)
        assert np.all(np.abs(dot - ref) <= 4.0 * eps * np.add.reduce(np.abs(x * y), 0))
        ints = np.round(8.0 * x), np.round(8.0 * y)
        np.testing.assert_array_equal(shrinkage_module._col_dot(*ints), np.add.reduce(ints[0] * ints[1], 0))


SOLVES = pytest.mark.parametrize("solve", [
    lambda tol: induced_regularizer(InducedRegularizer(example_shrinkage()), [1.0], tol=tol),
    lambda tol: numeric_prox(example_shrinkage(), np.array([1.0]), tol=tol),
    lambda tol: solve_analysis_dual(AnalysisProblem(np.array([1.0]), example_operator(), 1.0), tol=tol),
    lambda tol: weaker_regularizer_check(InducedRegularizer(example_shrinkage()), 3, tol=tol),
    lambda tol: verify_operator_identities(example_operator(), tol=tol, trials=3),
    lambda tol: verify_firm_nonexpansive(soft_shrink_map(1.0), 2, 3, tol=tol),
    lambda tol: verify_moreau_characterization(soft_shrink_map(1.0), 2, 3, tol=tol),
    lambda tol: verify_t_firm_nonexpansive(example_shrinkage(), 3, tol=tol),
    lambda tol: (lambda fs: verify_prox_identity(fs, InducedRegularizer(fs), 3, tol=tol))(example_shrinkage()),
], ids=["induced_regularizer", "numeric_prox", "solve_analysis_dual", "weaker_regularizer_check",
        "verify_operator_identities", "verify_firm_nonexpansive", "verify_moreau_characterization",
        "verify_t_firm_nonexpansive", "verify_prox_identity"])


@pytest.fixture
def no_samples(monkeypatch):
    """Fail a test that draws a sample of a sampled check."""
    def refuse(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(sampling_module, "sample_blocks", refuse)


@SOLVES
def test_nan_tol_is_refused_at_once(solve, no_samples):
    # no gap or certificate compares <= NaN, so a solve would run to its cap
    # and a check would fail every sample
    with pytest.raises(ValueError, match="NaN"):
        solve(np.nan)


@SOLVES
def test_negative_tol_is_refused_at_once(solve, no_samples):
    # no certificate is negative, and a negative tol fails every sample; the
    # error names the tol the caller passed, not an inner tolerance derived
    # from it. The CLI refuses --tol -1 the same way
    with pytest.raises(ValueError, match=r">= 0, got -1\.0$"):
        solve(-1.0)


@pytest.mark.parametrize("inner, x", [
    (identity_map(), np.ones((100, 3))),
    (soft_shrink_map(1.0), np.zeros((100, 0))),
    (soft_shrink_map(1.0), np.zeros((100, 4))),
], ids=["identity", "empty", "soft_zeros"])
def test_f_runs_no_solver_where_every_feasible_value_is_zero(inner, x, certified):
    # 0 <= f <= g(Tx) for the catalog maps, so f = 0 wherever g(Tx) is
    reg = InducedRegularizer(FrameShrinkage(build_operator(load_named_matrix("random:200x100:2")), inner))
    np.testing.assert_array_equal(induced_regularizer(reg, x), np.zeros(x.shape[1]))
    np.testing.assert_array_equal(np.concatenate(certified), np.zeros(x.shape[1]))


@pytest.mark.parametrize("op", [example_operator(), build_operator(np.eye(4)[:, :3]),
                                build_operator(load_named_matrix("random:200x100:2"))],
                         ids=["example35", "4x3", "random:200x100:2"])
def test_empty_block_gives_empty_results(op, certified):
    # a (d, 0) block has no column to certify, so no dual solver of f takes a step
    fs = FrameShrinkage(op, soft_shrink_map(1.0))
    reg = InducedRegularizer(fs)
    empty = np.zeros((op.d, 0))
    assert frame_prox(fs, empty).shape == (op.d, 0)
    assert induced_regularizer(reg, empty).shape == (0,)
    assert [iters.shape for iters in certified] == [(0,)]
    rep = numeric_prox(fs, empty)
    assert rep.minimizer.shape == (op.d, 0)
    assert rep.converged and rep.residual == 0.0 and rep.iterations == 0


def test_induced_regularizer_dimension_mismatch():
    reg = InducedRegularizer(example_shrinkage())
    with pytest.raises(DimensionMismatch):
        induced_regularizer(reg, np.array([1.0, 2.0]))


def test_induced_regularizer_reads_g_from_its_shrinkage():
    fs = example_shrinkage()
    reg = InducedRegularizer(fs)
    assert reg.g is fs.inner_prox.function
    with pytest.raises(TypeError):
        InducedRegularizer(fs, g=lambda v: 0.0)
    bare = FrameShrinkage(example_operator(), ProxMap("bare", 1.0, lambda v, t=1.0: v))
    with pytest.raises(ValueError, match="no function"):
        InducedRegularizer(bare)
    # f is evaluated for the catalog maps only, even given a function handle
    l1 = ProxMap("scaled_l1", 2.0, lambda v, t=1.0: soft_shrink(v, 2.0 * t),
                 function=lambda v: 2.0 * np.sum(np.abs(v), axis=0))
    with pytest.raises(ValueError, match="scaled_l1"):
        InducedRegularizer(FrameShrinkage(example_operator(), l1))


def test_induced_regularizer_identity_inner_is_zero(rng, certified):
    # g = 0, so f = 0 at once on a rectangular T, with no dual solve
    op = build_operator(rng.standard_normal((5, 2)))
    reg = InducedRegularizer(FrameShrinkage(op, identity_map()))
    assert induced_regularizer(reg, rng.standard_normal(2)) == 0.0
    np.testing.assert_array_equal(
        induced_regularizer(reg, rng.standard_normal((2, 4))), np.zeros(4)
    )
    np.testing.assert_array_equal(np.concatenate(certified), np.zeros(5))


def test_prox_identity_flagship_golden_section_oracle():
    # the shrinkage point must minimize 1/2 ||x - y||_T^2 + f(y); check it
    # against golden-section search on the closed form, fully outside the
    # library's solvers
    fs = example_shrinkage()
    for x in (-2.5, -1.0, -0.3, 0.05, 0.4, 1.0, 3.0):
        y_star = golden_section(
            lambda y: 2.5 * (x - y) ** 2 + example_regularizer_closed_form(y),
            -abs(x) - 1.0,
            abs(x) + 1.0,
        )
        assert abs(frame_prox(fs, np.array([x]))[0] - y_star) <= 1e-7


def test_verify_prox_identity_flagship():
    fs = example_shrinkage()
    reg = InducedRegularizer(fs)
    rep = verify_prox_identity(fs, reg, trials=60, tol=1e-6, seed=7)
    assert rep.passed


def test_verify_prox_identity_random_operator(rng):
    op = build_operator(rng.standard_normal((6, 3)))
    for lam in (0.1, 1.0):
        fs = FrameShrinkage(op, soft_shrink_map(lam))
        reg = InducedRegularizer(fs)
        rep = verify_prox_identity(fs, reg, trials=30, tol=1e-5, seed=11)
        assert rep.passed, rep


@pytest.mark.parametrize("spec", ["random:12x5:3", "random:100x60:3", "random:30x12:2"])
def test_verify_prox_identity_catches_a_wrong_regularizer(spec, monkeypatch):
    # a gap floor of 1e300 certifies every column of the dual solve at its
    # first check, so f's bracket stays wide; the envelope identity at the
    # shrinkage point must see it, while the unmutated check passes
    fs = FrameShrinkage(build_operator(load_named_matrix(spec)), soft_shrink_map(1.0))
    reg = InducedRegularizer(fs)
    assert verify_prox_identity(fs, reg, trials=50, tol=1e-6, seed=4).passed
    monkeypatch.setattr(shrinkage_module, "_GAP_FLOOR", 1e300)
    rep = verify_prox_identity(fs, reg, trials=50, tol=1e-6, seed=4)
    assert not rep.passed and rep.max_violation > 1e-3


@pytest.mark.parametrize("spec, lam", [("random:12x5:3", 1.0), ("random:100x60:3", 10.0),
                                       ("random:30x12:2", 0.1)])
def test_verify_prox_identity_reports_the_dual_end_of_f(spec, lam, monkeypatch):
    # f's upper end starts at the feasible point p, where the identity holds
    # by construction, so a check that reported it alone would read about 0
    # under any stop rule. A dual stopped at its first gap check must fail
    # through the bracket's lower end (measured 1.0e-2, 8.2 and 2.6e-5)
    fs = FrameShrinkage(build_operator(load_named_matrix(spec)), soft_shrink_map(lam))
    reg = InducedRegularizer(fs)
    tol = 1e-6
    assert verify_prox_identity(fs, reg, trials=50, tol=tol, seed=4).passed
    monkeypatch.setattr(shrinkage_module, "_GAP_FLOOR", 1e300)
    rep = verify_prox_identity(fs, reg, trials=50, tol=tol, seed=4)
    assert not rep.passed and rep.max_violation > 10 * tol, rep


@pytest.mark.parametrize("n", range(3, 8))
def test_prox_identity_seeds_f_at_the_shrinkage_point(n, monkeypatch):
    # the upper end verify_prox_identity hands f's solve is the primal at
    # z = p, which the paper's theorem makes f(y1) itself: within rounding
    # of the exact f on non-square frames, one trial per sample scale.
    # Square T keeps f = g(Ty1) bit for bit, and the identity map's is 0
    rng = np.random.default_rng(600 + n)
    seeds, certify = [], shrinkage_module._certify

    def spy(reg, c, feasible, *args, **kwargs):
        seeds.append(feasible)
        return certify(reg, c, feasible, *args, **kwargs)

    monkeypatch.setattr(shrinkage_module, "_certify", spy)
    for d in range(1, n + 1):
        t = integer_operator(n, d, rng)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        fs = FrameShrinkage(build_operator(t.astype(float)), soft_shrink_map(lam))
        for shrink in (fs, FrameShrinkage(fs.operator, identity_map())):
            verify_prox_identity(shrink, InducedRegularizer(shrink), trials=3, tol=1e-6, seed=n)
        value, zero = seeds[-2:]
        np.testing.assert_array_equal(zero, 0.0)
        y1 = frame_prox(fs, run_samples(n, 3, d)[0])
        if n == d:
            np.testing.assert_array_equal(value, fs.inner_prox.function(fs.operator.matrix @ y1))
            continue
        for j in range(3):
            exact = exact_regularizer(t, y1[:, j], lam)
            assert abs(value[j] - exact) <= 1e-12 * max(1, abs(exact)), (n, d, j)


@pytest.mark.parametrize("n", range(3, 7))
def test_prox_identity_holds_exactly_on_integer_frames(n):
    # the envelope identity of verify_prox_identity in Fractions, at
    # T^+ = (T^T T)^{-1} T^T, p = S_lam(Tx) and y1 = T^+ p, with f(y1) from
    # exact_regularizer: both sides are equal with no rounding, on signals
    # of size ~lam and inside the dead zone, so what the float check
    # reports on these frames is rounding and solver error alone
    rng = np.random.default_rng(800 + n)

    def apply(a, v):
        return [sum(map(mul, row, v)) for row in a]

    for d in range(1, n):
        t = integer_operator(n, d, rng)
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        lam_q = Fraction(lam)
        rows = [[Fraction(int(v)) for v in row] for row in t]
        cols = [list(col) for col in zip(*rows)]
        pinv = _rational_solve([apply(cols, col) for col in cols], cols)
        x = rng.integers(-64, 65, size=(d, 2)) / 16.0 * [1.0, 0.125]
        for j in range(2):
            xj = [Fraction(v) for v in x[:, j]]
            tx = apply(rows, xj)
            p = [v - min(max(v, -lam_q), lam_q) for v in tx]
            y1 = apply(pinv, p)
            split = sum(v * v for v in apply(rows, [a - b for a, b in zip(xj, y1)])) / 2
            envelope = sum((a - b) ** 2 for a, b in zip(tx, p)) / 2 + lam_q * sum(map(abs, p))
            assert split + exact_regularizer(t, y1, lam) == envelope, (n, d, j)
        fs = FrameShrinkage(build_operator(t.astype(float)), soft_shrink_map(lam))
        assert verify_prox_identity(fs, InducedRegularizer(fs), trials=20, tol=1e-6, seed=n).passed, (n, d)


def test_verify_prox_identity_stops_f_at_its_dual_end(certified):
    # f(y1) on the 100-trial block of random:200x100:2 took 6168
    # column-iterations while each column waited for FISTA's primal end;
    # seeded at the feasible point, it stops once its dual is in reach
    fs = FrameShrinkage(build_operator(load_named_matrix("random:200x100:2")), soft_shrink_map(1.0))
    reg = InducedRegularizer(fs)
    assert verify_prox_identity(fs, reg, trials=100, tol=1e-6, seed=5).passed
    (iters,) = certified
    assert 0 < np.sum(iters) <= 4000


def test_unit_momentum_shortens_the_regression_f_block(certified):
    # the block of test_verify_prox_identity_stops_f_at_its_dual_end takes
    # 2968 column-iterations with momentum 1 between gradient restarts, and
    # took 3416 with momentum (m - 1) / (m + 2) after m steps since one
    fs = FrameShrinkage(build_operator(load_named_matrix("random:200x100:2")), soft_shrink_map(1.0))
    reg = InducedRegularizer(fs)
    assert verify_prox_identity(fs, reg, trials=100, tol=1e-6, seed=5).passed
    (iters,) = certified
    assert 0 < np.sum(iters) <= 3200


@pytest.mark.parametrize("spec", ["example35", "random:12x5:3", "random:200x100:2"])
@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_verify_prox_identity_catches_a_prox_handle_that_ignores_its_scale(spec, lam):
    # the oracle reaches g only through prox(v, t) at t = 9/10, and the
    # composition only through prox(v, 1); a handle that returns prox_g for
    # every t moves the oracle's fixed point by lam / 9 on each active
    # coordinate, which the distance term sees (1.5e-2 at the least here),
    # while the true handle passes
    good = soft_shrink_map(lam)
    bad = dataclasses.replace(good, prox=lambda v, t=1.0: soft_shrink(v, lam))
    op = build_operator(load_named_matrix(spec))

    def check(pm):
        fs = FrameShrinkage(op, pm)
        return verify_prox_identity(fs, InducedRegularizer(fs), trials=20, tol=1e-6, seed=3)

    assert check(good).passed
    rep = check(bad)
    assert not rep.passed and rep.max_violation > 1e-2 * lam, rep


@pytest.mark.parametrize("spec, lam", [("random:20x10:3", 1.0), ("random:20x10:2", 10.0)])
def test_verify_prox_identity_refuses_a_regularizer_of_another_shrinkage(spec, lam, monkeypatch):
    # a regularizer built on another operator or another lam is not the one
    # fs is the prox of, and checking the pair would report a violation
    # (157.7 and 4580 here) as if the theorem had failed; it is refused
    # before any sample is drawn
    reg = InducedRegularizer(FrameShrinkage(build_operator(load_named_matrix("random:20x10:2")), soft_shrink_map(1.0)))
    fs = FrameShrinkage(build_operator(load_named_matrix(spec)), soft_shrink_map(lam))

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing the pair")

    monkeypatch.setattr(shrinkage_module, "sampled_check", no_sampling)
    with pytest.raises(ValueError, match=r"InducedRegularizer\(fs\)"):
        verify_prox_identity(fs, reg, trials=50, tol=1e-6, seed=4)


def test_verify_prox_identity_applies_the_shrinkage_once_per_block(monkeypatch):
    # Tx, p = Prox(Tx) and y1 = T^+ p come from _compose, the composition
    # frame_prox returns, once per block: one block of 1024 trials and one
    # of 976; the oracle reaches the inner map only at its step 9/10
    scales, calls = [], []
    soft = soft_shrink_map(1.0)
    inner = dataclasses.replace(soft, prox=lambda v, t=1.0: scales.append(t) or soft.prox(v, t))
    compose = shrinkage_module._compose
    monkeypatch.setattr(shrinkage_module, "_compose", lambda fs, x: calls.append(x.shape) or compose(fs, x))
    fs = FrameShrinkage(build_operator(load_named_matrix("random:20x10:2")), inner)
    assert verify_prox_identity(fs, InducedRegularizer(fs), trials=2000, tol=1e-6, seed=4).passed
    assert calls == [(10, 1024), (10, 976)]
    assert scales.count(1.0) == 2 and set(scales) == {shrinkage_module._STEP, 1.0}


def test_numeric_prox_lands_within_its_certified_tolerance(rng):
    # a converged T-metric oracle is within tol of the closed-form
    # composition in T-norm; random:200x100:2 is where an iterate-change
    # stop rule missed 1e-7 by 1.42e-6
    ops = [build_operator(load_named_matrix("random:200x100:2"))]
    ops += [random_operator(n, d, rng, cond=c) for n, d, c in ((9, 2, 1e3), (30, 12, 30.0))]
    ops.append(build_operator(rng.standard_normal((60, 30))))
    for op in ops:
        x = rng.standard_normal((op.d, 12)) * np.repeat([0.1, 1.0, 10.0], 4)
        for lam, tol in ((0.1, 1e-6), (1.0, 1e-7), (10.0, 1e-9)):
            fs = FrameShrinkage(op, soft_shrink_map(lam))
            rep = numeric_prox(fs, x, tol=tol)
            assert rep.converged and rep.residual <= tol
            gap = op.matrix @ (rep.minimizer - frame_prox(fs, x))
            assert np.max(np.sqrt(np.sum(gap * gap, axis=0))) <= tol, (op.matrix.shape, lam)


def test_t_firm_nonexpansive_flagship():
    rep = verify_t_firm_nonexpansive(example_shrinkage(), trials=10000, tol=1e-12, seed=3)
    assert rep.passed


def test_t_firm_nonexpansive_identity_prox(rng):
    # identity prox makes the inequality an equality; keep sigma_max = 1 so
    # rounding noise stays under the absolute tolerance at the 10x scale
    op = random_operator(5, 2, rng, cond=4)
    rep = verify_t_firm_nonexpansive(FrameShrinkage(op, identity_map()), trials=2000, tol=1e-12)
    assert rep.passed


@pytest.mark.parametrize("n", range(2, 7))
def test_t_firm_nonexpansive_holds_exactly_on_integer_frames(n, monkeypatch):
    # the t_firm line in Fractions, on the check's own pairs: the violation
    # is <= 0 for soft shrinkage and 0 for the identity, so the float value
    # the check reports per pair is rounding, within 16 eps cond(T)
    # ||T(x - y)||^2 of the exact one (measured at most 13.5 of that unit),
    # and its max_violation is the largest of them
    rng = np.random.default_rng(900 + n)
    eps, found, sampled = np.finfo(float).eps, [], shrinkage_module.sampled_check

    def spy(name, trials, tol, seed, dim, violations, columns=1):
        def recorded(*samples):
            found.append(violations(*samples))
            return found[-1]
        return sampled(name, trials, tol, seed, dim, recorded, columns)

    monkeypatch.setattr(shrinkage_module, "sampled_check", spy)
    for d in range(1, n + 1):
        t = integer_operator(n, d, rng)
        op = build_operator(t.astype(float))
        x, y = run_samples(n, 30, d, columns=2)
        unit = 16 * eps * np.linalg.cond(t) * np.sum((op.matrix @ (x - y)) ** 2, axis=0)
        maps = [(lam, soft_shrink_map(lam)) for lam in (0.5, 1.0, 2.0)] + [(None, identity_map())]
        for lam, pm in maps:
            rep = verify_t_firm_nonexpansive(FrameShrinkage(op, pm), trials=30, tol=1e-12, seed=n)
            values = found[-1]
            assert rep.max_violation == np.max(values)
            exact = exact_t_firm_violations(t, x, y, lam)
            if lam is None:
                assert all(v == 0 for v in exact), (n, d)
            else:
                assert all(v <= 0 for v in exact), (n, d, lam)
            assert np.all(np.abs(values - np.array(exact, dtype=float)) <= unit), (n, d, lam)


def test_euclidean_metric_genuinely_needed():
    # frozen witness: in the flat metric the composition is not firmly
    # nonexpansive, while the T metric keeps the inequality
    t = np.array([[2.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
    fs = FrameShrinkage(build_operator(t), soft_shrink_map(1.0))
    x = np.array([1.4, -1.3])
    y = np.array([1.9, -5.8])
    df = frame_prox(fs, x) - frame_prox(fs, y)
    dx = x - y
    euclid_violation = df @ df - dx @ df
    assert euclid_violation > 3.9
    tdf = t @ df
    t_violation = tdf @ tdf - (t @ dx) @ tdf
    assert t_violation <= 1e-12


def test_weaker_regularizer_flagship_strict():
    reg = InducedRegularizer(example_shrinkage())
    f1 = induced_regularizer(reg, np.array([1.0]), tol=1e-9)
    g1 = float(reg.g(example_operator().matrix @ np.array([1.0])))
    assert g1 == 3.0
    assert f1 < g1 - 0.05  # strictly weaker: 2.9 < 3
    rep = weaker_regularizer_check(reg, trials=300, tol=1e-9, seed=5)
    assert rep.passed


def test_weaker_regularizer_bijective_equality(rng):
    q = random_orthogonal(3, rng)
    reg = InducedRegularizer(FrameShrinkage(build_operator(q), soft_shrink_map(1.0)))
    x = rng.standard_normal(3)
    assert induced_regularizer(reg, x) == float(reg.g(q @ x))


def weaker_cases():
    """(shrinkage, trials, seed) for the pruning tests of the weaker check.

    The random:200x100:2 CLI regression operator, the packaged example, and
    criterion 2's first operator (6 x 5, rng 2024) at lam = 10.
    """
    rng = np.random.default_rng(2024)
    n = int(rng.integers(2, 21))
    d = int(rng.integers(1, min(n, 10) + 1))
    first = random_operator(n, d, rng, cond=10.0 ** rng.uniform(0.0, 3.0))
    return [
        (FrameShrinkage(build_operator(load_named_matrix("random:200x100:2")), soft_shrink_map(1.0)), 100, 6),
        (example_shrinkage(), 300, 6),
        (FrameShrinkage(first, soft_shrink_map(10.0)), 300, 6),
    ]


@pytest.mark.parametrize("case", range(3), ids=["random200x100", "example35", "criterion2_lam10"])
def test_weaker_regularizer_pruning_keeps_the_reported_maximum(case):
    # the check drops a trial once its upper bound lies below another
    # trial's lower bound; the maximum it reports must still be the largest
    # one-column f(x_j) - g(Tx_j), each evaluated to the inner tolerance
    fs, trials, seed = weaker_cases()[case]
    reg, tol, inner_tol = InducedRegularizer(fs), 1e-9, 1e-11
    rep = weaker_regularizer_check(reg, trials=trials, tol=tol, seed=seed)
    x = run_samples(seed, trials, fs.operator.d)[0]
    g_tx = reg.g(fs.operator.matrix @ x)
    ref = max(induced_regularizer(reg, x[:, j], tol=inner_tol) - g_tx[j] for j in range(trials))
    assert rep.passed
    assert abs(rep.max_violation - ref) <= inner_tol


def test_weaker_regularizer_iterates_only_trials_that_can_set_the_maximum(certified):
    # certifying every trial's f took 4696 column-iterations here; trials
    # that cannot set the maximum leave the solve as soon as that shows
    fs, trials, seed = weaker_cases()[0]
    reg = InducedRegularizer(fs)
    assert weaker_regularizer_check(reg, trials=trials, tol=1e-9, seed=seed).passed
    (iters,) = certified
    assert 0 < np.sum(iters) <= 1200


def test_weaker_regularizer_not_converged_only_for_a_possible_maximum(monkeypatch):
    # certifying every trial of this block to the inner tolerance takes 96
    # iterations, settling its maximum 72; at a cap of 88 the trials still
    # open cannot set the maximum, so the check reports as without a cap.
    # At 16 the maximum itself is open, and the check raises
    fs, trials, seed = weaker_cases()[0]
    reg = InducedRegularizer(fs)
    x = run_samples(seed, trials, fs.operator.d)[0]
    full = weaker_regularizer_check(reg, trials=trials, tol=1e-9, seed=seed)
    monkeypatch.setattr(shrinkage_module, "_MAX_ITER", 88)
    with pytest.raises(NotConverged):
        induced_regularizer(reg, x, tol=1e-11)
    assert weaker_regularizer_check(reg, trials=trials, tol=1e-9, seed=seed) == full
    monkeypatch.setattr(shrinkage_module, "_MAX_ITER", 16)
    with pytest.raises(NotConverged, match="after 16 iterations"):
        weaker_regularizer_check(reg, trials=trials, tol=1e-9, seed=seed)


def test_induced_regularizer_midpoint_convexity(rng):
    op = build_operator(rng.standard_normal((7, 4)))
    reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(0.8)))
    for _ in range(20):
        x = rng.standard_normal(4) * rng.choice([0.3, 1.0, 5.0])
        y = rng.standard_normal(4) * rng.choice([0.3, 1.0, 5.0])
        fm = induced_regularizer(reg, 0.5 * (x + y), tol=1e-10)
        avg = 0.5 * (
            induced_regularizer(reg, x, tol=1e-10) + induced_regularizer(reg, y, tol=1e-10)
        )
        assert fm <= avg + 1e-8


def test_shrinkage_is_t_gradient_of_composed_potential(rng):
    # the composition equals the T-metric gradient of (inner potential) o T
    op = build_operator(rng.standard_normal((6, 3)))
    lam = 0.7
    fs = FrameShrinkage(op, soft_shrink_map(lam))
    composed = lambda v: float(fs.inner_prox.potential(op.matrix @ v))
    for _ in range(10):
        x = rng.standard_normal(3) * rng.choice([0.5, 2.0])
        gap = fs.inner_prox.breakpoint_gap(op.matrix @ x)
        if np.min(gap) < 1e-4:
            continue
        grad = central_diff(composed, x)
        lhs = t_gradient(op, grad)
        rhs = frame_prox(fs, x)
        denom = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) / denom <= 1e-5


def test_envelope_value_splits_at_shrinkage_point(rng):
    # min_u 1/2||Tx - u||^2 + g(u) equals 1/2||Tx - Ty||^2 + f(y) at the
    # shrinkage point y; ties the envelope, composition, and regularizer
    for lam in (0.3, 1.0, 4.0):
        op = random_operator(8, 4, rng, cond=30)
        fs = FrameShrinkage(op, soft_shrink_map(lam))
        reg = InducedRegularizer(fs)
        x = rng.standard_normal(4) * 2
        y = frame_prox(fs, x)
        lhs = huber_envelope(op.matrix @ x, lam)
        d = op.matrix @ (x - y)
        rhs = 0.5 * d @ d + induced_regularizer(reg, y, tol=1e-10)
        assert abs(lhs - rhs) <= 1e-8

