import dataclasses

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
    t_gradient,
    verify_prox_identity,
    verify_t_firm_nonexpansive,
    weaker_regularizer_check,
)
from proxframe import shrinkage as shrinkage_module
from proxframe.cli import load_named_matrix
from proxframe.sampling import sample_trials
from support import central_diff, fista_points_reference, golden_section, line_regularizer


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
    op = random_operator(7, 3, rng)
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
    reg = InducedRegularizer.from_shrinkage(example_shrinkage())
    assert abs(induced_regularizer(reg, np.array([0.2]), tol=1e-9) - 0.525) <= 1e-8
    assert abs(induced_regularizer(reg, np.array([1.0]), tol=1e-9) - 2.9) <= 1e-8
    assert abs(induced_regularizer(reg, np.array([0.0]), tol=1e-9)) <= 1e-12


def test_induced_regularizer_grid_matches_closed_form():
    reg = InducedRegularizer.from_shrinkage(example_shrinkage())
    ys = np.arange(-1.0, 1.0 + 1e-12, 0.05)
    vals = induced_regularizer(reg, ys[None, :], tol=1e-9)
    np.testing.assert_allclose(vals, example_regularizer_closed_form(ys), atol=1e-7)


def test_induced_regularizer_bijective_shortcut(rng):
    q = random_orthogonal(4, rng) * 1.7
    fs = FrameShrinkage(build_operator(q), soft_shrink_map(0.9))
    reg = InducedRegularizer.from_shrinkage(fs)
    x = rng.standard_normal(4)
    assert induced_regularizer(reg, x) == 0.9 * np.sum(np.abs(q @ x))


def test_induced_regularizer_batch_matches_single(rng):
    op = random_operator(6, 3, rng)
    reg = InducedRegularizer.from_shrinkage(FrameShrinkage(op, soft_shrink_map(0.5)))
    xs = rng.standard_normal((3, 7))
    batch = induced_regularizer(reg, xs, tol=1e-10)
    singles = np.array([induced_regularizer(reg, xs[:, i], tol=1e-10) for i in range(7)])
    np.testing.assert_allclose(batch, singles, atol=1e-10)


def test_induced_regularizer_not_converged():
    reg = InducedRegularizer.from_shrinkage(example_shrinkage())
    with pytest.raises(NotConverged):
        induced_regularizer(reg, np.array([1.0]), tol=1e-12, max_iter=2)


def test_nonfinite_signals_rejected(rng):
    fs = FrameShrinkage(random_operator(6, 3, rng), soft_shrink_map(1.0))
    reg = InducedRegularizer.from_shrinkage(fs)
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
        induced_regularizer(InducedRegularizer.from_shrinkage(example_shrinkage()), [np.inf])


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
    reg = InducedRegularizer.from_shrinkage(fs)
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
    op = random_operator(9, 2, rng)
    reg = InducedRegularizer.from_shrinkage(FrameShrinkage(op, soft_shrink_map(10.0)))
    xs = 1e-9 * rng.standard_normal((2, 20))
    loose = induced_regularizer(reg, xs, tol=1e-7)
    tight = induced_regularizer(reg, xs, tol=1e-10)
    assert np.all(loose >= 0.0) and np.all(loose <= reg.g(op.matrix @ xs))
    assert np.all(np.abs(loose - tight) <= 1e-7)


def test_induced_regularizer_compaction_across_both_phases(rng, monkeypatch):
    # ordinary columns are certified by FISTA and leave the block while the
    # deep-dead-zone ones go on to the ADMM phase and leave it one by one;
    # each column must still come back as its own single-column evaluation
    op = random_operator(9, 2, rng)
    fs = FrameShrinkage(op, soft_shrink_map(10.0))
    reg = InducedRegularizer.from_shrinkage(fs)
    tol = 1e-9
    x = rng.standard_normal((2, 12))
    x[:, ::2] *= 1e-9
    admm_cols = []
    admm_points = shrinkage_module._admm_points

    def spy(proj, c, lam, rho):
        admm_cols.append(c.shape[1])
        return admm_points(proj, c, lam, rho)

    monkeypatch.setattr(shrinkage_module, "_admm_points", spy)
    vals = induced_regularizer(reg, x, tol=tol)
    assert admm_cols and 0 < admm_cols[0] < x.shape[1]

    tx = op.matrix @ x
    u = tx - soft_shrink(tx, 10.0)
    g_tx = reg.g(tx)
    # the rounding slack of test_induced_regularizer_gap_certificate
    slack = 1e-12 * (1.0 + g_tx + np.sum(u * u, axis=0))
    singles = np.array([induced_regularizer(reg, x[:, j], tol=tol) for j in range(12)])
    assert np.all(np.abs(vals - singles) <= tol + slack)
    assert np.all(vals <= g_tx)


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
            reg = InducedRegularizer.from_shrinkage(FrameShrinkage(op, soft_shrink_map(lam)))
            vals = induced_regularizer(reg, x, tol=tol)
            ref = np.array([line_regularizer(c[:, j], b, lam) for j in range(5)])
            # the gap floor, 64 ulps of at most 1 + g(Tx) + (d+1) lam^2, and
            # the reference's own rounding
            slack = 1e-13 * (1.0 + reg.g(c) + (d + 1) * lam * lam)
            assert np.all(np.abs(vals - ref) <= tol + slack), (cond, lam, vals - ref)


def fista_phase(points, reg, c, tol):
    """The check at which each column is certified, and its value, by FISTA alone.

    Follows ``induced_regularizer``'s first phase: at each check a column
    takes the primal value min(g(c), 1/2 <u, r> + g(c - r)) and is certified
    once that is within max(tol, _GAP_FLOOR (1 + |g(c)| + ||u||^2)) of the
    dual <u, c> - 1/2 <u, r>; a certified column leaves the block. A column
    not certified within _FISTA_ITERS iterations gets check -1 and value NaN.
    """
    proj, lam = reg.shrinkage.operator.range_proj, reg.shrinkage.inner_prox.lam
    points = points(proj, c, lam)
    check, value = np.full(c.shape[1], -1), np.full(c.shape[1], np.nan)
    cols, keep = np.arange(c.shape[1]), None
    for i in range(shrinkage_module._FISTA_ITERS // shrinkage_module._GAP_STRIDE):
        u, r = points.send(keep)
        c_sub = c[:, cols]
        g_sub = reg.g(c_sub)
        half_sq = 0.5 * np.sum(u * r, axis=0)
        primal = np.minimum(g_sub, half_sq + reg.g(c_sub - r))
        dual = np.sum(u * c_sub, axis=0) - half_sq
        floor = shrinkage_module._GAP_FLOOR * (1.0 + np.abs(g_sub) + np.sum(u * u, axis=0))
        fresh = primal - dual <= np.maximum(tol, floor)
        check[cols[fresh]], value[cols[fresh]] = i, primal[fresh]
        keep = ~fresh if fresh.any() else None
        cols = cols[~fresh]
        if not cols.size:
            break
    return check, value


def test_fista_kernel_matches_plain_reference(rng, monkeypatch):
    # the kernel forms P y by its own product, clips in place and reads the
    # momentum from a table it grows from one entry here; each column must
    # be certified at the plain reference's check, give or take one, at its
    # value up to tol and the rounding slack of the gap-certificate test.
    # Blocks: f(y1) of the random:200x100:2 CLI regression at tol 1e-7, and
    # the 9x2 block at lam = 10 half deep in the dead zone of
    # test_induced_regularizer_compaction_across_both_phases
    monkeypatch.setattr(shrinkage_module, "_momentum_table", np.zeros(1))
    op = build_operator(load_named_matrix("random:200x100:2"))
    regression = FrameShrinkage(op, soft_shrink_map(1.0))
    y1 = frame_prox(regression, sample_trials(5, 0, 100, 100)[0])
    dead_zone = FrameShrinkage(random_operator(9, 2, rng), soft_shrink_map(10.0))
    x = rng.standard_normal((2, 12))
    x[:, ::2] *= 1e-9
    for fs, y, tol in ((regression, y1, 1e-7), (dead_zone, x, 1e-9)):
        reg = InducedRegularizer.from_shrinkage(fs)
        c = fs.operator.matrix @ y
        u = c - soft_shrink(c, fs.inner_prox.lam)
        slack = 1e-12 * (1.0 + reg.g(c) + np.sum(u * u, axis=0))
        check, value = fista_phase(shrinkage_module._fista_points, reg, c, tol)
        ref_check, ref_value = fista_phase(fista_points_reference, reg, c, tol)
        np.testing.assert_array_equal(check < 0, ref_check < 0)
        assert np.all(np.abs(check - ref_check) <= 1), (check, ref_check)
        done = check >= 0
        assert np.all(np.abs(value - ref_value)[done] <= tol + slack[done])
        # through both phases, ADMM's included
        vals = induced_regularizer(reg, y, tol=tol)
        with monkeypatch.context() as patch:
            patch.setattr(shrinkage_module, "_fista_points", fista_points_reference)
            ref = induced_regularizer(reg, y, tol=tol)
        assert np.all(np.abs(vals - ref) <= tol + slack)
    assert not np.all(check >= 0), "the dead-zone columns should need the ADMM phase"


def test_momentum_table_follows_the_recursion_as_it_grows(monkeypatch):
    # the table starts at one entry and doubles on demand, with no cap; every
    # entry must be the momentum of the recursion the reference runs per column
    monkeypatch.setattr(shrinkage_module, "_momentum_table", np.zeros(1))
    sizes = [shrinkage_module._momentum(n).size for n in (9, 5000, 9000)]
    assert sizes == [9, 5000, 10000]
    t, expected = np.float64(1.0), [0.0]
    for _ in range(sizes[-1] - 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        expected.append((t - 1.0) / t_next)
        t = t_next
    np.testing.assert_array_equal(shrinkage_module._momentum(1), expected)


@pytest.mark.parametrize("solve", [
    lambda tol: induced_regularizer(InducedRegularizer.from_shrinkage(example_shrinkage()), [1.0], tol=tol),
    lambda tol: numeric_prox(example_shrinkage(), np.array([1.0]), tol=tol),
    lambda tol: solve_analysis_dual(AnalysisProblem(np.array([1.0]), example_operator(), 1.0), tol=tol),
], ids=["induced_regularizer", "numeric_prox", "solve_analysis_dual"])
def test_nan_tol_is_refused_at_once(solve):
    # no gap or certificate compares <= NaN, so the solve would run to its cap
    with pytest.raises(ValueError, match="NaN"):
        solve(np.nan)


def test_induced_regularizer_dimension_mismatch():
    reg = InducedRegularizer.from_shrinkage(example_shrinkage())
    with pytest.raises(DimensionMismatch):
        induced_regularizer(reg, np.array([1.0, 2.0]))


def test_induced_regularizer_reads_g_from_its_shrinkage():
    fs = example_shrinkage()
    reg = InducedRegularizer.from_shrinkage(fs)
    assert reg.g is fs.inner_prox.function
    with pytest.raises(TypeError):
        InducedRegularizer(fs, g=lambda v: 0.0)
    bare = FrameShrinkage(example_operator(), ProxMap("bare", 1.0, lambda v, t=1.0: v))
    with pytest.raises(ValueError, match="no function"):
        InducedRegularizer.from_shrinkage(bare)
    # f is evaluated for the catalog maps only, even given a function handle
    l1 = ProxMap("scaled_l1", 2.0, lambda v, t=1.0: soft_shrink(v, 2.0 * t),
                 function=lambda v: 2.0 * np.sum(np.abs(v), axis=0))
    with pytest.raises(ValueError, match="scaled_l1"):
        InducedRegularizer.from_shrinkage(FrameShrinkage(example_operator(), l1))


def test_induced_regularizer_identity_inner_is_zero(rng, monkeypatch):
    # g = 0, so f = 0 at once on a rectangular T, with no dual solve
    def no_solve(*args):
        raise AssertionError("the identity map must not start a dual solve")

    monkeypatch.setattr(shrinkage_module, "_fista_points", no_solve)
    op = random_operator(5, 2, rng)
    reg = InducedRegularizer.from_shrinkage(FrameShrinkage(op, identity_map()))
    assert induced_regularizer(reg, rng.standard_normal(2)) == 0.0
    np.testing.assert_array_equal(
        induced_regularizer(reg, rng.standard_normal((2, 4))), np.zeros(4)
    )


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
    reg = InducedRegularizer.from_shrinkage(fs)
    rep = verify_prox_identity(fs, reg, trials=60, tol=1e-6, seed=7)
    assert rep.passed


def test_verify_prox_identity_random_operator(rng):
    op = random_operator(6, 3, rng)
    for lam in (0.1, 1.0):
        fs = FrameShrinkage(op, soft_shrink_map(lam))
        reg = InducedRegularizer.from_shrinkage(fs)
        rep = verify_prox_identity(fs, reg, trials=30, tol=1e-5, seed=11)
        assert rep.passed, rep


@pytest.mark.parametrize("spec", ["random:12x5:3", "random:100x60:3", "random:30x12:2"])
def test_verify_prox_identity_catches_a_wrong_regularizer(spec, monkeypatch):
    # a gap floor of 1e300 certifies every column of the dual solve at its
    # first check, so f comes out wrong; the envelope identity at the
    # shrinkage point must see it, while the unmutated check passes
    fs = FrameShrinkage(build_operator(load_named_matrix(spec)), soft_shrink_map(1.0))
    reg = InducedRegularizer.from_shrinkage(fs)
    assert verify_prox_identity(fs, reg, trials=50, tol=1e-6, seed=4).passed
    monkeypatch.setattr(shrinkage_module, "_GAP_FLOOR", 1e300)
    rep = verify_prox_identity(fs, reg, trials=50, tol=1e-6, seed=4)
    assert not rep.passed and rep.max_violation > 1e-3


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
        return verify_prox_identity(fs, InducedRegularizer.from_shrinkage(fs), trials=20, tol=1e-6, seed=3)

    assert check(good).passed
    rep = check(bad)
    assert not rep.passed and rep.max_violation > 1e-2 * lam, rep


def test_numeric_prox_lands_within_its_certified_tolerance(rng):
    # a converged T-metric oracle is within tol of the closed-form
    # composition in T-norm; random:200x100:2 is where an iterate-change
    # stop rule missed 1e-7 by 1.42e-6
    ops = [build_operator(load_named_matrix("random:200x100:2"))]
    ops += [random_operator(n, d, rng, cond=c) for n, d, c in ((9, 2, 1e3), (30, 12, 30.0), (60, 30, None))]
    for op in ops:
        x = rng.standard_normal((op.d, 12)) * np.repeat([0.1, 1.0, 10.0], 4)
        for lam, tol in ((0.1, 1e-6), (1.0, 1e-7), (10.0, 1e-9)):
            fs = FrameShrinkage(op, soft_shrink_map(lam))
            reg = InducedRegularizer.from_shrinkage(fs)
            rep = numeric_prox(reg, x, tol=tol)
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
    reg = InducedRegularizer.from_shrinkage(example_shrinkage())
    f1 = induced_regularizer(reg, np.array([1.0]), tol=1e-9)
    g1 = float(reg.g(example_operator().matrix @ np.array([1.0])))
    assert g1 == 3.0
    assert f1 < g1 - 0.05  # strictly weaker: 2.9 < 3
    rep = weaker_regularizer_check(reg, trials=300, tol=1e-9, seed=5)
    assert rep.passed


def test_weaker_regularizer_bijective_equality(rng):
    q = random_orthogonal(3, rng)
    reg = InducedRegularizer.from_shrinkage(FrameShrinkage(build_operator(q), soft_shrink_map(1.0)))
    x = rng.standard_normal(3)
    assert induced_regularizer(reg, x) == float(reg.g(q @ x))


def test_induced_regularizer_midpoint_convexity(rng):
    op = random_operator(7, 4, rng)
    reg = InducedRegularizer.from_shrinkage(FrameShrinkage(op, soft_shrink_map(0.8)))
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
    op = random_operator(6, 3, rng)
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
        reg = InducedRegularizer.from_shrinkage(fs)
        x = rng.standard_normal(4) * 2
        y = frame_prox(fs, x)
        lhs = huber_envelope(op.matrix @ x, lam)
        d = op.matrix @ (x - y)
        rhs = 0.5 * d @ d + induced_regularizer(reg, y, tol=1e-10)
        assert abs(lhs - rhs) <= 1e-8

