"""Pins of how f's dual is solved: the kernels behind ``shrinkage._certify``.

``test_shrinkage`` tests ``_certify``'s contract, what a caller relies on. These
tests pin how today's solver meets it: FISTA's kernel and float32 phase, ADMM's
join, the gap stride, the per-column dot, and the iteration counts they set.
Only this module names the kernels' private names (the first test checks it),
so a change of kernel rewrites or deletes tests here alone.
"""

import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from proxframe import FrameShrinkage, InducedRegularizer, NotConverged, build_operator, example_operator
from proxframe import example_shrinkage
from proxframe import frame_prox, induced_regularizer, random_operator, soft_shrink, soft_shrink_map
from proxframe import verify_prox_identity, weaker_regularizer_check
import dead_zone_grids
from proxframe import shrinkage as shrinkage_module
from proxframe.cli import load_named_matrix, main
from support import certify_brackets, run_samples

KERNEL_NAMES = ("_fista_steps", "_admm_steps", "_col_dot", "_GAP_STRIDE", "_FISTA_ITERS",
                "_FLOAT32_ROWS", "_FLOAT32_RANGE", "fista_steps_reference")


def test_no_other_test_module_names_a_kernel():
    # a test elsewhere that named one would pin the kernel outside this module
    pattern, here = re.compile(r"\b(?:%s)\b" % "|".join(KERNEL_NAMES)), Path(__file__)
    found = [f"{path.name}:{number}" for path in sorted(here.parent.glob("*.py")) if path != here
             for number, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert found == []


def fista_steps_reference(proj, c, lam, u, y):
    """The dual FISTA of ``shrinkage._fista_steps`` in its plain form.

    From the state (u, y) it forms q = P u and q_y = P y, carries them beside
    u and y, extrapolates both, and takes every column's momentum as 1, or 0
    on a restart step. It runs ``_GAP_STRIDE`` iterations and returns the
    new (u, y), as the kernel does, with no array updated in place.
    """
    q, q_y = proj @ u, proj @ y
    for _ in range(shrinkage_module._GAP_STRIDE):
        u_new = np.clip(q_y + c, -lam, lam)
        q_new = proj @ u_new
        du = u_new - u
        restart = np.sum((y - u_new) * du, axis=0) > 0.0
        beta = np.where(restart, 0.0, 1.0)
        y = u_new + beta * du
        q_y = q_new + beta * (q_new - q)
        u, q = u_new, q_new
    return u, y


@pytest.fixture
def fista(monkeypatch):
    """A spy on ``_fista_steps``, whose state must share c's shape at every call.

    ``fista.calls`` holds each call's ``proj``, ``c``, ``lam``, the ``u`` it
    returns and whether c and the state were ``column_major``; the spy runs
    ``fista.kernel``, which a test may swap.
    """
    spy = SimpleNamespace(calls=[], kernel=shrinkage_module._fista_steps)

    def steps(proj, c, lam, *state):
        assert all(a.shape == c.shape for a in state)
        column_major = all(a.flags.f_contiguous for a in (c, *state))
        u, y = spy.kernel(proj, c, lam, *state)
        spy.calls.append(SimpleNamespace(proj=proj, c=c, lam=lam, u=u.copy(), column_major=column_major))
        return u, y

    monkeypatch.setattr(shrinkage_module, "_fista_steps", steps)
    return spy


def regression_prox_identity(fs):
    """The 100-trial prox-identity check of the random:200x100:2 CLI regression, seed 5."""
    return verify_prox_identity(fs, InducedRegularizer(fs), trials=100, tol=1e-6, seed=5)


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
    # with no RuntimeWarning. Only ADMM's c / rho reaches that check: FISTA
    # alone runs to the cap (test_shrinkage holds what any solver must)
    reg = InducedRegularizer(FrameShrinkage(example_operator(), soft_shrink_map(1e200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotConverged, match=r"lam 1e\+200 .* at iteration \d+"):
            induced_regularizer(reg, 1.0)


def test_induced_regularizer_compaction_across_both_phases(dead_zone_block, certified):
    # ordinary columns are certified by FISTA and leave the block while the
    # deep-dead-zone ones stay past _FISTA_ITERS, where ADMM joins the same
    # FISTA run on them, and leave it one by one; each column must still
    # come back as its own single-column evaluation
    fs, x = dead_zone_block
    op, reg, tol = fs.operator, InducedRegularizer(fs), 1e-9
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
    # join, so its grid construction and reporting keep working
    label = "9x2 cond 1 lam 1 scale 1e-07"
    cases = [case for case in dead_zone_grids.grid96() if case[0] == label]
    ((got, iters, _),) = dead_zone_grids.run_grid("96", cases, tol=1e-7)
    assert got == label and np.max(iters) > shrinkage_module._FISTA_ITERS, iters
    assert capsys.readouterr().out.splitlines()[-1].startswith("96: 1/1 certified")


def test_fista_beside_admm_certifies_a_conditioned_dead_zone_at_tight_tol():
    # FISTA goes on beside ADMM after the join: on this case of the 96-case
    # grid the two together certify at tol 1e-11 (in 39,096 iterations),
    # while ADMM alone after the join stayed open at a gap of 1.5e-9
    label = "200x100 cond 1000 lam 1 scale 0.0001"
    cases = [case for case in dead_zone_grids.grid96() if case[0] == label]
    ((got, iters, _),) = dead_zone_grids.run_grid("96", cases, tol=1e-11)
    assert got == label and iters is not None
    assert np.max(iters) > shrinkage_module._FISTA_ITERS, iters


def test_certify_bracket_contains_the_exact_value_on_the_float32_path(monkeypatch, fista):
    # test_shrinkage's bracket test with the size gate at 0, so that these
    # small frames run FISTA's float32 phase. lam 0.1 is not a float32
    # number: a gap check on the float32-clipped iterate, not re-clipped into
    # [-lam, lam], would take a dual point outside the box, whose value can
    # exceed f
    monkeypatch.setattr(shrinkage_module, "_FLOAT32_ROWS", 0)
    certify_brackets(710, range(3, 7), lams=(0.1, 0.5, 1.0, 2.0))
    assert {call.proj.dtype.type for call in fista.calls} == {np.float32, np.float64}


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


def test_fista_kernel_matches_plain_reference(regression_block, dead_zone_block, monkeypatch, fista):
    # the kernel forms P y by its own product and clips in place; the same
    # columns must be certified by FISTA alone as with the plain reference,
    # each within one gap check of the reference's count, and every column at
    # its value up to tol and the rounding slack of the gap-certificate test,
    # ADMM's join included.
    # Blocks: f(y1) of the random:200x100:2 CLI regression at tol 1e-7, and
    # the 9x2 block at lam = 10 half deep in the dead zone of
    # test_induced_regularizer_compaction_across_both_phases. The reference
    # is a float64 form (it carries P u and P y, whose float32 rounding would
    # accumulate), so the float32 phase is off here; the bracket tests
    # hold that phase to the exact f
    monkeypatch.setattr(shrinkage_module, "_FLOAT32_ROWS", np.inf)
    (regression, _, y1), fista_only, lone = regression_block, shrinkage_module._FISTA_ITERS, set()
    for fs, y, tol in ((regression, y1, 1e-7), (*dead_zone_block, 1e-9)):
        reg = InducedRegularizer(fs)
        c = fs.operator.matrix @ y
        u = c - soft_shrink(c, fs.inner_prox.lam)
        slack = 1e-12 * (1.0 + reg.g(c) + np.sum(u * u, axis=0))
        value, _, iters = shrinkage_module._certify(reg, c, reg.g(c), tol)
        kernel, fista.kernel = fista.kernel, fista_steps_reference
        fista.calls.clear()
        ref_value, _, ref_iters = shrinkage_module._certify(reg, c, reg.g(c), tol)
        fista.kernel = kernel
        lone |= {call.c.shape[1] == 1 for call in fista.calls}
        done = iters <= fista_only
        np.testing.assert_array_equal(done, ref_iters <= fista_only)
        assert np.all(np.abs(iters - ref_iters)[done] <= shrinkage_module._GAP_STRIDE), (iters, ref_iters)
        assert np.all(np.abs(value - ref_value) <= tol + slack)
    assert not np.all(done), "the dead-zone columns should need ADMM"
    # the regression's last open column runs through the reference too
    assert lone == {True, False}, lone


def test_certify_runs_its_kernels_on_column_major_blocks(certify_blocks, fista):
    # _certify solves on a column-contiguous copy of c, and FISTA's state
    # takes its layout, for a C-ordered
    # c, its Fortran copy and a strided view alike. The blocks are those of
    # test_certify_bounds_do_not_depend_on_the_layout_of_c: the regression's
    # f(y1) at tol 1e-7 runs in float32 to its end, and at tol 1e-13 goes on
    # in float64; the dead-zone block reaches ADMM
    for reg, c, feasible, tol in certify_blocks:
        wide = np.zeros((c.shape[0], 2 * c.shape[1]))
        wide[:, ::2] = c
        for block in (c, np.asfortranarray(c), wide[:, ::2]):
            iters = shrinkage_module._certify(reg, block, feasible, tol)[2]
    assert all(call.column_major for call in fista.calls)
    assert np.max(iters) > shrinkage_module._FISTA_ITERS, "the dead-zone block should reach ADMM"
    # the checks hold on the block of a lone open column as on wider ones
    assert {call.c.shape[1] == 1 for call in fista.calls} == {True, False}
    # P reaches every gap stride of the solve column-major: in float64 as a
    # read-only view of the operator's one projector, and in the float32
    # phase, which the 200-row frame takes and the 9-row one does not, as
    # that projector's transpose cast to float32. The float64 view reaches
    # the 200-row frame in its solve at tol 1e-13
    ops = {reg.shrinkage.inner_prox.lam: reg.shrinkage.operator for reg, _, _, _ in certify_blocks}
    assert {(call.lam, call.proj.dtype.type) for call in fista.calls} == {
        (1.0, np.float32), (1.0, np.float64), (10.0, np.float64)}
    for proj, range_proj in ((call.proj, ops[call.lam].range_proj) for call in fista.calls):
        assert proj.flags.f_contiguous
        if proj.dtype == np.float32:
            np.testing.assert_array_equal(proj, range_proj.T.astype(np.float32))
        else:
            assert not proj.flags.writeable and proj.base is range_proj and np.shares_memory(proj, range_proj)


def test_float32_phase_ends_at_the_first_gap_that_does_not_fall(regression_block, fista, certified):
    # FISTA leaves float32 right after the first gap check at which some open
    # column's gap is not below its gap at the check before. On the f(y1)
    # block of the regression at lam 0.7 (tol 1e-7) that is the check at
    # iteration 16, with all 100 columns open, where 8 columns' gaps have not
    # fallen since iteration 8. The block then certifies within the 8264
    # column-iterations it took with float32 run on to iteration 40 (6680)
    lam, (regression, x, _) = 0.7, regression_block
    fs = FrameShrinkage(regression.operator, soft_shrink_map(lam))
    reg, op = InducedRegularizer(fs), fs.operator
    p, c = fs.inner_prox(op.matrix @ x), op.matrix @ frame_prox(fs, x)
    # the feasible value verify_prox_identity passes, and each gap from the
    # terms _certify forms it of, in float64 at the re-clipped iterate
    feasible = np.minimum(reg.g(c), 0.5 * np.add.reduce((p - c) ** 2, 0) + reg.g(p))

    def gap(u):
        u = np.clip(u, -lam, lam, dtype=float)
        r = u - op.range_proj @ u
        half_sq = 0.5 * np.add.reduce(u * r, 0)
        return np.minimum(feasible, half_sq + reg.g(c - r)) - (np.add.reduce(u * c, 0) - half_sq)

    iters = shrinkage_module._certify(reg, c, feasible, 1e-7)[2]
    dtypes = [call.proj.dtype.type for call in fista.calls]
    phase = dtypes.index(np.float64)
    assert (phase, fista.calls[phase].c.shape[1]) == (2, 100) and set(dtypes[phase:]) == {np.float64}, dtypes
    gaps = [gap(call.u) for call in fista.calls[:phase]]
    assert np.sum(gaps[1] >= gaps[0]) == 8, gaps
    assert 0 < np.sum(iters) <= 8264, np.sum(iters)
    # the same block at lam 1 runs float32 to its end, in 2968 column-iterations
    fista.calls.clear()
    assert regression_prox_identity(regression).passed
    assert np.sum(certified[-1]) == 2968 and {call.proj.dtype.type for call in fista.calls} == {np.float32}


def test_certify_runs_a_lone_open_column_on_vectors(regression_block, fista, certified):
    # FISTA gets c and its state as one-column blocks, which its kernel runs
    # on vectors, once one column is open: in the f(y1) block of the
    # regression (tol 1e-7) column 63 runs alone from iteration 128 to 240,
    # and a one-column call from its first step on
    assert regression_prox_identity(regression_block[0]).passed
    (iters,) = certified
    assert np.argmax(iters) == 63 and np.sort(iters)[-2:].tolist() == [128, 240], iters
    alone = (240 - 128) // shrinkage_module._GAP_STRIDE
    shapes = [call.c.shape for call in fista.calls]
    assert shapes[-alone:] == [(200, 1)] * alone
    assert all(len(shape) == 2 and shape[1] > 1 for shape in shapes[:-alone]), shapes
    fista.calls.clear()
    induced_regularizer(InducedRegularizer(example_shrinkage()), 0.3)
    assert fista.calls and {call.c.shape for call in fista.calls} == {(2, 1)}


def test_cap_inside_the_vector_tail_of_a_block(regression_block, monkeypatch, fista):
    # at a cap of 200 iterations the regression's f(y1) block stops with
    # column 63 open alone, a one-column block; the message names its gap
    # and the iterations run, as at a cap on wider blocks. The gap is
    # recomputed from FISTA's last iterate (float32 here, re-clipped into
    # the float64 box) with _certify's terms, since its last digits depend
    # on the BLAS kernel and thread count
    fs, args = regression_block[0], []
    certify = shrinkage_module._certify
    monkeypatch.setattr(shrinkage_module, "_certify", lambda *a, **kw: args.append(a) or certify(*a, **kw))
    monkeypatch.setattr(shrinkage_module, "_MAX_ITER", 200)
    with pytest.raises(NotConverged) as raised:
        regression_prox_identity(fs)
    last = fista.calls[-1]
    assert last.c.shape == (200, 1), last.c.shape
    reg, c, feasible, _ = args[-1]
    (j,) = np.flatnonzero((c.astype(last.c.dtype) == last.c).all(axis=0))
    lam, c = fs.inner_prox.lam, c[:, j:j + 1]
    u = np.clip(last.u, -lam, lam, dtype=float)
    r = u - np.matmul(fs.operator.range_proj.T, u)
    half_sq = 0.5 * shrinkage_module._col_dot(r, r)
    gap = np.minimum(feasible[j], half_sq + reg.g(c - r)) - (shrinkage_module._col_dot(u, c) - half_sq)
    message = f"left a duality gap of {gap[0]:.3e} after 200 iterations (checked every 8)"
    assert str(raised.value).endswith(message), (str(raised.value), message)


def test_fista_kernel_runs_a_one_column_block_on_vectors(regression_block, dead_zone_block, fista):
    # the kernel steps a one-column block on 1-D views of its column and
    # hands back (n, 1) views of 1-D arrays: in float64, in the float32 phase
    # of the 200-row frame, and on a lone dead-zone column past
    # _FISTA_ITERS, where _certify runs it beside ADMM
    regression, _, y1 = regression_block
    dead_zone, x_dead = dead_zone_block[0], dead_zone_block[1][:, :1]
    strides = shrinkage_module._FISTA_ITERS // shrinkage_module._GAP_STRIDE
    for fs, x, dtype, calls in ((example_shrinkage(), np.array([[0.3]]), np.float64, 4),
                                (regression, y1[:, 63:64], np.float32, 4),
                                (dead_zone, x_dead, np.float64, strides + 4)):
        op, lam = fs.operator, dtype(fs.inner_prox.lam)
        proj, c = op.range_proj.T.astype(dtype), (op.matrix @ x).astype(dtype)
        u, y = np.zeros(op.n, dtype)[:, None], np.zeros(op.n, dtype)[:, None]
        for _ in range(calls):
            u, y = fista.kernel(proj, c, lam, u, y)
            for a in (u, y):
                assert a.shape == (op.n, 1) and a.dtype == dtype
                assert np.ndim(a.base) == 1
        assert np.all(np.abs(u) <= lam)
    reg, c = InducedRegularizer(dead_zone), dead_zone.operator.matrix @ x_dead
    (iters,) = shrinkage_module._certify(reg, c, reg.g(c), 1e-9)[2]
    shapes = {call.c.shape for call in fista.calls}
    assert iters > shrinkage_module._FISTA_ITERS and shapes == {(9, 1)}, (iters, shapes)


@pytest.mark.parametrize("n, k", [(9, 12), (200, 100), (11, 1), (200, 1), (200, 0)])
def test_col_dot_matches_the_column_sums(rng, n, k):
    # one fused pass per column against the multiply-and-sum it replaced,
    # on C-ordered, Fortran-ordered and strided blocks; each is within a
    # few ulps of the sum of |a b| over the column, and exact on integers.
    # A one-column block is one BLAS dot of its two columns, bit for bit
    a, b = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    wide = np.zeros((n, 2 * k))
    eps = np.finfo(float).eps
    for x, y in ((a, b), (np.asfortranarray(a), np.asfortranarray(b)), (a, wide[:, ::2])):
        wide[:, ::2] = b
        dot = shrinkage_module._col_dot(x, y)
        assert dot.shape == (k,)
        ref = np.add.reduce(x * y, 0)
        assert np.all(np.abs(dot - ref) <= 4.0 * eps * np.add.reduce(np.abs(x * y), 0))
        if k == 1:
            assert dot[0] == x[:, 0].dot(y[:, 0])
        ints = np.round(8.0 * x), np.round(8.0 * y)
        np.testing.assert_array_equal(shrinkage_module._col_dot(*ints), np.add.reduce(ints[0] * ints[1], 0))


def test_verify_prox_identity_stops_f_at_its_dual_end(regression_block, certified):
    # f(y1) on the 100-trial block of random:200x100:2 took 6168
    # column-iterations while each column waited for FISTA's primal end;
    # seeded at the feasible point, it stops once its dual is in reach
    assert regression_prox_identity(regression_block[0]).passed
    (iters,) = certified
    assert 0 < np.sum(iters) <= 4000


def test_unit_momentum_shortens_the_regression_f_block(regression_block, certified):
    # the block of test_verify_prox_identity_stops_f_at_its_dual_end takes
    # 2968 column-iterations with momentum 1 between gradient restarts, and
    # took 3416 with momentum (m - 1) / (m + 2) after m steps since one
    assert regression_prox_identity(regression_block[0]).passed
    (iters,) = certified
    assert 0 < np.sum(iters) <= 3200


def test_weaker_regularizer_iterates_only_trials_that_can_set_the_maximum(regression_block, certified):
    # certifying every trial's f took 4696 column-iterations here (the
    # regression's operator, 100 trials of seed 6); trials that cannot set
    # the maximum leave the solve as soon as that shows
    reg = InducedRegularizer(regression_block[0])
    assert weaker_regularizer_check(reg, trials=100, tol=1e-9, seed=6).passed
    (iters,) = certified
    assert 0 < np.sum(iters) <= 1200


def test_weaker_regularizer_not_converged_only_for_a_possible_maximum(regression_block, monkeypatch):
    # certifying every trial of this block to the inner tolerance takes 96
    # iterations, settling its maximum 72; at a cap of 88 the trials still
    # open cannot set the maximum, so the check reports as without a cap.
    # At 16 the maximum itself is open, and the check raises
    fs, trials, seed = regression_block[0], 100, 6
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


def test_verify_soft10_certifies_before_the_admm_join(capsys, certified):
    # CI's console-script step runs this argv at 100 trials. The slowest
    # column of prox_identity's f(y1) runs 1048 iterations with momentum 1
    # between restarts; with momentum (m - 1) / (m + 2) it ran 2424, and
    # ADMM joined at _FISTA_ITERS
    code = main(["verify", "--operator", "random:12x5:7", "--prox", "soft:10", "--trials", "20", "--seed", "3"])
    assert code == 0, capsys.readouterr().err
    assert max(np.max(iters, initial=0) for iters in certified) <= 1500


def test_regularizer_deep_in_the_dead_zone_reaches_the_admm_join(capsys, certified):
    # CI's console-script step runs this argv for its ADMM join: at |x| of
    # 1e-4 and below against lam = 10, FISTA leaves columns open past its
    # first _FISTA_ITERS iterations (the slowest runs 6768), so ADMM joins
    code = main(["regularizer", "--operator", "random:20x10:1", "--prox", "soft:10",
                 "--grid", "-1e-4:1e-4:1e-5", "--seed", "1"])
    assert code == 0, capsys.readouterr().err
    assert max(np.max(iters, initial=0) for iters in certified) > shrinkage_module._FISTA_ITERS
