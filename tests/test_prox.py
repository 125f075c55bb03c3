import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxframe import (
    DimensionMismatch,
    NonPositiveLambda,
    ProxMap,
    SolveReport,
    build_operator,
    huber_envelope,
    identity_map,
    numeric_prox,
    random_operator,
    shrink_potential,
    soft_shrink,
    soft_shrink_map,
    verify_firm_nonexpansive,
    verify_moreau_characterization,
)
from proxframe import shrinkage
from proxframe.cli import load_named_matrix
from proxframe.prox import _entry_values
from support import (
    central_diff,
    entry_terms,
    euclidean_prox,
    golden_section,
    moreau_trial_violations,
    run_samples,
)

lambdas = st.floats(min_value=0.05, max_value=10.0)
points = st.floats(min_value=-30.0, max_value=30.0)


def test_soft_shrink_values():
    np.testing.assert_allclose(soft_shrink(np.array([2.0, 0.5, -3.0]), 1.0), [1.0, 0.0, -2.0])
    assert soft_shrink(0.0, 2.7) == 0.0
    lam = 0.37
    np.testing.assert_array_equal(soft_shrink(np.array([lam, -lam]), lam), [0.0, 0.0])


def test_soft_shrink_scalar_returns_float():
    out = soft_shrink(2.0, 1.0)
    assert isinstance(out, float) and out == 1.0


def test_soft_shrink_kernel_matches_the_sign_formula(rng):
    # x - clip(x, -lam, lam) has the bits of sign(x) max(|x| - lam, 0) on
    # every nonzero output, and gives +0.0 on the dead zone
    def reference(a, lam):
        return np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)

    def check(a, lam):
        out, ref = soft_shrink(a, lam), reference(a, lam)
        assert out.shape == ref.shape
        np.testing.assert_array_equal(np.isnan(out), np.isnan(ref))
        nonzero = (ref != 0.0) & ~np.isnan(ref)
        np.testing.assert_array_equal(out[nonzero].view(np.uint64), ref[nonzero].view(np.uint64))
        dead = ref == 0.0
        assert np.all(out[dead] == 0.0) and not np.any(np.signbit(out[dead]))
        return dead

    dead_seen = 0
    for lam in (1e-8, 0.1, 0.37, 1.0, 10.0, 1e8):
        a = rng.standard_normal(2000) * 10.0 ** rng.uniform(-10, 10, size=2000)
        dead_seen += np.count_nonzero(check(a, lam))
        edges = [lam, -lam, np.nextafter(lam, np.inf), np.nextafter(lam, 0.0),
                 np.nextafter(-lam, -np.inf), np.nextafter(-lam, 0.0),
                 0.0, -0.0, np.inf, -np.inf, np.nan]
        check(np.array(edges), lam)
    assert dead_seen > 0
    assert soft_shrink(np.nextafter(1.0, 2.0), 1.0) == np.spacing(1.0)
    # the threshold is a scalar: an array of them is refused
    with pytest.raises(TypeError, match="scalar"):
        soft_shrink(rng.standard_normal((50, 6)), np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0]))
    # a scalar input still returns a float, +0.0 on the dead zone
    for x, lam, want in ((-2.5, 1.0, -1.5), (0.3, 1.0, 0.0), (-0.3, 1.0, 0.0)):
        out = soft_shrink(x, lam)
        assert isinstance(out, float) and out == want and np.signbit(out) == (want < 0)


@pytest.mark.parametrize("fn", [soft_shrink, huber_envelope, shrink_potential])
@pytest.mark.parametrize("lam", [0.0, -1.0, np.inf])
def test_nonpositive_lambda_rejected(fn, lam):
    with pytest.raises(NonPositiveLambda):
        fn(np.array([1.0]), lam)


def test_envelope_values():
    assert np.isclose(huber_envelope(2.0, 1.0), 1.5, atol=1e-15)
    assert np.isclose(huber_envelope(0.5, 1.0), 0.125, atol=1e-15)
    assert np.isclose(huber_envelope(np.array([2.0, 0.5]), 1.0), 1.625, atol=1e-15)


def test_potential_values():
    assert shrink_potential(2.0, 1.0) == 0.5
    assert shrink_potential(0.7, 1.0) == 0.0
    fd = central_diff(lambda v: shrink_potential(v, 1.0), np.array([3.0]))
    assert np.isclose(fd[0], 2.0, rtol=1e-8)
    assert soft_shrink(3.0, 1.0) == 2.0


@given(points, lambdas)
def test_decomposition_half_square(x, lam):
    # the potential and the envelope tile the parabola exactly
    assert abs(0.5 * x * x - (shrink_potential(x, lam) + huber_envelope(x, lam))) <= 1e-12


@given(points, lambdas)
def test_envelope_attained_at_shrinkage_point(x, lam):
    s = soft_shrink(x, lam)
    attained = 0.5 * (x - s) ** 2 + lam * abs(s)
    assert abs(attained - huber_envelope(x, lam)) <= 1e-12


@given(points, lambdas)
@settings(max_examples=200)
def test_envelope_matches_golden_section_oracle(x, lam):
    span = abs(x) + lam + 1.0
    oracle = golden_section(lambda y: 0.5 * (x - y) ** 2 + lam * abs(y), -span, span)
    val = 0.5 * (x - oracle) ** 2 + lam * abs(oracle)
    assert abs(val - huber_envelope(x, lam)) <= 1e-9


@given(points, points, lambdas)
def test_scalar_firm_nonexpansiveness(x, y, lam):
    dp = soft_shrink(x, lam) - soft_shrink(y, lam)
    assert dp * dp <= (x - y) * dp + 1e-12


def test_envelope_gradient_is_residual(rng):
    lam = 0.8
    for _ in range(200):
        x = rng.standard_normal(4) * rng.choice([0.1, 1.0, 10.0])
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        if np.any(np.abs(np.abs(x) - lam) < 10 * h):
            continue
        fd = central_diff(lambda v: huber_envelope(v, lam), x)
        expected = x - soft_shrink(x, lam)
        denom = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(fd - expected)) / denom <= 1e-6


def test_verify_firm_nonexpansive_soft():
    rep = verify_firm_nonexpansive(soft_shrink_map(1.0), dim=5, trials=10000, tol=1e-12)
    assert rep.passed
    assert rep.max_violation <= 1e-12
    assert rep.trials == 10000


def test_verify_firm_nonexpansive_identity_exact():
    rep = verify_firm_nonexpansive(identity_map(), dim=4, trials=500, tol=1e-12)
    assert rep.passed
    assert rep.max_violation == 0.0


def test_verify_firm_nonexpansive_rejects_expansive_map():
    doubler = ProxMap(name="doubler", lam=1.0, prox=lambda v, t=1.0: 2.0 * np.asarray(v))
    rep = verify_firm_nonexpansive(doubler, dim=3, trials=200, tol=1e-12)
    assert not rep.passed
    assert rep.max_violation > 1.0


def test_moreau_characterization_soft():
    pm = soft_shrink_map(1.0)
    rep = verify_moreau_characterization(pm, dim=3, trials=300, tol=1e-6)
    assert rep.passed


def test_moreau_characterization_identity():
    pm = identity_map()
    rep = verify_moreau_characterization(pm, dim=3, trials=300, tol=1e-6)
    assert rep.passed


def test_moreau_characterization_wrong_potential_fails():
    pm = soft_shrink_map(1.0)
    l1 = lambda v: np.sum(np.abs(v), axis=0)
    wrong = replace(pm, potential=l1)
    rep = verify_moreau_characterization(wrong, dim=3, trials=300, tol=1e-6)
    assert not rep.passed
    assert rep.max_violation == np.max(moreau_trial_violations(wrong, dim=3, trials=300))


@pytest.mark.parametrize("scale", [2.0, -1.0], ids=["expansive", "concave"])
def test_firm_check_fails_what_the_moreau_check_passes(scale):
    # scale * S_1 is the gradient of scale * psi, psi soft shrinkage's
    # potential, so the gradient test passes it; at 2 the map is expansive,
    # at -1 it is decreasing with a concave potential, and neither is a
    # prox: the firm check must fail both
    pm = soft_shrink_map(1.0)
    mutated = ProxMap(
        name="scaled_soft",
        lam=1.0,
        prox=lambda v, t=1.0: scale * pm.prox(v, t),
        potential=lambda v: scale * pm.potential(v),
        breakpoint_gap=pm.breakpoint_gap,
    )
    moreau = verify_moreau_characterization(mutated, dim=3, trials=300, tol=1e-6)
    firm = verify_firm_nonexpansive(mutated, dim=3, trials=300, tol=1e-12)
    assert moreau.passed, moreau.max_violation
    assert not firm.passed and firm.max_violation > 1.0


@pytest.mark.parametrize("seed", [0, 2])
def test_moreau_characterization_skips_trials_near_a_breakpoint(seed):
    # lam puts the first coordinate of the only trial 5 finite-difference
    # steps outside the kink of soft shrinkage, inside the 10-step band the
    # gradient term skips; the report is then the per-entry-sum term alone,
    # which stays below the gradient term the skip leaves out
    dim = 3
    x = run_samples(seed, 1, dim)[0]
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    pm = soft_shrink_map(abs(x[0, 0]) - 5.0 * h[0, 0])
    at_x = pm.potential(x)
    x0, h0 = x[:, 0], h[:, 0]
    split = abs(at_x[0] - np.sum(entry_terms(pm.potential, x0))) / max(1.0, abs(at_x[0]))
    fd = (entry_terms(pm.potential, x0 + h0) - entry_terms(pm.potential, x0 - h0)) / (2.0 * h0)
    px = pm(x0)
    grad_err = np.max(np.abs(fd - px)) / max(1.0, np.max(np.abs(px)))
    rep = verify_moreau_characterization(pm, dim, trials=1, tol=1e-6, seed=seed)
    assert rep.max_violation == split
    assert rep.max_violation < grad_err


@pytest.mark.parametrize("pm", [soft_shrink_map(1.0), identity_map()], ids=["soft", "identity"])
@pytest.mark.parametrize("dim", [1, 3, 7, 8, 9, 20, 31, 32, 33, 64, 129, 400])
def test_moreau_characterization_matches_per_trial_reference(pm, dim):
    # the block evaluation reports the very bits of a per-trial loop that
    # calls the potential once per scalar entry; 1025 trials reach into a
    # second sampling block, and by the prefix property shorter runs see the
    # first trials of the longest one. At dim 400 the reference's 1200
    # potential calls per trial keep it to 200 trials
    runs = (1, 200, 1025) if dim <= 129 else (1, 200)
    ref = moreau_trial_violations(pm, dim, runs[-1], seed=dim)
    for trials in runs:
        rep = verify_moreau_characterization(pm, dim, trials, tol=1e-6, seed=dim)
        assert rep.max_violation == np.max(ref[:trials])


@pytest.mark.parametrize("pm", [soft_shrink_map(0.3), identity_map()], ids=["soft", "identity"])
@pytest.mark.parametrize("dim", [1, 7, 8, 9, 31, 32, 33, 64, 129, 400])
def test_block_central_diff_is_bit_identical(pm, dim):
    # the Moreau check's differences of the potential laid out as one row at
    # x + h and x - h must give the very bits of one potential call per
    # shifted entry, for a vector and for every column of a block
    rng = np.random.default_rng(dim)

    def central_diff_by(values, x):
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        return (values(pm.potential, x + h) - values(pm.potential, x - h)) / (2.0 * h)

    for scale in (0.1, 1.0, 10.0):
        x = scale * rng.standard_normal(dim)
        assert np.array_equal(central_diff_by(_entry_values, x), central_diff_by(entry_terms, x))
    cols = np.array([0.1, 1.0, 10.0])[np.arange(5) % 3] * rng.standard_normal((dim, 5))
    fd = central_diff_by(_entry_values, cols)
    assert fd.shape == cols.shape
    for j in range(cols.shape[1]):
        assert np.array_equal(fd[:, j], central_diff_by(entry_terms, cols[:, j]))


def test_moreau_characterization_scalar_potential_raises():
    # the potential is evaluated on blocks and rows and must return one value
    # per column; a total over the whole block is refused by shape
    pm = soft_shrink_map(1.0)
    l1 = lambda v: float(np.sum(np.abs(v)))
    with pytest.raises(ValueError, match=r"shape \(\)"):
        verify_moreau_characterization(replace(pm, potential=l1), dim=3, trials=5, tol=1e-6)


def test_moreau_characterization_refuses_a_map_without_potential():
    pm = ProxMap(name="bare", lam=1.0, prox=soft_shrink_map(1.0).prox)
    with pytest.raises(ValueError, match="'bare' carries no potential"):
        verify_moreau_characterization(pm, dim=3, trials=5, tol=1e-6)


def block_soft_map(lam: float) -> ProxMap:
    """v max(0, 1 - lam / ||v||): the prox of lam ||.||_2, whose potential
    1/2 (||v|| - lam)_+^2 is not a sum of per-entry terms."""
    norm = lambda v: np.sqrt(np.sum(np.square(v), axis=0))
    return ProxMap(
        name="block_soft",
        lam=lam,
        prox=lambda v, t=1.0: v * np.maximum(0.0, 1.0 - lam * t / np.maximum(norm(v), 1e-300)),
        potential=lambda v: 0.5 * np.maximum(norm(v) - lam, 0.0) ** 2,
        breakpoint_gap=lambda v: np.broadcast_to(np.abs(norm(v) - lam), np.shape(v)),
    )


@pytest.mark.parametrize("dim, passes", [(1, True), (3, False), (40, False)])
def test_moreau_characterization_refuses_a_potential_that_is_not_per_entry(dim, passes):
    # block soft thresholding is a prox, but its potential couples the
    # entries: per-entry differences would check the wrong gradient, so the
    # check must fail it wherever the potential is not a per-entry sum, and
    # at dim 1, where it is soft shrinkage, pass it
    pm = block_soft_map(1.0)
    rep = verify_moreau_characterization(pm, dim, trials=300, tol=1e-6)
    assert rep.passed == passes, rep.max_violation


def test_moreau_characterization_guard_sees_a_coupling_term():
    # max - min of a column is convex and vanishes on every one-entry row, so
    # the per-entry differences match the identity and only the per-entry-sum
    # guard can see that this is not the identity's potential
    pm = identity_map()
    coupled = lambda v: pm.potential(v) + np.ptp(v, axis=0)
    rep = verify_moreau_characterization(replace(pm, potential=coupled), dim=3, trials=300, tol=1e-6)
    assert not rep.passed and rep.max_violation > 0.1


@pytest.mark.parametrize("pm", [soft_shrink_map(1.0), identity_map()], ids=["soft", "identity"])
def test_moreau_characterization_rounding_does_not_grow_with_dim(pm):
    # a per-entry difference rounds at the scale of one entry, not of a sum
    # of 400 of them
    rep = verify_moreau_characterization(pm, dim=400, trials=200, tol=1e-6, seed=3)
    assert rep.max_violation <= 1e-9


def test_numeric_prox_euclidean_matches_soft():
    rep = euclidean_prox(soft_shrink_map(1.0), np.array([2.0]), tol=1e-10)
    assert rep.converged
    y = rep.minimizer[0]
    assert abs(y - 1.0) <= 1e-8
    assert np.isclose(0.5 * (2.0 - y) ** 2 + abs(y), 1.5, atol=1e-8)


def test_numeric_prox_zero_function_is_identity():
    x = np.array([3.0, -1.0, 0.2])
    rep = euclidean_prox(identity_map(), x, tol=1e-12)
    np.testing.assert_allclose(rep.minimizer, x, atol=1e-10)


def test_numeric_prox_componentwise_random(rng):
    lam = 0.6
    tol = 1e-9
    x = rng.standard_normal(8) * 3
    rep = euclidean_prox(soft_shrink_map(lam), x, tol=tol)
    np.testing.assert_allclose(rep.minimizer, soft_shrink(x, lam), atol=10 * tol)


@pytest.mark.parametrize("lam", [0.1, 0.6, 1.0, 3.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
def test_numeric_prox_euclidean_within_tol_of_closed_form(rng, lam, tol):
    # a converged Euclidean oracle lands within tol of soft shrinkage, signal
    # by signal and as one column block
    xs = rng.standard_normal((8, 25)) * 3
    for x in xs.T:
        rep = euclidean_prox(soft_shrink_map(lam), x, tol=tol)
        assert rep.converged
        assert np.max(np.abs(rep.minimizer - soft_shrink(x, lam))) <= tol
    block = euclidean_prox(soft_shrink_map(lam), xs, tol=tol)
    assert block.converged
    assert np.max(np.abs(block.minimizer - soft_shrink(xs, lam))) <= tol


def test_numeric_prox_not_converged_flag(monkeypatch):
    # soft shrinkage certifies at iteration 2; a cap of 1 stops it before
    monkeypatch.setattr(shrinkage, "_MAX_ITER", 1)
    rep = euclidean_prox(soft_shrink_map(1.0), np.array([2.0]), tol=1e-14)
    assert not rep.converged
    assert rep.iterations == 1


def test_numeric_prox_column_norms_do_not_overflow():
    # ||(1e160, 1)||^2 overflows; its norm does not, and the oracle certifies
    # as it does one scale down, with no overflow warning; at a tol below 1
    # ulp of 1e160 it stops unconverged, again with no warning.
    # The first relaxed step lands on S(T x) up to rounding, so at iteration
    # 2 the step term is a ninth of a rounding error and the certificate is
    # about its rounding term, eps (||w|| + ||T x||), within tol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big, tol in ((1e150, 1e140), (1e160, 1e150)):
            rep = euclidean_prox(soft_shrink_map(1.0), np.array([big, 1.0]), tol=tol)
            assert rep.converged and rep.iterations == 2 and rep.residual <= tol
            assert np.linalg.norm(rep.minimizer - [big - 1.0, 0.0]) <= tol
        rep = euclidean_prox(soft_shrink_map(1.0), np.array([1e160, 1.0]), tol=1e-6)
        assert not rep.converged
        # at the top of the float64 range the norm of T x itself overflows:
        # the column stops unconverged at once, again with no warning
        for tol in (1e-6, 1e290):
            rep = euclidean_prox(soft_shrink_map(1.0), np.array([1.7e308, -1.7e308, 1.0]), tol=tol)
            assert not rep.converged and rep.iterations == 1


def test_numeric_prox_column_norms_do_not_underflow():
    # at 1e-170 the squares of T x and of every iterate flush to 0; their
    # norms do not, so the oracle behaves as at scale 1: at tol 0 it stops
    # unconverged on its rounding term, and at tol 1e-175 it certifies a
    # residual that bounds its T-norm distance to the exact prox (measured
    # 1.55e-176 against 1.49e-176). Summed unscaled, the certificate read 0
    # and claimed convergence at tol 0 after one iteration, 10% off the prox
    from proxframe import FrameShrinkage, frame_prox

    op = build_operator(np.random.default_rng(0).standard_normal((6, 3)))
    fs = FrameShrinkage(op, soft_shrink_map(1e-170))
    x = 1e-170 * np.array([1.0, -2.0, 0.5])
    rep = numeric_prox(fs, x, tol=0.0)
    assert not rep.converged and rep.iterations == 1 and 0.0 < rep.residual < np.inf
    rep = numeric_prox(fs, x, tol=1e-175)
    assert rep.converged and 0.0 < rep.residual <= 1e-175
    # the distance, its difference scaled by 2^600 so that its squares stay normal
    dist = np.linalg.norm(op.matrix @ ((rep.minimizer - frame_prox(fs, x)) * 2.0 ** 600)) / 2.0 ** 600
    assert 0.0 < dist <= rep.residual
    # at a subnormal T x the rounding term eps (||z+|| + ||T x||) itself
    # underflows to 0, and so can the certificate: tol 0 must still stop the
    # column unconverged at once, as at every other scale
    for tiny in (1e-310, 1e-320):
        fs = FrameShrinkage(op, soft_shrink_map(tiny))
        rep = numeric_prox(fs, tiny * np.array([1.0, -2.0, 0.5]), tol=0.0)
        assert not rep.converged and rep.iterations == 1 and 0.0 < rep.residual < np.inf


def test_numeric_prox_below_float_resolution_fails_at_once():
    from proxframe import FrameShrinkage, example_operator

    # a tol below the rounding term of the first iterate is unreachable: the
    # column stops there, unconverged, with that iterate's finite certificate
    for tol in (0.0, 1e-30):
        rep = euclidean_prox(soft_shrink_map(1.0), np.array([2.0, -0.5]), tol=tol)
        assert not rep.converged and rep.iterations == 1
        assert tol < rep.residual < np.inf
        fs = FrameShrinkage(example_operator(), soft_shrink_map(1.0))
        rep = numeric_prox(fs, np.array([[1.0, 0.3]]), tol=tol)
        assert not rep.converged and rep.iterations == 1
        assert tol < rep.residual < np.inf
    # an all-zero column has nothing to resolve, and lands exactly
    rep = euclidean_prox(soft_shrink_map(1.0), np.zeros(3), tol=0.0)
    assert rep.converged


def test_numeric_prox_rejects_nonfinite_signals_at_once():
    from proxframe import example_shrinkage

    with pytest.raises(ValueError, match="column 0"):
        euclidean_prox(soft_shrink_map(1.0), np.array([np.nan]))
    with pytest.raises(ValueError, match="column 1"):
        numeric_prox(example_shrinkage(), np.array([[1.0, np.inf, 0.5]]))
    with pytest.raises(DimensionMismatch):
        euclidean_prox(soft_shrink_map(1.0), np.zeros((2, 2, 2)))


@pytest.mark.parametrize("spec", ["random:12x5:7", "random:200x100:2"])
def test_numeric_prox_rounding_floor_never_runs_to_max_iter(spec, monkeypatch):
    # thresholds from 1 to 256 ulps of max |Tx|: where the certificate's
    # rounding term exceeds one, the column stops unconverged instead of
    # iterating to the cap, and a column reports converged exactly when its
    # certificate is within tol
    from proxframe import FrameShrinkage

    op = build_operator(load_named_matrix(spec))
    x = np.random.default_rng(7).standard_normal((op.d, 6)) * [0.1, 1.0, 10.0, 0.1, 1.0, 10.0]
    ulp = np.finfo(float).eps * np.max(np.abs(op.matrix @ x))
    monkeypatch.setattr(shrinkage, "_MAX_ITER", 2000)
    for lam in (0.1, 1.0, 10.0):
        fs = FrameShrinkage(op, soft_shrink_map(lam))
        for k in (1, 1.5, 2, 4, 16, 64, 256):
            rep = numeric_prox(fs, x, tol=k * ulp)
            assert rep.iterations < 2000, (lam, k, rep.residual)
            assert rep.converged == (rep.residual <= k * ulp)


@pytest.mark.parametrize("spec", ["example35", "random:12x5:3", "random:30x12:2", "random:200x100:2"])
@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_numeric_prox_is_pinv_of_the_inner_prox_at_tx(spec, lam):
    # the T-metric oracle is the Euclidean prox of the inner function at T x,
    # mapped back by T^+: the same iterates and the same stop, bit for bit
    from proxframe import FrameShrinkage

    op = build_operator(load_named_matrix(spec))
    x = np.random.default_rng(5).standard_normal((op.d, 9)) * np.repeat([0.1, 1.0, 10.0], 3)
    fs = FrameShrinkage(op, soft_shrink_map(lam))
    rep = numeric_prox(fs, x)
    euclidean = euclidean_prox(fs.inner_prox, op.matrix @ x)
    np.testing.assert_array_equal(rep.minimizer, op.pinv @ euclidean.minimizer)
    assert (rep.iterations, rep.converged) == (euclidean.iterations, euclidean.converged)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_operator(load_named_matrix("random:12x5:7")),
        lambda: build_operator(load_named_matrix("random:200x100:2")),
        lambda: random_operator(9, 2, np.random.default_rng(3), cond=1e3),
        lambda: random_operator(60, 30, np.random.default_rng(4), cond=1e3),
    ],
    ids=["random:12x5:7", "random:200x100:2", "9x2-cond1e3", "60x30-cond1e3"],
)
def test_numeric_prox_converges_sixteen_ulps_above_its_terms(make):
    # the certificate is a ninth of a forward-backward step plus 1 ulp of
    # ||z|| + ||T x||, with z tending to S(T x): a tol of 16 ulps of the
    # largest column's terms is above it on every operator, however far
    # T^+ T is from I in the last bits
    from proxframe import FrameShrinkage

    op = make()
    x = np.random.default_rng(7).standard_normal((op.d, 6)) * [0.1, 1.0, 10.0, 0.1, 1.0, 10.0]
    tx = op.matrix @ x
    norms = lambda a: np.sqrt(np.sum(a * a, axis=0))
    for lam in (0.1, 1.0, 10.0):
        s = soft_shrink(tx, lam)
        tol = 16 * np.finfo(float).eps * np.max(norms(tx) + norms(s) + norms(tx - s))
        rep = numeric_prox(FrameShrinkage(op, soft_shrink_map(lam)), x, tol=tol)
        assert rep.converged, (lam, tol, rep.residual, rep.iterations)


@pytest.mark.parametrize("shape", [(7, 1), (1, 40), (12, 30), (200, 17)])
@pytest.mark.parametrize("pm", [soft_shrink_map(0.1), soft_shrink_map(1.0), soft_shrink_map(10.0),
                                identity_map()], ids=["soft0.1", "soft1", "soft10", "identity"])
@pytest.mark.parametrize("tol", [1e-9, 1e-13])
def test_numeric_prox_columns_do_not_depend_on_the_block(shape, pm, tol):
    # each column's result is its own first certified iterate, so a column
    # of a mixed-scale block is bit for bit its single-column solve; at tol
    # 1e-13 the large columns stop unconverged instead, once their rounding
    # term exceeds tol. A zero column certifies at iteration 1 and the
    # others later (the identity's at iteration 2), so a block always stops
    # columns at more than one iteration.
    # The T-metric oracle is this one at T x, mapped back by T^+ (pinned
    # above); BLAS may round those products differently at another column
    # count, so blocks are compared here in the Euclidean metric
    rng = np.random.default_rng(11)
    k = shape[1]
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=k)
    x = np.hstack([x, np.zeros((shape[0], 1))])
    block = euclidean_prox(pm, x, tol=tol)
    singles = [euclidean_prox(pm, x[:, j], tol=tol) for j in range(k + 1)]
    for j, rep in enumerate(singles):
        np.testing.assert_array_equal(block.minimizer[:, j], rep.minimizer)
    assert block.converged == all(rep.converged for rep in singles)
    assert block.iterations == max(rep.iterations for rep in singles)
    if k > 1:
        assert len({rep.iterations for rep in singles}) > 1
    if tol == 1e-13 and k > 1:
        assert {rep.converged for rep in singles} == {True, False}


def test_numeric_prox_column_does_not_depend_on_when_its_block_mates_stop():
    # in [0, x] the zero column stops at iteration 1 and x at 2, in [x, x]
    # both stop at 2; the block keeps its width throughout, so x's minimizer
    # and certificate are the same bits in both, at every scale
    from proxframe import FrameShrinkage

    fs = FrameShrinkage(build_operator(load_named_matrix("random:200x100:2")), soft_shrink_map(1.0))
    xs = np.random.default_rng(3).standard_normal((100, 40)) * np.resize([0.1, 1.0, 10.0], 40)
    for j, x in enumerate(xs.T):
        mixed = numeric_prox(fs, np.column_stack([np.zeros(100), x]), tol=1e-7)
        paired = numeric_prox(fs, np.column_stack([x, x]), tol=1e-7)
        assert mixed.converged and mixed.iterations == 2, j
        np.testing.assert_array_equal(mixed.minimizer[:, 1], paired.minimizer[:, 1])
        assert mixed.residual == paired.residual, j


@pytest.mark.parametrize("pm", [soft_shrink_map(1.0), identity_map()], ids=["soft1", "identity"])
def test_numeric_prox_regression_certifies_in_two_iterations(pm):
    # soft shrinkage and the identity are positively homogeneous, so the
    # first relaxed step lands on the prox: the CLI regression's 100 samples
    # certify at tol 1e-7 at iteration 2, for both alike
    from proxframe import FrameShrinkage

    op = build_operator(load_named_matrix("random:200x100:2"))
    x = run_samples(5, 100, 100)[0]
    rep = numeric_prox(FrameShrinkage(op, pm), x, tol=1e-7)
    assert rep.converged and rep.iterations <= 2, rep.iterations


@pytest.mark.parametrize("tol", [1e-9, 1e-13])
@pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
def test_numeric_prox_lands_on_a_homogeneous_prox_outside_the_catalog(lam, tol):
    # block soft thresholding is positively homogeneous and not separable:
    # the first relaxed step lands on it, and every column certifies by
    # iteration 2 within tol of v max(0, 1 - lam / ||v||); the columns
    # inside the ball map to 0 and certify at iteration 1
    x = np.random.default_rng(1).standard_normal((5, 20)) * 3
    rep = euclidean_prox(block_soft_map(lam), x, tol=tol)
    exact = x * np.maximum(0.0, 1.0 - lam / np.linalg.norm(x, axis=0))
    assert rep.converged and rep.iterations == 2
    assert np.max(np.linalg.norm(rep.minimizer - exact, axis=0)) <= tol


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 100.0])
def test_numeric_prox_converges_on_a_prox_that_is_not_homogeneous(lam, tol):
    # v / (1 + t lam), the prox of (lam/2) ||.||^2, is not positively
    # homogeneous, so the relaxed step does not land at once; it contracts
    # by at most (1 - t)/t = 1/9, which bounds every column's iterations:
    # with z_0 = 0, iteration n's step term is at most (2 - t) (1/9)^n ||p||
    # and stops it once within tol / 2, its rounding term being far below.
    # The relaxed step's slope in z is -(1 - t) lam / (1 + t lam): -1/110 at
    # lam 0.1 and -1/9.1 at lam 100, so both ends of the range are pinned;
    # no call takes more than 16 iterations, the unrelaxed step's worst case
    t = shrinkage._STEP
    quadratic = ProxMap(name="quadratic", lam=lam, prox=lambda v, s=1.0: v / (1.0 + lam * s))
    x = np.random.default_rng(0).standard_normal((8, 25)) * 3
    exact = x / (1.0 + lam)
    for j in range(x.shape[1]):
        rep = euclidean_prox(quadratic, x[:, j], tol=tol)
        p_norm = np.linalg.norm(exact[:, j])
        bound = int(np.ceil(np.log(tol / (2.0 * (2.0 - t) * p_norm)) / np.log((1.0 - t) / t)))
        assert rep.converged and rep.iterations <= min(bound, 16), (j, rep.iterations, bound)
        assert np.linalg.norm(rep.minimizer - exact[:, j]) <= tol


def test_numeric_prox_metric_flagship():
    # given a shrinkage, the oracle minimizes over the regularizer it
    # induces by composing the inner prox with the operator
    from proxframe import FrameShrinkage, example_operator, example_regularizer_closed_form

    op = example_operator()
    rep = numeric_prox(FrameShrinkage(op, soft_shrink_map(1.0)), np.array([1.0]), tol=1e-9)
    assert rep.converged
    y = rep.minimizer
    assert abs(y[0] - 0.4) <= 1e-8
    # 1/2 ||T(x - y)||^2 + f(y) = 2.5 * 0.36 + f(0.4) = 0.9 + 1.1
    value = 0.5 * np.sum((op.matrix @ (1.0 - y)) ** 2) + example_regularizer_closed_form(y[0])
    assert np.isclose(value, 2.0, atol=1e-7)


def test_numeric_prox_metric_type_errors():
    # the operator comes from the shrinkage: anything else, its own
    # regularizer and a bare ProxMap included, is refused
    from proxframe import FrameShrinkage, InducedRegularizer, example_operator

    fs = FrameShrinkage(example_operator(), soft_shrink_map(1.0))
    assert numeric_prox(fs, np.array([[1.0, -0.3]]), tol=1e-9).converged
    with pytest.raises(TypeError, match="expects a FrameShrinkage"):
        numeric_prox(InducedRegularizer(fs), np.array([1.0]))
    with pytest.raises(TypeError):
        numeric_prox(lambda v: v, np.array([1.0]))
    with pytest.raises(TypeError):
        numeric_prox(object(), np.array([1.0]))
    with pytest.raises(TypeError):
        numeric_prox(soft_shrink_map(1.0), np.array([1.0]))


def test_solve_report_json_shape():
    rep = euclidean_prox(soft_shrink_map(1.0), np.array([2.0]), tol=1e-10)
    doc = json.loads(rep.to_json())
    assert list(doc) == ["minimizer", "objective", "iterations", "converged"]


def test_solve_report_objective_none_without_function():
    # the oracle reports no objective, for a ProxMap without ``function`` and
    # for the catalog maps alike
    bare = ProxMap(name="bare_soft", lam=1.0, prox=lambda v, t=1.0: soft_shrink(v, t))
    for pm in (bare, soft_shrink_map(1.0), identity_map()):
        rep = euclidean_prox(pm, np.array([2.0]), tol=1e-10)
        assert rep.converged
        assert rep.objective is None
        assert rep.to_dict()["objective"] is None


def test_solve_report_nan_objective_is_null():
    # JSON has no NaN, so an objective that is NaN serializes as null
    rep = SolveReport(minimizer=np.zeros(2), objective=np.nan, iterations=3, residual=0.0,
                      converged=False)
    assert rep.to_dict()["objective"] is None
    assert json.loads(rep.to_json())["objective"] is None
    assert '"objective": null' in rep.to_json()


def test_prox_map_eval_is_unit_scale_prox():
    pm = soft_shrink_map(0.5)
    x = np.array([1.0, -0.2, 0.7])
    np.testing.assert_array_equal(pm(x), pm.prox(x, 1.0))
    np.testing.assert_array_equal(pm.prox(x, 2.0), soft_shrink(x, 1.0))
    np.testing.assert_allclose(pm.breakpoint_gap(x), [0.5, 0.3, 0.2], atol=1e-15)
