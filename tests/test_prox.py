import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxframe import (
    DimensionMismatch,
    NonPositiveLambda,
    ProxMap,
    build_operator,
    huber_envelope,
    identity_map,
    numeric_prox,
    shrink_potential,
    soft_shrink,
    soft_shrink_map,
    verify_firm_nonexpansive,
    verify_moreau_characterization,
)
from proxframe.prox import _central_diff
from support import central_diff, golden_section

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
    rep = verify_moreau_characterization(pm, pm.potential, dim=3, trials=300, tol=1e-6)
    assert rep.passed


def test_moreau_characterization_identity():
    pm = identity_map()
    rep = verify_moreau_characterization(pm, pm.potential, dim=3, trials=300, tol=1e-6)
    assert rep.passed


def test_moreau_characterization_wrong_potential_fails():
    pm = soft_shrink_map(1.0)
    l1 = lambda v: np.sum(np.abs(v), axis=0)
    rep = verify_moreau_characterization(pm, l1, dim=3, trials=300, tol=1e-6)
    assert not rep.passed


def test_moreau_characterization_scalar_potential_raises():
    # the potential is evaluated on blocks of shifted points and must return
    # one value per column; a total over the whole block is refused by shape
    pm = soft_shrink_map(1.0)
    l1 = lambda v: float(np.sum(np.abs(v)))
    with pytest.raises(ValueError, match=r"shape \(\)"):
        verify_moreau_characterization(pm, l1, dim=3, trials=5, tol=1e-6)


@pytest.mark.parametrize("pm", [soft_shrink_map(0.3), identity_map()], ids=["soft", "identity"])
@pytest.mark.parametrize("dim", [1, 7, 8, 9, 31, 32, 33, 64, 129, 400])
def test_block_central_diff_is_bit_identical(pm, dim):
    # the block evaluation must give the very bits of one potential call per
    # shifted point; a C-ordered block sums its columns in another order
    rng = np.random.default_rng(dim)
    for scale in (0.1, 1.0, 10.0):
        x = scale * rng.standard_normal(dim)
        assert np.array_equal(_central_diff(pm.potential, x), central_diff(pm.potential, x))


def test_numeric_prox_euclidean_matches_soft():
    rep = numeric_prox(soft_shrink_map(1.0), np.array([2.0]), tol=1e-10)
    assert rep.converged
    assert abs(rep.minimizer[0] - 1.0) <= 1e-8
    assert np.isclose(rep.objective, 1.5, atol=1e-8)


def test_numeric_prox_zero_function_is_identity():
    x = np.array([3.0, -1.0, 0.2])
    rep = numeric_prox(identity_map(), x, tol=1e-12)
    np.testing.assert_allclose(rep.minimizer, x, atol=1e-10)


def test_numeric_prox_componentwise_random(rng):
    lam = 0.6
    tol = 1e-9
    x = rng.standard_normal(8) * 3
    rep = numeric_prox(soft_shrink_map(lam), x, tol=tol)
    np.testing.assert_allclose(rep.minimizer, soft_shrink(x, lam), atol=10 * tol)


@pytest.mark.parametrize("lam", [0.1, 0.6, 1.0, 3.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
def test_numeric_prox_euclidean_within_tol_of_closed_form(rng, lam, tol):
    # a converged Euclidean oracle lands within tol of soft shrinkage, signal
    # by signal and as one column block
    xs = rng.standard_normal((8, 25)) * 3
    for x in xs.T:
        rep = numeric_prox(soft_shrink_map(lam), x, tol=tol)
        assert rep.converged
        assert np.max(np.abs(rep.minimizer - soft_shrink(x, lam))) <= tol
    block = numeric_prox(soft_shrink_map(lam), xs, tol=tol)
    assert block.converged and block.objective.shape == (25,)
    assert np.max(np.abs(block.minimizer - soft_shrink(xs, lam))) <= tol


def test_numeric_prox_not_converged_flag():
    rep = numeric_prox(soft_shrink_map(1.0), np.array([2.0]), tol=1e-14, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_numeric_prox_below_float_resolution_fails_at_once():
    from proxframe import FrameShrinkage, InducedRegularizer, example_operator

    for tol in (0.0, 1e-30):
        rep = numeric_prox(soft_shrink_map(1.0), np.array([2.0, -0.5]), tol=tol)
        assert not rep.converged and rep.iterations == 0
        fs = FrameShrinkage(example_operator(), soft_shrink_map(1.0))
        reg = InducedRegularizer.from_shrinkage(fs)
        rep = numeric_prox(reg, np.array([[1.0, 0.3]]), metric=fs.metric, tol=tol)
        assert not rep.converged and rep.iterations == 0
    # an all-zero column has nothing to resolve, and lands exactly
    rep = numeric_prox(soft_shrink_map(1.0), np.zeros(3), tol=0.0)
    assert rep.converged


def test_numeric_prox_metric_flagship():
    # with a metric, the oracle minimizes over the regularizer induced by
    # composing the inner prox with the operator
    from proxframe import FrameShrinkage, InducedRegularizer, example_operator

    fs = FrameShrinkage(example_operator(), soft_shrink_map(1.0))
    reg = InducedRegularizer.from_shrinkage(fs)
    rep = numeric_prox(reg, np.array([1.0]), metric=fs.metric, tol=1e-9)
    assert rep.converged
    assert abs(rep.minimizer[0] - 0.4) <= 1e-8
    assert np.isclose(rep.objective, 2.0, atol=1e-7)  # 2.5 * 0.36 + f(0.4) = 0.9 + 1.1


def test_numeric_prox_metric_type_errors():
    from proxframe import FrameShrinkage, TMetric, example_operator

    fs = FrameShrinkage(example_operator(), soft_shrink_map(1.0))
    with pytest.raises(TypeError):
        numeric_prox(lambda v: v, np.array([1.0]), metric=fs.metric)
    other = TMetric(build_operator(np.eye(2)))
    with pytest.raises(DimensionMismatch):
        numeric_prox(fs, np.array([1.0, 2.0]), metric=other)
    with pytest.raises(TypeError):
        numeric_prox(object(), np.array([1.0]))


def test_solve_report_json_shape():
    rep = numeric_prox(soft_shrink_map(1.0), np.array([2.0]), tol=1e-10)
    doc = json.loads(rep.to_json())
    assert list(doc) == ["minimizer", "objective", "iterations", "converged"]


def test_prox_map_eval_is_unit_scale_prox():
    pm = soft_shrink_map(0.5)
    x = np.array([1.0, -0.2, 0.7])
    np.testing.assert_array_equal(pm(x), pm.prox(x, 1.0))
    np.testing.assert_array_equal(pm.prox(x, 2.0), soft_shrink(x, 1.0))
    np.testing.assert_allclose(pm.breakpoint_gap(x), [0.5, 0.3, 0.2], atol=1e-15)
