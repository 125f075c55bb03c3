import json
import re

import numpy as np
import pytest

from proxframe import (
    DimensionMismatch,
    FrameShrinkage,
    InducedRegularizer,
    RankDeficient,
    build_operator,
    load_matrix_csv,
    load_matrix_json,
    random_operator,
    soft_shrink_map,
    verify_firm_nonexpansive,
    verify_moreau_characterization,
    verify_operator_identities,
    verify_prox_identity,
    verify_t_firm_nonexpansive,
    weaker_regularizer_check,
)
from proxframe.cli import load_named_matrix
from support import save_matrix_csv, save_matrix_json, t_gradient, t_inner


def test_build_one_two_column():
    op = build_operator([[1.0], [2.0]])
    assert op.n == 2 and op.d == 1
    np.testing.assert_allclose(op.pinv, [[0.2, 0.4]], rtol=1e-13)
    np.testing.assert_allclose(op.frame_bounds, (5.0, 5.0), rtol=1e-13)


def test_build_identity():
    op = build_operator(np.eye(3))
    np.testing.assert_allclose(op.pinv, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(op.frame_bounds, (1.0, 1.0), atol=1e-14)


def test_build_padded_identity():
    op = build_operator([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(op.pinv, [[1, 0, 0], [0, 1, 0]], atol=1e-14)


def test_rank_deficient_rejected():
    with pytest.raises(RankDeficient):
        build_operator([[1.0, 2.0], [2.0, 4.0]])


@pytest.mark.parametrize(
    "bad",
    [np.ones((2, 3)), np.array([1.0, 2.0]), np.array([[np.inf], [1.0]]), np.zeros((2, 0))],
)
def test_build_validation(bad):
    with pytest.raises(ValueError):
        build_operator(bad)


def test_build_rejects_bad_rank_tol():
    # the relative rank cutoff sigma_min <= 1e-10 sigma_max is fixed, not an option
    with pytest.raises(TypeError):
        build_operator(np.eye(2), rank_tol=0.0)
    with pytest.raises(RankDeficient):
        build_operator(np.diag([1.0, 1e-10]))
    assert build_operator(np.diag([1.0, 2e-10])).d == 2


def test_t_inner_examples():
    m = build_operator([[1.0], [2.0]])
    assert np.isclose(t_inner(m, [1.0], [1.0]), 5.0, rtol=1e-14)
    assert t_inner(m, [0.0], [3.0]) == 0.0
    m2 = build_operator(np.eye(2))
    assert np.isclose(t_inner(m2, [1.0, 2.0], [3.0, 4.0]), 11.0, rtol=1e-14)
    with pytest.raises(DimensionMismatch):
        t_inner(m2, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_t_inner_blocks(rng):
    # one inner product per column of a (d, k) block; a vector gives a float
    op = build_operator(rng.standard_normal((6, 3)))
    for k in (1, 2, 6):
        x, y = rng.standard_normal((3, k)), rng.standard_normal((3, k))
        got = t_inner(op, x, y)
        assert got.shape == (k,)
        expected = [float((op.matrix @ x[:, j]) @ (op.matrix @ y[:, j])) for j in range(k)]
        np.testing.assert_allclose(got, expected, rtol=1e-13)
    assert type(t_inner(op, x[:, 0], y[:, 0])) is float
    with pytest.raises(DimensionMismatch):
        t_inner(op, np.ones((3, 2)), np.ones((3, 6)))


def test_t_gradient_examples():
    m = build_operator([[1.0], [2.0]])
    np.testing.assert_allclose(t_gradient(m, [5.0]), [1.0], rtol=1e-13)
    m2 = build_operator(np.eye(4))
    v = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(t_gradient(m2, v), v, atol=1e-14)
    m3 = build_operator([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(t_gradient(m3, [4.0, 3.0]), [1.0, 3.0], rtol=1e-13)
    with pytest.raises(DimensionMismatch):
        t_gradient(m3, [1.0, 2.0, 3.0])


def test_t_gradient_represents_euclidean_derivative(rng):
    # <t_gradient(g), h>_T must equal <g, h> for every direction h
    for _ in range(20):
        op = build_operator(rng.standard_normal((7, 4)))
        g = rng.standard_normal(4)
        h = rng.standard_normal(4)
        lhs = t_inner(op, t_gradient(op, g), h)
        assert np.isclose(lhs, g @ h, rtol=1e-9, atol=1e-12)


def test_norm_equivalence(rng):
    for _ in range(20):
        op = random_operator(8, 5, rng, cond=rng.uniform(1, 100))
        s_min, s_max = np.sqrt(op.frame_bounds)
        x = rng.standard_normal(5) * 10 ** rng.uniform(-1, 1)
        nx = np.linalg.norm(x)
        nt = np.sqrt(t_inner(op, x, x))
        assert nt / s_max <= nx * (1 + 1e-12)
        assert nx <= nt / s_min * (1 + 1e-12)


def test_frame_bounds_attained_on_singular_vectors(rng):
    op = random_operator(9, 4, rng, cond=50)
    a, b = op.frame_bounds
    vt = np.linalg.svd(op.matrix)[2]
    v_min, v_max = vt[-1], vt[0]
    assert np.isclose(np.sum((op.matrix @ v_min) ** 2), a, rtol=1e-10)
    assert np.isclose(np.sum((op.matrix @ v_max) ** 2), b, rtol=1e-10)


def test_tight_frame_norm_identity(rng):
    op = build_operator([[1.0], [2.0]])
    for x in rng.standard_normal(50) * 10:
        assert np.isclose(np.sum((op.matrix @ [x]) ** 2), 5 * x * x, rtol=1e-13)


def test_verify_identities_random_gaussian(rng):
    rep = verify_operator_identities(build_operator(rng.standard_normal((6, 3))), tol=1e-10)
    assert rep.passed
    assert rep.trials == 100


@pytest.mark.parametrize("trials", [0, -4])
def test_verify_identities_rejects_nonpositive_trials(trials):
    # every sampled check runs through one driver, which owns this rule
    op = build_operator(np.array([[1.0], [2.0]]))
    fs = FrameShrinkage(op, soft_shrink_map(1.0))
    reg = InducedRegularizer(fs)
    prox = fs.inner_prox
    checks = [
        lambda: verify_operator_identities(build_operator(np.eye(3)), trials=trials),
        lambda: verify_firm_nonexpansive(prox, dim=2, trials=trials, tol=1e-12),
        lambda: verify_moreau_characterization(prox, dim=2, trials=trials, tol=1e-6),
        lambda: verify_t_firm_nonexpansive(fs, trials=trials, tol=1e-12),
        lambda: verify_prox_identity(fs, reg, trials=trials, tol=1e-6),
        lambda: weaker_regularizer_check(reg, trials=trials),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check()


def test_verify_identities_identity_is_exact():
    rep = verify_operator_identities(build_operator(np.eye(4)), tol=1e-10)
    assert rep.passed
    assert rep.max_violation == 0.0


def test_verify_report_json_shape():
    rep = verify_operator_identities(build_operator(np.eye(2)), tol=1e-10)
    doc = json.loads(rep.to_json())
    assert list(doc) == ["property", "trials", "max_violation", "tolerance", "pass"]
    assert doc["pass"] is True


def test_operator_arrays_immutable():
    op = build_operator(np.eye(3))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 7.0


def test_random_operator_condition_control(rng):
    op = random_operator(12, 5, rng, cond=1e3)
    s_min, s_max = np.sqrt(op.frame_bounds)
    assert np.isclose(s_max / s_min, 1e3, rtol=1e-8)
    assert np.isclose(s_max, 1.0, rtol=1e-10)


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6])
def test_range_projector_rounding_does_not_grow_with_condition(cond):
    # P = U_d U_d^T from the SVD's orthonormal factor: T T^+ reached
    # P^2 - P of 1.3e3 eps at condition 1e4 and 1.2e5 eps at 1e6, and
    # T^+ - T^+ P of 750 and 4.8e4 eps max|T^+|. P^T - P is 0 where matmul
    # forms U_d U_d^T as a symmetric rank-d update (numpy 2.4); the slack
    # is for older numpy
    eps = np.finfo(float).eps
    for seed in range(10):
        base = random_operator(60, 30, np.random.default_rng(seed), cond).matrix
        for scale in (1e-6, 1.0, 1e6):
            op = build_operator(scale * base)
            t, pinv, proj = op.matrix, op.pinv, op.range_proj
            assert np.max(np.abs(proj @ proj - proj)) <= 16 * eps, (seed, scale)
            assert np.max(np.abs(proj.T - proj)) <= 4 * eps, (seed, scale)
            assert np.max(np.abs(pinv @ t - np.eye(op.d))) <= 16 * eps * cond, (seed, scale)
            assert np.max(np.abs(pinv - pinv @ proj)) <= 32 * eps * np.max(np.abs(pinv)), (seed, scale)


@pytest.mark.parametrize("cond", [1e4, 1e5, 1e6])
def test_verify_identities_pass_on_ill_conditioned_operators(cond):
    # with P = T T^+ all ten failed at 1e4 and 1e5, on T^+ - T^+ P (worst
    # 3.3e-10 and 2.0e-8). That term scales as 1/sigma: measured in absolute
    # terms it still failed all ten at 1e6 (worst 1.9e-10), and random:60x30:1
    # scaled by 1e-6 at 1.60e-10. Relative to max|T^+| the worst is 2.2e-11
    for seed in range(10):
        base = random_operator(60, 30, np.random.default_rng(seed), cond).matrix
        for scale in (1e-6, 1.0, 1e6):
            rep = verify_operator_identities(build_operator(scale * base), 1e-10, 100, 1)
            assert rep.passed, (seed, scale, rep)


def test_verify_identities_do_not_depend_on_the_scale_of_t():
    # random:60x30:1 read 1.60e-10 scaled by 1e-6 and about 1e-15 unscaled
    # while T^+ - T^+ P was measured in absolute terms; now 1.7e-15 at most
    base = load_named_matrix("random:60x30:1")
    for scale in (1e-6, 1.0, 1e6):
        rep = verify_operator_identities(build_operator(scale * base), 1e-10, 100, 1)
        assert rep.max_violation <= 16 * np.finfo(float).eps, (scale, rep)


def test_random_operator_rejects_a_condition_below_1(rng):
    with pytest.raises(ValueError, match="cond"):
        random_operator(4, 2, rng, cond=0.5)


@pytest.mark.parametrize("saver,loader", [(save_matrix_csv, load_matrix_csv),
                                          (save_matrix_json, load_matrix_json)])
def test_matrix_io_roundtrip_bit_exact(tmp_path, rng, saver, loader):
    nasty = np.array([
        [1.0 / 3.0, np.nextafter(1.0, 2.0), -0.0],
        [1e-300, -12345.6789e10, 5.0],
    ])
    mats = [nasty, rng.standard_normal((4, 3)) * 10 ** rng.uniform(-8, 8, (4, 3))]
    for i, m in enumerate(mats):
        path = tmp_path / f"m{i}.dat"
        saver(m, path)
        back = loader(path)
        assert back.shape == m.shape
        assert np.array_equal(back, m)  # bit-exact round trip


def test_matrix_io_malformed(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ValueError):
        load_matrix_csv(ragged)
    bad = tmp_path / "bad.json"
    for doc in (
        '{"rows": 2, "cols": 2, "data": [1, 2, 3]}',
        # rows and cols are JSON integers >= 1, never truncated or coerced
        '{"rows": 2.7, "cols": 1, "data": [1, 2]}',
        '{"rows": true, "cols": 2, "data": [1, 2]}',
        '{"rows": "2", "cols": 1, "data": [1, 2]}',
        '{"rows": 0, "cols": 3, "data": []}',
        # reshape would infer a 3x2 matrix from the -1
        '{"rows": -1, "cols": 2, "data": [1, 2, 3, 4, 5, 6]}',
        '{"rows": 2, "cols": 1}',
        '{"rows": 2, "cols": 1, "data": [[1], [2]]}',
        '{"rows": 2, "cols": 1, "data": {"a": 1}}',
        # numbers only: no string or boolean stands in for one
        '{"rows": 2, "cols": 1, "data": ["1", 2]}',
        '{"rows": 2, "cols": 1, "data": [1, true]}',
        '[1, 2]',
    ):
        bad.write_text(doc)
        with pytest.raises(ValueError):
            load_matrix_json(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_matrix_csv(empty)
    # a value float() refuses names the file and its 1-based line
    bad_csv = tmp_path / "bad.csv"
    for text, line in (("1,2,\n3,4\n", 1), ("1,2\n\n3,x\n", 3), ("1;2\n", 1)):
        bad_csv.write_text(text)
        with pytest.raises(ValueError, match=f"malformed matrix CSV in {re.escape(str(bad_csv))}, line {line}:"):
            load_matrix_csv(bad_csv)
