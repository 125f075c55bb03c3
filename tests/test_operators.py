import json

import numpy as np
import pytest

from proxframe import (
    DimensionMismatch,
    RankDeficient,
    TMetric,
    build_operator,
    load_matrix_csv,
    load_matrix_json,
    random_operator,
    save_matrix_csv,
    save_matrix_json,
    t_gradient,
    t_inner,
    verify_operator_identities,
)


def test_build_one_two_column():
    op = build_operator([[1.0], [2.0]])
    assert op.n == 2 and op.d == 1
    np.testing.assert_allclose(op.pinv, [[0.2, 0.4]], rtol=1e-13)
    np.testing.assert_allclose(op.frame_bounds, (5.0, 5.0), rtol=1e-13)
    b = op.null_basis[:, 0]
    assert np.isclose(np.linalg.norm(b), 1.0, atol=1e-14)
    assert abs(op.matrix[:, 0] @ b) < 1e-14
    expected_dir = np.array([-2.0, 1.0]) / np.sqrt(5.0)
    assert np.isclose(abs(b @ expected_dir), 1.0, atol=1e-13)


def test_build_identity():
    op = build_operator(np.eye(3))
    np.testing.assert_allclose(op.pinv, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(op.frame_bounds, (1.0, 1.0), atol=1e-14)
    assert op.null_basis.shape == (3, 0)


def test_build_padded_identity():
    op = build_operator([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(op.pinv, [[1, 0, 0], [0, 1, 0]], atol=1e-14)
    assert op.null_basis.shape == (3, 1)
    np.testing.assert_allclose(np.abs(op.null_basis[:, 0]), [0, 0, 1], atol=1e-14)


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
    with pytest.raises(ValueError):
        build_operator(np.eye(2), rank_tol=0.0)


def test_t_inner_examples():
    m = TMetric(build_operator([[1.0], [2.0]]))
    assert np.isclose(t_inner(m, [1.0], [1.0]), 5.0, rtol=1e-14)
    assert t_inner(m, [0.0], [3.0]) == 0.0
    m2 = TMetric(build_operator(np.eye(2)))
    assert np.isclose(t_inner(m2, [1.0, 2.0], [3.0, 4.0]), 11.0, rtol=1e-14)
    with pytest.raises(DimensionMismatch):
        t_inner(m2, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_t_gradient_examples():
    m = TMetric(build_operator([[1.0], [2.0]]))
    np.testing.assert_allclose(t_gradient(m, [5.0]), [1.0], rtol=1e-13)
    m2 = TMetric(build_operator(np.eye(4)))
    v = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(t_gradient(m2, v), v, atol=1e-14)
    m3 = TMetric(build_operator([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(t_gradient(m3, [4.0, 3.0]), [1.0, 3.0], rtol=1e-13)
    with pytest.raises(DimensionMismatch):
        t_gradient(m3, [1.0, 2.0, 3.0])


def test_t_gradient_represents_euclidean_derivative(rng):
    # <t_gradient(g), h>_T must equal <g, h> for every direction h
    for _ in range(20):
        op = random_operator(7, 4, rng)
        metric = TMetric(op)
        g = rng.standard_normal(4)
        h = rng.standard_normal(4)
        lhs = t_inner(metric, t_gradient(metric, g), h)
        assert np.isclose(lhs, g @ h, rtol=1e-9, atol=1e-12)


def test_norm_equivalence(rng):
    for _ in range(20):
        op = random_operator(8, 5, rng, cond=rng.uniform(1, 100))
        metric = TMetric(op)
        s = op.singular_values
        x = rng.standard_normal(5) * 10 ** rng.uniform(-1, 1)
        nx = np.linalg.norm(x)
        nt = metric.norm(x)
        assert nt / s[0] <= nx * (1 + 1e-12)
        assert nx <= nt / s[-1] * (1 + 1e-12)


def test_frame_bounds_attained_on_singular_vectors(rng):
    op = random_operator(9, 4, rng, cond=50)
    a, b = op.frame_bounds
    v_min = op.right_vectors[:, -1]
    v_max = op.right_vectors[:, 0]
    assert np.isclose(np.sum((op.matrix @ v_min) ** 2), a, rtol=1e-10)
    assert np.isclose(np.sum((op.matrix @ v_max) ** 2), b, rtol=1e-10)


def test_tight_frame_norm_identity(rng):
    op = build_operator([[1.0], [2.0]])
    for x in rng.standard_normal(50) * 10:
        assert np.isclose(np.sum((op.matrix @ [x]) ** 2), 5 * x * x, rtol=1e-13)


def test_null_basis_properties(rng):
    op = random_operator(10, 6, rng)
    basis = op.null_basis
    np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-12)
    assert np.max(np.abs(op.matrix.T @ basis)) < 1e-12
    assert np.max(np.abs(op.range_proj @ basis)) < 1e-12


def test_verify_identities_random_gaussian(rng):
    rep = verify_operator_identities(build_operator(rng.standard_normal((6, 3))), tol=1e-10)
    assert rep.passed
    assert rep.trials == 100


@pytest.mark.parametrize("trials", [0, -4])
def test_verify_identities_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify_operator_identities(build_operator(np.eye(3)), trials=trials)


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
    s = op.singular_values
    assert np.isclose(s[0] / s[-1], 1e3, rtol=1e-8)
    assert np.isclose(s[0], 1.0, rtol=1e-10)


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
    bad.write_text('{"rows": 2, "cols": 2, "data": [1, 2, 3]}')
    with pytest.raises(ValueError):
        load_matrix_json(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_matrix_csv(empty)
