import numpy as np
import pytest

from unisafe import (
    ConstraintParams,
    FeasibilityStatus,
    ScaledParams,
    find_interior_point,
    margins,
    scale_params,
)


def test_margins_ignores_input_when_gradient_zero():
    p = ConstraintParams(np.array([-1.0]), np.array([[0.0]]))
    assert margins(p, np.array([5.0])) == pytest.approx([-1.0])


def test_margins_at_origin_returns_offsets():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    np.testing.assert_allclose(margins(p, np.zeros(1)), [-1.0, -1.0])


def test_margins_hand_dot_product():
    p = ConstraintParams(np.array([0.0]), np.array([[1.0, 0.0]]))
    assert margins(p, np.array([-2.0, 7.0])) == pytest.approx([-2.0])


def test_margins_dimension_mismatch_raises():
    p = ConstraintParams(np.array([0.0]), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        margins(p, np.array([1.0]))


def test_constraint_params_rejects_nonfinite():
    with pytest.raises(ValueError):
        ConstraintParams(np.array([np.nan]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        ConstraintParams(np.array([1.0]), np.array([[np.inf]]))


def test_constraint_params_shape_validation():
    with pytest.raises(ValueError):
        ConstraintParams(np.array([1.0, 2.0]), np.array([[1.0]]))


def test_scaled_params_rejects_out_of_box():
    base = ConstraintParams(np.array([-2.0]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        ScaledParams(base, 0.5)


def test_scaled_params_rejects_bad_r():
    base = ConstraintParams(np.array([-0.5]), np.array([[0.5]]))
    with pytest.raises(ValueError):
        ScaledParams(base, 1.5)
    with pytest.raises(ValueError):
        ScaledParams(base, -0.1)


def test_find_interior_point_symmetric_strip():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    out = find_interior_point(p)
    assert out.status is FeasibilityStatus.FEASIBLE
    cert = out.certificate
    assert cert.margin < 0
    assert np.max(margins(p, cert.interior_point)) == cert.margin


def test_find_interior_point_contradictory_halfspaces():
    # u < -1 and u > 1 cannot hold together.
    p = ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]]))
    out = find_interior_point(p)
    assert out.status is FeasibilityStatus.INFEASIBLE
    assert not out
    assert out.certificate is None


def test_find_interior_point_single_halfspace_two_inputs():
    p = ConstraintParams(np.array([0.0]), np.array([[1.0, 0.0]]))
    out = find_interior_point(p)
    assert out
    assert np.max(margins(p, out.certificate.interior_point)) < 0


def test_certificate_margin_matches_exact_margins():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        p = ConstraintParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, m)))
        out = find_interior_point(p)
        if out:
            mg = margins(p, out.certificate.interior_point)
            assert np.all(mg < 0)
            assert np.max(mg) == pytest.approx(out.certificate.margin, abs=0)


def test_single_nondegenerate_halfspace_never_infeasible():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = rng.uniform(-10, 10)
        b = rng.uniform(-10, 10, int(rng.integers(1, 4)))
        if np.linalg.norm(b) < 1e-12:
            continue
        out = find_interior_point(ConstraintParams(np.array([a]), b[None, :]))
        assert out.status is FeasibilityStatus.FEASIBLE


def test_scale_params_identity_inside_unit_box():
    p = ConstraintParams(np.array([-0.5, 0.25]), np.array([[0.3], [-0.4]]))
    q, M = scale_params(p)
    assert M == 1.0
    assert q.r == 1.0
    np.testing.assert_array_equal(q.base.a, p.a)
    np.testing.assert_array_equal(q.base.b, p.b)


def test_scale_params_hand_example():
    p = ConstraintParams(np.array([-4.0]), np.array([[2.0]]))
    q, M = scale_params(p)
    assert M == 4.0
    assert q.base.a[0] == pytest.approx(-1.0)
    assert q.base.b[0, 0] == pytest.approx(0.5)
    assert q.r == pytest.approx(1.0 / 16.0)


def test_scale_params_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = ConstraintParams(rng.uniform(-9, 9, 3), rng.uniform(-9, 9, (3, 2)))
        q, _ = scale_params(p)
        q2, M2 = scale_params(q.base)
        assert M2 == 1.0
        np.testing.assert_array_equal(q2.base.a, q.base.a)


def test_margin_signs_invariant_under_scaling():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = ConstraintParams(rng.uniform(-5, 5, 4), rng.uniform(-5, 5, (4, 3)))
        q, _ = scale_params(p)
        u = rng.uniform(-3, 3, 3)
        np.testing.assert_array_equal(
            np.sign(margins(p, u)), np.sign(margins(q.base, u))
        )


def test_feasibility_decision_survives_scaling():
    # The finder normalizes internally, so an instance and its rescaling
    # must always agree.
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        p = ConstraintParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, m)))
        q, _ = scale_params(p)
        assert bool(find_interior_point(p)) == bool(find_interior_point(q.base))


def test_surrogate_matches_scipy_bit_for_bit():
    # The search's smooth max follows scipy.special's logsumexp and
    # softmax operation for operation, so its descent path is scipy's.
    from scipy.special import logsumexp, softmax

    from unisafe.params import _surrogate

    rng = np.random.default_rng(3)
    for trial in range(2000):
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        b = rng.normal(size=(n, m))
        u = rng.normal(size=m)
        if n > 1 and trial % 3 == 0:
            # Ties for the largest margin: rows that repeat the top one.
            top = int(np.argmax(a + b @ u))
            tied = rng.integers(0, n, int(rng.integers(1, n)))
            a[tied], b[tied] = a[top], b[top]
        p = ConstraintParams(a, b)
        for beta in (1.0, 10.0, 100.0):
            value, grad = _surrogate(p, u, beta)
            z = beta * (p.a + p.b @ u)
            assert value == logsumexp(z) / beta
            np.testing.assert_array_equal(grad, softmax(z) @ p.b)
