from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import unisafe.params
from oracles import motzkin_certificate
from unisafe import (
    ConstraintParams,
    FeasibilityStatus,
    NumericError,
    ScaledParams,
    find_interior_point,
    margins,
    scale_params,
)
from unisafe.nn import _draw_instance
from unisafe.params import FEAS_TOL


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


def counted_linprog(monkeypatch):
    calls = []
    real = unisafe.params.linprog

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(unisafe.params, "linprog", counted)
    return calls


def test_closed_form_start_for_independent_rows(monkeypatch):
    # Full row rank with N <= m: every margin of the normalized instance
    # sits at exactly -max(|a_i|, |b_i|), and no LP runs.
    calls = counted_linprog(monkeypatch)
    p = ConstraintParams(np.array([3.0, -0.5]), np.array([[1.0, 2.0, 0.0], [-4.0, 0.5, 1.0]]))
    out = find_interior_point(p)
    assert out and not calls
    q, _ = scale_params(p)
    depth = np.maximum(np.abs(q.base.a), np.linalg.norm(q.base.b, axis=1))
    np.testing.assert_allclose(margins(q.base, out.certificate.interior_point), -depth, rtol=1e-12)


def test_phase_one_certifies_more_rows_than_inputs(monkeypatch):
    # A triangle around (1, 1): three rows, two inputs.
    calls = counted_linprog(monkeypatch)
    p = ConstraintParams(np.array([0.0, 0.0, -3.0]), np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]))
    out = find_interior_point(p)
    assert len(calls) == 1
    assert out.status is FeasibilityStatus.FEASIBLE
    assert out.certificate.margin <= -FEAS_TOL
    assert np.max(margins(p, out.certificate.interior_point)) == out.certificate.margin


def test_phase_one_rejects_dependent_rows(monkeypatch):
    # N = m = 2 but BB^T is singular: u_1 < -1 and u_1 > 1.
    calls = counted_linprog(monkeypatch)
    p = ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [-1.0, 0.0]]))
    out = find_interior_point(p)
    assert len(calls) == 1
    assert out.status is FeasibilityStatus.INFEASIBLE
    assert out.certificate is None
    assert out.best_margin == np.max(margins(p, out.best_point)) > 0.0


def test_phase_one_without_a_point_raises(monkeypatch):
    # The LP is feasible and bounded, so an answer without a point is a
    # solver fault, not an infeasibility verdict.
    failed = SimpleNamespace(x=None, message="numerical difficulties")
    monkeypatch.setattr(unisafe.params, "linprog", lambda *args, **kwargs: failed)
    p = ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]]))
    with pytest.raises(NumericError, match="numerical difficulties"):
        find_interior_point(p)


def assert_finder_matches_oracle(p):
    out = find_interior_point(p)
    lam = motzkin_certificate(p.a, p.b)
    assert bool(out) == (lam is None), (p.a, p.b)
    if lam is not None:
        # Motzkin: lam >= 0, lam != 0, B^T lam = 0 and a^T lam >= 0, exactly.
        a = [Fraction(x) for x in p.a]
        B = [[Fraction(x) for x in row] for row in p.b]
        assert all(x >= 0 for x in lam) and any(x > 0 for x in lam)
        assert all(sum(x * row[c] for x, row in zip(lam, B)) == 0 for c in range(p.input_dim))
        assert sum(x * y for x, y in zip(lam, a)) >= 0
    return bool(out)


def test_finder_matches_exact_oracle_on_2x2_sampler_draws():
    # The sampler's own draws include nearly anti-parallel wedges, whose
    # interior lies far from the origin.
    rng = np.random.default_rng(9)
    for _ in range(20000):
        assert_finder_matches_oracle(_draw_instance(rng, 2, 2).base)


def test_finder_matches_exact_oracle_on_mixed_shapes():
    rng = np.random.default_rng(23)
    kinds = {"feasible": 0, "infeasible": 0, "N > m": 0, "dependent": 0}
    for _ in range(600):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        a = rng.uniform(-2, 2, n)
        b = rng.uniform(-2, 2, (n, m))
        if 1 < n <= m and rng.uniform() < 0.3:
            # A row parallel or anti-parallel to another: BB^T is singular.
            b[-1] = rng.choice([-2.0, -0.5, 0.5, 2.0]) * b[0]
            kinds["dependent"] += 1
        feasible = assert_finder_matches_oracle(ConstraintParams(a, b))
        kinds["feasible" if feasible else "infeasible"] += 1
        kinds["N > m"] += n > m
    assert min(kinds.values()) >= 20, kinds
