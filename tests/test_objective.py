import numpy as np
import pytest

from unisafe import (
    ConstraintParams,
    DomainError,
    ScaledParams,
    eval_J,
    eval_J_scaled,
    evaluate,
    find_interior_point,
    grad_J,
    hess_J,
    scale_params,
)
from unisafe.objective import _evaluate_prepared, _kernel, _prepare, _raw_derivatives, grad_raw, hess_raw


def fd_gradient(f, k, step):
    g = np.zeros_like(k)
    for i in range(k.size):
        e = np.zeros_like(k)
        e[i] = step
        g[i] = (f(k + e) - f(k - e)) / (2 * step)
    return g


def fd_hessian(f, k, step):
    m = k.size
    H = np.zeros((m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = step
        H[:, i] = (fd_gradient(f, k + e, step) - fd_gradient(f, k - e, step)) / (2 * step)
    return 0.5 * (H + H.T)


def hessian_step(p, k):
    """FD step that fits inside the polytope: truncation error scales
    like (step / boundary distance)^2, so cap by the distance."""
    norms = np.linalg.norm(p.b, axis=1)
    active = norms > 1e-12
    dist = (
        np.min(-(p.a + p.b @ k)[active] / norms[active]) if active.any() else np.inf
    )
    return min(1e-4 * (1.0 + float(np.linalg.norm(k))), 2e-3 * dist)


def random_interior_instance(rng, n=None, m=None):
    """A feasible instance with a comfortably interior point.

    Finite differencing needs room: points certified barely inside the
    boundary make the cubic blow-up of the objective swamp the FD
    stencil, so perturb around the minimizer and keep the margin at a
    healthy fraction of its value there.
    """
    from unisafe import solve_exact

    n = n or int(rng.integers(1, 6))
    m = m or int(rng.integers(1, 4))
    while True:
        p = ConstraintParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, m)))
        if not find_interior_point(p):
            continue
        k_star = solve_exact(p).k_star
        worst_at_star = np.max(p.a + p.b @ k_star)
        if worst_at_star > -0.05:
            continue  # thin instance: derivatives too violent for FD stencils
        delta = rng.uniform(-0.3, 0.3, m)
        for _ in range(40):
            k = k_star + delta
            if np.max(p.a + p.b @ k) <= 0.5 * worst_at_star:
                break
            delta *= 0.5
        else:
            k = k_star
        # Euclidean distance from k to the nearest facet; the FD stencil
        # needs to fit well inside it.
        norms = np.linalg.norm(p.b, axis=1)
        active = norms > 1e-12
        if not np.any(active):
            return p, k
        dist = np.min(-(p.a + p.b @ k)[active] / norms[active])
        if dist >= 0.15:
            return p, k


# value oracles, each checked by hand from the definition

def test_value_zero_numerator():
    p = ConstraintParams(np.array([-2.0]), np.array([[0.0]]))
    assert eval_J(p, np.zeros(1)) == 0.0


def test_value_single_term():
    p = ConstraintParams(np.array([-2.0]), np.array([[1.0]]))
    assert eval_J(p, np.zeros(1)) == pytest.approx(0.25)


def test_value_symmetric_pair():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    assert eval_J(p, np.zeros(1)) == pytest.approx(1.0)


def test_scaled_value_with_r_zero():
    base = ConstraintParams(np.array([-1.0]), np.array([[1.0]]))
    q = ScaledParams(base, 0.0)
    assert eval_J_scaled(q, np.zeros(1)) == pytest.approx(0.5)


def test_scaled_with_r_one_equals_plain():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p, k = random_interior_instance(rng)
        q, M = scale_params(p)
        if M > 1.0:
            continue
        assert eval_J_scaled(q, k) == pytest.approx(eval_J(p, k), rel=1e-15)


def test_scaled_objective_carries_normalization_factor():
    # The normalized objective equals the original divided by the
    # normalization constant; the minimizer is what survives unchanged.
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 50:
        p, k = random_interior_instance(rng)
        q, M = scale_params(p)
        if M <= 1.0:
            continue
        assert M * eval_J_scaled(q, k) == pytest.approx(eval_J(p, k), rel=1e-12)
        checked += 1


def test_boundary_point_raises_domain_error():
    p = ConstraintParams(np.array([0.0]), np.array([[1.0]]))
    with pytest.raises(DomainError):
        eval_J(p, np.zeros(1))
    with pytest.raises(DomainError):
        eval_J(p, np.array([1.0]))  # margin +1


def test_gradient_zero_at_symmetric_stationary_point():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    np.testing.assert_allclose(grad_J(p, np.zeros(1)), [0.0], atol=1e-15)


def test_gradient_of_pure_quadratic():
    # A=-1, B=0 makes J = ||k||^2 / 2 exactly.
    p = ConstraintParams(np.array([-1.0]), np.array([[0.0]]))
    assert grad_J(p, np.array([1.0])) == pytest.approx([1.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(60):
        p, k = random_interior_instance(rng)
        g = grad_J(p, k)
        step = 1e-6 * (1.0 + float(np.linalg.norm(k)))
        g_fd = fd_gradient(lambda z: eval_J(p, z), k, step)
        np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-7)


def test_hessian_of_pure_quadratic_is_identity():
    p = ConstraintParams(np.array([-1.0]), np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(hess_J(p, np.array([0.3, -0.2])), np.eye(2), atol=1e-14)


def test_hessian_symmetric_instance_equals_four():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    H = hess_J(p, np.zeros(1))
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(40):
        p, k = random_interior_instance(rng)
        H = hess_J(p, k)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        step = hessian_step(p, k)
        H_fd = fd_hessian(lambda z: eval_J(p, z), k, step)
        np.testing.assert_allclose(H, H_fd, rtol=1e-4, atol=1e-5)


def test_hessian_positive_definite_everywhere_interior():
    # No conditioning filter here: even barely interior points must give
    # a strictly positive spectrum.
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        p = ConstraintParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, m)))
        out = find_interior_point(p)
        if not out:
            continue
        H = hess_J(p, out.best_point)
        assert np.linalg.eigvalsh(H).min() > 0
        checked += 1


def test_scaled_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(40):
        p, k = random_interior_instance(rng)
        q, _ = scale_params(p)
        r_cases = [q, ScaledParams(q.base, 0.0)]
        for qq in r_cases:
            g = grad_J(qq, k)
            step = 1e-6 * (1.0 + float(np.linalg.norm(k)))
            g_fd = fd_gradient(lambda z: eval_J_scaled(qq, z), k, step)
            np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-7)
            H = hess_J(qq, k)
            H_fd = fd_hessian(lambda z: eval_J_scaled(qq, z), k, hessian_step(p, k))
            np.testing.assert_allclose(H, H_fd, rtol=1e-4, atol=1e-5)


def test_blow_up_toward_boundary():
    # J grows along a ray approaching a facet whenever the term numerator
    # is nonzero there.
    p = ConstraintParams(np.array([-1.0]), np.array([[1.0]]))
    direction = np.array([1.0])  # boundary at k = 1
    j_far = eval_J(p, direction * (1 - 1e-2))
    j_near = eval_J(p, direction * (1 - 1e-4))
    assert j_near > j_far
    assert j_near > 100 * j_far / 2


def test_fused_evaluation_consistent_with_pieces():
    rng = np.random.default_rng(10)
    p, k = random_interior_instance(rng)
    ev = evaluate(p, k, order=2)
    assert ev.value == eval_J(p, k)
    np.testing.assert_array_equal(ev.grad, grad_J(p, k))
    np.testing.assert_array_equal(ev.hess, hess_J(p, k))
    np.testing.assert_allclose(ev.margins, p.a + p.b @ k)


def test_evaluate_order_limits_outputs():
    p = ConstraintParams(np.array([-2.0]), np.array([[1.0]]))
    ev = evaluate(p, np.zeros(1), order=0)
    assert ev.grad is None and ev.hess is None
    ev1 = evaluate(p, np.zeros(1), order=1)
    assert ev1.grad is not None and ev1.hess is None


def test_raw_derivatives_match_evaluate_bit_for_bit():
    # grad_raw, hess_raw and evaluate share one formula body; only the
    # domain check and the margin clip differ, and neither acts inside.
    rng = np.random.default_rng(11)
    for _ in range(20):
        p, k = random_interior_instance(rng)
        q, _ = scale_params(p)  # same margins divided by the scale: k stays interior
        for pq in (p, q):
            ev = evaluate(pq, k, order=2)
            np.testing.assert_array_equal(grad_raw(pq, k), ev.grad)
            np.testing.assert_array_equal(hess_raw(pq, k), ev.hess)


def test_raw_derivatives_stay_finite_at_zero_margin():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0, 0.0], [0.0, 0.5]]))
    k = np.array([1.0, 0.0])
    assert (p.a + p.b @ k)[0] == 0.0
    with pytest.raises(DomainError):
        evaluate(p, k)
    assert np.all(np.isfinite(grad_raw(p, k)))
    assert np.all(np.isfinite(hess_raw(p, k)))
    # Margins inside +-1e-100 but not zero: the prepared path's guard must
    # still clamp them, exactly as clamping every margin by hand does.
    for tiny in (3e-101, -3e-101, 0.0):
        q = ScaledParams(ConstraintParams(np.array([-1.0, tiny]), np.array([[1.0, 0.0], [0.0, 0.0]])), 0.5)
        k = np.array([0.5, 0.2])
        d = q.base.a + q.base.b @ k
        assert d[1] == tiny
        _, b, bsq, r = _prepare(q)
        clamped = np.where(np.abs(d) < 1e-100, -1e-100, d)
        _, want_grad, want_hess = _kernel(b, clamped, bsq, k, r, 2, with_value=False)
        grad, hess = _raw_derivatives(_prepare(q), k)
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))
        np.testing.assert_array_equal(grad, want_grad)
        np.testing.assert_array_equal(hess, want_hess)
        np.testing.assert_array_equal(grad_raw(q, k), want_grad)
        np.testing.assert_array_equal(hess_raw(q, k), want_hess)


def seeded_points(rng, n, m):
    """An instance with interior points (its certified start, minimizer and
    points between) and points beyond the boundary along the same lines."""
    from unisafe import solve_exact

    while True:
        p = ConstraintParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, m)))
        found = find_interior_point(p)
        if found:
            break
    start = found.best_point
    k_star = solve_exact(p).k_star
    inside = [start + t * (k_star - start) for t in (0.0, 0.3, 0.7, 1.0)]
    outside = [k_star + t * rng.standard_normal(m) for t in (0.1, 1.0, 10.0, 100.0)]
    return p, inside, outside


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (2, 5), (10, 10)])
def test_prepared_evaluation_matches_evaluate_bit_for_bit(shape):
    # The solver's unchecked evaluation must give evaluate's numbers
    # exactly, and None exactly where evaluate raises DomainError.
    rng = np.random.default_rng(sum(shape))
    inside_seen = outside_seen = 0
    for _ in range(5):
        p, inside, outside = seeded_points(rng, *shape)
        q, _ = scale_params(p)
        for pq in (p, q, ScaledParams(q.base, 0.3)):
            prepared = _prepare(pq)
            for k in inside + outside:
                ev = _evaluate_prepared(prepared, k)
                try:
                    expected = evaluate(pq, k, 2)
                except DomainError:
                    assert ev is None
                    outside_seen += 1
                    continue
                inside_seen += 1
                assert ev.value == expected.value
                for got, want in zip(ev[1:], expected[1:]):
                    np.testing.assert_array_equal(got, want)
    assert inside_seen >= 60 and outside_seen >= 1


def test_kernel_hessian_equals_the_summed_matrix_formula():
    # The kernel assembles the Hessian in place; the three full matrices
    # summed left to right must round to the same numbers.
    rng = np.random.default_rng(12)
    for n, m in [(1, 1), (2, 2), (3, 2), (2, 5), (10, 10)]:
        p, inside, _ = seeded_points(rng, n, m)
        b = p.b
        bsq = np.einsum("ij,ij->i", b, b)
        for r in (1.0, 0.3):
            for k in inside:
                d = p.a + b @ k
                c = bsq + r * float(k @ k)
                inv_sum = float(np.sum(1.0 / d))
                s1 = b.T @ (1.0 / (d * d))
                summed = (
                    -r * inv_sum * np.eye(m)
                    + r * (np.outer(k, s1) + np.outer(s1, k))
                    + b.T @ (b * (-c / d**3)[:, None])
                )
                _, _, hess = _kernel(b, d, bsq, k, r, 2)
                np.testing.assert_array_equal(hess, summed)
