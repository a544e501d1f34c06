import numpy as np
import pytest

from scipy.integrate import LSODA, solve_ivp

import unisafe.solver
from unisafe import (
    ConstraintParams,
    InfeasibleError,
    ScaledParams,
    SolveResult,
    SolveStatus,
    closed_form_1d,
    eval_J,
    evaluate,
    find_interior_point,
    margins,
    scale_params,
    solve_exact,
    solve_gradient_flow,
    u_star,
)
from unisafe.nn import _draw_instance
from unisafe.objective import BOUNDARY_TOL, grad_raw, hess_raw

SQRT2 = np.sqrt(2.0)


def feasible_instance(rng, n=None, m=None, box=2.0):
    n = n or int(rng.integers(1, 6))
    m = m or int(rng.integers(1, 4))
    while True:
        p = ConstraintParams(rng.uniform(-box, box, n), rng.uniform(-box, box, (n, m)))
        if find_interior_point(p):
            return p


# closed form

def test_closed_form_zero_gradient_branch():
    assert closed_form_1d(-1.0, 0.0) == 0.0


def test_closed_form_zero_offset():
    assert closed_form_1d(0.0, 1.0) == pytest.approx(-1.0)


def test_closed_form_reference_value():
    assert closed_form_1d(-1.0, 1.0) == pytest.approx(1.0 - SQRT2, abs=1e-15)


def test_closed_form_infeasible_pair_raises():
    with pytest.raises(InfeasibleError):
        closed_form_1d(1.0, 0.0)


def test_closed_form_is_the_stationary_point():
    # The returned value must zero the 1-term gradient.
    rng = np.random.default_rng(12)
    for _ in range(200):
        A = rng.uniform(-10, 10)
        B = rng.uniform(-10, 10)
        if B == 0.0 and A >= 0:
            continue
        k = closed_form_1d(A, B)
        p = ConstraintParams(np.array([A]), np.array([[B]]))
        assert margins(p, np.array([k]))[0] < 0
        g = evaluate(p, np.array([k]), order=1).grad[0]
        scale = 1.0 + abs(k) + abs(A)
        assert abs(g) <= 1e-6 * scale


# Newton solver

def test_solve_single_halfspace():
    p = ConstraintParams(np.array([-1.0]), np.array([[1.0]]))
    res = solve_exact(p)
    assert res.status is SolveStatus.CONVERGED
    assert res.k_star[0] == pytest.approx(1.0 - SQRT2, abs=1e-9)


def test_solve_symmetric_pair_is_origin():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    res = solve_exact(p)
    assert res.status is SolveStatus.CONVERGED
    assert abs(res.k_star[0]) <= 1e-10
    assert res.objective == pytest.approx(1.0, abs=1e-10)


def test_solve_symmetric_pair_two_inputs():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0, 0.0], [-1.0, 0.0]]))
    res = solve_exact(p)
    np.testing.assert_allclose(res.k_star, [0.0, 0.0], atol=1e-10)


def test_converged_results_have_interior_minimizers():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = feasible_instance(rng)
        res = solve_exact(p)
        assert res.status is SolveStatus.CONVERGED
        assert np.max(margins(p, res.k_star)) < 0
        assert res.grad_norm <= 1e-10


def test_multistart_uniqueness():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = feasible_instance(rng)
        cold = solve_exact(p)
        cert = find_interior_point(p).best_point
        for trial in range(5):
            start = cert + rng.uniform(-0.05, 0.05, cert.size)
            if np.max(margins(p, start)) >= -1e-6:
                continue
            warm = solve_exact(p, warmstart=start)
            assert np.linalg.norm(warm.k_star - cold.k_star) <= 1e-6


def test_minimizer_survives_scaling():
    rng = np.random.default_rng(15)
    for _ in range(50):
        p = feasible_instance(rng, box=5.0)
        q, _ = scale_params(p)
        res_p = solve_exact(p)
        res_q = solve_exact(q)
        assert np.linalg.norm(res_p.k_star - res_q.k_star) <= 1e-8


def test_infeasible_instance_raises():
    p = ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]]))
    with pytest.raises(InfeasibleError):
        solve_exact(p)


@pytest.mark.parametrize("solve", [solve_exact, solve_gradient_flow], ids=lambda f: f.__name__)
def test_r_zero_rank_deficient_is_degenerate(solve):
    base = ConstraintParams(np.array([-1.0]), np.array([[0.5, 0.0]]))
    res = solve(ScaledParams(base, 0.0))
    assert res.status is SolveStatus.DEGENERATE
    assert res.iterations == 0 and np.isnan(res.k_star).all()


@pytest.mark.parametrize("solve", [solve_exact, solve_gradient_flow], ids=lambda f: f.__name__)
def test_degenerate_test_precedes_feasibility_search(solve):
    # u_1 < -1 and u_1 > 1 with r = 0 and two inputs: both degenerate and
    # infeasible.  The degeneracy test runs first, so no InfeasibleError.
    base = ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert not find_interior_point(base)
    assert solve(ScaledParams(base, 0.0)).status is SolveStatus.DEGENERATE


def test_r_zero_spanning_rows_solves():
    base = ConstraintParams(
        np.array([-1.0, -1.0]), np.array([[0.5, 0.0], [0.0, 0.5]])
    )
    res = solve_exact(ScaledParams(base, 0.0))
    assert res.status is SolveStatus.CONVERGED
    assert np.max(margins(base, res.k_star)) < 0


def test_exterior_warmstart_is_interiorized():
    p = ConstraintParams(np.array([-1.0]), np.array([[1.0]]))
    res = solve_exact(p, warmstart=np.array([50.0]))  # margin +49
    assert res.status is SolveStatus.CONVERGED
    assert res.k_star[0] == pytest.approx(1.0 - SQRT2, abs=1e-9)


def test_projected_warmstart_is_centered():
    # A start outside the polytope is not used: the solve starts at the
    # feasibility search's point, as a cold solve does, and over this
    # sweep warm and cold both take a median of 6 Newton iterations.  The
    # bound and the name date from when such starts were projected near a
    # facet and then centred (median 11, centering steps counted).
    rng = np.random.default_rng(21)
    counts = []
    for _ in range(100):
        p = feasible_instance(rng, 2, 2)
        cold = solve_exact(p)
        row = p.b[0]
        outside = cold.k_star + (1.0 - margins(p, cold.k_star)[0]) * row / (row @ row)
        assert margins(p, outside)[0] > 0.0
        warm = solve_exact(p, warmstart=outside)
        assert warm.status is SolveStatus.CONVERGED
        assert np.linalg.norm(warm.k_star - cold.k_star) <= 1e-6
        counts.append(warm.iterations)
    assert np.median(counts) <= 16


def _relative_margin(p, k):
    row_scale = np.maximum(np.abs(p.a), np.linalg.norm(p.b, axis=1))
    return float(np.max(margins(p, k) / row_scale))


@pytest.mark.parametrize("n, m, seed", [(2, 2, 23), (4, 3, 24)])
def test_unusable_warmstart_gives_the_cold_solve(n, m, seed):
    # A warmstart that is not strictly interior (exterior, grazing, NaN
    # or misshapen) is ignored: the solve is the cold one, bit for bit.
    rng = np.random.default_rng(seed)
    grazing_seen = 0
    for _ in range(30):
        p = feasible_instance(rng, n, m)
        cold = solve_exact(p)
        row = p.b[0]
        row_scale = max(abs(p.a[0]), float(np.linalg.norm(row)))
        exterior = cold.k_star + (1.0 - margins(p, cold.k_star)[0]) * row / (row @ row)
        assert margins(p, exterior)[0] > 0.0
        starts = [
            exterior,
            np.full(m, np.nan),
            np.r_[np.nan, np.zeros(m - 1)],
            np.zeros(m + 1),
            np.zeros((m, 1)),
        ]
        for target in (0.0, -0.5e-12):
            shift = target * row_scale - margins(p, cold.k_star)[0]
            grazing = cold.k_star + shift * row / (row @ row)
            if -1e-12 < _relative_margin(p, grazing) <= 0.0:
                starts.append(grazing)
                grazing_seen += 1
        for start in starts:
            warm = solve_exact(p, warmstart=start)
            assert np.array_equal(warm.k_star, cold.k_star)
            assert warm.objective == cold.objective
            assert warm.grad_norm == cold.grad_norm
            assert warm.iterations == cold.iterations
            assert warm.status is cold.status
    assert grazing_seen >= 30


@pytest.mark.parametrize("solve", [solve_exact, solve_gradient_flow], ids=lambda f: f.__name__)
def test_grazing_warmstart_on_a_tiny_row_gives_the_cold_solve(solve):
    # Row 0's margin at the warmstart is -5e-15, which is -5e-12 of the
    # row's scale 1e-3: the relative rule takes the point, but the
    # objective's domain test does not.  The start is then the certified
    # point, as for a cold solve, and neither solver raises DomainError.
    p = ConstraintParams(np.array([-1e-3, -1.0]), np.array([[1e-3], [-1.0]]))
    warmstart = np.array([1.0 - 5e-12])
    assert BOUNDARY_TOL < margins(p, warmstart)[0] < 0.0
    assert _relative_margin(p, warmstart) < -1e-12
    cold = solve(p)
    assert cold.status is SolveStatus.CONVERGED
    _assert_same_solve(solve(p, warmstart=warmstart), cold)


def test_interior_warmstart_is_used_as_given():
    rng = np.random.default_rng(22)
    for _ in range(50):
        p = feasible_instance(rng, 2, 2)
        cold = solve_exact(p)
        warm = solve_exact(p, warmstart=cold.k_star)
        assert warm.status is SolveStatus.CONVERGED
        assert warm.iterations <= 1  # Newton starts at the minimizer
        np.testing.assert_allclose(warm.k_star, cold.k_star, rtol=0.0, atol=1e-12)



def test_badly_scaled_rows_converge_cold_and_warm():
    # Rows of the unicycle example near its goal: |b_0| ~ 1e-6 against
    # |b_1| ~ 4.  Newton reaches the floating-point floor while the
    # gradient's rounding noise still exceeds GRAD_TOL; both solves used
    # to end as MAX_ITER after 100 Newton iterations.  The warmstart's
    # row-0 margin is -1e-12, which is -1e-6 of that row's scale, so it
    # is strictly interior and used as given.
    p = ConstraintParams(
        np.array([9.658750081364938e-14, -4.000007986829399]),
        np.array([[9.925630779479891e-07, 9.143165401277791e-10], [-4.000007939590307, 0.0]]),
    )
    cold = solve_exact(p)
    warm = solve_exact(p, warmstart=np.array([-1.1007028548929947e-06, -1.0139332086930299e-09]))
    assert cold.status is SolveStatus.CONVERGED
    assert warm.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(warm.k_star, cold.k_star, rtol=0.0, atol=1e-12)


def test_line_search_lets_non_domain_errors_through(monkeypatch):
    # The first call evaluates the start; every later one is a trial.
    real = unisafe.solver._evaluate_prepared
    calls = []

    def failing_after_first_call(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            raise RuntimeError("not a domain error")
        return real(*args, **kwargs)

    monkeypatch.setattr(unisafe.solver, "_evaluate_prepared", failing_after_first_call)
    p = ConstraintParams(np.array([-1.0]), np.array([[1.0]]))
    with pytest.raises(RuntimeError, match="not a domain error"):
        solve_exact(p)


def test_indefinite_hessian_falls_back_to_gradient_steps(monkeypatch):
    # The Cholesky factorization is the only positive-definiteness test
    # on the Newton step; when it fails every iteration must still make
    # progress with a gradient step and stay strictly interior.
    real = unisafe.solver._evaluate_prepared

    def indefinite(*args, **kwargs):
        ev = real(*args, **kwargs)
        return None if ev is None else ev._replace(hess=np.diag([1.0, -1.0]))

    def no_solve(*args, **kwargs):
        raise AssertionError("a failed factorization reached the triangular solve")

    monkeypatch.setattr(unisafe.solver, "_evaluate_prepared", indefinite)
    monkeypatch.setattr(unisafe.solver, "_potrs", no_solve)
    rng = np.random.default_rng(26)
    for _ in range(20):
        p = feasible_instance(rng, 3, 2)
        # Every step taken is one of the Newton loop's fallbacks.
        start = find_interior_point(p).best_point
        res = solve_exact(p, warmstart=start)
        assert res.iterations >= 1
        assert res.objective < eval_J(p, start)
        assert np.max(margins(p, res.k_star)) < 0.0


def test_solution_never_above_cold_start_value():
    rng = np.random.default_rng(16)
    for _ in range(30):
        p = feasible_instance(rng)
        start = find_interior_point(p).best_point
        res = solve_exact(p)
        assert res.objective <= eval_J(p, start) + 1e-12


def test_minimizer_varies_smoothly_along_parameter_line():
    # k* sampled along a line of feasible instances should show no jumps:
    # second divided differences stay within an order of magnitude of
    # their own average.
    b = np.array([[1.0], [-1.0]])
    ts = np.linspace(0.0, 1.0, 100)
    ks = []
    for t in ts:
        a = np.array([-1.0 - 0.5 * t, -1.0 + 0.2 * t])
        ks.append(solve_exact(ConstraintParams(a, b)).k_star[0])
    ks = np.asarray(ks)
    d2 = np.abs(np.diff(ks, 2))
    assert d2.max() <= 10.0 * d2.mean() + 1e-12


def test_newton_budget_exhausted_reports_max_iter(monkeypatch):
    p = ConstraintParams(np.array([-1.0, -0.5]), np.array([[1.0, 0.3], [-0.2, 1.0]]))
    assert solve_exact(p).iterations > 1
    monkeypatch.setattr(unisafe.solver, "MAX_ITER", 1)
    res = solve_exact(p)
    assert res.status is SolveStatus.MAX_ITER
    assert res.iterations == 1
    assert np.max(margins(p, res.k_star)) < 0.0


# gradient flow

def test_flow_matches_newton_on_reference_instances():
    cases = [
        ConstraintParams(np.array([-1.0]), np.array([[1.0]])),
        ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]])),
        ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0, 0.0], [-1.0, 0.0]])),
    ]
    for p in cases:
        newton = solve_exact(p)
        flow = solve_gradient_flow(p, tol=1e-6)
        assert flow.status is SolveStatus.CONVERGED
        assert np.linalg.norm(flow.k_star - newton.k_star) <= 1e-4


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_flow_rejects_non_finite_or_non_positive_tol(tol):
    p = ConstraintParams(np.array([-0.5, -0.8]), np.array([[-0.3, 0.8], [0.5, 0.1]]))
    with pytest.raises(ValueError, match="tol"):
        solve_gradient_flow(p, tol=tol)


def test_flow_of_pure_quadratic_reaches_origin():
    p = ConstraintParams(np.array([-1.0]), np.array([[0.0]]))
    res = solve_gradient_flow(p, tol=1e-6)
    assert res.status is SolveStatus.CONVERGED
    assert abs(res.k_star[0]) <= 1e-6


def test_flow_results_are_interior():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, (n, m))
        b /= np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1.0)
        base = ConstraintParams(a, b)
        if not find_interior_point(base):
            continue
        q = ScaledParams(base, float(rng.uniform(0.05, 1.0)))
        res = solve_gradient_flow(q, tol=1e-6)
        assert res.status is SolveStatus.CONVERGED
        assert np.max(margins(base, res.k_star)) < 0
        assert res.grad_norm <= 1e-6


def _reference_flow(pq, tol=1e-6, warmstart=None, method="LSODA"):
    """The gradient flow as solve_ivp runs it, with the stop as a terminal
    event evaluated in full at every step; the oracle for the flow's own
    step loop, which must reproduce it bit for bit."""
    k0 = unisafe.solver._start(pq, warmstart)[1]

    def small_grad(_t, k):
        g, h = grad_raw(pq, k), hess_raw(pq, k)
        gn = float(np.linalg.norm(g))
        try:
            step = float(np.linalg.norm(np.linalg.solve(h, g)))
        except np.linalg.LinAlgError:
            step = gn
        return max(gn, step) - 0.01 * tol

    small_grad.terminal = True
    small_grad.direction = -1.0
    if small_grad(0.0, k0) <= 0.0:
        ev = evaluate(pq, k0, order=1)
        return SolveResult(k0, ev.value, float(np.linalg.norm(ev.grad)), 0, SolveStatus.CONVERGED), [k0]
    sol = solve_ivp(
        lambda _t, k: -grad_raw(pq, k),
        (0.0, 1e7),
        k0,
        method=method,
        jac=lambda _t, k: -hess_raw(pq, k),
        events=small_grad,
        rtol=1e-9,
        atol=1e-12,
    )
    k = sol.y_events[0][-1] if sol.t_events[0].size > 0 else sol.y[:, -1]
    ev = evaluate(pq, k, order=1)
    grad_norm = float(np.linalg.norm(ev.grad))
    status = SolveStatus.CONVERGED if grad_norm <= tol else SolveStatus.MAX_ITER
    result = SolveResult(k, ev.value, grad_norm, max(len(sol.t) - 1, 1), status)
    return result, list(sol.y.T)


def _assert_same_solve(got, want):
    np.testing.assert_array_equal(got.k_star, want.k_star)
    assert got.objective == want.objective
    assert got.grad_norm == want.grad_norm
    assert got.iterations == want.iterations
    assert got.status is want.status


def _stop_decided_by_the_step(pq, points, tol):
    """Whether some accepted point had its gradient norm inside the stop
    threshold while its Newton step still kept the flow going."""
    for k in points[1:]:
        g = grad_raw(pq, k)
        gn = float(np.linalg.norm(g))
        if gn <= 0.01 * tol and float(np.linalg.norm(np.linalg.solve(hess_raw(pq, k), g))) > 0.01 * tol:
            return True
    return False


@pytest.mark.parametrize(
    "n, m, draws, seed",
    # 4 x 2: more rows than inputs, so the start is the phase-I LP's point.
    [(1, 1, 10, 30), (2, 2, 25, 31), (10, 10, 3, 32), (4, 2, 6, 33)],
)
def test_flow_is_bit_identical_to_the_solve_ivp_event_flow(n, m, draws, seed):
    rng = np.random.default_rng(seed)
    done = step_decided = 0
    while done < draws:
        q = _draw_instance(rng, n, m)
        if not find_interior_point(q.base):
            continue
        for tol in (1e-6, 1e-4):
            want, points = _reference_flow(q, tol)
            _assert_same_solve(solve_gradient_flow(q, tol), want)
            step_decided += _stop_decided_by_the_step(q, points, tol)
        done += 1
    if (n, m) == (2, 2):
        assert step_decided > 0


def test_flow_is_bit_identical_on_unscaled_and_small_r_instances():
    rng = np.random.default_rng(34)
    p = _draw_instance(rng, 3, 2).base
    while not find_interior_point(p):
        p = _draw_instance(rng, 3, 2).base
    for pq in (p, ScaledParams(p, 1e-6)):
        want, _ = _reference_flow(pq, 1e-6)
        _assert_same_solve(solve_gradient_flow(pq, 1e-6), want)


def test_failed_integrator_step_returns_the_last_accepted_point(monkeypatch):
    accepted = []

    class FailingLSODA(LSODA):
        def _step_impl(self):
            if len(accepted) == 3:
                return False, "step failed"
            ok, message = super()._step_impl()
            accepted.append(self.y.copy())
            return ok, message

    p = ConstraintParams(np.array([-1.0, -0.5]), np.array([[1.0, 0.3], [-0.2, 1.0]]))
    monkeypatch.setattr(unisafe.solver, "LSODA", FailingLSODA)
    res = solve_gradient_flow(p, tol=1e-6)
    assert res.status is SolveStatus.MAX_ITER
    assert res.iterations == 3
    np.testing.assert_array_equal(res.k_star, accepted[-1])
    accepted.clear()
    want, _ = _reference_flow(p, 1e-6, method=FailingLSODA)
    _assert_same_solve(res, want)


# state-dependent wrapper

class _ToyProblem:
    """Single integrator with one CLF row, small enough to check by hand."""

    def __init__(self):
        self.input_dim = 1

    def constraint_map(self, x):
        # V = x^2/2, W = 0.1 x^2 on xdot = u: a = 0.1 x^2, b = x
        return ConstraintParams(
            np.array([0.1 * float(x[0]) ** 2]), np.array([[float(x[0])]])
        )


def test_u_star_matches_closed_form_on_scalar_problem():
    prob = _ToyProblem()
    for x0 in (0.5, 1.0, -2.0):
        x = np.array([x0])
        u = u_star(prob, x)
        p = prob.constraint_map(x)
        expect = closed_form_1d(p.a[0], p.b[0, 0])
        assert u[0] == pytest.approx(expect, abs=1e-8)
        assert margins(p, u).max() < 0


def test_u_star_zero_when_all_gradients_vanish():
    class Fixed:
        input_dim = 2

        def constraint_map(self, x):
            return ConstraintParams(np.array([-1.0, -2.0]), np.zeros((2, 2)))

    u = u_star(Fixed(), np.zeros(2))
    np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-10)


def test_u_star_infeasible_state_carries_state():
    class Broken:
        input_dim = 1

        def constraint_map(self, x):
            return ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]]))

    with pytest.raises(InfeasibleError) as exc_info:
        u_star(Broken(), np.array([3.0]))
    assert exc_info.value.state is not None
