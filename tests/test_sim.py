import math
import warnings

import numpy as np
import pytest

from unisafe import (
    ConstraintParams,
    ControlAffineSystem,
    ControlProblem,
    FormatError,
    SchemaError,
    Trajectory,
    cbf_constraint,
    clf_constraint,
    default_obstacles_2d,
    exact_controller,
    grad_J,
    find_interior_point,
    make_example_1,
    make_example_2,
    margins,
    qp_controller,
    read_trajectory_csv,
    sample_obstacles_10d,
    simulate,
    simulate_interconnection,
    solve_exact,
    trajectory_metrics,
    write_trajectory_csv,
)
from unisafe.errors import NumericError

def integrator_problem(n=1):
    """Single integrator with a constraint family satisfied everywhere nearby."""
    relaxed = ConstraintParams(np.full(1, -1e6), np.ones((1, n)))
    return ControlProblem(
        ControlAffineSystem(n, n, lambda x: np.zeros(n), lambda x: np.eye(n)),
        lambda x: relaxed,
    )


# integrator accuracy

def test_decay_solution_matches_exponential():
    # closed loop xdot = -x from 1.0; fixed-step fourth-order error at
    # dt = 1e-2 lands near 3e-11 for e^{-1}
    traj = simulate(integrator_problem(), lambda x: -x, np.array([1.0]), 1.0, dt=1e-2)
    assert traj.error is None
    assert abs(traj.states[-1][0] - math.exp(-1.0)) <= 1e-8


def test_integration_error_is_fourth_order():
    def final_error(dt):
        traj = simulate(integrator_problem(), lambda x: -x, np.array([1.0]), 1.0, dt=dt)
        return abs(traj.states[-1][0] - math.exp(-1.0))

    ratio = final_error(0.1) / final_error(0.05)
    assert 12.0 <= ratio <= 22.0  # 2^4 = 16 up to higher-order terms


def test_zero_input_is_a_fixed_point():
    traj = simulate(integrator_problem(2), lambda x: np.zeros(2), np.array([3.0, -1.0]), 0.5)
    assert np.all(traj.states == np.array([3.0, -1.0]))
    assert np.all(traj.inputs == 0.0)


def test_sample_and_hold_constant_field_is_exact():
    c = np.array([0.7, -0.4])
    traj = simulate(
        integrator_problem(2), lambda x: c, np.array([1.0, 2.0]), 0.3, mode="sample_and_hold"
    )
    expect = np.array([1.0, 2.0]) + np.outer(traj.times, c)
    assert np.max(np.abs(traj.states - expect)) <= 1e-13


def test_hold_and_continuous_modes_differ_for_state_feedback():
    x0 = np.array([1.0])
    cont = simulate(integrator_problem(), lambda x: -x, x0, 0.2, dt=0.1)
    hold = simulate(integrator_problem(), lambda x: -x, x0, 0.2, dt=0.1, mode="sample_and_hold")
    # holding the input across a step integrates a different (piecewise
    # constant) field, so the trajectories separate
    assert abs(cont.states[-1][0] - hold.states[-1][0]) > 1e-5


def test_final_row_repeats_last_applied_input():
    traj = simulate(integrator_problem(), lambda x: -x, np.array([1.0]), 0.05)
    assert len(traj) == 6
    assert np.all(traj.inputs[-1] == traj.inputs[-2])


def test_continuous_step_calls_the_controller_once_per_stage():
    # The call at the step start is the first RK4 stage, so a step makes
    # four calls.  Each call returns a different value, which pins the
    # recorded input to the step-start call.
    calls = []

    def counting(x):
        u = -x * (1.0 + 0.01 * len(calls))
        calls.append((x.copy(), u))
        return u

    traj = simulate(integrator_problem(), counting, np.array([1.0]), 0.05)
    steps = len(traj) - 1
    assert steps == 5
    assert len(calls) == 4 * steps
    for k in range(steps):
        x_call, u_call = calls[4 * k]
        assert np.array_equal(x_call, traj.states[k])
        assert np.array_equal(traj.inputs[k], u_call)


def test_simulate_rejects_bad_arguments():
    prob = integrator_problem()
    with pytest.raises(ValueError):
        simulate(prob, lambda x: -x, np.array([np.nan]), 1.0)
    with pytest.raises(ValueError):
        simulate(prob, lambda x: -x, np.array([1.0]), 1.0, dt=0.0)
    with pytest.raises(ValueError):
        simulate(prob, lambda x: -x, np.array([1.0]), 0.001, dt=1.0)
    with pytest.raises(ValueError):
        simulate(prob, lambda x: -x, np.array([1.0]), 1.0, mode="zoh")


def test_stop_radius_ends_the_run_early():
    traj = simulate(
        integrator_problem(), lambda x: -x, np.array([1.0]), 5.0, stop_radius=0.5
    )
    assert traj.error is None
    assert len(traj) < 501
    assert traj.states[-1][0] < 0.5
    assert traj.states[-2][0] >= 0.5


# constraint row builders

def test_clf_row_formula_on_hand_system():
    sys1 = ControlAffineSystem(
        1, 1, lambda x: np.array([2.0]), lambda x: np.array([[3.0]])
    )
    a, b = clf_constraint(None, lambda x: x, lambda x: 0.5, sys1, np.array([1.5]))
    # a = grad V . f + W = 1.5 * 2 + 0.5, b = g^T grad V = 3 * 1.5
    assert a == pytest.approx(3.5)
    assert b == pytest.approx([4.5])


def test_cbf_row_formula_on_hand_system():
    sys1 = ControlAffineSystem(
        1, 1, lambda x: np.array([2.0]), lambda x: np.array([[3.0]])
    )
    a, b = cbf_constraint(
        lambda x: float(x[0] - 1.0), lambda x: np.array([1.0]), lambda v: v, sys1, np.array([4.0])
    )
    # a = -grad h . f - alpha(h) = -2 - 3, b = -g^T grad h = -3
    assert a == pytest.approx(-5.0)
    assert b == pytest.approx([-3.0])


def test_row_signs_make_satisfaction_mean_decrease_and_invariance():
    # For the single integrator with V = |x|^2/2 the admissible set at x
    # is {u : x.u + W < 0, -grad h.u - h < 0}; check both memberships on
    # the 2-state example rows.
    prob = make_example_1(2)
    x = np.array([1.0, 0.0])
    p = prob.constraint_map(x)
    u = np.array([-1.0, 0.0])  # straight toward the origin, away from discs
    m = margins(p, u)
    assert m[0] == pytest.approx(x @ u + 0.1 * x @ x)
    assert np.all(m < 0.0)


# example problems

def test_example_1_rows_at_reference_state():
    prob = make_example_1(2)
    p = prob.constraint_map(np.array([1.0, 0.0]))
    assert p.a == pytest.approx([0.1, -300.0])
    assert p.b[0] == pytest.approx([1.0, 0.0])
    assert p.b[1] == pytest.approx([-96.0, -160.0])


def test_example_1_margins_of_negative_feedback_far_out():
    # at (5, 5) plain u = -x satisfies the Lyapunov row but badly violates
    # the barrier row, so a feasibility-blind feedback is inadmissible there
    prob = make_example_1(2)
    p = prob.constraint_map(np.array([5.0, 5.0]))
    m = margins(p, np.array([-5.0, -5.0]))
    assert m[0] == pytest.approx(-45.0)
    assert m[1] == pytest.approx(782242.75)
    assert m[1] > 0.0


def test_example_1_obstacle_boundary_state():
    prob = make_example_1(2)
    x = np.array([0.0, 1.5])  # on the disc centered at (0, 2.5)
    assert min(h(x) for h in prob.barriers) == pytest.approx(0.0, abs=1e-14)
    p = prob.constraint_map(x)
    # drift-free plant and h = 0 make the barrier row offset vanish; the
    # row then only admits inputs moving off the obstacle (u_1 < 0)
    assert p.a[1] == pytest.approx(0.0, abs=1e-14)
    assert p.b[1][1] > 0.0


def test_example_1_lyapunov_and_obstacle_presets():
    prob = make_example_1(2)
    assert prob.lyapunov(np.array([3.0, 4.0])) == pytest.approx(12.5)
    assert len(prob.barriers) == 3
    prob10 = make_example_1(10)
    assert len(prob10.barriers) == 9


def test_example_1_ten_dimensional_rows():
    prob = make_example_1(10)
    x = np.full(10, 1.2)
    p = prob.constraint_map(x)
    assert p.a.shape == (10,)
    assert p.b.shape == (10, 10)
    # last row is the Lyapunov row of the single integrator
    assert p.a[-1] == pytest.approx(0.1 * float(x @ x))
    assert p.b[-1] == pytest.approx(x)


def test_example_1_rejects_bad_setups():
    with pytest.raises(ValueError):
        make_example_1(3)
    with pytest.raises(ValueError):
        make_example_1(2, obstacles=[(np.array([1.0, 1.0, 1.0]), 1.0)])
    with pytest.raises(ValueError):
        make_example_1(2, obstacles=[(np.array([1.0, 1.0]), 0.0)])
    with pytest.raises(ValueError, match="state dimension"):
        make_example_1(2, obstacles=[(1.0, 1.0)])
    for dimension in (2, 10):
        with pytest.raises(ValueError, match="need at least one obstacle"):
            make_example_1(dimension, obstacles=[])


def _reference_rows(problem, x, barrier_pairs, alpha):
    """Example rows rebuilt one certificate at a time by the generic builders."""
    barrier_rows = [cbf_constraint(value, gradient, alpha, problem.system, x) for value, gradient in barrier_pairs]
    clf = clf_constraint(None, lambda z: z, lambda z: 0.1 * float(z @ z), problem.system, x)
    # the 10-D example lists the Lyapunov row last, the others first
    rows = barrier_rows + [clf] if x.shape[0] == 10 else [clf] + barrier_rows
    return np.array([a for a, _ in rows]), np.stack([b for _, b in rows])


def _worst_row_gap(prob, barrier_pairs, alpha=float):
    """Largest per-row relative gap to the generic builders over 200 seeded states."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, prob.system.state_dim)
        p = prob.constraint_map(x)
        a, b = _reference_rows(prob, x, barrier_pairs, alpha)
        assert p.a.shape == a.shape and p.b.shape == b.shape
        # per-row relative difference, scaled by the row's largest entry
        diff = np.maximum(np.abs(p.a - a), np.max(np.abs(p.b - b), axis=1))
        scale = np.maximum(np.abs(a), np.max(np.abs(b), axis=1))
        worst = max(worst, float(np.max(diff / scale)))
    return worst


def _product_barrier(obstacles):
    centers = np.array([c for c, _ in obstacles])
    radii = np.array([r for _, r in obstacles])

    def value(x):
        d = x - centers
        return float(np.prod(np.sum(d * d, axis=1) - radii**2))

    def gradient(x):
        d = x - centers
        parts = np.sum(d * d, axis=1) - radii**2
        return sum(2.0 * d[i] * np.prod(np.delete(parts, i)) for i in range(len(radii)))

    return [(value, gradient)]


def _reciprocal_barriers(obstacles):
    def pair(c, r):
        def value(x):
            return 8.0 * (1.0 - r * r / float((x - c) @ (x - c)))

        def gradient(x):
            s = float((x - c) @ (x - c))
            return 16.0 * r * r * (x - c) / (s * s)

        return value, gradient

    return [pair(np.asarray(c, dtype=float), float(r)) for c, r in obstacles]


_DISCS = default_obstacles_2d() + [(np.array([0.5, -3.0]), 0.7), (np.array([-3.0, 1.0]), 1.3)]


@pytest.mark.parametrize(
    "dimension, obstacles",
    [
        (2, _DISCS[:1]),
        (2, _DISCS[:3]),
        (2, _DISCS),
        (10, sample_obstacles_10d(seed=0)),
        (10, sample_obstacles_10d(seed=4, count=4, radius=1.1)),
    ],
)
def test_example_1_rows_match_the_generic_builders(dimension, obstacles):
    prob = make_example_1(dimension, obstacles=obstacles)
    pairs = _product_barrier(obstacles) if dimension == 2 else _reciprocal_barriers(obstacles)
    assert _worst_row_gap(prob, pairs) <= 1e-14


def test_example_2_rows_match_the_generic_builders():
    def value(s):
        return float(-s[1] + (2.0 * s[0] + 1.0) ** 2 + 1.0)

    def gradient(s):
        return np.array([4.0 * (2.0 * s[0] + 1.0), -1.0, 0.0])

    assert _worst_row_gap(make_example_2(), [(value, gradient)], alpha=lambda v: 2.0 * v) <= 1e-14


def test_ten_dimensional_map_at_an_obstacle_centre_raises_without_warnings():
    center, _ = sample_obstacles_10d(seed=0)[0]
    prob = make_example_1(10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite"):
            prob.constraint_map(center)


def test_sampled_obstacles_are_deterministic_and_clear_origin():
    first = sample_obstacles_10d(seed=0)
    second = sample_obstacles_10d(seed=0)
    assert len(first) == 9
    for (c1, r1), (c2, r2) in zip(first, second):
        assert np.all(c1 == c2) and r1 == r2
        assert np.linalg.norm(c1) > 1.2 * r1


def test_example_2_rows_match_hand_formulas():
    prob = make_example_2()
    s = np.array([2.0, 2.0, 0.3])
    p = prob.constraint_map(s)
    h = -s[1] + (2.0 * s[0] + 1.0) ** 2 + 1.0
    assert p.a[0] == pytest.approx(-s[1] ** 2 + 0.1 * float(s @ s))
    assert p.b[0] == pytest.approx(
        [s[0] * math.cos(s[2]) + s[1] * math.sin(s[2]), s[2]]
    )
    assert p.a[1] == pytest.approx(-s[1] - 2.0 * h)
    assert p.b[1] == pytest.approx(
        [-4.0 * (2.0 * s[0] + 1.0) * math.cos(s[2]) + math.sin(s[2]), 0.0]
    )


def test_example_2_structure():
    prob = make_example_2()
    assert np.all(prob.system.drift(np.zeros(3)) == 0.0)
    g = prob.system.input_matrix(np.array([0.0, 0.0, 0.7]))
    assert g[:, 0] == pytest.approx([math.cos(0.7), math.sin(0.7), 0.0])
    assert g[:, 1] == pytest.approx([0.0, 0.0, 1.0])
    for theta in (0.0, 1.0, -2.0):
        assert prob.barriers[0](np.array([0.0, 0.0, theta])) == pytest.approx(2.0)


# closed loops

def test_example_1_closed_loop_is_safe_and_decreasing():
    prob = make_example_1(2)
    traj = simulate(prob, exact_controller(prob), np.array([1.0, 0.0]), 2.0)
    assert traj.error is None
    assert np.all(traj.margins < 0.0)
    rep = trajectory_metrics(traj, prob.lyapunov, prob.barriers)
    assert rep.violations == 0
    assert rep.lyapunov_increases == 0
    assert rep.final_state_norm < np.linalg.norm([1.0, 0.0])
    assert np.any(traj.solver_iters > 0)
    assert np.all(traj.solver_ms >= 0.0)


def test_min_norm_controller_is_safe_but_smaller():
    prob = make_example_1(2)
    x0 = np.array([0.5, 0.5])
    opt = simulate(prob, exact_controller(prob), x0, 0.5)
    base = simulate(prob, qp_controller(prob), x0, 0.5)
    assert base.error is None
    assert np.all(base.margins < 1e-12)
    assert trajectory_metrics(base, prob.lyapunov, prob.barriers).violations == 0
    # the min-norm input never exceeds the admissibility minimizer by norm
    assert np.linalg.norm(base.inputs[0]) <= np.linalg.norm(opt.inputs[0]) + 1e-9


def switching_problem():
    """Constraints that turn contradictory once the state drops below 0.5."""

    def rows(x):
        if x[0] >= 0.5:
            return ConstraintParams(np.array([-10.0, -10.0]), np.array([[1.0], [-1.0]]))
        return ConstraintParams(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]]))

    return ControlProblem(
        ControlAffineSystem(1, 1, lambda x: np.array([-1.0]), lambda x: np.eye(1)),
        rows,
    )


def test_truncation_when_constraints_become_infeasible():
    prob = switching_problem()
    traj = simulate(prob, exact_controller(prob), np.array([1.0]), 1.0)
    assert traj.error is not None and "inside step" in traj.error
    assert traj.error_state is not None
    assert traj.error_state[0] == pytest.approx(0.5, abs=0.02)
    assert len(traj) < 101
    assert traj.times[-1] == pytest.approx(0.01 * (len(traj) - 1))


def test_truncation_in_hold_mode_reports_step_start_failure():
    prob = switching_problem()
    traj = simulate(
        prob, exact_controller(prob), np.array([1.0]), 1.0, mode="sample_and_hold"
    )
    assert traj.error is not None and "inside step" not in traj.error
    assert traj.error_state[0] == pytest.approx(0.5, abs=0.02)
    assert len(traj) < 101


# joint input-state integration

def test_interconnection_zero_rate_freezes_the_input():
    prob = make_example_1(2)
    x0 = np.array([1.0, 0.0])
    u0 = solve_exact(prob.constraint_map(x0)).k_star
    traj = simulate_interconnection(prob, 0.0, x0, u0, 0.03)
    assert traj.error is None
    assert len(traj) == 4
    assert np.all(traj.inputs == u0)
    # frozen input turns the single integrator into uniform motion
    expect = x0 + np.outer(traj.times, u0)
    assert np.max(np.abs(traj.states - expect)) <= 1e-9


def test_interconnection_truncates_when_frozen_input_exits():
    prob = make_example_1(2)
    x0 = np.array([1.0, 0.0])
    u0 = solve_exact(prob.constraint_map(x0)).k_star
    traj = simulate_interconnection(prob, 0.0, x0, u0, 0.1)
    assert traj.error is not None and "boundary" in traj.error
    assert len(traj) < 11
    assert np.all(np.max(traj.margins, axis=1) < 0.0)


def test_interconnection_rates_track_the_gradient_definition():
    # On a grid fine enough for second differences, the recorded input
    # sequence must follow du/dt = -tau grad J at the recorded points.
    prob = make_example_1(2)
    x0 = np.array([1.0, 0.0])
    u0 = find_interior_point(prob.constraint_map(x0)).best_point
    dt = 1e-4
    traj = simulate_interconnection(prob, 1.0, x0, u0, 40 * dt, dt=dt)
    assert traj.error is None
    fd = (traj.inputs[2:] - traj.inputs[:-2]) / (2.0 * dt)
    defined = np.stack(
        [
            -grad_J(prob.constraint_map(traj.states[i]), traj.inputs[i])
            for i in range(1, len(traj) - 1)
        ]
    )
    scale = np.max(np.linalg.norm(defined, axis=1))
    assert np.max(np.linalg.norm(fd - defined, axis=1)) <= 1e-3 * scale


def test_interconnection_tracks_minimizer_better_with_faster_rates():
    prob = make_example_1(2)
    x0 = np.array([1.0, 0.0])
    u0 = solve_exact(prob.constraint_map(x0)).k_star
    ref = simulate(prob, exact_controller(prob), x0, 1.0)

    def deviation(tau):
        tr = simulate_interconnection(prob, tau, x0, u0, 1.0)
        assert tr.error is None
        k = min(len(ref), len(tr))
        return float(np.max(np.linalg.norm(tr.states[:k] - ref.states[:k], axis=1)))

    dev_slow, dev_fast = deviation(1e2), deviation(1e3)
    assert dev_fast < dev_slow
    assert dev_fast < 0.05


def test_interconnection_rejects_bad_arguments():
    prob = make_example_1(2)
    x0 = np.array([1.0, 0.0])
    u0 = solve_exact(prob.constraint_map(x0)).k_star
    with pytest.raises(ValueError):
        simulate_interconnection(prob, -1.0, x0, u0, 1.0)
    with pytest.raises(ValueError):
        simulate_interconnection(prob, 1.0, x0, u0, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        simulate_interconnection(prob, 1.0, x0, u0, 0.001, dt=1.0)
    with pytest.raises(ValueError):
        # input exactly on the Lyapunov row boundary
        simulate_interconnection(prob, 1.0, x0, np.array([-0.1, 0.0]), 1.0)


# metrics

def three_point_trajectory():
    return Trajectory(
        times=np.array([0.0, 1.0, 2.0]),
        states=np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]),
        inputs=np.zeros((3, 2)),
        margins=np.full((3, 1), -1.0),
        solver_iters=np.zeros(3, dtype=int),
        solver_ms=np.zeros(3),
    )


def test_metrics_counts_violations_and_increases():
    rep = trajectory_metrics(
        three_point_trajectory(),
        lyapunov=lambda x: float(x @ x),
        barriers=(lambda x: float(x[0]),),
    )
    assert rep.min_h == pytest.approx([1.0, 2.0, -1.0])
    assert rep.violations == 1
    assert rep.lyapunov == pytest.approx([1.0, 4.0, 1.0])
    assert rep.lyapunov_increases == 1
    assert rep.final_state_norm == pytest.approx(1.0)


def test_metrics_without_certificates():
    rep = trajectory_metrics(three_point_trajectory())
    assert rep.min_h.size == 0 and rep.lyapunov.size == 0
    assert rep.violations == 0 and rep.lyapunov_increases == 0


def test_metrics_increase_tolerance_filters_noise():
    traj = Trajectory(
        times=np.array([0.0, 1.0]),
        states=np.array([[1.0], [1.0 + 1e-13]]),
        inputs=np.zeros((2, 1)),
        margins=np.full((2, 1), -1.0),
        solver_iters=np.zeros(2, dtype=int),
        solver_ms=np.zeros(2),
    )
    rep = trajectory_metrics(traj, lyapunov=lambda x: float(x[0]))
    assert rep.lyapunov_increases == 0


# trajectory records

def test_trajectory_validates_row_counts_and_times():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            states=np.zeros((3, 1)),
            inputs=np.zeros((2, 1)),
            margins=np.zeros((2, 1)),
            solver_iters=np.zeros(2, dtype=int),
            solver_ms=np.zeros(2),
        )
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            states=np.zeros((2, 1)),
            inputs=np.zeros((2, 1)),
            margins=np.zeros((2, 1)),
            solver_iters=np.zeros(2, dtype=int),
            solver_ms=np.zeros(2),
        )


@pytest.mark.parametrize("cell", [2.7, np.nan, 2.0**63])
def test_trajectory_rejects_solver_iters_that_are_not_whole(cell):
    # Stored as int64, so a fraction would be truncated and NaN or an
    # out-of-range count cast to garbage.
    with pytest.raises(ValueError, match="whole numbers"):
        Trajectory(
            times=np.array([0.0, 1.0]),
            states=np.zeros((2, 1)),
            inputs=np.zeros((2, 1)),
            margins=np.zeros((2, 1)),
            solver_iters=[cell, 3.0],
            solver_ms=np.zeros(2),
        )


def test_trajectory_stores_whole_float_solver_iters_as_ints():
    traj = Trajectory(
        times=np.array([0.0, 1.0]),
        states=np.zeros((2, 1)),
        inputs=np.zeros((2, 1)),
        margins=np.zeros((2, 1)),
        solver_iters=[2.0, 3.0],
        solver_ms=np.zeros(2),
    )
    assert traj.solver_iters.dtype.kind == "i"
    np.testing.assert_array_equal(traj.solver_iters, [2, 3])


def test_trajectory_csv_round_trip(tmp_path):
    prob = make_example_1(2)
    traj = simulate(prob, exact_controller(prob), np.array([0.5, 0.5]), 0.2)
    path = tmp_path / "run.csv"
    write_trajectory_csv(traj, path, lyapunov=prob.lyapunov, barriers=prob.barriers)
    back = read_trajectory_csv(path)
    assert np.all(back.times == traj.times)
    assert np.all(back.states == traj.states)
    assert np.all(back.inputs == traj.inputs)
    assert np.all(back.margins == traj.margins)
    assert np.all(back.solver_iters == traj.solver_iters)
    assert np.all(back.solver_ms == traj.solver_ms)


def test_trajectory_csv_certificate_columns(tmp_path):
    prob = make_example_1(2)
    traj = simulate(prob, exact_controller(prob), np.array([0.5, 0.5]), 0.05)
    path = tmp_path / "run.csv"
    write_trajectory_csv(traj, path, lyapunov=prob.lyapunov, barriers=prob.barriers)
    header, first = path.read_text().splitlines()[:2]
    cols = header.split(",")
    values = first.split(",")
    assert cols[-4:] == ["V", "min_h", "solver_iters", "solver_ms"]
    x0 = traj.states[0]
    assert float(values[cols.index("V")]) == pytest.approx(prob.lyapunov(x0))
    assert float(values[cols.index("min_h")]) == pytest.approx(
        min(h(x0) for h in prob.barriers)
    )


def test_trajectory_csv_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError):
        read_trajectory_csv(empty)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("t,y_0,u_0,margin_0,V,min_h,solver_iters,solver_ms\n")
    with pytest.raises(FormatError):
        read_trajectory_csv(bad_header)

    header = "t,x_0,u_0,margin_0,V,min_h,solver_iters,solver_ms"
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(header + "\n")
    with pytest.raises(FormatError):
        read_trajectory_csv(header_only)

    short_row = tmp_path / "short_row.csv"
    short_row.write_text(header + "\n0.0,1.0,2.0\n")
    with pytest.raises(FormatError) as exc:
        read_trajectory_csv(short_row)
    assert exc.value.offset == 2

    non_numeric = tmp_path / "non_numeric.csv"
    non_numeric.write_text(header + "\n0.0,1.0,2.0,-1.0,0.5,1.0,three,0.1\n")
    with pytest.raises(FormatError):
        read_trajectory_csv(non_numeric)

    backwards = tmp_path / "backwards.csv"
    backwards.write_text(header + "\n0.1,1.0,2.0,-1.0,0.5,1.0,3,0.1\n0.0,1.0,2.0,-1.0,0.5,1.0,3,0.1\n")
    with pytest.raises(SchemaError):
        read_trajectory_csv(backwards)

    for cell in ("nan", "2.7"):
        bad_iters = tmp_path / "bad_iters.csv"
        bad_iters.write_text(header + f"\n0.0,1.0,2.0,-1.0,0.5,1.0,3,0.1\n0.1,1.0,2.0,-1.0,0.5,1.0,{cell},0.1\n")
        with pytest.raises(SchemaError):
            read_trajectory_csv(bad_iters)
