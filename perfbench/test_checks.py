"""The benchmark's output checks pass on the program's outputs and bite on corrupted ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import unisafe  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

CENTERS = np.array([[0.0, 2.5], [-2.0, -2.0], [2.0, -2.0]])
RADII = np.ones(3)


def planar(x):
    return checks.planar_rows(x, CENTERS, RADII)


@pytest.fixture(scope="module")
def loops():
    problem = unisafe.make_example_1(2)
    x0 = np.array([1.0, 0.0])
    ustar = unisafe.simulate(problem, unisafe.exact_controller(problem), x0, T=0.2)
    qp = unisafe.simulate(problem, unisafe.qp_controller(problem), np.array([0.5, 0.5]), T=0.2)
    return ustar, qp


def test_rows_match_the_package_constraint_map():
    problem = unisafe.make_example_1(2)
    x = np.array([0.3, -0.7])
    p = problem.constraint_map(x)
    a, b = planar(x)
    np.testing.assert_allclose(a, p.a, rtol=1e-12)
    np.testing.assert_allclose(b, p.b, rtol=1e-12)
    obstacles = unisafe.sample_obstacles_10d()
    centers = np.array([c for c, _ in obstacles])
    radii = np.array([r for _, r in obstacles])
    x10 = np.full(10, 1.5)
    p10 = unisafe.make_example_1(10).constraint_map(x10)
    a10, b10 = checks.reciprocal_rows(x10, centers, radii)
    np.testing.assert_allclose(a10, p10.a, rtol=1e-12)
    np.testing.assert_allclose(b10, p10.b, rtol=1e-12)


def test_loop_checks_pass_on_program_output(loops):
    for name, traj in zip(("ustar", "qp"), loops):
        steps = len(traj) - 1
        checks.check_trajectory(traj.states, traj.inputs, CENTERS, RADII, planar, name)
        checks.check_controller_sample(traj.states, traj.inputs, range(steps), planar, name)


def test_input_nudged_outside_the_polytope_fails(loops):
    traj = loops[0]
    inputs = traj.inputs.copy()
    a, b = planar(traj.states[3])
    worst = int(np.argmax(a + b @ inputs[3]))
    row = b[worst]
    inputs[3] = inputs[3] - (a[worst] + row @ inputs[3]) / (row @ row) * row * 1.01
    with pytest.raises(checks.CheckFailed, match="admissible"):
        checks.check_trajectory(traj.states, inputs, CENTERS, RADII, planar, "ustar")


def test_state_inside_an_obstacle_fails(loops):
    traj = loops[0]
    states = traj.states.copy()
    states[-1] = CENTERS[0] + 0.5
    with pytest.raises(checks.CheckFailed, match="obstacle"):
        checks.check_trajectory(states, traj.inputs, CENTERS, RADII, planar, "ustar")


def test_rising_lyapunov_value_fails(loops):
    traj = loops[0]
    states = traj.states[::-1].copy()
    with pytest.raises(checks.CheckFailed, match="increases"):
        checks.check_trajectory(states, traj.inputs, CENTERS, RADII, planar, "ustar")


def test_ustar_input_moved_off_the_minimizer_fails(loops):
    traj = loops[0]
    inputs = traj.inputs * (1.0 + 1e-3)
    with pytest.raises(checks.CheckFailed, match="gradient"):
        checks.check_controller_sample(traj.states, inputs, [5], planar, "ustar")


def test_qp_answer_scaled_by_1_1_fails(loops):
    traj = loops[1]
    inputs = traj.inputs * 1.1
    with pytest.raises(checks.CheckFailed):
        checks.check_controller_sample(traj.states, inputs, [5], planar, "qp")


def test_label_moved_by_1e_3_fails():
    ds = unisafe.sample_dataset(2, 2, 8, seed=0)
    checks.check_labels(ds.inputs, ds.labels, 2, 2, ds.label_tol)
    with pytest.raises(checks.CheckFailed, match="label"):
        checks.check_labels(ds.inputs, ds.labels + 1e-3, 2, 2, ds.label_tol)


def test_training_loss_that_does_not_fall_or_diverges_fails():
    checks.check_training([3.0, 2.0, 1.0])
    with pytest.raises(checks.CheckFailed, match="below"):
        checks.check_training([1.0, 2.0, 1.5])
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_training([3.0, np.nan, 1.0])


def test_solves_that_disagree_or_are_not_stationary_fail():
    p = unisafe.ConstraintParams(np.array([-0.5, -0.8]), np.array([[-0.3, 0.8], [0.5, 0.1]]))
    k = unisafe.solve_exact(p).k_star
    instance = [(p.a, p.b)]
    checks.check_solves(instance, [k], [k])
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_solves(instance, [k], [k + 1e-5])
    with pytest.raises(checks.CheckFailed, match="gradient"):
        checks.check_solves(instance, [k + 1e-3], [k + 1e-3])


def test_forward_pass_check_bites():
    model = unisafe.init_model(2, 2, hidden_widths=(8, 8), seed=3)
    p = unisafe.ConstraintParams(np.array([-0.5, 1.5]), np.array([[-0.3, 2.8], [0.5, 0.1]]))
    q, _ = unisafe.scale_params(p)
    k = unisafe.mlp_forward(model, unisafe.flatten_scaled(q))
    checks.check_predictions(model.weights, model.biases, [(p.a, p.b)], [k])
    with pytest.raises(checks.CheckFailed, match="forward"):
        checks.check_predictions(model.weights, model.biases, [(p.a, p.b)], [k * 1.001])


def test_self_time_excludes_children():
    ctx = spans.OpContext()
    tracer = spans.Tracer(ctx)
    inner = tracer.span("inner", lambda: sum(range(20000)))

    def body():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.span("outer", body)
    outer()
    calls, self_s, _ = tracer.summary()
    assert calls == {"outer": 1, "inner": 2}
    whole = tracer.spans[0][2] - tracer.spans[0][1]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert self_s["outer"] == pytest.approx(whole - children)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
