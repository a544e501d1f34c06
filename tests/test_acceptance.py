"""Acceptance sweep: one numbered test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a line per
property.  Each test draws its own seeded instances and carries its
tolerances inline, so a failure message names the guarantee that broke
and the measured value that broke it.  The learning-pipeline tests share
one module-scoped dataset and training run (several minutes of work) --
everything else completes in seconds.
"""

import math
import os
import time

import numpy as np
import pytest

from unisafe import (
    ConstraintParams,
    ScaledParams,
    SolveStatus,
    TrainConfig,
    closed_form_1d,
    default_obstacles_2d,
    eval_J,
    eval_J_scaled,
    exact_controller,
    find_interior_point,
    grad_J,
    hess_J,
    init_model,
    make_example_1,
    make_example_2,
    margins,
    mlp_forward,
    project_onto_polytope,
    qp_controller,
    sample_dataset,
    sample_obstacles_10d,
    save_model,
    scale_params,
    simulate,
    simulate_interconnection,
    solve_exact,
    solve_gradient_flow,
    train,
    trajectory_metrics,
    u_star,
    unflatten_scaled,
    warmstart_solve,
)
from unisafe.cli import run_bench
from unisafe.nn import _mse_and_grads

from oracles import exact_projection

WORKERS = max(1, min(4, os.cpu_count() or 1))


def draw_scaled_instance(rng, n_constraints, control_dim):
    """One uniform draw from the normalized training box."""
    a = rng.uniform(-1.0, 1.0, n_constraints)
    rows = rng.normal(size=(n_constraints, control_dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, n_constraints) ** (1.0 / control_dim)
    r = float(rng.uniform(0.0, 1.0))
    return ScaledParams(ConstraintParams(a, rows * radii[:, None]), r)


def draw_feasible_instance(rng, n_constraints, control_dim, scale=1.0):
    """Random instance that is strictly feasible by construction.

    Draws the constraint rows and an interior point first, then back-solves
    the offsets with strictly positive slacks, so every instance admits the
    returned point with margins at or below -0.1 * scale.
    """
    b = scale * rng.uniform(-1.0, 1.0, (n_constraints, control_dim))
    interior = rng.uniform(-1.0, 1.0, control_dim)
    slack = scale * rng.uniform(0.1, 1.0, n_constraints)
    return ConstraintParams(-(b @ interior) - slack, b), interior


@pytest.fixture(scope="module")
def desk_dataset():
    """Reference-scale labeled dataset: 5000 planar two-constraint rows."""
    return sample_dataset(2, 2, 5000, seed=11, workers=WORKERS)


@pytest.fixture(scope="module")
def desk_training(desk_dataset):
    """Reference-scale fit: 300 full-batch epochs on the default net."""
    return train(init_model(2, 2, seed=1), desk_dataset, TrainConfig(epochs=300, seed=0))


def test_criterion_01_newton_matches_scalar_universal_formula():
    rng = np.random.default_rng(0)
    begin = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 1000:
        A = float(rng.uniform(-10.0, 10.0))
        B = float(rng.uniform(-10.0, 10.0))
        if A >= 0.0 and B == 0.0:
            continue
        p = ConstraintParams(np.array([A]), np.array([[B]]))
        result = solve_exact(p)
        assert result.status is SolveStatus.CONVERGED
        worst = max(worst, abs(float(result.k_star[0]) - closed_form_1d(A, B)))
        checked += 1
    elapsed = time.perf_counter() - begin
    assert worst <= 1e-6, f"largest gap to the scalar formula was {worst:.3e}"
    assert elapsed < 5.0, f"1000 scalar solves took {elapsed:.2f} s"


def test_criterion_02_hessian_positive_definite_and_matches_fd():
    rng = np.random.default_rng(1)
    dims = (1, 2, 5, 10)
    combos = [(n, m) for n in dims for m in dims]
    begin = time.perf_counter()
    checked = 0
    while checked < 1000:
        n, m = combos[checked % len(combos)]
        p, interior = draw_feasible_instance(rng, n, m)
        k = interior + 0.05 * rng.normal(size=m)
        if float(np.max(margins(p, k))) > -1e-3:
            k = interior
        hessian = hess_J(p, k)
        assert float(np.linalg.eigvalsh(hessian).min()) > 0.0
        fd = np.empty_like(hessian)
        for j in range(m):
            h = 1e-6 * (1.0 + abs(float(k[j])))
            step = np.zeros(m)
            step[j] = h
            fd[:, j] = (grad_J(p, k + step) - grad_J(p, k - step)) / (2.0 * h)
        err = float(np.linalg.norm(fd - hessian) / max(1.0, np.linalg.norm(hessian)))
        assert err <= 1e-4, f"finite-difference Hessian mismatch {err:.3e}"
        checked += 1
    elapsed = time.perf_counter() - begin
    assert elapsed < 30.0, f"1000 Hessian checks took {elapsed:.2f} s"


def test_criterion_03_normalization_preserves_objective_and_minimizer():
    rng = np.random.default_rng(2)
    combos = [(1, 1), (2, 2), (3, 2), (2, 1), (5, 5), (10, 10)]
    checked = 0
    unit_box_checked = 0
    while checked < 1000:
        n, m = combos[checked % len(combos)]
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        p, k = draw_feasible_instance(rng, n, m, scale=scale)
        q, M = scale_params(p)
        value = eval_J(p, k)
        scaled_value = eval_J_scaled(q, k)
        # the normalized objective carries exactly one factor of M
        assert math.isclose(value, M * scaled_value, rel_tol=1e-12), (
            f"objective identity off at M={M:.3e}: {value!r} vs {M * scaled_value!r}"
        )
        if M == 1.0:
            assert math.isclose(value, scaled_value, rel_tol=1e-12)
            unit_box_checked += 1
        original = solve_exact(p)
        normalized = solve_exact(q)
        assert original.status is SolveStatus.CONVERGED
        assert normalized.status is SolveStatus.CONVERGED
        gap = float(np.linalg.norm(original.k_star - normalized.k_star))
        assert gap <= 1e-8, f"minimizer moved {gap:.3e} under normalization"
        checked += 1
    assert unit_box_checked >= 50  # the literal identity was exercised, not vacuous


def test_criterion_04_converged_solves_satisfy_every_constraint_strictly():
    rng = np.random.default_rng(3)
    combos = [(1, 1), (2, 2), (3, 2), (5, 2), (5, 5), (10, 10), (2, 1), (10, 2)]
    converged = 0
    for i in range(800):
        n, m = combos[i % len(combos)]
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        if i % 2:
            p, _ = draw_feasible_instance(rng, n, m, scale=scale)
        else:
            # raw box draws (filtered) keep thin, nearly-infeasible
            # polytopes in the population; small dims keep the filter cheap
            n, m = min(n, 5), min(m, 2)
            p = ConstraintParams(
                scale * rng.uniform(-1.0, 1.0, n), scale * rng.uniform(-1.0, 1.0, (n, m))
            )
            if not find_interior_point(p):
                continue
        result = solve_exact(p)
        if result.status is SolveStatus.CONVERGED:
            assert float(np.max(margins(p, result.k_star))) < 0.0
            converged += 1
    assert converged >= 600  # the sweep actually exercised the solver

    flows = 0
    while flows < 100:
        q = draw_scaled_instance(rng, 2, 2)
        outcome = find_interior_point(q.base)
        if not outcome:
            continue
        result = solve_gradient_flow(q, tol=1e-6, warmstart=outcome.best_point)
        if result.status is SolveStatus.CONVERGED:
            assert float(np.max(margins(q.base, result.k_star))) < 0.0
            flows += 1


def test_criterion_05_symmetric_instance_analytic_values():
    p = ConstraintParams(np.array([-1.0, -1.0]), np.array([[1.0], [-1.0]]))
    result = solve_exact(p)
    assert result.status is SolveStatus.CONVERGED
    assert abs(float(result.k_star[0])) <= 1e-10
    assert abs(float(result.objective) - 1.0) <= 1e-10
    curvature = float(hess_J(p, np.zeros(1))[0, 0])
    assert abs(curvature - 4.0) <= 1e-8


def test_criterion_06_projection_matches_active_set_enumeration():
    rng = np.random.default_rng(4)
    combos = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]
    checked = 0
    worst = 0.0
    while checked < 500:
        n, m = combos[checked % len(combos)]
        p = ConstraintParams(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, m)))
        if not find_interior_point(p):
            continue
        target = rng.uniform(-2.0, 2.0, m)
        via_qp = project_onto_polytope(p, target)
        via_enum = exact_projection(p, target)
        assert via_enum is not None
        worst = max(worst, float(np.linalg.norm(via_qp - via_enum)))
        checked += 1
    assert worst <= 1e-9, f"largest projection disagreement {worst:.3e}"


def test_criterion_07_planar_loop_safe_and_stabilizing():
    problem = make_example_1(2)
    obstacles = default_obstacles_2d()
    starts = [(1.0, 0.0), (-1.0, 0.0), (0.0, -1.0), (0.5, 0.5)]
    begin = time.perf_counter()
    for start in starts:
        x0 = np.asarray(start, dtype=float)
        assert min(float(np.linalg.norm(x0 - c)) for c, _ in obstacles) >= 2.0
        traj = simulate(problem, exact_controller(problem), x0, T=20.0, dt=1e-2)
        assert traj.error is None
        stats = trajectory_metrics(traj, lyapunov=problem.lyapunov, barriers=problem.barriers)
        assert stats.violations == 0
        assert float(np.linalg.norm(traj.states[-1])) <= 1e-2

        safe = simulate(problem, qp_controller(problem), x0, T=20.0, dt=1e-2)
        assert safe.error is None
        qp_stats = trajectory_metrics(safe, lyapunov=problem.lyapunov, barriers=problem.barriers)
        assert qp_stats.violations == 0
    elapsed = time.perf_counter() - begin
    assert elapsed < 60.0, f"planar closed-loop sweep took {elapsed:.2f} s"


def test_criterion_08_ten_dimensional_loop_safe_and_descending():
    problem = make_example_1(10)
    obstacles = sample_obstacles_10d()
    rng = np.random.default_rng(42)
    starts = []
    while len(starts) < 3:
        x = rng.uniform(-3.0, 3.0, 10)
        if all(float(np.linalg.norm(x - c)) >= r + 0.4 for c, r in obstacles):
            starts.append(x)
    for x0 in starts:
        traj = simulate(problem, exact_controller(problem), x0, T=10.0, dt=1e-2)
        assert traj.error is None
        stats = trajectory_metrics(traj, lyapunov=problem.lyapunov, barriers=problem.barriers)
        assert float(stats.min_h.min()) >= -1e-6
        assert np.all(np.diff(stats.lyapunov) <= 1e-9)


def test_criterion_09_unicycle_reaches_origin_safely():
    problem = make_example_2()
    for x, y in [(2.0, 2.0), (-2.0, 1.0), (1.0, -1.0)]:
        x0 = np.array([x, y, math.pi + 0.1])
        traj = simulate(problem, exact_controller(problem), x0, T=30.0, dt=1e-2)
        assert traj.error is None
        stats = trajectory_metrics(traj, lyapunov=problem.lyapunov, barriers=problem.barriers)
        assert float(stats.min_h.min()) >= -1e-6
        assert float(np.linalg.norm(traj.states[-1][:2])) <= 5e-2


def test_criterion_10_dynamic_input_tracks_quasi_static_solution():
    problem = make_example_1(2)
    x0 = np.array([1.0, 0.0])
    reference = simulate(problem, exact_controller(problem), x0, T=5.0, dt=1e-2)
    assert reference.error is None
    u0 = u_star(problem, x0)
    deviations = []
    for tau in (1e2, 1e3, 1e4):
        traj = simulate_interconnection(problem, tau, x0, u0, T=5.0, dt=1e-2)
        assert traj.error is None
        count = min(len(traj), len(reference))
        gap = traj.states[:count] - reference.states[:count]
        deviations.append(float(np.max(np.linalg.norm(gap, axis=1))))
    assert deviations[0] > deviations[1] > deviations[2], (
        f"deviation not monotone in the descent rate: {deviations}"
    )
    assert deviations[2] <= 0.05


@pytest.mark.slow
def test_criterion_11_learning_pipeline_properties(desk_dataset, desk_training):
    model = desk_training.model

    # hard-mode inference: projected predictions satisfy every constraint
    satisfied = 0
    for row in desk_dataset.inputs:
        q = unflatten_scaled(row, 2, 2)
        projected = project_onto_polytope(q.base, mlp_forward(model, row))
        if float(np.max(margins(q.base, projected))) <= 1e-9:
            satisfied += 1
    assert satisfied == len(desk_dataset)

    # analytic gradients agree with central finite differences
    check = init_model(2, 2, hidden_widths=(6,), seed=9)
    X = desk_dataset.inputs[:12]
    Y = desk_dataset.labels[:12]
    weights = [w.copy() for w in check.weights]
    biases = [c.copy() for c in check.biases]
    flags = check.residual_flags
    _, grads_w, grads_b = _mse_and_grads(weights, biases, flags, X, Y)
    h = 1e-6
    for arrays, grads in ((weights, grads_w), (biases, grads_b)):
        for arr, grad in zip(arrays, grads):
            flat = arr.reshape(-1)
            flat_grad = grad.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + h
                up = _mse_and_grads(weights, biases, flags, X, Y)[0]
                flat[idx] = keep - h
                down = _mse_and_grads(weights, biases, flags, X, Y)[0]
                flat[idx] = keep
                fd = (up - down) / (2.0 * h)
                assert abs(flat_grad[idx] - fd) <= 1e-5 * max(1.0, abs(fd))

    # validation error drops by an order of magnitude from the first epoch
    val = desk_training.val_loss
    improvement = float(val[0] / min(val))
    assert min(val) <= val[0] / 10.0, (
        f"validation MSE improved only {improvement:.2f}x from epoch 1 (first"
        f" {float(val[0]):.2f}, best {float(min(val)):.2f}); the held-out split's"
        " second moment is dominated by a few near-degenerate rows whose"
        " minimizers are orders of magnitude larger than typical labels, and"
        " no out-of-sample fit at this data scale recovers them"
    )


@pytest.mark.slow
def test_criterion_12_warmstart_effort_and_inference_speed(desk_training, tmp_path_factory):
    model = desk_training.model

    # a forward pass is far cheaper than a full solve on the shared bench states
    model_path = tmp_path_factory.mktemp("bench") / "model.json"
    save_model(model, model_path)
    report = run_bench("1-2d", ["ustar", "nn"], samples=50, seed=0, model_path=str(model_path))
    forward_ms = report["nn"].median_ms
    solve_ms = report["ustar"].median_ms
    assert forward_ms < solve_ms, (
        f"forward pass median {forward_ms:.4f} ms vs exact solve median {solve_ms:.4f} ms"
    )

    # prediction-seeded Newton should need no more iterations than a cold start
    rng = np.random.default_rng(77)
    cold_counts = []
    warm_counts = []
    while len(cold_counts) < 500:
        p = ConstraintParams(rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, (2, 2)))
        if not find_interior_point(p):
            continue
        cold = solve_exact(p)
        if cold.status is not SolveStatus.CONVERGED:
            continue
        warm = warmstart_solve(model, p)
        assert warm.status is SolveStatus.CONVERGED
        assert float(np.linalg.norm(warm.k_star - cold.k_star)) <= 1e-6
        cold_counts.append(cold.iterations)
        warm_counts.append(warm.iterations)
    cold_median = float(np.median(cold_counts))
    warm_median = float(np.median(warm_counts))
    assert warm_median <= cold_median, (
        f"prediction-seeded Newton median {warm_median:.0f} iterations vs cold-start"
        f" median {cold_median:.0f}; both counts are Newton-loop iterations, and a"
        " prediction that is not strictly interior gives the cold solve, so look at"
        " how far the strictly interior predictions land from the minimizer"
    )


def test_criterion_13_gradient_flow_agrees_with_newton():
    rng = np.random.default_rng(13)
    checked = 0
    ill_conditioned = 0
    worst = 0.0
    while checked < 500:
        q = draw_scaled_instance(rng, 2, 2)
        outcome = find_interior_point(q.base)
        if not outcome:
            continue
        flow = solve_gradient_flow(q, tol=1e-6, warmstart=outcome.best_point)
        if flow.status is not SolveStatus.CONVERGED:
            continue
        newton = solve_exact(q, warmstart=outcome.best_point)
        assert newton.status is SolveStatus.CONVERGED
        gap = float(np.linalg.norm(flow.k_star - newton.k_star))
        if gap > 1e-4:
            # A gradient tolerance only pins the position up to
            # grad/curvature.  The labeling pipeline rejects rows whose
            # measured curvature cannot support the comparison; mirror
            # that here, and fail on any gap conditioning cannot explain.
            curvature = float(np.linalg.eigvalsh(hess_J(q, newton.k_star)).min())
            slack = 10.0 * (flow.grad_norm + 1e-6) / max(curvature, 1e-300)
            assert gap <= slack, (
                f"flow/Newton disagreement {gap:.3e} with curvature {curvature:.3e}"
                " is not explained by conditioning"
            )
            ill_conditioned += 1
            continue
        worst = max(worst, gap)
        checked += 1
    assert worst <= 1e-4, f"largest flow/Newton disagreement {worst:.3e}"
    assert ill_conditioned <= 10  # the conditioning escape stays rare
