"""Closed-loop simulation of control-affine plants under constrained controllers.

Builds the affine admissibility constraints from Lyapunov and barrier
certificates, packages two benchmark problems (single integrator among
spherical obstacles at 2 and 10 states, and a planar unicycle with
drift), integrates trajectories with fixed-step RK4, and reports safety
and stability metrics.  A dynamical variant integrates the input as a
co-state that descends the admissibility objective instead of solving
for the minimizer at every step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InfeasibleError, NumericError
from .files import read_table, schema_errors, write_table
from .objective import grad_raw
from .params import ConstraintParams, margins
from .qp import solve_min_norm_qp
from .solver import SolveResult, solve_exact


@dataclass(frozen=True)
class ControlAffineSystem:
    """Plant ``xdot = f(x) + g(x) u``.

    drift maps a state to the n-vector f(x); input_matrix maps a state
    to the (n, m) matrix g(x).
    """

    state_dim: int
    input_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_matrix: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.state_dim < 1 or self.input_dim < 1:
            raise ValueError("state and input dimensions must be at least 1")


@dataclass(frozen=True)
class ControlProblem:
    """A plant together with its state-dependent input constraints.

    constraint_map sends a state to the affine family a_i(x) + b_i(x)^T u < 0.
    lyapunov and barriers are optional scalar certificates used only for
    reporting (value decrease, safety margins); the constraints themselves
    already encode them.
    """

    system: ControlAffineSystem
    constraint_map: Callable[[np.ndarray], ConstraintParams]
    lyapunov: Callable[[np.ndarray], float] | None = None
    barriers: tuple[Callable[[np.ndarray], float], ...] = ()


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step closed-loop record.

    All arrays share the same leading length.  ``inputs[k]`` is the input
    applied while leaving ``states[k]`` and ``margins[k]`` its constraint
    values there; the final row repeats the last applied input so the
    columns stay aligned (no input is computed at the terminal state).
    When a run could not reach its horizon, ``error`` carries the reason
    and ``error_state`` the state at which the controller failed.
    ``solver_iters`` must hold whole numbers; anything else (2.7, NaN)
    raises ValueError instead of being truncated.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    margins: np.ndarray
    solver_iters: np.ndarray
    solver_ms: np.ndarray
    error: str | None = None
    error_state: np.ndarray | None = None

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        margin_arr = np.atleast_2d(np.asarray(self.margins, dtype=float))
        iters = np.atleast_1d(np.asarray(self.solver_iters, dtype=float))
        # NaN fails both tests; the bound keeps the int64 cast exact
        if not np.all((np.abs(iters) < 2.0**63) & (iters == np.floor(iters))):
            raise ValueError("solver_iters must be whole numbers")
        iters = iters.astype(int)
        ms = np.atleast_1d(np.asarray(self.solver_ms, dtype=float))
        n = times.shape[0]
        for name, arr in (
            ("states", states),
            ("inputs", inputs),
            ("margins", margin_arr),
            ("solver_iters", iters),
            ("solver_ms", ms),
        ):
            if arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} rows for {n} time points")
        if n > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "margins", margin_arr)
        object.__setattr__(self, "solver_iters", iters)
        object.__setattr__(self, "solver_ms", ms)

    def __len__(self) -> int:
        return self.times.shape[0]


# ---------------------------------------------------------------------------
# constraint row builders


def clf_constraint(value, gradient, rate, system, x):
    """Affine row enforcing decrease of a Lyapunov function.

    Given V with gradient ``gradient`` and positive definite rate W, the
    condition grad V . (f + g u) <= -W(x) becomes a + b^T u <= 0 with

        a = grad V(x) . f(x) + W(x),   b = g(x)^T grad V(x).

    Returns the pair (a, b).
    """
    x = np.asarray(x, dtype=float)
    gv = np.asarray(gradient(x), dtype=float)
    a = float(gv @ system.drift(x)) + float(rate(x))
    b = np.asarray(system.input_matrix(x), dtype=float).T @ gv
    if not (np.isfinite(a) and np.all(np.isfinite(b))):
        raise NumericError("Lyapunov constraint row is not finite")
    return a, b


def cbf_constraint(value, gradient, alpha, system, x):
    """Affine row enforcing forward invariance of ``{value >= 0}``.

    The barrier condition grad h . (f + g u) >= -alpha(h(x)) is negated
    into the shared a + b^T u <= 0 convention:

        a = -grad h(x) . f(x) - alpha(h(x)),   b = -g(x)^T grad h(x).

    Returns the pair (a, b).
    """
    x = np.asarray(x, dtype=float)
    gh = np.asarray(gradient(x), dtype=float)
    a = -float(gh @ system.drift(x)) - float(alpha(float(value(x))))
    b = -(np.asarray(system.input_matrix(x), dtype=float).T @ gh)
    if not (np.isfinite(a) and np.all(np.isfinite(b))):
        raise NumericError("barrier constraint row is not finite")
    return a, b


# ---------------------------------------------------------------------------
# benchmark problems


def _single_integrator(n: int) -> ControlAffineSystem:
    eye = np.eye(n)
    return ControlAffineSystem(n, n, lambda x: np.zeros(n), lambda x: eye)


def _sphere_product_barrier(centers: np.ndarray, radii: np.ndarray):
    """Product of the quadratic sphere clearances ``|x - c_i|^2 - r_i^2``."""

    def value(x):
        d = x[None, :] - centers
        parts = np.einsum("ij,ij->i", d, d) - radii**2
        return float(np.prod(parts))

    return value


def _reciprocal_barrier(center: np.ndarray, radius: float):
    """Clearance ``8 (1 - r^2 / |x - c|^2)``, bounded above and steep at contact."""

    def value(x):
        s = float(np.sum((x - center) ** 2))
        return 8.0 * (1.0 - radius * radius / s)

    return value


def _stacked_rows(system, x, grads, offsets):
    """Rows ``a = grads f(x) + offsets`` and ``b = grads g(x)`` in one matmul each.

    Row i of ``grads`` is the certificate gradient signed into the shared
    a + b^T u <= 0 convention (grad V for a Lyapunov row, -grad h for a
    barrier row); ``offsets`` holds W(x) or -alpha(h(x)) to match.
    """
    a = grads @ system.drift(x) + offsets
    b = grads @ system.input_matrix(x)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("example constraint rows are not finite")
    return ConstraintParams(a, b)


def default_obstacles_2d() -> list[tuple[np.ndarray, float]]:
    """Three unit-radius discs flanking the origin."""
    return [
        (np.array([0.0, 2.5]), 1.0),
        (np.array([-2.0, -2.0]), 1.0),
        (np.array([2.0, -2.0]), 1.0),
    ]


def sample_obstacles_10d(seed: int = 0, count: int = 9, radius: float = 0.8):
    """Obstacle centers drawn uniformly from [-2.5, 2.5]^10.

    Centers closer than 1.2 radii to the origin are rejected so the
    stabilization target itself stays safe.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        c = rng.uniform(-2.5, 2.5, 10)
        if float(np.linalg.norm(c)) > 1.2 * radius:
            out.append((c, radius))
    return out


def make_example_1(dimension: int = 2, obstacles: Sequence[tuple] | None = None) -> ControlProblem:
    """Single integrator steered to the origin among spherical obstacles.

    dimension 2 uses one product barrier over all obstacles (two
    constraint rows total); dimension 10 uses one reciprocal barrier per
    obstacle (ten rows with the default nine obstacles).  Both share the
    quadratic Lyapunov function ``|x|^2 / 2`` with decrease rate
    ``0.1 |x|^2``.  ``obstacles`` is a sequence of (center, radius) pairs;
    omitted, the presets above apply: ``default_obstacles_2d()`` or
    ``sample_obstacles_10d()``.

    Each constraint map is a single array pass over all obstacles: one
    ``drift`` and one ``input_matrix`` call, with the stacked certificate
    gradients giving every a and every b in one matmul each.  The rows
    equal those of ``clf_constraint``/``cbf_constraint`` to rounding.
    """
    if dimension == 2:
        obs = default_obstacles_2d() if obstacles is None else list(obstacles)
    elif dimension == 10:
        obs = sample_obstacles_10d() if obstacles is None else list(obstacles)
    else:
        raise ValueError("dimension must be 2 or 10")
    if not obs:
        raise ValueError("need at least one obstacle")
    centers = np.array([np.asarray(c, dtype=float) for c, _ in obs])
    radii = np.array([float(r) for _, r in obs])
    if np.any(radii <= 0):
        raise ValueError("obstacle radii must be positive")
    if centers.ndim != 2 or centers.shape[1] != dimension:
        raise ValueError("obstacle centers do not match the state dimension")

    system = _single_integrator(dimension)
    assert not np.any(system.drift(np.zeros(dimension)))
    r2 = radii**2

    # Barrier rows take alpha as the identity on the barrier value; the
    # Lyapunov row is grad V = x with rate W(x) = 0.1 |x|^2.
    if dimension == 2:

        def constraint_map(x):
            x = np.asarray(x, dtype=float)
            d = x[None, :] - centers
            parts = np.einsum("ij,ij->i", d, d) - r2
            # prod_{j != i} parts_j: the products before i times those after i
            others = np.ones_like(parts)
            others[1:] = np.cumprod(parts[:-1])
            others[:-1] *= np.cumprod(parts[:0:-1])[::-1]
            h_grad = (2.0 * d * others[:, None]).sum(axis=0)
            offsets = np.array([0.1 * float(x @ x), -float(np.prod(parts))])
            return _stacked_rows(system, x, np.array([x, -h_grad]), offsets)

        report_barriers = tuple(_sphere_product_barrier(c[None], r[None]) for c, r in zip(centers, radii))
    else:

        def constraint_map(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                d = x - centers
                s = np.sum(d * d, axis=1)
                h = 8.0 * (1.0 - r2 / s)
                h_grads = (16.0 * r2)[:, None] * d / (s * s)[:, None]
                grads = np.concatenate((-h_grads, x[None, :]))
                offsets = np.concatenate((-h, [0.1 * float(x @ x)]))
                return _stacked_rows(system, x, grads, offsets)

        report_barriers = tuple(_reciprocal_barrier(c, r) for c, r in zip(centers, radii))

    return ControlProblem(
        system,
        constraint_map,
        lyapunov=lambda x: 0.5 * float(x @ x),
        barriers=report_barriers,
    )


def make_example_2() -> ControlProblem:
    """Planar unicycle with drift, kept above a parabolic no-go region.

    States (x, y, theta), inputs (v, omega):

        xdot = v cos(theta),  ydot = -y + v sin(theta),  thetadot = omega.

    Safety requires ``h = -y + (2x + 1)^2 + 1 >= 0``; stabilization uses
    the quadratic Lyapunov function on the full state.
    """

    def drift(s):
        return np.array([0.0, -s[1], 0.0])

    def input_matrix(s):
        ct, st = math.cos(s[2]), math.sin(s[2])
        return np.array([[ct, 0.0], [st, 0.0], [0.0, 1.0]])

    system = ControlAffineSystem(3, 2, drift, input_matrix)
    assert not np.any(system.drift(np.zeros(3)))

    def h_val(s):
        return float(-s[1] + (2.0 * s[0] + 1.0) ** 2 + 1.0)

    # The Lyapunov row is grad V = s with rate W(s) = 0.1 |s|^2; the
    # barrier row takes alpha(h) = 2 h.
    def constraint_map(s):
        s = np.asarray(s, dtype=float)
        h_grad = np.array([4.0 * (2.0 * s[0] + 1.0), -1.0, 0.0])
        offsets = np.array([0.1 * float(s @ s), -2.0 * h_val(s)])
        return _stacked_rows(system, s, np.array([s, -h_grad]), offsets)

    return ControlProblem(
        system,
        constraint_map,
        lyapunov=lambda s: 0.5 * float(s @ s),
        barriers=(h_val,),
    )


# ---------------------------------------------------------------------------
# controllers


def state_feedback(problem: ControlProblem, solve):
    """Controller ``x -> solve(problem.constraint_map(x))``.

    An InfeasibleError from the map or the solve leaves with ``state``
    set to x.  ``controller.last`` holds the latest call's SolveResult,
    whose k_star the controller returns, or None when ``solve`` returns
    a bare input.  Callers pass solvers that look up ``solve_exact`` and
    ``solve_min_norm_qp`` at call time, so a wrapper installed on those
    module bindings sees every solve.
    """

    def controller(x):
        x = np.asarray(x, dtype=float)
        try:
            out = solve(problem.constraint_map(x))
        except InfeasibleError as err:
            err.state = x
            raise
        if isinstance(out, SolveResult):
            controller.last = out
            return out.k_star
        controller.last = None
        return out

    controller.last = None
    return controller


def exact_controller(problem: ControlProblem, warmstart: bool = True):
    """Pointwise-optimal controller: minimize the admissibility objective at x.

    By default each solve warmstarts from the previous call's input,
    ``controller.last.k_star``, which is typically still interior after a
    small state change; with ``warmstart=False`` every solve is cold.
    """

    def solve(p):
        prev = controller.last if warmstart else None
        return solve_exact(p, warmstart=None if prev is None else prev.k_star)

    controller = state_feedback(problem, solve)
    return controller


def qp_controller(problem: ControlProblem):
    """Minimum-norm baseline: the smallest input satisfying the constraints."""
    # The lambda reads the module binding per call (see state_feedback).
    return state_feedback(problem, lambda p: solve_min_norm_qp(p))


def u_star(problem, x, warmstart=None) -> np.ndarray:
    """Evaluate the pointwise-optimal safe input at state x.

    Builds the constraint parameters through the problem's constraint
    map and minimizes the objective.  Infeasibility errors are annotated
    with the offending state.
    """
    return state_feedback(problem, lambda p: solve_exact(p, warmstart=warmstart))(x)


# ---------------------------------------------------------------------------
# integration


def _rk4_step(fieldfn, z, h, k1):
    """One classic RK4 step whose first stage ``k1 = fieldfn(z)`` is given."""
    k2 = fieldfn(z + 0.5 * h * k1)
    k3 = fieldfn(z + 0.5 * h * k2)
    k4 = fieldfn(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _pack_trajectory(times, states, inputs, margin_rows, iters, ms, m, n_constraints, error, error_state):
    count = len(times)
    if inputs:
        pad = count - len(inputs)
        inputs = inputs + [inputs[-1]] * pad
        margin_rows = margin_rows + [margin_rows[-1]] * pad
        iters = iters + [iters[-1]] * pad
        ms = ms + [ms[-1]] * pad
    else:
        inputs = [np.full(m, np.nan)] * count
        margin_rows = [np.full(n_constraints, np.nan)] * count
        iters = [0] * count
        ms = [0.0] * count
    return Trajectory(
        np.asarray(times),
        np.stack(states),
        np.stack(inputs),
        np.stack(margin_rows),
        np.asarray(iters, dtype=int),
        np.asarray(ms),
        error=error,
        error_state=error_state,
    )


def simulate(
    problem: ControlProblem,
    controller,
    x0,
    T: float,
    dt: float = 1e-2,
    mode: str = "continuous",
    stop_radius: float = 1e-6,
) -> Trajectory:
    """Integrate the closed loop with fixed-step RK4.

    In ``continuous`` mode the controller is evaluated at every RK4 stage,
    the call at the step start serving as the first stage, so a step
    costs four calls; in ``sample_and_hold`` the input computed at the
    step start is held constant across the step.  Integration stops
    early once the state enters ``stop_radius`` of the origin (the
    optimal controller has no value there) or when the controller
    reports infeasibility, in which case the truncated trajectory
    carries the failure in ``error``.

    Per-step records take the controller call made at the step start:
    ``solver_ms`` is its wall time and ``solver_iters`` the iterations of
    the SolveResult the callable exposes as ``last`` (see
    ``state_feedback``), or 0 when it exposes none.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError("horizon must cover at least one step")
    if mode not in ("continuous", "sample_and_hold"):
        raise ValueError(f"unknown mode {mode!r}")

    f = problem.system.drift
    g = problem.system.input_matrix
    p0 = problem.constraint_map(x0)

    times = [0.0]
    states = [x0]
    inputs: list[np.ndarray] = []
    margin_rows: list[np.ndarray] = []
    iter_counts: list[int] = []
    call_ms: list[float] = []
    error = None
    error_state = None

    x = x0
    for step in range(n_steps):
        if float(np.linalg.norm(x)) < stop_radius:
            break
        try:
            tick = time.perf_counter()
            u = np.asarray(controller(x), dtype=float)
            elapsed_ms = 1e3 * (time.perf_counter() - tick)
        except InfeasibleError as err:
            error = f"controller failed at t={times[-1]:.6g}: {err}"
            error_state = np.asarray(err.state if err.state is not None else x, dtype=float)
            break
        inputs.append(u)
        margin_rows.append(margins(problem.constraint_map(x), u))
        last = getattr(controller, "last", None)
        iter_counts.append(0 if last is None else last.iterations)
        call_ms.append(elapsed_ms)

        if mode == "sample_and_hold":
            held = u

            def fieldfn(z, held=held):
                return f(z) + g(z) @ held

        else:

            def fieldfn(z):
                return f(z) + g(z) @ np.asarray(controller(z), dtype=float)

        try:
            x_next = _rk4_step(fieldfn, x, dt, f(x) + g(x) @ u)
        except InfeasibleError as err:
            # a stage evaluation fell outside the feasible set; the step
            # cannot complete, so drop its half-recorded row
            inputs.pop()
            margin_rows.pop()
            iter_counts.pop()
            call_ms.pop()
            error = f"controller failed inside step at t={times[-1]:.6g}: {err}"
            error_state = np.asarray(err.state if err.state is not None else x, dtype=float)
            break
        if not np.all(np.isfinite(x_next)):
            raise NumericError(f"state became non-finite at t={(step + 1) * dt:.6g}")
        x = x_next
        times.append((step + 1) * dt)
        states.append(x)

    return _pack_trajectory(
        times,
        states,
        inputs,
        margin_rows,
        iter_counts,
        call_ms,
        problem.system.input_dim,
        p0.n_constraints,
        error,
        error_state,
    )


def simulate_interconnection(
    problem: ControlProblem,
    tau: float,
    x0,
    u0,
    T: float,
    dt: float = 1e-2,
    stop_radius: float = 1e-6,
) -> Trajectory:
    """Integrate the plant jointly with a gradient-descending input.

    The input is a co-state obeying ``udot = -tau * grad J`` for the
    constraint family at the current plant state, so no per-step solve
    happens.  Large ``tau`` makes the joint field stiff with a local
    rate of ``tau`` times the top curvature of the objective (which
    itself grows without bound as the minimizer's margins shrink), so
    the coupled system is handed to a stiffness-switching adaptive
    integrator and sampled on the requested grid.  ``u0`` must be
    strictly admissible at ``x0``.  A terminal event watches the worst
    input margin; if the input ever reaches the constraint boundary the
    run is truncated at the preceding grid point with a diagnostic in
    ``error``.
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    tau = float(tau)
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError("horizon must cover at least one step")

    p0 = problem.constraint_map(x0)
    first_margins = margins(p0, u0)
    if float(np.max(first_margins)) >= 0.0:
        raise ValueError("u0 is not strictly admissible at x0")

    n = problem.system.state_dim
    m = problem.system.input_dim
    f = problem.system.drift
    g = problem.system.input_matrix

    def input_rate(x, u):
        if tau == 0.0:
            return np.zeros(m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            du = -tau * grad_raw(problem.constraint_map(x), u)
        # trial points just past the boundary can overflow the barrier
        # gradient; keep the field finite so step control stays in charge
        return np.nan_to_num(du, nan=0.0, posinf=1e15, neginf=-1e15)

    def fieldfn(t, z):
        x, u = z[:n], z[n:]
        return np.concatenate([f(x) + g(x) @ u, input_rate(x, u)])

    def boundary_event(t, z):
        return -float(np.max(margins(problem.constraint_map(z[:n]), z[n:])))

    boundary_event.terminal = True
    boundary_event.direction = -1.0

    grid = dt * np.arange(n_steps + 1)
    sol = solve_ivp(
        fieldfn,
        (0.0, float(grid[-1])),
        np.concatenate([x0, u0]),
        method="LSODA",
        t_eval=grid,
        events=[boundary_event],
        rtol=1e-8,
        atol=1e-10,
    )
    samples = sol.y.T
    if samples.size and not np.all(np.isfinite(samples)):
        raise NumericError("joint state became non-finite during integration")

    times: list[float] = []
    states = []
    inputs = []
    margin_rows = []
    error = None
    error_state = None
    consumed_all = True
    for t_i, z_i in zip(sol.t, samples):
        row = margins(problem.constraint_map(z_i[:n]), z_i[n:])
        worst = float(np.max(row))
        if times and worst >= 0.0:
            error = (
                f"input left the admissible polytope near t={t_i:.6g}"
                f" (worst margin {worst:.3e})"
            )
            error_state = z_i[:n].copy()
            consumed_all = False
            break
        times.append(float(t_i))
        states.append(z_i[:n].copy())
        inputs.append(z_i[n:].copy())
        margin_rows.append(row)
        if float(np.linalg.norm(z_i[:n])) < stop_radius:
            consumed_all = False
            break
    if consumed_all and error is None:
        if sol.status == 1:
            z_hit = sol.y_events[0][-1]
            worst = float(
                np.max(margins(problem.constraint_map(z_hit[:n]), z_hit[n:]))
            )
            error = (
                f"input reached the admissible-set boundary near"
                f" t={sol.t_events[0][-1]:.6g} (worst margin {worst:.3e})"
            )
            error_state = z_hit[:n].copy()
        elif sol.status < 0:
            error = f"joint integration failed near t={times[-1]:.6g}: {sol.message}"
            error_state = states[-1].copy()

    count = len(times)
    return Trajectory(
        np.asarray(times),
        np.stack(states),
        np.stack(inputs),
        np.stack(margin_rows),
        np.zeros(count, dtype=int),
        np.zeros(count),
        error=error,
        error_state=error_state,
    )


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class TrajectoryMetrics:
    """Safety and stability summary of one trajectory.

    min_h and lyapunov are per-sample series (empty when the problem
    does not supply the corresponding certificate).  violations counts
    samples with min_h < 0; lyapunov_increases counts steps on which the
    Lyapunov value grew by more than the reporting tolerance.
    """

    min_h: np.ndarray
    lyapunov: np.ndarray
    violations: int
    final_state_norm: float
    lyapunov_increases: int


def trajectory_metrics(
    traj: Trajectory,
    lyapunov=None,
    barriers: Sequence = (),
    increase_tol: float = 1e-9,
) -> TrajectoryMetrics:
    """Evaluate certificates along a trajectory.

    Pass the problem's ``lyapunov`` and ``barriers`` members (or any
    other scalar functions of the state).
    """
    if len(traj) < 1:
        raise ValueError("trajectory is empty")
    if barriers:
        min_h = np.array([min(float(h(x)) for h in barriers) for x in traj.states])
        violations = int(np.sum(min_h < 0.0))
    else:
        min_h = np.empty(0)
        violations = 0
    if lyapunov is not None:
        values = np.array([float(lyapunov(x)) for x in traj.states])
        increases = int(np.sum(np.diff(values) > increase_tol))
    else:
        values = np.empty(0)
        increases = 0
    return TrajectoryMetrics(
        min_h=min_h,
        lyapunov=values,
        violations=violations,
        final_state_norm=float(np.linalg.norm(traj.states[-1])),
        lyapunov_increases=increases,
    )


def _trajectory_header(n: int, m: int, n_con: int) -> list:
    return (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"u_{j}" for j in range(m)]
        + [f"margin_{i}" for i in range(n_con)]
        + ["V", "min_h", "solver_iters", "solver_ms"]
    )


def write_trajectory_csv(traj: Trajectory, path, lyapunov=None, barriers: Sequence = ()):
    """Write one row per recorded sample through ``unisafe.files``.

    Columns: t, state, input, constraint margins, Lyapunov value, worst
    barrier value, then solver iteration count and wall time.  The two
    certificate columns are nan when no certificate is supplied.
    """

    def row(i):
        x = traj.states[i]
        v = float(lyapunov(x)) if lyapunov is not None else float("nan")
        mh = min(float(h(x)) for h in barriers) if barriers else float("nan")
        cells = [traj.times[i], *x, *traj.inputs[i], *traj.margins[i], v, mh]
        return cells + [str(int(traj.solver_iters[i])), traj.solver_ms[i]]

    header = _trajectory_header(traj.states.shape[1], traj.inputs.shape[1], traj.margins.shape[1])
    write_table(path, header, (row(i) for i in range(len(traj))))


def _expected_trajectory_header(header: list) -> list:
    """The layout a header must have, sized by its own x_/u_/margin_ counts ([] if one is 0)."""
    counts = [sum(1 for c in header if c.startswith(prefix)) for prefix in ("x_", "u_", "margin_")]
    return _trajectory_header(*counts) if min(counts) >= 1 else []


def read_trajectory_csv(path) -> Trajectory:
    """Parse a trajectory file written by write_trajectory_csv.

    The derived V / min_h columns are dropped on read (they are
    recomputable from the states).  Malformed headers or rows raise
    FormatError; rows the Trajectory invariants reject (times that do
    not increase, ``solver_iters`` cells that are not whole numbers)
    raise SchemaError (see ``unisafe.files``).
    """
    header, data = read_table(path, "trajectory", _expected_trajectory_header)
    n, m = (sum(1 for c in header if c.startswith(prefix)) for prefix in ("x_", "u_"))
    with schema_errors("trajectory file"):
        return Trajectory(
            times=data[:, 0],
            states=data[:, 1 : 1 + n],
            inputs=data[:, 1 + n : 1 + n + m],
            margins=data[:, 1 + n + m : -4],
            solver_iters=data[:, -2],
            solver_ms=data[:, -1],
        )
