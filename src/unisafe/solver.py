"""Minimizers of the safe-control objective.

Two independent routes to the same point: a damped Newton method with a
fraction-to-boundary step cap (the production path), and adaptive
integration of the gradient flow ``k' = -grad J(k)`` (the route used to
label training data).  For a single scalar constraint the minimizer has
a closed form, kept here as a cross-check.  Both routes open through
``_start``, which makes the one choice of start: the caller's
warmstart when it is strictly interior, otherwise the certified point
of ``find_interior_point`` (the closed-form start, or the phase-I LP's
point when the rows are not independent).  A Newton iteration whose
Hessian fails its Cholesky factorization falls back to a gradient step.

``_start`` prepares the instance once per solve (``objective._prepare``)
and evaluates the start on it.  Newton evaluates every line-search
trial on the same instance, without the checks of the public
``evaluate``: its iterates have the right shape and stay finite by
construction, and a trial outside the domain is a failed trial, not an
error.  The gradient flow evaluates the clamped raw derivatives of
``objective._raw_derivatives`` on its prepared instance.  It steps
LSODA in its own loop, and pays for the Hessian and the linear solve of
its stop test only once the gradient norm alone no longer rules the
stop out.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import LSODA
from scipy.optimize import brentq

from .errors import InfeasibleError
from .objective import _evaluate_prepared, _prepare, _raw_derivatives, evaluate
from .params import ScaledParams, _potrf, _potrs, require_interior_point


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve.

    For ``solve_exact``, ``iterations`` is the number of Newton-loop
    iterations (each a Newton or fallback gradient step); nothing runs
    before the loop but the choice of start.  For
    ``solve_gradient_flow`` it is the number of integrator steps.
    """

    k_star: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    status: SolveStatus


def closed_form_1d(A: float, B: float) -> float:
    """Minimizer for a single scalar constraint ``A + B k < 0``.

    This is the classic damping-style formula
    ``k* = -(A + sqrt(A^2 + B^4)) / B`` for B != 0 and 0 for B = 0
    (which requires A < 0 for the constraint to be satisfiable at all).
    """
    A = float(A)
    B = float(B)
    if B == 0.0:
        if A >= 0.0:
            raise InfeasibleError(f"A + B k < 0 unsatisfiable with B = 0, A = {A}", max_margin=A)
        return 0.0
    root = math.hypot(A, B * B)
    if A < 0.0:
        # Algebraically equal form that avoids cancellation for A < 0.
        return B**3 / (A - root)
    return -(A + root) / B


def _degenerate(m: int) -> SolveResult:
    return SolveResult(np.full(m, np.nan), np.nan, np.nan, 0, SolveStatus.DEGENERATE)


def _start(pq, warmstart) -> tuple:
    """The prepared instance, the start and the start's order-2 evaluation.

    An instance with r = 0 whose b rows do not span has no unique
    minimizer; it is found degenerate before any feasibility search, so
    even when it is infeasible, and the start and evaluation are None.
    A finite warmstart of the right shape is used as given when every
    margin, divided by its row's coefficient scale max(|a_i|, |b_i|),
    lies below -1e-12 and the objective's domain test accepts it.  Any
    other warmstart (exterior, grazing, NaN or misshapen) is ignored,
    and the start is the interior point ``require_interior_point``
    certifies, exactly as for a cold solve.  Its margins are at most
    -FEAS_TOL, so its evaluation is never None.
    """
    prepared = _prepare(pq)
    a, b, _, r = prepared
    if r == 0.0 and np.linalg.matrix_rank(b) < b.shape[1]:
        return prepared, None, None
    if warmstart is not None:
        k = np.asarray(warmstart, dtype=float)
        if k.shape == (b.shape[1],) and np.isfinite(k).all():
            row_scale = np.maximum(np.abs(a), np.linalg.norm(b, axis=1))
            # An all-zero row is never strictly satisfied; any positive
            # scale keeps the division finite and the row flagged.
            row_scale[row_scale == 0.0] = 1.0
            if ((a + b @ k) / row_scale).max() < -1e-12:
                ev = _evaluate_prepared(prepared, k)
                if ev is not None:
                    return prepared, k, ev
    k = require_interior_point(pq.base if isinstance(pq, ScaledParams) else pq)
    return prepared, k, _evaluate_prepared(prepared, k)


# The share of the distance to the nearest facet that one step may cover,
# and the Armijo sufficient-decrease constant.
BOUNDARY_FRACTION = 0.99
ARMIJO = 1e-4
# Objective differences below this share of max(1, |J|) are rounding
# noise (see _line_search).
NOISE = 64.0 * np.finfo(float).eps


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector, rounded as np.linalg.norm rounds it.

    Like np.linalg.norm it takes the dot product of a contiguous copy: a
    strided one can round differently.
    """
    v = v.ravel()
    return math.sqrt(v @ v)


def _max_step(d: np.ndarray, slopes: np.ndarray) -> float:
    """Largest step keeping every margin strictly negative, capped at 1.

    Along direction s the margin moves as d_i + alpha * slopes_i; the cap
    allows at most ``BOUNDARY_FRACTION`` of the distance to the nearest
    blocking facet.
    """
    blocking = slopes > 0.0
    if not blocking.any():
        return 1.0
    return min(1.0, BOUNDARY_FRACTION * float((-d[blocking] / slopes[blocking]).min()))


def _line_search(prepared, k, ev, direction):
    """Armijo backtracking from the fraction-to-boundary cap.

    ``prepared`` is the solve's ``objective._prepare`` tuple.

    Near the minimizer the objective differences fall below floating
    point resolution while the gradient is still informative, so once
    the predicted decrease is under the noise floor a step is accepted
    on gradient-norm decrease instead.  Returns the accepted point and
    its evaluation, or None on stall.  A trial outside the domain
    counts as a failed trial.
    """
    slope = float(ev.grad @ direction)
    if slope >= 0.0:
        return None
    grad_norm = _norm(ev.grad)
    noise = NOISE * max(1.0, abs(ev.value))
    alpha = _max_step(ev.margins, prepared[1] @ direction)
    floor = 1e-16
    while alpha > floor:
        trial = k + alpha * direction
        trial_ev = _evaluate_prepared(prepared, trial)
        if trial_ev is not None:
            if trial_ev.value <= ev.value + ARMIJO * alpha * slope:
                return trial, trial_ev
            if abs(ARMIJO * alpha * slope) <= noise and _norm(trial_ev.grad) < grad_norm:
                return trial, trial_ev
        alpha *= 0.5
    return None


# Newton stopping rules: the gradient-norm tolerance, the iteration
# budget, and the Newton step length, relative to 1 + ||k||, treated as
# the floating-point floor.
GRAD_TOL = 1e-10
MAX_ITER = 100
STEP_TOL = 1e-13


def solve_exact(pq, warmstart=None) -> SolveResult:
    """Damped Newton minimization of the (scaled or unscaled) objective.

    Every iterate stays strictly inside the polytope thanks to the
    fraction-to-boundary cap, so all margins of a converged result are
    strictly negative by construction.  An iteration whose Hessian fails
    its Cholesky factorization takes a gradient step instead of failing.

    The loop starts from ``_start``'s point and evaluation: a strictly
    interior warmstart as given, or else the certified point, as for a
    cold solve.  ``iterations`` in the result counts the Newton loop's
    iterations, which ``MAX_ITER`` bounds.  The status is CONVERGED when
    the gradient norm meets ``GRAD_TOL`` or the Newton step has reached
    the floating-point floor, ``STEP_TOL * (1 + ||k||)``.
    """
    prepared, k, ev = _start(pq, warmstart)
    if k is None:
        return _degenerate(prepared[1].shape[1])

    iterations = 0
    at_floor = False
    while iterations < MAX_ITER:
        # Nonzero info: a leading minor is not positive definite.  Such a
        # Hessian, or a direction that is not strictly downhill (NaN
        # included), leaves the iteration a gradient step.
        newton_dir = None
        factor, info = _potrf(ev.hess, clean=False)
        if info == 0:
            newton_dir = _potrs(factor, -ev.grad)[0]
            if not float(ev.grad @ newton_dir) < 0.0:
                newton_dir = None

        # The Newton step length estimates the remaining distance to the
        # minimizer, so a step at the floating-point floor ends the solve
        # whatever the gradient norm: with large curvature the gradient's
        # rounding noise alone can exceed GRAD_TOL.  Until then keep
        # stepping even once the gradient test is met, since with small
        # curvature that test alone can leave the iterate measurably off
        # the minimizer.
        if newton_dir is not None and _norm(newton_dir) <= STEP_TOL * (1.0 + _norm(k)):
            at_floor = True
            break
        grad_small = _norm(ev.grad) <= GRAD_TOL
        if grad_small and newton_dir is None:
            break

        accepted = None
        if newton_dir is not None:
            accepted = _line_search(prepared, k, ev, newton_dir)
        if accepted is None and not grad_small:
            accepted = _line_search(prepared, k, ev, -ev.grad)
        iterations += 1
        if accepted is None:
            break
        k, ev = accepted

    grad_norm = _norm(ev.grad)
    converged = at_floor or grad_norm <= GRAD_TOL
    status = SolveStatus.CONVERGED if converged else SolveStatus.MAX_ITER
    return SolveResult(k, ev.value, grad_norm, iterations, status)


def solve_gradient_flow(pq, tol: float = 1e-6, warmstart=None) -> SolveResult:
    """Integrate ``k' = -grad J(k)`` until the gradient norm reaches tol.

    Adaptive integration with a terminal stop on the gradient norm.  The
    integrator is LSODA with the analytic Hessian as Jacobian: the flow
    becomes arbitrarily stiff for small curvature weights r (slow
    convergence mode under a fast contraction mode), and an explicit
    Runge-Kutta pair has no bounded-step answer there.  The flow keeps
    the objective decreasing, hence stays inside the polytope; trial
    points that overshoot the boundary are rejected by the step-size
    control, never evaluated for real.

    The loop steps LSODA on an instance prepared once per solve, and
    locates the stop as ``solve_ivp`` locates a terminal event with
    direction -1: ``brentq`` on the step's dense output.  ``iterations``
    counts accepted steps (at least one); a failed step ends the solve
    at the last accepted point.  ``tol`` must be finite and positive.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    prepared, k, ev = _start(pq, warmstart)
    if k is None:
        return _degenerate(prepared[1].shape[1])
    threshold = 0.01 * tol

    # Stop once both the gradient norm and the Newton-step estimate of
    # the distance to the minimizer sit two decades inside the requested
    # tolerance.  A gradient-norm test alone localizes the minimizer to
    # (achieved norm) / (smallest Hessian eigenvalue), which degrades
    # badly on ill-conditioned instances, while the extra integration
    # time here is only logarithmic (the tail decay is exponential).
    def stop_value(k):
        g, h = _raw_derivatives(prepared, k)
        gn = _norm(g)
        try:
            step = _norm(np.linalg.solve(h, g))
        except np.linalg.LinAlgError:
            step = gn
        return max(gn, step) - threshold

    # A value with the stop value's sign.  Since max(gn, step) >= gn, a
    # gradient norm above the threshold settles the sign without the
    # Hessian or the solve.
    def stop_sign(k):
        gn = _norm(_raw_derivatives(prepared, k, order=1)[0])
        return gn - threshold if gn > threshold else stop_value(k)

    value = stop_sign(k)
    if value <= 0.0:
        return SolveResult(k, ev.value, _norm(ev.grad), 0, SolveStatus.CONVERGED)

    solver = LSODA(lambda _t, k: -_raw_derivatives(prepared, k, order=1)[0], 0.0, k, 1e7,
                   rtol=1e-9, atol=1e-12, jac=lambda _t, k: -_raw_derivatives(prepared, k)[1])
    steps = 0
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            break
        steps += 1
        k = solver.y
        new_value = stop_sign(k)
        # NaN on either side is no crossing, as for solve_ivp.
        if value >= 0.0 and new_value <= 0.0:
            sol = solver.dense_output()
            eps4 = 4.0 * np.finfo(float).eps
            root = brentq(lambda t: stop_value(sol(t)), solver.t_old, solver.t, xtol=eps4, rtol=eps4)
            k = sol(root)
            break
        value = new_value

    ev = evaluate(pq, k, order=1)
    grad_norm = _norm(ev.grad)
    status = SolveStatus.CONVERGED if grad_norm <= tol else SolveStatus.MAX_ITER
    return SolveResult(k, ev.value, grad_norm, max(steps, 1), status)
