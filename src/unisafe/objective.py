"""Strictly convex objective whose minimizer is the universal safe input.

For constraint parameters ``(a_i, b_i)`` the unscaled objective is

    J(k) = -sum_i (||b_i||^2 + ||k||^2) / (2 (a_i + b_i^T k)),

defined on the open polytope where every margin ``a_i + b_i^T k`` is
strictly negative.  Each term is nonnegative there and blows up as its
margin approaches zero, so J acts as its own barrier.  The scaled
variant replaces ``||k||^2`` by ``r ||k||^2`` and keeps strict convexity
for r > 0.

Every derivative here is analytic, not autodiff: the gradient of term i
is ``-r k / d_i + (||b_i||^2 + r ||k||^2) b_i / (2 d_i^2)`` with
``d_i = a_i + b_i^T k``, and the Hessian of term i is ``-G_i(k) / d_i^3``
with

    G_i(k) = r d_i^2 I - r (k b_i^T + b_i k^T) d_i
             + (||b_i||^2 + r ||k||^2) b_i b_i^T,

which is positive definite on the polytope whenever r > 0.
"""

from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .params import ConstraintParams, ScaledParams

# Margins at or above this are treated as sitting on the boundary, where
# the objective is undefined; keeps 1/d^3 terms out of the rounding mud.
BOUNDARY_TOL = -1e-14


class Evaluation(NamedTuple):
    value: float
    grad: np.ndarray | None
    hess: np.ndarray | None
    margins: np.ndarray


def _coerce(pq) -> tuple[np.ndarray, np.ndarray, float]:
    if isinstance(pq, ScaledParams):
        return pq.base.a, pq.base.b, pq.r
    if isinstance(pq, ConstraintParams):
        return pq.a, pq.b, 1.0
    raise TypeError(f"expected ConstraintParams or ScaledParams, got {type(pq).__name__}")


def _kernel(b, d, bsq, k, r: float, order: int, with_value: bool = True):
    """Value and derivatives up to order (None above it) from the margins d.

    The one formula body behind evaluate, grad_raw, hess_raw and the
    solver's prepared evaluations.  The Hessian is assembled in place:
    the rank-two term first, then the identity term on the diagonal,
    then the row term, which rounds exactly as summing the three full
    matrices would (the identity term adds only zeros off the diagonal).
    """
    c = bsq + r * float(k @ k)
    value = float(-0.5 * (c / d).sum()) if with_value else None
    grad = hess = None
    if order >= 1:
        inv_sum = float((1.0 / d).sum())
        grad = -r * inv_sum * k + b.T @ (c / (2.0 * d * d))
    if order >= 2:
        s1 = b.T @ (1.0 / (d * d))
        outer = np.multiply.outer(k, s1)
        hess = r * (outer + outer.T)
        hess.flat[:: k.shape[0] + 1] += -r * inv_sum
        hess += b.T @ (b * (-c / d**3)[:, None])
    return value, grad, hess


def _prepare(pq) -> tuple:
    """The loop invariants of one instance: ``(a, b, ||b_i||^2, r)``."""
    a, b, r = _coerce(pq)
    return a, b, np.einsum("ij,ij->i", b, b), r


def _evaluate_prepared(prepared, k, order: int = 2) -> Evaluation | None:
    """Evaluate on a prepared instance, without checking k.

    Returns what ``evaluate(pq, k, order)`` returns for a finite k of
    the right shape, or None when a margin is at or above BOUNDARY_TOL:
    the one place the domain is tested.
    """
    a, b, bsq, r = prepared
    d = a + b @ k
    if d.max() >= BOUNDARY_TOL:
        return None
    return Evaluation(*_kernel(b, d, bsq, k, r, order), d)


def evaluate(pq, k, order: int = 2) -> Evaluation:
    """Fused objective evaluation sharing one margin pass.

    order 0 returns just the value, 1 adds the gradient, 2 adds the
    Hessian.  Raises DomainError if any margin is at or above
    BOUNDARY_TOL.
    """
    prepared = _prepare(pq)
    a, b, _, _ = prepared
    k = np.asarray(k, dtype=float)
    if k.shape != (b.shape[1],):
        raise ValueError(f"k has shape {k.shape}, expected ({b.shape[1]},)")
    if not np.all(np.isfinite(k)):
        raise ValueError("k must be finite")
    ev = _evaluate_prepared(prepared, k, order)
    if ev is None:
        raise DomainError(
            "input is on or outside the admissible polytope"
            f" (worst margin {float(np.max(a + b @ k)):.3e})"
        )
    return ev


def eval_J(p: ConstraintParams, k) -> float:
    """Unscaled objective value at k."""
    if not isinstance(p, ConstraintParams):
        raise TypeError("eval_J takes unscaled ConstraintParams; use eval_J_scaled for ScaledParams")
    return evaluate(p, k, order=0).value


def eval_J_scaled(q: ScaledParams, k) -> float:
    """Scaled objective value at k; at r = 1 this is eval_J on q.base."""
    if not isinstance(q, ScaledParams):
        raise TypeError("eval_J_scaled takes ScaledParams")
    return evaluate(q, k, order=0).value


def grad_J(pq, k) -> np.ndarray:
    """Analytic gradient at k for an unscaled or scaled instance."""
    return evaluate(pq, k, order=1).grad


def hess_J(pq, k) -> np.ndarray:
    """Analytic Hessian at k; exactly symmetric as computed."""
    return evaluate(pq, k, order=2).hess


def _raw_derivatives(prepared, k, order: int = 2):
    """Gradient and Hessian (None below order 2) without the domain check.

    Used inside adaptive integrators whose trial points may momentarily
    step outside the polytope.  ``prepared`` is the ``_prepare`` tuple,
    which an integrator computes once per solve.  Margins closer to zero
    than 1e-100 are set to -1e-100, whose cube is still a normal float,
    so the result stays finite and the step-size control can reject the
    trial; the clamp runs only when some margin needs it, which leaves
    every value as it would be.
    """
    a, b, bsq, r = prepared
    d = a + b @ k
    if np.abs(d).min() < 1e-100:
        d = np.where(np.abs(d) < 1e-100, -1e-100, d)
    _, grad, hess = _kernel(b, d, bsq, k, r, order, with_value=False)
    return grad, hess


def grad_raw(pq, k) -> np.ndarray:
    """Gradient formula without the domain check; see _raw_derivatives."""
    return _raw_derivatives(_prepare(pq), np.asarray(k, dtype=float), order=1)[0]


def hess_raw(pq, k) -> np.ndarray:
    """Hessian formula without the domain check; see _raw_derivatives."""
    return _raw_derivatives(_prepare(pq), np.asarray(k, dtype=float))[1]
