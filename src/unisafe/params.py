"""Constraint parameters, feasibility certification, and normalization.

A control constraint system is the finite family of affine conditions
``a_i + b_i^T u < 0``.  The admissible set is the open polytope of inputs
satisfying all of them strictly.  This module holds the parameter
containers, a smooth-surrogate search for a strictly interior point, and
the normalization map that rescales any instance into the unit box used
for training data.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np


@dataclass(frozen=True)
class ConstraintParams:
    """Affine constraint family ``a_i + b_i^T u < 0``, i = 1..N.

    a has shape (N,), b has shape (N, m) with row i holding b_i.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float)
        if b.ndim == 1:
            b = b.reshape(len(a), -1) if len(a) > 1 else b.reshape(1, -1)
        if a.ndim != 1 or b.ndim != 2:
            raise ValueError("a must be a vector and b a matrix of row vectors")
        if b.shape[0] != a.shape[0]:
            raise ValueError(
                f"constraint count mismatch: {a.shape[0]} offsets, {b.shape[0]} input rows"
            )
        if a.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError("need at least one constraint and one input dimension")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("constraint parameters must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_constraints(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class ScaledParams:
    """Normalized instance: base entries bounded by 1, curvature weight r in [0, 1].

    The scaled objective puts ``r`` in front of the ``||k||^2`` numerator
    terms; ``r = 1`` recovers the unscaled objective on ``base``.
    """

    base: ConstraintParams
    r: float

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        slack = 1.0 + 1e-12
        bound = max(np.max(np.abs(self.base.a)), np.max(np.linalg.norm(self.base.b, axis=1)))
        if bound > slack:
            raise ValueError(f"scaled entries exceed the unit box (max {bound:.3e})")
        if not 0.0 <= self.r <= slack:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")


def margins(p: ConstraintParams, u) -> np.ndarray:
    """Constraint values a_i + b_i^T u; strictly negative means admissible."""
    u = np.asarray(u, dtype=float)
    if u.shape != (p.input_dim,):
        raise ValueError(f"u has shape {u.shape}, expected ({p.input_dim},)")
    return p.a + p.b @ u


class FeasibilityStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class FeasibilityCertificate:
    """A concrete strictly interior input and its worst constraint margin."""

    interior_point: np.ndarray
    margin: float


@dataclass(frozen=True)
class FeasibilityOutcome:
    status: FeasibilityStatus
    certificate: FeasibilityCertificate | None
    best_point: np.ndarray
    best_margin: float

    def __bool__(self):
        return self.status is FeasibilityStatus.FEASIBLE


def _surrogate(p: ConstraintParams, u: np.ndarray, beta: float):
    """Smooth max of the margins and its gradient at u.

    Bit for bit what scipy.special's logsumexp and softmax compute.
    """
    z = beta * (p.a + p.b @ u)
    top = z.max()
    is_top = z == top
    e = np.exp(z - top)
    count = np.count_nonzero(is_top)
    s = np.where(is_top, 0.0, e).sum() / count
    value = (np.log1p(s) + np.log(count) + top) / beta
    return value, (e / e.sum()) @ p.b


def _instance_scale(a: np.ndarray, b: np.ndarray) -> float:
    """The normalization constant: largest of |a_i|, row norms of b, and 1."""
    return max(
        float(np.max(np.abs(a))),
        float(np.max(np.linalg.norm(b, axis=1))),
        1.0,
    )


# The feasibility search's total descent-step budget, and the worst
# margin below -FEAS_TOL that certifies a point as strictly interior.
SEARCH_BUDGET = 2000
FEAS_TOL = 1e-9


def find_interior_point(p: ConstraintParams) -> FeasibilityOutcome:
    """Search for a strictly interior input by smoothed max-margin descent.

    Minimizes the log-sum-exp surrogate of the worst margin with an
    adaptive-step gradient descent, sharpening the surrogate through a
    fixed temperature schedule.  Success is declared purely from exact
    margins, never from the surrogate, so a returned certificate is
    always verifiable by inspection.

    Returns a FeasibilityOutcome.  INFEASIBLE means no input with worst
    margin below -FEAS_TOL was found and the best point seen still
    violates by more than FEAS_TOL; a best margin inside the +/- FEAS_TOL
    band after exhausting the budget gives INDETERMINATE instead.
    """
    # Descend on the normalized instance (margins divided by the same
    # constant scale_params uses) so the search is scale-invariant: an
    # instance and its unit-box rescaling follow bit-identical descent
    # paths and therefore always agree on feasibility.  Certificates are
    # still validated against the original margins.
    s = _instance_scale(p.a, p.b)
    pn = p if s == 1.0 else ConstraintParams(p.a / s, p.b / s)
    betas = (1.0, 10.0, 100.0)
    starts = [-np.sum(pn.b, axis=0), np.zeros(p.input_dim)]
    n_stages = len(starts) * len(betas)

    best_point = starts[0].copy()
    best_margin = np.inf
    spent = 0
    stage_index = 0

    def check(u):
        nonlocal best_point, best_margin
        worst = float(np.max(p.a + p.b @ u))
        if worst < best_margin:
            best_margin = worst
            best_point = u.copy()
        return worst

    for u0 in starts:
        u = u0.astype(float).copy()
        if check(u) <= -FEAS_TOL:
            return FeasibilityOutcome(
                FeasibilityStatus.FEASIBLE,
                FeasibilityCertificate(best_point, best_margin),
                best_point,
                best_margin,
            )
        for beta in betas:
            # Unused budget from earlier stages rolls forward; the heavily
            # smoothed beta=1 stage otherwise dithers forever on thin
            # polytopes and starves the sharp stages that would succeed.
            stage_cap = max(10, (SEARCH_BUDGET - spent) // (n_stages - stage_index))
            stage_index += 1
            value, grad = _surrogate(pn, u, beta)
            gn2 = float(grad @ grad)
            if gn2 < 1e-28:
                continue
            # Cauchy-like first step: aim one unit below the surrogate level.
            step = max(1.0, (value + 1.0) / gn2)
            stage_spent = 0
            while spent < SEARCH_BUDGET and stage_spent < stage_cap:
                spent += 1
                stage_spent += 1
                trial = u - step * grad
                trial_value, trial_grad = _surrogate(pn, trial, beta)
                if trial_value < value:
                    du = trial - u
                    dg = trial_grad - grad
                    u, value, grad = trial, trial_value, trial_grad
                    gn2 = float(grad @ grad)
                    if check(u) <= -FEAS_TOL:
                        return FeasibilityOutcome(
                            FeasibilityStatus.FEASIBLE,
                            FeasibilityCertificate(best_point, best_margin),
                            best_point,
                            best_margin,
                        )
                    if gn2 < 1e-28:
                        break
                    # Barzilai-Borwein step, growth-capped: matches the local
                    # curvature far faster than plain doubling on thin,
                    # ill-conditioned feasible sets without wild overshoots
                    # along flat valleys.
                    curvature = float(du @ dg)
                    bb = float(du @ du) / curvature if curvature > 0.0 else np.inf
                    step = min(bb, 64.0 * step)
                else:
                    step *= 0.5
                    if step * np.sqrt(gn2) < 1e-18 * (1.0 + float(np.linalg.norm(u))):
                        break
            if spent >= SEARCH_BUDGET:
                break
        if spent >= SEARCH_BUDGET:
            break

    status = (
        FeasibilityStatus.INDETERMINATE
        if best_margin <= FEAS_TOL
        else FeasibilityStatus.INFEASIBLE
    )
    return FeasibilityOutcome(status, None, best_point, best_margin)


def scale_params(p: ConstraintParams) -> tuple[ScaledParams, float]:
    """Normalize an instance into the unit box.

    M is the largest of the |a_i|, the row norms of b, and 1.  The result
    divides every parameter by M and carries r = 1/M^2; minimizing the
    scaled objective over the scaled instance recovers the minimizer of
    the original one, so lookup tables and networks need only cover the
    unit box.
    """
    scale = _instance_scale(p.a, p.b)
    q = ScaledParams(ConstraintParams(p.a / scale, p.b / scale), 1.0 / scale**2)
    return q, scale
