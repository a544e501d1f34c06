"""Constraint parameters, feasibility certification, and normalization.

A control constraint system is the finite family of affine conditions
``a_i + b_i^T u < 0``.  The admissible set is the open polytope of inputs
satisfying all of them strictly.  This module holds the parameter
containers, the search for a strictly interior point (a closed-form
start for independent rows, a phase-I LP for the rest) and its outcome,
a point with its worst margin, and the normalization map that rescales
any instance into the unit box used for training data.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.optimize import linprog

from .errors import InfeasibleError, NumericError


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


# A point whose worst margin is at most -FEAS_TOL is certified interior.
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class FeasibilityOutcome:
    """A search's best input and its worst exact margin; true when it is certified interior."""

    best_point: np.ndarray
    best_margin: float

    def __bool__(self):
        return self.best_margin <= -FEAS_TOL


def _instance_scale(a: np.ndarray, b: np.ndarray) -> float:
    """The normalization constant: largest of |a_i|, row norms of b, and 1."""
    return max(
        float(np.max(np.abs(a))),
        float(np.max(np.linalg.norm(b, axis=1))),
        1.0,
    )


# LAPACK's Cholesky pair, which scipy's cho_factor/cho_solve wrap in input
# checks that cost more than a 10x10 factorization.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def _certified(p: ConstraintParams, u: np.ndarray) -> FeasibilityOutcome:
    """The outcome for u: u and its worst exact margin on p."""
    return FeasibilityOutcome(u, float(np.max(p.a + p.b @ u)))


def find_interior_point(p: ConstraintParams) -> FeasibilityOutcome:
    """A strictly interior input: the closed-form start, or else phase I.

    Both steps run on the instance normalized by ``_instance_scale`` (the
    constant scale_params uses), so an instance and its unit-box
    rescaling get the same point and always agree on feasibility.  With
    s_i = max(|a_i|, |b_i|) on that instance:

    1. When N <= m and BB^T has a Cholesky factor, the closed form
       u0 = -B^T (BB^T)^-1 (a + s) puts every normalized margin at
       exactly -s_i.
    2. Otherwise (N > m, dependent rows, or a u0 that rounding keeps
       from certifying) the phase-I LP of Boyd & Vandenberghe, *Convex
       Optimization* section 11.4.1: maximize t subject to
       a + Bu + s t <= 0 and t <= 1.  It is always feasible and bounded.

    The outcome holds the point and its worst margin on the original
    instance, so a certificate is always verifiable by inspection.  It
    is true when that margin is at most -FEAS_TOL; a false outcome
    holds the LP's point, whose margin shows how far the system is from
    strict feasibility.
    """
    scale = _instance_scale(p.a, p.b)
    a, b = p.a / scale, p.b / scale
    depth = np.maximum(np.abs(a), np.linalg.norm(b, axis=1))
    n, m = b.shape
    if n <= m:
        factor, info = _potrf(b @ b.T, clean=False)
        if info == 0:
            outcome = _certified(p, -b.T @ _potrs(factor, a + depth)[0])
            if outcome:
                return outcome
    lp = linprog(
        np.append(np.zeros(m), -1.0),
        A_ub=np.column_stack((b, depth)),
        b_ub=-a,
        bounds=[(None, None)] * m + [(None, 1.0)],
        method="highs",
    )
    if lp.x is None:
        raise NumericError(f"phase-I LP failed on a feasible, bounded problem: {lp.message}")
    return _certified(p, lp.x[:m])


def require_interior_point(p: ConstraintParams) -> np.ndarray:
    """The interior point find_interior_point certifies; InfeasibleError if it finds none.

    The error carries the finder's best worst-margin as ``max_margin``
    and lists the margins at its best point.
    """
    outcome = find_interior_point(p)
    if not outcome:
        raise InfeasibleError(
            "constraint system has no certified interior point;"
            f" best margins {[float(v) for v in margins(p, outcome.best_point)]}",
            max_margin=outcome.best_margin,
        )
    return outcome.best_point


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
