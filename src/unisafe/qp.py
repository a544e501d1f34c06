"""Minimum-norm safe inputs and Euclidean projection onto the polytope.

Both operations are instances of one strictly convex QP,

    min ||u - v||^2   s.t.   a_i + b_i^T u <= 0,

solved with the Goldfarb-Idnani dual active-set method (Math. Prog. 27,
1983) for an identity Hessian.  It starts at the unconstrained minimizer
``v`` and adds violated rows one at a time while keeping the iterate
optimal for the rows added so far, so it needs no feasible start and
detects infeasibility on its own.  Problem sizes here are tiny (N, m <=
10 or so), so each step refactorizes the working-set normals instead of
updating a factorization.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, UnisafeError
from .params import ConstraintParams


@dataclass(frozen=True)
class ActiveSetState:
    """Final working set (original constraint indices) and its multipliers."""

    working_set: list[int] = field(default_factory=list)
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))


# Relative size under which a residual counts as rounding: a row violated
# by less is satisfied, and a projected normal shorter than this fraction
# of the row's own norm lies in the span of the working set.
_REL_TOL = 1e-12


def project_with_state(p: ConstraintParams, v) -> tuple[np.ndarray, ActiveSetState]:
    """Project v onto the closed polytope, exposing the KKT data."""
    v = np.asarray(v, dtype=float)
    if v.shape != (p.input_dim,):
        raise ValueError(f"v has shape {v.shape}, expected ({p.input_dim},)")

    # Constraints in "b_i^T u <= rhs_i" form.  The iterate u always
    # minimizes ||u - v|| over the working-set facets, with multipliers
    # lam >= 0, so u = v - b[working].T @ lam throughout.
    b, rhs = p.b, -p.a
    u = v.copy()
    working: list[int] = []
    lam = np.zeros(0)
    for _ in range(50 * (p.n_constraints + 2)):
        slack = b @ u - rhs
        slack[working] = -np.inf
        violated = slack > _REL_TOL * (np.abs(rhs) + np.abs(b) @ np.abs(u))
        if not np.any(violated):
            if working:
                # The steps leave rounding of order eps / sin(angle) on
                # the working facets; re-solve their equations so the
                # answer is as accurate as the final working set allows.
                bw = b[working]
                u = v + np.linalg.lstsq(bw, rhs[working] - bw @ v, rcond=None)[0]
            order = np.argsort(working)
            return u, ActiveSetState([working[i] for i in order], lam[order])
        add = int(np.argmax(np.where(violated, slack, -np.inf)))

        # Move toward the facet of `add`: the primal step follows its normal
        # projected off the working set, the dual step shifts weight from
        # the working rows (r) onto `add`.  A working row whose multiplier
        # would turn negative first leaves the set, and the step resumes.
        lam_add = 0.0
        while True:
            normal = b[add]
            if working:
                r = np.linalg.lstsq(b[working].T, normal, rcond=None)[0]
                z = normal - b[working].T @ r
            else:
                r, z = np.zeros(0), normal
            full = np.inf
            if np.linalg.norm(z) > _REL_TOL * np.linalg.norm(normal):
                full = float(normal @ u - rhs[add]) / float(z @ normal)
            partial, drop = np.inf, None
            for j in np.flatnonzero(r > 0.0):
                if lam[j] / r[j] < partial:
                    partial, drop = lam[j] / r[j], int(j)
            if drop is None and not np.isfinite(full):
                worst = float(np.max(p.a + b @ u))
                raise InfeasibleError(
                    f"constraint system is infeasible: constraint {add} "
                    f"cannot be met along with {sorted(working)} (worst margin {worst:.3e})",
                    max_margin=worst,
                )
            step = min(full, partial)
            if np.isfinite(full):
                u = u - step * z
            lam = lam - step * r
            lam_add += step
            if full <= partial:
                working.append(add)
                lam = np.append(lam, lam_add)
                break
            working.pop(drop)
            lam = np.delete(lam, drop)
    raise UnisafeError("active-set iteration did not terminate")


def project_onto_polytope(p: ConstraintParams, v) -> np.ndarray:
    """Euclidean projection of v onto ``{u : a_i + b_i^T u <= 0}``."""
    return project_with_state(p, v)[0]


def solve_min_norm_qp(p: ConstraintParams) -> np.ndarray:
    """Smallest-norm input satisfying every constraint non-strictly."""
    return project_with_state(p, np.zeros(p.input_dim))[0]
