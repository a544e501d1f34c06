"""Exact reference answers for small instances, in rational arithmetic.

Every float input converts to a ``fractions.Fraction`` without rounding,
so the answers below carry no tolerance at all: a candidate either
satisfies its conditions exactly or it does not.  The enumeration is
exponential in the number of rows and only meant for tiny instances.
"""

import itertools
from fractions import Fraction

import numpy as np


def _solve(G, rhs):
    """Solve G x = rhs by Gaussian elimination; None if G is singular."""
    n = len(rhs)
    M = [list(row) + [r] for row, r in zip(G, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if M[i][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col] / M[col][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def exact_projection(p, v):
    """Euclidean projection of v onto ``{u : a + B u <= 0}``, or None if empty.

    Tries every set S of at most m rows whose Gram matrix is nonsingular:
    u = v - B_S^T lam with B_S B_S^T lam = a_S + B_S v puts u on the
    facets of S.  The first u that is feasible with lam >= 0 satisfies
    the KKT conditions, which for this strictly convex QP single out the
    projection.  Some linearly independent set of active rows always
    carries the multipliers, so finding none means the polytope is empty.
    """
    a = [Fraction(x) for x in np.asarray(p.a, dtype=float)]
    B = [[Fraction(x) for x in row] for row in np.asarray(p.b, dtype=float)]
    v = [Fraction(x) for x in np.asarray(v, dtype=float)]
    n, m = len(a), len(v)
    for size in range(min(n, m) + 1):
        for rows in itertools.combinations(range(n), size):
            G = [[sum(x * y for x, y in zip(B[i], B[j])) for j in rows] for i in rows]
            lam = _solve(G, [a[i] + sum(x * y for x, y in zip(B[i], v)) for i in rows])
            if lam is None or any(x < 0 for x in lam):
                continue
            u = [v[c] - sum(l * B[i][c] for l, i in zip(lam, rows)) for c in range(m)]
            if all(a[i] + sum(x * y for x, y in zip(B[i], u)) <= 0 for i in range(n)):
                return np.array([float(x) for x in u])
    return None
