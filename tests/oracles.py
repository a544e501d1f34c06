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


def motzkin_certificate(a, b):
    """A multiplier proving ``a + B u < 0`` has no solution, or None.

    By Motzkin's transposition theorem the system is infeasible exactly
    when some lam >= 0, lam != 0 has B^T lam = 0 and a^T lam >= 0.  Such
    lam form a cone whose extreme rays have supports S of at most m + 1
    rows (Caratheodory) on which B_S^T has a one-dimensional null space
    spanned by a strictly positive vector; a^T lam >= 0 holds somewhere
    on the cone iff it holds on one of those rays.  Returns the ray as a
    list of Fractions over all N rows.
    """
    a = [Fraction(x) for x in np.asarray(a, dtype=float)]
    B = [[Fraction(x) for x in row] for row in np.asarray(b, dtype=float)]
    n, m = len(a), len(B[0])
    for size in range(1, min(n, m + 1) + 1):
        for rows in itertools.combinations(range(n), size):
            ray = _positive_null_ray([[B[i][c] for i in rows] for c in range(m)], size)
            if ray is not None and sum(a[i] * x for i, x in zip(rows, ray)) >= 0:
                lam = [Fraction(0)] * n
                for i, x in zip(rows, ray):
                    lam[i] = x
                return lam
    return None


def exact_strictly_feasible(a, b) -> bool:
    """Whether ``a + B u < 0`` has a solution, decided in exact arithmetic."""
    return motzkin_certificate(a, b) is None


def _positive_null_ray(M, k):
    """The strictly positive generator of a one-dimensional null space of M, or None.

    M has k columns; reduces it to row echelon form and requires exactly
    one free column.
    """
    M = [list(row) for row in M]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(M)) if M[i][col] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        M[r] = [x / M[r][col] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(k) if c not in pivots]
    if len(free) != 1:
        return None
    ray = [Fraction(0)] * k
    ray[free[0]] = Fraction(1)
    for row, col in enumerate(pivots):
        ray[col] = -M[row][free[0]]
    if all(x > 0 for x in ray):
        return ray
    if all(x < 0 for x in ray):
        return [-x for x in ray]
    return None
