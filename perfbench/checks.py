"""Output checks computed apart from the package.

Every function here takes plain arrays and raises CheckFailed with a
reason when the program's output breaks a property the method must have.
The constraint rows of the two closed-loop examples and the gradient of
the objective are written out again from their formulas, so a fault in
the package's own assembly or objective code cannot hide itself.
"""

import numpy as np
from scipy.optimize import nnls

# Stationarity is judged relative to the size of the terms that cancel in
# the gradient, so the same tolerance serves instances of any scale.
STATIONARY_RTOL = 1e-6
# A min-norm QP answer sits on its active facets; a row counts as active
# (and as satisfied) within this share of its own terms.
ACTIVE_RTOL = 1e-8
# Lyapunov values may rise by rounding only.
LYAPUNOV_ATOL = 1e-12


class CheckFailed(AssertionError):
    """A program output broke an independent check."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


# ---------------------------------------------------------------------------
# constraint rows of the closed-loop examples, from their formulas


def planar_rows(x: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """CLF and product-barrier rows of the planar single integrator.

    V = |x|^2 / 2 with rate 0.1 |x|^2 gives a = 0.1 |x|^2, b = x; the
    barrier h = prod_i (|x - c_i|^2 - r_i^2) with identity class-K gives
    a = -h, b = -grad h.
    """
    d = x - centers
    parts = np.einsum("ij,ij->i", d, d) - radii**2
    grad_h = np.zeros_like(x)
    for i in range(len(radii)):
        grad_h += 2.0 * d[i] * np.prod(np.delete(parts, i))
    a = np.array([0.1 * float(x @ x), -float(np.prod(parts))])
    b = np.stack([x, -grad_h])
    return a, b


def reciprocal_rows(x: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """Per-obstacle reciprocal-barrier rows plus the CLF row (10-D example).

    h_i = 8 (1 - r_i^2 / |x - c_i|^2) with identity class-K gives
    a_i = -h_i, b_i = -16 r_i^2 (x - c_i) / |x - c_i|^4.
    """
    d = x - centers
    s = np.einsum("ij,ij->i", d, d)
    a = np.append(-8.0 * (1.0 - radii**2 / s), 0.1 * float(x @ x))
    b = np.vstack([-(16.0 * radii**2 / s**2)[:, None] * d, x])
    return a, b


# ---------------------------------------------------------------------------
# objective gradient, from its formula


def gradient(a: np.ndarray, b: np.ndarray, r: float, k: np.ndarray):
    """Gradient of J and the sum of the magnitudes of its terms.

    J(k) = -sum_i (|b_i|^2 + r |k|^2) / (2 d_i),  d_i = a_i + b_i . k.
    """
    d = a + b @ k
    c = np.einsum("ij,ij->i", b, b) + r * float(k @ k)
    g = -r * float(np.sum(1.0 / d)) * k + b.T @ (c / (2.0 * d * d))
    scale = r * float(np.linalg.norm(k)) * float(np.sum(1.0 / np.abs(d))) + float(
        np.sum(np.linalg.norm(b, axis=1) * c / (2.0 * d * d))
    )
    return g, scale


def check_interior(a, b, k, what: str) -> None:
    d = a + b @ k
    if not float(np.max(d)) < 0.0:
        _fail(f"{what}: input is not strictly admissible (worst margin {float(np.max(d)):.3e})")


def check_stationary(a, b, r, k, what: str, rtol: float = STATIONARY_RTOL) -> None:
    """k is a strictly interior stationary point of J."""
    check_interior(a, b, k, what)
    g, scale = gradient(a, b, r, k)
    residual = float(np.linalg.norm(g))
    if not residual <= rtol * scale:
        _fail(f"{what}: gradient {residual:.3e} exceeds {rtol:g} x term scale {scale:.3e}")


def check_min_norm_kkt(a, b, u, what: str) -> None:
    """u solves min |u|^2 subject to a + b u <= 0.

    Feasibility within the active tolerance, u = -b_A^T lam with lam >= 0
    from a nonnegative least-squares fit on the active rows A, and
    complementary slackness (rows off their facets carry no multiplier).
    """
    margins = a + b @ u
    term = np.abs(a) + np.abs(b) @ np.abs(u) + 1e-300
    rel = margins / term
    if float(np.max(rel)) > ACTIVE_RTOL:
        _fail(f"{what}: QP input violates a row (relative margin {float(np.max(rel)):.3e})")
    active = np.abs(rel) <= ACTIVE_RTOL
    norm_u = float(np.linalg.norm(u))
    if not np.any(active):
        if norm_u > 0.0:
            _fail(f"{what}: no active row, yet |u| = {norm_u:.3e} is not the minimum 0")
        return
    lam, residual = nnls(b[active].T, -u)
    if residual > 1e-6 * max(norm_u, 1e-300):
        _fail(
            f"{what}: -u is not a nonnegative combination of the active rows"
            f" (residual {residual:.3e}, |u| {norm_u:.3e})"
        )


# ---------------------------------------------------------------------------
# closed loops


def check_trajectory(states, inputs, centers, radii, rows, controller: str) -> None:
    """Safety, Lyapunov decrease and admissibility along one closed loop.

    inputs[k] is the input applied at states[k]; the final state has none.
    ``rows`` maps a state to its (a, b) constraint rows.
    """
    dist = np.linalg.norm(states[:, None, :] - centers[None, :, :], axis=2)
    if not np.all(dist >= radii[None, :]):
        worst = float(np.min(dist - radii[None, :]))
        _fail(f"{controller}: a state enters an obstacle (clearance {worst:.3e})")
    v = 0.5 * np.einsum("ij,ij->i", states, states)
    if not np.all(np.diff(v) <= LYAPUNOV_ATOL):
        _fail(f"{controller}: V = |x|^2/2 increases by {float(np.max(np.diff(v))):.3e}")
    for x, u in zip(states[:-1], inputs[: len(states) - 1]):
        a, b = rows(x)
        d = a + b @ u
        if controller == "qp":
            term = np.abs(a) + np.abs(b) @ np.abs(u) + 1e-300
            if float(np.max(d / term)) > ACTIVE_RTOL:
                _fail(f"qp: input at x = {x} violates a constraint row")
        elif not float(np.max(d)) < 0.0:
            _fail(f"{controller}: input at x = {x} is not strictly admissible")


def check_controller_sample(states, inputs, indices, rows, controller: str) -> None:
    """Optimality of the sampled calls: ustar stationary, qp KKT."""
    for i in indices:
        a, b = rows(states[i])
        what = f"{controller} call at x = {states[i]}"
        if controller == "qp":
            check_min_norm_kkt(a, b, inputs[i], what)
        else:
            check_stationary(a, b, 1.0, inputs[i], what)


# ---------------------------------------------------------------------------
# learning pipeline


def unflatten(row: np.ndarray, n: int, m: int):
    """(a, b, r) from a flattened normalized instance (a, b row-major, r)."""
    return row[:n], row[n : n + n * m].reshape(n, m), float(row[-1])


def check_labels(inputs, labels, n: int, m: int, label_tol: float) -> None:
    """Every label is strictly interior with gradient norm at most label_tol."""
    for row, k in zip(inputs, labels):
        a, b, r = unflatten(row, n, m)
        check_interior(a, b, k, "label")
        g, _ = gradient(a, b, r, k)
        if not float(np.linalg.norm(g)) <= label_tol:
            _fail(f"label: gradient {float(np.linalg.norm(g)):.3e} exceeds {label_tol:g}")


def check_training(train_loss) -> None:
    loss = np.asarray(train_loss, dtype=float)
    if not np.all(np.isfinite(loss)):
        _fail("training: loss became non-finite")
    if not loss[-1] < loss[0]:
        _fail(f"training: final loss {loss[-1]:.4g} is not below the first {loss[0]:.4g}")


def check_solves(instances, cold, warm, agree_tol: float = 1e-6) -> None:
    """Cold and warm solves agree and are both stationary."""
    for (a, b), kc, kw in zip(instances, cold, warm):
        gap = float(np.linalg.norm(kc - kw))
        if not gap <= agree_tol:
            _fail(f"solves: warm and cold minimizers differ by {gap:.3e}")
        check_stationary(a, b, 1.0, kc, "cold solve")
        check_stationary(a, b, 1.0, kw, "warm solve")


def silu_mlp(weights, biases, x: np.ndarray) -> np.ndarray:
    """Forward pass of an affine-output SiLU network without skips."""
    h = x
    for i, (w, c) in enumerate(zip(weights, biases)):
        z = w @ h + c
        h = z if i == len(weights) - 1 else z / (1.0 + np.exp(-z))
    return h


def scaled_flat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit-box normalization laid out as (a, b row-major, r = 1 / M^2)."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.linalg.norm(b, axis=1))), 1.0)
    return np.concatenate([a / scale, b.ravel() / scale, [1.0 / scale**2]])


def check_predictions(weights, biases, instances, predictions) -> None:
    """Network outputs on raw instances match an independent scaling and forward pass."""
    for (a, b), k in zip(instances, predictions):
        ref = silu_mlp(weights, biases, scaled_flat(a, b))
        if not np.allclose(k, ref, rtol=1e-9, atol=1e-12):
            _fail(f"forward pass: {k} differs from the reference {ref}")
