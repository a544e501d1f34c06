"""Learned approximations of the admissibility minimizer.

The exact minimizer is scale-invariant: normalizing a constraint family
into the unit box does not move it.  A small MLP can therefore be
trained once on normalized instances and reused for every plant whose
constraint count and input dimension match, regardless of the state
dimension.  This module provides uniform dataset sampling over the
normalized parameter box (labels from the gradient-flow solver,
cross-checked by Newton), a from-scratch SiLU MLP with optional residual
skips, full- or mini-batch Adam training with exact backpropagation,
controllers built from a trained model (raw, projection-hardened, and
warmstarting), and JSON/CSV persistence for models and datasets on the
shared readers and writers of ``unisafe.files``.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import NumericError, SchemaError, TrainingDivergedError
from .files import read_json, read_table, schema_errors, write_table
from .objective import hess_J
from .params import ConstraintParams, ScaledParams, find_interior_point, scale_params
from .qp import project_onto_polytope
from .solver import SolveStatus, solve_exact, solve_gradient_flow

MODEL_SCHEMA_VERSION = 1

# fraction of rows held out for validation during training
VAL_FRACTION = 0.1

# a label from the gradient flow must agree with an independent Newton
# solve to this multiple of the label tolerance before a row is emitted
CROSS_CHECK_FACTOR = 100.0

# draws a row may make before its (N, m) combination counts as degenerate
PROBE_SIZE = 200


def input_width(n_constraints: int, control_dim: int) -> int:
    """Flattened width of a normalized instance: offsets, rows, and r."""
    return n_constraints * (control_dim + 1) + 1


def flatten_scaled(q: ScaledParams) -> np.ndarray:
    """Lay out a normalized instance as (a_1..a_N, b_11..b_Nm, r)."""
    return np.concatenate([q.base.a, q.base.b.ravel(), [q.r]])


def unflatten_scaled(vec, n_constraints: int, control_dim: int) -> ScaledParams:
    """Inverse of flatten_scaled for a given (N, m) shape."""
    vec = np.asarray(vec, dtype=float)
    d = input_width(n_constraints, control_dim)
    if vec.shape != (d,):
        raise ValueError(f"flattened instance has shape {vec.shape}, expected ({d},)")
    a = vec[:n_constraints]
    b = vec[n_constraints:-1].reshape(n_constraints, control_dim)
    return ScaledParams(ConstraintParams(a, b), float(vec[-1]))


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class MlpModel:
    """Feedforward SiLU network mapping a flattened instance to an input.

    weights[i] has shape (width_out, width_in); biases[i] matches its
    rows.  Hidden layers apply SiLU; the output layer is affine.  A true
    residual flag adds the layer's input back onto its activated output,
    which requires equal in/out widths.
    """

    n_constraints: int
    control_dim: int
    weights: tuple
    biases: tuple
    residual_flags: tuple

    def __post_init__(self):
        if self.n_constraints < 1 or self.control_dim < 1:
            raise ValueError("constraint count and input dimension must be at least 1")
        weights = tuple(np.asarray(w, dtype=float) for w in self.weights)
        biases = tuple(np.asarray(c, dtype=float) for c in self.biases)
        flags = tuple(bool(f) for f in self.residual_flags)
        if not weights:
            raise ValueError("model needs at least one layer")
        if not (len(weights) == len(biases) == len(flags)):
            raise ValueError("weights, biases, and residual flags must align per layer")
        fan_in = self.input_dim
        for i, (w, c) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or c.ndim != 1 or w.shape[0] != c.shape[0]:
                raise ValueError(f"layer {i} weight/bias shapes are inconsistent")
            if w.shape[1] != fan_in:
                raise ValueError(
                    f"layer {i} expects width {w.shape[1]} but receives {fan_in}"
                )
            if flags[i] and w.shape[0] != w.shape[1]:
                raise ValueError(
                    f"layer {i} has a residual skip between widths {w.shape[1]} and {w.shape[0]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(c))):
                raise ValueError(f"layer {i} parameters must be finite")
            fan_in = w.shape[0]
        if fan_in != self.control_dim:
            raise ValueError(
                f"output width {fan_in} does not match the control dimension {self.control_dim}"
            )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "residual_flags", flags)

    @property
    def input_dim(self) -> int:
        return input_width(self.n_constraints, self.control_dim)

    @property
    def layer_widths(self) -> tuple:
        return tuple(w.shape[0] for w in self.weights)

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def init_model(
    n_constraints: int,
    control_dim: int,
    hidden_widths=(64, 64, 64, 64),
    residual: bool = False,
    seed: int = 0,
) -> MlpModel:
    """He-initialized network with the given hidden widths and zero biases.

    With ``residual`` every hidden layer whose input and output widths
    match gets an identity skip.
    """
    rng = np.random.default_rng(seed)
    widths = [input_width(n_constraints, control_dim), *hidden_widths, control_dim]
    weights = []
    biases = []
    flags = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
        is_hidden = i < len(widths) - 2
        flags.append(bool(residual) and is_hidden and fan_in == fan_out)
    return MlpModel(n_constraints, control_dim, tuple(weights), tuple(biases), tuple(flags))


def _silu(z):
    return z * expit(z)


def _silu_prime(z):
    s = expit(z)
    return s * (1.0 + z * (1.0 - s))


def _forward_raw(weights, biases, flags, X: np.ndarray):
    """All layer inputs and pre-activations for a (rows, width) batch."""
    layer_inputs = [X]
    pre_acts = []
    h = X
    last = len(weights) - 1
    for i, (w, c) in enumerate(zip(weights, biases)):
        z = h @ w.T + c
        pre_acts.append(z)
        h = z if i == last else _silu(z)
        if flags[i]:
            h = h + layer_inputs[-1]
        layer_inputs.append(h)
    return layer_inputs, pre_acts


def mlp_forward(model: MlpModel, q_flat) -> np.ndarray:
    """Evaluate the network on one flattened instance."""
    q_flat = np.asarray(q_flat, dtype=float)
    if q_flat.shape != (model.input_dim,):
        raise ValueError(
            f"input has shape {q_flat.shape}, expected ({model.input_dim},)"
        )
    layer_inputs, _ = _forward_raw(
        model.weights, model.biases, model.residual_flags, q_flat[None, :]
    )
    return layer_inputs[-1][0]


def _mse(weights, biases, flags, X: np.ndarray, Y: np.ndarray) -> float:
    """Mean squared error of the network on a batch, by a forward pass only."""
    diff = _forward_raw(weights, biases, flags, X)[0][-1] - Y
    return float(np.mean(diff * diff))


def _mse_and_grads(weights, biases, flags, X: np.ndarray, Y: np.ndarray, first: int = 0):
    """Mean squared error and its exact parameter gradients on a batch.

    Backpropagation stops after layer ``first``; earlier layers' gradients are None.
    """
    layer_inputs, pre_acts = _forward_raw(weights, biases, flags, X)
    diff = layer_inputs[-1] - Y
    loss = float(np.mean(diff * diff))
    # d loss / d pred, with the mean over every entry of the batch
    delta = (2.0 / diff.size) * diff
    n_layers = len(weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    last = n_layers - 1
    for i in range(last, -1, -1):
        dz = delta if i == last else delta * _silu_prime(pre_acts[i])
        grads_w[i] = dz.T @ layer_inputs[i]
        grads_b[i] = dz.sum(axis=0)
        if i == first:
            break  # nothing reads the gradient with respect to this layer's input
        upstream = dz @ weights[i]
        delta = upstream + delta if flags[i] else upstream
    return loss, grads_w, grads_b


# ---------------------------------------------------------------------------
# dataset


@dataclass(frozen=True)
class Dataset:
    """Rows of (flattened normalized instance, minimizer label).

    Every stored instance is strictly feasible and every label is the
    interior minimizer to within ``label_tol`` in gradient norm.
    """

    inputs: np.ndarray
    labels: np.ndarray
    n_constraints: int
    control_dim: int
    seed: int
    label_tol: float

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if inputs.ndim != 2 or labels.ndim != 2:
            raise ValueError("inputs and labels must be 2-d arrays")
        if inputs.shape[0] != labels.shape[0] or inputs.shape[0] < 1:
            raise ValueError("inputs and labels must have the same nonzero row count")
        d = input_width(self.n_constraints, self.control_dim)
        if inputs.shape[1] != d:
            raise ValueError(f"inputs are {inputs.shape[1]} wide, expected {d}")
        if labels.shape[1] != self.control_dim:
            raise ValueError(
                f"labels are {labels.shape[1]} wide, expected {self.control_dim}"
            )
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(labels))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _draw_instance(rng, n_constraints: int, control_dim: int) -> ScaledParams:
    """One uniform draw from the normalized box (offsets, ball rows, r)."""
    a = rng.uniform(-1.0, 1.0, n_constraints)
    rows = rng.normal(size=(n_constraints, control_dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, n_constraints) ** (1.0 / control_dim)
    b = rows * radii[:, None]
    r = float(rng.uniform(0.0, 1.0))
    return ScaledParams(ConstraintParams(a, b), r)


def _sample_row(
    row: int,
    n_constraints: int,
    control_dim: int,
    seed: int,
    label_tol: float,
    cross_tol: float,
):
    """Draw, certify, and label one dataset row.

    The row owns its generator (derived from (seed, row)), so rows are
    reproducible in isolation and independent of scheduling.
    """
    rng = np.random.default_rng((seed, row))
    for _ in range(PROBE_SIZE):
        q = _draw_instance(rng, n_constraints, control_dim)
        outcome = find_interior_point(q.base)
        if not outcome:
            continue
        flow = solve_gradient_flow(q, tol=label_tol, warmstart=outcome.best_point)
        if flow.status is not SolveStatus.CONVERGED:
            continue
        newton = solve_exact(q, warmstart=outcome.best_point)
        gap = float(np.linalg.norm(flow.k_star - newton.k_star))
        if gap > cross_tol:
            # The flow's gradient tolerance pins the *position* only up to
            # grad/curvature.  When the measured curvature explains the gap
            # the row is merely too ill-conditioned to label at cross_tol,
            # so it is skipped like a degenerate draw; an unexplained gap
            # means one of the two solvers is wrong and must raise.
            curvature = float(np.linalg.eigvalsh(hess_J(q, newton.k_star)).min())
            slack = 10.0 * (flow.grad_norm + label_tol) / max(curvature, 1e-300)
            if gap <= slack:
                continue
            raise NumericError(f"label solvers disagree by {gap:.3e} on row {row}")
        return flatten_scaled(q), flow.k_star
    raise NumericError(
        f"row {row} accepted none of {PROBE_SIZE} draws (rate below 1%):"
        f" degenerate (N={n_constraints}, m={control_dim}) combination"
    )


def sample_dataset(
    n_constraints: int,
    control_dim: int,
    count: int,
    seed: int,
    label_tol: float = 1e-6,
    *,
    workers: int = 1,
) -> Dataset:
    """Rejection-sample feasible normalized instances and label them.

    Instances are drawn uniformly from offsets in [-1, 1], rows in the
    unit ball, and r in [0, 1]; draws without a certified interior point
    (N <= m draws have independent rows almost surely and so the
    closed-form start of ``find_interior_point``) or with a degenerate
    r = 0 objective are rejected.  Labels come from the gradient flow at
    ``label_tol``, started at that point, and must agree with an
    independent Newton solve.  Draws on which the flow stops above
    ``label_tol`` (its rounding floor is higher on some nearly
    anti-parallel wedges), or whose curvature at the minimizer is too
    small for that tolerance to pin the label down, are rejected too.
    Each row derives its generator from (seed, row index), so the
    dataset is deterministic, rows are independent of generation order,
    and generation can fan out over ``workers`` processes (at most one
    per row) without changing a single bit of the result.
    (Processes rather than threads: each step of the labels' integrator
    calls back into Python, so threads would take turns under the GIL.)

    Raises NumericError if any row rejects a 200-draw probe entirely
    (a degenerate (N, m) combination), or if the two solvers disagree
    beyond what the measured conditioning explains.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0.0 < label_tol < np.inf:
        raise ValueError(f"label_tol must be finite and positive, got {label_tol}")

    cross_tol = max(CROSS_CHECK_FACTOR * label_tol, 1e-4)
    task = functools.partial(
        _sample_row,
        n_constraints=n_constraints,
        control_dim=control_dim,
        seed=seed,
        label_tol=label_tol,
        cross_tol=cross_tol,
    )
    inputs = np.empty((count, input_width(n_constraints, control_dim)))
    labels = np.empty((count, control_dim))
    # The pool starts all its processes at once; more than count would idle.
    workers = min(workers, count)
    if workers > 1:
        chunk = max(1, count // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = pool.map(task, range(count), chunksize=chunk)
            for row, (vec, label) in enumerate(rows):
                inputs[row] = vec
                labels[row] = label
    else:
        for row in range(count):
            inputs[row], labels[row] = task(row)
    return Dataset(inputs, labels, n_constraints, control_dim, seed, label_tol)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    """Adam regression settings; defaults follow the reference setup."""

    learning_rate: float = 3e-3
    epochs: int = 2000
    batch_size: int | None = None
    freeze_all_but_last: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch size must be positive when given")


@dataclass(frozen=True)
class TrainResult:
    """Trained model with per-epoch loss histories.

    val_loss entries are nan when the dataset is too small to hold out
    a validation split.
    """

    model: MlpModel
    train_loss: np.ndarray
    val_loss: np.ndarray


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def train(model: MlpModel, dataset: Dataset, config: TrainConfig | None = None) -> TrainResult:
    """Fit the model to the dataset by mean-squared-error Adam descent.

    Rows are shuffled once by the config seed and split 90/10 into
    train/validation.  Updates are full-batch unless a batch size is
    given; mini-batches are reshuffled every epoch.  With
    ``freeze_all_but_last`` only the final layer moves.  At the end of
    every epoch each history records one forward pass of the current
    weights over its whole split.  A non-finite loss raises
    TrainingDivergedError naming the epoch.
    """
    if config is None:
        config = TrainConfig()
    if dataset.n_constraints != model.n_constraints or dataset.control_dim != model.control_dim:
        raise ValueError("dataset dimensions do not match the model")

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(dataset))
    n_val = int(round(VAL_FRACTION * len(dataset)))
    n_val = min(n_val, len(dataset) - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    X_train, Y_train = dataset.inputs[train_idx], dataset.labels[train_idx]
    X_val, Y_val = dataset.inputs[val_idx], dataset.labels[val_idx]

    weights = [w.copy() for w in model.weights]
    biases = [c.copy() for c in model.biases]
    flags = model.residual_flags
    # Adam's first and second moments of the weights and the bias of each
    # layer that moves, keyed by layer index
    first_live = model.n_layers - 1 if config.freeze_all_but_last else 0
    moments = {
        i: [np.zeros_like(arr) for arr in (weights[i], weights[i], biases[i], biases[i])]
        for i in range(first_live, model.n_layers)
    }

    def adam_update(param, grad, m_acc, v_acc, step):
        m_acc[:] = ADAM_BETA1 * m_acc + (1.0 - ADAM_BETA1) * grad
        v_acc[:] = ADAM_BETA2 * v_acc + (1.0 - ADAM_BETA2) * grad**2
        m_hat = m_acc / (1.0 - ADAM_BETA1**step)
        v_hat = v_acc / (1.0 - ADAM_BETA2**step)
        return param - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    batch = len(X_train) if config.batch_size is None else min(config.batch_size, len(X_train))
    train_hist = np.empty(config.epochs)
    val_hist = np.full(config.epochs, np.nan)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(X_train)) if batch < len(X_train) else np.arange(len(X_train))
        for start in range(0, len(X_train), batch):
            rows = order[start : start + batch]
            loss, grads_w, grads_b = _mse_and_grads(
                weights, biases, flags, X_train[rows], Y_train[rows], first=first_live
            )
            if not np.isfinite(loss):
                break
            step += 1
            for i, (m_w, v_w, m_b, v_b) in moments.items():
                weights[i] = adam_update(weights[i], grads_w[i], m_w, v_w, step)
                biases[i] = adam_update(biases[i], grads_b[i], m_b, v_b, step)
        else:
            # every batch of the epoch was finite: record the epoch's loss
            loss = train_hist[epoch] = _mse(weights, biases, flags, X_train, Y_train)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"training loss became non-finite at epoch {epoch + 1}", epoch=epoch + 1
            )
        if len(X_val):
            val_hist[epoch] = _mse(weights, biases, flags, X_val, Y_val)
    trained = replace(model, weights=tuple(weights), biases=tuple(biases))
    return TrainResult(trained, train_hist, val_hist)


# ---------------------------------------------------------------------------
# controllers on top of a trained model


def nn_prediction(model: MlpModel, p: ConstraintParams, hard: bool = False) -> np.ndarray:
    """Network prediction for one constraint family.

    The family is normalized into the unit box first; the minimizer is
    unchanged by that normalization, so the raw prediction needs no
    un-scaling.  With ``hard`` the prediction is projected onto the
    (closed) admissible polytope of the original family, which makes
    every returned input satisfy the constraints up to the projection
    tolerance; without it the prediction is returned as-is.
    """
    q, _ = scale_params(p)
    k_hat = mlp_forward(model, flatten_scaled(q))
    if hard:
        return project_onto_polytope(p, k_hat)
    return k_hat


def nn_controller(model: MlpModel, problem, x, hard: bool = False) -> np.ndarray:
    """``nn_prediction`` for the state's constraint family."""
    return nn_prediction(model, problem.constraint_map(np.asarray(x, dtype=float)), hard)


def warmstart_solve(model: MlpModel, p: ConstraintParams):
    """Exact solve started from the network prediction.

    The prediction is passed as a warmstart.  A prediction strictly
    inside the polytope seeds Newton as given; any other prediction is
    ignored and the solve is exactly a cold one, started at the point
    ``find_interior_point`` certifies.  Either way the result carries the
    exact solver's postconditions unchanged.
    """
    return solve_exact(p, warmstart=nn_prediction(model, p))


# ---------------------------------------------------------------------------
# persistence


def save_model(model: MlpModel, path) -> None:
    """Write the model as a single JSON document."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "N": model.n_constraints,
        "m": model.control_dim,
        "layer_widths": list(model.layer_widths),
        "residual_flags": list(model.residual_flags),
        "activation": "silu",
        "weights": [w.tolist() for w in model.weights],
        "biases": [c.tolist() for c in model.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> MlpModel:
    """Read a model written by save_model.

    Unparseable JSON raises FormatError with the character offset;
    parseable documents with wrong fields or inconsistent dimensions
    raise SchemaError (see ``unisafe.files``).
    """
    fields = {"schema_version", "N", "m", "layer_widths", "residual_flags", "activation"}
    doc = read_json(path, "model file", fields | {"weights", "biases"})
    if doc["schema_version"] != MODEL_SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {doc['schema_version']!r}")
    if doc["activation"] != "silu":
        raise SchemaError(f"unsupported activation {doc['activation']!r}")
    with schema_errors("model file"):
        model = MlpModel(
            int(doc["N"]),
            int(doc["m"]),
            tuple(np.asarray(w, dtype=float) for w in doc["weights"]),
            tuple(np.asarray(c, dtype=float) for c in doc["biases"]),
            tuple(doc["residual_flags"]),
        )
        declared = [int(w) for w in doc["layer_widths"]]
    if list(model.layer_widths) != declared:
        raise SchemaError(
            f"declared layer widths {doc['layer_widths']} do not match the stored weights"
        )
    return model


def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def _dataset_header(n_constraints: int, control_dim: int) -> list:
    d = input_width(n_constraints, control_dim)
    return [f"q_{i}" for i in range(d)] + [f"k_{j}" for j in range(control_dim)]


def save_dataset(dataset: Dataset, path) -> None:
    """Write rows as CSV with a JSON metadata sidecar next to it.

    The sidecar shares the CSV's name with a .json suffix.  The CSV goes
    through ``unisafe.files``, like every file the package reads back.
    """
    header = _dataset_header(dataset.n_constraints, dataset.control_dim)
    write_table(path, header, np.hstack([dataset.inputs, dataset.labels]))
    meta = {
        "N": dataset.n_constraints,
        "m": dataset.control_dim,
        "seed": dataset.seed,
        "count": len(dataset),
        "label_tol": dataset.label_tol,
    }
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset (CSV plus sidecar).

    Unparseable files raise FormatError; a sidecar with missing or
    non-numeric fields, a row count other than the declared one, or
    rows the Dataset invariants reject raise SchemaError.
    """
    meta = read_json(_sidecar_path(path), "dataset sidecar", {"N", "m", "seed", "count", "label_tol"})
    with schema_errors("dataset sidecar"):
        n, m, seed, count = (int(meta[key]) for key in ("N", "m", "seed", "count"))
        label_tol = float(meta["label_tol"])

    def expected(header):
        # The width comes first: a sidecar may declare any N, and the
        # expected header takes memory in proportion to it.
        return _dataset_header(n, m) if len(header) == input_width(n, m) + m else []

    _, data = read_table(path, "dataset", expected)
    if data.shape[0] != count:
        raise SchemaError(f"sidecar declares {count} rows but the file has {data.shape[0]}")
    d = input_width(n, m)
    with schema_errors("dataset file"):
        return Dataset(data[:, :d], data[:, d:], n, m, seed, label_tol)
