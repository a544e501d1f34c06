import json
import tracemalloc

import numpy as np
import pytest

import unisafe.nn
from unisafe import (
    ConstraintParams,
    Dataset,
    FormatError,
    MlpModel,
    ScaledParams,
    SchemaError,
    TrainConfig,
    TrainingDivergedError,
    find_interior_point,
    flatten_scaled,
    grad_J,
    init_model,
    input_width,
    load_dataset,
    load_model,
    make_example_1,
    make_example_2,
    margins,
    mlp_forward,
    nn_controller,
    sample_dataset,
    save_dataset,
    save_model,
    solve_exact,
    train,
    unflatten_scaled,
    warmstart_solve,
)
from unisafe.nn import _mse_and_grads


def silu(z):
    return z / (1.0 + np.exp(-z))


@pytest.fixture(scope="module")
def small_ds():
    return sample_dataset(2, 2, 150, seed=7)


def passthrough_model():
    """One-hidden-unit chain that routes the first coordinate through the activation."""
    return MlpModel(
        1,
        1,
        weights=(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0]])),
        biases=(np.zeros(1), np.zeros(1)),
        residual_flags=(False, False),
    )


# layout helpers

def test_input_width_formula():
    assert input_width(2, 2) == 7
    assert input_width(10, 10) == 111
    assert init_model(2, 2).input_dim == 7


def test_flatten_unflatten_round_trip():
    q = ScaledParams(
        ConstraintParams(np.array([0.3, -0.5]), np.array([[0.6, 0.0], [0.0, 0.25]])),
        0.7,
    )
    vec = flatten_scaled(q)
    assert vec.shape == (7,)
    back = unflatten_scaled(vec, 2, 2)
    assert np.array_equal(back.base.a, q.base.a)
    assert np.array_equal(back.base.b, q.base.b)
    assert back.r == q.r
    with pytest.raises(ValueError):
        unflatten_scaled(vec[:-1], 2, 2)


# forward pass

def test_activation_values_through_forward():
    model = passthrough_model()
    # the hidden activation at 0 vanishes and at 10 nearly passes through
    assert mlp_forward(model, np.array([0.0, 0.0, 0.0]))[0] == 0.0
    out = mlp_forward(model, np.array([10.0, 0.0, 0.0]))[0]
    assert out == pytest.approx(10.0 / (1.0 + np.exp(-10.0)), abs=1e-12)
    assert out == pytest.approx(9.99955, abs=5e-6)


def test_zero_weight_model_returns_final_bias():
    model = MlpModel(
        1,
        1,
        weights=(np.zeros((4, 3)), np.zeros((1, 4))),
        biases=(np.zeros(4), np.array([0.7])),
        residual_flags=(False, False),
    )
    for point in (np.zeros(3), np.array([0.4, -1.0, 2.0])):
        assert mlp_forward(model, point) == pytest.approx([0.7], abs=0.0)


def test_forward_rejects_wrong_width():
    model = init_model(2, 2, seed=0)
    with pytest.raises(ValueError):
        mlp_forward(model, np.zeros(6))


def test_residual_forward_matches_hand_computation():
    w0 = np.array([[0.5, -0.3, 0.2], [0.1, 0.4, -0.6]])
    b0 = np.array([0.05, -0.1])
    w1 = np.array([[0.3, -0.2], [0.7, 0.1]])
    b1 = np.array([0.0, 0.2])
    w2 = np.array([[1.5, -0.5]])
    b2 = np.array([0.3])
    model = MlpModel(1, 1, (w0, w1, w2), (b0, b1, b2), (False, True, False))

    x = np.array([0.8, -0.4, 0.6])
    h0 = silu(w0 @ x + b0)
    h1 = silu(w1 @ h0 + b1) + h0  # identity skip on the square layer
    expected = w2 @ h1 + b2
    assert mlp_forward(model, x) == pytest.approx(expected, rel=1e-14)


def test_model_validation_rejects_bad_shapes():
    w = (np.zeros((4, 7)), np.zeros((2, 4)))
    b = (np.zeros(4), np.zeros(2))
    MlpModel(2, 2, w, b, (False, False))  # well-formed baseline
    with pytest.raises(ValueError):
        MlpModel(2, 2, w, b, (True, False))  # skip between widths 7 and 4
    with pytest.raises(ValueError):
        MlpModel(2, 2, w, (np.zeros(3), np.zeros(2)), (False, False))
    with pytest.raises(ValueError):
        MlpModel(2, 2, w[:1], b, (False, False))  # output width 4, control_dim 2
    with pytest.raises(ValueError):
        MlpModel(2, 2, w, b, (False,))  # flag count mismatch
    with pytest.raises(ValueError):
        MlpModel(2, 2, (), (), ())
    bad = (np.full((4, 7), np.nan), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        MlpModel(2, 2, bad, b, (False, False))


def test_init_model_is_seeded_and_flags_square_layers():
    a = init_model(2, 2, seed=5)
    b = init_model(2, 2, seed=5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(
        not np.array_equal(wa, wc)
        for wa, wc in zip(a.weights, init_model(2, 2, seed=6).weights)
    )
    assert a.layer_widths == (64, 64, 64, 64, 2)
    assert a.residual_flags == (False, False, False, False, False)

    res = init_model(2, 2, residual=True, seed=0)
    assert res.residual_flags == (False, True, True, True, False)
    mixed = init_model(2, 2, hidden_widths=(8, 16), residual=True, seed=0)
    assert mixed.residual_flags == (False, False, False)


def test_silu_is_smooth_along_a_line():
    model = init_model(2, 2, seed=0)
    rng = np.random.default_rng(1)
    base = rng.uniform(-0.5, 0.5, 7)
    direction = rng.normal(size=7)
    direction /= np.linalg.norm(direction)

    def f(t):
        return mlp_forward(model, base + t * direction)

    # increments of a differentiable map halve with the step
    h = 1e-4
    r1 = np.linalg.norm(f(h) - f(0.0))
    r2 = np.linalg.norm(f(h / 2) - f(0.0))
    assert r1 > 0.0
    assert 1.9 <= r1 / r2 <= 2.1
    # and stay uniformly small across a grid at fixed step
    grid = np.linspace(-1.0, 1.0, 201)
    values = np.array([f(t) for t in grid])
    assert np.all(np.isfinite(values))
    steps = np.linalg.norm(np.diff(values, axis=0), axis=1)
    assert steps.max() <= 50.0 * (grid[1] - grid[0])


# gradients and training

def test_backprop_matches_central_differences():
    for model in (
        init_model(1, 1, hidden_widths=(4,), seed=3),
        init_model(1, 1, hidden_widths=(4, 4), residual=True, seed=5),
    ):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, model.input_dim))
        Y = rng.normal(size=(5, model.control_dim))
        weights = [w.copy() for w in model.weights]
        biases = [c.copy() for c in model.biases]
        flags = model.residual_flags
        _, grads_w, grads_b = _mse_and_grads(weights, biases, flags, X, Y)

        def loss_at():
            return _mse_and_grads(weights, biases, flags, X, Y)[0]

        h = 1e-6
        for arrays, grads in ((weights, grads_w), (biases, grads_b)):
            for arr, grad in zip(arrays, grads):
                flat = arr.reshape(-1)
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    up = loss_at()
                    flat[idx] = keep - h
                    down = loss_at()
                    flat[idx] = keep
                    fd = (up - down) / (2.0 * h)
                    assert grad.reshape(-1)[idx] == pytest.approx(
                        fd, rel=1e-5, abs=1e-8
                    )


@pytest.mark.parametrize("residual", [False, True])
def test_backprop_stopped_at_a_layer_matches_the_full_pass(residual):
    model = init_model(2, 2, hidden_widths=(6, 6, 6), residual=residual, seed=4)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(9, model.input_dim))
    Y = rng.normal(size=(9, model.control_dim))
    batch = (model.weights, model.biases, model.residual_flags, X, Y)
    loss, full_w, full_b = _mse_and_grads(*batch)
    for first in range(model.n_layers):
        stopped, grads_w, grads_b = _mse_and_grads(*batch, first=first)
        assert stopped == loss
        for i in range(first, model.n_layers):
            assert np.array_equal(grads_w[i], full_w[i])
            assert np.array_equal(grads_b[i], full_b[i])


def test_linear_regression_sanity():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, (40, 3))
    w_true = np.array([[0.7, -0.4, 0.2]])
    Y = X @ w_true.T + 0.1
    ds = Dataset(X, Y, 1, 1, seed=0, label_tol=1e-6)
    linear = init_model(1, 1, hidden_widths=(), seed=0)
    result = train(linear, ds, TrainConfig(learning_rate=0.03, epochs=500, seed=0))
    assert result.train_loss[-1] < 1e-6
    assert result.val_loss[-1] < 1e-6


def test_training_reduces_loss_on_average(small_ds):
    model = init_model(2, 2, hidden_widths=(32, 32), seed=1)
    result = train(model, small_ds, TrainConfig(epochs=40, seed=0))
    assert result.train_loss.shape == (40,)
    assert result.val_loss.shape == (40,)
    assert np.all(np.isfinite(result.train_loss))
    assert np.all(np.isfinite(result.val_loss))
    assert np.mean(result.train_loss[-10:]) < np.mean(result.train_loss[:10])


def test_freeze_all_but_last_only_moves_final_layer(small_ds):
    base = init_model(2, 2, hidden_widths=(16, 16), seed=2)
    result = train(
        base,
        small_ds,
        TrainConfig(learning_rate=1e-2, epochs=15, freeze_all_but_last=True, seed=0),
    )
    trained = result.model
    for i in range(trained.n_layers - 1):
        assert np.array_equal(trained.weights[i], base.weights[i])
        assert np.array_equal(trained.biases[i], base.biases[i])
    assert not np.array_equal(trained.weights[-1], base.weights[-1])


def _fit_bytes(result):
    parts = (*result.model.weights, *result.model.biases, result.train_loss, result.val_loss)
    return b"".join(part.tobytes() for part in parts)


def test_batch_as_large_as_the_split_is_full_batch(small_ds):
    model = init_model(2, 2, hidden_widths=(16, 16), seed=4)
    full = train(model, small_ds, TrainConfig(epochs=10, seed=0))
    n_train = len(small_ds) - int(round(0.1 * len(small_ds)))
    for batch_size in (n_train, 10 * n_train):
        batched = train(model, small_ds, TrainConfig(epochs=10, batch_size=batch_size, seed=0))
        assert _fit_bytes(batched) == _fit_bytes(full)


def test_mini_batch_training_is_seeded_finite_and_descends(small_ds):
    model = init_model(2, 2, hidden_widths=(16, 16), seed=4)
    config = TrainConfig(epochs=20, batch_size=32, seed=3)
    first, second = train(model, small_ds, config), train(model, small_ds, config)
    assert _fit_bytes(first) == _fit_bytes(second)
    assert np.all(np.isfinite(first.train_loss))
    assert np.all(np.isfinite(first.val_loss))
    assert first.train_loss[-1] < first.train_loss[0]


@pytest.mark.parametrize("freeze", [False, True])
def test_loss_records_are_forward_passes_of_the_returned_weights(small_ds, freeze):
    config = TrainConfig(epochs=8, freeze_all_but_last=freeze, seed=5)
    result = train(init_model(2, 2, hidden_widths=(16, 16), seed=6), small_ds, config)
    # the split train() draws from the config seed
    perm = np.random.default_rng(config.seed).permutation(len(small_ds))
    n_val = min(int(round(0.1 * len(small_ds))), len(small_ds) - 1)
    model = result.model
    for rows, record in ((perm[n_val:], result.train_loss), (perm[:n_val], result.val_loss)):
        X, Y = small_ds.inputs[rows], small_ds.labels[rows]
        assert _mse_and_grads(model.weights, model.biases, model.residual_flags, X, Y)[0] == record[-1]


def test_divergence_reports_epoch(small_ds):
    model = init_model(2, 2, hidden_widths=(8, 8), seed=0)
    config = TrainConfig(learning_rate=1e60, epochs=5, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(model, small_ds, config)
    assert isinstance(excinfo.value.epoch, int)
    assert 1 <= excinfo.value.epoch <= 5


def test_train_rejects_mismatched_dataset(small_ds):
    with pytest.raises(ValueError):
        train(init_model(1, 1, seed=0), small_ds)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    assert TrainConfig().learning_rate == pytest.approx(3e-3)
    assert TrainConfig().epochs == 2000
    assert TrainConfig().batch_size is None


# dataset sampling

def test_dataset_rows_are_feasible_interior_minimizers(small_ds):
    assert len(small_ds) == 150
    for row in range(len(small_ds)):
        q = unflatten_scaled(small_ds.inputs[row], 2, 2)
        label = small_ds.labels[row]
        assert np.all(np.abs(q.base.a) <= 1.0)
        assert np.all(np.linalg.norm(q.base.b, axis=1) <= 1.0)
        assert 0.0 <= q.r <= 1.0
        assert np.max(margins(q.base, label)) < 0.0
        assert np.linalg.norm(grad_J(q, label)) <= 1e-6


def test_dataset_rejects_draws_the_flow_cannot_label_to_tolerance():
    # Row 0 of seed 9 meets a feasible, nearly anti-parallel wedge
    # (|k*| near 2800) on which the flow stalls on its rounding floor
    # above label_tol; the sampler must draw again rather than keep it.
    ds = sample_dataset(2, 2, 1, seed=9)
    q = unflatten_scaled(ds.inputs[0], 2, 2)
    assert np.linalg.norm(grad_J(q, ds.labels[0])) <= ds.label_tol


def test_dataset_is_deterministic_and_prefix_stable():
    a = sample_dataset(2, 2, 25, seed=3)
    b = sample_dataset(2, 2, 25, seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    c = sample_dataset(2, 2, 25, seed=4)
    assert not np.array_equal(a.inputs, c.inputs)
    # rows derive their generators from (seed, row), so a shorter run
    # is a prefix of a longer one
    short = sample_dataset(2, 2, 10, seed=3)
    assert np.array_equal(short.inputs, a.inputs[:10])
    assert np.array_equal(short.labels, a.labels[:10])


def test_dataset_validation():
    X = np.zeros((5, 7))
    Y = np.zeros((5, 2))
    Dataset(X, Y, 2, 2, seed=0, label_tol=1e-6)  # well-formed baseline
    with pytest.raises(ValueError):
        Dataset(X, np.zeros((5, 3)), 2, 2, seed=0, label_tol=1e-6)
    with pytest.raises(ValueError):
        Dataset(np.zeros((5, 6)), Y, 2, 2, seed=0, label_tol=1e-6)
    with pytest.raises(ValueError):
        Dataset(X, np.zeros((4, 2)), 2, 2, seed=0, label_tol=1e-6)
    with pytest.raises(ValueError):
        Dataset(np.full((5, 7), np.inf), Y, 2, 2, seed=0, label_tol=1e-6)
    with pytest.raises(ValueError):
        sample_dataset(2, 2, 0, seed=0)
    for label_tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            sample_dataset(2, 2, 5, seed=0, label_tol=label_tol)


def test_sample_dataset_starts_at_most_one_process_per_row(monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(unisafe.nn, "ProcessPoolExecutor", SerialPool)
    serial = sample_dataset(2, 2, 3, seed=4)
    pooled = sample_dataset(2, 2, 3, seed=4, workers=64)
    single = sample_dataset(2, 2, 1, seed=4, workers=64)
    assert sizes == [3]
    np.testing.assert_array_equal(pooled.inputs, serial.inputs)
    np.testing.assert_array_equal(pooled.labels, serial.labels)
    np.testing.assert_array_equal(single.labels, serial.labels[:1])


# controllers on top of a model

def test_untrained_controller_returns_finite_inputs():
    model = init_model(2, 2, seed=0)
    problem = make_example_1()
    u = nn_controller(model, problem, np.array([1.0, 0.5]))
    assert u.shape == (2,)
    assert np.all(np.isfinite(u))


def test_hard_mode_satisfies_every_margin():
    model = init_model(2, 2, seed=0)
    problem = make_example_1()
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 25:
        x = rng.uniform(-4.0, 4.0, 2)
        p = problem.constraint_map(x)
        if not find_interior_point(p):
            continue
        u = nn_controller(model, problem, x, hard=True)
        assert np.max(margins(p, u)) <= 1e-9
        checked += 1


def test_same_model_serves_both_plants():
    model = init_model(2, 2, seed=9)
    snapshot = [w.copy() for w in model.weights]
    u1 = nn_controller(model, make_example_1(), np.array([1.0, 0.5]))
    u2 = nn_controller(model, make_example_2(), np.array([2.0, 2.0, 0.3]))
    assert u1.shape == (2,) and u2.shape == (2,)
    for w, snap in zip(model.weights, snapshot):
        assert np.array_equal(w, snap)


def test_warmstart_solve_reaches_the_same_minimizer():
    model = init_model(2, 2, seed=0)
    problem = make_example_1()
    for x in (np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([-1.0, 0.5])):
        p = problem.constraint_map(x)
        warm = warmstart_solve(model, p)
        cold = solve_exact(p)
        assert warm.status is cold.status
        assert np.linalg.norm(warm.k_star - cold.k_star) <= 1e-8


# persistence

def test_model_round_trip_is_bit_exact(tmp_path):
    model = init_model(2, 2, hidden_widths=(8, 8), residual=True, seed=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.n_constraints == 2 and back.control_dim == 2
    assert back.residual_flags == model.residual_flags
    for w, v in zip(back.weights, model.weights):
        assert np.array_equal(w, v)
    for c, d in zip(back.biases, model.biases):
        assert np.array_equal(c, d)


def test_truncated_model_file_is_a_format_error(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(1, 1, hidden_widths=(4,), seed=0), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(FormatError) as excinfo:
        load_model(path)
    assert isinstance(excinfo.value.offset, int)
    assert excinfo.value.offset > 0


def test_model_schema_errors(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(1, 1, hidden_widths=(4,), seed=0), path)
    doc = json.loads(path.read_text())

    def reject(broken):
        path.write_text(json.dumps(broken))
        with pytest.raises(SchemaError):
            load_model(path)

    reject([1, 2, 3])
    reject({k: v for k, v in doc.items() if k != "weights"})
    reject({**doc, "schema_version": 2})
    reject({**doc, "activation": "relu"})
    reject({**doc, "layer_widths": [4, 2]})
    # declared shape implies a 7-wide first layer; stored weights are 3-wide
    reject({**doc, "N": 2, "m": 2})
    reject({**doc, "layer_widths": 5})
    reject({**doc, "layer_widths": ["a"]})
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "missing.json")


def test_dataset_round_trip(tmp_path, small_ds):
    subset = Dataset(
        small_ds.inputs[:10], small_ds.labels[:10], 2, 2, seed=7, label_tol=1e-6
    )
    path = tmp_path / "rows.csv"
    save_dataset(subset, path)
    assert (tmp_path / "rows.json").exists()
    back = load_dataset(path)
    assert np.array_equal(back.inputs, subset.inputs)
    assert np.array_equal(back.labels, subset.labels)
    assert (back.n_constraints, back.control_dim) == (2, 2)
    assert back.seed == 7
    assert back.label_tol == pytest.approx(1e-6)


def test_dataset_file_errors(tmp_path, small_ds):
    subset = Dataset(
        small_ds.inputs[:3], small_ds.labels[:3], 2, 2, seed=7, label_tol=1e-6
    )
    path = tmp_path / "rows.csv"
    save_dataset(subset, path)
    sidecar = tmp_path / "rows.json"
    lines = path.read_text().splitlines()

    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "absent.csv")

    path.write_text("")
    with pytest.raises(FormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.offset == 0

    path.write_text(lines[0].replace("q_0", "x_0") + "\n" + "\n".join(lines[1:]))
    with pytest.raises(FormatError):
        load_dataset(path)

    path.write_text(lines[0] + "\n")
    with pytest.raises(FormatError):
        load_dataset(path)

    short = ",".join(lines[1].split(",")[:-1])
    path.write_text(lines[0] + "\n" + short + "\n")
    with pytest.raises(FormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.offset == 2

    bad = lines[1].split(",")
    bad[3] = "spam"
    path.write_text(lines[0] + "\n" + ",".join(bad) + "\n")
    with pytest.raises(FormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.offset == 2

    path.write_text("\n".join(lines) + "\n")
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "count": 99}))
    with pytest.raises(SchemaError):
        load_dataset(path)

    sidecar.write_text(json.dumps({k: v for k, v in meta.items() if k != "seed"}))
    with pytest.raises(SchemaError):
        load_dataset(path)

    sidecar.write_text(json.dumps({**meta, "count": "3x"}))
    with pytest.raises(SchemaError):
        load_dataset(path)

    sidecar.write_text(json.dumps(meta))
    path.write_text("\n".join([lines[0], "nan" + lines[1][lines[1].index(","):], *lines[2:]]))
    with pytest.raises(SchemaError):
        load_dataset(path)

    path.write_bytes(("\n".join(lines) + "\n").replace("q_0", "q_\xff").encode("latin-1"))
    with pytest.raises(FormatError):
        load_dataset(path)

    # one cell longer than the csv module's field limit
    path.write_text("\n".join(lines) + "\n" + "1" * 200_000 + "\n")
    with pytest.raises(FormatError):
        load_dataset(path)

    # a declared width far beyond the file's is rejected before the
    # expected header is built
    path.write_text("\n".join(lines) + "\n")
    sidecar.write_text(json.dumps({**meta, "N": 200_000}))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
