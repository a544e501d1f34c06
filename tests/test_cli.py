"""End-to-end checks of the command-line interface.

Every test drives ``unisafe.cli.main`` in process with an argv list and
inspects the exit code, captured stdout/stderr, and any files written,
so the whole argument-parsing and error-mapping surface is exercised
without spawning subprocesses.
"""

import csv
import json
import math

import numpy as np
import pytest

import unisafe.cli
import unisafe.params
from unisafe import InfeasibleError, init_model, load_model, read_trajectory_csv, save_model
from unisafe.cli import (
    BENCH_NOTE,
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_NO_FILE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    worker_count,
)

from test_sim import switching_problem


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared dataset and tiny trained model matching the 2D example."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.csv"
    rc = main(
        ["dataset", "--N", "2", "--m", "2", "--count", "30", "--seed", "5", "--out", str(data)]
    )
    assert rc == EXIT_OK
    model = root / "model.json"
    rc = main(
        [
            "train",
            "--data",
            str(data),
            "--epochs",
            "40",
            "--hidden",
            "8",
            "--lr",
            "0.01",
            "--out",
            str(model),
        ]
    )
    assert rc == EXIT_OK
    return {"root": root, "data": data, "model": model}


def run_json(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, json.loads(captured.out)


# ---------------------------------------------------------------------------
# solve


def test_solve_sontag_matches_universal_formula(capsys):
    rc, out = run_json(capsys, ["solve", "--method", "sontag", "--A", "-1", "--B", "1"])
    assert rc == EXIT_OK
    assert out["status"] == "CONVERGED"
    assert out["iterations"] == 0
    assert math.isclose(out["k_star"][0], 1.0 - math.sqrt(2.0), abs_tol=1e-12)
    assert all(v < 0.0 for v in out["margins"])


def test_solve_newton_reports_converged_interior_point(capsys):
    rc, out = run_json(
        capsys, ["solve", "--A", "-0.5", "--A", "-0.8", "--B=-0.3,0.8", "--B=0.5,0.1"]
    )
    assert rc == EXIT_OK
    assert out["status"] == "CONVERGED"
    assert out["grad_norm"] <= 1e-9
    assert out["iterations"] >= 1
    assert max(out["margins"]) < 0.0


def test_solve_flow_agrees_with_newton(capsys):
    argv = ["solve", "--A", "-0.5", "--B=-0.3,0.8"]
    rc_newton, newton = run_json(capsys, argv)
    rc_flow, flow = run_json(capsys, argv + ["--method", "flow"])
    assert rc_newton == rc_flow == EXIT_OK
    gap = np.linalg.norm(np.array(newton["k_star"]) - np.array(flow["k_star"]))
    assert gap <= 1e-4


def test_solve_warmstart_model_reaches_same_minimizer(capsys, workdir):
    argv = ["solve", "--A", "-0.5", "--A", "-0.8", "--B=-0.3,0.8", "--B=0.5,0.1"]
    rc_cold, cold = run_json(capsys, argv)
    rc_warm, warm = run_json(capsys, argv + ["--warmstart-model", str(workdir["model"])])
    assert rc_cold == rc_warm == EXIT_OK
    gap = np.linalg.norm(np.array(cold["k_star"]) - np.array(warm["k_star"]))
    assert gap <= 1e-8


@pytest.mark.parametrize("method", ["newton", "flow"])
def test_solve_runs_one_feasibility_search(capsys, monkeypatch, method):
    # The solver starts at the point the command's own search certified
    # instead of searching again.
    calls = []
    real = unisafe.params.find_interior_point

    def counted(p):
        calls.append(None)
        return real(p)

    monkeypatch.setattr(unisafe.params, "find_interior_point", counted)
    argv = ["solve", "--A", "-0.5", "--A", "-0.8", "--B=-0.3,0.8", "--B=0.5,0.1"]
    rc, out = run_json(capsys, argv + ["--method", method])
    assert rc == EXIT_OK
    assert out["status"] == "CONVERGED"
    assert len(calls) == 1


def test_solve_warmstart_model_requires_newton(capsys, workdir):
    rc = main(
        [
            "solve",
            "--A",
            "-0.5",
            "--B=-0.3,0.8",
            "--method",
            "flow",
            "--warmstart-model",
            str(workdir["model"]),
        ]
    )
    assert rc == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_solve_infeasible_system_exits_2(capsys):
    rc = main(["solve", "--A", "1", "--A", "1", "--B", "1", "--B=-1"])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "infeasible" in err and "best margins" in err


def test_solve_from_json_file(capsys, tmp_path):
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps({"A": [-0.5], "B": [[-0.3, 0.8]]}), encoding="utf-8")
    rc, out = run_json(capsys, ["solve", "--file", str(spec)])
    assert rc == EXIT_OK
    assert out["status"] == "CONVERGED"


def test_solve_missing_file_exits_66(capsys):
    rc = main(["solve", "--file", "/no/such/problem.json"])
    assert rc == EXIT_NO_FILE
    assert "missing file" in capsys.readouterr().err


def test_solve_malformed_file_exits_65(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--file", str(bad)]) == EXIT_DATA
    capsys.readouterr()

    missing_b = tmp_path / "missing_b.json"
    missing_b.write_text(json.dumps({"A": [-1.0]}), encoding="utf-8")
    assert main(["solve", "--file", str(missing_b)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err

    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps({"A": [10**400], "B": [[1.0]]}), encoding="utf-8")
    assert main(["solve", "--file", str(overflow)]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_solve_mismatched_rows_is_usage_error(capsys):
    rc = main(["solve", "--A", "-1", "--A", "-2", "--B=-0.3,0.8"])
    assert rc == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------------------
# argument plumbing


def test_unknown_subcommand_and_empty_argv(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "solve" in capsys.readouterr().out


def test_parser_defaults_carry_reference_settings():
    parser = build_parser()
    ds = parser.parse_args(["dataset", "--N", "2", "--m", "2", "--out", "d.csv"])
    assert ds.count == 5000 and ds.seed == 0
    tr = parser.parse_args(["train", "--data", "d.csv", "--out", "m.json"])
    assert tr.lr == pytest.approx(3e-3) and tr.epochs == 2000
    assert tr.hidden == "64,64,64,64" and tr.batch is None
    sim = parser.parse_args(["simulate", "--example", "1-2d", "--out", "t.csv"])
    assert sim.T == pytest.approx(20.0) and sim.dt == pytest.approx(1e-2)
    assert sim.tau == pytest.approx(1e4) and sim.controller == "ustar"
    bench = parser.parse_args(["bench"])
    assert bench.samples == 200 and bench.controllers == "ustar,qp"


def test_worker_count_reads_environment(monkeypatch):
    monkeypatch.delenv("UNISAFE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("UNISAFE_THREADS", "8")
    assert worker_count() == 8
    monkeypatch.setenv("UNISAFE_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("UNISAFE_THREADS", "three")
    assert worker_count() == 1


# ---------------------------------------------------------------------------
# dataset / train / eval


def test_dataset_is_deterministic_across_worker_counts(capsys, tmp_path, monkeypatch):
    first = tmp_path / "a.csv"
    rc, out = run_json(
        capsys,
        ["dataset", "--N", "2", "--m", "2", "--count", "8", "--seed", "3", "--out", str(first)],
    )
    assert rc == EXIT_OK
    assert out["rows"] == 8
    assert (tmp_path / "a.json").exists()

    second = tmp_path / "b.csv"
    monkeypatch.setenv("UNISAFE_THREADS", "3")
    rc = main(
        ["dataset", "--N", "2", "--m", "2", "--count", "8", "--seed", "3", "--out", str(second)]
    )
    assert rc == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_train_writes_model_and_loss_history(capsys, workdir):
    capsys.readouterr()
    model = load_model(workdir["model"])
    assert model.n_constraints == 2 and model.control_dim == 2

    losses = workdir["root"] / "model.losses.csv"
    with open(losses, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_mse", "val_mse"]
    assert len(rows) == 1 + 40
    history = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert np.all(np.isfinite(history))


@pytest.mark.parametrize(
    "flags",
    [
        ["--lr", "inf"],
        ["--lr", "nan"],
        ["--lr", "0"],
        ["--batch", "2.5"],
        ["--hidden", "0"],
        ["--hidden", "8,0,8"],
        ["--hidden", "-3"],
    ],
)
def test_train_bad_rate_batch_or_width_is_usage_error(capsys, tmp_path, workdir, flags):
    argv = ["train", "--data", str(workdir["data"]), "--epochs", "2", "--out", str(tmp_path / "m.json")]
    assert main(argv + flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error")
    assert not (tmp_path / "m.json").exists()


def test_eval_reports_mse_and_hard_rate(capsys, workdir):
    rc, plain = run_json(capsys, ["eval", "--data", str(workdir["data"]), "--model", str(workdir["model"])])
    assert rc == EXIT_OK
    assert plain["rows"] == 30
    assert "hard_rate" not in plain

    rc, hard = run_json(
        capsys,
        ["eval", "--data", str(workdir["data"]), "--model", str(workdir["model"]), "--hard"],
    )
    assert rc == EXIT_OK
    assert hard["hard_rate"] == 1.0
    assert np.isfinite(hard["mse"])


def test_eval_dimension_mismatch_exits_65(capsys, tmp_path, workdir):
    other = tmp_path / "other.json"
    save_model(init_model(1, 1, hidden_widths=(4,), seed=0), other)
    rc = main(["eval", "--data", str(workdir["data"]), "--model", str(other)])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_train_on_a_tiny_dataset_prints_strict_json(capsys, tmp_path):
    # five rows or fewer hold out no validation split, so val_mse is NaN
    data = tmp_path / "one.csv"
    assert main(["dataset", "--N", "1", "--m", "1", "--count", "1", "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    model = tmp_path / "one_model.json"
    rc = main(["train", "--data", str(data), "--epochs", "3", "--hidden", "4", "--out", str(model)])
    assert rc == EXIT_OK

    def reject(constant):
        raise AssertionError(f"stdout carries {constant}, which is not JSON")

    summary = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert summary["final_val_mse"] is None
    assert math.isfinite(summary["final_train_mse"])
    losses = (tmp_path / "one_model.losses.csv").read_text().splitlines()
    assert losses[-1].endswith(",nan")


def _set_cell(path, value):
    lines = path.read_text().splitlines()
    lines[1] = ",".join([value] + lines[1].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")


def _set_field(path, key, value):
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))


def _overflow_weight(path):
    # a JSON integer too large for a float64
    doc = json.loads(path.read_text())
    doc["weights"][0][0][0] = 10**400
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("train.csv", lambda path: _set_cell(path, "nan")),
        ("train.json", lambda path: _set_field(path, "N", "one")),
        ("train.json", lambda path: _set_field(path, "count", "3x")),
        ("train.json", lambda path: _set_field(path, "label_tol", None)),
        ("model.json", lambda path: _set_field(path, "layer_widths", 5)),
        ("model.json", lambda path: _set_field(path, "layer_widths", ["a"])),
        ("train.csv", lambda path: path.write_bytes(b"\xff\xfe" + path.read_bytes())),
        ("model.json", lambda path: path.write_bytes(b"\xff\xfe" + path.read_bytes())),
        ("model.json", _overflow_weight),
    ],
    ids=[
        "nan-cell",
        "sidecar-N-one",
        "sidecar-count-3x",
        "sidecar-label_tol-null",
        "model-layer_widths-5",
        "model-layer_widths-a",
        "dataset-not-utf8",
        "model-not-utf8",
        "model-weight-overflow",
    ],
)
def test_malformed_data_files_exit_65(capsys, tmp_path, workdir, name, corrupt):
    # copies of the shared dataset, its sidecar and the model, one of them broken
    for source in (workdir["data"], workdir["data"].with_suffix(".json"), workdir["model"]):
        (tmp_path / source.name).write_bytes(source.read_bytes())
    corrupt(tmp_path / name)
    rc = main(["eval", "--data", str(tmp_path / "train.csv"), "--model", str(tmp_path / "model.json")])
    assert rc == EXIT_DATA
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trajectory_and_metrics(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    rc, summary = run_json(
        capsys,
        ["simulate", "--example", "1-2d", "--T", "0.5", "--out", str(out)],
    )
    assert rc == EXIT_OK
    assert summary["violations"] == 0
    assert summary["error"] is None

    traj = read_trajectory_csv(out)
    assert len(traj) == summary["samples"]
    assert traj.states.shape[1] == 2

    with open(tmp_path / "traj.metrics.json", encoding="utf-8") as fh:
        metrics = json.load(fh)
    assert set(metrics) == {"min_h_min", "V_final", "violations", "V_increase_count"}
    assert metrics["violations"] == 0


def test_simulate_infeasible_start_exits_2(capsys, tmp_path):
    rc = main(
        ["simulate", "--example", "1-2d", "--x0", "0,3", "--out", str(tmp_path / "t.csv")]
    )
    assert rc == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_simulate_wrong_state_dimension_is_usage_error(capsys, tmp_path):
    rc = main(
        ["simulate", "--example", "1-2d", "--x0", "1,0,0", "--out", str(tmp_path / "t.csv")]
    )
    assert rc == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("controller", ["ustar", "interconnect"])
@pytest.mark.parametrize("flag", ["--T=inf", "--T=nan", "--dt=nan"])
def test_simulate_non_finite_horizon_is_usage_error(capsys, tmp_path, controller, flag):
    argv = ["simulate", "--example", "1-2d", "--controller", controller, flag]
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "nan", "inf"])
def test_non_finite_or_non_positive_tolerance_is_usage_error(capsys, tmp_path, tol):
    flow = ["solve", "--A=-0.5", "--A=-0.8", "--B=-0.3,0.8", "--B=0.5,0.1", "--method", "flow"]
    assert main(flow + ["--tol", tol]) == EXIT_USAGE
    dataset = ["dataset", "--N", "2", "--m", "2", "--count", "1", "--out", str(tmp_path / "d.csv")]
    assert main(dataset + ["--label-tol", tol]) == EXIT_USAGE
    assert capsys.readouterr().err.count("usage error") == 2


def test_simulate_nn_controller_requires_model(capsys, tmp_path):
    rc = main(
        [
            "simulate",
            "--example",
            "1-2d",
            "--controller",
            "nn",
            "--out",
            str(tmp_path / "t.csv"),
        ]
    )
    assert rc == EXIT_USAGE
    assert "--model" in capsys.readouterr().err


def test_simulate_nn_hard_runs_with_matching_model(capsys, tmp_path, workdir):
    out = tmp_path / "nn.csv"
    rc, summary = run_json(
        capsys,
        [
            "simulate",
            "--example",
            "1-2d",
            "--controller",
            "nn-hard",
            "--model",
            str(workdir["model"]),
            "--T",
            "0.2",
            "--out",
            str(out),
        ],
    )
    assert rc == EXIT_OK
    assert summary["samples"] >= 2


def test_simulate_interconnect_tracks_quasi_static_input(capsys, tmp_path):
    out = tmp_path / "inter.csv"
    rc, summary = run_json(
        capsys,
        [
            "simulate",
            "--example",
            "1-2d",
            "--controller",
            "interconnect",
            "--T",
            "0.3",
            "--tau",
            "1e4",
            "--out",
            str(out),
        ],
    )
    assert rc == EXIT_OK
    assert summary["violations"] == 0


def test_simulate_interconnect_runs_one_feasibility_search(capsys, monkeypatch, tmp_path):
    # The initial input's solve starts at the point the start-state check
    # certified instead of searching again.
    calls = []
    real = unisafe.params.find_interior_point

    def counted(p):
        calls.append(None)
        return real(p)

    monkeypatch.setattr(unisafe.params, "find_interior_point", counted)
    argv = ["simulate", "--example", "1-2d", "--controller", "interconnect", "--T", "0.02"]
    rc, _ = run_json(capsys, argv + ["--out", str(tmp_path / "inter.csv")])
    assert rc == EXIT_OK
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# bench


def test_bench_prints_table_and_writes_csv(capsys, tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            "--example",
            "1-2d",
            "--controllers",
            "ustar,qp",
            "--samples",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    table = capsys.readouterr().out
    assert "ustar" in table and "qp" in table
    assert BENCH_NOTE in table

    with open(out, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[0][0] == "controller"
    assert {rows[1][0], rows[2][0]} == {"ustar", "qp"}

    # Iteration columns count Newton-loop iterations: qp runs none.
    by_name = {row[0]: dict(zip(rows[0], row)) for row in rows[1:]}
    assert float(by_name["ustar"]["mean_iterations"]) > 0.0
    assert math.isnan(float(by_name["qp"]["mean_iterations"]))
    qp_line = next(line for line in table.splitlines() if line.startswith("qp "))
    assert qp_line.split()[-1] == "-"


def test_nn_hard_controller_reports_the_infeasible_state(tmp_path):
    model = tmp_path / "model.json"
    save_model(init_model(2, 1), model)
    controller = unisafe.cli._build_controller("nn-hard", switching_problem(), str(model))
    x = np.array([0.2])
    with pytest.raises(InfeasibleError) as exc:
        controller(x)
    np.testing.assert_array_equal(exc.value.state, x)


def test_bench_unknown_controller_is_usage_error(capsys):
    rc = main(["bench", "--controllers", "bogus", "--samples", "5"])
    assert rc == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
