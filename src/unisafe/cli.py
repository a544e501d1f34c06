"""Command-line surface tying the toolkit together.

Subcommands cover single solves, dataset generation, training,
evaluation, closed-loop simulation, and controller benchmarking.  Every
file the CLI writes (datasets, models, trajectories, bench tables) can
be read back by the CLI or the library.

Exit codes: 0 success, 1 internal error, 2 infeasible instance or
state, 64 usage error, 65 malformed data (any dataset, model or problem
file that fails to parse or is inconsistent), 66 missing file.  The
environment variable UNISAFE_THREADS caps the worker processes that
dataset rows fan out across; everything else, benchmark loops and
timings included, runs serially in one process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InfeasibleError, SchemaError, UnisafeError
from .files import read_json, schema_errors, write_table
from .nn import (
    load_dataset,
    load_model,
    mlp_forward,
    nn_controller,
    init_model,
    sample_dataset,
    save_dataset,
    save_model,
    train,
    TrainConfig,
    unflatten_scaled,
    warmstart_solve,
)
from .objective import eval_J, grad_J
from .params import ConstraintParams, find_interior_point, margins
from .qp import project_onto_polytope
from .sim import (
    exact_controller,
    make_example_1,
    make_example_2,
    qp_controller,
    simulate,
    simulate_interconnection,
    trajectory_metrics,
    write_trajectory_csv,
)
from .solver import SolveStatus, closed_form_1d, solve_exact, solve_gradient_flow, u_star

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NO_FILE = 66


class _UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes ours
        raise _UsageError(message)


def worker_count() -> int:
    """Worker cap from UNISAFE_THREADS; unset or unparseable means 1."""
    raw = os.environ.get("UNISAFE_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# shared flag handling


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _load_instance(args) -> ConstraintParams:
    """Constraint family from --A/--B flags or a JSON problem file."""
    if args.file is not None:
        doc = read_json(args.file, "problem file", {"A", "B"})
        with schema_errors("problem file"):
            return ConstraintParams(
                np.asarray(doc["A"], dtype=float), np.asarray(doc["B"], dtype=float)
            )
    if not args.A or not args.B:
        raise _UsageError("provide --A and --B (repeatable, one constraint per pair) or --file")
    rows = [_parse_vector(text, "--B") for text in args.B]
    try:
        return ConstraintParams(np.asarray(args.A, dtype=float), np.stack(rows))
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _require_feasible_state(problem, x: np.ndarray) -> np.ndarray:
    """The interior input certified at state x; InfeasibleError if there is none."""
    p = problem.constraint_map(x)
    outcome = find_interior_point(p)
    if not outcome:
        failing = margins(p, outcome.best_point)
        raise InfeasibleError(
            f"state {x.tolist()} admits no strictly feasible input;"
            f" best margins {[float(v) for v in failing]}",
            max_margin=outcome.best_margin,
            state=x,
        )
    return outcome.best_point


_EXAMPLES = {
    "1-2d": lambda: make_example_1(2),
    "1-10d": lambda: make_example_1(10),
    "2": make_example_2,
}

_DEFAULT_X0 = {
    "1-2d": "1,0",
    "1-10d": "1.5,1.5,1.5,1.5,1.5,1.5,1.5,1.5,1.5,1.5",
    "2": f"2,2,{math.pi + 0.1}",
}


def _model_for(problem, path) -> "MlpModel":
    if path is None:
        raise _UsageError("this controller needs --model")
    model = load_model(path)
    p_probe = problem.constraint_map(np.asarray(_probe_state(problem), dtype=float))
    if model.n_constraints != p_probe.n_constraints or model.control_dim != p_probe.input_dim:
        raise SchemaError(
            f"model expects (N={model.n_constraints}, m={model.control_dim}) but the"
            f" example produces (N={p_probe.n_constraints}, m={p_probe.input_dim})"
        )
    return model


def _probe_state(problem) -> list[float]:
    return [1.0] * problem.system.state_dim


def _build_controller(name: str, problem, model_path, cold: bool = False):
    """Per-call controller for sim/bench; exposes last_iterations when meaningful.

    ``cold`` makes the exact controller solve from scratch at every call
    (the benchmark's from-scratch baseline); otherwise it warmstarts from
    the previous step, which is the realistic closed-loop setting.
    """
    if name == "ustar":
        return exact_controller(problem, warmstart=not cold)
    if name == "qp":
        return qp_controller(problem)
    if name == "nn":
        model = _model_for(problem, model_path)
        return lambda x: nn_controller(model, problem, x)
    if name == "nn-hard":
        model = _model_for(problem, model_path)
        return lambda x: nn_controller(model, problem, x, hard=True)
    if name == "warmstart":
        model = _model_for(problem, model_path)

        def controller(x):
            result = warmstart_solve(model, problem.constraint_map(np.asarray(x, dtype=float)))
            controller.last_iterations = result.iterations
            return result.k_star

        controller.last_iterations = 0
        return controller
    raise _UsageError(f"unknown controller {name!r}")


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    p = _load_instance(args)
    if args.warmstart_model is not None and args.method != "newton":
        raise _UsageError("--warmstart-model applies to --method newton only")
    outcome = find_interior_point(p)
    if not outcome:
        raise InfeasibleError(
            f"constraint system A={p.a.tolist()}, B={p.b.tolist()} is infeasible;"
            f" best margins {[float(v) for v in margins(p, outcome.best_point)]}",
            max_margin=outcome.best_margin,
        )

    if args.method == "sontag":
        if p.n_constraints != 1 or p.input_dim != 1:
            raise _UsageError("--method sontag needs a single scalar constraint (N = m = 1)")
        k = closed_form_1d(float(p.a[0]), float(p.b[0, 0]))
        k_star = np.array([k])
        result_fields = {
            "k_star": k_star.tolist(),
            "objective": float(eval_J(p, k_star)),
            "grad_norm": float(np.linalg.norm(grad_J(p, k_star))),
            "iterations": 0,
            "status": SolveStatus.CONVERGED.name,
        }
        status = SolveStatus.CONVERGED
    else:
        # Both solvers start at the point certified above, not a second search's.
        if args.method == "flow":
            result = solve_gradient_flow(p, tol=args.tol, warmstart=outcome.best_point)
        elif args.warmstart_model is not None:
            result = warmstart_solve(load_model(args.warmstart_model), p)
        else:
            result = solve_exact(p, warmstart=outcome.best_point)
        result_fields = {
            "k_star": result.k_star.tolist(),
            "objective": float(result.objective),
            "grad_norm": float(result.grad_norm),
            "iterations": int(result.iterations),
            "status": result.status.name,
        }
        status = result.status

    result_fields["margins"] = [float(v) for v in margins(p, np.asarray(result_fields["k_star"]))]
    print(json.dumps(result_fields, indent=2))
    return EXIT_OK if status is SolveStatus.CONVERGED else EXIT_ERROR


# ---------------------------------------------------------------------------
# dataset / train / eval


def cmd_dataset(args) -> int:
    dataset = sample_dataset(
        args.N, args.m, args.count, args.seed, label_tol=args.label_tol,
        workers=worker_count(),
    )
    save_dataset(dataset, args.out)
    sidecar = str(Path(args.out).with_suffix(".json"))
    print(json.dumps({"rows": len(dataset), "out": str(args.out), "sidecar": sidecar}))
    return EXIT_OK


def _check_dims(model, dataset) -> None:
    if model.n_constraints != dataset.n_constraints or model.control_dim != dataset.control_dim:
        raise SchemaError(
            f"model is for (N={model.n_constraints}, m={model.control_dim}) but the dataset"
            f" holds (N={dataset.n_constraints}, m={dataset.control_dim}) rows"
        )


def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    if args.init_model is not None:
        model = load_model(args.init_model)
        _check_dims(model, dataset)
    else:
        hidden = tuple(int(w) for w in str(args.hidden).split(",") if w.strip())
        model = init_model(
            dataset.n_constraints,
            dataset.control_dim,
            hidden_widths=hidden,
            residual=args.residual,
            seed=args.seed,
        )
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        freeze_all_but_last=args.freeze_last,
        seed=args.seed,
    )
    result = train(model, dataset, config)
    save_model(result.model, args.out)
    losses_path = Path(args.out).with_suffix(".losses.csv")
    epochs = map(str, range(1, len(result.train_loss) + 1))
    rows = zip(epochs, result.train_loss, result.val_loss)
    write_table(losses_path, ["epoch", "train_mse", "val_mse"], rows)
    print(
        json.dumps(
            {
                "out": str(args.out),
                "losses": str(losses_path),
                "epochs": args.epochs,
                "final_train_mse": float(result.train_loss[-1]),
                # no validation split on tiny datasets: NaN is not JSON
                "final_val_mse": None if np.isnan(result.val_loss[-1]) else float(result.val_loss[-1]),
            }
        )
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    model = load_model(args.model)
    _check_dims(model, dataset)
    predictions = np.stack([mlp_forward(model, row) for row in dataset.inputs])
    summary = {"rows": len(dataset)}
    if args.hard:
        satisfied = 0
        for i, row in enumerate(dataset.inputs):
            q = unflatten_scaled(row, dataset.n_constraints, dataset.control_dim)
            projected = project_onto_polytope(q.base, predictions[i])
            if float(np.max(margins(q.base, projected))) <= 1e-9:
                satisfied += 1
            predictions[i] = projected
        summary["hard_rate"] = satisfied / len(dataset)
    summary["mse"] = float(np.mean((predictions - dataset.labels) ** 2))
    print(json.dumps(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    problem = _EXAMPLES[args.example]()
    x0 = _parse_vector(args.x0 if args.x0 is not None else _DEFAULT_X0[args.example], "--x0")
    if x0.shape != (problem.system.state_dim,):
        raise _UsageError(
            f"--x0 has {x0.shape[0]} entries; example {args.example} needs"
            f" {problem.system.state_dim}"
        )
    start = _require_feasible_state(problem, x0)

    if args.controller == "interconnect":
        u0 = u_star(problem, x0, warmstart=start)
        traj = simulate_interconnection(problem, args.tau, x0, u0, args.T, dt=args.dt)
    else:
        controller = _build_controller(args.controller, problem, args.model)
        traj = simulate(problem, controller, x0, args.T, dt=args.dt)

    write_trajectory_csv(traj, args.out, lyapunov=problem.lyapunov, barriers=problem.barriers)
    summary = trajectory_metrics(traj, lyapunov=problem.lyapunov, barriers=problem.barriers)
    metrics = {
        "min_h_min": float(summary.min_h.min()) if summary.min_h.size else None,
        "V_final": float(summary.lyapunov[-1]) if summary.lyapunov.size else None,
        "violations": summary.violations,
        "V_increase_count": summary.lyapunov_increases,
    }
    metrics_path = Path(args.out).with_suffix(".metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2)
    print(
        json.dumps(
            {
                **metrics,
                "out": str(args.out),
                "metrics": str(metrics_path),
                "samples": len(traj.times),
                "final_state_norm": summary.final_state_norm,
                "error": traj.error,
            },
            indent=2,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


@dataclass(frozen=True)
class BenchRow:
    """Timing and closed-loop summary for one controller."""

    name: str
    mean_ms: float
    std_ms: float
    median_ms: float
    violations: int
    final_state_norm: float
    mean_iterations: float
    median_iterations: float

    def __post_init__(self):
        if self.mean_ms < 0.0 or self.std_ms < 0.0 or self.median_ms < 0.0:
            raise ValueError("timings must be nonnegative")


@dataclass(frozen=True)
class BenchReport:
    """One row per benchmarked controller plus the hardware caveat."""

    rows: tuple
    note: str

    def __getitem__(self, name: str) -> BenchRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


BENCH_NOTE = (
    "absolute times are hardware-dependent; compare rows within this run only"
)

_WARMUP_CALLS = 10
# Horizon and step of each controller's closed-loop sample-and-hold run.
_BENCH_T = 5.0
_BENCH_DT = 1e-2


def run_bench(
    example: str,
    controllers,
    samples: int = 200,
    seed: int = 0,
    model_path=None,
    x0=None,
) -> BenchReport:
    """Time controllers on one shared state sequence and simulate each loop.

    A sample-and-hold reference run under the exact controller supplies
    the states; every controller is then timed per call on those same
    states (after a discarded warm-up), so timing comparisons are
    paired.  Safety violations and the final state norm come from each
    controller's own closed-loop sample-and-hold run over the same
    horizon.  Everything runs serially: the closed loops are pure Python,
    so threads would only take turns under the interpreter lock.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    problem = _EXAMPLES[example]()
    if x0 is None:
        x0 = _parse_vector(_DEFAULT_X0[example], "--x0")
    x0 = np.asarray(x0, dtype=float)
    _require_feasible_state(problem, x0)

    reference = simulate(
        problem,
        exact_controller(problem),
        x0,
        T=samples * _BENCH_DT,
        dt=_BENCH_DT,
        mode="sample_and_hold",
    )
    states = reference.states[:-1]
    if len(states) == 0:
        states = reference.states

    names = list(controllers)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(states))  # deterministic, shared across rows
    timed_states = states[order]

    rows = []
    for name in names:
        controller = _build_controller(name, problem, model_path, cold=True)
        traj = simulate(problem, controller, x0, T=_BENCH_T, dt=_BENCH_DT, mode="sample_and_hold")
        summary = trajectory_metrics(traj, lyapunov=problem.lyapunov, barriers=problem.barriers)

        controller = _build_controller(name, problem, model_path, cold=True)
        for x in timed_states[:_WARMUP_CALLS]:
            controller(x)
        times_ms = []
        iteration_counts = []
        for x in timed_states:
            start = time.perf_counter()
            controller(x)
            times_ms.append((time.perf_counter() - start) * 1e3)
            iteration_counts.append(getattr(controller, "last_iterations", None))
        iterations = [float(i) for i in iteration_counts if i is not None]
        rows.append(
            BenchRow(
                name=name,
                mean_ms=statistics.fmean(times_ms),
                std_ms=statistics.pstdev(times_ms) if len(times_ms) > 1 else 0.0,
                median_ms=statistics.median(times_ms),
                violations=summary.violations,
                final_state_norm=summary.final_state_norm,
                mean_iterations=statistics.fmean(iterations) if iterations else math.nan,
                median_iterations=statistics.median(iterations) if iterations else math.nan,
            )
        )
    return BenchReport(rows=tuple(rows), note=BENCH_NOTE)


def cmd_bench(args) -> int:
    names = [part.strip() for part in args.controllers.split(",") if part.strip()]
    if not names:
        raise _UsageError("--controllers must name at least one controller")
    report = run_bench(
        args.example,
        names,
        samples=args.samples,
        seed=args.seed,
        model_path=args.model,
        x0=_parse_vector(args.x0, "--x0") if args.x0 is not None else None,
    )
    header = f"{'controller':<12} {'mean ms':>9} {'std ms':>9} {'median ms':>10} {'violations':>11} {'final |x|':>10} {'iters':>7}"
    print(header)
    for row in report.rows:
        iters = "-" if math.isnan(row.mean_iterations) else f"{row.mean_iterations:.1f}"
        print(
            f"{row.name:<12} {row.mean_ms:>9.4f} {row.std_ms:>9.4f} {row.median_ms:>10.4f}"
            f" {row.violations:>11d} {row.final_state_norm:>10.3e} {iters:>7}"
        )
    print(f"note: {report.note}")
    if args.out is not None:
        write_table(
            args.out,
            ["controller", "mean_ms", "std_ms", "median_ms", "violations"]
            + ["final_state_norm", "mean_iterations", "median_iterations"],
            (
                [row.name, row.mean_ms, row.std_ms, row.median_ms, str(row.violations)]
                + [row.final_state_norm, row.mean_iterations, row.median_iterations]
                for row in report.rows
            ),
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="unisafe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="minimize the admissibility objective once")
    solve.add_argument("--A", type=float, action="append", help="constraint offset (repeatable)")
    solve.add_argument(
        "--B",
        action="append",
        help="constraint row, comma-separated (repeatable; write --B=-0.3,0.8 when the row starts with a minus)",
    )
    solve.add_argument("--file", help='JSON problem file {"A": [...], "B": [[...]]}')
    solve.add_argument("--method", choices=("newton", "flow", "sontag"), default="newton")
    solve.add_argument("--tol", type=float, default=1e-6, help="gradient tolerance for --method flow")
    solve.add_argument("--warmstart-model", help="model JSON whose prediction seeds the solve")
    solve.set_defaults(func=cmd_solve)

    dataset = sub.add_parser("dataset", help="sample a labeled training dataset")
    dataset.add_argument("--N", type=int, required=True, help="constraint count")
    dataset.add_argument("--m", type=int, required=True, help="input dimension")
    dataset.add_argument("--count", type=int, default=5000)
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--label-tol", type=float, default=1e-6)
    dataset.add_argument("--out", required=True, help="dataset CSV path (sidecar JSON written next to it)")
    dataset.set_defaults(func=cmd_dataset)

    train_cmd = sub.add_parser("train", help="fit a model to a dataset")
    train_cmd.add_argument("--data", required=True, help="dataset CSV from the dataset command")
    train_cmd.add_argument("--lr", type=float, default=3e-3)
    train_cmd.add_argument("--epochs", type=int, default=2000)
    train_cmd.add_argument("--batch", type=int, default=None, help="minibatch size (default: full batch)")
    train_cmd.add_argument("--hidden", default="64,64,64,64", help="hidden widths, comma-separated")
    train_cmd.add_argument("--residual", action="store_true", help="identity skips on equal-width layers")
    train_cmd.add_argument("--freeze-last", action="store_true", help="train only the final layer")
    train_cmd.add_argument("--init-model", help="start from this model instead of a fresh one")
    train_cmd.add_argument("--seed", type=int, default=0)
    train_cmd.add_argument("--out", required=True, help="model JSON path (loss history CSV written next to it)")
    train_cmd.set_defaults(func=cmd_train)

    eval_cmd = sub.add_parser("eval", help="score a model on a dataset")
    eval_cmd.add_argument("--data", required=True)
    eval_cmd.add_argument("--model", required=True)
    eval_cmd.add_argument("--hard", action="store_true", help="project predictions onto the constraints")
    eval_cmd.set_defaults(func=cmd_eval)

    sim = sub.add_parser("simulate", help="run a closed loop and record the trajectory")
    sim.add_argument("--example", choices=tuple(_EXAMPLES), required=True)
    sim.add_argument(
        "--controller",
        choices=("ustar", "qp", "nn", "nn-hard", "warmstart", "interconnect"),
        default="ustar",
    )
    sim.add_argument("--x0", help="initial state, comma-separated (default per example)")
    sim.add_argument("--T", type=float, default=20.0)
    sim.add_argument("--dt", type=float, default=1e-2)
    sim.add_argument("--tau", type=float, default=1e4, help="input descent rate for interconnect")
    sim.add_argument("--model", help="model JSON for nn/nn-hard/warmstart")
    sim.add_argument("--out", required=True, help="trajectory CSV path (metrics JSON written next to it)")
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("bench", help="time controllers on a shared state sequence")
    bench.add_argument("--example", choices=tuple(_EXAMPLES), default="1-2d")
    bench.add_argument("--controllers", default="ustar,qp", help="comma-separated controller names")
    bench.add_argument("--samples", type=int, default=200, help="timed calls per controller")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--model", help="model JSON for nn rows")
    bench.add_argument("--x0", help="initial state for the reference run")
    bench.add_argument("--out", help="also write the table as CSV")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and friends
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FormatError, SchemaError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as err:
        print(f"missing file: {err}", file=sys.stderr)
        return EXIT_NO_FILE
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except UnisafeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as err:  # noqa: BLE001 -- contract: 1 means internal error
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
