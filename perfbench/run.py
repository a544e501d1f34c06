"""Closed-loop and learning-pipeline benchmark for unisafe.

    python3 perfbench/run.py --workload 2d --seed 1 --seconds 40 --trace 0

Times the package from outside, through its public functions, in one
process.  A run is one round of a fixed, seeded amount of work, whatever
``--seconds`` says (a run takes 21-47 s on the reference machine, see
README.md), so the operations a run attempts, and the ones that fail, do
not depend on how fast the machine or the package is.
One round of a workload:

* closed loops of ``make_example_1`` under ``exact_controller`` (warmstarted,
  continuous RK4: five controller calls per step) and ``qp_controller``;
* serial labelling with ``sample_dataset``;
* full-batch Adam epochs of ``train`` on the shipped rows;
* cold ``solve_exact``, ``warmstart_solve`` and the network forward pass on
  criterion 12's fixed instances.

Every output is checked by ``checks.py``; a failed check prints the result
with ``"correct": false`` and exits 1.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (spans go to ``.perfbench_out/``).  See
README.md for the metrics, the workloads and reference figures.
"""

import os

# One BLAS thread: the machine is small and the problems are tiny, so
# threads only add noise.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
OUT = ROOT / ".perfbench_out"

# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 3
# Passes of the forward-pass phase and of the cold and warm phases over
# the instances; a single pass is too short to time steadily.
NN_PASSES = 60
SOLVE_PASSES = 3
# Controller calls per closed loop whose optimality is checked.
CHECKED_CALLS = 20
# The shipped rows were labelled with this seed and gradient tolerance
# (make_data.py).
DATA_SEED = 11
LABEL_TOL = 1e-6


def _import_package():
    """Import unisafe from this checkout's src/, and nothing else."""
    if not (SRC / "unisafe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}/unisafe; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import unisafe as package

    if SRC not in Path(package.__file__).resolve().parents:
        sys.exit(f"perfbench: imported unisafe from {package.__file__}, not from {SRC}")
    return package


unisafe = _import_package()


@dataclass(frozen=True)
class Workload:
    """One set of inputs: an example plant and a learning pipeline of its shape.

    A round is cut into ``slices``; slice i runs loop i of each controller
    (when there is one) and an equal share of the learning work, so every
    phase is timed across the whole round and slow drifts in machine
    speed fall on all phases alike.  ``ustar_runs`` and ``qp_runs`` hold
    (start, horizon) pairs; the starts do not depend on the seed, so the
    failed share of a round is fixed.
    """

    dim: int
    ustar_runs: tuple
    qp_runs: tuple
    slices: int
    label_rows: int  # per slice
    epochs: int  # per slice

    @property
    def shape(self) -> tuple:
        """(N, m) of the pipeline: the plant's own constraint shape."""
        return (self.dim, self.dim)


def _obstacles_2d():
    return ((np.array([0.0, 2.5]), 1.0), (np.array([-2.0, -2.0]), 1.0), (np.array([2.0, -2.0]), 1.0))


def _obstacles_10d():
    """Nine radius-0.8 spheres in [-2.5, 2.5]^10 clear of the origin (seed 0)."""
    rng = np.random.default_rng(0)
    out = []
    while len(out) < 9:
        c = rng.uniform(-2.5, 2.5, 10)
        if float(np.linalg.norm(c)) > 1.2 * 0.8:
            out.append((c, 0.8))
    return tuple(out)


def _starts_10d(obstacles):
    """Criterion 08's three seeded starts, at least r + 0.4 from every obstacle."""
    rng = np.random.default_rng(42)
    starts = []
    while len(starts) < 3:
        x = rng.uniform(-3.0, 3.0, 10)
        if all(float(np.linalg.norm(x - c)) >= r + 0.4 for c, r in obstacles):
            starts.append(x)
    return starts


def _planar() -> Workload:
    """Criterion 07's four starts.

    ustar runs to the stop radius, where the grad_tol fault shows; qp runs
    5 s from each start, plus 1 s across the near-degenerate diagonal
    states around (0.18, 0.18).
    """
    starts = [np.array(x0) for x0 in ((1.0, 0.0), (-1.0, 0.0), (0.0, -1.0), (0.5, 0.5))]
    return Workload(
        dim=2,
        ustar_runs=tuple((x0, 20.0) for x0 in starts),
        qp_runs=tuple((x0, 5.0) for x0 in starts) + ((np.array([0.2, 0.2]), 1.0),),
        slices=5,
        label_rows=40,
        epochs=8,
    )


def _ten() -> Workload:
    """The CLI's default start to the stop radius, then criterion 08's starts for 5 s each."""
    runs = ((np.full(10, 1.5), 20.0),) + tuple((x0, 5.0) for x0 in _starts_10d(_obstacles_10d()))
    return Workload(dim=10, ustar_runs=runs, qp_runs=runs, slices=4, label_rows=30, epochs=40)


WORKLOADS = {"2d": _planar, "10d": _ten}


class CountedController:
    """Forwards controller calls, counting them and naming each as an operation."""

    def __init__(self, controller, ctx):
        self._controller = controller
        self._ctx = ctx
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        self._ctx.next()
        return self._controller(x)

    @property
    def last_iterations(self):
        return getattr(self._controller, "last_iterations", 0)


@dataclass
class Phase:
    """Work done and wall time spent in one kind of operation."""

    work: float = 0.0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0


PHASES = ("ustar", "qp", "label", "train", "cold", "warm", "nn")


class Bench:
    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.w = WORKLOADS[name]()
        self.n, self.m = self.w.shape
        self.obstacles = _obstacles_2d() if self.w.dim == 2 else _obstacles_10d()
        self.centers = np.array([c for c, _ in self.obstacles])
        self.radii = np.array([r for _, r in self.obstacles])
        self.rows = checks.planar_rows if self.w.dim == 2 else checks.reciprocal_rows
        self.ctx = spans.OpContext()
        self.tracer = None
        self.phases = {name: Phase() for name in PHASES}
        self.call_ms = {"ustar": [], "qp": []}
        self.predicted = 0
        self.interior = 0

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        n, m = self.n, self.m
        self.problem = unisafe.make_example_1(self.w.dim, obstacles=self.obstacles)
        tag = f"{self.w.dim}d"
        rows = np.load(DATA / f"{tag}_train.npz")
        self.train_rows = unisafe.Dataset(rows["inputs"], rows["labels"], n, m, DATA_SEED, LABEL_TOL)
        self.model = unisafe.load_model(DATA / f"{tag}_model.json")
        # Criterion 12's instances, the same in every run: their solve cost
        # has a heavy tail (about one in 500 costs a hundred times the
        # median), so a seeded draw of a few hundred would swing the means
        # by a quarter from seed to seed.
        inst = np.load(DATA / f"{tag}_instances.npz")
        self.instances = [unisafe.ConstraintParams(a, b) for a, b in zip(inst["a"], inst["b"])]
        self._warm_up()

    def _warm_up(self) -> None:
        x0 = self.w.ustar_runs[0][0]
        unisafe.simulate(self.problem, unisafe.exact_controller(self.problem), x0, T=0.05)
        unisafe.simulate(self.problem, unisafe.qp_controller(self.problem), x0, T=0.05)
        unisafe.sample_dataset(self.n, self.m, 1, seed=self.seed)
        small = unisafe.Dataset(
            self.train_rows.inputs[:50], self.train_rows.labels[:50], self.n, self.m, DATA_SEED, LABEL_TOL
        )
        unisafe.train(unisafe.init_model(self.n, self.m, seed=self.seed), small, unisafe.TrainConfig(epochs=1))
        unisafe.warmstart_solve(self.model, self.instances[0])
        q, _ = unisafe.scale_params(self.instances[0])
        unisafe.mlp_forward(self.model, unisafe.flatten_scaled(q))

    # -- one round -----------------------------------------------------------

    def run_round(self, phases: dict, status, after_slice=None) -> None:
        problem = self.problem
        if self.tracer is not None:
            problem = replace(problem, constraint_map=self.tracer.span("sim.constraint_map", problem.constraint_map))
        loops = (("ustar", unisafe.exact_controller, self.w.ustar_runs), ("qp", unisafe.qp_controller, self.w.qp_runs))
        per = len(self.instances) // self.w.slices
        for i in range(self.w.slices):
            for name, factory, runs in loops:
                if i < len(runs):
                    self._loop(phases[name], name, problem, factory(problem), runs[i], i, status)
            self._label(phases["label"], i)
            self._train(phases["train"])
            self._solves(phases, self.instances[i * per : (i + 1) * per])
            if after_slice is not None:
                after_slice(i)

    def _loop(self, phase: Phase, name: str, problem, controller, run, i: int, status) -> None:
        x0, horizon = run
        self.ctx.set(name)
        if self.tracer is not None:
            controller = self.tracer.span("sim.controller", controller)
        counted = CountedController(controller, self.ctx)
        before = status.unconverged[name]
        start = time.perf_counter()
        traj = unisafe.simulate(problem, counted, x0, T=horizon)
        phase.seconds += time.perf_counter() - start
        phase.failed += status.unconverged[name] - before
        if traj.error is not None:
            raise checks.CheckFailed(f"{name} loop from {x0}: {traj.error}")
        steps = len(traj) - 1
        phase.work += steps
        phase.attempted += counted.calls
        self.call_ms[name].extend(traj.solver_ms[:steps])
        states, inputs = traj.states, traj.inputs
        checks.check_trajectory(states, inputs, self.centers, self.radii, self._rows, name)
        rng = np.random.default_rng([self.seed, i, len(name)])
        sample = rng.choice(steps, size=min(CHECKED_CALLS, steps), replace=False)
        checks.check_controller_sample(states, inputs, sample, self._rows, name)

    def _rows(self, x):
        return self.rows(x, self.centers, self.radii)

    def _label(self, phase: Phase, i: int) -> None:
        self.ctx.set("label")
        start = time.perf_counter()
        ds = unisafe.sample_dataset(self.n, self.m, self.w.label_rows, seed=self.seed * self.w.slices + i)
        phase.seconds += time.perf_counter() - start
        checks.check_labels(ds.inputs, ds.labels, self.n, self.m, ds.label_tol)
        phase.work += len(ds)
        phase.attempted += len(ds)

    def _train(self, phase: Phase) -> None:
        self.ctx.set("train")
        model = unisafe.init_model(self.n, self.m, seed=self.seed)
        config = unisafe.TrainConfig(epochs=self.w.epochs, seed=0)
        start = time.perf_counter()
        fit = unisafe.train(model, self.train_rows, config)
        phase.seconds += time.perf_counter() - start
        checks.check_training(fit.train_loss)
        phase.work += self.w.epochs
        phase.attempted += self.w.epochs

    def _solves(self, phases: dict, instances) -> None:
        model = self.model
        count = len(instances)
        solvers = {"cold": unisafe.solve_exact, "warm": lambda p: unisafe.warmstart_solve(model, p)}
        solutions = {}
        for name, solve in solvers.items():
            self.ctx.set(name)
            phase = phases[name]
            start = time.perf_counter()
            for _ in range(SOLVE_PASSES):
                results = []
                for p in instances:
                    self.ctx.next()
                    results.append(solve(p))
                phase.failed += sum(r.status is not unisafe.SolveStatus.CONVERGED for r in results)
            phase.seconds += time.perf_counter() - start
            phase.work += SOLVE_PASSES * count
            phase.attempted += SOLVE_PASSES * count
            solutions[name] = [r.k_star for r in results]
        self.ctx.set("nn")
        start = time.perf_counter()
        for _ in range(NN_PASSES):
            predictions = []
            for p in instances:
                self.ctx.next()
                q, _ = unisafe.scale_params(p)
                predictions.append(unisafe.mlp_forward(model, unisafe.flatten_scaled(q)))
        phases["nn"].seconds += time.perf_counter() - start
        phases["nn"].work += NN_PASSES * count
        phases["nn"].attempted += NN_PASSES * count
        raw = [(p.a, p.b) for p in instances]
        checks.check_solves(raw, solutions["cold"], solutions["warm"])
        checks.check_predictions(model.weights, model.biases, raw, predictions)
        self.predicted += count
        self.interior += sum(_used_as_given(a, b, k) for (a, b), k in zip(raw, predictions))

    # -- whole run -----------------------------------------------------------

    def run(self, traced: bool, after_slice=None) -> None:
        """One round into ``self.phases``; a failed check leaves the work done so far counted."""
        status = spans.StatusCounter(self.ctx, unisafe.SolveStatus.CONVERGED)
        patcher = spans.Patcher()
        patcher.install("unisafe.solver.solve_exact", status.wrap)
        if traced:
            self.tracer = spans.Tracer(self.ctx)
            _install_tracer(patcher, self.tracer)
        try:
            self.run_round(self.phases, status, after_slice)
        finally:
            patcher.restore()


def _used_as_given(a, b, k) -> bool:
    """The exact solver's own test for seeding Newton with a warmstart unchanged.

    Mirrors ``solver._initial_point``: every margin, divided by its row's
    coefficient scale max(1, |a_i|, |b_i|), must be below -1e-12; any
    other prediction is projected and centred.
    """
    row_scale = np.maximum(1.0, np.maximum(np.abs(a), np.linalg.norm(b, axis=1)))
    return float(np.max((a + b @ k) / row_scale)) < -1e-12


def _install_tracer(patcher, tracer) -> None:
    span = tracer.span
    patcher.install("unisafe.params.find_interior_point", lambda f: span("params.find_interior_point", f, note=bool))
    patcher.install("unisafe.qp.project_with_state", lambda f: span("qp.project_with_state", f))
    patcher.install("unisafe.objective.evaluate", lambda f: span("objective.evaluate", f))
    # Counted, not spanned: the gradient flow calls these hundreds of
    # times per row, and only their counts are reported.
    patcher.install("unisafe.objective.grad_raw", lambda f: tracer.counter("objective.grad_raw", f))
    patcher.install("unisafe.objective.hess_raw", lambda f: tracer.counter("objective.hess_raw", f))
    patcher.install(
        "unisafe.solver.solve_exact",
        lambda f: span("solver.solve_exact", f, note=lambda r: (r.iterations, r.status.name)),
    )
    patcher.install(
        "unisafe.solver.solve_gradient_flow",
        lambda f: span("solver.solve_gradient_flow", f, note=lambda r: r.iterations),
    )
    patcher.install("unisafe.sim.simulate", lambda f: span("sim.simulate", f))
    patcher.install("unisafe.nn.sample_dataset", lambda f: span("nn.sample_dataset", f, note=len))
    patcher.install("unisafe.nn.train", lambda f: span("nn.train", f))
    patcher.install("unisafe.nn.mlp_forward", lambda f: span("nn.mlp_forward", f))


# ---------------------------------------------------------------------------
# metrics


def end_to_end(phases, setup_s) -> dict:
    def rate(name):
        return phases[name].work / phases[name].seconds

    def mean_ms(name):
        return 1e3 / rate(name)

    return {
        "setup_s": (setup_s, "s"),
        "ustar_steps_per_s": (rate("ustar"), "1/s"),
        "qp_steps_per_s": (rate("qp"), "1/s"),
        "label_rows_per_s": (rate("label"), "1/s"),
        "train_epochs_per_s": (rate("train"), "1/s"),
        "cold_solve_ms": (mean_ms("cold"), "ms"),
        "warm_solve_ms": (mean_ms("warm"), "ms"),
        "nn_ms": (mean_ms("nn"), "ms"),
    }


# Spanned layers whose call counts and self times are both reported.
SPANNED = (
    "params.find_interior_point",
    "qp.project_with_state",
    "objective.evaluate",
    "solver.solve_exact",
    "solver.solve_gradient_flow",
    "sim.constraint_map",
    "nn.mlp_forward",
)


def per_layer(bench: Bench) -> dict:
    """Totals of the round from the spans, plus per-call times and ratios."""
    calls, self_s, notes = bench.tracer.summary()
    out = {}
    for name in SPANNED:
        out[f"{name}.calls"] = (calls[name], "count")
    for name in SPANNED + ("sim.simulate", "nn.sample_dataset", "nn.train"):
        out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
    for name in ("objective.grad_raw", "objective.hess_raw"):
        out[f"{name}.calls"] = (bench.tracer.counts[name], "count")

    searches = notes["params.find_interior_point"]
    out["params.find_interior_point.feasible_ratio"] = (sum(ok for _, ok in searches) / max(len(searches), 1), "ratio")
    solves = notes["solver.solve_exact"]
    out["solver.solve_exact.iterations"] = (sum(it for _, (it, _s) in solves), "count")
    out["solver.solve_exact.max_iter"] = (sum(s == "MAX_ITER" for _, (_it, s) in solves), "count")
    for phase in ("cold", "warm"):
        iterations = sum(it for ph, (it, _s) in solves if ph == phase)
        out[f"solver.solve_exact.iterations_{phase}"] = (iterations, "count")
    out["solver.solve_gradient_flow.steps"] = (sum(n for _, n in notes["solver.solve_gradient_flow"]), "count")
    draws = sum(1 for phase, _ in searches if phase == "label")
    rows = sum(n for _, n in notes["nn.sample_dataset"])
    out["nn.label.accept_ratio"] = (rows / max(draws, 1), "ratio")
    out["nn.warmstart.interior_ratio"] = (bench.interior / bench.predicted, "ratio")
    for name in ("ustar", "qp"):
        ms = np.asarray(bench.call_ms[name])
        out[f"sim.{name}_call_ms_p50"] = (float(np.percentile(ms, 50)), "ms")
        out[f"sim.{name}_call_ms_p99"] = (float(np.percentile(ms, 99)), "ms")
        out[f"sim.{name}_call_samples"] = (len(ms), "count")
    return out


# ---------------------------------------------------------------------------
# entry point


def time_setup(workload: str, seed: int) -> float:
    """Wall time from the start of a fresh process to the end of its setup."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
    finally:
        code = child.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup process exited with code {code}")
    return ready - start


def _parse(argv):
    parser = argparse.ArgumentParser(description="unisafe closed-loop and learning-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    # Accepted for the common benchmark interface; a run is one round.
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    bench = Bench(args.workload, args.seed)
    bench.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    print(
        f"unisafe from {Path(unisafe.__file__).parent}; python {platform.python_version()},"
        f" numpy {np.__version__}, scipy {scipy.__version__}, BLAS threads {BLAS_THREADS},"
        f" {os.cpu_count()} cores",
        flush=True,
    )
    # Setup samples are spread over the round, like the phases, so a slow
    # stretch of the machine does not land on all of them.
    setup_samples = []
    at = set(np.linspace(0, bench.w.slices - 1, SETUP_SAMPLES).round().astype(int).tolist())

    def after_slice(i):
        if i in at:
            setup_samples.append(time_setup(args.workload, args.seed))

    correct = True
    try:
        bench.run(traced=bool(args.trace), after_slice=None if args.trace else after_slice)
    except checks.CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        correct = False
    phases = bench.phases
    for name, phase in phases.items():
        print(f"  {name:6s} work {phase.work:9.0f}  {phase.seconds:8.3f} s  failed {phase.failed}", flush=True)
    metrics = {}
    if correct and args.trace:
        metrics = per_layer(bench)
        OUT.mkdir(exist_ok=True)
        bench.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz")
    elif correct:
        metrics = end_to_end(phases, float(np.median(setup_samples)))
    result = {
        "correct": correct,
        "attempted": sum(phase.attempted for phase in phases.values()),
        "failed": sum(phase.failed for phase in phases.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
