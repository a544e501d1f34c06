"""Regenerate the training rows and warmstart models the benchmark ships.

    python3 perfbench/make_data.py

writes, for each workload shape, ``data/<shape>_train.npz`` (the labelled
rows the timed training phase fits), ``data/<shape>_model.json`` (the
network the warmstart and forward-pass phases use, in the package's own
``save_model`` format) and
``data/<shape>_instances.npz`` (the instances of the solve phases).  The
2-D files are the acceptance fixture of the package's learning tests: 5000
rows from ``sample_dataset(2, 2, 5000, seed=11)``, 300 full-batch epochs
from ``init_model(2, 2, seed=1)``, and criterion 12's 500 instances (seed
77, entries uniform in [-2, 2], kept when ``find_interior_point``
certifies an interior point).  The 10-D files use 1000 rows of
``sample_dataset(10, 10, 1000, seed=11)``, the same training recipe, and
400 instances from the same recipe at 10 x 10.  Labelling takes a few
minutes; it is spread over at most two processes, which does not change
a bit of the result.
"""

import os

# One BLAS thread, as in run.py: the trained weights then do not depend on
# how many cores the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import unisafe  # noqa: E402

SHAPES = {"2d": (2, 2, 5000, 500), "10d": (10, 10, 1000, 400)}
DATA_SEED = 11
INSTANCE_SEED = 77
INIT_SEED = 1
EPOCHS = 300
WORKERS = min(2, os.cpu_count() or 1)


def draw_instances(n: int, m: int, count: int) -> dict:
    """Criterion 12's recipe: unscaled entries in [-2, 2], kept when feasible."""
    rng = np.random.default_rng(INSTANCE_SEED)
    a, b = [], []
    while len(a) < count:
        p = unisafe.ConstraintParams(rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, (n, m)))
        if unisafe.find_interior_point(p):
            a.append(p.a)
            b.append(p.b)
    return {"a": np.array(a), "b": np.array(b)}


def main() -> None:
    out = HERE / "data"
    out.mkdir(exist_ok=True)
    for shape, (n, m, count, instances) in SHAPES.items():
        start = time.perf_counter()
        np.savez(out / f"{shape}_instances.npz", **draw_instances(n, m, instances))
        ds = unisafe.sample_dataset(n, m, count, seed=DATA_SEED, workers=WORKERS)
        np.savez(out / f"{shape}_train.npz", inputs=ds.inputs, labels=ds.labels)
        fit = unisafe.train(
            unisafe.init_model(n, m, seed=INIT_SEED),
            ds,
            unisafe.TrainConfig(epochs=EPOCHS, seed=0),
        )
        unisafe.save_model(fit.model, out / f"{shape}_model.json")
        print(
            f"{shape}: {count} rows, final train loss {fit.train_loss[-1]:.4g},"
            f" {time.perf_counter() - start:.1f} s"
        )


if __name__ == "__main__":
    main()
