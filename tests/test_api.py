"""The package's public surface: every exported name exists, once."""

import importlib
import inspect

import unisafe
import unisafe.errors


def test_every_exported_name_resolves():
    missing = [name for name in unisafe.__all__ if not hasattr(unisafe, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(unisafe.__all__)) == len(unisafe.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from unisafe import *", namespace)
    assert set(unisafe.__all__) <= set(namespace)


def test_every_error_type_is_exported():
    error_types = {
        name
        for name, value in vars(unisafe.errors).items()
        if inspect.isclass(value) and issubclass(value, unisafe.UnisafeError)
    }
    assert error_types - set(unisafe.__all__) == set()


# The functions the benchmark wraps by module and name; a refactor that
# moves one must move the benchmark's patch point with it.
PATCH_POINTS = (
    "unisafe.params.find_interior_point",
    "unisafe.qp.project_with_state",
    "unisafe.objective.evaluate",
    "unisafe.objective.grad_raw",
    "unisafe.objective.hess_raw",
    "unisafe.solver.solve_exact",
    "unisafe.solver.solve_gradient_flow",
    "unisafe.sim.simulate",
    "unisafe.nn.sample_dataset",
    "unisafe.nn.train",
    "unisafe.nn.mlp_forward",
)


def test_benchmark_patch_points_resolve_to_callables():
    unresolved = []
    for qualified in PATCH_POINTS:
        module, name = qualified.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(module), name, None)):
            unresolved.append(qualified)
    assert unresolved == []
