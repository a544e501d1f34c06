"""The package's public surface: every exported name exists, once."""

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
