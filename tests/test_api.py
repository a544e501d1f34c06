"""The package's public surface: every exported name exists, once."""

import unisafe


def test_every_exported_name_resolves():
    missing = [name for name in unisafe.__all__ if not hasattr(unisafe, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(unisafe.__all__)) == len(unisafe.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from unisafe import *", namespace)
    assert set(unisafe.__all__) <= set(namespace)
