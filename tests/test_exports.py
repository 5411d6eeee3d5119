import importlib
import pkgutil

import pytest

import carepath


def test_star_import_defines_every_export():
    namespace: dict = {}
    exec("from carepath import *", namespace)
    missing = [name for name in carepath.__all__ if name not in namespace]
    assert missing == []
    assert len(set(carepath.__all__)) == len(carepath.__all__)


def test_no_submodule_is_shadowed():
    for module in pkgutil.iter_modules(carepath.__path__):
        own = importlib.import_module(f"carepath.{module.name}")
        assert getattr(carepath, module.name, None) in (None, own), module.name


def test_levenshtein_names_only_the_function():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("carepath.levenshtein")
