"""Every exported name resolves: a deletion leaves no stale export behind."""

import importlib

import pytest

import rowfibers

MODULES = ["fibers", "groebner", "ideals", "polyring", "syzygy"]


def test_package_exports_resolve_once():
    assert len(rowfibers.__all__) == len(set(rowfibers.__all__))
    for name in rowfibers.__all__:
        assert hasattr(rowfibers, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"rowfibers.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), name
