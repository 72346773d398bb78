import importlib

import pytest

import gexpkit


def test_every_export_resolves_once():
    missing = [name for name in gexpkit.__all__ if not hasattr(gexpkit, name)]
    assert missing == []
    assert len(gexpkit.__all__) == len(set(gexpkit.__all__))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gexpkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(gexpkit.__all__)
    for name in gexpkit.__all__:
        assert namespace[name] is getattr(gexpkit, name)


def test_submodules_and_unknown_names():
    assert gexpkit.builder is importlib.import_module("gexpkit.builder")
    with pytest.raises(AttributeError, match="no attribute 'absent'"):
        gexpkit.absent
