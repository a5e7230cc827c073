"""Every name a module lists in __all__ resolves: a stale entry would only
fail at ``from imk.<module> import *``."""

import importlib
import pkgutil

import pytest

import imk

MODULES = sorted(f"imk.{info.name}" for info in pkgutil.iter_modules(imk.__path__))


def test_every_module_is_listed():
    assert "imk.general" in MODULES and "imk.kripke" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(listed) == len(set(listed)), "duplicate name in __all__"
    assert [n for n in listed if not hasattr(module, n)] == []
