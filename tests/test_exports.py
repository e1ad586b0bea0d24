"""Every name a module of eisen2 lists in ``__all__`` must resolve.

``from eisen2 import *`` and the package's documented surface go through
``__all__``; a name left there after its object is deleted or renamed would
otherwise fail only when someone imports it."""

import importlib
import pkgutil

import pytest

import eisen2

MODULES = ["eisen2"] + [f"eisen2.{info.name}" for info in pkgutil.iter_modules(eisen2.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing objects: {missing}"


def test_every_module_is_checked():
    assert {"eisen2.scalars", "eisen2.qseries", "eisen2.catalog", "eisen2.graded",
            "eisen2.checks", "eisen2.arith", "eisen2.cli"} <= set(MODULES)
