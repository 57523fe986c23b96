"""Every name a weakgal module lists in ``__all__`` resolves, so a deletion
that leaves its entry behind fails here, not at ``from weakgal.<m> import *``."""

import importlib
import pkgutil

import pytest

import weakgal

MODULES = sorted(m.name for m in pkgutil.iter_modules(weakgal.__path__))


def test_every_module_is_listed():
    assert {"cli", "expr", "loss", "network", "oracle", "pde", "theory", "train"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"weakgal.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"weakgal.{name}.__all__ names what the module lacks: {missing}"
