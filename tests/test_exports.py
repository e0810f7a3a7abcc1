"""Every exported name resolves.

A name left in an ``__all__`` after its class or function is gone breaks
``from platoonsec.<module> import *`` and misleads a reader of the API.
"""

import importlib
import pkgutil

import pytest

import platoonsec

MODULES = [platoonsec] + [importlib.import_module(f"platoonsec.{info.name}")
                          for info in pkgutil.iter_modules(platoonsec.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
