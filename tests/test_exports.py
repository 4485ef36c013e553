from __future__ import annotations

import importlib
import pkgutil

import pytest

import dqslam

MODULES = sorted(
    f"dqslam.{info.name}" for info in pkgutil.iter_modules(dqslam.__path__)
) + ["dqslam"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its definition is deleted breaks
    # `from module import *` and misdocuments the API.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
