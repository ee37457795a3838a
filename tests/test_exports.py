"""Every exported name resolves, so a deleted function cannot linger in
an ``__all__`` list."""

import importlib

import pytest

MODULES = ["dyckarea"] + [
    f"dyckarea.{name}"
    for name in ("asymptotics", "datasets", "enumeration", "errors", "qseries", "special_functions")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
