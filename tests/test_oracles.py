"""The oracles live in tests/oracles.py and nowhere else: no chroma module
binds a name that file defines, so no production route can call one."""

import importlib
import inspect
import pkgutil

import chroma
import oracles


def test_no_chroma_module_binds_an_oracle():
    defined = {
        name
        for name, value in vars(oracles).items()
        if inspect.isfunction(value) and value.__module__ == oracles.__name__
    }
    assert defined
    modules = [chroma] + [
        importlib.import_module("chroma." + info.name)
        for info in pkgutil.iter_modules(chroma.__path__)
    ]
    for module in modules:
        assert not defined & set(vars(module)), module.__name__
