"""Every name a hecke_kit module lists in __all__ exists on that module, so
a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import hecke_kit

MODULES = ["hecke_kit"] + [f"hecke_kit.{info.name}"
                           for info in pkgutil.iter_modules(hecke_kit.__path__)]


def test_every_submodule_is_listed():
    assert {"hecke_kit.coxeter", "hecke_kit.repmod", "hecke_kit.twists"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
