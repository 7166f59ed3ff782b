"""The examples in hecke_kit docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import hecke_kit

MODULES = ["hecke_kit"] + [f"hecke_kit.{info.name}"
                           for info in pkgutil.iter_modules(hecke_kit.__path__)]


def test_docstring_examples_pass():
    failed = attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    # the four examples of hecke_kit.scalars and the five of hecke_kit.hecke
    assert attempted >= 9
