"""The examples in the library's docstrings run, and its public names resolve."""

import doctest
import importlib
import pkgutil

import pytest

import frobring

MODULES = ["frobring", *sorted(info.name for info in
                               pkgutil.iter_modules(frobring.__path__, "frobring."))]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_cyclotomic_examples_are_found():
    assert doctest.testmod(importlib.import_module("frobring.cyclotomic")).attempted >= 8


def test_every_public_name_resolves():
    missing = [name for name in frobring.__all__ if not hasattr(frobring, name)]
    assert missing == []
