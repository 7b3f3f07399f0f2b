"""Each module's ``__all__`` is its public API, and ``filtermc`` re-exports
exactly those names."""

import importlib

import pytest

import filtermc as fm

MODULES = ("core_model", "filter_dynamics", "kantorovich", "stability", "gallery", "entropy")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_of_a_module_is_defined_there_and_at_the_top(name):
    module = importlib.import_module(f"filtermc.{name}")
    for public in module.__all__:
        assert getattr(fm, public) is getattr(module, public), public


def test_the_package_list_is_the_modules_lists_with_no_name_twice():
    lists = [importlib.import_module(f"filtermc.{name}").__all__ for name in MODULES]
    assert list(fm.__all__) == [public for names in lists for public in names]
    assert len(set(fm.__all__)) == len(fm.__all__)


def test_the_power_helpers_are_public_in_their_modules():
    assert "partition_power" in fm.core_model.__all__
    assert "transition_operator_power" in fm.filter_dynamics.__all__
