"""The package namespace: every public name resolves, lazily, to the object its
defining module holds."""

import importlib
import pkgutil
import sys
import types

import pytest

import contracta


@pytest.fixture(scope="module", autouse=True)
def every_submodule():
    for info in pkgutil.iter_modules(contracta.__path__):
        importlib.import_module(f"contracta.{info.name}")


def test_every_public_name_is_its_defining_modules_object():
    for name in contracta.__all__:
        obj = getattr(contracta, name)
        assert obj.__module__.startswith("contracta."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_laurent_and_padic_stay_functions():
    from contracta import laurent, padic

    # both submodules are loaded, yet the package names are the functions
    assert laurent is contracta.laurent is sys.modules["contracta.laurent"].laurent
    assert padic is contracta.padic is sys.modules["contracta.padic"].padic


def test_dir_covers_all():
    assert set(contracta.__all__) <= set(dir(contracta))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        contracta.no_such_name  # noqa: B018
    assert not hasattr(contracta, "suite")


def test_submodule_import_still_works():
    from contracta import cocycles

    assert isinstance(cocycles, types.ModuleType)
    assert cocycles is sys.modules["contracta.cocycles"]


def test_rebinding_in_the_defining_module_is_seen_and_undone(monkeypatch):
    # nothing is cached in the package, so a wrapper installed and then
    # removed (as the benchmark's tracer does) leaves no trace there
    cocycles = sys.modules["contracta.cocycles"]
    original = cocycles.eta

    def wrapped(*args):
        return original(*args)

    monkeypatch.setattr(cocycles, "eta", wrapped)
    assert contracta.eta is wrapped
    monkeypatch.undo()
    assert contracta.eta is original
