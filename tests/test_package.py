"""The package surface: `qesr` exports each submodule's `__all__`, once."""
import importlib

import qesr

SUBMODULES = ("errors", "spin_model", "dynamics", "protocol", "sensitivity", "config")


def test_exports_are_the_submodule_exports():
    expected = ["__version__"]
    for name in SUBMODULES:
        module = importlib.import_module(f"qesr.{name}")
        expected += module.__all__
        for attr in module.__all__:
            assert getattr(qesr, attr) is getattr(module, attr)
    assert sorted(qesr.__all__) == sorted(expected)
    assert len(set(qesr.__all__)) == len(qesr.__all__) == 47
