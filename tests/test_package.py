"""The package surface: `qesr` exports each submodule's `__all__`, once, and
loads no SciPy module and no `numpy.ma` on import or on any command with a
non-gaussian pulse."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qesr

from conftest import bundled_config_path

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


PLUS_I = bundled_config_path("paper_plus_I.cfg")
COLD_RUNS = {
    "import": [],
    "density": ["density", "--config", PLUS_I],
    "sensitivity": ["sensitivity", "--config", PLUS_I],
    "print-effective-config": ["spectrum", "--config", PLUS_I, "--print-effective-config"],
    # the contour route, FFT kernel included: the swap-time calibration, the
    # narrow and exact sweeps (the exact one with its FFT correlation and
    # dense two-point edge sums) and the exact trace
    "transfer-contour-exact": [
        "transfer", "--config", PLUS_I, "--method", "contour", "--mode", "exact-convolution",
    ],
    "spectrum": ["spectrum", "--config", PLUS_I],
    "spectrum-exact": ["spectrum", "--config", PLUS_I, "--mode", "exact-convolution"],
    # the ODE route: the swap trace, the time-domain transfer
    "swap": ["swap", "--config", PLUS_I],
    "transfer-time-domain": ["transfer", "--config", PLUS_I, "--method", "time-domain"],
}

# runs in a fresh interpreter: the optional CLI call, then the loaded SciPy and
# numpy.ma modules
COLD_SCRIPT = """
import json, sys
import qesr
argv = json.loads(sys.argv[1])
if argv:
    from qesr.cli import main
    assert main(argv) == 0
print(json.dumps(sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]
)))
"""


@pytest.mark.parametrize("argv", COLD_RUNS.values(), ids=COLD_RUNS.keys())
def test_cold_start_loads_no_scipy(tmp_path, argv):
    """SciPy is imported only where it is used: by gaussian pulses (wofz).
    `numpy.ma`, which `np.isin` imports when first called on the nodes, stays
    unloaded: the dense node sums call it only on an exact pole hit."""
    if argv:
        argv = argv + ["--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(qesr.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_SCRIPT, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _names_used(node):
    """Every bare name and attribute name that node's subtree mentions."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _private_class(stmt):
    return isinstance(stmt, ast.ClassDef) and stmt.name.startswith("_")


def _definitions(stmt):
    """(name, node) of each definition that a top-level statement makes and
    the dead-code rule covers: a function or class, a private constant, and
    each method of a private class but its dunders."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield stmt.name, stmt
        if _private_class(stmt):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                        not member.name.startswith("__"):
                    yield member.name, member
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for node in (sub for target in targets for sub in ast.walk(target)):
            if isinstance(node, ast.Name) and node.id.startswith("_") and \
                    not node.id.startswith("__"):
                yield node.id, stmt


def test_every_helper_is_used_or_exported():
    """No dead helpers: each top-level function, class and private constant
    of `src/qesr` is exported by its module's `__all__` or mentioned by some
    other top-level statement of the package, and each method of a private
    class by some statement or method other than itself, so a helper kept
    only for its tests fails."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(Path(qesr.__file__).parent.glob("*.py"))
    }
    # the statements that can use a name: top-level ones, a private class
    # split into its members
    units = [
        (stmt, node, _names_used(node))
        for tree in modules.values()
        for stmt in tree.body
        for node in (stmt.body if _private_class(stmt) else [stmt])
    ]
    dead = []
    for module, tree in modules.items():
        exported = getattr(importlib.import_module(f"qesr.{module}"), "__all__", ())
        for name, node in (d for stmt in tree.body for d in _definitions(stmt)):
            if name in exported:
                continue
            if not any(name in used for top, other, used in units if node not in (top, other)):
                dead.append(f"{module}.{name}")
    assert dead == []
