"""The package surface: `qesr` exports each submodule's `__all__`, once,
loads no SciPy module and no `numpy.ma` on import or on any command with a
non-gaussian pulse, loads per command only the modules that command runs,
and starts one OpenBLAS thread in a cold process whose environment does not
set the count."""
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
    assert len(set(qesr.__all__)) == len(qesr.__all__) == 45


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

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the process's thread count, as the kernel reports it
THREADS = "open('/proc/self/status').read().split('Threads:')[1].split()[0]"
linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads the thread count from /proc/self/status"
)


def _fresh(argv, **blas):
    """Run argv in a fresh interpreter with qesr on its path and no BLAS
    thread variable but `blas`; returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas, PYTHONPATH=str(Path(qesr.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout


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
    stdout = _fresh(["-c", COLD_SCRIPT, json.dumps(argv)])
    assert json.loads(stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("blas", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "set"])
def test_thread_setting_binds_no_package_names(blas):
    """The thread block leaves no module on the package, whatever the
    environment, so `qesr`'s attributes are its submodules and exports."""
    code = "import qesr; print([n for n in ('os', '_os', 'numpy', '_numpy') if hasattr(qesr, n)])"
    assert _fresh(["-c", code], **blas).strip() == "[]"


# runs in a fresh interpreter: `import qesr`; unless argv is null, `from qesr
# import cli` and, for a non-empty argv, the CLI call; then the call's exit
# code, which of the named modules are loaded and the process's thread count
LOADED_SCRIPT = """
import json, sys
import qesr
argv, names = json.loads(sys.argv[1]), json.loads(sys.argv[2])
rc = None
if argv is not None:
    from qesr import cli
    if argv:
        rc = cli.main(argv)
print(json.dumps(rc))
print(json.dumps([m for m in names if m in sys.modules]))
print(%s)
""" % THREADS
PER_COMMAND = ("numpy", "qesr.spin_model", "qesr.dynamics", "qesr.protocol", "qesr.sensitivity")


def _loaded(argv, names=PER_COMMAND, **blas):
    """(exit code, loaded modules among `names`, thread count) of a cold
    process that runs argv as LOADED_SCRIPT does."""
    out = _fresh(["-c", LOADED_SCRIPT, json.dumps(argv), json.dumps(names)], **blas)
    rc, modules, threads = out.splitlines()[-3:]
    return json.loads(rc), json.loads(modules), threads


NUMERICAL = ["numpy", "qesr.spin_model", "qesr.dynamics"]
# case -> (argv as LOADED_SCRIPT takes it, exit code, the PER_COMMAND modules loaded)
LOADS = {
    "import": (None, None, []),
    "from-qesr-import-cli": ([], None, []),
    "print-effective-config": (COLD_RUNS["print-effective-config"], 0, []),
    "config-error": (["spectrum", "--config", '{"ensemble": []}'], 2, []),
    "sensitivity": (COLD_RUNS["sensitivity"], 0, ["qesr.sensitivity"]),
    "density": (COLD_RUNS["density"], 0, ["numpy", "qesr.spin_model"]),
    "transfer-contour": (["transfer", "--config", PLUS_I], 0, NUMERICAL),
    "transfer-time-domain": (COLD_RUNS["transfer-time-domain"], 0, NUMERICAL),
}


@pytest.mark.parametrize("argv,rc,modules", LOADS.values(), ids=LOADS.keys())
def test_cold_process_loads_only_its_commands_modules(tmp_path, argv, rc, modules):
    """Import, config resolution and its errors load no numerical module,
    `sensitivity` no NumPy, `density` the spin model alone and `transfer`
    neither the protocol nor the sensitivity estimates."""
    if argv:
        argv = argv + ["--out", str(tmp_path)]
    assert _loaded(argv)[:2] == (rc, modules)


def test_dir_lists_the_exports_before_they_load():
    code = "import sys, qesr; print(set(qesr.__all__) <= set(dir(qesr)), 'qesr.config' in sys.modules)"
    assert _fresh(["-c", code]).split() == ["True", "False"]


@linux_only
def test_cold_import_starts_one_blas_thread():
    """A process that sets no thread variable runs qesr on one OpenBLAS
    thread once a numerical name has loaded NumPy, and its environment does
    not keep the setting."""
    code = (f"import os, qesr; qesr.CavityModel; "
            f"print({THREADS}, sorted(set(os.environ) & set({BLAS_THREAD_VARS})))")
    assert _fresh(["-c", code]).split() == ["1", "[]"]


@linux_only
@pytest.mark.parametrize("command", ["spectrum", "transfer-time-domain"])
def test_cold_command_starts_one_blas_thread(tmp_path, command):
    assert _loaded(COLD_RUNS[command] + ["--out", str(tmp_path)])[::2] == (0, "1")


@linux_only
@pytest.mark.parametrize("blas", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "set"])
def test_gaussian_pulse_loads_scipy_on_numpys_terms(tmp_path, blas):
    """A gaussian pulse's contour transfer loads scipy.special, whose own
    OpenBLAS then runs on one thread when no variable is set, and as it does
    for scipy.special imported alone when one is."""
    raw = json.loads(Path(PLUS_I).read_text())
    raw["pulse"] = {"shape": "gaussian", "fwhm_hz": 1.5e5}
    config = tmp_path / "gaussian.cfg"
    config.write_text(json.dumps(raw))
    argv = ["transfer", "--config", str(config), "--out", str(tmp_path)]
    alone = _fresh(["-c", f"import scipy.special; print({THREADS})"], **blas).strip()
    expected = alone if blas else "1"
    assert _loaded(argv, ["scipy.special"], **blas) == (0, ["scipy.special"], expected)


@linux_only
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_user_thread_setting_wins(var):
    """An explicit setting sizes the pool as it does for numpy alone, and
    stays in the environment as the user set it."""
    alone = _fresh(["-c", f"import numpy; print({THREADS})"], **{var: "2"})
    code = f"import os, qesr; qesr.CavityModel; print({THREADS}); print(os.environ[{var!r}])"
    assert _fresh(["-c", code], **{var: "2"}).split() == [alone.strip(), "2"]


@linux_only
def test_numpy_loaded_first_keeps_its_pool():
    alone = _fresh(["-c", f"import numpy; print({THREADS})"])
    assert _fresh(["-c", f"import numpy, qesr; qesr.CavityModel; print({THREADS})"]) == alone


BLAS_RUNS = {
    "spectrum-exact": COLD_RUNS["spectrum-exact"],
    "transfer-contour-exact": COLD_RUNS["transfer-contour-exact"],
    "transfer-time-domain": COLD_RUNS["transfer-time-domain"],
}


@pytest.mark.parametrize("argv", BLAS_RUNS.values(), ids=BLAS_RUNS.keys())
def test_blas_thread_count_does_not_change_bits(tmp_path, argv):
    """Cold runs on the default single thread and on two write the same bytes."""
    written = []
    for name, blas in (("one", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / name
        _fresh(["-m", "qesr.cli", *argv, "--out", str(out)], **blas)
        written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert written[0] == written[1] and len(written[0]) == 2


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
