"""The package surface: `qesr` exports each submodule's `__all__`, once, and
loads no SciPy module on import or on any command with a non-gaussian pulse."""
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
    # the contour route, FFT kernel included
    "transfer-contour-exact": [
        "transfer", "--config", PLUS_I, "--method", "contour", "--mode", "exact-convolution",
    ],
    # the ODE route: the swap-time calibration, the swap trace, the time-domain transfer
    "spectrum": ["spectrum", "--config", PLUS_I],
    "swap": ["swap", "--config", PLUS_I],
    "transfer-time-domain": ["transfer", "--config", PLUS_I, "--method", "time-domain"],
}

# runs in a fresh interpreter: the optional CLI call, then the loaded SciPy modules
COLD_SCRIPT = """
import json, sys
import qesr
argv = json.loads(sys.argv[1])
if argv:
    from qesr.cli import main
    assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


@pytest.mark.parametrize("argv", COLD_RUNS.values(), ids=COLD_RUNS.keys())
def test_cold_start_loads_no_scipy(tmp_path, argv):
    """SciPy is imported only where it is used: by gaussian pulses (wofz)."""
    if argv:
        argv = argv + ["--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(qesr.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_SCRIPT, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
