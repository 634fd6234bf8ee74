"""Command-line interface: subcommand outputs, determinism, and exit codes.

All invocations go through main(argv) in-process except one console-script
smoke test.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qesr
from qesr.cli import build_parser, main, run

from conftest import bundled_config_path

SMALL = {
    "ensembles": [
        {
            "name": "demo",
            "lines": [{"center_hz": 2.91e9, "fwhm_hz": 1.6e6}],
            "g_collective_hz": 2.9e6,
            "grid": {"n_nodes": 1501},
        }
    ],
    "sweep": {"span_hz": 8e6, "n_points": 101, "tau_s_s": 9e-8, "n_pump": 5.0},
}


def write_cfg(tmp_path, raw, name="config.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.fixture
def small_cfg(tmp_path):
    return write_cfg(tmp_path, SMALL)


def test_console_script_help():
    exe = shutil.which("qesr")
    assert exe is not None
    proc = subprocess.run(
        [exe, "spectrum", "--help"], capture_output=True, timeout=60
    )
    assert proc.returncode == 0
    assert b"--config" in proc.stdout
    assert b"--print-effective-config" in proc.stdout


def test_print_effective_config_is_byte_exact(tmp_path, capsys):
    path = bundled_config_path("paper_plus_I.cfg")
    out = tmp_path / "never_created"
    rc = main(
        ["spectrum", "--config", path, "--out", str(out), "--print-effective-config"]
    )
    assert rc == 0
    assert capsys.readouterr().out == Path(path).read_text()
    assert not out.exists()


def test_spectrum_bundled_run(tmp_path, capsys):
    rc = main(
        [
            "spectrum",
            "--config",
            bundled_config_path("paper_plus_I.cfg"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    csv_lines = (tmp_path / "spectrum_plus_I.csv").read_text().splitlines()
    assert csv_lines[0] == "omega_p_rad_per_s,abs2_beta,p_e"
    assert len(csv_lines) == 402
    text = (tmp_path / "spectrum_summary.json").read_text()
    assert capsys.readouterr().out == text
    summary = json.loads(text)["plus_I"]
    assert summary["n_points"] == 401
    assert summary["tau_s_s"] == pytest.approx(97.76e-9, rel=1e-2)
    peaks = summary["peaks_hz"]
    assert len(peaks) == 3
    assert peaks[1] - peaks[0] == pytest.approx(2.2e6, abs=1e5)
    assert peaks[2] - peaks[1] == pytest.approx(2.2e6, abs=1e5)
    assert summary["max_pe"] == pytest.approx(0.294, rel=2e-2)
    assert summary["n_transferred_peak"] < 1.0
    assert summary["scale"] == pytest.approx(0.49 * 15.0, rel=1e-12)


def test_swap_small_run(tmp_path, small_cfg, capsys):
    out = tmp_path / "swap_out"
    rc = main(
        ["swap", "--config", small_cfg, "--out", str(out), "--n-taus", "201"]
    )
    assert rc == 0
    csv_lines = (out / "swap_demo.csv").read_text().splitlines()
    assert csv_lines[0] == "tau_s,cavity_abs2,p_e"
    assert len(csv_lines) == 202
    summary = json.loads((out / "swap_summary.json").read_text())["demo"]
    assert 50e-9 < summary["tau_swap_s"] < 150e-9
    assert summary["osc_frequency_hz"] == pytest.approx(
        0.5 / summary["tau_swap_s"], rel=1e-9
    )
    assert summary["return_pe"] is not None


def test_swap_zero_coupling_runs_clean(tmp_path):
    raw = json.loads(json.dumps(SMALL))
    raw["ensembles"][0]["g_collective_hz"] = 0.0
    cfg = write_cfg(tmp_path, raw)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="coupling is zero"):
        rc = main(["swap", "--config", cfg, "--out", str(out), "--n-taus", "51"])
    assert rc == 0
    summary = json.loads((out / "swap_summary.json").read_text())["demo"]
    assert summary["tau_swap_s"] is None
    assert summary["osc_frequency_hz"] is None
    assert (out / "swap_demo.csv").exists()


NARROW_WARNING = (
    "warning: pulse bandwidth exceeds 1/20 of the narrowest line; "
    "narrow-pulse mode is inaccurate, use exact-convolution\n"
)
RTOL_WARNING = "warning: rtol = 1e-15 is too small; using 2.220446049250313e-14\n"


@pytest.mark.parametrize(
    "command, ode_rtol, stderr",
    [
        ("transfer", 1e-9, NARROW_WARNING),
        ("spectrum", 1e-9, NARROW_WARNING),
        # the spectrum's swap calibration runs on the contour route, which has no rtol
        ("spectrum", 1e-15, NARROW_WARNING),
        ("swap", 1e-15, RTOL_WARNING),
    ],
)
def test_cli_prints_each_warning_as_one_line(tmp_path, command, ode_rtol, stderr):
    """A cold CLI process writes `warning: <message>`, without a source location."""
    raw = json.loads(Path(bundled_config_path("paper_plus_I.cfg")).read_text())
    raw["numerics"]["ode_rtol"] = ode_rtol
    proc = _cold_cli(tmp_path, raw, command, "--mode", "narrow-pulse")
    assert proc.returncode == 0
    assert proc.stderr == stderr


def _cold_cli(tmp_path, raw, *argv):
    """One `python -m qesr.cli` process on config raw, writing into tmp_path/out."""
    argv = [*argv, "--config", write_cfg(tmp_path, raw), "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(qesr.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "qesr.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_main_restores_the_warning_format(tmp_path, small_cfg):
    shown = warnings.formatwarning
    assert main(["density", "--config", small_cfg, "--out", str(tmp_path)]) == 0
    assert warnings.formatwarning is shown


@pytest.mark.filterwarnings("ignore:pulse bandwidth")
@pytest.mark.parametrize("name", ["plus_I", "plus_III"])
def test_spectrum_calibrates_on_the_swap_grid(tmp_path, name, capsys, monkeypatch):
    """spectrum calibrates on the swap command's storage grid, bit for bit,
    and its tau_s (contour route) is the swap command's tau_swap (ODE route)
    to 1e-6; a grid of other storage times would move it by ~1e-5."""
    import qesr.protocol as protocol

    seen = []
    amplitude = protocol._cavity_amplitude

    def spy(dist, cavity, taus, *args):
        seen.append(taus.copy())
        return amplitude(dist, cavity, taus, *args)

    monkeypatch.setattr(protocol, "_cavity_amplitude", spy)
    path = bundled_config_path(f"paper_{name}.cfg")
    taus = {}
    for command, key in (("spectrum", "tau_s_s"), ("swap", "tau_swap_s")):
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / f"{command}_summary.json").read_text())
        taus[command] = summary[name][key]
    grid = np.loadtxt(tmp_path / f"swap_{name}.csv", delimiter=",", skiprows=1)[:, 0]
    assert len(seen) == 1 and np.array_equal(seen[0], grid)
    assert taus["spectrum"] == pytest.approx(taus["swap"], rel=1e-6, abs=0.0)


def test_swap_coarse_grid_exit_3(tmp_path, small_cfg):
    rc = main(
        ["swap", "--config", small_cfg, "--out", str(tmp_path), "--n-taus", "5"]
    )
    assert rc == 3


def test_transfer_both_methods_agree(tmp_path, small_cfg):
    results = {}
    for method in ("contour", "time-domain"):
        out = tmp_path / method
        rc = main(
            [
                "transfer",
                "--config",
                small_cfg,
                "--out",
                str(out),
                "--omega-p-hz",
                "2910000000.0",
                "--t-max-s",
                "2.6e-7",
                "--n-times",
                "61",
                "--method",
                method,
                "--mode",
                "exact-convolution",
            ]
        )
        assert rc == 0
        csv_lines = (out / "transfer_demo.csv").read_text().splitlines()
        assert csv_lines[0] == "t_s,re_beta,im_beta,abs2_beta"
        assert len(csv_lines) == 62
        results[method] = json.loads(
            (out / "transfer_summary.json").read_text()
        )["demo"]
    assert results["contour"]["method"] == "contour"
    assert results["time-domain"]["method"] == "time-domain"
    assert results["contour"]["abs_beta_max"] == pytest.approx(
        results["time-domain"]["abs_beta_max"], rel=2e-3
    )
    assert 0.0 < results["contour"]["abs_beta_max"] <= 1.0


def test_sensitivity_bundled(tmp_path, capsys):
    rc = main(
        [
            "sensitivity",
            "--config",
            bundled_config_path("paper_plus_I.cfg"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    csv_lines = (tmp_path / "sensitivity.csv").read_text().splitlines()
    assert csv_lines[0] == "g_hz,delta_hz,n_threshold,n_min"
    assert len(csv_lines) == 2
    summary = json.loads((tmp_path / "sensitivity_summary.json").read_text())
    assert summary["rows"] == 1
    assert 1.0e5 <= summary["n_min"] <= 1.5e5
    assert summary["n_min"] == pytest.approx(1.2522e5, rel=1e-4)


def test_sensitivity_detail_columns(tmp_path):
    raw = json.loads(json.dumps(SMALL))
    raw["sensitivity"] = {"kappa_hz": 2.8e4, "n_spins": 1.25e5}
    cfg = write_cfg(tmp_path, raw)
    out = tmp_path / "out"
    rc = main(["sensitivity", "--config", cfg, "--out", str(out)])
    assert rc == 0
    csv_lines = (out / "sensitivity.csv").read_text().splitlines()
    assert csv_lines[0] == "g_hz,delta_hz,n_threshold,n_min,nbar_analytic,nbar_exact,t_peak_s"
    summary = json.loads((out / "sensitivity_summary.json").read_text())
    assert summary["n_spins"] == 1.25e5
    assert summary["kappa_hz"] == pytest.approx(2.8e4)
    assert 0.0 < summary["nbar_exact"] < summary["nbar_analytic"]
    assert summary["t_peak_s"] > 0.0


def test_sensitivity_prints_its_validity_warnings(tmp_path):
    """A detail row outside g sqrt(N) << kappa << Delta says so on stderr
    (here g sqrt(N) = 2.22e4 rad/s against kappa/10 = 1.76e4 rad/s)."""
    raw = json.loads(json.dumps(SMALL))
    raw["sensitivity"] = {"kappa_hz": 2.8e4, "n_spins": 1.25e5}
    proc = _cold_cli(tmp_path, raw, "sensitivity")
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: g*sqrt(N) = 2.22e+04 rad/s is not small against kappa = "
        "1.76e+05 rad/s; back-action is not negligible\n"
    )
    assert (tmp_path / "out" / "sensitivity.csv").exists()


def test_density_bundled(tmp_path):
    rc = main(
        [
            "density",
            "--config",
            bundled_config_path("paper_plus_I.cfg"),
            "--out",
            str(tmp_path),
            "--ensemble",
            "plus_I",
        ]
    )
    assert rc == 0
    csv_lines = (tmp_path / "density_plus_I.csv").read_text().splitlines()
    assert csv_lines[0] == "omega_rad_per_s,weight"
    assert len(csv_lines) == 5002
    weights = np.array([float(ln.split(",")[1]) for ln in csv_lines[1:]])
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    summary = json.loads((tmp_path / "density_summary.json").read_text())["plus_I"]
    assert summary["center_hz"] == pytest.approx(2.91e9, rel=1e-12)
    assert summary["g_collective_hz"] == pytest.approx(2.9e6, rel=1e-12)
    assert summary["n_nodes"] == 5001
    assert summary["n_lines"] == 3


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def _spectrum_bytes(tmp_path, cfg, tag, threads=None):
    out = tmp_path / tag
    argv = ["spectrum", "--config", cfg, "--out", str(out)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    assert main(argv) == 0
    return (
        (out / "spectrum_demo.csv").read_bytes(),
        (out / "spectrum_summary.json").read_bytes(),
    )


def test_spectrum_repeat_runs_byte_identical(tmp_path, small_cfg):
    first = _spectrum_bytes(tmp_path, small_cfg, "a")
    second = _spectrum_bytes(tmp_path, small_cfg, "b")
    assert first == second


def test_spectrum_thread_count_invariance(tmp_path, small_cfg):
    reference = _spectrum_bytes(tmp_path, small_cfg, "t1", threads=1)
    for threads in (2, 4):
        assert (
            _spectrum_bytes(tmp_path, small_cfg, f"t{threads}", threads=threads)
            == reference
        )


# ---------------------------------------------------------------------------
# the collector: `entry` runs `main` with it off
# ---------------------------------------------------------------------------

PLUS_I = bundled_config_path("paper_plus_I.cfg")
BUNDLED_COMMANDS = {
    "spectrum": ["spectrum"],
    "spectrum-exact": ["spectrum", "--mode", qesr.MODE_EXACT],
    "swap": ["swap"],
    "transfer-contour": ["transfer"],
    "transfer-contour-exact": ["transfer", "--mode", qesr.MODE_EXACT],
    "transfer-time-domain": ["transfer", "--method", "time-domain"],
    "sensitivity": ["sensitivity"],
    "density": ["density"],
}
_GROWTH_BOUND = json.loads(Path(PLUS_I).read_text())
_GROWTH_BOUND["numerics"]["contour_offset_hz"] = 1e7
# case -> (argv, exit code); a --config that starts with "{" is the config's JSON text
COLLECTOR_RUNS = {
    **{
        f"{name}-{ens}": ([*argv, "--config", bundled_config_path(f"paper_plus_{ens}.cfg")], 0)
        for ens in ("I", "III")
        for name, argv in BUNDLED_COMMANDS.items()
    },
    "missing-config": (["density", "--config", str(Path(PLUS_I).with_name("missing.cfg"))], 2),
    "growth-bound": (["transfer", "--config", json.dumps(_GROWTH_BOUND)], 3),
}


@pytest.mark.filterwarnings("ignore:pulse bandwidth")
@pytest.mark.parametrize("argv,rc", COLLECTOR_RUNS.values(), ids=COLLECTOR_RUNS.keys())
def test_run_leaves_no_cyclic_garbage_holding_data(tmp_path, capsys, argv, rc):
    """`entry` turns the cyclic collector off for the whole process, which is
    safe because a run leaves no cycle that holds data: with the collector
    off and DEBUG_SAVEALL, the collection after the run finds no array and
    no qesr object, in its garbage or held by it.  The caller's collector
    state is restored."""
    enabled, flags, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main([*argv, "--out", str(tmp_path)]) == rc, capsys.readouterr().err
        gc.collect()
        found = gc.garbage[saved:]  # NumPy arrays are not tracked: look one level in
        held = sorted({
            type(o).__qualname__
            for o in [*found, *gc.get_referents(*found)]
            if isinstance(o, np.ndarray) or type(o).__module__.split(".")[0] == "qesr"
        })
    finally:
        del gc.garbage[saved:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert held == []


@pytest.mark.filterwarnings("ignore:pulse bandwidth")
@pytest.mark.parametrize("argv,rc", [
    COLLECTOR_RUNS["density-I"], COLLECTOR_RUNS["missing-config"], COLLECTOR_RUNS["growth-bound"],
], ids=["exit-0", "exit-2", "exit-3"])
def test_main_leaves_the_collector_as_it_finds_it(tmp_path, capsys, argv, rc):
    """Only the process entry touches the collector; `main`, which tests,
    notebooks and in-process benchmarks call, neither disables nor freezes."""
    state = gc.isenabled(), gc.get_freeze_count()
    assert main([*argv, "--out", str(tmp_path)]) == rc
    assert (gc.isenabled(), gc.get_freeze_count()) == state


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("{bad")
    rc = main(["density", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exit_2(tmp_path):
    rc = main(
        ["density", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
    )
    assert rc == 2


def test_empty_ensembles_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {"ensembles": []})
    rc = main(["density", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


def test_unknown_ensemble_exit_2(tmp_path, small_cfg, capsys):
    rc = main(
        [
            "density",
            "--config",
            small_cfg,
            "--out",
            str(tmp_path),
            "--ensemble",
            "nope",
        ]
    )
    assert rc == 2
    assert "unknown ensemble" in capsys.readouterr().err


def test_saturating_pump_exit_3(tmp_path, capsys):
    raw = json.loads(json.dumps(SMALL))
    raw["sweep"]["n_pump"] = 1e6
    cfg = write_cfg(tmp_path, raw)
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical guard" in capsys.readouterr().err


ZERO_COUPLING_RUNS = {
    "transfer-exact": ["transfer", "--method", "contour", "--mode", "exact-convolution"],
    "transfer-ode": ["transfer", "--method", "time-domain"],
    "spectrum-exact": ["spectrum", "--mode", "exact-convolution"],
}


@pytest.mark.parametrize("argv", ZERO_COUPLING_RUNS.values(), ids=ZERO_COUPLING_RUNS.keys())
def test_zero_coupling_gives_zero_beta(tmp_path, argv):
    raw = json.loads(json.dumps(SMALL))
    raw["ensembles"][0]["g_collective_hz"] = 0.0
    raw["sweep"]["n_points"] = 3  # sweep.tau_s_s is set, so nothing calibrates
    cfg = write_cfg(tmp_path, raw)
    out = tmp_path / "out"
    assert main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]]) == 0
    summary = json.loads((out / f"{argv[0]}_summary.json").read_text())["demo"]
    if argv[0] == "transfer":
        assert summary["abs_beta_max"] == 0.0
    else:
        assert summary["max_pe"] == 0.0
    rows = (out / f"{argv[0]}_demo.csv").read_text().splitlines()[1:]
    assert "-0.0" not in {field for row in rows for field in row.split(",")}


def test_pulse_without_overlap_exit_3(tmp_path, capsys):
    """A 10 kHz gaussian pulse 590 MHz from the line sees no node at all."""
    raw = json.loads(json.dumps(SMALL))
    raw["pulse"] = {"shape": "gaussian", "fwhm_hz": 1e4}
    raw["sweep"].update(center_hz=3.5e9, n_points=3)
    cfg = write_cfg(tmp_path, raw)
    for argv in (
        ["spectrum", "--mode", "exact-convolution"],
        ["transfer", "--method", "time-domain", "--omega-p-hz", "3.5e9"],
    ):
        rc = main([argv[0], "--config", cfg, "--out", str(tmp_path / "o"), *argv[1:]])
        assert rc == 3
        err = capsys.readouterr().err
        assert "no overlap" in err and "omega_p = " in err and "spectral grid [" in err


def test_ode_node_cap_exit_3(tmp_path, capsys):
    raw = json.loads(json.dumps(SMALL))
    raw["ensembles"][0]["grid"]["n_nodes"] = 300000
    cfg = write_cfg(tmp_path, raw)
    rc = main(["transfer", "--config", cfg, "--out", str(tmp_path), "--method", "time-domain"])
    assert rc == 3
    assert "memory budget" in capsys.readouterr().err


def test_ode_basis_cap_exit_3(tmp_path, capsys, monkeypatch):
    """The cost guard that replaced the basis cap: a 0.1 ms span on 10,001
    nodes (24,168 chain states, 1.9e8 state-steps) exits 3 before the
    recursion starts, naming the factors of its work estimate."""
    from qesr import dynamics

    def never(*args, **kwargs):
        raise AssertionError("the recursion started")

    monkeypatch.setattr(dynamics, "_lanczos", never)
    raw = json.loads(json.dumps(SMALL))
    raw["ensembles"][0]["grid"]["n_nodes"] = 10001
    cfg = write_cfg(tmp_path, raw)
    argv = ["transfer", "--config", cfg, "--out", str(tmp_path), "--method", "time-domain"]
    assert main(argv + ["--t-max-s", "1e-4"]) == 3
    err = capsys.readouterr().err
    assert "above the budget (33554432): t_max = 1.000e-04 s x the largest rate" in err
    assert "chain states; shorten the time span" in err


def test_swap_saturation_states_the_photon_number_and_guard(tmp_path, capsys):
    """A swap has neither a sweep nor n_pump; its guard names neither."""
    raw = json.loads(json.dumps(SMALL))
    raw["qubit"] = {"saturation_guard": 0.5}
    cfg = write_cfg(tmp_path, raw)
    assert main(["swap", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        "numerical guard: transferred mean photon number 1.000 exceeds the guard 0.500"
    )


def test_out_path_is_a_file_exit_4(tmp_path, small_cfg, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    rc = main(["density", "--config", small_cfg, "--out", str(blocker)])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


BAD_OPTIONS = [  # (argv, the option it must name)
    (["swap", "--n-taus", "2"], "--n-taus"),
    (["transfer", "--n-times", "0"], "--n-times"),
    (["transfer", "--n-times", "1"], "--n-times"),
    (["transfer", "--method", "time-domain", "--n-times", "1"], "--n-times"),
    (["transfer", "--t-max-s", "0"], "--t-max-s"),
    (["transfer", "--t-max-s=-1e-7"], "--t-max-s"),
    (["swap", "--tau-max-s=-1e-7"], "--tau-max-s"),
    (["swap", "--tau-max-s", "inf"], "--tau-max-s"),
    (["transfer", "--omega-p-hz", "inf"], "--omega-p-hz"),
    (["transfer", "--omega-p-hz", "nan"], "--omega-p-hz"),
    (["transfer", "--omega-p-hz=-1e9"], "--omega-p-hz"),
    # counts above the contour grid's point cap (4e6), allocated by no command
    (["transfer", "--n-times", "4000001"], "--n-times"),
    (["swap", "--n-taus", "4000001"], "--n-taus"),
    # accepted with no effect, but checked as numerics.threads is
    (["spectrum", "--threads", "0"], "--threads"),
    (["density", "--threads=-3"], "--threads"),
]


@pytest.mark.parametrize("argv,option", BAD_OPTIONS, ids=[" ".join(a) for a, _ in BAD_OPTIONS])
def test_bad_numeric_option_exit_2(tmp_path, small_cfg, capsys, argv, option):
    out = tmp_path / "out"
    rc = main([argv[0], "--config", small_cfg, "--out", str(out), *argv[1:]])
    assert rc == 2
    assert f"config error: {option}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["--omega-p-hz", "1e308"], ["--t-max-s", "1e300", "--n-times", "5"]]
)
def test_overflowing_option_hits_grid_guard(tmp_path, small_cfg, capsys, argv):
    """2 pi x 1e308 overflows to inf; the contour grid cap reports it, exit 3."""
    rc = main(["transfer", "--config", small_cfg, "--out", str(tmp_path), *argv])
    assert rc == 3
    assert "inversion grid would need inf points" in capsys.readouterr().err


def test_ode_depth_estimate_overflow_exit_3(tmp_path, small_cfg, capsys):
    """half-span x t_max overflows at t_max = 1e308: the cost guard refuses
    the infinite work estimate, naming t_max, not an OverflowError from ceil."""
    rc = main([
        "transfer", "--config", small_cfg, "--out", str(tmp_path),
        "--method", "time-domain", "--t-max-s", "1e308",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "would take about inf state-steps" in err and "t_max = 1.000e+308 s x " in err


ENDLESS_SWAPS = {  # the value that would make the ODE run endless, and its cost factor
    "g_collective_hz": (("ensembles", 0, "g_collective_hz"), 1e-300, "e+299 s x the largest rate"),
    "gamma0_hz": (("cavity", "gamma0_hz"), 1e300, "gamma0/2 = 3.142e+300"),
    "q": (("cavity", "q"), 1e-30, "kappa/2 = 9.142e+39"),
    "span_fwhm": (("ensembles", 0, "grid", "span_fwhm"), 1e30, "max|w_j - w_c| = 1.005e+37"),
    "fwhm_hz": (("ensembles", 0, "lines", 0, "fwhm_hz"), 1e12, "max|w_j - w_c| = 5.027e+13"),
}


@pytest.mark.parametrize("path,value,factor", ENDLESS_SWAPS.values(), ids=ENDLESS_SWAPS.keys())
def test_endless_ode_run_exit_3(tmp_path, capsys, monkeypatch, path, value, factor):
    """A `swap` or time-domain `transfer` that would take DOP853 practically
    forever (steps of ~1e-300 s, 1e299 s spans, chains millions of sites
    deep) is refused by the cost guard before any DOP853 call, with exit 3
    naming the factors of its work estimate."""
    from qesr import dynamics

    def never(*args, **kwargs):
        raise AssertionError("dop853 ran")

    monkeypatch.setattr(dynamics, "dop853", never)
    raw = json.loads(json.dumps(SMALL))
    obj = raw
    for step in path[:-1]:
        obj = obj.setdefault(step, {}) if isinstance(step, str) else obj[step]
    obj[path[-1]] = value
    cfg = write_cfg(tmp_path, raw)
    for argv in (["swap"], ["transfer", "--method", "time-domain"]):
        rc = main([*argv, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()[-1]
        assert "state-steps, above the budget (33554432): t_max = " in err
        assert factor in err and "chain states; shorten the time span" in err


@pytest.mark.parametrize(
    "argv", [["density"], ["swap"], ["transfer", "--method", "time-domain"], ["spectrum"]]
)
def test_collective_coupling_whose_square_overflows_exit_2(tmp_path, capsys, argv):
    """g_K^2 overflows a double from about 2.1e153 Hz; every command refuses
    it as a config error naming g_collective, before any route squares it."""
    raw = json.loads(json.dumps(SMALL))
    raw["ensembles"][0]["g_collective_hz"] = 1e154
    out = tmp_path / "out"
    assert main([*argv, "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: ensembles[0] (demo): g_collective = 6.283185307179586e+154 rad/s: "
        "its square overflows a double\n"
    )
    assert not any(out.glob("*"))  # the directory is made before the ensembles are built


@pytest.mark.parametrize("argv", [
    ["swap"], ["spectrum"], ["transfer", "--method", "contour"],
    ["transfer", "--method", "time-domain"],
])
def test_collective_coupling_whose_period_overflows_exit_2(tmp_path, capsys, argv):
    """At 5e-324 Hz, 2 pi/g_K overflows, and with it the commands' time spans
    (cli._time_span, find_swap_time's storage grid): a config error naming
    g_collective, not a ValueError about the time grid."""
    raw = json.loads(json.dumps(SMALL))
    raw["ensembles"][0]["g_collective_hz"] = 5e-324
    out = tmp_path / "out"
    assert main([*argv, "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: ensembles[0] (demo): g_collective = 3e-323 rad/s: "
        "2 pi/g_collective overflows a double\n"
    )
    assert not any(out.glob("*"))


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("ignore:pulse bandwidth")
def test_contour_offset_whose_growth_overflows_exit_3(tmp_path, capsys):
    """At a 1e12 Hz contour offset e^(eta t_max) would overflow, far past the
    bound eta t_max <= 4: every contour command exits 3 naming eta and t_max,
    and the ODE commands write finite CSVs and summaries that parse as strict
    JSON."""
    raw = json.loads(json.dumps(SMALL))
    raw["numerics"] = {"contour_offset_hz": 1e12}
    cfg = write_cfg(tmp_path, raw)
    runs = {
        "spectrum": 3, "spectrum --mode exact-convolution": 3, "transfer --method contour": 3,
        "transfer --method contour --mode exact-convolution": 3,
        "transfer --method time-domain": 0, "swap": 0, "density": 0,
    }
    for i, (argv, want) in enumerate(runs.items()):
        out = tmp_path / str(i)
        assert main([*argv.split(), "--config", cfg, "--out", str(out)]) == want, argv
        err = capsys.readouterr().err
        if want == 3:
            assert " exceeds 4 (eta = 6.283e+12 rad/s, t_max = " in err
            assert not any(out.glob("*")), argv
            continue
        _strict_json((out / f"{argv.split()[0]}_summary.json").read_text())
        (csv,) = out.glob("*.csv")
        values = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(values)), argv


@pytest.mark.filterwarnings("ignore:pulse bandwidth")
@pytest.mark.parametrize("mode", [qesr.MODE_NARROW, qesr.MODE_EXACT])
def test_contour_offset_above_the_growth_bound_exit_3(tmp_path, capsys, mode):
    """The Bromwich sum scales the window's truncation error by e^(eta t_max).
    On paper_plus_I a 1e6 Hz offset (eta t_max = 1.62) stays within the bound
    of 4; a 1e7 Hz one (16.2) gave |beta| 0.32 against 0.20 and exits 3."""
    raw = json.loads(Path(bundled_config_path("paper_plus_I.cfg")).read_text())
    for offset_hz, want in ((1e6, 0), (1e7, 3)):
        raw["numerics"]["contour_offset_hz"] = offset_hz
        out = tmp_path / f"{offset_hz:g}"
        argv = ["transfer", "--method", "contour", "--mode", mode, "--out", str(out)]
        assert main([*argv, "--config", write_cfg(tmp_path, raw)]) == want
        err = capsys.readouterr().err
        if want == 0:
            assert sorted(f.name for f in out.iterdir()) == [
                "transfer_plus_I.csv", "transfer_summary.json",
            ]
            continue
        assert err == (
            "numerical guard: inversion growth eta t_max = 1.625e+01 exceeds 4 "
            "(eta = 6.283e+07 rad/s, t_max = 2.586e-07 s); pass a smaller contour offset\n"
        )
        assert not any(out.glob("*"))


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["swap"], ["transfer", "--method", "contour"],
    ["transfer", "--method", "time-domain"],
])
def test_lorentzian_pulse_whose_scale_square_overflows_exit_2(tmp_path, capsys, argv):
    """PulseEnvelope squares a lorentzian's scale fwhm/4; at 1e300 Hz that
    square is inf and every weight NaN, so the config refuses it by name."""
    raw = json.loads(json.dumps(SMALL))
    raw["pulse"] = {"shape": "lorentzian", "fwhm_hz": 1e300}
    out = tmp_path / "out"
    assert main([*argv, "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: pulse.fwhm_hz: 1e+300 Hz: (fwhm/4)^2 overflows in rad/s\n"
    )
    assert not out.exists()


def test_grid_guard_prints_a_short_count(tmp_path, small_cfg, capsys):
    """The lattice count for t_max = 1e-300 has about 300 digits; the guard
    prints it in e-notation."""
    rc = main([
        "transfer", "--config", small_cfg, "--out", str(tmp_path),
        "--method", "contour", "--t-max-s", "1e-300",
    ])
    assert rc == 3
    line = capsys.readouterr().err.splitlines()[-1]
    assert "kernel lattice would need " in line and "e+" in line
    assert len(line) < 200


def test_step_beyond_the_node_lattice_exit_3(tmp_path, capsys):
    """A step that no finite multiple of the node spacing reaches is a guard
    naming both, not an OverflowError while snapping the grid."""
    raw = json.loads(json.dumps(SMALL))
    raw["ensembles"][0]["grid"]["window_hz"] = [2.9099999e9, 2.9100001e9]
    raw["numerics"] = {"d_omega_hz": 2.8e307}
    cfg = write_cfg(tmp_path, raw)
    for command in ("transfer", "spectrum"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "d_omega = 1.759e+308 rad/s" in err and "node spacing h = " in err


SUBNORMAL_SPANS = [
    ["transfer", "--method", "time-domain", "--t-max-s", "5e-324", "--n-times", "3"],
    ["swap", "--tau-max-s", "5e-324", "--n-taus", "3"],
]


@pytest.mark.parametrize("argv", SUBNORMAL_SPANS, ids=[a[0] for a in SUBNORMAL_SPANS])
def test_ode_route_on_a_subnormal_span_never_tracebacks(tmp_path, small_cfg, argv):
    """linspace repeats 0.0 here; the ODE route takes repeated times."""
    rc = main([argv[0], "--config", small_cfg, "--out", str(tmp_path), *argv[1:]])
    assert rc in (0, 3)


def test_contour_on_an_underflowing_kappa_never_tracebacks(tmp_path):
    """omega_c / q underflows to kappa = 0: the schema accepts it, and the
    contour route inverts the lossless system like any other."""
    raw = json.loads(Path(bundled_config_path("paper_plus_I.cfg")).read_text())
    raw["cavity"].update(omega_c_hz=1e-300, q=1e300)
    cfg = write_cfg(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["transfer", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc in (0, 3)


def test_lossless_calibration_without_a_dip_names_the_detuning(tmp_path, capsys):
    """The same kappa = 0 system puts its cavity near 0 Hz, far below the
    spins: the swap calibration finds no dip, and exit 3 names that
    detuning against g_K, not losses that the system does not have."""
    raw = json.loads(Path(bundled_config_path("paper_plus_I.cfg")).read_text())
    raw["cavity"].update(omega_c_hz=1e-300, q=1e300)
    rc = main(["spectrum", "--config", write_cfg(tmp_path, raw), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "g_K = 1.822e+07 rad/s too weak against the cavity's detuning of -1.828e+10" in err
    assert "losses" not in err


def test_contour_on_a_subnormal_span_exit_3(tmp_path, small_cfg, capsys):
    """eta = 1/t_max overflows; the grid guard reports it before any snapping."""
    rc = main([
        "transfer", "--config", small_cfg, "--out", str(tmp_path),
        "--method", "contour", "--t-max-s", "5e-324", "--n-times", "3",
    ])
    assert rc == 3
    assert "finite contour offset and step" in capsys.readouterr().err


def test_argparse_rejects_bad_usage(small_cfg):
    with pytest.raises(SystemExit):
        main(["spectrum"])  # --config is required
    with pytest.raises(SystemExit):
        main(["spectrum", "--config", small_cfg, "--mode", "bogus"])
    with pytest.raises(SystemExit):
        main(["unknown-command"])


OVERFLOWING_HZ = [  # (command, path to the value set to 1e308, the key named)
    ("density", ("cavity", "omega_c_hz"), "cavity.omega_c_hz"),
    ("density", ("ensembles", 0, "center_hz"), "ensembles[0].center_hz"),
    ("density", ("ensembles", 0, "lines", 0, "center_hz"), "ensembles[0].lines[0].center_hz"),
    ("density", ("ensembles", 0, "lines", 0, "fwhm_hz"), "ensembles[0].lines[0].fwhm_hz"),
    ("spectrum", ("sweep", "span_hz"), "sweep.span_hz"),
    ("spectrum", ("sweep", "center_hz"), "sweep.center_hz"),
]


@pytest.mark.parametrize(
    "command,path,key", OVERFLOWING_HZ, ids=[key for _, _, key in OVERFLOWING_HZ]
)
def test_hz_overflowing_in_rad_exit_2(tmp_path, capsys, command, path, key):
    """2 pi x 1e308 is inf: the config is rejected, not a traceback (exit 1)
    from a domain object or a NaN inversion window (exit 3)."""
    raw = json.loads(json.dumps(SMALL))
    raw["cavity"] = {}
    obj = raw
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = 1e308
    out = tmp_path / "out"
    rc = main([command, "--config", write_cfg(tmp_path, raw), "--out", str(out)])
    assert rc == 2
    assert f"config error: {key}: 1e+308 Hz overflows in rad/s" in capsys.readouterr().err
    assert not out.exists()


def test_pump_edges_overflowing_in_rad_exit_2(tmp_path, capsys):
    """Centre and span each convert to finite rad/s, but centre + span/2 does not."""
    raw = json.loads(json.dumps(SMALL))
    raw["sweep"].update(center_hz=2.8e307, span_hz=2.8e307)
    rc = main(["spectrum", "--config", write_cfg(tmp_path, raw), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error: sweep: pump edges center_hz +/- span_hz/2 overflow" in (
        capsys.readouterr().err
    )


UNBUILDABLE_GRIDS = [  # (path to the value, the value, the cause named)
    (("grid", "span_fwhm"), 1e308, "grid window [-inf, inf] rad/s is not finite"),
    (("lines", 0, "fwhm_hz"), 5e-324, "is too narrow for 1501 distinct nodes"),
]


@pytest.mark.parametrize(
    "path,value,cause", UNBUILDABLE_GRIDS, ids=["span_fwhm", "fwhm_hz"]
)
def test_unbuildable_grid_exit_2(tmp_path, capsys, path, value, cause):
    """A node window that overflows, or collapses below float resolution, is a
    config error naming the ensemble, not a traceback from build_distribution."""
    raw = json.loads(json.dumps(SMALL))
    obj = raw["ensembles"][0]
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value
    out = tmp_path / "out"
    rc = main(["density", "--config", write_cfg(tmp_path, raw), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: ensembles[0] (demo): grid window" in err and cause in err
    assert not (out / "density_demo.csv").exists()


def test_node_count_above_the_lattice_cap_exit_2(tmp_path, capsys):
    """Every FFT contour grid's kernel lattice spans at least n_nodes points,
    so a node count above the lattice cap is a config error naming the key,
    not a traceback from allocating the nodes."""
    from qesr.dynamics import _MAX_LATTICE_POINTS

    raw = json.loads(json.dumps(SMALL))
    raw["ensembles"][0]["grid"]["n_nodes"] = 10**15
    out = tmp_path / "out"
    rc = main(["density", "--config", write_cfg(tmp_path, raw), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: ensembles[0].grid.n_nodes: must be <= {_MAX_LATTICE_POINTS}, "
        "got 1000000000000000\n"
    )
    assert not out.exists()


def test_pump_count_above_the_grid_cap_exit_2(tmp_path, capsys):
    """sweep.n_points is capped as the points of a contour grid are: a config
    error naming the key, not a traceback from allocating the pumps."""
    from qesr.dynamics import _MAX_GRID_POINTS

    raw = json.loads(json.dumps(SMALL))
    raw["sweep"]["n_points"] = _MAX_GRID_POINTS + 1
    out = tmp_path / "out"
    assert main(["spectrum", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: sweep.n_points: must be <= {_MAX_GRID_POINTS}, got {_MAX_GRID_POINTS + 1}\n"
    )
    assert not out.exists()


def test_satellite_replica_overflowing_in_rad_exit_2(tmp_path, capsys):
    """Line centre and satellite offset each convert to finite rad/s, their sum does not."""
    raw = json.loads(json.dumps(SMALL))
    ens = raw["ensembles"][0]
    ens["lines"][0]["center_hz"] = 2.8e307
    ens.update(satellites=[{"offset_hz": 2.8e307, "weight": 0.1}], center_hz=2.9e9)
    rc = main(["density", "--config", write_cfg(tmp_path, raw), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert (
        "config error: ensembles[0].satellites[0]: line center_hz + offset_hz "
        "overflows in rad/s (demo)"
    ) in capsys.readouterr().err


def test_cavity_q_overflowing_in_rad_exit_2(tmp_path, capsys):
    """kappa = omega_c / q must be finite, with omega_c the cavity's own or else
    the ensemble's centre: a config error naming the ensemble, for every
    command and --print-effective-config alike."""
    raw = json.loads(json.dumps(SMALL))
    raw["cavity"] = {"q": 1e-300}
    cfg = write_cfg(tmp_path, raw)
    for argv in (["swap", "--out", str(tmp_path / "o")], ["density", "--print-effective-config"]):
        assert main([*argv, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == 2 * "config error: cavity.q: omega_c / q overflows in rad/s (demo)\n"
    assert not (tmp_path / "o").exists()
    raw["cavity"]["omega_c_hz"] = 1e-10  # kappa = 2 pi 1e290 rad/s
    assert main(["density", "--print-effective-config", "--config", write_cfg(tmp_path, raw)]) == 0


def _sensitivity_run(tmp_path, sensitivity):
    raw = json.loads(json.dumps(SMALL))
    raw["sensitivity"] = sensitivity
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["sensitivity", "--config", write_cfg(tmp_path, raw), "--out", str(out)])
    return rc, out


@pytest.mark.parametrize(
    "sensitivity, cause",
    [
        ({"kappa_hz": 1e6, "n_spins": 1e300},
         "g_hz=10.0, delta_hz=2799999.9999999995, n_threshold=0.05: nbar_analytic = inf"),
        ({"coupling_hz": [1e-300], "delta_hz": [1e300]},
         "g_hz=9.999999999999999e-301, delta_hz=1e+300, n_threshold=0.05: n_min = inf"),
    ],
)
def test_sensitivity_overflowing_a_double_exit_3(tmp_path, capsys, sensitivity, cause):
    """A table value beyond the largest double names its row and column and
    writes no table, where it raised OverflowError or wrote inf (not JSON)."""
    rc, out = _sensitivity_run(tmp_path, sensitivity)
    assert rc == 3
    assert f"numerical guard: sensitivity row {cause} is not a finite double" in (
        capsys.readouterr().err
    )
    assert not (out / "sensitivity.csv").exists()


def test_sensitivity_with_kappa_far_above_delta_exit_0(tmp_path):
    """kappa = 3.6e16 Delta put 2x/kappa at -1 in rounding, and log1p failed."""
    from decimal import Decimal, localcontext

    rc, out = _sensitivity_run(tmp_path, {"kappa_hz": 1e23, "n_spins": 1e12})
    assert rc == 0
    t_peak = json.loads((out / "sensitivity_summary.json").read_text())["t_peak_s"]
    with localcontext() as ctx:
        ctx.prec = 50
        k, d = Decimal(2.0 * math.pi * 1e23), Decimal(2.0 * math.pi * 2.8e6)
        want = float((2 * d / k).ln() / (d - k / 2))
    assert abs(t_peak - want) <= 1e-14 * want


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# the schema's ranges: any positive double, and 2*pi*x finite for a frequency
_HZ_VALUES = _log_uniform(-323.0, 307.4)
_VALUES = _log_uniform(-323.0, 308.0)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    coupling=st.lists(_HZ_VALUES, min_size=1, max_size=2),
    delta=st.lists(_HZ_VALUES, min_size=1, max_size=2),
    n_threshold=st.lists(_VALUES, min_size=1, max_size=2),
    kappa=_HZ_VALUES,
    n_spins=_VALUES,
)
def test_sensitivity_writes_finite_values_or_exits_3(coupling, delta, n_threshold, kappa, n_spins):
    """Over the schema's whole range, a sensitivity run writes only finite
    values, in its table and its summary, or exits 3 naming the row."""
    sensitivity = {"coupling_hz": coupling, "delta_hz": delta, "n_threshold": n_threshold,
                   "kappa_hz": kappa, "n_spins": n_spins}
    with tempfile.TemporaryDirectory() as tmp:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc, out = _sensitivity_run(Path(tmp), sensitivity)
        assert rc in (0, 3), sink.getvalue()
        if rc == 3:
            assert "numerical guard: sensitivity row g_hz=" in sink.getvalue()
            return
        rows = (out / "sensitivity.csv").read_text().splitlines()[1:]
        summary = json.loads((out / "sensitivity_summary.json").read_text())
    values = [float(v) for row in rows for v in row.split(",")]
    assert all(math.isfinite(v) for v in values + list(summary.values()))


@pytest.mark.filterwarnings("ignore:pulse bandwidth")
def test_main_reuses_one_parser_without_carrying_values(tmp_path, small_cfg):
    """main parses with one parser per process; an option given in one call
    reaches no later call, whose files equal those of a new parser's run."""
    assert build_parser() is not build_parser()
    argv = ["transfer", "--config", small_cfg, "--n-times", "21", "--out"]
    assert main([*argv, str(tmp_path / "pumped"), "--omega-p-hz", "2.9105e9"]) == 0
    assert main([*argv, str(tmp_path / "reused")]) == 0
    assert run(build_parser().parse_args([*argv, str(tmp_path / "fresh")])) == 0

    def files(name):
        return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

    assert files("reused") == files("fresh") != files("pumped")


def _zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


def _none_or(lo, hi):
    return st.one_of(st.none(), st.floats(lo, hi))


@st.composite
def small_runs(draw):
    """A valid config with at most 300 nodes and 15 pumps, and the argv of one
    subcommand on it with at most 50 taus or times; over every line, pulse and
    cavity shape, both modes and both transfer methods."""
    g_hz = draw(_zero_or(1e6, 6e6))
    lines = [
        {
            "center_hz": draw(st.floats(2.90e9, 2.92e9)),
            "fwhm_hz": draw(st.floats(2e5, 5e6)),
            "weight": draw(st.floats(0.2, 2.0)),
        }
        for _ in range(draw(st.integers(1, 3)))
    ]
    cavity = draw(st.one_of(
        st.builds(lambda q: {"q": q}, st.floats(1e3, 1e5)),
        st.builds(lambda k: {"kappa_hz": k}, st.floats(3e4, 3e6)),
    ))
    cavity["gamma0_hz"] = draw(_zero_or(1e3, 3e5))
    pulse = draw(st.one_of(
        st.builds(lambda s, f: {"shape": s, "fwhm_hz": f},
                  st.sampled_from(["lorentzian", "gaussian"]), st.floats(2e4, 2e6)),
        st.builds(lambda d: {"shape": "rectangular", "duration_s": d}, st.floats(5e-7, 5e-5)),
    ))
    raw = {
        "ensembles": [{
            "name": "demo", "lines": lines, "g_collective_hz": g_hz,
            "shape": draw(st.sampled_from(["lorentzian", "gaussian"])),
            "grid": {"n_nodes": draw(st.integers(2, 300))},
        }],
        "cavity": cavity,
        "pulse": pulse,
        "sweep": {
            "n_points": draw(st.integers(3, 15)),
            "span_hz": draw(st.floats(2e6, 2e7)),
            "tau_s_s": draw(_none_or(2e-8, 3e-7)),
        },
        "numerics": {"mode": draw(st.sampled_from(["narrow-pulse", "exact-convolution"]))},
    }
    if draw(st.booleans()):  # the detail columns of the sensitivity table
        raw["sensitivity"] = {
            "kappa_hz": draw(st.floats(1e3, 1e6)), "n_spins": draw(st.floats(1e3, 1e12)),
        }
    command = draw(st.sampled_from(["spectrum", "swap", "transfer", "density", "sensitivity"]))
    # without coupling the default span is 10 / kappa, far beyond a small grid
    span = draw(_none_or(2e-8, 5e-7) if g_hz else st.floats(2e-8, 5e-7))
    argv = [command]
    if command == "swap":
        argv += ["--n-taus", str(draw(st.integers(3, 50)))]
        argv += [] if span is None else ["--tau-max-s", repr(span)]
    if command == "transfer":
        argv += ["--n-times", str(draw(st.integers(2, 50)))]
        argv += ["--method", draw(st.sampled_from(["contour", "time-domain"]))]
        argv += [] if span is None else ["--t-max-s", repr(span)]
    return raw, argv


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run=small_runs())
def test_valid_configs_exit_0_2_or_3(run):
    """No valid config ends in a traceback (exit 1): every run succeeds, or
    exits 2 (config) or 3 (numerical guard) with a message."""
    raw, argv = run
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = f"{tmp}/config.cfg"
        with open(path, "w") as fh:
            json.dump(raw, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv + ["--config", path, "--out", f"{tmp}/out"])
    assert rc in (0, 2, 3), sink.getvalue()
