"""Workload definitions: generated configs, CLI command lists and output checks.

Every workload runs on both bundled configs, copied (or, for the exact-mode
sweep, derived) into the run's work directory; the program receives only
those files.  The seed picks the points at which outputs are compared with
the matrix-exponential reference in `reference.py`; it does not change what
the program is asked to compute, so timings from different seeds are
comparable.

A check returns a list of failure messages (empty when the outputs pass).
No check compares against stored program output: each one uses the
reference, a closed form, or a property the outputs must have.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

import reference as ref

BUNDLED = ("paper_plus_I", "paper_plus_III")
EXACT_POINTS = 3  # pump points of the generated exact-convolution sweep
SPOT_POINTS = 4  # seed-chosen comparison points per output file
NARROW_TOL = 0.06  # narrow-pulse error, fraction of the peak (measured 4.8% / 4.0%)
EXACT_TOL = 1e-4  # exact-convolution sweep vs reference, fraction of the peak
ROUTE_TOL = 1e-3  # criterion-1 cap on |beta| differences between routes
ODE_TOL = 1e-6  # ODE-propagated swap population vs reference
TAU_WINDOW = 0.05  # swap time is checked on a +-5% grid around it
TAU_GRID = 101


@dataclass(frozen=True)
class Workload:
    """CLI argument lists (without --out) and a check over their outputs."""

    name: str
    commands: List[List[str]]
    configs: List[Path]
    check: Callable[[Sequence[Path]], List[str]]
    mode: str  # evaluation mode of the workload's sweeps (for the layer probes)
    warm_passes: int  # in-process passes per round, so compute_s gets several samples


def _read_csv(path: Path) -> Dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = np.array(rows[1:], dtype=float).T
    return dict(zip(rows[0], cols))


def _read_summary(out: Path, command: str) -> dict:
    with open(out / f"{command}_summary.json") as fh:
        return json.load(fh)


def digest(out: Path) -> str:
    """Hash of every file name and byte in an output directory."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _close(actual, expected, rtol: float) -> bool:
    return bool(np.allclose(actual, expected, rtol=rtol, atol=0.0))


class _Checker:
    """Shared state of one workload's checks: configs, seed and reference."""

    def __init__(self, configs: Dict[str, dict], seed: int):
        self.configs = configs
        self.rng = np.random.default_rng(seed)
        self.models = {
            name: ref.model_from_config(cfg, cfg["ensembles"][0])
            for name, cfg in configs.items()
        }

    def _ensemble(self, cfg_name: str) -> str:
        return self.configs[cfg_name]["ensembles"][0]["name"]

    def _spots(self, n: int) -> np.ndarray:
        return np.sort(self.rng.choice(n, size=min(SPOT_POINTS, n), replace=False))

    def _p_e(self, cfg_name: str, abs2, n_pump: float) -> np.ndarray:
        q = self.configs[cfg_name]["qubit"]
        raw = q["readout_fidelity"] * q["swap_efficiency"] * n_pump * abs2 + q["baseline"]
        return np.clip(raw, 0.0, 1.0)

    def swap_time(self, cfg_name: str, tau: float) -> List[str]:
        """tau is the first minimum of the reference cavity population."""
        m = self.models[cfg_name]
        grid = np.linspace((1 - TAU_WINDOW) * tau, (1 + TAU_WINDOW) * tau, TAU_GRID)
        pop = np.abs(ref.cavity_amplitude(m, m.cavity_start(), grid)) ** 2
        i = int(np.argmin(pop))
        errs = []
        if not 0 < i < grid.size - 1 or abs(grid[i] - tau) > grid[1] - grid[0]:
            errs.append(
                f"{cfg_name}: swap time {tau!r} s is not at the reference minimum "
                f"({float(grid[i])!r} s on a +-{TAU_WINDOW:.0%} grid)"
            )
        # no earlier minimum: population falls monotonically up to the window
        early = np.linspace(0.0, grid[0], 41)
        pop0 = np.abs(ref.cavity_amplitude(m, m.cavity_start(), early)) ** 2
        if np.any(np.diff(pop0) > 0):
            errs.append(f"{cfg_name}: reference population has a minimum before {tau!r} s")
        return errs

    def spectrum(self, cfg_name: str, out: Path, tol: float) -> List[str]:
        ens = self._ensemble(cfg_name)
        summary = _read_summary(out, "spectrum")[ens]
        data = _read_csv(out / f"spectrum_{ens}.csv")
        cfg = self.configs[cfg_name]
        errs = []
        if data["abs2_beta"].size != cfg["sweep"]["n_points"]:
            errs.append(f"{cfg_name}: spectrum has {data['abs2_beta'].size} points")
            return errs
        n_pump = cfg["sweep"]["n_pump"]
        if not _close(data["p_e"], self._p_e(cfg_name, data["abs2_beta"], n_pump), 1e-12):
            errs.append(f"{cfg_name}: spectrum p_e != readout*swap*n_pump*|beta|^2 + baseline")
        tau = summary["tau_s_s"]
        errs += self.swap_time(cfg_name, tau)
        m = self.models[cfg_name]
        fwhm = ref.TWO_PI * cfg["pulse"]["fwhm_hz"]
        idx = np.union1d(self._spots(data["abs2_beta"].size), [np.argmax(data["abs2_beta"])])
        want = np.array(
            [
                abs(ref.cavity_amplitude(m, m.pulse_start(fwhm, wp), tau)[0]) ** 2
                for wp in data["omega_p_rad_per_s"][idx]
            ]
        )
        dev = np.abs(data["abs2_beta"][idx] - want) / want.max()
        if dev.max() > tol:
            errs.append(
                f"{cfg_name}: |beta|^2 deviates from the reference by "
                f"{dev.max():.3e} of the peak (tolerance {tol:.1e})"
            )
        return errs

    def transfer(self, cfg_name: str, contour: Path, time_domain: Path) -> List[str]:
        ens = self._ensemble(cfg_name)
        c = _read_csv(contour / f"transfer_{ens}.csv")
        t = _read_csv(time_domain / f"transfer_{ens}.csv")
        errs = []
        if not np.array_equal(c["t_s"], t["t_s"]):
            return [f"{cfg_name}: contour and time-domain times differ"]
        bc = c["re_beta"] + 1j * c["im_beta"]
        bt = t["re_beta"] + 1j * t["im_beta"]
        for label, b, d in (("contour", bc, c), ("time-domain", bt, t)):
            if not _close(d["abs2_beta"], np.abs(b) ** 2, 1e-12):
                errs.append(f"{cfg_name}: {label} abs2_beta != |re + i im|^2")
        gap = float(np.max(np.abs(bc - bt)))
        if gap > ROUTE_TOL:
            errs.append(f"{cfg_name}: contour and time-domain differ by {gap:.3e}")
        m = self.models[cfg_name]
        cfg = self.configs[cfg_name]
        # the transfer commands pump at the ensemble centre (no --omega-p-hz)
        pump = ref.ensemble_centre(cfg["ensembles"][0])
        x0 = m.pulse_start(ref.TWO_PI * cfg["pulse"]["fwhm_hz"], pump)
        times = c["t_s"]
        for i in self._spots(times.size):
            want = ref.lab_frame(m, ref.cavity_amplitude(m, x0, times[i]), times[i])[0]
            for label, b in (("contour", bc), ("time-domain", bt)):
                if abs(b[i] - want) > ROUTE_TOL:
                    errs.append(
                        f"{cfg_name}: {label} beta({float(times[i])!r}) off the reference "
                        f"by {abs(b[i] - want):.3e}"
                    )
        return errs

    def swap(self, cfg_name: str, out: Path) -> List[str]:
        ens = self._ensemble(cfg_name)
        data = _read_csv(out / f"swap_{ens}.csv")
        errs = []
        if not _close(data["p_e"], self._p_e(cfg_name, data["cavity_abs2"], 1.0), 1e-12):
            errs.append(f"{cfg_name}: swap p_e != readout*swap*|a|^2 + baseline")
        m = self.models[cfg_name]
        idx = self._spots(data["tau_s"].size)
        taus = data["tau_s"][idx]
        want = np.array(
            [abs(ref.cavity_amplitude(m, m.cavity_start(), t)[0]) ** 2 for t in taus]
        )
        dev = float(np.max(np.abs(data["cavity_abs2"][idx] - want)))
        if dev > ODE_TOL:
            errs.append(f"{cfg_name}: swap population off the reference by {dev:.3e}")
        errs += self.swap_time(cfg_name, _read_summary(out, "swap")[ens]["tau_swap_s"])
        return errs

    def density(self, cfg_name: str, out: Path) -> List[str]:
        ens = self._ensemble(cfg_name)
        data = _read_csv(out / f"density_{ens}.csv")
        nodes, weights = ref.discretize(self.configs[cfg_name]["ensembles"][0])
        w = data["weight"]
        errs = []
        if abs(w.sum() - 1.0) > 1e-12:
            errs.append(f"{cfg_name}: density weights sum to {w.sum()!r}")
        if not (
            _close(data["omega_rad_per_s"], nodes, 1e-13) and _close(w, weights, 1e-9)
        ):
            errs.append(f"{cfg_name}: density nodes/weights differ from the line mixture")
        return errs

    def sensitivity(self, cfg_name: str, out: Path) -> List[str]:
        data = _read_csv(out / "sensitivity.csv")
        spec = self.configs[cfg_name]["sensitivity"]
        rows = [
            (g, d, n)
            for g in spec["coupling_hz"]
            for d in spec["delta_hz"]
            for n in spec["n_threshold"]
        ]
        got = np.column_stack([data["g_hz"], data["delta_hz"], data["n_threshold"]])
        if got.shape != (len(rows), 3) or not _close(got, np.array(rows), 1e-12):
            return [f"{cfg_name}: sensitivity rows are not the configured grid"]
        n_min = 2.0 * data["delta_hz"] / data["g_hz"] * np.sqrt(data["n_threshold"])
        if not _close(data["n_min"], n_min, 1e-12):
            return [f"{cfg_name}: n_min != (2 Delta / g) sqrt(n_th)"]
        return []


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Write the workload's configs into `work` and return its definition."""
    configs = {}
    paths = []
    for cfg_name in BUNDLED:
        with open(root / "src" / "qesr" / "configs" / f"{cfg_name}.cfg") as fh:
            cfg = json.load(fh)
        if name == "spectrum_exact":
            cfg["sweep"]["n_points"] = EXACT_POINTS
        path = work / f"{cfg_name}.cfg"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        configs[cfg_name] = cfg
        paths.append(path)
    chk = _Checker(configs, seed)
    I, III = BUNDLED

    def cfg_args(i):
        return ["--config", str(paths[i])]

    if name in ("spectrum_narrow", "spectrum_exact"):
        exact = name == "spectrum_exact"
        mode = ["--mode", "exact-convolution"] if exact else []
        commands = [["spectrum", *mode, *cfg_args(i)] for i in range(2)]
        tol = EXACT_TOL if exact else NARROW_TOL

        def check(outs):
            return chk.spectrum(I, outs[0], tol) + chk.spectrum(III, outs[1], tol)

        if exact:
            return Workload(name, commands, paths, check, "exact-convolution", 1)
        return Workload(name, commands, paths, check, "narrow-pulse", 2)

    if name == "traces":
        commands = []
        for i in range(2):
            commands += [
                ["transfer", "--method", "contour", "--mode", "exact-convolution", *cfg_args(i)],
                ["transfer", "--method", "time-domain", *cfg_args(i)],
                ["swap", *cfg_args(i)],
                ["density", *cfg_args(i)],
            ]
        commands.append(["sensitivity", *cfg_args(0)])

        def check(outs):
            errs = []
            for k, cfg_name in enumerate(BUNDLED):
                o = outs[4 * k : 4 * k + 4]
                errs += chk.transfer(cfg_name, o[0], o[1])
                errs += chk.swap(cfg_name, o[2])
                errs += chk.density(cfg_name, o[3])
            return errs + chk.sensitivity(I, outs[8])

        return Workload(name, commands, paths, check, "narrow-pulse", 4)

    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("spectrum_narrow", "spectrum_exact", "traces")
