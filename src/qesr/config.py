"""Strict configuration parsing and resolution.

Config files are JSON (conventionally with a .cfg extension).  Frequencies
are given in Hz (cycles) and converted to angular rad/s when domain objects
are built: omega_rad = 2*pi*value_hz.  Durations are seconds.  Unknown keys
are rejected with the offending path so physics parameters cannot be
silently misspelled.

`resolve(raw)` returns the effective configuration: every default filled in,
keys in a fixed canonical order.  Serializing the effective config, parsing
it again and serializing once more is byte-identical, which is what
`--print-effective-config` emits.

Sections and defaults
---------------------
ensembles (required, non-empty list): name; lines (center_hz, fwhm_hz,
  weight=1.0); g_collective_hz; satellites (offset_hz/weight pairs, default
  []); shape ("lorentzian"); center_hz (default: weight-averaged line
  center); grid {n_nodes=5001, span_fwhm=8.0, window_hz=null};
  n_spins_physical (reporting only, default null).
cavity: q or kappa_hz (exactly one); omega_c_hz (default null = tuned to
  each ensemble's center); gamma0_hz = 0.
pulse: shape ("lorentzian"|"gaussian"|"rectangular"); fwhm_hz (lorentzian/
  gaussian); duration_s (rectangular).
qubit: swap_efficiency=0.7, readout_fidelity=0.7, baseline=0.0,
  saturation_guard=1.0.
sweep: span_hz=1.4e7, n_points=401, n_pump=15.0, center_hz=null (per
  ensemble), tau_s_s=null (null = calibrate via the swap-trace minimum).
numerics: mode="narrow-pulse"; window_hz=null; d_omega_hz=null;
  contour_offset_hz=null; edge_ratio=1e-4; ode_rtol=1e-9; threads=1.
sensitivity: coupling_hz=[10.0]; delta_hz=[2.8e6] or linewidth_mt (times
  delta_hz_per_mt=2.8e7 Hz/mT, a documented conversion constant, not
  derived physics); n_threshold=[0.05]; kappa_hz=null; n_spins=null.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from .dynamics import CavityModel, InversionSettings, PulseEnvelope
from .errors import ConfigError
from .protocol import QubitChain
from .spin_model import Ensemble, EnsembleCatalog, GridSpec, SpinLine, build_distribution

__all__ = ["RunConfig", "parse_config", "resolve", "canonical_json"]

TWO_PI = 2.0 * math.pi


def _fail(path: str, msg: str) -> None:
    raise ConfigError(f"{path}: {msg}")


def _require_mapping(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        _fail(path, f"unknown key {unknown[0]!r} (allowed: {', '.join(allowed)})")


def _number(
    value: Any,
    path: str,
    positive: bool = False,
    nonnegative: bool = False,
    allow_none: bool = False,
) -> Optional[float]:
    if value is None:
        if allow_none:
            return None
        _fail(path, "must be a number, got null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {type(value).__name__}")
    v = float(value)
    if not math.isfinite(v):
        _fail(path, "must be finite")
    if positive and not v > 0:
        _fail(path, f"must be > 0, got {v!r}")
    if nonnegative and v < 0:
        _fail(path, f"must be >= 0, got {v!r}")
    return v


def _integer(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _string(value: Any, path: str, choices: Optional[Sequence[str]] = None) -> str:
    if not isinstance(value, str):
        _fail(path, f"must be a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        _fail(path, f"must be one of {list(choices)}, got {value!r}")
    return value


def _number_list(value: Any, path: str, positive: bool = False) -> List[float]:
    """Accept a scalar or a non-empty list of numbers; normalize to a list."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_number(value, path, positive=positive)]
    if isinstance(value, list):
        if not value:
            _fail(path, "must not be an empty list")
        return [
            _number(v, f"{path}[{i}]", positive=positive) for i, v in enumerate(value)
        ]
    _fail(path, f"must be a number or list of numbers, got {type(value).__name__}")


def _window(value: Any, path: str) -> Optional[List[float]]:
    """An optional [lo_hz, hi_hz] window with hi > lo."""
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "must be null or [lo_hz, hi_hz]")
    lo, hi = (_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not hi > lo:
        _fail(path, "must satisfy hi > lo")
    return [lo, hi]


def _resolve_line(raw: Any, path: str) -> dict:
    obj = _require_mapping(raw, path)
    _check_keys(obj, ("center_hz", "fwhm_hz", "weight"), path)
    if "center_hz" not in obj or "fwhm_hz" not in obj:
        _fail(path, "requires center_hz and fwhm_hz")
    return {
        "center_hz": _number(obj["center_hz"], f"{path}.center_hz", positive=True),
        "fwhm_hz": _number(obj["fwhm_hz"], f"{path}.fwhm_hz", positive=True),
        "weight": _number(obj.get("weight", 1.0), f"{path}.weight", positive=True),
    }


def _resolve_satellite(raw: Any, path: str) -> dict:
    obj = _require_mapping(raw, path)
    _check_keys(obj, ("offset_hz", "weight"), path)
    if "offset_hz" not in obj or "weight" not in obj:
        _fail(path, "requires offset_hz and weight")
    wt = _number(obj["weight"], f"{path}.weight", positive=True)
    if wt >= 1.0:
        _fail(f"{path}.weight", "must be < 1")
    return {
        "offset_hz": _number(obj["offset_hz"], f"{path}.offset_hz"),
        "weight": wt,
    }


def _resolve_grid(raw: Any, path: str) -> dict:
    obj = _require_mapping(raw, path) if raw is not None else {}
    _check_keys(obj, ("n_nodes", "span_fwhm", "window_hz"), path)
    window = _window(obj.get("window_hz"), f"{path}.window_hz")
    return {
        "n_nodes": _integer(obj.get("n_nodes", 5001), f"{path}.n_nodes", minimum=2),
        "span_fwhm": _number(obj.get("span_fwhm", 8.0), f"{path}.span_fwhm", positive=True),
        "window_hz": window,
    }


def _resolve_ensemble(raw: Any, path: str) -> dict:
    obj = _require_mapping(raw, path)
    allowed = (
        "name",
        "lines",
        "g_collective_hz",
        "satellites",
        "shape",
        "center_hz",
        "grid",
        "n_spins_physical",
    )
    _check_keys(obj, allowed, path)
    for req in ("name", "lines", "g_collective_hz"):
        if req not in obj:
            _fail(path, f"requires {req}")
    name = _string(obj["name"], f"{path}.name")
    if not name:
        _fail(f"{path}.name", "must be non-empty")
    lines_raw = obj["lines"]
    if not isinstance(lines_raw, list) or not lines_raw:
        _fail(f"{path}.lines", "must be a non-empty list")
    lines = [_resolve_line(ln, f"{path}.lines[{i}]") for i, ln in enumerate(lines_raw)]
    sats_raw = obj.get("satellites", [])
    if not isinstance(sats_raw, list):
        _fail(f"{path}.satellites", "must be a list")
    sats = [
        _resolve_satellite(s, f"{path}.satellites[{i}]") for i, s in enumerate(sats_raw)
    ]
    if sum(s["weight"] for s in sats) >= 1.0:
        _fail(f"{path}.satellites", "total satellite weight must be < 1")
    center = _number(obj.get("center_hz"), f"{path}.center_hz", positive=True, allow_none=True)
    if center is None:
        wsum = sum(ln["weight"] for ln in lines)
        center = sum(ln["weight"] * ln["center_hz"] for ln in lines) / wsum
        # the weighted mean can overflow or underflow; the effective config
        # must still resolve again
        _number(center, f"{path}.center_hz (weighted line mean)", positive=True)
    n_phys = _number(
        obj.get("n_spins_physical"), f"{path}.n_spins_physical", positive=True, allow_none=True
    )
    return {
        "name": name,
        "lines": lines,
        "g_collective_hz": _number(
            obj["g_collective_hz"], f"{path}.g_collective_hz", nonnegative=True
        ),
        "satellites": sats,
        "shape": _string(
            obj.get("shape", "lorentzian"), f"{path}.shape", ("lorentzian", "gaussian")
        ),
        "center_hz": center,
        "grid": _resolve_grid(obj.get("grid"), f"{path}.grid"),
        "n_spins_physical": n_phys,
    }


def _resolve_cavity(raw: Any) -> dict:
    obj = _require_mapping(raw, "cavity") if raw is not None else {}
    _check_keys(obj, ("omega_c_hz", "q", "kappa_hz", "gamma0_hz"), "cavity")
    q = _number(obj.get("q"), "cavity.q", positive=True, allow_none=True)
    kappa = _number(obj.get("kappa_hz"), "cavity.kappa_hz", positive=True, allow_none=True)
    if q is None and kappa is None:
        q = 1e4
    if q is not None and kappa is not None:
        _fail("cavity", "give q or kappa_hz, not both")
    return {
        "omega_c_hz": _number(
            obj.get("omega_c_hz"), "cavity.omega_c_hz", positive=True, allow_none=True
        ),
        "q": q,
        "kappa_hz": kappa,
        "gamma0_hz": _number(obj.get("gamma0_hz", 0.0), "cavity.gamma0_hz", nonnegative=True),
    }


def _resolve_pulse(raw: Any) -> dict:
    obj = _require_mapping(raw, "pulse") if raw is not None else {}
    _check_keys(obj, ("shape", "fwhm_hz", "duration_s"), "pulse")
    shape = _string(
        obj.get("shape", "lorentzian"),
        "pulse.shape",
        ("lorentzian", "gaussian", "rectangular"),
    )
    fwhm = _number(obj.get("fwhm_hz"), "pulse.fwhm_hz", positive=True, allow_none=True)
    duration = _number(obj.get("duration_s"), "pulse.duration_s", positive=True, allow_none=True)
    if shape == "rectangular":
        if duration is None:
            _fail("pulse.duration_s", "required for the rectangular shape")
        if fwhm is not None:
            _fail("pulse.fwhm_hz", "not allowed for the rectangular shape (derived)")
    else:
        if duration is not None:
            _fail("pulse.duration_s", "only allowed for the rectangular shape")
        if fwhm is None:
            fwhm = 1.5e5
    return {"shape": shape, "fwhm_hz": fwhm, "duration_s": duration}


def _resolve_qubit(raw: Any) -> dict:
    obj = _require_mapping(raw, "qubit") if raw is not None else {}
    _check_keys(
        obj,
        ("swap_efficiency", "readout_fidelity", "baseline", "saturation_guard"),
        "qubit",
    )
    out = {
        "swap_efficiency": _number(
            obj.get("swap_efficiency", 0.7), "qubit.swap_efficiency", positive=True
        ),
        "readout_fidelity": _number(
            obj.get("readout_fidelity", 0.7), "qubit.readout_fidelity", positive=True
        ),
        "baseline": _number(obj.get("baseline", 0.0), "qubit.baseline", nonnegative=True),
        "saturation_guard": _number(
            obj.get("saturation_guard", 1.0), "qubit.saturation_guard", positive=True
        ),
    }
    for key in ("swap_efficiency", "readout_fidelity", "saturation_guard"):
        if out[key] > 1.0:
            _fail(f"qubit.{key}", "must be <= 1")
    if out["baseline"] >= 1.0:
        _fail("qubit.baseline", "must be < 1")
    return out


def _resolve_sweep(raw: Any) -> dict:
    obj = _require_mapping(raw, "sweep") if raw is not None else {}
    _check_keys(obj, ("span_hz", "n_points", "n_pump", "center_hz", "tau_s_s"), "sweep")
    return {
        "span_hz": _number(obj.get("span_hz", 1.4e7), "sweep.span_hz", positive=True),
        "n_points": _integer(obj.get("n_points", 401), "sweep.n_points", minimum=3),
        "n_pump": _number(obj.get("n_pump", 15.0), "sweep.n_pump", nonnegative=True),
        "center_hz": _number(
            obj.get("center_hz"), "sweep.center_hz", positive=True, allow_none=True
        ),
        "tau_s_s": _number(obj.get("tau_s_s"), "sweep.tau_s_s", positive=True, allow_none=True),
    }


def _resolve_numerics(raw: Any) -> dict:
    obj = _require_mapping(raw, "numerics") if raw is not None else {}
    allowed = (
        "mode",
        "window_hz",
        "d_omega_hz",
        "contour_offset_hz",
        "edge_ratio",
        "ode_rtol",
        "threads",
    )
    _check_keys(obj, allowed, "numerics")
    window = _window(obj.get("window_hz"), "numerics.window_hz")
    return {
        "mode": _string(
            obj.get("mode", "narrow-pulse"),
            "numerics.mode",
            ("narrow-pulse", "exact-convolution"),
        ),
        "window_hz": window,
        "d_omega_hz": _number(
            obj.get("d_omega_hz"), "numerics.d_omega_hz", positive=True, allow_none=True
        ),
        "contour_offset_hz": _number(
            obj.get("contour_offset_hz"),
            "numerics.contour_offset_hz",
            positive=True,
            allow_none=True,
        ),
        "edge_ratio": _number(obj.get("edge_ratio", 1e-4), "numerics.edge_ratio", positive=True),
        "ode_rtol": _number(obj.get("ode_rtol", 1e-9), "numerics.ode_rtol", positive=True),
        "threads": _integer(obj.get("threads", 1), "numerics.threads", minimum=1),
    }


def _resolve_sensitivity(raw: Any) -> dict:
    obj = _require_mapping(raw, "sensitivity") if raw is not None else {}
    allowed = (
        "coupling_hz",
        "delta_hz",
        "linewidth_mt",
        "delta_hz_per_mt",
        "n_threshold",
        "kappa_hz",
        "n_spins",
    )
    _check_keys(obj, allowed, "sensitivity")
    per_mt = _number(
        obj.get("delta_hz_per_mt", 2.8e7), "sensitivity.delta_hz_per_mt", positive=True
    )
    if obj.get("delta_hz") is not None and obj.get("linewidth_mt") is not None:
        _fail("sensitivity", "give delta_hz or linewidth_mt, not both")
    if obj.get("linewidth_mt") is not None:
        lws = _number_list(obj["linewidth_mt"], "sensitivity.linewidth_mt", positive=True)
        delta = [
            _number(lw * per_mt, "sensitivity.linewidth_mt x delta_hz_per_mt", positive=True)
            for lw in lws
        ]
    elif obj.get("delta_hz") is not None:
        delta = _number_list(obj["delta_hz"], "sensitivity.delta_hz", positive=True)
    else:
        delta = [2.8e6]
    return {
        "coupling_hz": _number_list(
            obj.get("coupling_hz", [10.0]), "sensitivity.coupling_hz", positive=True
        ),
        "delta_hz": delta,
        "linewidth_mt": None,
        "delta_hz_per_mt": per_mt,
        "n_threshold": _number_list(
            obj.get("n_threshold", [0.05]), "sensitivity.n_threshold", positive=True
        ),
        "kappa_hz": _number(
            obj.get("kappa_hz"), "sensitivity.kappa_hz", positive=True, allow_none=True
        ),
        "n_spins": _number(
            obj.get("n_spins"), "sensitivity.n_spins", positive=True, allow_none=True
        ),
    }


def resolve(raw: Any) -> dict:
    """Validate a parsed JSON object and fill every default (strict)."""
    obj = _require_mapping(raw, "<root>")
    allowed = ("ensembles", "cavity", "pulse", "qubit", "sweep", "numerics", "sensitivity")
    _check_keys(obj, allowed, "<root>")
    ens_raw = obj.get("ensembles")
    if not isinstance(ens_raw, list) or not ens_raw:
        _fail("ensembles", "must be a non-empty list")
    ensembles = [
        _resolve_ensemble(e, f"ensembles[{i}]") for i, e in enumerate(ens_raw)
    ]
    names = [e["name"] for e in ensembles]
    if len(set(names)) != len(names):
        _fail("ensembles", f"names must be unique, got {names}")
    return {
        "ensembles": ensembles,
        "cavity": _resolve_cavity(obj.get("cavity")),
        "pulse": _resolve_pulse(obj.get("pulse")),
        "qubit": _resolve_qubit(obj.get("qubit")),
        "sweep": _resolve_sweep(obj.get("sweep")),
        "numerics": _resolve_numerics(obj.get("numerics")),
        "sensitivity": _resolve_sensitivity(obj.get("sensitivity")),
    }


def canonical_json(effective: Mapping) -> str:
    """Deterministic serialization of an effective config (ends with newline)."""
    return json.dumps(effective, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration plus builders for the domain objects."""

    effective: Mapping

    # -- builders -----------------------------------------------------------

    def catalog(self) -> EnsembleCatalog:
        entries = {}
        for spec in self.effective["ensembles"]:
            lines = [
                SpinLine(
                    center=TWO_PI * ln["center_hz"],
                    fwhm=TWO_PI * ln["fwhm_hz"],
                    weight=ln["weight"],
                )
                for ln in spec["lines"]
            ]
            sats = [
                (TWO_PI * s["offset_hz"], s["weight"]) for s in spec["satellites"]
            ]
            g = spec["grid"]
            window = g["window_hz"]
            grid = GridSpec(
                n_nodes=g["n_nodes"],
                window=(TWO_PI * window[0], TWO_PI * window[1]) if window else None,
                span_fwhm=g["span_fwhm"],
            )
            dist = build_distribution(
                lines,
                g_collective=TWO_PI * spec["g_collective_hz"],
                satellites=sats or None,
                grid=grid,
                shape=spec["shape"],
                n_spins_physical=spec["n_spins_physical"],
            )
            name = spec["name"]
            entries[name] = Ensemble(
                name=name, center=TWO_PI * spec["center_hz"], distribution=dist
            )
        return EnsembleCatalog(entries)

    def cavity_for(self, ensemble: Ensemble) -> CavityModel:
        spec = self.effective["cavity"]
        omega_c = (
            TWO_PI * spec["omega_c_hz"] if spec["omega_c_hz"] is not None else ensemble.center
        )
        gamma0 = TWO_PI * spec["gamma0_hz"]
        if spec["q"] is not None:
            return CavityModel.from_quality(omega_c, spec["q"], gamma0=gamma0)
        return CavityModel(omega_c, TWO_PI * spec["kappa_hz"], gamma0=gamma0)

    def pulse(self) -> PulseEnvelope:
        spec = self.effective["pulse"]
        if spec["shape"] == "rectangular":
            return PulseEnvelope(shape="rectangular", duration=spec["duration_s"])
        return PulseEnvelope(shape=spec["shape"], fwhm=TWO_PI * spec["fwhm_hz"])

    def chain(self) -> QubitChain:
        spec = self.effective["qubit"]
        return QubitChain(
            swap_efficiency=spec["swap_efficiency"],
            readout_fidelity=spec["readout_fidelity"],
            baseline=spec["baseline"],
            saturation_guard=spec["saturation_guard"],
        )

    def inversion_settings(self) -> InversionSettings:
        spec = self.effective["numerics"]
        window = spec["window_hz"]
        return InversionSettings(
            window=(TWO_PI * window[0], TWO_PI * window[1]) if window else None,
            d_omega=TWO_PI * spec["d_omega_hz"] if spec["d_omega_hz"] else None,
            contour_offset=(
                TWO_PI * spec["contour_offset_hz"] if spec["contour_offset_hz"] else None
            ),
            edge_ratio=spec["edge_ratio"],
        )

    @property
    def mode(self) -> str:
        return self.effective["numerics"]["mode"]

    @property
    def threads(self) -> int:
        return self.effective["numerics"]["threads"]

    @property
    def ode_rtol(self) -> float:
        return self.effective["numerics"]["ode_rtol"]

    def sweep_omegas(self, ensemble: Ensemble):
        """Pump angular frequencies for an ensemble's spectrum sweep."""
        import numpy as np

        spec = self.effective["sweep"]
        center = (
            TWO_PI * spec["center_hz"] if spec["center_hz"] is not None else ensemble.center
        )
        half = 0.5 * TWO_PI * spec["span_hz"]
        return np.linspace(center - half, center + half, spec["n_points"])

    @property
    def sweep_n_pump(self) -> float:
        return self.effective["sweep"]["n_pump"]

    @property
    def sweep_tau_s(self) -> Optional[float]:
        """Configured interaction time in seconds, or None for auto-calibration."""
        return self.effective["sweep"]["tau_s_s"]

    def sensitivity_rows(self) -> List[Tuple[float, float, float]]:
        """Cartesian (g, Delta, n_threshold) grid in rad/s, fixed order."""
        spec = self.effective["sensitivity"]
        return [
            (TWO_PI * g, TWO_PI * d, nth)
            for g in spec["coupling_hz"]
            for d in spec["delta_hz"]
            for nth in spec["n_threshold"]
        ]

    @property
    def sensitivity_kappa(self) -> Optional[float]:
        k = self.effective["sensitivity"]["kappa_hz"]
        return TWO_PI * k if k is not None else None

    @property
    def sensitivity_n_spins(self) -> Optional[float]:
        return self.effective["sensitivity"]["n_spins"]

    def to_json(self) -> str:
        return canonical_json(self.effective)


def parse_config(source) -> RunConfig:
    """Parse and resolve a config from a file path or a JSON string.

    Strings are treated as paths when such a file exists, otherwise as JSON
    text.  Parse errors report line and column; validation errors report the
    offending key path.
    """
    text = None
    if hasattr(source, "read"):
        text = source.read()
    else:
        s = os.fspath(source)
        if os.path.exists(s):
            with open(s, "r") as fh:
                text = fh.read()
        elif s.lstrip().startswith("{"):
            text = s
        else:
            raise ConfigError(f"config file not found: {s}")
    if not text or not text.strip():
        raise ConfigError("config is empty")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return RunConfig(effective=resolve(raw))
