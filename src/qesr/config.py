"""Strict configuration parsing and resolution.

Config files are JSON (conventionally with a .cfg extension).  Frequencies
are given in Hz (cycles) and converted to angular rad/s when domain objects
are built: omega_rad = 2*pi*value_hz, which must be finite (`_hz`; the sweep's
pump edges and the cavity's omega_c / q too).  Durations are seconds.
Unknown keys are rejected with the offending path so physics parameters
cannot be silently misspelled.

`resolve(raw)` returns the effective configuration: every default filled in,
keys in a fixed canonical order.  Serializing the effective config, parsing
it again and serializing once more is byte-identical, which is what
`--print-effective-config` emits.

Sections and defaults
---------------------
The tables `_ROOT`, `_ENSEMBLE`, `_LINE`, `_SATELLITE`, `_GRID`, `_CAVITY`,
`_PULSE`, `_QUBIT`, `_SWEEP`, `_NUMERICS` and `_SENSITIVITY` below are the
single in-code list of keys, defaults and checks, and `_section` is the one
resolver that reads them.  Cross-field rules set the three defaults that
depend on another key: cavity q=1e4 unless kappa_hz is given, pulse
fwhm_hz=1.5e5 unless the shape is rectangular (which takes duration_s), and
sensitivity delta_hz=[2.8e6] unless linewidth_mt is given (times
delta_hz_per_mt=2.8e7 Hz/mT, a documented conversion constant, not derived
physics).  The README's configuration reference describes every key.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Mapping, Optional, Tuple

from ._shared import LINE_SHAPES, MODE_NARROW, MODES, N_THRESHOLD, ODE_RTOL, PULSE_SHAPES
from ._shared import _EDGE_RATIO, _MAX_GRID_POINTS, _MAX_LATTICE_POINTS, _N_NODES, _SPAN_FWHM
from .errors import ConfigError

if TYPE_CHECKING:  # the builders import the domain classes when they run
    from .dynamics import CavityModel, InversionSettings, PulseEnvelope
    from .protocol import QubitChain
    from .spin_model import Ensemble, EnsembleCatalog

__all__ = ["RunConfig", "parse_config", "resolve", "canonical_json"]

TWO_PI = 2.0 * math.pi

_REQUIRED = object()  # table default of a key that must be present


def _fail(path: str, msg: str) -> None:
    raise ConfigError(f"{path}: {msg}")


# -- field checks: check(value, path) returns the resolved value; _integer,
# _string, _num, _object and _list_of build one from their arguments


def _number(value: Any, path: str, positive=False, nonnegative=False, below=None, at_most=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        got = "null" if value is None else type(value).__name__
        _fail(path, f"must be a number, got {got}")
    v = float(value)
    if not math.isfinite(v):
        _fail(path, "must be finite")
    if positive and not v > 0:
        _fail(path, f"must be > 0, got {v!r}")
    if nonnegative and v < 0:
        _fail(path, f"must be >= 0, got {v!r}")
    if below is not None and v >= below:
        _fail(path, f"must be < {below}")
    if at_most is not None and v > at_most:
        _fail(path, f"must be <= {at_most}")
    return v


def _integer(minimum: int, maximum: Optional[int] = None) -> Callable:
    def check(value: Any, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, f"must be an integer, got {type(value).__name__}")
        if value < minimum:
            _fail(path, f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            _fail(path, f"must be <= {maximum}, got {value}")
        return int(value)

    return check


def _string(*choices: str) -> Callable:
    """A string, one of `choices` when given, else any non-empty one."""

    def check(value: Any, path: str) -> str:
        if not isinstance(value, str):
            _fail(path, f"must be a string, got {type(value).__name__}")
        if choices and value not in choices:
            _fail(path, f"must be one of {list(choices)}, got {value!r}")
        if not value:
            _fail(path, "must be non-empty")
        return value

    return check


def _positive_list(value: Any, path: str) -> List[float]:
    """Accept a positive scalar or a non-empty list of them; normalize to a list."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_number(value, path, positive=True)]
    if isinstance(value, list):
        if not value:
            _fail(path, "must not be an empty list")
        return [_number(v, f"{path}[{i}]", positive=True) for i, v in enumerate(value)]
    _fail(path, f"must be a number or list of numbers, got {type(value).__name__}")


def _window(value: Any, path: str) -> List[float]:
    """A [lo_hz, hi_hz] window with hi > lo."""
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "must be null or [lo_hz, hi_hz]")
    lo, hi = (_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not hi > lo:
        _fail(path, "must satisfy hi > lo")
    return [lo, hi]


def _num(**bounds) -> Callable:
    return lambda value, path: _number(value, path, **bounds)


def _object(fields: Mapping, rule: Optional[Callable] = None) -> Callable:
    """A nested object; null reads as {}, i.e. every default."""
    return lambda value, path: _section({} if value is None else value, path, fields, rule)


def _list_of(fields: Mapping, rule: Optional[Callable] = None, empty_ok: bool = False):
    """A list whose every item is an object resolved against `fields`."""

    def check(value: Any, path: str) -> list:
        if not isinstance(value, list) or not (value or empty_ok):
            _fail(path, "must be a list" if empty_ok else "must be a non-empty list")
        return [_section(v, f"{path}[{i}]", fields, rule) for i, v in enumerate(value)]

    return check


def _hz(check: Callable) -> Callable:
    """A frequency in Hz (or a list of them): `check`, then 2*pi*x must be finite.

    The builders convert every Hz value to rad/s (`_rad`), which overflows
    above ~2.9e307 Hz.
    """

    def hz_check(value: Any, path: str):
        out = check(value, path)
        for hz in out if isinstance(out, list) else [out]:
            if not math.isfinite(TWO_PI * hz):
                _fail(path, f"{hz!r} Hz overflows in rad/s (2*pi*x must be finite)")
        return out

    return hz_check


_POSITIVE = _num(positive=True)
_NONNEGATIVE = _num(nonnegative=True)
_HZ = _hz(_POSITIVE)


def _section(raw: Any, path: str, fields: Mapping, rule: Optional[Callable] = None) -> dict:
    """Resolve one object against its table of `key: (default, check)`.

    Unknown keys are rejected.  A missing key takes its default, and a
    `_REQUIRED` one fails.  With a None default, null and a missing key both
    resolve to None unchecked; every other value goes through its check.
    `rule(out, path)` then applies the object's cross-field rules.
    """
    where = path or "<root>"
    if not isinstance(raw, Mapping):
        _fail(where, f"expected an object, got {type(raw).__name__}")
    unknown = [k for k in raw if k not in fields]
    if unknown:
        _fail(where, f"unknown key {unknown[0]!r} (allowed: {', '.join(fields)})")
    out = {}
    for key, (default, check) in fields.items():
        if default is _REQUIRED and key not in raw:
            _fail(where, f"requires {key}")
        value = raw.get(key, default)
        sub = f"{path}.{key}" if path else key
        out[key] = None if value is None and default is None else check(value, sub)
    if rule is not None:
        rule(out, path)
    return out


# -- cross-field rules: rule(out, path) checks and completes a resolved object


def _ensemble_rule(ens: dict, path: str) -> None:
    if sum(s["weight"] for s in ens["satellites"]) >= 1.0:
        _fail(f"{path}.satellites", "total satellite weight must be < 1")
    if ens["center_hz"] is None:
        lines = ens["lines"]
        wsum = sum(ln["weight"] for ln in lines)
        center = sum(ln["weight"] * ln["center_hz"] for ln in lines) / wsum
        # the weighted mean can overflow or underflow; the effective config
        # must still resolve again
        _HZ(center, f"{path}.center_hz (weighted line mean)")
        ens["center_hz"] = center


def _cavity_rule(cavity: dict, path: str) -> None:
    if cavity["q"] is not None and cavity["kappa_hz"] is not None:
        _fail(path, "give q or kappa_hz, not both")
    if cavity["q"] is None and cavity["kappa_hz"] is None:
        cavity["q"] = 1e4


def _pulse_rule(pulse: dict, path: str) -> None:
    if pulse["shape"] == "rectangular":
        if pulse["duration_s"] is None:
            _fail(f"{path}.duration_s", "required for the rectangular shape")
        if pulse["fwhm_hz"] is not None:
            _fail(f"{path}.fwhm_hz", "not allowed for the rectangular shape (derived)")
    elif pulse["duration_s"] is not None:
        _fail(f"{path}.duration_s", "only allowed for the rectangular shape")
    elif pulse["fwhm_hz"] is None:
        pulse["fwhm_hz"] = 1.5e5
    if pulse["shape"] == "lorentzian":
        scale = _rad(pulse["fwhm_hz"]) / 4.0  # PulseEnvelope's bandwidth_scale, which it squares
        if not math.isfinite(scale * scale):
            _fail(f"{path}.fwhm_hz", f"{pulse['fwhm_hz']!r} Hz: (fwhm/4)^2 overflows in rad/s")


def _sensitivity(value: Any, path: str) -> dict:
    # the conflict is reported before either list is checked
    raw = {} if value is None else value
    both = isinstance(raw, Mapping) and raw.get("delta_hz") is not None
    if both and raw.get("linewidth_mt") is not None:
        _fail(path, "give delta_hz or linewidth_mt, not both")
    return _section(raw, path, _SENSITIVITY, _sensitivity_rule)


def _sensitivity_rule(sens: dict, path: str) -> None:
    lws, per_mt = sens["linewidth_mt"], sens["delta_hz_per_mt"]
    if lws is not None:
        where = f"{path}.linewidth_mt x delta_hz_per_mt"
        sens["delta_hz"] = [_HZ(lw * per_mt, where) for lw in lws]
    elif sens["delta_hz"] is None:
        sens["delta_hz"] = [2.8e6]
    sens["linewidth_mt"] = None


def _root_rule(cfg: dict, path: str) -> None:
    names = [e["name"] for e in cfg["ensembles"]]
    if len(set(names)) != len(names):
        _fail("ensembles", f"names must be unique, got {names}")
    sweep = cfg["sweep"]
    for i, ens in enumerate(cfg["ensembles"]):
        for k, sat in enumerate(ens["satellites"]):
            # build_distribution replicates every line at center + offset
            for ln in ens["lines"]:
                if not math.isfinite(_rad(ln["center_hz"]) + _rad(sat["offset_hz"])):
                    _fail(
                        f"ensembles[{i}].satellites[{k}]",
                        f"line center_hz + offset_hz overflows in rad/s ({ens['name']})",
                    )
        center = _rad(ens["center_hz"] if sweep["center_hz"] is None else sweep["center_hz"])
        lo, hi = _pump_edges(center, sweep["span_hz"])
        if not math.isfinite(hi - lo):
            _fail("sweep", f"pump edges center_hz +/- span_hz/2 overflow in rad/s ({ens['name']})")
        # cavity_for divides omega_c by q
        omega_c = _rad(cfg["cavity"]["omega_c_hz"] or ens["center_hz"])
        q = cfg["cavity"]["q"]
        if q is not None and not math.isfinite(omega_c / q):
            _fail("cavity.q", f"omega_c / q overflows in rad/s ({ens['name']})")


# -- the schema: every key, its default and its check, in message order ------
# (the rules above supply cavity.q, pulse.fwhm_hz and sensitivity.delta_hz,
# which depend on other keys; the choices and defaults shared with the library
# come from `_shared`, where the library takes them too)

_LINE = {
    "center_hz": (_REQUIRED, _HZ),
    "fwhm_hz": (_REQUIRED, _HZ),
    "weight": (1.0, _POSITIVE),
}
_SATELLITE = {
    "offset_hz": (_REQUIRED, _hz(_num())),
    "weight": (_REQUIRED, _num(positive=True, below=1)),
}
_GRID = {
    # every FFT contour grid's kernel lattice spans at least n_nodes points
    "n_nodes": (_N_NODES, _integer(2, _MAX_LATTICE_POINTS)),
    "span_fwhm": (_SPAN_FWHM, _POSITIVE),
    "window_hz": (None, _hz(_window)),
}
_ENSEMBLE = {
    "name": (_REQUIRED, _string()),
    "lines": (_REQUIRED, _list_of(_LINE)),
    "g_collective_hz": (_REQUIRED, _hz(_NONNEGATIVE)),
    "satellites": ([], _list_of(_SATELLITE, empty_ok=True)),
    "shape": ("lorentzian", _string(*LINE_SHAPES)),
    "center_hz": (None, _HZ),
    "grid": ({}, _object(_GRID)),
    "n_spins_physical": (None, _POSITIVE),
}
_CAVITY = {
    "omega_c_hz": (None, _HZ),
    "q": (None, _POSITIVE),
    "kappa_hz": (None, _HZ),
    "gamma0_hz": (0.0, _hz(_NONNEGATIVE)),
}
_PULSE = {
    "shape": ("lorentzian", _string(*PULSE_SHAPES)),
    "fwhm_hz": (None, _HZ),
    "duration_s": (None, _POSITIVE),
}
_QUBIT = {
    "swap_efficiency": (0.7, _num(positive=True, at_most=1)),
    "readout_fidelity": (0.7, _num(positive=True, at_most=1)),
    "baseline": (0.0, _num(nonnegative=True, below=1)),
    "saturation_guard": (1.0, _num(positive=True, at_most=1)),
}
_SWEEP = {
    "span_hz": (1.4e7, _HZ),
    "n_points": (401, _integer(3, _MAX_GRID_POINTS)),  # pumps, capped as grid points are
    "n_pump": (15.0, _NONNEGATIVE),
    "center_hz": (None, _HZ),
    "tau_s_s": (None, _POSITIVE),
}
_NUMERICS = {
    "mode": (MODE_NARROW, _string(*MODES)),
    "window_hz": (None, _hz(_window)),
    "d_omega_hz": (None, _HZ),
    "contour_offset_hz": (None, _HZ),
    "edge_ratio": (_EDGE_RATIO, _POSITIVE),
    "ode_rtol": (ODE_RTOL, _POSITIVE),
    "threads": (1, _integer(1)),
}
_SENSITIVITY = {
    "coupling_hz": ([10.0], _hz(_positive_list)),
    "delta_hz": (None, _hz(_positive_list)),
    "linewidth_mt": (None, _positive_list),
    "delta_hz_per_mt": (2.8e7, _POSITIVE),
    "n_threshold": ([N_THRESHOLD], _positive_list),
    "kappa_hz": (None, _HZ),
    "n_spins": (None, _POSITIVE),
}
_ROOT = {
    "ensembles": ([], _list_of(_ENSEMBLE, _ensemble_rule)),
    "cavity": ({}, _object(_CAVITY, _cavity_rule)),
    "pulse": ({}, _object(_PULSE, _pulse_rule)),
    "qubit": ({}, _object(_QUBIT)),
    "sweep": ({}, _object(_SWEEP)),
    "numerics": ({}, _object(_NUMERICS)),
    "sensitivity": ({}, _sensitivity),
}


def resolve(raw: Any) -> dict:
    """Validate a parsed JSON object and fill every default (strict)."""
    return _section(raw, "", _ROOT, _root_rule)


def canonical_json(effective: Mapping) -> str:
    """Deterministic JSON of an effective config or a run summary (ends with newline)."""
    return json.dumps(effective, indent=2, sort_keys=True) + "\n"


def _rad(hz):
    """Hz to rad/s: None stays None, a [lo, hi] window becomes a tuple."""
    if isinstance(hz, list):
        return tuple(TWO_PI * x for x in hz)
    return None if hz is None else TWO_PI * hz


def _pump_edges(center: float, span_hz: float) -> Tuple[float, float]:
    """First and last pump frequency (rad/s) of a sweep around `center` (rad/s)."""
    half = 0.5 * _rad(span_hz)
    return center - half, center + half


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration plus builders for the domain objects."""

    effective: Mapping

    # -- builders -----------------------------------------------------------

    def catalog(self) -> EnsembleCatalog:
        """The ensembles; a grid that cannot be discretized is a ConfigError."""
        from .spin_model import Ensemble, EnsembleCatalog, GridSpec, SpinLine, build_distribution

        entries = {}
        for i, spec in enumerate(self.effective["ensembles"]):
            lines = [
                SpinLine(_rad(ln["center_hz"]), _rad(ln["fwhm_hz"]), ln["weight"])
                for ln in spec["lines"]
            ]
            sats = [(_rad(s["offset_hz"]), s["weight"]) for s in spec["satellites"]]
            g = spec["grid"]
            grid = GridSpec(g["n_nodes"], window=_rad(g["window_hz"]), span_fwhm=g["span_fwhm"])
            name = spec["name"]
            try:
                dist = build_distribution(
                    lines,
                    g_collective=_rad(spec["g_collective_hz"]),
                    satellites=sats or None,
                    grid=grid,
                    shape=spec["shape"],
                    n_spins_physical=spec["n_spins_physical"],
                )
            except ValueError as exc:  # a window that overflows, collapses or misses the lines
                raise ConfigError(f"ensembles[{i}] ({name}): {exc}") from None
            entries[name] = Ensemble(name=name, center=_rad(spec["center_hz"]), distribution=dist)
        return EnsembleCatalog(entries)

    def cavity_for(self, ensemble: Ensemble) -> CavityModel:
        from .dynamics import CavityModel

        spec = self.effective["cavity"]
        omega_c = _rad(spec["omega_c_hz"])
        if omega_c is None:
            omega_c = ensemble.center
        kappa = _rad(spec["kappa_hz"]) if spec["q"] is None else omega_c / spec["q"]
        return CavityModel(omega_c, kappa, gamma0=_rad(spec["gamma0_hz"]))

    def pulse(self) -> PulseEnvelope:
        from .dynamics import PulseEnvelope

        spec = self.effective["pulse"]
        return PulseEnvelope(spec["shape"], fwhm=_rad(spec["fwhm_hz"]), duration=spec["duration_s"])

    def chain(self) -> QubitChain:
        from .protocol import QubitChain

        return QubitChain(**self.effective["qubit"])

    def inversion_settings(self) -> InversionSettings:
        from .dynamics import InversionSettings

        spec = self.effective["numerics"]
        return InversionSettings(
            window=_rad(spec["window_hz"]),
            d_omega=_rad(spec["d_omega_hz"]),
            contour_offset=_rad(spec["contour_offset_hz"]),
            edge_ratio=spec["edge_ratio"],
        )

    @property
    def mode(self) -> str:
        return self.effective["numerics"]["mode"]

    @property
    def ode_rtol(self) -> float:
        return self.effective["numerics"]["ode_rtol"]

    def sweep_omegas(self, ensemble: Ensemble):
        """Pump angular frequencies for an ensemble's spectrum sweep."""
        from ._blas import np

        spec = self.effective["sweep"]
        center = _rad(spec["center_hz"])
        if center is None:
            center = ensemble.center
        return np.linspace(*_pump_edges(center, spec["span_hz"]), spec["n_points"])

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
            (_rad(g), _rad(d), nth)
            for g in spec["coupling_hz"]
            for d in spec["delta_hz"]
            for nth in spec["n_threshold"]
        ]

    @property
    def sensitivity_kappa(self) -> Optional[float]:
        return _rad(self.effective["sensitivity"]["kappa_hz"])

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
