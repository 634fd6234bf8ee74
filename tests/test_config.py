"""Strict config parsing: canonical round trips, defaults, unit conversion,
and the error paths that name the offending key."""
from __future__ import annotations

import inspect
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import hypothesis
from hypothesis import given
from hypothesis import strategies as st

from qesr.config import canonical_json, parse_config, resolve
from qesr.errors import ConfigError

from conftest import bundled_config_path

TWO_PI = 2.0 * math.pi


def minimal(**overrides):
    raw = {
        "ensembles": [
            {
                "name": "demo",
                "lines": [{"center_hz": 2.91e9, "fwhm_hz": 1.6e6}],
                "g_collective_hz": 2.9e6,
            }
        ]
    }
    raw.update(overrides)
    return raw


def parse_raw(raw):
    return parse_config(json.dumps(raw))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["paper_plus_I.cfg", "paper_plus_III.cfg"])
def test_bundled_configs_are_canonical(name):
    path = bundled_config_path(name)
    text = Path(path).read_text()
    cfg = parse_config(path)
    assert cfg.to_json() == text
    # parse(serialize(parse(x))) is byte-stable
    assert parse_config(cfg.to_json()).to_json() == text


def test_defaults_filled_and_idempotent():
    cfg = parse_raw(minimal())
    eff = cfg.effective
    assert eff["qubit"]["swap_efficiency"] == 0.7
    assert eff["qubit"]["readout_fidelity"] == 0.7
    assert eff["sweep"]["n_points"] == 401
    assert eff["sweep"]["n_pump"] == 15.0
    assert eff["numerics"]["mode"] == "narrow-pulse"
    assert eff["pulse"]["fwhm_hz"] == 1.5e5
    assert eff["cavity"]["q"] == 1e4 and eff["cavity"]["kappa_hz"] is None
    assert eff["ensembles"][0]["lines"][0]["weight"] == 1.0
    assert eff["ensembles"][0]["grid"]["n_nodes"] == 5001
    assert eff["ensembles"][0]["center_hz"] == 2.91e9
    text = canonical_json(eff)
    assert parse_config(text).to_json() == text
    assert text.endswith("\n")


def test_schema_shares_the_librarys_choices_and_defaults():
    """Every choice list and default that the schema shares with the library
    is the library's own value: a config without them, a library call without
    them and the CLI's --mode agree."""
    from qesr.cli import build_parser
    from qesr.dynamics import MODE_NARROW, MODES, ODE_RTOL, PULSE_SHAPES, InversionSettings
    from qesr.dynamics import time_domain_propagate
    from qesr.protocol import simulate_swap
    from qesr.sensitivity import N_THRESHOLD, WeakCouplingScenario, min_detectable_spins
    from qesr.spin_model import LINE_SHAPES, GridSpec, SpinLine, build_distribution

    eff = resolve(minimal())
    grid = eff["ensembles"][0]["grid"]
    dist = build_distribution([SpinLine(TWO_PI * 2.91e9, TWO_PI * 1.6e6)], TWO_PI * 2.9e6)
    assert grid["n_nodes"] == GridSpec().n_nodes == dist.n_nodes == 5001
    assert grid["span_fwhm"] == GridSpec().span_fwhm
    assert eff["numerics"]["mode"] == MODE_NARROW
    assert eff["numerics"]["edge_ratio"] == InversionSettings().edge_ratio
    assert eff["numerics"]["ode_rtol"] == ODE_RTOL
    for fn in (time_domain_propagate, simulate_swap):
        assert inspect.signature(fn).parameters["rtol"].default == ODE_RTOL
    assert eff["sensitivity"]["n_threshold"] == [N_THRESHOLD]
    assert WeakCouplingScenario(1.0, 1.0, 1.0, 1.0).n_threshold == N_THRESHOLD
    assert inspect.signature(min_detectable_spins).parameters["n_threshold"].default == N_THRESHOLD

    ens = dict(minimal()["ensembles"][0], shape="x")
    for raw, choices in [
        (minimal(ensembles=[ens]), LINE_SHAPES),
        (minimal(pulse={"shape": "x"}), PULSE_SHAPES),
        (minimal(numerics={"mode": "x"}), MODES),
    ]:
        message = f"must be one of {list(choices)}, got 'x'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            resolve(raw)
    commands = build_parser()._subparsers._group_actions[0].choices
    for command in commands.values():
        (mode,) = [a for a in command._actions if a.dest == "mode"]
        assert mode.choices is MODES


def test_weighted_default_center():
    raw = minimal()
    raw["ensembles"][0]["lines"] = [
        {"center_hz": 2.90e9, "fwhm_hz": 1e6, "weight": 3.0},
        {"center_hz": 2.92e9, "fwhm_hz": 1e6, "weight": 1.0},
    ]
    cfg = parse_raw(raw)
    assert cfg.effective["ensembles"][0]["center_hz"] == pytest.approx(
        (3.0 * 2.90e9 + 2.92e9) / 4.0, rel=1e-15
    )


# ---------------------------------------------------------------------------
# unit conversion and builders
# ---------------------------------------------------------------------------


def test_frequencies_converted_to_angular():
    cfg = parse_raw(minimal())
    ens = cfg.catalog()["demo"]
    assert ens.center == pytest.approx(TWO_PI * 2.91e9, rel=1e-15)
    assert ens.distribution.lines[0].fwhm == pytest.approx(TWO_PI * 1.6e6, rel=1e-15)
    assert ens.distribution.g_collective == pytest.approx(TWO_PI * 2.9e6, rel=1e-15)
    cavity = cfg.cavity_for(ens)
    assert cavity.omega_c == pytest.approx(TWO_PI * 2.91e9, rel=1e-15)
    assert cavity.kappa == pytest.approx(TWO_PI * 2.91e9 / 1e4, rel=1e-12)
    env = cfg.pulse()
    assert env.fwhm == pytest.approx(TWO_PI * 1.5e5, rel=1e-15)
    omegas = cfg.sweep_omegas(ens)
    assert omegas.size == 401
    assert omegas[-1] - omegas[0] == pytest.approx(TWO_PI * 1.4e7, rel=1e-12)
    assert 0.5 * (omegas[0] + omegas[-1]) == pytest.approx(ens.center, rel=1e-12)
    rows = cfg.sensitivity_rows()
    assert rows == [
        (pytest.approx(TWO_PI * 10.0), pytest.approx(TWO_PI * 2.8e6), 0.05)
    ]


def test_explicit_cavity_parameters():
    cfg = parse_raw(
        minimal(cavity={"kappa_hz": 5.0e5, "omega_c_hz": 2.95e9})
    )
    cavity = cfg.cavity_for(cfg.catalog()["demo"])
    assert cavity.omega_c == pytest.approx(TWO_PI * 2.95e9, rel=1e-15)
    assert cavity.kappa == pytest.approx(TWO_PI * 5.0e5, rel=1e-15)
    cfg2 = parse_raw(minimal(cavity={"q": 2.0e4}))
    cavity2 = cfg2.cavity_for(cfg2.catalog()["demo"])
    assert cavity2.omega_c == pytest.approx(TWO_PI * 2.91e9, rel=1e-15)
    assert cavity2.kappa == pytest.approx(TWO_PI * 2.91e9 / 2.0e4, rel=1e-12)


def test_sweep_overrides():
    cfg = parse_raw(
        minimal(
            sweep={
                "tau_s_s": 9e-8,
                "center_hz": 2.92e9,
                "n_points": 5,
                "span_hz": 2e6,
            }
        )
    )
    assert cfg.sweep_tau_s == 9e-8
    omegas = cfg.sweep_omegas(cfg.catalog()["demo"])
    assert omegas.size == 5
    assert 0.5 * (omegas[0] + omegas[-1]) == pytest.approx(TWO_PI * 2.92e9, rel=1e-12)
    assert omegas[-1] - omegas[0] == pytest.approx(TWO_PI * 2e6, rel=1e-12)


def test_numerics_to_inversion_settings():
    cfg = parse_raw(
        minimal(
            numerics={
                "window_hz": [2.90e9, 2.92e9],
                "d_omega_hz": 1000.0,
                "contour_offset_hz": 5e4,
                "edge_ratio": 1e-3,
                "threads": 3,
            }
        )
    )
    settings = cfg.inversion_settings()
    assert settings.window == (
        pytest.approx(TWO_PI * 2.90e9),
        pytest.approx(TWO_PI * 2.92e9),
    )
    assert settings.d_omega == pytest.approx(TWO_PI * 1000.0, rel=1e-15)
    assert settings.contour_offset == pytest.approx(TWO_PI * 5e4, rel=1e-15)
    assert settings.edge_ratio == 1e-3
    assert cfg.effective["numerics"]["threads"] == 3


def test_rectangular_pulse_built():
    cfg = parse_raw(minimal(pulse={"shape": "rectangular", "duration_s": 1e-5}))
    env = cfg.pulse()
    assert env.shape == "rectangular"
    assert env.duration == 1e-5
    assert env.fwhm == pytest.approx(4.0 * 1.8954942670339809 / 1e-5, rel=1e-12)


def test_zero_collective_coupling_accepted():
    raw = minimal()
    raw["ensembles"][0]["g_collective_hz"] = 0.0
    cfg = parse_raw(raw)
    assert cfg.catalog()["demo"].distribution.g_collective == 0.0


def test_satellites_replicate_lines():
    raw = minimal()
    raw["ensembles"][0]["satellites"] = [{"offset_hz": 6.7e4, "weight": 0.011}]
    dist = parse_raw(raw).catalog()["demo"].distribution
    assert len(dist.lines) == 2
    assert sum(ln.weight for ln in dist.lines) == pytest.approx(1.0, abs=1e-12)


def test_sensitivity_linewidth_conversion():
    cfg = parse_raw(minimal(sensitivity={"linewidth_mt": 0.1}))
    rows = cfg.sensitivity_rows()
    assert rows[0][1] == pytest.approx(TWO_PI * 0.1 * 2.8e7, rel=1e-12)
    assert cfg.sensitivity_kappa is None
    assert cfg.sensitivity_n_spins is None
    cfg2 = parse_raw(
        minimal(sensitivity={"kappa_hz": 2.8e4, "n_spins": 1.2e5, "coupling_hz": 5.0})
    )
    assert cfg2.sensitivity_kappa == pytest.approx(TWO_PI * 2.8e4, rel=1e-15)
    assert cfg2.sensitivity_n_spins == 1.2e5
    assert cfg2.sensitivity_rows()[0][0] == pytest.approx(TWO_PI * 5.0, rel=1e-15)


def test_ensemble_grid_window_override():
    raw = minimal()
    raw["ensembles"][0]["grid"] = {"window_hz": [2.90e9, 2.92e9], "n_nodes": 101}
    dist = parse_raw(raw).catalog()["demo"].distribution
    assert dist.omega_nodes.size == 101
    assert dist.omega_nodes[0] == pytest.approx(TWO_PI * 2.90e9, rel=1e-15)
    assert dist.omega_nodes[-1] == pytest.approx(TWO_PI * 2.92e9, rel=1e-15)


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_missing_and_empty_sources(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "missing.cfg"))
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        parse_config(str(empty))
    with pytest.raises(ConfigError, match="empty"):
        parse_config(io.StringIO("   "))


def test_parse_error_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line 2, column 17"):
        parse_config('{\n  "ensembles": [,]\n}')


def test_ensembles_required_and_nonempty():
    with pytest.raises(ConfigError, match="ensembles"):
        parse_config("{}")
    with pytest.raises(ConfigError, match="ensembles.*non-empty"):
        parse_raw({"ensembles": []})


def test_errors_name_the_offending_key():
    raw = minimal()
    raw["ensembles"][0]["lines"] = [
        {"center_hz": 2.91e9, "fwhm_hz": 1.6e6},
        {"center_hz": 2.91e9, "fwhm_hz": -1.0},
    ]
    with pytest.raises(ConfigError, match=r"ensembles\[0\]\.lines\[1\]\.fwhm_hz"):
        parse_raw(raw)
    with pytest.raises(ConfigError, match=r"unknown key 'fhwm_hz'"):
        parse_raw(
            minimal(pulse={"shape": "lorentzian", "fhwm_hz": 1e5})
        )
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        parse_raw(minimal(extra=1))
    raw2 = minimal()
    raw2["ensembles"][0]["lines"][0]["weight"] = True
    with pytest.raises(ConfigError, match="must be a number, got bool"):
        parse_raw(raw2)
    # a null list item, and a missing required key, are named by the object's path
    ensemble, line = ("ensembles", 0), ("ensembles", 0, "lines", 0)
    satellites = ("ensembles", 0, "satellites")
    nameless = {"lines": [{"center_hz": 2.9e9, "fwhm_hz": 1e6}], "g_collective_hz": 1e6}
    named = {
        "ensembles[0]: expected an object, got NoneType": (ensemble, None),
        "ensembles[0].lines[0]: expected an object, got NoneType": (line, None),
        "ensembles[0].satellites[0]: expected an object, got NoneType": (satellites, [None]),
        "ensembles[0]: requires name": (ensemble, nameless),
        "ensembles[0].lines[0]: requires fwhm_hz": (line, {"center_hz": 2.9e9}),
        "ensembles[0].satellites[0]: requires weight": (satellites, [{"offset_hz": 1e5}]),
    }
    for message, (path, value) in named.items():
        with pytest.raises(ConfigError, match=re.escape(message)):
            resolve(_replaced(minimal(), path, value))


def test_cavity_q_kappa_conflict():
    with pytest.raises(ConfigError, match="not both"):
        parse_raw(minimal(cavity={"q": 1e4, "kappa_hz": 3e5}))


def test_pulse_validation():
    with pytest.raises(ConfigError, match="pulse.duration_s.*required"):
        parse_raw(minimal(pulse={"shape": "rectangular"}))
    with pytest.raises(ConfigError, match="pulse.fwhm_hz.*not allowed"):
        parse_raw(
            minimal(pulse={"shape": "rectangular", "duration_s": 1e-5, "fwhm_hz": 1e5})
        )
    with pytest.raises(ConfigError, match="only allowed for the rectangular"):
        parse_raw(minimal(pulse={"shape": "gaussian", "duration_s": 1e-5}))
    with pytest.raises(ConfigError, match="must be one of"):
        parse_raw(minimal(pulse={"shape": "triangular", "fwhm_hz": 1e5}))


def test_duplicate_names_rejected():
    raw = minimal()
    raw["ensembles"] = [raw["ensembles"][0], dict(raw["ensembles"][0])]
    with pytest.raises(ConfigError, match="unique"):
        parse_raw(raw)


def test_satellite_weight_bounds():
    raw = minimal()
    raw["ensembles"][0]["satellites"] = [{"offset_hz": 1e5, "weight": 1.0}]
    with pytest.raises(ConfigError, match="must be < 1"):
        parse_raw(raw)
    raw["ensembles"][0]["satellites"] = [
        {"offset_hz": 1e5, "weight": 0.6},
        {"offset_hz": -1e5, "weight": 0.5},
    ]
    with pytest.raises(ConfigError, match="total satellite weight"):
        parse_raw(raw)


def test_window_ordering_enforced():
    with pytest.raises(ConfigError, match="hi > lo"):
        parse_raw(minimal(numerics={"window_hz": [2.92e9, 2.90e9]}))
    with pytest.raises(ConfigError, match=">= 1"):
        parse_raw(minimal(numerics={"threads": 0}))


def test_resolve_rejects_non_object_root():
    with pytest.raises(ConfigError, match="expected an object"):
        resolve([1, 2, 3])


# ---------------------------------------------------------------------------
# properties over generated configs
# ---------------------------------------------------------------------------

PROPERTY = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)


def _num(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _some(strategy, max_size=2):
    return st.lists(strategy, min_size=1, max_size=max_size)


def _ensemble(name):
    grid = st.fixed_dictionaries({}, optional={
        "n_nodes": st.integers(2, 10_000),
        "span_fwhm": _num(0.5, 20.0),
        "window_hz": st.none() | _num(1e9, 2e9).map(lambda lo: [lo, lo + 1e8]),
    })
    line = st.fixed_dictionaries(
        {"center_hz": _num(1e9, 1e10), "fwhm_hz": _num(1e4, 1e7)},
        optional={"weight": _num(0.1, 10.0)},
    )
    satellite = st.fixed_dictionaries({"offset_hz": _num(-1e7, 1e7), "weight": _num(0.01, 0.3)})
    return st.fixed_dictionaries(
        {
            "name": st.just(name),
            "lines": _some(line, 3),
            "g_collective_hz": _num(0.0, 1e7) | st.integers(0, 10**7),
        },
        optional={
            "satellites": st.lists(satellite, max_size=2),
            "shape": st.sampled_from(["lorentzian", "gaussian"]),
            "center_hz": _num(1e9, 1e10) | st.none(),
            "n_spins_physical": _num(1.0, 1e18) | st.none(),
            "grid": grid,
        },
    )


_CAVITY = {"omega_c_hz": _num(1e9, 1e10) | st.none(), "gamma0_hz": _num(0.0, 1e6)}
_SENSITIVITY = {
    "coupling_hz": _num(1e-3, 1e6) | _some(_num(1e-3, 1e6), 3),
    "delta_hz_per_mt": _num(1.0, 1e9),
    "n_threshold": _some(_num(1e-3, 1.0)),
    "kappa_hz": _num(1.0, 1e7) | st.none(),
    "n_spins": _num(1.0, 1e18) | st.none(),
}
SECTIONS = {
    "cavity": st.one_of(  # q or kappa_hz, never both
        st.fixed_dictionaries({}, optional={"q": _num(1e-3, 1e9), **_CAVITY}),
        st.fixed_dictionaries({"kappa_hz": _num(1e-3, 1e9)}, optional=_CAVITY),
    ),
    "pulse": st.one_of(
        st.fixed_dictionaries({"shape": st.just("rectangular"), "duration_s": _num(1e-9, 1e-3)}),
        st.fixed_dictionaries(
            {"shape": st.sampled_from(["lorentzian", "gaussian"])},
            optional={"fwhm_hz": _num(1e3, 1e7)},
        ),
    ),
    "qubit": st.fixed_dictionaries({}, optional={
        "swap_efficiency": _num(1e-3, 1.0),
        "readout_fidelity": _num(1e-3, 1.0),
        "baseline": _num(0.0, 0.99),
        "saturation_guard": _num(1e-3, 1.0),
    }),
    "sweep": st.fixed_dictionaries({}, optional={
        "span_hz": _num(1.0, 1e9),
        "n_points": st.integers(3, 10_000),
        "n_pump": _num(0.0, 1e3),
        "center_hz": _num(1e9, 1e10) | st.none(),
        "tau_s_s": _num(1e-9, 1e-5) | st.none(),
    }),
    "numerics": st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["narrow-pulse", "exact-convolution"]),
        "window_hz": st.none() | st.just([2.8e9, 3.0e9]),
        "d_omega_hz": _num(1.0, 1e5) | st.none(),
        "contour_offset_hz": _num(1.0, 1e6) | st.none(),
        "edge_ratio": _num(1e-8, 1e-1),
        "ode_rtol": _num(1e-12, 1e-3),
        "threads": st.integers(1, 8),
    }),
    "sensitivity": st.one_of(  # delta_hz or linewidth_mt, never both
        st.fixed_dictionaries({}, optional={"delta_hz": _some(_num(1e-3, 1e9)), **_SENSITIVITY}),
        st.fixed_dictionaries({"linewidth_mt": _some(_num(1e-3, 1e3))}, optional=_SENSITIVITY),
    ),
}


@st.composite
def valid_configs(draw):
    names = draw(
        st.lists(st.text("abcXYZ_-.", min_size=1, max_size=6), min_size=1, max_size=3, unique=True)
    )
    ensembles = st.tuples(*map(_ensemble, names)).map(list)
    return draw(st.fixed_dictionaries({"ensembles": ensembles}, optional=SECTIONS))


@PROPERTY
@given(valid_configs())
def test_resolve_idempotent_and_canonical_round_trip(raw):
    effective = resolve(raw)
    assert resolve(effective) == effective
    text = canonical_json(effective)
    assert canonical_json(resolve(json.loads(text))) == text
    assert parse_config(text).to_json() == text


def _paths(node, prefix=()):
    """Every key/index path into a parsed JSON tree (objects and lists too)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _replaced(raw, path, value):
    out = json.loads(json.dumps(raw))
    _at(out, path[:-1])[path[-1]] = value
    return out


# Never valid anywhere in the schema: every leaf is a number, string, list or
# object, and no number may be non-finite.
NEVER_VALID = [True, False, math.nan, math.inf, -math.inf]
# Valid in some places, invalid in others.
SOMETIMES_VALID = [None, "x", -1.0, 0, 0.5, 1e308, 5e-324, [], [1.0], {}, {"x": 1}]
SWEEP = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=25)


@SWEEP
@given(valid_configs())
def test_invalid_values_raise_config_error(raw):
    for path in _paths(raw):
        for bad in NEVER_VALID:
            # NaN/Infinity arrive through json.loads, which accepts them
            mutated = json.loads(json.dumps(_replaced(raw, path, bad)))
            with pytest.raises(ConfigError):
                resolve(mutated)


@SWEEP
@given(valid_configs())
def test_unknown_keys_raise_config_error(raw):
    for path in [()] + list(_paths(raw)):
        mutated = json.loads(json.dumps(raw))
        target = _at(mutated, path)
        if isinstance(target, dict):
            target["no_such_key"] = 1.0
            with pytest.raises(ConfigError, match="unknown key 'no_such_key'"):
                resolve(mutated)


@SWEEP
@given(valid_configs())
def test_any_value_resolves_or_raises_config_error(raw):
    """Whatever value lands wherever, resolve either accepts it (and the result
    resolves to itself) or raises ConfigError, never another exception."""
    for path in _paths(raw):
        for value in SOMETIMES_VALID:
            try:
                effective = resolve(_replaced(raw, path, value))
            except ConfigError:
                continue
            assert resolve(effective) == effective, (path, value)
