"""Command-line interface.

Subcommands: spectrum, swap, transfer, sensitivity, density.  Every
subcommand reads one JSON config (see `qesr.config`), writes CSV data plus a
JSON summary into --out, and prints the summary to stdout.  spectrum, swap,
transfer and density run once per ensemble (or for --ensemble only) and write
`<command>_<name>.csv` each; sensitivity writes one `sensitivity.csv`.
Outputs are deterministic: an identical config gives byte-identical files.
--threads (and numerics.threads) is accepted for compatibility and has no
effect.

Exit codes: 0 success; 2 configuration error; 3 numerical-guard violation
(saturation, overdamped swap, window too small, pole collision, a grid or
ODE node cap, a non-finite contour step, a pulse with no overlap with the
spectral grid, an ODE step-size underflow); 4 I/O error.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from .config import _POSITIVE, TWO_PI, RunConfig, _integer, canonical_json, parse_config
from .dynamics import MODES, invert_to_time, time_domain_propagate
from .errors import ConfigError, NumericalGuardError
from .protocol import _SWAP_PERIODS, _SWAP_POINTS, esr_spectrum, find_swap_time
from .protocol import simulate_swap, spectrum_peaks
from .sensitivity import WeakCouplingScenario, min_detectable_spins, peak_photon_number
from .spin_model import _csv_text

__all__ = ["main", "build_parser"]


def _safe_name(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name)


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qesr",
        description="Qubit-detected ESR simulator: spin-ensemble/cavity transfer "
        "dynamics, spectroscopy protocol, and sensitivity estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument(
            "--threads", type=int, default=None, help="accepted; has no effect"
        )
        p.add_argument(
            "--mode",
            choices=MODES,
            default=None,
            help="transfer evaluation mode (overrides config)",
        )
        p.add_argument(
            "--print-effective-config",
            action="store_true",
            help="print the resolved config (all defaults filled) and exit",
        )

    p = sub.add_parser("spectrum", help="qubit-detected ESR spectrum per ensemble")
    common(p)
    p.add_argument("--ensemble", default=None, help="restrict to one ensemble name")

    p = sub.add_parser("swap", help="single-photon storage/retrieval trace per ensemble")
    common(p)
    p.add_argument("--ensemble", default=None)
    p.add_argument("--tau-max-s", type=float, default=None, help="storage span (s)")
    p.add_argument("--n-taus", type=int, default=_SWAP_POINTS, help="storage grid points")

    p = sub.add_parser("transfer", help="transfer amplitude beta(t) at one pump frequency")
    common(p)
    p.add_argument("--ensemble", default=None)
    p.add_argument(
        "--omega-p-hz", type=float, default=None, help="pump frequency (Hz; default: center)"
    )
    p.add_argument("--t-max-s", type=float, default=None, help="time span (s)")
    p.add_argument("--n-times", type=int, default=601, help="time grid points")
    p.add_argument(
        "--method",
        choices=("contour", "time-domain"),
        default="contour",
        help="evaluation route (default: contour)",
    )

    p = sub.add_parser("sensitivity", help="weak-coupling detection-floor sweep table")
    common(p)

    p = sub.add_parser("density", help="export discretized spectral densities")
    common(p)
    p.add_argument("--ensemble", default=None)

    return parser


# Numeric options, checked by the config schema's own field checks.
_OPTIONS = {
    "tau_max_s": _POSITIVE,
    "n_taus": _integer(3),
    "omega_p_hz": _POSITIVE,
    "t_max_s": _POSITIVE,
    "n_times": _integer(2),
}


def _select_ensembles(cfg: RunConfig, only: Optional[str]):
    catalog = cfg.catalog()
    if only is None:
        return list(catalog)
    if only not in catalog.names:
        raise ConfigError(
            f"unknown ensemble {only!r}; config defines {catalog.names}"
        )
    return [catalog[only]]


def _time_span(given: Optional[float], periods: float, dist, cavity) -> float:
    """given, else periods * pi / g_K, else 10 / kappa, else 1 us (lossless)."""
    if given is not None:
        return given
    if dist.g_collective > 0:
        return periods * math.pi / dist.g_collective
    return 10.0 / cavity.kappa if cavity.kappa > 0 else 1e-6


# Per-ensemble commands: (cfg, args, ensemble, dist, cavity) -> (result, summary
# entry); `run` writes result.to_csv(<command>_<name>.csv).


def _spectrum(cfg: RunConfig, args, ens, dist, cavity):
    tau_s = cfg.sweep_tau_s
    if tau_s is None:
        tau_s = find_swap_time(dist, cavity).tau_swap
    result = esr_spectrum(
        dist,
        cavity,
        cfg.pulse(),
        cfg.chain(),
        cfg.sweep_omegas(ens),
        tau_s,
        n_pump=cfg.sweep_n_pump,
        mode=args.mode or cfg.mode,
        settings=cfg.inversion_settings(),
    )
    pos, height = spectrum_peaks(result)
    i_max = int(np.argmax(result.pe))
    return result, {
        "tau_s_s": tau_s,
        "n_points": int(result.omega_p.size),
        "n_excitations_peak": result.n_excitations_peak,
        "scale": result.scale,
        "peaks_hz": [p / TWO_PI for p in pos],
        "peak_pe": list(map(float, height)),
        "max_pe": float(result.pe[i_max]),
        "n_transferred_peak": float(result.n_excitations_peak * result.abs2_beta[i_max]),
    }


def _swap(cfg: RunConfig, args, ens, dist, cavity):
    taus = np.linspace(0.0, _time_span(args.tau_max_s, _SWAP_PERIODS, dist, cavity), args.n_taus)
    trace = simulate_swap(dist, cavity, cfg.chain(), taus, rtol=cfg.ode_rtol)
    cal = trace.calibration
    return trace, {
        "tau_swap_s": cal.tau_swap if cal else None,
        "osc_frequency_hz": cal.osc_frequency / TWO_PI if cal else None,
        "pop_min": cal.pop_min if cal else None,
        "return_time_s": cal.return_time if cal else None,
        "return_pe": cal.return_pe if cal else None,
    }


def _transfer(cfg: RunConfig, args, ens, dist, cavity):
    omega_p = TWO_PI * args.omega_p_hz if args.omega_p_hz is not None else ens.center
    times = np.linspace(0.0, _time_span(args.t_max_s, 1.5, dist, cavity), args.n_times)
    if args.method == "contour":
        result = invert_to_time(
            dist,
            cavity,
            cfg.pulse(),
            omega_p,
            times,
            mode=args.mode or cfg.mode,
            settings=cfg.inversion_settings(),
        )
    else:
        result = time_domain_propagate(
            dist, cavity, "pulse", times, env=cfg.pulse(), omega_p=omega_p, rtol=cfg.ode_rtol
        )
    abs_beta = np.abs(result.beta)
    i = int(np.argmax(abs_beta))
    return result, {
        "omega_p_hz": omega_p / TWO_PI,
        "method": result.method,
        "abs_beta_max": float(abs_beta[i]),
        "t_at_max_s": float(result.times[i]),
        "abs_beta_final": float(abs_beta[-1]),
    }


def _density(cfg: RunConfig, args, ens, dist, cavity):
    return dist, {
        "center_hz": ens.center / TWO_PI,
        "g_collective_hz": dist.g_collective / TWO_PI,
        "n_nodes": dist.n_nodes,
        "n_lines": len(dist.lines),
        "n_spins_physical": dist.n_spins_physical,
    }


_PER_ENSEMBLE = {
    "spectrum": _spectrum,
    "swap": _swap,
    "transfer": _transfer,
    "density": _density,
}


def _sensitivity(cfg: RunConfig, out_dir: Path) -> dict:
    """One table over all (g, Delta, n_threshold) rows; the summary is row 0."""
    kappa = cfg.sensitivity_kappa
    n_spins = cfg.sensitivity_n_spins
    detail = kappa is not None and n_spins is not None
    columns = ["g_hz", "delta_hz", "n_threshold", "n_min"]
    if detail:
        columns += ["nbar_analytic", "nbar_exact", "t_peak_s"]
    rows = []
    for g, delta, nth in cfg.sensitivity_rows():
        row = [g / TWO_PI, delta / TWO_PI, nth, min_detectable_spins(g, delta, nth)]
        if detail:
            scenario = WeakCouplingScenario(
                coupling=g,
                dephasing_rate=delta,
                kappa=kappa,
                n_spins=n_spins,
                n_threshold=nth,
            )
            peak = peak_photon_number(scenario)
            row += [peak.analytic_estimate, peak.exact_max, peak.t_peak]
        rows.append(row)
    _write_text(out_dir / "sensitivity.csv", _csv_text(",".join(columns), *zip(*rows)))
    summary = {"rows": len(rows), **dict(zip(columns, rows[0]))}
    if detail:
        summary.update({"n_spins": n_spins, "kappa_hz": kappa / TWO_PI})
    return summary


def run(args) -> int:
    for dest, check in _OPTIONS.items():
        value = getattr(args, dest, None)
        if value is not None:
            check(value, "--" + dest.replace("_", "-"))
    cfg = parse_config(args.config)
    if args.print_effective_config:
        sys.stdout.write(cfg.to_json())
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "sensitivity":
        summary = _sensitivity(cfg, out_dir)
    else:
        command = _PER_ENSEMBLE[args.command]
        summary = {}
        for ens in _select_ensembles(cfg, args.ensemble):
            result, summary[ens.name] = command(
                cfg, args, ens, ens.distribution, cfg.cavity_for(ens)
            )
            result.to_csv(out_dir / f"{args.command}_{_safe_name(ens.name)}.csv")
    text = canonical_json(summary)
    _write_text(out_dir / f"{args.command}_summary.json", text)
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = warnings.formatwarning  # one stderr line per warning, like the errors below
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
