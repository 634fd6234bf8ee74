"""Command-line interface.

Subcommands: spectrum, swap, transfer, sensitivity, density.  Every
subcommand reads one JSON config (see `qesr.config`), writes CSV data plus a
JSON summary into --out, and prints the summary to stdout.  Outputs are
deterministic: an identical config gives byte-identical files.  --threads
(and numerics.threads) is accepted for compatibility and has no effect.

Exit codes: 0 success; 2 configuration error; 3 numerical-guard violation
(saturation, overdamped swap, window too small, pole collision); 4 I/O
error.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from .config import TWO_PI, RunConfig, parse_config
from .dynamics import MODE_EXACT, MODE_NARROW, invert_to_time, time_domain_propagate
from .errors import ConfigError, NumericalGuardError
from .protocol import esr_spectrum, find_swap_time, simulate_swap, spectrum_peaks
from .sensitivity import (
    PeakPhotons,
    WeakCouplingScenario,
    min_detectable_spins,
    peak_photon_number,
)
from .spin_model import _csv_text

__all__ = ["main", "build_parser"]


def _safe_name(name: str) -> str:
    return re.sub(r"[^\w.-]", "_", name)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
            choices=(MODE_NARROW, MODE_EXACT),
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
    p.add_argument("--n-taus", type=int, default=481, help="storage grid points")

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


def _select_ensembles(cfg: RunConfig, only: Optional[str]):
    catalog = cfg.catalog()
    if only is None:
        return list(catalog)
    if only not in catalog.names:
        raise ConfigError(
            f"unknown ensemble {only!r}; config defines {catalog.names}"
        )
    return [catalog[only]]


def _resolve_tau_s(cfg: RunConfig, dist, cavity) -> float:
    tau = cfg.sweep_tau_s
    if tau is not None:
        return tau
    return find_swap_time(dist, cavity, rtol=cfg.ode_rtol).tau_swap


def _cmd_spectrum(cfg: RunConfig, args, out_dir) -> dict:
    mode = args.mode or cfg.mode
    env = cfg.pulse()
    chain = cfg.chain()
    settings = cfg.inversion_settings()
    summary = {}
    for ens in _select_ensembles(cfg, args.ensemble):
        dist = ens.distribution
        cavity = cfg.cavity_for(ens)
        tau_s = _resolve_tau_s(cfg, dist, cavity)
        omegas = cfg.sweep_omegas(ens)
        result = esr_spectrum(
            dist,
            cavity,
            env,
            chain,
            omegas,
            tau_s,
            n_pump=cfg.sweep_n_pump,
            mode=mode,
            settings=settings,
        )
        result.to_csv(out_dir / f"spectrum_{_safe_name(ens.name)}.csv")
        pos, height = spectrum_peaks(result)
        i_max = int(np.argmax(result.pe)) if result.pe.size else 0
        summary[ens.name] = {
            "tau_s_s": tau_s,
            "n_points": int(result.omega_p.size),
            "n_excitations_peak": result.n_excitations_peak,
            "scale": result.scale,
            "peaks_hz": [p / TWO_PI for p in pos],
            "peak_pe": list(map(float, height)),
            "max_pe": float(result.pe[i_max]) if result.pe.size else None,
            "n_transferred_peak": float(result.n_excitations_peak * result.abs2_beta[i_max])
            if result.abs2_beta.size
            else None,
        }
    return summary


def _cmd_swap(cfg: RunConfig, args, out_dir) -> dict:
    chain = cfg.chain()
    summary = {}
    for ens in _select_ensembles(cfg, args.ensemble):
        dist = ens.distribution
        cavity = cfg.cavity_for(ens)
        if args.tau_max_s is not None:
            tau_max = args.tau_max_s
        elif dist.g_collective > 0:
            tau_max = 1.2 * math.pi / dist.g_collective
        else:
            tau_max = 10.0 / cavity.kappa if cavity.kappa > 0 else 1e-6
        taus = np.linspace(0.0, tau_max, args.n_taus)
        trace = simulate_swap(dist, cavity, chain, taus, rtol=cfg.ode_rtol)
        trace.to_csv(out_dir / f"swap_{_safe_name(ens.name)}.csv")
        cal = trace.calibration
        summary[ens.name] = {
            "tau_swap_s": cal.tau_swap if cal else None,
            "osc_frequency_hz": cal.osc_frequency / TWO_PI if cal else None,
            "pop_min": cal.pop_min if cal else None,
            "return_time_s": cal.return_time if cal else None,
            "return_pe": cal.return_pe if cal else None,
        }
    return summary


def _cmd_transfer(cfg: RunConfig, args, out_dir) -> dict:
    mode = args.mode or cfg.mode
    env = cfg.pulse()
    settings = cfg.inversion_settings()
    summary = {}
    for ens in _select_ensembles(cfg, args.ensemble):
        dist = ens.distribution
        cavity = cfg.cavity_for(ens)
        omega_p = (
            TWO_PI * args.omega_p_hz if args.omega_p_hz is not None else ens.center
        )
        if args.t_max_s is not None:
            t_max = args.t_max_s
        elif dist.g_collective > 0:
            t_max = 1.5 * math.pi / dist.g_collective
        else:
            t_max = 10.0 / cavity.kappa if cavity.kappa > 0 else 1e-6
        times = np.linspace(0.0, t_max, args.n_times)
        if args.method == "contour":
            result = invert_to_time(
                dist, cavity, env, omega_p, times, mode=mode, settings=settings
            )
        else:
            result = time_domain_propagate(
                dist, cavity, "pulse", times, env=env, omega_p=omega_p, rtol=cfg.ode_rtol
            )
        result.to_csv(out_dir / f"transfer_{_safe_name(ens.name)}.csv")
        abs_beta = np.abs(result.beta)
        i = int(np.argmax(abs_beta))
        summary[ens.name] = {
            "omega_p_hz": omega_p / TWO_PI,
            "method": result.method,
            "abs_beta_max": float(abs_beta[i]),
            "t_at_max_s": float(result.times[i]),
            "abs_beta_final": float(abs_beta[-1]),
        }
    return summary


def _cmd_sensitivity(cfg: RunConfig, args, out_dir) -> dict:
    rows = cfg.sensitivity_rows()
    kappa = cfg.sensitivity_kappa
    n_spins = cfg.sensitivity_n_spins
    lines = []
    detail = kappa is not None and n_spins is not None
    header = "g_hz,delta_hz,n_threshold,n_min"
    if detail:
        header += ",nbar_analytic,nbar_exact,t_peak_s"
    for g, delta, nth in rows:
        n_min = min_detectable_spins(g, delta, nth)
        row = [g / TWO_PI, delta / TWO_PI, nth, n_min]
        if detail:
            scenario = WeakCouplingScenario(
                coupling=g,
                dephasing_rate=delta,
                kappa=kappa,
                n_spins=n_spins,
                n_threshold=nth,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                peak: PeakPhotons = peak_photon_number(scenario)
            row += [peak.analytic_estimate, peak.exact_max, peak.t_peak]
        lines.append(row)
    _write_text(out_dir / "sensitivity.csv", _csv_text(header, lines))
    first = lines[0]
    summary = {
        "rows": len(lines),
        "g_hz": first[0],
        "delta_hz": first[1],
        "n_threshold": first[2],
        "n_min": first[3],
    }
    if detail:
        summary.update(
            {
                "n_spins": n_spins,
                "kappa_hz": kappa / TWO_PI,
                "nbar_analytic": first[4],
                "nbar_exact": first[5],
                "t_peak_s": first[6],
            }
        )
    return summary


def _cmd_density(cfg: RunConfig, args, out_dir) -> dict:
    summary = {}
    for ens in _select_ensembles(cfg, args.ensemble):
        dist = ens.distribution
        dist.to_csv(out_dir / f"density_{_safe_name(ens.name)}.csv")
        summary[ens.name] = {
            "center_hz": ens.center / TWO_PI,
            "g_collective_hz": dist.g_collective / TWO_PI,
            "n_nodes": dist.n_nodes,
            "n_lines": len(dist.lines),
            "n_spins_physical": dist.n_spins_physical,
        }
    return summary


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "swap": _cmd_swap,
    "transfer": _cmd_transfer,
    "sensitivity": _cmd_sensitivity,
    "density": _cmd_density,
}


def run(args) -> int:
    cfg = parse_config(args.config)
    if args.print_effective_config:
        sys.stdout.write(cfg.to_json())
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = _COMMANDS[args.command](cfg, args, out_dir)
    text = _dump_json(summary)
    _write_text(out_dir / f"{args.command}_summary.json", text)
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
