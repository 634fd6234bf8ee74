"""Benchmark runner for qesr.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is driven the way a user drives
it: each command is one cold `python -m qesr.cli` process with
PYTHONPATH=src.  Load is a closed loop of one client, one command at a time.

--trace 0 reports the end-to-end metrics.  After set-up (`setup_s`: cold
processes that only resolve the config) and one untimed in-process warm-up
pass, the runner repeats rounds until the next round would end after S
seconds (at least one round).  A round runs the workload's command list
once as cold processes (`wall_s`, `cpu_s`, `peak_rss_mib`) and a fixed
number of times (Workload.warm_passes) through `qesr.cli.main(argv)` in this
process (`compute_s`).  Each metric is the median over its samples.

--trace 1 reports the per-layer metrics from a separate in-process run with
spans around the calls into each layer (see tracing.py), and writes the
spans to .perfbench_work/<workload>/spans.json.

Every output is checked: the first pass against the matrix-exponential
reference and closed forms (workloads.py), every later pass for identical
bytes.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

SETUP_REPS = 3  # cold set-up processes per run; setup_s is their median
PROBE_REPS = 3  # repetitions of each layer probe in the traced run
CHILD_TIMEOUT_S = 120.0
KERNEL_GRID = 6000  # points of the memory-kernel probe grid
TRANSFER_TIMES = 601  # times of the invert_to_time probe (the CLI default)


class Run:
    """One benchmark run: work directory, operation counts and output checks."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / ".perfbench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.wl = workloads.build(workload, seed, root, self.work)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] | None = None  # of the first checked pass
        self._passes = 0

    # -- operations ----------------------------------------------------------

    def cold(self, args, out: Path | None, stdout=subprocess.DEVNULL):
        """One cold CLI process: (wall s, cpu s, max RSS KiB), None on failure."""
        argv = [sys.executable, "-m", "qesr.cli", *args]
        if out is not None:
            argv += ["--out", str(out)]
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=stdout, stderr=subprocess.PIPE
        )
        # stderr is read only after exit; the CLI writes at most one line there
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err = proc.stderr.read().decode(errors="replace").strip()
        proc.stderr.close()
        if proc.returncode != 0:
            self.failed += 1
            print(f"failed ({proc.returncode}): {' '.join(args)}: {err}", file=sys.stderr)
            return None
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def warm(self, cli, args, out: Path):
        """One in-process CLI call: wall seconds, None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([*args, "--out", str(out)])
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if rc != 0:
            self.failed += 1
            print(f"failed ({rc}): {' '.join(args)}", file=sys.stderr)
            return None
        return wall

    def pass_dirs(self):
        self._passes += 1
        base = self.work / f"pass{self._passes}"
        return [base / str(i) for i in range(len(self.wl.commands))]

    def verify(self, outs, ok) -> None:
        """Check one pass's outputs; commands that failed are skipped."""
        if self.digests is None and all(ok):
            self.errors += self.wl.check(outs)
            self.digests = [workloads.digest(o) for o in outs]
        elif self.digests is not None:
            for i, (o, good) in enumerate(zip(outs, ok)):
                if good and workloads.digest(o) != self.digests[i]:
                    self.errors.append(f"output bytes of command {i} changed between runs")
            shutil.rmtree(outs[0].parent)

    def setup_s(self) -> float:
        """Median wall time of cold processes that resolve the config and exit."""
        times = []
        for k in range(SETUP_REPS):
            cfg = self.wl.configs[k % len(self.wl.configs)]
            printed = self.work / "effective.cfg"
            with open(printed, "wb") as fh:
                res = self.cold(
                    [self.wl.commands[0][0], "--config", str(cfg), "--print-effective-config"],
                    None,
                    stdout=fh,
                )
            if res is not None:
                times.append(res[0])
                # the generated configs are canonical, so they print back unchanged
                if printed.read_bytes() != cfg.read_bytes():
                    self.errors.append(f"--print-effective-config changed {cfg.name}")
        return statistics.median(times) if times else math.nan

    def warm_pass(self, cli) -> float:
        outs = self.pass_dirs()
        times = [self.warm(cli, args, o) for args, o in zip(self.wl.commands, outs)]
        self.verify(outs, [t is not None for t in times])
        return sum(t for t in times if t is not None)

    def cold_pass(self):
        outs = self.pass_dirs()
        res = [self.cold(args, o) for args, o in zip(self.wl.commands, outs)]
        self.verify(outs, [r is not None for r in res])
        good = [r for r in res if r is not None]
        return (
            sum(r[0] for r in good),
            sum(r[1] for r in good),
            max((r[2] for r in good), default=0) / 1024.0,
        )


def import_qesr(root: Path):
    sys.path.insert(0, str(root / "src"))
    import qesr
    from qesr import cli

    return qesr, cli


def end_to_end(run: Run, seconds: float) -> dict:
    setup = run.setup_s()
    _, cli = import_qesr(run.root)
    run.warm_pass(cli)  # untimed warm-up; its outputs get the full check
    walls, cpus, rss, computes = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, cpu, peak = run.cold_pass()
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        computes += [run.warm_pass(cli) for _ in range(run.wl.warm_passes)]
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    med = statistics.median
    return {
        "setup_s": (setup, "s"),
        "wall_s": (med(walls), "s"),
        "compute_s": (med(computes), "s"),
        "cpu_s": (med(cpus), "s"),
        "peak_rss_mib": (med(rss), "MiB"),
    }


# -- traced run ---------------------------------------------------------------


def _probe_inputs(qesr, wl: workloads.Workload):
    """Domain objects of the workload's first config, built untraced."""
    cfg = qesr.parse_config(str(wl.configs[0]))
    ens = next(iter(cfg.catalog()))
    dist, cavity = ens.distribution, cfg.cavity_for(ens)
    tau = qesr.find_swap_time(dist, cavity, rtol=cfg.ode_rtol).tau_swap
    return cfg, ens, dist, cavity, tau


def _probe_unreached(qesr, inputs, reached) -> None:
    """Call each traced layer the workload's commands did not reach, once."""
    cfg, ens, dist, cavity, _ = inputs
    env = cfg.pulse()
    if "dynamics.invert_to_time" not in reached:
        times = np.linspace(0.0, 1.5 * math.pi / dist.g_collective, TRANSFER_TIMES)
        qesr.dynamics.invert_to_time(
            dist, cavity, env, ens.center, times, mode="exact-convolution",
            settings=cfg.inversion_settings(),
        )
    needed = {"protocol.find_swap_time", "protocol.esr_spectrum", "protocol.spectrum_peaks"}
    if not needed <= reached:
        tau = qesr.protocol.find_swap_time(dist, cavity, rtol=cfg.ode_rtol).tau_swap
        result = qesr.protocol.esr_spectrum(
            dist, cavity, env, cfg.chain(), cfg.sweep_omegas(ens), tau,
            n_pump=cfg.sweep_n_pump, mode=cfg.mode, settings=cfg.inversion_settings(),
        )
        qesr.protocol.spectrum_peaks(result)


def _layer_probes(qesr, tracer, inputs, mode: str) -> dict:
    """Fixed-size probes of the memory kernel and of the sweep's cost split."""
    cfg, ens, dist, cavity, tau = inputs
    env, settings = cfg.pulse(), cfg.inversion_settings()
    nodes = dist.omega_nodes
    half = nodes[-1] - nodes[0]
    eta = 0.25 / tau  # the contour offset the inversion picks for t_max = tau
    grid = np.linspace(nodes[0] - 0.5 * half, nodes[-1] + 0.5 * half, KERNEL_GRID) + 1j * eta
    omegas = cfg.sweep_omegas(ens)
    kernel, one, many = [], [], []
    for _ in range(PROBE_REPS):
        qesr.dynamics.memory_kernel_W(dist, cavity, grid)
        kernel.append(tracer.last("dynamics.memory_kernel_W"))
        qesr.dynamics.transfer_sweep(dist, cavity, env, [ens.center], tau, mode, settings)
        one.append(tracer.last("dynamics.transfer_sweep"))
        qesr.dynamics.transfer_sweep(dist, cavity, env, omegas, tau, mode, settings)
        many.append(tracer.last("dynamics.transfer_sweep"))
    med = statistics.median
    k_s = med(s.end - s.start for s in kernel)
    one_s = med(s.end - s.start for s in one)
    many_s = med(s.end - s.start for s in many)
    pairs = grid.size * dist.n_nodes
    return {
        "spin_model.n_nodes": (dist.n_nodes, "count"),
        "dynamics.memory_kernel_W_s": (k_s, "s"),
        "dynamics.kernel_pairs": (pairs, "count"),
        "dynamics.kernel_pairs_per_s": (pairs / k_s, "1/s"),
        "dynamics.transfer_sweep_shared_s": (one_s, "s"),
        "dynamics.transfer_sweep_per_point_ms": (
            1e3 * (many_s - one_s) / (omegas.size - 1), "ms"),
    }


def _import_s(run: Run, tracer) -> float:
    """Median wall time of a fresh interpreter that imports qesr and exits."""
    times = []
    for _ in range(PROBE_REPS):
        run.attempted += 1
        with tracer.span("import.qesr") as span:
            proc = subprocess.run(
                [sys.executable, "-c", "import qesr"], cwd=run.root, env=run.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0:
            run.failed += 1
        else:
            times.append(span.end - span.start)
    return statistics.median(times) if times else math.nan


# per-layer metric -> span name whose self time per traced pass it reports
PASS_METRICS = {
    "config.parse_config_s": "config.parse_config",
    "spin_model.build_distribution_s": "spin_model.build_distribution",
    "dynamics.transfer_sweep_s": "dynamics.transfer_sweep",
    "dynamics.invert_to_time_s": "dynamics.invert_to_time",
    "dynamics.time_domain_propagate_s": "dynamics.time_domain_propagate",
    "protocol.find_swap_time_s": "protocol.find_swap_time",
    "protocol.simulate_swap_s": "protocol.simulate_swap",
    "protocol.esr_spectrum_s": "protocol.esr_spectrum",
    "protocol.spectrum_peaks_s": "protocol.spectrum_peaks",
    "cli.main_s": "cli.main",
    "cli.write_s": tracing.WRITE_SPAN,
}


def per_layer(run: Run, seconds: float) -> dict:
    tracer = tracing.Tracer(run.wl.name)
    qesr, cli = import_qesr(run.root)
    tracer.group = "probe"
    metrics = {"import.qesr_s": (_import_s(run, tracer), "s")}
    inputs = _probe_inputs(qesr, run.wl)
    with tracing.instrumented(tracer, qesr):
        metrics.update(_layer_probes(qesr, tracer, inputs, run.wl.mode))
    run.warm_pass(cli)  # untimed warm-up; its outputs get the full check
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        plain.append(run.warm_pass(cli))
        k += 1
        tracer.group = f"pass{k}"
        with tracing.instrumented(tracer, qesr):
            traced.append(run.warm_pass(cli))
            reached = {tracer.spans[i].name for i in tracer.group_spans(tracer.group)}
            _probe_unreached(qesr, inputs, reached)
        idx = tracer.group_spans(tracer.group)
        selfs = tracer.self_times(idx)
        selfs["bytes"] = sum(tracer.spans[i].bytes for i in idx)
        per_pass.append(selfs)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    med = statistics.median
    for metric, span in PASS_METRICS.items():
        metrics[metric] = (med(p.get(span, 0.0) for p in per_pass), "s")
    metrics["cli.bytes_written"] = (med(p["bytes"] for p in per_pass), "bytes")
    metrics["trace.overhead_s"] = (med(traced) - med(plain), "s")
    with open(run.work / "spans.json", "w") as fh:
        json.dump(tracer.dump(), fh)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qesr" / "cli.py").is_file():
        print("qesr sources not found under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(run, args.seconds)
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    correct = not run.errors and run.digests is not None
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
