"""In-memory spans around the calls into qesr's layers.

`instrumented(tracer, qesr)` replaces the public functions named in `TRACED`
(and the CSV/JSON writers) wherever a qesr module refers to them, so a call
made through any module is recorded; leaving the context restores the
originals.  Spans live in memory and are written out once, by the runner,
when the run ends.  A layer's self time is its spans' duration minus the
part covered by their child spans.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

# (module, function) -> span name
TRACED = {
    ("cli", "main"): "cli.main",
    ("config", "parse_config"): "config.parse_config",
    ("spin_model", "build_distribution"): "spin_model.build_distribution",
    ("dynamics", "memory_kernel_W"): "dynamics.memory_kernel_W",
    ("dynamics", "transfer_sweep"): "dynamics.transfer_sweep",
    ("dynamics", "invert_to_time"): "dynamics.invert_to_time",
    ("dynamics", "time_domain_propagate"): "dynamics.time_domain_propagate",
    ("protocol", "find_swap_time"): "protocol.find_swap_time",
    ("protocol", "simulate_swap"): "protocol.simulate_swap",
    ("protocol", "esr_spectrum"): "protocol.esr_spectrum",
    ("protocol", "spectrum_peaks"): "protocol.spectrum_peaks",
}
# every CSV/JSON file the CLI writes goes through one of these
WRITERS = (
    ("dynamics", "TransferResult.to_csv"),
    ("protocol", "SpectrumResult.to_csv"),
    ("protocol", "SwapTrace.to_csv"),
    ("spin_model", "SpinDistribution.to_csv"),
    ("cli", "_write_text"),
)
WRITE_SPAN = "cli.write"
MODULES = ("cli", "config", "dynamics", "protocol", "sensitivity", "spin_model")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    workload: str
    group: str  # the pass or probe the span belongs to
    bytes: int = 0  # size of the file written (write spans only)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.group = ""
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        i = len(self.spans)
        s = Span(name, time.perf_counter(), float("nan"), parent, self.workload, self.group)
        self.spans.append(s)
        self._open.append(i)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, writes: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if writes:
                    path = next(a for a in args if isinstance(a, (str, os.PathLike)))
                    s.bytes = os.path.getsize(path)
                return out

        return traced

    def last(self, name: str) -> Span:
        return next(s for s in reversed(self.spans) if s.name == name)

    def group_spans(self, group: str) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s.group == group]

    def self_times(self, indices: Iterable[int]) -> Dict[str, float]:
        """Total self time per span name over the given spans."""
        indices = list(indices)
        children = defaultdict(float)
        for i in indices:
            s = self.spans[i]
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        out: Dict[str, float] = defaultdict(float)
        for i in indices:
            s = self.spans[i]
            out[s.name] += (s.end - s.start) - children[i]
        return dict(out)

    def dump(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def instrumented(tracer: Tracer, qesr):
    """Route qesr's traced functions and writers through `tracer`."""
    mods = [qesr] + [importlib.import_module(f"{qesr.__name__}.{m}") for m in MODULES]
    undo = []
    try:
        for (mod, fn_name), span_name in TRACED.items():
            orig = getattr(getattr(qesr, mod), fn_name)
            wrapper = tracer.wrap(span_name, orig)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        for mod, dotted in WRITERS:
            owner = getattr(qesr, mod)
            *cls, attr = dotted.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, attr)
            undo.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(WRITE_SPAN, orig, writes=True))
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
