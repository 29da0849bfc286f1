"""Spans around the public macrosize functions, recorded from outside the package.

``Tracer.install`` replaces every module-level name in ``macrosize.*`` that
is bound to a traced function (``cli`` imports ``qfi_max_quadrature`` by
name, so patching ``fisher`` alone would miss every ``measure`` job).  Spans
(name, start, end, parent, job) stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a span, by layer.
TRACED = (
    ("macrosize.cli", "main"),
    ("macrosize.wigner", "load_grid"),
    ("macrosize.wigner", "reconstruct"),
    ("macrosize.wigner", "synth_values"),
    ("macrosize.wigner", "fock_kernel"),
    ("macrosize.fisher", "qfi_max_quadrature"),
    ("macrosize.fisher", "qfi"),
    ("macrosize.fisher", "variance"),
    ("macrosize.quantum", "validate_density"),
    ("macrosize.quantum", "eigh"),
    ("macrosize.quantum", "ghz_state"),
    ("macrosize.measures", "size_report_for_state"),
    ("macrosize.measures", "entangled_size"),
)

# Per-layer metrics, reported per job: name -> (unit, better).
METRICS = {
    "cli.self_s": ("s/job", "lower"),
    "wigner.load_grid.s": ("s/job", "lower"),
    "wigner.fock_kernel.calls": ("calls/job", "lower"),
    "wigner.fock_kernel.s": ("s/job", "lower"),
    "wigner.overlap_kernels": ("calls/job", "lower"),
    "wigner.overlap_useful_ratio": ("ratio", "higher"),
    "wigner.synth_values.s": ("s/job", "lower"),
    "wigner.reconstruct.s": ("s/job", "lower"),
    "wigner.reconstruct.self_s": ("s/job", "lower"),
    "fisher.qfi_max_quadrature.s": ("s/job", "lower"),
    "fisher.qfi.calls": ("calls/job", "lower"),
    "fisher.qfi.s": ("s/job", "lower"),
    "fisher.variance.calls": ("calls/job", "lower"),
    "fisher.variance.s": ("s/job", "lower"),
    "quantum.validate_density.calls": ("calls/job", "lower"),
    "quantum.validate_density.s": ("s/job", "lower"),
    "quantum.eigh.calls": ("calls/job", "lower"),
    "quantum.eigh.s": ("s/job", "lower"),
    "quantum.ghz_state.s": ("s/job", "lower"),
    "quantum.ghz_state.bytes": ("B/job", "lower"),
    "measures.size_report_for_state.s": ("s/job", "lower"),
    "measures.entangled_size.s": ("s/job", "lower"),
    "trace.jobs_per_s": ("1/s", "higher"),
}


def _ghz_bytes(result) -> int:
    rho, observable = result
    return rho.nbytes + observable.total.nbytes + sum(a.nbytes for a in observable.locals_)


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.job = -1
        self.reconstructed_dims: list[int] = []
        self.ghz_bytes = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.job]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if name == "wigner.reconstruct":
                self.reconstructed_dims.append(result.dim)
            elif name == "quantum.ghz_state":
                self.ghz_bytes += _ghz_bytes(result)
            return result

        return traced

    def install(self):
        """Rebind every ``macrosize`` name that refers to a traced function."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "macrosize"]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(f"{module_name.split('.')[-1]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def per_job(self, jobs: int, elapsed: float) -> dict:
        """Per-layer metrics over ``jobs`` traced jobs that took ``elapsed`` s."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        overlap_kernels = 0
        for name, start, end, parent, _job in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
                if name == "wigner.fock_kernel" and self.spans[parent][0] == "wigner.reconstruct":
                    overlap_kernels += 1
        self_time = defaultdict(float)
        for index, (name, start, end, _parent, _job) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]
        useful = sum(d * (d + 1) // 2 for d in self.reconstructed_dims)
        out = {
            "cli.self_s": self_time["cli.main"],
            "wigner.overlap_kernels": overlap_kernels,
            "wigner.reconstruct.self_s": self_time["wigner.reconstruct"],
            "quantum.ghz_state.bytes": self.ghz_bytes,
        }
        # "<span>.s" is the time and "<span>.calls" the count of a span.
        for metric in METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total[span]
            elif kind == "calls":
                out[metric] = calls[span]
        out = {k: v / jobs for k, v in out.items()}
        out["wigner.overlap_useful_ratio"] = useful / overlap_kernels if overlap_kernels else 0.0
        out["trace.jobs_per_s"] = jobs / elapsed
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                handle.write(json.dumps(record) + "\n")
