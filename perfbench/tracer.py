"""Outside-in tracer for the resfluor layers.

The tracer wraps the package's layer functions from outside: each listed
function is replaced, on every ``resfluor`` module that binds it, by a wrapper
that records a span (name, start, end, parent, info).  A function imported by
name into another module (``minimize`` into ``polarization`` and
``correlation``, the ``spectra`` and ``measurement`` functions into ``synth``
and ``cli``) is bound there as a separate attribute, so every binding is
replaced; otherwise those calls would bypass the wrapper.

Spans are kept in memory and written once, when the run ends.  Nothing is
installed unless ``Tracer.install`` is called, so untraced runs execute the
package unmodified.

Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock; spans recorded in a child process can therefore be placed
under a span of the parent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time

# (module, function): span name is "<module>.<function>"
FUNCTIONS = (
    ("measurement", "simulate_counts"),
    ("synth", "noisy_extinction_trace"),
    ("synth", "noisy_g2_trace"),
    ("estimation", "minimize"),
    ("polarization", "separate_components"),
    ("polarization", "transform_extinction_triple"),
    ("correlation", "g2"),
    ("correlation", "fit_rabi_from_g2"),
    ("spectra", "extinction_spectrum"),
    ("spectra", "mollow_spectrum"),
    ("spectra", "convolve_instrument"),
    ("config", "load_config"),
)

# (module, class, method): span name is "io.<class>.<method>"
METHODS = (
    ("spectra", "SpectrumTrace", "to_csv"),
    ("spectra", "SpectrumTrace", "to_json"),
    ("spectra", "SpectrumTrace", "from_csv"),
    ("correlation", "G2Trace", "to_csv"),
    ("correlation", "G2Trace", "from_csv"),
)

RESIDUAL = "estimation.residual"


def _info_pixels(args, kwargs, out):
    return {"pixels": int(out.values.size)}


def _info_cells(args, kwargs, out):
    emission = args[0] if args else kwargs["emission"]
    return {"cells": int(out.grid.size) * int(emission.grid.size)}


def _info_fit(args, kwargs, out):
    return {"iterations": int(out.iterations), "status": out.status}


def _info_bytes(args, kwargs, out):
    return {"bytes": len(out.encode())}


_INFO = {
    "measurement.simulate_counts": _info_pixels,
    "spectra.convolve_instrument": _info_cells,
    "estimation.minimize": _info_fit,
    "io.SpectrumTrace.to_csv": _info_bytes,
    "io.SpectrumTrace.to_json": _info_bytes,
    "io.G2Trace.to_csv": _info_bytes,
}


class Tracer:
    """Records spans around calls into the package's layers."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, info or None]
        self._stack = []
        self._undo = []

    @property
    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        rec = [name, 0.0, 0.0, self.current, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        info_of = _INFO.get(name)
        if info_of is not None:
            rec[4] = info_of(args, kwargs, out)
        return out

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def adopt(self, spans):
        """Append spans recorded elsewhere (a child process) under the
        currently open span."""
        base = len(self.spans)
        parent = self.current
        for name, t0, t1, p, info in spans:
            self.spans.append([name, t0, t1, parent if p < 0 else base + p, info])

    # -- installation ------------------------------------------------------

    def install(self):
        importlib.import_module("resfluor.cli")  # imports every layer module
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "resfluor" or n.startswith("resfluor.")]
        for modname, fname in FUNCTIONS:
            orig = getattr(importlib.import_module("resfluor." + modname), fname)
            name = f"{modname}.{fname}"
            if name == "estimation.minimize":
                wrapped = self.wrap(name, self._minimize_with_traced_residual(orig))
            else:
                wrapped = self.wrap(name, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for modname, cname, mname in METHODS:
            cls = getattr(importlib.import_module("resfluor." + modname), cname)
            raw = cls.__dict__[mname]
            name = f"io.{cname}.{mname}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            self._undo.append((cls, mname, raw))
            setattr(cls, mname, wrapped)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _minimize_with_traced_residual(self, minimize):
        """minimize() whose problem's residual calls are spans of their own,
        so the engine's self time excludes model evaluation."""
        def traced_minimize(problem, *args, **kwargs):
            problem = dataclasses.replace(
                problem, residual=self.wrap(RESIDUAL, problem.residual))
            return minimize(problem, *args, **kwargs)
        return traced_minimize

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def summarize(spans):
    """Per span name: calls, busy seconds, self seconds (busy minus the time
    covered by child spans) and the list of info records."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, info in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {}
    for k, (name, t0, t1, parent, info) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "info": []})
        s["calls"] += 1
        s["busy"] += t1 - t0
        s["self"] += t1 - t0 - child_time[k]
        if info is not None:
            s["info"].append(info)
    return out
