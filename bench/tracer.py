"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps every public function of the traced modules and
replaces it in every ``wavegrowth`` namespace that holds it, so a name a
module bound at import (``bounds`` binds ``integrate_oscillatory``) is
wrapped as well.  It also wraps ``Profile.ft``, the radial transforms that
``Profile.polar_factor`` hands out (2D norms evaluate those instead of
``ft``), the ``GridField`` methods, and ``numpy.fft.rfftn``/``irfftn``.
Nothing in ``src/`` changes.

A span has a call id (one per top-level workload call), a parent and a
start and end time.  Spans stay in memory and are written out when the run
ends.  The self time of a span is its duration minus the part its child
spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

# Modules whose public functions are layers, in the order they are reported.
LAYERS = ("profiles", "quadrature", "spectral", "bounds", "oracles", "analysis", "local_energy")
# Public by use, not listed in ``__all__``.
EXTRA = {"spectral": ("reduce_pair",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.call_id = 0
        self.span_call = array("q")
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.count = Counter()  # span name -> calls
        self.incl = Counter()  # span name -> inclusive seconds
        self.excl = Counter()  # span name -> self seconds
        self.counters = Counter()

    # ------------------------------------------------------------ recording
    def begin_call(self):
        self.call_id += 1

    def reset_totals(self):
        """Start new per-name totals and counters; recorded spans stay."""
        for totals in (self.count, self.incl, self.excl, self.counters):
            totals.clear()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span called ``name``; ``after(args, result)`` counts."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.span_start)
            tracer.span_call.append(tracer.call_id)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.span_end[index] = end
                tracer.count[name] += 1
                tracer.incl[name] += duration
                tracer.excl[name] += duration - frame[1]
            if after is not None:
                after(args, result)
            return result

        return traced

    # ---------------------------------------------------------- installation
    def install(self, wg):
        """Wrap the package's public functions, transforms and the FFTs."""
        import numpy as np

        originals: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{wg.__name__}.{layer}"]
            for attr in (*getattr(mod, "__all__", ()), *EXTRA.get(layer, ())):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, f"{layer}.{attr}")
        wrappers = {}
        for key, (fn, name) in originals.items():
            after = self._count_quad if name == "quadrature.integrate_oscillatory" else None
            wrappers[key] = self.wrap(name, fn, after)
        for modname, mod in list(sys.modules.items()):
            if modname == wg.__name__ or modname.startswith(wg.__name__ + "."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers and val is originals[id(val)][0]:
                        setattr(mod, attr, wrappers[id(val)])

        profile_cls = wg.profiles.Profile
        profile_cls.ft = self.wrap("profiles.ft", profile_cls.ft, self._count_ft)
        polar_factor = profile_cls.polar_factor
        tracer = self

        def polar_factor_traced(prof):
            m, g = polar_factor(prof)
            return m, tracer.wrap("profiles.ft", g, tracer._count_radial)

        profile_cls.polar_factor = functools.wraps(polar_factor)(polar_factor_traced)

        field_cls = wg.oracles.GridField
        for meth in ("grad", "energy", "l2_norm"):
            setattr(field_cls, meth, self.wrap(f"oracles.GridField.{meth}", getattr(field_cls, meth)))
        for fft in ("rfftn", "irfftn"):
            setattr(np.fft, fft, self.wrap(f"fft.{fft}", getattr(np.fft, fft), self._count_fft))

    def _count_ft(self, args, result):
        xi = args[1]
        size = getattr(xi, "size", 1)
        self.counters["profiles.ft_points"] += size if args[0].dimension == 1 else size // 2

    def _count_radial(self, args, result):
        self.counters["profiles.ft_points"] += getattr(args[0], "size", 1)

    def _count_quad(self, args, result):
        self.counters["quadrature.panels"] += result.panels

    def _count_fft(self, args, result):
        self.counters["oracles.fft_bytes_computed"] += args[0].nbytes + result.nbytes

    # --------------------------------------------------------------- output
    def snapshot(self) -> dict:
        """Per-name calls and times plus the counters, as plain numbers."""
        return {
            "count": dict(self.count),
            "incl": dict(self.incl),
            "excl": dict(self.excl),
            "counters": dict(self.counters),
            "spans": len(self.span_start),
        }

    def write(self, path):
        """All spans, one tab-separated line each, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tcall\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_call[i]}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


def layer_metrics(snap: dict, points: int) -> dict:
    """The per-layer metrics of one traced pass over ``points`` time points."""
    count, incl, excl, ctr = snap["count"], snap["incl"], snap["excl"], snap["counters"]

    def layer_self(prefix):
        return sum((v for k, v in excl.items() if k.startswith(prefix + ".")), 0.0)

    def calls(prefix):
        return sum(v for k, v in count.items() if k.startswith(prefix))

    def raised(name, exc):
        return ctr.get(f"{name}.raised.{exc}", 0)

    ffts = calls("fft.")
    quad = "quadrature.integrate_oscillatory"
    m = {
        "profiles.ft_calls": count.get("profiles.ft", 0),
        "profiles.ft_points": ctr.get("profiles.ft_points", 0),
        "profiles.ft_s": incl.get("profiles.ft", 0.0),
        "profiles.moments_calls": count.get("profiles.moments", 0),
        "profiles.moments_s": incl.get("profiles.moments", 0.0),
        "profiles.self_s": layer_self("profiles"),
        "quadrature.integrations_per_t": count.get(quad, 0) / points,
        "quadrature.panels_per_t": ctr.get("quadrature.panels", 0) / points,
        "quadrature.self_s": layer_self("quadrature"),
        "quadrature.failures": raised(quad, "QuadratureError"),
        "spectral.norm_sq_fourier_calls": count.get("spectral.norm_sq_fourier", 0),
        "spectral.reduce_pair_calls": count.get("spectral.reduce_pair", 0),
        "spectral.norm_sq_fourier_s": incl.get("spectral.norm_sq_fourier", 0.0),
        "spectral.l2_norm_s": incl.get("spectral.l2_norm", 0.0),
        "spectral.self_s": layer_self("spectral"),
        "bounds.sandwich_report_s": incl.get("bounds.sandwich_report", 0.0),
        "bounds.term_checks_s": incl.get("bounds.term_checks", 0.0),
        "bounds.trick_T_s": incl.get("bounds.trick_T", 0.0),
        "bounds.upper_constant_s": incl.get("bounds.upper_constant", 0.0),
        "bounds.self_s": layer_self("bounds"),
        "oracles.grid_solve_calls": count.get("oracles.grid_solve", 0),
        "oracles.grid_solve_s": incl.get("oracles.grid_solve", 0.0),
        "oracles.grad_s": incl.get("oracles.GridField.grad", 0.0),
        "oracles.energy_s": incl.get("oracles.GridField.energy", 0.0),
        "oracles.ffts_per_t": ffts / points,
        "oracles.fft_s": sum((v for k, v in incl.items() if k.startswith("fft.")), 0.0),
        "oracles.fft_bytes_computed": ctr.get("oracles.fft_bytes_computed", 0),
        "oracles.self_s": layer_self("oracles"),
        "local_energy.report_s": incl.get("local_energy.local_energy_report", 0.0),
        "local_energy.local_energy_s": incl.get("local_energy.local_energy", 0.0),
        "local_energy.flux_functionals_s": incl.get("local_energy.flux_functionals", 0.0),
        "local_energy.data_overlap_s": incl.get("local_energy.data_overlap", 0.0),
        "local_energy.self_s": layer_self("local_energy"),
        "analysis.model_select_calls": count.get("analysis.model_select", 0),
        "analysis.model_select_s": incl.get("analysis.model_select", 0.0),
        "analysis.self_s": layer_self("analysis"),
    }
    return m
