"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps every public function of the six layers of
dyckarea (cli, datasets, asymptotics, qseries, enumeration,
special_functions): the module attribute, and every other binding of the
same function object in the package (``from .x import f`` copies). No
source file is changed; the wrappers live only in the traced process.

Each call records a span (name, start, end, parent) in memory. A layer's
self time is the sum over its spans of the span's duration minus the
duration of its direct child spans. Counters are read where the work
happens: cfrac depths and series precision from the functions' public
``full_output`` records, table coefficients and cache hits from the table
builder, Airy arguments, and bytes the dataset writer put on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "datasets", "asymptotics", "qseries", "enumeration", "special_functions")


def _in_airy_mp_band(x: float) -> bool:
    """Whether the mpmath Maclaurin tier of ``airy`` serves argument x."""
    return 3.5 < x <= 7.8 or -7.8 <= x < -4.5


def _wants_full_output(args, kwargs) -> bool:
    return bool(kwargs.get("full_output", args[2] if len(args) > 2 else False))


def _full_output(fn, args, kwargs):
    return fn(*args[:2], **{**kwargs, "full_output": True})


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._table_cache = None
        self.cache_start = None

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        self.spans.append((name, time.process_time(), 0.0, parent))
        return idx

    def close(self, idx: int) -> None:
        end = time.process_time()
        self.stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self.open(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                self.close(idx)

        return traced

    # -- counters read at the layer boundaries ---------------------------

    def _hook_qseries_g_cfrac(self, fn, args, kwargs):
        value, depth = _full_output(fn, args, kwargs)
        self.counts["cfrac_levels"] += depth
        return (value, depth) if _wants_full_output(args, kwargs) else value

    def _series(self, fn, args, kwargs, bits_used: int):
        res = _full_output(fn, args, kwargs)
        self.counts["bits_used"] += bits_used
        self.counts["bits_lost"] += res.bits_lost
        self.counts["series_calls"] += 1
        return res if _wants_full_output(args, kwargs) else res.value

    def _hook_qseries_h_series(self, fn, args, kwargs):
        t, settings = args[0], args[1] if len(args) > 1 else kwargs["settings"]
        return self._series(fn, args, kwargs, settings.bits_for(t))

    def _hook_qseries_g_ratio(self, fn, args, kwargs):
        t, settings = args[0], args[1] if len(args) > 1 else kwargs["settings"]
        bits = max(settings.bits_for(t), settings.bits_for(settings.q * t))
        return self._series(fn, args, kwargs, bits)

    def _hook_enumeration_build_area_polynomials(self, fn, args, kwargs):
        misses = fn.cache_info().misses
        table = fn(*args, **kwargs)
        if fn.cache_info().misses > misses:
            self.counts["table_coeffs"] += sum(len(row.coeffs) for row in table.rows)
        return table

    def _hook_special_functions_airy(self, fn, args, kwargs):
        if _in_airy_mp_band(float(args[0] if args else kwargs["x"])):
            self.counts["airy_mp_band"] += 1
        return fn(*args, **kwargs)

    def _hook_datasets_write_dataset(self, fn, args, kwargs):
        result = fn(*args, **kwargs)
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["bytes_written"] += os.path.getsize(path)
        return result

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("dyckarea")
        modules = {layer: importlib.import_module(f"dyckarea.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                if attr == "build_area_polynomials":
                    self._table_cache = obj
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        self.cache_start = self._table_cache.cache_info()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return dict(out)

    def metrics(self, traced_time: float, untraced_time: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the run as {name: (value, unit)}."""
        own = self.self_times()
        layer = {name: sum((v for k, v in own.items() if k.startswith(name + ".")), 0.0)
                 for name in LAYERS}
        c = self.counts
        info = self._table_cache.cache_info()
        hits = info.hits - self.cache_start.hits
        misses = info.misses - self.cache_start.misses
        return {
            "qseries.self_s": (layer["qseries"], "s"),
            "qseries.g_cfrac_grid.self_s": (own.get("qseries.g_cfrac_grid", 0.0), "s"),
            "qseries.g_cfrac.self_s": (own.get("qseries.g_cfrac", 0.0), "s"),
            "qseries.cfrac_levels": (c["cfrac_levels"], "count"),
            "qseries.h_series.self_s": (own.get("qseries.h_series", 0.0), "s"),
            "qseries.g_ratio.self_s": (own.get("qseries.g_ratio", 0.0), "s"),
            "qseries.t_infinity.self_s": (own.get("qseries.t_infinity", 0.0), "s"),
            "qseries.bits_used": (c["bits_used"], "bits"),
            "qseries.bits_lost": (float(c["bits_lost"]), "bits"),
            "qseries.precision_yield": (
                (c["bits_lost"] + 53 * c["series_calls"]) / c["bits_used"] if c["bits_used"] else 0.0,
                "ratio"),
            "enumeration.self_s": (layer["enumeration"], "s"),
            "enumeration.build_area_polynomials.self_s": (
                own.get("enumeration.build_area_polynomials", 0.0), "s"),
            "enumeration.table_coeffs": (c["table_coeffs"], "count"),
            "enumeration.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "enumeration.brute_force_area_polynomial.self_s": (
                own.get("enumeration.brute_force_area_polynomial", 0.0), "s"),
            "special_functions.self_s": (layer["special_functions"], "s"),
            "special_functions.airy.calls": (self.calls["special_functions.airy"], "count"),
            "special_functions.airy.self_s": (own.get("special_functions.airy", 0.0), "s"),
            "special_functions.airy.mp_band_calls": (c["airy_mp_band"], "count"),
            "special_functions.airy_zeros.self_s": (own.get("special_functions.airy_zeros", 0.0), "s"),
            "special_functions.dilog.calls": (self.calls["special_functions.dilog"], "count"),
            "asymptotics.self_s": (layer["asymptotics"], "s"),
            "asymptotics.g_uniform.calls": (self.calls["asymptotics.g_uniform"], "count"),
            "asymptotics.finite_size_phi.self_s": (own.get("asymptotics.finite_size_phi", 0.0), "s"),
            "datasets.self_s": (layer["datasets"], "s"),
            "datasets.bytes_written": (c["bytes_written"], "B"),
            "cli.self_s": (layer["cli"], "s"),
            "trace.overhead_ratio": (traced_time / untraced_time if untraced_time else 0.0, "ratio"),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
