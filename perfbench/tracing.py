"""Per-layer spans around the public functions of adicergo, from outside.

`Tracer.install()` wraps every public function of every adicergo module, in
each module that binds its name (cli, ergodic and weyl import their callees
by name, so patching only the defining module would miss those calls), and
`uninstall()` puts the originals back.  Each call records one span (id,
parent, job, name, start, end) and the counts in `_COUNTERS`.  A layer's
self time is its busy time minus the time of its child spans.
"""
from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
from collections import defaultdict
from time import perf_counter

import numpy as np


def _primes_in_range(tracer, args, kwargs, result):
    lo = args[0] if args else kwargs["lo"]
    hi = args[1] if len(args) > 1 else kwargs["hi"]
    if lo <= 2:
        tracer.prime_counts.append((hi, len(result)))
    return {"primes": len(result), "span": max(0, hi - max(lo, 2) + 1)}


def _orbit_histogram(tracer, args, kwargs, result):
    # Kept for the caller: empirical_average counts occupied classes x A.
    tracer.last_occupied = int(np.count_nonzero(result.counts))
    return {"modulus": len(result.counts), "occupied": tracer.last_occupied}


def _multiplier(tracer, args, kwargs, result):
    return {"terms": result.modulus}


def _complete_exp_sum(tracer, args, kwargs, result):
    return {"terms": args[1] if len(args) > 1 else kwargs["q"]}


def _empirical_average(tracer, args, kwargs, result):
    return {"shifts": tracer.last_occupied * result.modulus}


def _emit_report(tracer, args, kwargs, result):
    out = (args[0] if args else kwargs["cfg"]).out
    if out is None:
        return {}
    return {"bytes": sum(os.path.getsize(out + ext) for ext in (".csv", ".json"))}


# Work counts recorded beside the spans, keyed by layer name.
_COUNTERS = {
    "primes.primes_in_range": _primes_in_range,
    "weyl.orbit_histogram": _orbit_histogram,
    "multipliers.multiplier_prime": _multiplier,
    "multipliers.multiplier_natural": _multiplier,
    "multipliers.complete_exp_sum": _complete_exp_sum,
    "ergodic.empirical_average": _empirical_average,
    "cli.emit_report": _emit_report,
}

COUNT_FIELDS = ("calls", "primes", "span", "modulus", "occupied", "terms", "shifts", "bytes")


def _modules(package):
    yield package
    for info in pkgutil.iter_modules(package.__path__):
        yield importlib.import_module(f"{package.__name__}.{info.name}")


class Tracer:
    """Spans of one traced pass, and per (job, layer) the calls, busy_s,
    self_s and recorded counts; `reset()` between passes."""

    def __init__(self, package):
        self.package = package
        self._saved: list[tuple] = []
        self.reset()

    def reset(self):
        self.spans: list[tuple] = []
        self.totals = defaultdict(lambda: defaultdict(float))
        self.prime_counts: list[tuple[int, int]] = []
        self.last_occupied = 0
        self.job = None
        self._stack: list[list] = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[frame[0]] = (frame[0], parent, self.job, name, start, end)
                totals = self.totals[(self.job, name)]
                totals["calls"] += 1
                totals["busy_s"] += end - start
                totals["self_s"] += end - start - frame[1]
            if counter is not None:
                for key, value in counter(self, args, kwargs, result).items():
                    totals[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for mod in _modules(self.package):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(self.package.__name__ + ".")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(mod, attr, wrappers[obj])
                self._saved.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()
