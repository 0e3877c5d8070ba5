"""Spans around the calls into each proxileak layer, installed from outside.

A :class:`Tracer` replaces public functions with timing wrappers for the
duration of a ``with`` block. Each function is patched at the module it is
looked up from when called: ``runner`` and ``attacker`` import
``generate_population``, ``build_world``, ``identify``, ``extract_pois``
and ``multilaterate`` by name, so patching only the defining module would
miss those calls. Methods are patched on their class.

Spans are kept in memory as ``(name, start, end, parent, note)`` tuples;
``note`` is a small value taken from the call's arguments or result (for
example the solver's iteration count). A span's self time is its duration
minus the durations of its direct children. Tracing assumes the traced
code runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict


def _n_users(args, kwargs, result):
    return args[0] if args else kwargs["n"]


def _iterations(args, kwargs, result):
    return result.iterations_used


def _identification(args, kwargs, result):
    # The population list is shared by every call of one run, so keeping a
    # reference costs nothing; ground truth is looked up after the run.
    return (args[0].user_id, result.social_id, result.identified,
            result.rounds_used, args[1])


# span name -> (module, attribute path in that module, note function)
TARGETS = {
    "world.generate_population": ("proxileak.runner", "generate_population",
                                  _n_users),
    "runner.build_world": ("proxileak.runner", "build_world", None),
    "service.nearby": ("proxileak.service", "ProximityService.nearby", None),
    "service.profile": ("proxileak.service", "ProximityService.profile", None),
    "service.update_location": ("proxileak.service",
                                "ProximityService.update_location", None),
    "mlat.multilaterate": ("proxileak.attacker", "multilaterate", _iterations),
    "attacker.localize": ("proxileak.attacker", "Attacker.localize", None),
    "attacker.extract_pois": ("proxileak.runner", "extract_pois", None),
    "report.trace_append": ("proxileak.report", "AttackTrace.append", None),
    "report.classify": ("proxileak.report", "classify", None),
    "report.emit": ("proxileak.report", "emit", None),
    "socialgraph.identify": ("proxileak.runner", "identify", _identification),
    "socialgraph.forward_search": ("proxileak.socialgraph", "forward_search",
                                   None),
    "socialgraph.reverse_search": ("proxileak.socialgraph", "reverse_search",
                                   None),
    "tcp.handle_line": ("proxileak.tcp", "WireHandler.handle_line", None),
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records a span for every call of the named :data:`TARGETS`."""

    def __init__(self, names=()):
        unknown = set(names) - set(TARGETS)
        if unknown:
            raise ValueError(f"unknown span names: {sorted(unknown)}")
        self.names = list(names)
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for name in self.names:
            module_name, path, note = TARGETS[name]
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent,
                              note(args, kwargs, result) if ok and note else None)

        return wrapper

    def by_name(self) -> dict[str, list[tuple[float, float, object]]]:
        """Span name -> [(duration_s, self_s, note)] in call order."""
        child_s = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, list] = defaultdict(list)
        for i, (name, t0, t1, _, note) in enumerate(self.spans):
            out[name].append((t1 - t0, t1 - t0 - child_s[i], note))
        return out


def layer_metrics(spans: dict[str, list]) -> dict[str, float]:
    """Per-layer metrics of one traced unit of work (see BENCHMARK.json).

    Layers the unit never called report zero calls and zero time.
    """

    def calls(name):
        return len(spans.get(name, ()))

    def total(name, column=0):
        return sum(s[column] for s in spans.get(name, ()))

    def per_call(name, scale, column=0):
        n = calls(name)
        return total(name, column) / n * scale if n else 0.0

    def mean_note(name):
        notes = [s[2] for s in spans.get(name, ())]
        return statistics.fmean(notes) if notes else 0.0

    users = sum(s[2] for s in spans.get("world.generate_population", ()))
    identifications = [s[2] for s in spans.get("socialgraph.identify", ())]
    m = {
        "world.generate_population_s": total("world.generate_population"),
        "world.us_per_user": (total("world.generate_population") / users * 1e6
                              if users else 0.0),
        "runner.build_world_s": total("runner.build_world"),
        "mlat.multilaterate_calls": calls("mlat.multilaterate"),
        "mlat.multilaterate_ms": per_call("mlat.multilaterate", 1e3),
        "mlat.iterations_per_fix": mean_note("mlat.multilaterate"),
        "attacker.localize_self_ms": per_call("attacker.localize", 1e3, 1),
        "attacker.extract_pois_s": total("attacker.extract_pois"),
        "report.trace_append_calls": calls("report.trace_append"),
        "report.trace_append_self_s": total("report.trace_append", 1),
        "report.classify_s": total("report.classify"),
        "report.emit_s": total("report.emit"),
        "socialgraph.identify_ms": per_call("socialgraph.identify", 1e3),
        "socialgraph.identified_ratio": (
            statistics.fmean(int(n[2]) for n in identifications)
            if identifications else 0.0),
        "socialgraph.rounds_per_victim": (
            statistics.fmean(n[3] for n in identifications)
            if identifications else 0.0),
        "tcp.handle_line_calls": calls("tcp.handle_line"),
        "tcp.handle_line_us": per_call("tcp.handle_line", 1e6),
    }
    for op, unit, scale in (("nearby", "ms", 1e3), ("profile", "us", 1e6),
                            ("update_location", "us", 1e6)):
        m[f"service.{op}_calls"] = calls(f"service.{op}")
        m[f"service.{op}_{unit}"] = per_call(f"service.{op}", scale)
    for op in ("forward_search", "reverse_search"):
        m[f"socialgraph.{op}_calls"] = calls(f"socialgraph.{op}")
        m[f"socialgraph.{op}_ms"] = per_call(f"socialgraph.{op}", 1e3)
    return m
