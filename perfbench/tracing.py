"""Spans around the calls into strelmon's layers, installed from outside.

Each entry of ``PATCHES`` wraps one name in the namespace of the module that
*calls* it, since ``from … import`` binds a name into the caller; patching
the defining module alone would miss those calls.  A span records its name,
its parent span, and start and end times; spans stay in memory and are
summarized per repetition.  A layer's self time is its spans' durations
minus the durations of their direct child spans.

Per-snapshot spatial calls (``reach`` and ``escape``) are counted against
the (snapshot, distance function) pair they evaluate, which gives the room a
per-snapshot cache would have.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (calling module, attribute, span name)
PATCHES = (
    ("strelmon.scenarios", "simulate_epidemic", "scenarios.simulate_epidemic"),
    ("strelmon.cli", "main", "cli"),
    ("strelmon.cli", "generate_manet", "scenarios.generate_manet"),
    ("strelmon.cli", "save_model", "space.save_model"),
    ("strelmon.cli", "save_trace", "signals.save_trace"),
    ("strelmon.cli", "load_model", "space.load_model"),
    ("strelmon.cli", "load_trace", "signals.load_trace"),
    ("strelmon.cli", "write_signal_csv", "cli.write_signal_csv"),
    ("strelmon.cli", "parse", "logic.parse"),
    ("strelmon.logic", "parse", "logic.parse"),
    ("strelmon.cli", "monitor", "monitor"),
    ("strelmon.monitor", "monitor", "monitor"),
    ("strelmon.monitor", "desugar", "logic.desugar"),
    ("strelmon.monitor", "monitor_until", "monitor.until"),
    ("strelmon.monitor", "monitor_since", "monitor.since"),
    ("strelmon.monitor", "bounded_reach", "monitor.bounded_reach"),
    ("strelmon.monitor", "unbounded_reach", "monitor.unbounded_reach"),
    ("strelmon.monitor", "escape", "monitor.escape"),
    ("strelmon.monitor", "min_distance_matrix", "space.min_distance_matrix"),
    ("strelmon.monitor", "check_strictly_positive", "space.check_strictly_positive"),
    ("strelmon.space", "check_strictly_positive", "space.check_strictly_positive"),
)

# Spatial operators evaluated once per (snapshot, distance function) and time.
SPATIAL_CALLS = (("strelmon.monitor", "reach"), ("strelmon.monitor", "escape"))


class Tracer:
    """Records spans and counters while installed; ``remove`` restores every
    patched name."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.spatial_calls = 0
        self._snapshot_keys: set = set()
        self._snapshots: list = []  # keeps models alive so their ids stay unique
        self.out_breakpoints = 0

    def install(self) -> None:
        for module_name, attr, span in PATCHES:
            self._patch(module_name, attr, lambda fn, span=span: self._span(span, fn))
        for module_name, attr in SPATIAL_CALLS:
            self._patch(module_name, attr, self._count_spatial)

    def remove(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _patch(self, module_name: str, attr: str, wrap) -> None:
        """Replace module.attr with wrap(original); a missing name is an error,
        so a rename in the program fails the traced run instead of reading 0."""
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise AttributeError(f"{module_name}.{attr} is gone; update the benchmark's PATCHES")
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if name == "monitor":
                self.out_breakpoints += sum(len(s.times) for s in result.signals)
            return result

        return wrapper

    def _count_spatial(self, fn):
        @functools.wraps(fn)
        def wrapper(model, f, *args, **kwargs):
            self.spatial_calls += 1
            key = (id(model), f.name)
            if key not in self._snapshot_keys:
                self._snapshot_keys.add(key)
                self._snapshots.append(model)
            return fn(model, f, *args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Self time and call count per span name, plus the counters."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for idx, (name, _parent, start, end) in enumerate(self.spans):
            self_s[name] += end - start - child_time[idx]
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "spatial_calls": self.spatial_calls,
            "snapshot_pairs": len(self._snapshot_keys),
            "out_breakpoints": self.out_breakpoints,
        }
