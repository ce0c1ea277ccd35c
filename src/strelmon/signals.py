"""Piecewise-constant signals over time, space, and both.

A temporal signal is a step function given by breakpoints: the value set at
time ``t_i`` holds on ``[t_i, t_{i+1})`` and the last value holds through the
closed end of the domain.  Spatio-temporal signals are one temporal signal
per location; traces are vector-valued spatio-temporal signals carrying the
raw monitored variables.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence


class SignalError(ValueError):
    pass


@dataclass(frozen=True)
class TemporalSignal:
    times: tuple[float, ...]
    values: tuple[Any, ...]
    end_time: float

    def __post_init__(self):
        if not self.times:
            raise SignalError("temporal signal needs at least one step")
        if len(self.times) != len(self.values):
            raise SignalError("times and values differ in length")
        for a, b in zip(self.times, self.times[1:]):
            if not a < b:
                raise SignalError(f"step times must strictly increase, got {a} then {b}")
        if self.end_time < self.times[-1]:
            raise SignalError(f"end time {self.end_time} precedes last step {self.times[-1]}")

    @property
    def start(self) -> float:
        return self.times[0]

    def value_at(self, t: float) -> Any:
        if t < self.times[0] or t > self.end_time:
            raise SignalError(f"time {t} outside signal domain [{self.times[0]}, {self.end_time}]")
        return self.values[bisect_right(self.times, t) - 1]

    def minimize(self) -> "TemporalSignal":
        """Drop steps that repeat the previous value; value_at is unchanged."""
        times = [self.times[0]]
        values = [self.values[0]]
        for t, v in zip(self.times[1:], self.values[1:]):
            if v != values[-1]:
                times.append(t)
                values.append(v)
        if len(times) == len(self.times):
            return self
        return TemporalSignal(tuple(times), tuple(values), self.end_time)

    def restrict(self, start: float, end: float) -> "TemporalSignal":
        """Clip to a subdomain [start, end] of the current domain."""
        if start < self.times[0] or end > self.end_time or start > end:
            raise SignalError(
                f"cannot restrict [{self.times[0]}, {self.end_time}] to [{start}, {end}]"
            )
        times = [start]
        values = [self.value_at(start)]
        for t, v in zip(self.times, self.values):
            if start < t <= end:
                times.append(t)
                values.append(v)
        return TemporalSignal(tuple(times), tuple(values), end)

    def map_values(self, fn: Callable[[Any], Any]) -> "TemporalSignal":
        return TemporalSignal(self.times, tuple(fn(v) for v in self.values), self.end_time)


def _check_same_domain(signals: Sequence[TemporalSignal]) -> None:
    first = signals[0]
    for s in signals[1:]:
        if s.start != first.start or s.end_time != first.end_time:
            raise SignalError(
                f"signal domains differ: [{first.start}, {first.end_time}] vs [{s.start}, {s.end_time}]"
            )


def time_step_union(signals: Iterable[TemporalSignal]) -> list[float]:
    """Sorted union of step times of signals sharing one domain."""
    sigs = list(signals)
    if not sigs:
        return []
    _check_same_domain(sigs)
    out: set[float] = set()
    for s in sigs:
        out.update(s.times)
    return sorted(out)


@dataclass(frozen=True)
class SpatialSignal:
    """One value per location; a time slice of a spatio-temporal signal."""

    values: tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, loc: int) -> Any:
        return self.values[loc]


@dataclass(frozen=True)
class SpatioTemporalSignal:
    signals: tuple[TemporalSignal, ...]

    def __post_init__(self):
        if not self.signals:
            raise SignalError("need at least one location")
        _check_same_domain(self.signals)

    @property
    def location_count(self) -> int:
        return len(self.signals)

    @property
    def start(self) -> float:
        return self.signals[0].start

    @property
    def end_time(self) -> float:
        return self.signals[0].end_time

    def value_at(self, loc: int, t: float) -> Any:
        return self.signals[loc].value_at(t)

    def spatial_slice(self, t: float) -> SpatialSignal:
        return SpatialSignal(tuple(s.value_at(t) for s in self.signals))

    def step_times(self) -> list[float]:
        return time_step_union(self.signals)


@dataclass(frozen=True)
class Trace:
    """Vector-valued input signals: one tuple of variable values per step."""

    variables: tuple[str, ...]
    signals: tuple[TemporalSignal, ...]

    def __post_init__(self):
        if not self.variables:
            raise SignalError("trace needs at least one variable")
        _check_same_domain(self.signals)
        n = len(self.variables)
        for loc, s in enumerate(self.signals):
            for v in s.values:
                if len(v) != n:
                    raise SignalError(
                        f"location {loc} has a step with {len(v)} values, expected {n}"
                    )

    @property
    def location_count(self) -> int:
        return len(self.signals)

    @property
    def start(self) -> float:
        return self.signals[0].start

    @property
    def end_time(self) -> float:
        return self.signals[0].end_time

    def step_times(self) -> list[float]:
        return time_step_union(self.signals)


def resample_to_union(trace: Trace) -> Trace:
    """Give every location the same step grid (union of all step times)."""
    times = trace.step_times()
    signals = []
    for s in trace.signals:
        signals.append(
            TemporalSignal(tuple(times), tuple(s.value_at(t) for t in times), s.end_time)
        )
    return Trace(trace.variables, tuple(signals))


def load_trace(path: str) -> Trace:
    """Read a trace CSV: header location,time,<var...>, rows sorted by (location, time).

    Times and values must be finite numbers.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SignalError(f"{path}: empty trace file") from None
        if len(header) < 3 or header[0] != "location" or header[1] != "time":
            raise SignalError(f"{path}: header must be location,time,<variables...>")
        variables = tuple(header[2:])
        per_loc: dict[int, list[tuple[float, tuple[float, ...]]]] = {}
        last_key: tuple[int, float] | None = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SignalError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                loc = int(row[0])
                t = float(row[1])
                vals = tuple(float(x) for x in row[2:])
            except ValueError as exc:
                raise SignalError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(t):
                raise SignalError(f"{path}:{lineno}: non-finite time {row[1]!r}")
            if not all(map(math.isfinite, vals)):
                name, text = next(
                    (name, text) for name, text, v in zip(variables, row[2:], vals)
                    if not math.isfinite(v)
                )
                raise SignalError(f"{path}:{lineno}: non-finite value {text!r} for {name!r}")
            key = (loc, t)
            if last_key is not None and key <= last_key:
                raise SignalError(f"{path}:{lineno}: rows must be sorted by (location, time)")
            last_key = key
            per_loc.setdefault(loc, []).append((t, vals))
    if not per_loc:
        raise SignalError(f"{path}: no data rows")
    locations = sorted(per_loc)
    if locations != list(range(len(locations))):
        raise SignalError(f"{path}: locations must be contiguous ids 0..n-1, got {locations}")
    end = max(steps[-1][0] for steps in per_loc.values())
    signals = tuple(
        TemporalSignal(
            tuple(t for t, _ in per_loc[loc]),
            tuple(v for _, v in per_loc[loc]),
            end,
        )
        for loc in locations
    )
    return resample_to_union(Trace(variables, signals))


def _fmt(x: float) -> str:
    # repr round-trips floats exactly; integers print without the trailing .0
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def save_trace(trace: Trace, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "time"] + list(trace.variables))
        for loc, sig in enumerate(trace.signals):
            for t, vals in zip(sig.times, sig.values):
                writer.writerow([loc, _fmt(t)] + [_fmt(v) for v in vals])
