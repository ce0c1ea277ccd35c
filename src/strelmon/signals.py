"""Piecewise-constant signals over time, space, and both.

A temporal signal is a step function given by breakpoints: the value set at
time ``t_i`` holds on ``[t_i, t_{i+1})`` and the last value holds through the
closed end of the domain.  A spatio-temporal signal (a verdict per location
and time) is stored as columns: one step grid shared by every location and
a steps x locations array, with canonical runs; its per-location temporal
signals are built on demand, only for output.  Traces are vector-valued
inputs, one temporal signal per location as given, and cache their union
step grid as one array for the monitor's atoms.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .logic import format_number


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


def _check_same_domain(signals: Sequence[TemporalSignal]) -> None:
    first = signals[0]
    for s in signals[1:]:
        if s.start != first.start or s.end_time != first.end_time:
            raise SignalError(
                f"signal domains differ: [{first.start}, {first.end_time}] vs [{s.start}, {s.end_time}]"
            )


@dataclass(frozen=True, eq=False)
class SpatioTemporalSignal:
    """One verdict per (time, location), stored as columns.

    ``times`` is a strictly increasing float64 array of step times shared by
    every location and ``values`` a ``len(times)`` x n array, bool for
    Boolean verdicts and float64 for quantitative ones: row k holds on
    ``[times[k], times[k+1])`` and the last row through ``end_time``.  The
    values are canonical (``canonical``): a float array holds no -0.0, so
    equal values are equal bit for bit, and no row repeats the row before.
    """

    times: np.ndarray
    values: np.ndarray
    end_time: float

    @classmethod
    def from_signals(cls, signals: Sequence[TemporalSignal]) -> "SpatioTemporalSignal":
        """Per-location signals sharing one domain, on the union of their grids."""
        _check_same_domain(signals)
        return canonical(*_on_grid(signals), signals[0].end_time)

    @property
    def location_count(self) -> int:
        return self.values.shape[1]

    @property
    def start(self) -> float:
        return self.times[0].item()

    def step_times(self) -> list[float]:
        return self.times.tolist()

    def _row_index(self, t: float) -> int:
        if t < self.times[0] or t > self.end_time:
            raise SignalError(f"time {t} outside signal domain [{self.start}, {self.end_time}]")
        return int(np.searchsorted(self.times, t, side="right")) - 1

    def values_at(self, t: float) -> list:
        """Every location's value at t."""
        return self.values[self._row_index(t)].tolist()

    def value_at(self, loc: int, t: float) -> Any:
        return self.values[self._row_index(t), loc].item()

    @cached_property
    def signals(self) -> tuple[TemporalSignal, ...]:
        """One minimized step function per location, with Python values."""
        return tuple(
            TemporalSignal(times, values, self.end_time)
            for times, values in column_steps(self.times, self.values)
        )


def _on_grid(signals: Sequence[TemporalSignal], dtype=None) -> tuple[np.ndarray, np.ndarray]:
    """The union step grid of signals that start together, and every
    signal's values on it, stacked along axis 1."""
    counts = [len(s.times) for s in signals]
    steps = np.array([t for s in signals for t in s.times], dtype=float)
    values = np.array([v for s in signals for v in s.values], dtype=dtype)
    return stack_steps(steps, np.repeat(np.arange(len(signals)), counts), values, len(signals))


def stack_steps(steps: np.ndarray, owners: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The union grid of n step functions given flat, one after another
    (``owners`` numbers them, and each starts at the common start), and
    every one's values on it, stacked along axis 1."""
    times, rows = np.unique(steps, return_inverse=True)
    # each cell takes the last step of its function at or before it; step
    # indices grow down each column, so a running maximum finds it
    latest = np.zeros((len(times), n), dtype=np.intp)
    latest[rows, owners] = np.arange(len(steps))
    return times, values[np.maximum.accumulate(latest, axis=0)]


def run_starts(values: np.ndarray) -> np.ndarray:
    """Per cell, whether it starts a run: the first row, or unequal to the row before."""
    starts = np.ones(values.shape, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def canonical(times: np.ndarray, values: np.ndarray, end_time: float) -> SpatioTemporalSignal:
    """The signal with +0.0 as its only zero and without rows that repeat the
    row before.  The reals have one zero, and IEEE gives ``-0.0 + 0.0 ==
    +0.0``, so adding +0.0 to a float array leaves every other value as it is.
    """
    if values.dtype.kind == "f":
        values = values + 0.0
    keep = run_starts(values).any(axis=1)
    return SpatioTemporalSignal(times[keep], values[keep], end_time)


def column_steps(times: np.ndarray, values: np.ndarray) -> list[tuple[tuple, tuple]]:
    """Per location, the times of its own steps (its first cell and every
    change) and its values there, as tuples of Python numbers."""
    starts = run_starts(values).T
    steps = np.broadcast_to(times, starts.shape)[starts].tolist()
    held = values.T[starts].tolist()
    bounds = [0] + np.cumsum(starts.sum(axis=1)).tolist()
    return [(tuple(steps[a:b]), tuple(held[a:b])) for a, b in zip(bounds, bounds[1:])]


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
        return self.grid[0].tolist()

    @cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The union step grid, and the variables on it as a read-only
        steps x locations x variables float64 array.  A NaN value is a
        ``SignalError`` naming its first cell; +-inf are values like any other."""
        times, data = _on_grid(self.signals, float)
        if np.isnan(data).any():
            k, loc, var = np.argwhere(np.isnan(data))[0].tolist()
            raise SignalError(
                f"location {loc} holds NaN for {self.variables[var]!r} at time {format_number(times[k].item())}"
            )
        data.flags.writeable = False
        return times, data


def load_trace(path: str) -> Trace:
    """Read a trace CSV: header location,time,<var...>, rows sorted by (location, time).

    Times and values must be finite numbers.  Each location keeps its own
    steps; ``Trace.grid`` puts them on one grid for the monitor.
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
    return Trace(variables, signals)


def save_trace(trace: Trace, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "time"] + list(trace.variables))
        for loc, sig in enumerate(trace.signals):
            for t, vals in zip(sig.times, sig.values):
                writer.writerow([loc, format_number(t)] + [format_number(v) for v in vals])
