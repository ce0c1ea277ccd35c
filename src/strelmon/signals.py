"""Piecewise-constant signals over time, space, and both.

A temporal signal is a step function given by breakpoints: the value set at
time ``t_i`` holds on ``[t_i, t_{i+1})`` and the last value holds through the
closed end of the domain.  A spatio-temporal signal (a verdict per location
and time) is stored as columns: one step grid shared by every location and
a steps x locations array, with canonical runs; its per-location temporal
signals are built on demand, only for output.  Traces are vector-valued
inputs, stored the same way: one step grid and a steps x locations x
variables array for the monitor's atoms, plus a mask of each location's own
steps, from which its temporal signal is built on demand (for the oracle
and equality).  Per-location signals and CSV rows are stacked into those
columns by one function, ``_from_steps``, and written to CSV as columns by
``save_trace``, which writes a verdict as the trace of one variable.
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Real
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
        if not self.end_time >= self.times[-1]:
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


def _check_same_domain(domains: Sequence[tuple[float, float]]) -> None:
    """Every location's (start, end) is the first one's, and there is one."""
    if not domains:
        raise SignalError("a signal needs at least one location")
    (start, end), *rest = domains
    for s, e in rest:
        if s != start or e != end:
            raise SignalError(f"signal domains differ: [{start}, {end}] vs [{s}, {e}]")


def _flat_steps(signals: Sequence[TemporalSignal]) -> tuple[np.ndarray, np.ndarray, list]:
    """The signals' steps one after another: their times, the index of the
    signal each belongs to, and their values as a list."""
    values = list(chain.from_iterable(s.values for s in signals))
    steps = np.fromiter(chain.from_iterable(s.times for s in signals), float, len(values))
    return steps, np.repeat(np.arange(len(signals)), [len(s.times) for s in signals]), values


@dataclass(frozen=True, eq=False)
class SpatioTemporalSignal:
    """One verdict per (time, location), stored as columns.

    ``times`` is a strictly increasing float64 array of step times shared by
    every location and ``values`` a ``len(times)`` x n array, bool for
    Boolean verdicts and float64 for quantitative ones: row k holds on
    ``[times[k], times[k+1])`` and the last row through ``end_time``.  The
    values are canonical (``canonical``): a float array holds no -0.0, so
    equal values are equal bit for bit, and no row repeats the row before.
    Both arrays are read-only, as a trace's data is: a context keeps the
    verdicts it returns (``MonitorContext.verdicts``).
    """

    times: np.ndarray
    values: np.ndarray
    end_time: float

    def __post_init__(self):
        self.times.flags.writeable = False
        self.values.flags.writeable = False

    @classmethod
    def from_signals(cls, signals: Sequence[TemporalSignal]) -> "SpatioTemporalSignal":
        """Per-location signals sharing one domain, on the union of their grids."""
        _check_same_domain([(s.start, s.end_time) for s in signals])
        steps, owners, values = _flat_steps(signals)
        times, _, stacked = stack_steps(steps, owners, np.array(values), len(signals))
        return canonical(times, stacked, signals[0].end_time)

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
            for times, values in column_steps(self.times, self.values, run_starts(self.values))
        )


def stack_steps(steps: np.ndarray, owners: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The union grid of n step functions given flat, one after another
    (``owners`` numbers them, and each starts at the common start), the
    grid row of each step, and every function's values on the grid,
    stacked along axis 1."""
    times, rows = np.unique(steps, return_inverse=True)
    # each cell takes the last step of its function at or before it; step
    # indices grow down each column, so a running maximum finds it
    latest = np.zeros((len(times), n), dtype=np.intp)
    latest[rows, owners] = np.arange(len(steps))
    return times, rows, values[np.maximum.accumulate(latest, axis=0)]


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


def column_steps(times: np.ndarray, values: np.ndarray, starts: np.ndarray) -> list[tuple[tuple, tuple]]:
    """Per location (axis 1 of ``values``), the times of the cells that the
    steps x locations mask ``starts`` marks (``run_starts``, or a trace's own
    steps) and its values there, as tuples of Python numbers (lists for a
    vector value)."""
    starts = starts.T
    steps = np.broadcast_to(times, starts.shape)[starts].tolist()
    held = values.swapaxes(0, 1)[starts].tolist()
    bounds = [0] + np.cumsum(starts.sum(axis=1)).tolist()
    return [(tuple(steps[a:b]), tuple(held[a:b])) for a, b in zip(bounds, bounds[1:])]


class Trace:
    """Vector-valued input signals: per location, a tuple of variable values
    at each of its own steps.

    The trace is stored as columns: ``grid`` is the union step grid of all
    locations (float64) and a read-only steps x locations x variables
    float64 array on it, ``own`` a steps x locations bool mask of the cells
    where a location has a step of its own (its first row all true), and
    ``end_time`` the closed end of the domain.  ``Trace.from_arrays`` takes
    the columns and checks them.  Steps given flat reach it through
    ``_from_steps``: the CSV reader's rows, and the per-location signals of
    ``Trace(variables, signals)``, whose value tuples are checked at once
    (their lengths, and that every value is a real number) and stacked on
    the first ``grid`` or ``own`` access.  Either way ``signals`` gives each
    location's own steps as a ``TemporalSignal`` of value tuples, built on
    demand for an array-built trace, and two traces are equal when their
    variables and per-location signals are.
    """

    def __init__(self, variables: Sequence[str], signals: Sequence[TemporalSignal]):
        variables, signals = tuple(variables), tuple(signals)
        if not variables:
            raise SignalError("trace needs at least one variable")
        _check_same_domain([(s.start, s.end_time) for s in signals])
        n = len(variables)
        for loc, s in enumerate(signals):
            for v in s.values:
                if len(v) != n:
                    raise SignalError(
                        f"location {loc} has a step with {len(v)} values, expected {n}"
                    )
            # one pass in C: ints and floats add up to an int or a float, and only
            # when another type shows up (as a TypeError or in the sum) is each value looked at
            try:
                plain = type(sum(chain.from_iterable(s.values))) in (int, float)
            except TypeError:
                plain = False
            if not plain:
                for v in s.values:
                    for name, x in zip(variables, v):
                        if not isinstance(x, (Real, np.bool_)):
                            raise SignalError(f"location {loc} has a value for {name!r} that is not a number: {x!r}")
        self.variables, self.signals = variables, signals
        self.location_count, self.start, self.end_time = len(signals), float(signals[0].start), float(signals[0].end_time)

    @classmethod
    def from_arrays(cls, variables: Sequence[str], times, data, end_time: float, own=None) -> "Trace":
        """The trace whose union step grid is ``times``, whose steps x
        locations x variables values are ``data`` and whose domain ends at
        ``end_time``.  ``own`` marks each location's own steps, and a
        location's values change only there; without it every location
        steps at every time.  A NaN value is a ``SignalError`` naming its
        first cell; +-inf are values like any other."""
        variables = tuple(variables)
        if not variables:
            raise SignalError("trace needs at least one variable")
        times, data = np.array(times, dtype=float), np.array(data, dtype=float)
        if times.ndim != 1 or not len(times):
            raise SignalError(f"trace times must be a nonempty 1-d array, got shape {times.shape}")
        if data.ndim != 3 or data.shape[0] != len(times) or not data.shape[1] or data.shape[2] != len(variables):
            raise SignalError(
                f"trace data has shape {data.shape}, expected ({len(times)}, locations, {len(variables)})"
            )
        backward = np.flatnonzero(~(times[1:] > times[:-1]))
        if len(backward):
            a, b = times[backward[0]:][:2].tolist()
            raise SignalError(f"step times must strictly increase, got {a} then {b}")
        end_time = float(end_time)
        if not end_time >= times[-1]:
            raise SignalError(f"end time {end_time} precedes last step {times[-1].item()}")
        own = np.ones(data.shape[:2], dtype=bool) if own is None else np.array(own, dtype=bool)
        if own.shape != data.shape[:2] or not own[0].all():
            raise SignalError(f"own steps must be a {data.shape[:2]} mask whose first row is all true")
        if np.isnan(data).any():
            k, loc, var = np.argwhere(np.isnan(data))[0].tolist()
            at = format_number(times[k].item())
            raise SignalError(f"location {loc} holds NaN for {variables[var]!r} at time {at}")
        if not (own[1:, :, None] | (data[1:] == data[:-1])).all():
            raise SignalError("a location's values change only at its own steps")
        data.flags.writeable = False
        trace = cls.__new__(cls)
        trace.variables, trace.grid, trace.own = variables, (times, data), own
        trace.location_count, trace.start, trace.end_time = data.shape[1], times[0].item(), end_time
        return trace

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.variables == other.variables and self.signals == other.signals

    def step_times(self) -> list[float]:
        return self.grid[0].tolist()

    @cached_property
    def _stacked(self) -> "Trace":
        steps, owners, values = _flat_steps(self.signals)
        k = len(self.variables)
        flat = np.fromiter(chain.from_iterable(values), float, len(values) * k).reshape(-1, k)
        return _from_steps(self.variables, steps, owners, flat, self.location_count, self.end_time)

    # stacked on first use for a signal-built trace; from_arrays sets both directly
    grid = cached_property(lambda self: self._stacked.grid)
    own = cached_property(lambda self: self._stacked.own)

    @cached_property
    def signals(self) -> tuple[TemporalSignal, ...]:
        """Per location, its own steps and the value tuples there."""
        return tuple(
            TemporalSignal(times, tuple(map(tuple, values)), self.end_time)
            for times, values in column_steps(*self.grid, self.own)
        )


def _from_steps(variables: tuple[str, ...], steps, owners, values, n: int, end_time: float) -> Trace:
    """The trace of n locations whose steps are given flat, location by
    location (as ``stack_steps`` takes them), checked by ``from_arrays``.
    A location's own steps are the grid rows its steps fall on, so one that
    starts after the others leaves a gap in the first row, which
    ``from_arrays`` rejects."""
    times, rows, data = stack_steps(steps, owners, values, n)
    own = np.zeros(data.shape[:2], dtype=bool)
    own[rows, owners] = True
    return Trace.from_arrays(variables, times, data, end_time, own)


def load_trace(path: str) -> Trace:
    """Read a trace CSV: header location,time,<var...>, rows sorted by (location, time).

    Times and values must be finite numbers.  Each location keeps its own
    steps (``Trace.own``).  The rows are parsed as whole columns; a file
    that fails there in any way, by an error, a warning or a check, is read
    again one row at a time, which accepts the same files and names the
    first bad line of any other.  Both readers end in ``_from_steps``.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = _load_columns(path)
    except Exception:  # whatever went wrong, the row loop meets it again and reports it
        trace = None
    return _load_rows(path) if trace is None else trace


def _load_columns(path: str) -> Trace | None:
    """The trace in ``path`` from one ``np.loadtxt`` pass, checked as
    ``_load_rows`` checks it, or None where a check fails."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or len(header) < 3 or header[0] != "location" or header[1] != "time":
            return None
        variables = tuple(header[2:])
        fields = [("location", np.int64), ("time", float), ("values", float, (len(variables),))]
        rows = np.loadtxt(fh, dtype=np.dtype(fields), delimiter=",", comments=None, ndmin=1)
    loc, t, values = rows["location"], rows["time"], rows["values"]
    later, same = loc[1:] > loc[:-1], loc[1:] == loc[:-1]
    firsts = np.flatnonzero(np.concatenate(([True], later)))
    # sorted by (location, time) with ids 0..n-1, and every number finite
    if not (
        loc[0] == 0 and loc[-1] == len(firsts) - 1 and (later | same & (t[1:] > t[:-1])).all()
        and np.isfinite(t).all() and np.isfinite(values).all()
    ):
        return None
    return _from_steps(variables, t, loc, values, len(firsts), t.max())


def _load_rows(path: str) -> Trace:
    """``load_trace`` one row at a time, raising at the first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SignalError(f"{path}: empty trace file") from None
        if len(header) < 3 or header[0] != "location" or header[1] != "time":
            raise SignalError(f"{path}: header must be location,time,<variables...>")
        variables = tuple(header[2:])
        rows: list[tuple[int, float, tuple[float, ...]]] = []
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
            if rows and (loc, t) <= rows[-1][:2]:
                raise SignalError(f"{path}:{lineno}: rows must be sorted by (location, time)")
            rows.append((loc, t, vals))
    if not rows:
        raise SignalError(f"{path}: no data rows")
    owners, steps, values = zip(*rows)
    firsts = [k for k in range(len(owners)) if k == 0 or owners[k] != owners[k - 1]]
    locations = [owners[k] for k in firsts]
    if locations != list(range(len(locations))):
        raise SignalError(f"{path}: locations must be contiguous ids 0..n-1, got {locations}")
    end = max(steps[k - 1] for k in firsts[1:] + [len(steps)])
    _check_same_domain([(steps[k], end) for k in firsts])
    return _from_steps(variables, np.array(steps), np.array(owners), np.array(values), len(firsts), end)


def save_trace(trace: Trace, path: str) -> None:
    """Write the trace CSV that ``load_trace`` reads: a row per own step of
    each location, location by location, every number as ``format_number``
    prints it, from ``grid`` and ``own``, each distinct number formatted
    once.  Verdicts are written here too (``write_signal_csv``)."""
    (times, data), (loc, k) = trace.grid, np.nonzero(trace.own.T)
    cells = np.column_stack((times[k], data[k, loc]))
    distinct, index = np.unique(cells.ravel(), return_inverse=True)
    text = np.array([format_number(x) for x in distinct.tolist()], dtype=object)[index.reshape(cells.shape)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "time"] + list(trace.variables))
        writer.writerows(zip(loc.tolist(), *text.T.tolist()))


def write_signal_csv(sig: SpatioTemporalSignal, path: str) -> None:
    """Write a verdict as the trace of one variable, ``value``, stepping at its run starts."""
    save_trace(Trace.from_arrays(("value",), sig.times, sig.values[:, :, None], sig.end_time, run_starts(sig.values)), path)
