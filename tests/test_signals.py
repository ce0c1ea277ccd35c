import csv
import math
import random
import warnings
from functools import cached_property
from itertools import chain

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strelmon import signals
from strelmon.algebra import boolean_domain
from strelmon.logic import format_number, parse
from strelmon.monitor import MonitorContext, monitor
from strelmon.scenarios import EpidemicConfig, ManetConfig, generate_manet, simulate_epidemic
from strelmon.space import DynamicalSpatialModel, build_spatial_model
from strelmon.signals import (
    SignalError,
    SpatioTemporalSignal,
    TemporalSignal,
    Trace,
    load_trace,
    save_trace,
)


def sig(steps, end):
    times, values = zip(*steps)
    return TemporalSignal(tuple(times), tuple(values), end)


def test_value_at_basic():
    s = sig([(0, "a")], 10)
    assert s.value_at(7) == "a"
    s2 = sig([(0, "a"), (5, "b")], 10)
    assert s2.value_at(5) == "b"  # steps are left-closed
    assert s2.value_at(4.999) == "a"
    assert s2.value_at(10) == "b"


def test_value_at_outside_domain():
    s = sig([(0, "a")], 10)
    with pytest.raises(SignalError):
        s.value_at(-0.1)
    with pytest.raises(SignalError):
        s.value_at(10.1)


def test_validation():
    with pytest.raises(SignalError):
        TemporalSignal((), (), 1.0)
    with pytest.raises(SignalError):
        TemporalSignal((0.0, 0.0), ("a", "b"), 1.0)
    with pytest.raises(SignalError):
        TemporalSignal((0.0, 2.0), ("a", "b"), 1.0)


def test_nan_end_time_is_rejected_as_from_arrays_rejects_it():
    with pytest.raises(SignalError) as got:
        TemporalSignal((0.0,), ((1.0,),), math.nan)
    with pytest.raises(SignalError) as want:
        Trace.from_arrays(("x",), [0.0], [[[1.0]]], math.nan)
    assert str(got.value) == str(want.value) == "end time nan precedes last step 0.0"
    with pytest.raises(SignalError, match="precedes last step nan"):
        TemporalSignal((math.nan,), (1,), 5.0)


def test_no_signals_is_a_signal_error():
    with pytest.raises(SignalError, match="at least one location"):
        Trace(("x",), ())
    with pytest.raises(SignalError, match="at least one location"):
        SpatioTemporalSignal.from_signals([])


def test_minimize():
    s = sig([(0, "a"), (3, "a"), (7, "b")], 9)
    m = s.minimize()
    assert m.times == (0, 7) and m.values == ("a", "b")
    assert m.minimize() is m  # idempotent


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8), st.data())
def test_minimize_preserves_value_at(values, data):
    times = tuple(float(i) for i in range(len(values)))
    s = TemporalSignal(times, tuple(values), float(len(values)))
    m = s.minimize()
    t = data.draw(st.floats(min_value=0, max_value=float(len(values))))
    assert m.value_at(t) == s.value_at(t)


def test_spatial_slice():
    st_sig = SpatioTemporalSignal.from_signals(
        (sig([(0, 1), (2, 5)], 4), sig([(0, 2)], 4))
    )
    assert st_sig.values_at(0) == [1, 2]
    assert st_sig.values_at(2) == [5, 2]  # slice sees the new step value
    rng = random.Random(0)
    for _ in range(20):
        t = rng.uniform(0, 4)
        assert st_sig.values_at(t) == [st_sig.value_at(loc, t) for loc in range(2)]


def test_trace_validation():
    good = Trace(("x",), (sig([(0, (1.0,))], 2),))
    assert good.location_count == 1
    with pytest.raises(SignalError):
        Trace(("x", "y"), (sig([(0, (1.0,))], 2),))
    with pytest.raises(SignalError, match="domains differ"):
        Trace(("x",), (sig([(0, (1.0,))], 2), sig([(0, (1.0,))], 3)))


def test_signal_built_trace_stores_float_start_and_end():
    """Integer step and end times give a signal-built trace the float start
    and end time that ``from_arrays`` gives, so a verdict over either trace
    has the same repr: the end time used to stay the int 4 and print as
    ``end_time=4``."""
    built = Trace(("x",), (TemporalSignal((0,), ((1.0,),), 4),))
    arrays = Trace.from_arrays(("x",), [0.0], [[[1.0]]], 4)
    assert (repr(built.start), repr(built.end_time)) == (repr(arrays.start), repr(arrays.end_time)) == ("0.0", "4.0")
    model = DynamicalSpatialModel.static(build_spatial_model(1, []))
    verdicts = [repr(monitor(MonitorContext(model, trace, boolean_domain()), parse("x > 0"))) for trace in (built, arrays)]
    assert verdicts[0] == verdicts[1]
    assert "end_time=4.0" in verdicts[0]


@pytest.mark.parametrize("bad", ["1.5", None, [1.0]], ids=["string", "none", "list"])
def test_signal_built_trace_rejects_values_that_are_not_numbers(bad):
    """A string, None or a list among a signal-built trace's values is one
    SignalError naming the location, the variable and the value, raised by
    the constructor: a string used to become a number in ``grid`` and stay
    a string in ``signals``, and None a NaN that no input held."""
    good = sig([(0.0, (1.0, 2.0)), (1.0, (1.5, 2.5))], 2.0)
    with pytest.raises(SignalError) as err:
        Trace(("x", "y"), (good, sig([(0.0, (1.0, 2.0)), (1.0, (3.0, bad))], 2.0)))
    assert str(err.value) == f"location 1 has a value for 'y' that is not a number: {bad!r}"
    # ints, bools, numpy scalars and other real numbers are numbers
    numbers = Trace(("x", "y"), (sig([(0, (1, True)), (1, (np.float64(0.5), np.int64(2)))], 2),))
    assert numbers.grid[1][:, 0].tolist() == [[1.0, 1.0], [0.5, 2.0]]


def test_trace_csv_roundtrip(tmp_path):
    t = Trace(
        ("x", "flag"),
        (
            sig([(0.0, (1.25, 1.0)), (2.0, (3.5, 0.0))], 4.0),
            sig([(0.0, (-0.75, 0.0)), (3.0, (6.0, 1.0))], 4.0),
        ),
    )
    path = tmp_path / "trace.csv"
    save_trace(t, str(path))
    back = load_trace(str(path))
    assert back.variables == t.variables
    for loc in range(2):
        assert back.signals[loc].times == t.signals[loc].times
        assert back.signals[loc].values == t.signals[loc].values


def test_trace_grid_rejects_nan_naming_its_first_cell():
    t = Trace(
        ("x", "y"),
        (
            sig([(0.0, (1.0, 2.0)), (2.0, (float("inf"), float("nan")))], 4.0),
            sig([(0.0, (0.0, 0.0)), (1.5, (float("nan"), -float("inf")))], 4.0),
        ),
    )
    with pytest.raises(SignalError) as err:
        t.grid
    assert str(err.value) == "location 1 holds NaN for 'x' at time 1.5"
    # +-inf are values like any other
    _, data = Trace(t.variables, (sig([(0.0, (float("inf"), -float("inf")))], 1.0),)).grid
    assert data.tolist() == [[[float("inf"), -float("inf")]]]


def test_load_trace_rejects_unsorted(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("location,time,x\n1,0,1\n0,0,1\n")
    with pytest.raises(SignalError):
        load_trace(str(path))


def test_load_trace_rejects_gap_in_locations(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("location,time,x\n0,0,1\n2,0,1\n")
    with pytest.raises(SignalError):
        load_trace(str(path))


# ---------------------------------------------------------------------------
# signal-built traces against the lazy stacking they replaced


def _check_same_domain_reference(signals):
    first = signals[0]
    for s in signals[1:]:
        if s.start != first.start or s.end_time != first.end_time:
            raise SignalError(
                f"signal domains differ: [{first.start}, {first.end_time}] vs [{s.start}, {s.end_time}]"
            )


def _stack_steps_reference(steps, owners, values, n):
    times, rows = np.unique(steps, return_inverse=True)
    latest = np.zeros((len(times), n), dtype=np.intp)
    latest[rows, owners] = np.arange(len(steps))
    return times, values[np.maximum.accumulate(latest, axis=0)]


def _check_no_nan_reference(variables, times, data):
    if np.isnan(data).any():
        k, loc, var = np.argwhere(np.isnan(data))[0].tolist()
        raise SignalError(
            f"location {loc} holds NaN for {variables[var]!r} at time {format_number(times[k].item())}"
        )


class LazyTraceReference:
    """``Trace(variables, signals)`` as it was: its checks, and ``grid``,
    ``own`` and (for an array-built trace) ``signals`` as it built them."""

    def __init__(self, variables, signals):
        variables, signals = tuple(variables), tuple(signals)
        if not variables:
            raise SignalError("trace needs at least one variable")
        _check_same_domain_reference(signals)
        n = len(variables)
        for loc, s in enumerate(signals):
            for v in s.values:
                if len(v) != n:
                    raise SignalError(
                        f"location {loc} has a step with {len(v)} values, expected {n}"
                    )
        self.variables, self.signals = variables, signals
        self.location_count, self.start, self.end_time = len(signals), signals[0].start, signals[0].end_time

    @cached_property
    def grid(self):
        signals, k = self.signals, len(self.variables)
        counts = [len(s.times) for s in signals]
        steps = np.fromiter(chain.from_iterable(s.times for s in signals), float, sum(counts))
        flat = chain.from_iterable(chain.from_iterable(s.values for s in signals))
        values = np.fromiter(flat, float, sum(counts) * k).reshape(-1, k)
        times, data = _stack_steps_reference(steps, np.repeat(np.arange(len(signals)), counts), values, len(signals))
        _check_no_nan_reference(self.variables, times, data)
        data.flags.writeable = False
        return times, data

    @cached_property
    def own(self):
        times = self.grid[0]
        own = np.zeros((len(times), self.location_count), dtype=bool)
        for loc, s in enumerate(self.signals):
            own[np.searchsorted(times, s.times), loc] = True
        return own

    def array_built_signals(self):
        (times, data), starts = self.grid, self.own.T
        steps = np.broadcast_to(times, starts.shape)[starts].tolist()
        held = list(map(tuple, data.swapaxes(0, 1)[starts].tolist()))
        bounds = [0] + np.cumsum(starts.sum(axis=1)).tolist()
        return tuple(
            TemporalSignal(tuple(steps[a:b]), tuple(held[a:b]), self.end_time)
            for a, b in zip(bounds, bounds[1:])
        )


# values of every kind a trace step may hold: Python ints (one above 2**53)
# and bools, signed zeros, infinities and numbers near the float range
TRACE_VALUES = (0, 1, -3, 2**53 + 1, True, False, 0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 0.1, 2.5)


def _signal_sets(count):
    """Seeded asynchronous per-location signals: a shared start (+0.0 at
    some locations and -0.0 at others when it is zero), own later steps,
    and, now and then, a late start, a value tuple of the wrong length or a
    NaN value."""
    rng = random.Random(2113)
    for case in range(count):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        start = rng.choice([0.0, -1.5, 1e-300, -1e300])
        later = [t for t in (0.1, 0.25, 1, 2.0**53, 1e300) if t > start]
        fault = case % 10
        sigs = []
        for loc in range(n):
            first = -0.0 if start == 0.0 and rng.random() < 0.5 else start
            times = (first, *sorted(rng.sample(later, rng.randint(0, len(later)))))
            sigs.append([times, [tuple(rng.choice(TRACE_VALUES) for _ in range(k)) for _ in times]])
        loc = rng.randrange(n)
        times, values = sigs[loc]
        if fault == 1 and n > 1 and len(times) > 1:
            sigs[loc] = [times[1:], values[1:]]
        elif fault == 2:
            values[-1] = values[-1] + (1.0,) if rng.random() < 0.5 else values[-1][:-1]
        elif fault == 3:
            values[-1] = values[-1][:-1] + (math.nan,)
        end = float(max(max(times) for times, _ in sigs) + rng.choice([0, 1]))
        variables = tuple(f"v{i}" for i in range(k))
        yield variables, [TemporalSignal(tuple(times), tuple(values), end) for times, values in sigs]


def _stacking_outcome(cls, variables, sigs):
    """The grid and own bytes of a signal-built trace and the signals of the
    array-built one, as reprs so that -0.0 differs from 0.0, or the error text."""
    try:
        trace = cls(variables, sigs)
        (times, data), own = trace.grid, trace.own
    except SignalError as exc:
        return str(exc)
    if cls is Trace:
        rebuilt = Trace.from_arrays(variables, times, data, trace.end_time, own).signals
    else:
        rebuilt = trace.array_built_signals()
    shapes = [(a.dtype.str, a.shape, a.flags.writeable) for a in (times, data, own)]
    return times.tobytes(), data.tobytes(), own.tobytes(), shapes, repr(rebuilt)


def test_signal_built_trace_equals_the_lazy_stacking_it_replaced():
    faults = ("signal domains differ", "values, expected", "holds NaN")
    met = set()
    for variables, sigs in _signal_sets(400):
        got = _stacking_outcome(Trace, variables, sigs)
        assert got == _stacking_outcome(LazyTraceReference, variables, sigs), (variables, sigs)
        if isinstance(got, str):
            met |= {fault for fault in faults if fault in got}
        else:
            assert Trace(variables, sigs).signals == tuple(sigs)
    assert met == set(faults)  # a late start, a wrong-length tuple and a NaN all occurred


# ---------------------------------------------------------------------------
# load_trace against the row loop


def row_loop_load_trace_reference(path: str) -> Trace:
    """``load_trace`` as one loop over the CSV rows: the reader that the
    columnar reader replaced, kept as the reference it must equal."""
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


def _reader_outcome(read, path):
    """What a reader makes of a file: the trace's variables, per-location
    signals and grid bytes, or the exception's type and text."""
    try:
        trace = read(path)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    times, data = trace.grid
    return trace, times.tobytes(), data.tobytes(), data.shape, trace.own.tobytes()


def _scenario_csvs(tmp_path):
    manet = generate_manet(ManetConfig(node_count=12, routers=4, end_devices=7, steps=6, seed=3))[2]
    epidemic = simulate_epidemic(EpidemicConfig(node_count=30, initial_infected=3, horizon_days=12, seed=2))[1]
    rng = random.Random(41)
    grid = [i / 10 for i in range(9)]
    steps = []
    for loc in range(5):
        # the file keeps no end time; location 0 steps at the end
        times = (0.0, *sorted(rng.sample(grid[1:-1], rng.randint(0, 7)))) + ((0.8,) if loc == 0 else ())
        values = tuple((rng.randint(-4, 4) / 4, float(rng.randint(0, 1))) for _ in times)
        steps.append(TemporalSignal(times, values, 0.8))
    asynchronous = Trace(("x", "y"), steps)
    paths = []
    for name, trace in (("manet", manet), ("epidemic", epidemic), ("asynchronous", asynchronous)):
        paths.append(str(tmp_path / f"{name}.csv"))
        save_trace(trace, paths[-1])
    return paths


READER_CORPUS = {
    "crlf": "location,time,x\r\n0,0,1\r\n0,1,2\r\n1,0,3\r\n",
    "lone-cr": "location,time,x\r0,0,1\r0,1,2\r1,0,3\r",
    "blank-lines": "location,time,x\n0,0,1\n\n0,1,2\n\n1,0,3\n\n",
    "whitespace-line": "location,time,x\n0,0,1\n \n1,0,3\n",
    "quoted-fields": 'location,time,x\n"0",0,1\n1,"0","3"\n',
    "quoted-header": 'location,time,"x,y"\n0,0,1\n1,0,3\n',
    "underscore": "location,time,x\n0,0,1_0\n1,0,3\n",
    "space-before-id": "location,time,x\n 0,0,1\n 1,0,3\n",
    "plus-sign": "location,time,x\n+0,+0,+1\n+1,0,3\n",
    "float-location": "location,time,x\n0,0,1\n3.0,0,3\n",
    "exponent-location": "location,time,x\n0,0,1\n1e0,0,3\n",
    "bare-dots": "location,time,x\n0,0,1.\n0,.5,2\n1,0,.5\n",
    "inf": "location,time,x\n0,0,inf\n1,0,3\n",
    "nan": "location,time,x\n0,0,1\n1,0,nan\n",
    "overflow": "location,time,x\n0,0,1e400\n1,0,3\n",
    "infinite-time": "location,time,x\n0,0,1\n0,1e400,2\n1,0,3\n",
    "comment-line": "location,time,x\n# a comment\n0,0,1\n1,0,3\n",
    "trailing-comma": "location,time,x\n0,0,1,\n1,0,3,\n",
    "short-row": "location,time,x,y\n0,0,1,2\n1,0,3\n",
    "empty-field": "location,time,x\n0,0,\n1,0,3\n",
    "header-only": "location,time,x\n",
    "empty-file": "",
    "bad-header": "loc,time,x\n0,0,1\n",
    "no-variables": "location,time\n0,0\n",
    "no-final-newline": "location,time,x\n0,0,1\n1,0,3",
    "unsorted-locations": "location,time,x\n1,0,1\n0,0,1\n",
    "unsorted-times": "location,time,x\n0,1,1\n0,0,1\n",
    "repeated-pair": "location,time,x\n0,0,1\n0,0,2\n1,0,3\n",
    "signed-zero-pair": "location,time,x\n0,0,1\n0,-0.0,2\n1,0,3\n",
    "gap-in-ids": "location,time,x\n0,0,1\n2,0,1\n",
    "negative-id": "location,time,x\n-1,0,1\n0,0,1\n",
    "negative-id-and-gap": "location,time,x\n-2,0,1\n1,0,1\n",
    "huge-id": "location,time,x\n0,0,1\n99999999999999999999,0,3\n",
    "late-start": "location,time,x\n0,0,1\n1,0.5,3\n",
    "negative-start": "location,time,x\n0,-1.5,1\n0,2,4\n1,-1.5,3\n",
    "nul-byte": "location,time,x\n0,0,1\x00\n1,0,3\n",
    "fullwidth-digit": "location,time,x\n0,0,３\n1,0,3\n",
}


@pytest.mark.parametrize("name", sorted(READER_CORPUS))
def test_load_trace_equals_row_loop_on_corpus(name, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(READER_CORPUS[name], newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _reader_outcome(load_trace, str(path))
    assert got == _reader_outcome(row_loop_load_trace_reference, str(path))
    assert not caught  # a numpy warning sends the file to the row loop, not to the caller


def test_load_trace_reads_clean_files_in_one_pass(tmp_path, monkeypatch):
    """The manet, epidemic and asynchronous CSVs, and CRLF, blank-line and
    signed files, give the row loop's trace without reaching the row loop."""
    paths = _scenario_csvs(tmp_path)
    for name in ("crlf", "lone-cr", "blank-lines", "space-before-id", "plus-sign", "bare-dots",
                 "no-final-newline", "negative-start", "quoted-header"):
        paths.append(str(tmp_path / f"{name}.csv"))
        with open(paths[-1], "w", newline="") as fh:
            fh.write(READER_CORPUS[name])
    wants = [_reader_outcome(row_loop_load_trace_reference, path) for path in paths]

    def no_row_loop(path):
        raise AssertionError(f"{path} was read row by row")

    monkeypatch.setattr(signals, "_load_rows", no_row_loop)
    for path, want in zip(paths, wants):
        got = _reader_outcome(load_trace, path)
        assert isinstance(got[0], Trace) and got == want, path


def test_load_trace_equals_row_loop_on_mutated_files(tmp_path):
    """Seeded edits of small files, with characters that either reader may
    treat differently, give the same trace or the same error."""
    rng = random.Random(1811)
    bases = [
        "location,time,x,y\n0,0,1,2\n0,0.5,3,4\n1,0,5,6\n1,1.5,7,8\n",
        "location,time,x\n0,0,1\n1,0,0\n2,0,1\n",
        "location,time,a\r\n0,0,1\r\n0,1,2\r\n1,0,3\r\n",
    ]
    alphabet = list("0123456789,.-+eE\n\r \t\"#_") + ["inf", "nan", "1e400", "\x00", "\x85", "３", "\n\n"]
    path = str(tmp_path / "trace.csv")
    parsed = 0
    for _ in range(3000):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            edit = rng.random()
            if edit < 0.4:
                text = text[:k] + rng.choice(alphabet) + text[k:]
            elif edit < 0.7:
                text = text[:k] + text[k + 1:]
            else:
                text = text[:k] + rng.choice(alphabet) + text[k + 1:]
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got = _reader_outcome(load_trace, path)
        assert got == _reader_outcome(row_loop_load_trace_reference, path), repr(text)
        parsed += isinstance(got[0], Trace)
    assert parsed > 100  # the edits leave many files readable


# ---------------------------------------------------------------------------
# array-built traces


def test_from_arrays_equals_the_signal_built_trace():
    times = np.array([0.0, 1.0, 2.5])
    data = np.array([[[1.0, 0.0], [2.0, 1.0]], [[1.0, 0.0], [3.0, 1.0]], [[4.0, 1.0], [3.0, 1.0]]])
    own = np.array([[True, True], [True, True], [True, False]])
    got = Trace.from_arrays(("x", "y"), times, data, 4.0, own)
    want = Trace(("x", "y"), (
        sig([(0.0, (1.0, 0.0)), (1.0, (1.0, 0.0)), (2.5, (4.0, 1.0))], 4.0),
        sig([(0.0, (2.0, 1.0)), (1.0, (3.0, 1.0))], 4.0),
    ))
    assert got == want and got.signals == want.signals
    assert got.own.tolist() == want.own.tolist() == own.tolist()
    for a, b in zip(got.grid, want.grid):
        assert a.tobytes() == b.tobytes() and a.shape == b.shape
    assert not got.grid[1].flags.writeable
    assert (got.location_count, got.start, got.end_time, got.step_times()) == (2, 0.0, 4.0, [0.0, 1.0, 2.5])
    every = Trace.from_arrays(("x", "y"), times, data, 4.0)
    assert every.own.all() and [s.times for s in every.signals] == [(0.0, 1.0, 2.5)] * 2
    assert every != got


def test_from_arrays_validation():
    times, data = np.array([0.0, 1.0]), np.zeros((2, 3, 1))
    cases = [
        ((), times, data, 1.0, None, "trace needs at least one variable"),
        (("x",), np.zeros(0), np.zeros((0, 3, 1)), 1.0, None, "nonempty 1-d array"),
        (("x", "y"), times, data, 1.0, None, r"shape \(2, 3, 1\), expected \(2, locations, 2\)"),
        (("x",), times, np.zeros((2, 0, 1)), 1.0, None, "expected"),
        (("x",), np.array([0.0, 0.0]), data, 1.0, None, "strictly increase, got 0.0 then 0.0"),
        (("x",), np.array([0.0, math.nan]), data, 1.0, None, "strictly increase"),
        (("x",), times, data, 0.5, None, "end time 0.5 precedes last step 1.0"),
        (("x",), times, data, 1.0, np.ones((2, 2), dtype=bool), "mask"),
        (("x",), times, data, 1.0, [[True, False, True], [True, True, True]], "first row is all true"),
        (("x",), times, np.arange(6.0).reshape(2, 3, 1), 1.0, [[1, 1, 1], [1, 0, 1]], "only at its own steps"),
    ]
    for variables, t, d, end, own, message in cases:
        with pytest.raises(SignalError, match=message):
            Trace.from_arrays(variables, t, d, end, own)
    nan = np.array([[[1.0, 2.0]], [[0.0, math.nan]]])
    with pytest.raises(SignalError) as err:
        Trace.from_arrays(("x", "y"), np.array([0.0, 1.5]), nan, 2.0)
    assert str(err.value) == "location 0 holds NaN for 'y' at time 1.5"


def test_from_arrays_copies_its_inputs():
    times, data = np.array([0.0]), np.ones((1, 2, 1))
    trace = Trace.from_arrays(("x",), times, data, 1.0)
    data[0, 0, 0] = 5.0
    assert data.flags.writeable and trace.grid[1].tolist() == [[[1.0], [1.0]]]


# ---------------------------------------------------------------------------
# the trace writer


def row_loop_save_trace_reference(trace: Trace, path: str) -> None:
    """``save_trace`` as the row loop over ``Trace.signals`` that it replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "time"] + list(trace.variables))
        for loc, sig in enumerate(trace.signals):
            for t, vals in zip(sig.times, sig.values):
                writer.writerow([loc, format_number(t)] + [format_number(v) for v in vals])


# one value per format_number branch: the infinities, integral values below
# 1e16 in magnitude (signed zeros included), and everything else as repr
EDGE_VALUES = (
    0.0, -0.0, math.inf, -math.inf, 1e16, -1e16, math.nextafter(1e16, 0.0), 2.0**53, -(2.0**53),
    1e-300, -1e-300, 0.1, -0.1, 0.5, 3.0, -7.0, 1e300, 5e-324, 123456789.125,
)


def _writer_traces():
    manet = generate_manet(ManetConfig(node_count=12, routers=4, end_devices=7, steps=6, seed=3))[2]
    wide = generate_manet(ManetConfig(node_count=100, routers=30, end_devices=69, side=10 * math.sqrt(5), steps=14))[2]
    epidemic = simulate_epidemic(EpidemicConfig(node_count=30, initial_infected=3, horizon_days=12, seed=2))[1]
    rng = random.Random(7)
    steps = []
    for loc in range(6):
        times = (-1.5, *sorted(rng.sample([-0.0, 0.1, 0.25, 1.0, 2.0**53, 1e16], rng.randint(0, 6))))
        steps.append(TemporalSignal(times, tuple((rng.choice(EDGE_VALUES), rng.choice(EDGE_VALUES)) for _ in times), 1e17))
    asynchronous = Trace(("x", "y"), steps)
    python_numbers = Trace(("i,j", 'q"'), (sig([(0, (1, True)), (2, (-3, False))], 5), sig([(0, (0, 0.5))], 5)))
    own = np.array([[True, True, True], [False, True, True], [True, False, True], [False, False, True]])
    data, picks = np.zeros((4, 3, 1)), iter(EDGE_VALUES[::-1])
    for k, loc in np.ndindex(own.shape):
        data[k, loc] = next(picks) if own[k, loc] else data[k - 1, loc]
    array_built = Trace.from_arrays(("v",), [0.0, 0.1, 1e-300 + 1.0, 2.0**53], data, 2.0**53, own)
    every = Trace.from_arrays(("v",), np.arange(len(EDGE_VALUES), dtype=float), np.array(EDGE_VALUES)[:, None, None], 99.0)
    return {
        "manet": manet, "manet-benchmark-size": wide, "epidemic": epidemic, "asynchronous": asynchronous,
        "python-numbers": python_numbers, "array-built-asynchronous": array_built, "every-edge-value": every,
    }


@pytest.mark.parametrize("name", ["manet", "manet-benchmark-size", "epidemic", "asynchronous",
                                  "python-numbers", "array-built-asynchronous", "every-edge-value"])
def test_save_trace_equals_row_loop(name, tmp_path):
    """The rows written from ``grid`` and ``own`` are the row loop's bytes."""
    trace = _writer_traces()[name]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_trace(trace, str(got))
    row_loop_save_trace_reference(trace, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_save_trace_hits_every_format_number_branch(tmp_path):
    trace = _writer_traces()["every-edge-value"]
    path = tmp_path / "trace.csv"
    save_trace(trace, str(path))
    written = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert written == [
        "0", "0", "inf", "-inf", "1e+16", "-1e+16", "9999999999999998", "9007199254740992", "-9007199254740992",
        "1e-300", "-1e-300", "0.1", "-0.1", "0.5", "3", "-7", "1e+300", "5e-324", "123456789.125",
    ]
