import dataclasses
import gc
import importlib
import json
import math
import random
import weakref
from bisect import bisect_right
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_array

from conftest import (
    deadline,
    compare_spatiotemporal,
    left_nested_surround,
    make_network16_ctx,
    network16_model,
    path3_ctx,
    random_formula,
    random_instance,
    random_model,
    standard_distances,
)
from strelmon.algebra import SignalDomain, boolean_domain, maxmin_domain
from strelmon.logic import (
    And,
    Atomic,
    Eventually,
    Globally,
    Interval,
    Not,
    Or,
    Since,
    UNBOUNDED,
    Until,
    desugar,
    format_number,
    iter_subformulas,
    parse,
)
from strelmon.monitor import (
    _BOUNDS,
    MAX_FLOOD_ROUNDS,
    MonitorContext,
    SemanticError,
    _flood,
    _reached_within,
    _undominated,
    _verdicts,
    bounded_reach,
    escape,
    monitor,
    reach,
    satisfied_locations,
    unbounded_reach,
)
from strelmon.oracle import (
    dense_unbounded_reach,
    oracle_monitor,
    simple_path_escape,
    walk_reach,
)
from strelmon.scenarios import EpidemicConfig, epidemic_interpretation, safe_radius, simulate_epidemic
from strelmon.signals import (
    SignalError,
    SpatioTemporalSignal,
    TemporalSignal,
    Trace,
    canonical,
    load_trace,
    run_starts,
    save_trace,
    stack_steps,
)
from strelmon.space import (
    DistanceFunction,
    DynamicalSpatialModel,
    SpatialModel,
    build_spatial_model,
    hop_distance,
    min_distance_matrix,
    undirected_model,
    weight_sum_distance,
)


def sig(steps, end):
    times, values = zip(*steps)
    return TemporalSignal(tuple(times), tuple(values), end)


BOOL = boolean_domain()
QUANT = maxmin_domain()
# the package re-exports the function ``monitor`` under the module's name
engine = importlib.import_module("strelmon.monitor")


def one_zero(values):
    """The values with -0.0 read as +0.0 and every other value as it is: the
    mapping under which the references, which keep whichever zero their tie
    rules find, are compared with the one-zero engine."""
    return [v + 0.0 if isinstance(v, float) else v for v in values]


# ---------------------------------------------------------------------------
# until / since


def _one_location(future):
    """The engine's sweep on one location, as a function of two temporal
    signals: every step of either input, merged over their common domain,
    counts as an own step, so the sweep reads each listed step."""

    def sweep(interval, s1, s2):
        t0, t_end = max(s1.start, s2.start), min(s1.end_time, s2.end_time)
        if t0 > t_end:
            raise SemanticError("signals have no common time domain")
        steps = [t0] + sorted(t for t in set(s1.times).union(s2.times) if t0 < t <= t_end)
        v1, v2 = (np.array([[s.value_at(t)] for t in steps]) for s in (s1, s2))
        own = np.ones(v1.shape, dtype=bool)
        out = engine._temporal_sweep(
            interval, np.array(steps, dtype=float), v1, v2, own, t_end, future
        )
        return out.signals[0]

    return sweep


monitor_until, monitor_since = _one_location(True), _one_location(False)


def test_until_with_constant_true_left_is_sliding_max():
    s1 = sig([(0, True)], 4)
    s2 = sig([(0, False), (1, True), (2, False)], 4)
    out = monitor_until(Interval(0, 1), s1, s2)
    # true exactly while the window [t, t+1] overlaps [1, 2)
    assert out.value_at(0) is True
    assert out.value_at(1.5) is True
    assert out.value_at(2.25) is False
    assert out.end_time == 3


def test_until_with_bottom_right_is_bottom():
    s1 = sig([(0, True), (1, False)], 4)
    s2 = sig([(0, False)], 4)
    out = monitor_until(Interval(0, 2), s1, s2)
    assert all(v is False for v in out.values)


def test_until_point_window():
    s1 = sig([(0, 5.0)], 4)
    s2 = sig([(0, 1.0), (2, 3.0)], 4)
    out = monitor_until(Interval(1, 1), s1, s2)
    assert out.value_at(0) == 1.0
    assert out.value_at(1) == 3.0  # window point t+1 = 2 sits on the step
    assert out.end_time == 3


def test_until_empty_domain_is_an_error():
    s1 = sig([(0, True)], 1)
    s2 = sig([(0, True)], 1)
    with pytest.raises(SemanticError):
        monitor_until(Interval(0, 2), s1, s2)


def until_dense_oracle(interval, s1, s2, domain, t):
    lo = interval.lo
    hi = interval.hi if interval.hi is not None else s1.end_time - t
    grid = sorted(set(s1.times) | set(s2.times))
    w_lo, w_hi = t + lo, t + hi
    samples = {w_lo, w_hi} | {u for u in grid if w_lo <= u <= w_hi}
    acc = domain.bottom
    for tp in sorted(samples):
        inner = {t, tp} | {u for u in grid if t <= u <= tp}
        prod = domain.top
        for u in inner:
            prod = min(prod, s1.value_at(u))
        acc = max(acc, min(s2.value_at(tp), prod))
    return acc


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_until_matches_dense_oracle(domain):
    rng = random.Random(77)
    for _ in range(120):
        k1 = rng.randint(1, 6)
        k2 = rng.randint(1, 6)
        times1 = sorted(rng.sample([i / 8 for i in range(17)], k1))
        times2 = sorted(rng.sample([i / 8 for i in range(17)], k2))
        times1[0] = times2[0] = 0.0
        end = 2.0

        def vals(k):
            if domain is BOOL:
                return tuple(rng.random() < 0.5 for _ in range(k))
            return tuple(rng.randint(-8, 8) / 4 for _ in range(k))

        s1 = TemporalSignal(tuple(dict.fromkeys(times1)), vals(len(dict.fromkeys(times1))), end)
        s2 = TemporalSignal(tuple(dict.fromkeys(times2)), vals(len(dict.fromkeys(times2))), end)
        lo = rng.choice([0, 0.125, 0.25])
        hi = lo + rng.choice([0, 0.125, 0.5, 0.75])
        interval = Interval(lo, hi)
        out = monitor_until(interval, s1, s2)
        probes = list(out.times) + [
            (a + b) / 2 for a, b in zip(out.times, out.times[1:])
        ] + [out.end_time]
        for t in probes:
            assert out.value_at(t) == until_dense_oracle(interval, s1, s2, domain, t)


def dense_until_on_functions(lo, hi, f1, f2, breakpoints, t, window_end):
    """Until at one time for arbitrary piecewise-constant callables.

    Sampling at window endpoints, breakpoints and the midpoints between
    consecutive samples captures every attained value whatever the open or
    closed convention of the callables.
    """
    w_lo, w_hi = t + lo, t + hi

    def dense(points_lo, points_hi):
        pts = {points_lo, points_hi}
        pts.update(b for b in breakpoints if points_lo <= b <= points_hi)
        ordered = sorted(pts)
        mids = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
        return sorted(set(ordered + mids))

    acc = -math.inf
    for tp in dense(w_lo, w_hi):
        prod = math.inf
        for u in dense(t, tp):
            prod = min(prod, f1(u))
        acc = max(acc, min(f2(tp), prod))
    return acc


def test_since_mirrors_until_under_time_reversal():
    # since(v1, v2) at t equals until at end - t on the time-reversed signals;
    # the reversal of a left-closed step function is right-closed, so the
    # reversed side is evaluated densely as a plain function of time
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randint(1, 5)
        times = sorted(set([0.0] + rng.sample([i / 8 for i in range(1, 17)], k)))
        end = 2.0
        v1 = tuple(rng.randint(-8, 8) / 4 for _ in times)
        v2 = tuple(rng.randint(-8, 8) / 4 for _ in times)
        s1 = TemporalSignal(tuple(times), v1, end)
        s2 = TemporalSignal(tuple(times), v2, end)
        lo = rng.choice([0, 0.125])
        hi = lo + rng.choice([0.125, 0.25])
        interval = Interval(lo, hi)
        rev1 = lambda u: s1.value_at(end - u)
        rev2 = lambda u: s2.value_at(end - u)
        breakpoints = sorted({end - t for t in times} | {0.0, end})
        out_since = monitor_since(interval, s1, s2)
        probes = list(out_since.times) + [
            (a + b) / 2 for a, b in zip(out_since.times, out_since.times[1:])
        ] + [out_since.end_time]
        for t in probes:
            want = dense_until_on_functions(
                lo, hi, rev1, rev2, breakpoints, end - t, end
            )
            assert out_since.value_at(t) == want


def test_since_trivial_cases():
    s_top = sig([(0, True)], 4)
    s2 = sig([(0, False), (1, True)], 4)
    out = monitor_since(Interval(0, 1), s_top, s2)
    # past window [t-1, t] overlaps [1, ...) from t = 1 on
    assert out.start == 1
    assert out.value_at(1) is True
    both_top = monitor_since(Interval(0, 1), s_top, s_top)
    assert all(v is True for v in both_top.values)


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_infinite_upper_bound_runs_to_the_trace_edge(domain):
    """An upper bound of inf is the unbounded window, like the omitted one:
    until and since lose only the lower bound and fold to the trace edge.
    (Interval(lo, inf) used to lose inf and raise an empty domain.)"""
    rng = random.Random(1301)
    for _ in range(40):
        grid = [i / 8 for i in range(rng.randint(2, 17))]
        pool = [False, True] if domain is BOOL else [-1.0, 0.0, 0.5, 2.0, math.inf]

        def signal():
            times = [0.0] + sorted(rng.sample(grid[1:-1], rng.randint(0, len(grid) - 2)))
            return TemporalSignal(tuple(times), tuple(rng.choice(pool) for _ in times), grid[-1])

        s1, s2 = signal(), signal()
        lo = rng.choice([0, 1, 3]) / 8
        if lo > grid[-1]:
            continue
        for kernel, reference in ((monitor_until, until_reference), (monitor_since, since_reference)):
            got = kernel(Interval(lo, math.inf), s1, s2)
            assert got == kernel(Interval(lo, None), s1, s2)
            want = reference(Interval(lo, math.inf), s1, s2, domain)
            assert (got.times, one_zero(got.values), got.end_time) == (
                want.times, one_zero(want.values), want.end_time
            )
            assert got.end_time == (grid[-1] - lo if kernel is monitor_until else grid[-1])
            assert got.start == (0.0 if kernel is monitor_until else lo)


def test_equal_unbounded_intervals_share_one_evaluation(monkeypatch):
    """Interval(0, None) and Interval(0, inf) are one interval, so the two
    conjuncts of F[0,None] p & F[0,inf] p are one cached subformula."""
    calls = []

    def counting(*args):
        calls.append(args[0])
        return until(*args)

    until = engine.monitor_until
    monkeypatch.setattr(engine, "monitor_until", counting)
    trace = Trace(("p",), (sig([(0.0, (0.0,)), (1.0, (1.0,))], 2.0),))
    ctx = MonitorContext(DynamicalSpatialModel.static(build_spatial_model(1, [])), trace, BOOL)
    p = Atomic("p")
    out = monitor(ctx, And(Eventually(Interval(0, None), p), Eventually(Interval(0, math.inf), p)))
    assert calls == [Interval(0.0, math.inf)]
    assert out.values.tolist() == [[True]] and out.end_time == 2.0


@pytest.mark.parametrize(
    "text, op", [("x U[inf,inf] y", "until"), ("x S[inf,inf] y", "since"), ("F[inf,inf] x", "until")]
)
def test_infinite_lower_temporal_bound_is_one_line_error(text, op):
    """An interval starting at inf parses, and its evaluable domain is empty."""
    trace = Trace(("x", "y"), (sig([(0.0, (1.0, 0.0)), (1.0, (0.0, 1.0))], 2.0),))
    ctx = MonitorContext(DynamicalSpatialModel.static(build_spatial_model(1, [])), trace, BOOL)
    with pytest.raises(SemanticError) as err:
        monitor(ctx, parse(text))
    assert str(err.value).splitlines() == [
        f"temporal interval [inf, inf] exceeds the trace horizon: evaluable domain of {op} is empty"
    ]


# The sample-loop sweeps the segment kernel replaced, kept verbatim as a
# reference: every event re-samples its window with a value_at per sample.
# _common_domain is the engine's former per-location domain pairing.


def restrict(s, start, end):
    """s clipped to a subdomain [start, end] of its domain."""
    if start < s.times[0] or end > s.end_time or start > end:
        raise SignalError(f"cannot restrict [{s.times[0]}, {s.end_time}] to [{start}, {end}]")
    times = [start]
    values = [s.value_at(start)]
    for t, v in zip(s.times, s.values):
        if start < t <= end:
            times.append(t)
            values.append(v)
    return TemporalSignal(tuple(times), tuple(values), end)


def _common_domain(s1, s2):
    start = max(s1.start, s2.start)
    end = min(s1.end_time, s2.end_time)
    if start > end:
        raise SemanticError(
            f"signals have no common time domain: [{s1.start}, {s1.end_time}] vs "
            f"[{s2.start}, {s2.end_time}]"
        )
    if (s1.start, s1.end_time) != (start, end):
        s1 = restrict(s1, start, end)
    if (s2.start, s2.end_time) != (start, end):
        s2 = restrict(s2, start, end)
    return s1, s2


def until_reference(interval, s1, s2, domain):
    """Exact until sweep for piecewise-constant inputs.

    output(t) = choose over t' in [t+lo, t+hi] of
                (s2(t') combine (combine of s1 over [t, t'])).

    The output is a step function whose breakpoints lie among the input step
    times and those times shifted left by the interval bounds, so it suffices
    to evaluate at exactly those event times.  An unbounded interval clips
    the window at the trace end.  The evaluable domain shrinks by the
    interval upper bound (lower bound when unbounded); an empty domain is an
    error rather than a silent constant.
    """
    s1, s2 = _common_domain(s1, s2)
    t0, t_end = s1.start, s1.end_time
    lo = interval.lo
    steps = sorted(set(s1.times) | set(s2.times))
    if interval.bounded:
        hi = interval.hi
        out_end = t_end - hi
        shifts = (0.0, lo, hi)
    else:
        out_end = t_end - lo
        shifts = (0.0, lo)
    if out_end < t0:
        raise SemanticError(
            f"temporal interval [{lo}, {interval.hi if interval.bounded else 'inf'}] exceeds "
            f"the trace horizon: evaluable domain of until is empty"
        )
    events = {t0}
    for s in steps:
        for shift in shifts:
            e = s - shift
            if t0 <= e <= out_end:
                events.add(e)
    out_times = sorted(events)
    out_values = []
    for e in out_times:
        win_lo = e + lo
        win_hi = (e + hi) if interval.bounded else t_end
        samples = {e, win_lo, win_hi}
        for s in steps:
            if e < s <= win_hi:
                samples.add(s)
        running = domain.top
        acc = domain.bottom
        for u in sorted(samples):
            x = s1.value_at(u)
            running = running if running <= x else x
            if u >= win_lo:
                y = s2.value_at(u)
                y = y if y <= running else running
                acc = acc if acc >= y else y
        out_values.append(acc)
    return TemporalSignal(tuple(out_times), tuple(out_values), out_end).minimize()


def since_reference(interval, s1, s2, domain):
    """Time-mirrored analogue of monitor_until (window in the past)."""
    s1, s2 = _common_domain(s1, s2)
    t0, t_end = s1.start, s1.end_time
    lo = interval.lo
    steps = sorted(set(s1.times) | set(s2.times))
    if interval.bounded:
        hi = interval.hi
        out_start = t0 + hi
        shifts = (0.0, lo, hi)
    else:
        out_start = t0 + lo
        shifts = (0.0, lo)
    if out_start > t_end:
        raise SemanticError(
            f"temporal interval [{lo}, {interval.hi if interval.bounded else 'inf'}] exceeds "
            f"the trace horizon: evaluable domain of since is empty"
        )
    events = {out_start}
    for s in steps:
        for shift in shifts:
            e = s + shift
            if out_start <= e <= t_end:
                events.add(e)
    out_times = sorted(events)
    out_values = []
    for e in out_times:
        win_hi = e - lo
        win_lo = (e - hi) if interval.bounded else t0
        samples = {e, win_lo, win_hi}
        for s in steps:
            if win_lo <= s < e:
                samples.add(s)
        running = domain.top
        acc = domain.bottom
        for u in sorted(samples, reverse=True):
            x = s1.value_at(u)
            running = running if running <= x else x
            if u <= win_hi:
                y = s2.value_at(u)
                y = y if y <= running else running
                acc = acc if acc >= y else y
        out_values.append(acc)
    return TemporalSignal(tuple(out_times), tuple(out_values), t_end).minimize()


def _sweep_instance(rng, domain, decimal):
    """Two signals on one random grid: eighths from 0, or tenths from a
    decimal start, as times parsed from text are."""
    if decimal:
        first = rng.choice([0, 1, 11])
        grid = [(first + i) / 10 for i in range(rng.randint(2, 12))]
    else:
        grid = [i / 8 for i in range(rng.randint(2, 17))]
    pool = [False, True] if domain is BOOL else [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]

    def signal():
        times = [grid[0]] + sorted(rng.sample(grid[1:-1], rng.randint(0, len(grid) - 2)))
        return TemporalSignal(tuple(times), tuple(rng.choice(pool) for _ in times), grid[-1])

    unit = 10 if decimal else 8
    lo = rng.choice([0, 0, 1, 2, 4])
    hi = None if rng.random() < 0.2 else lo + rng.choice([0, 0, 1, 3, 6])
    return Interval(lo / unit, None if hi is None else hi / unit), signal(), signal()


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_sweep_kernel_matches_sample_loop_reference(domain):
    """Bit-identical to the sample loops once -0.0 reads +0.0, on dyadic and
    decimal grids with point, bounded and unbounded windows.  Instances on
    which the reference itself trips over a rounded window edge are skipped;
    the window-edge tests below cover those."""
    rng = random.Random(2013)
    compared = 0
    for trial in range(3000):
        interval, s1, s2 = _sweep_instance(rng, domain, decimal=trial % 2 == 1)
        for kernel, reference in ((monitor_until, until_reference), (monitor_since, since_reference)):
            try:
                want = reference(interval, s1, s2, domain)
            except SignalError:
                continue
            except SemanticError:
                with pytest.raises(SemanticError):
                    kernel(interval, s1, s2)
                continue
            got = kernel(interval, s1, s2)
            assert repr((got.times, one_zero(got.values), got.end_time)) == repr(
                (want.times, one_zero(want.values), want.end_time)
            ), (interval, s1, s2)
            # both inputs resampled onto their merged steps, as the monitor
            # passes them: same verdicts, though neither input is minimal
            merged = tuple(sorted(set(s1.times) | set(s2.times)))
            m1, m2 = (
                TemporalSignal(merged, tuple(map(s.value_at, merged)), s.end_time) for s in (s1, s2)
            )
            got = kernel(interval, m1, m2)
            assert repr((got.times, one_zero(got.values), got.end_time)) == repr(
                (want.times, one_zero(want.values), want.end_time)
            ), (interval, s1, s2)
            compared += 1
    assert compared > 4000


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_sweep_kernel_reads_inputs_over_their_common_domain(domain):
    """Inputs on different domains give what the reference gives after
    restricting both to the common one, once -0.0 reads +0.0."""
    rng = random.Random(2014)
    compared = 0
    for _ in range(600):
        interval, s1, s2 = _sweep_instance(rng, domain, decimal=False)
        grid = sorted(set(s1.times) | set(s2.times) | {s2.end_time})
        start = rng.choice(grid)
        s2 = restrict(s2, start, rng.choice([t for t in grid if t >= start]))
        for kernel, reference in ((monitor_until, until_reference), (monitor_since, since_reference)):
            try:
                want = reference(interval, s1, s2, domain)
            except SemanticError:
                with pytest.raises(SemanticError):
                    kernel(interval, s1, s2)
                continue
            got = kernel(interval, s1, s2)
            assert repr((got.times, one_zero(got.values), got.end_time)) == repr(
                (want.times, one_zero(want.values), want.end_time)
            ), (interval, s1, s2)
            compared += 1
    assert compared > 400


def test_window_edges_rounded_outside_the_domain():
    """e - hi and e + hi may round just past the domain; the window then
    reads the outermost segment instead of raising or wrapping around."""
    p = TemporalSignal((0.1, 0.2, 0.3, 0.5), (True, False, True, True), 0.5)
    assert monitor_since(Interval(0, 0.4), p, p) == TemporalSignal((0.5,), (True,), 0.5)
    # 0.5 - 0.4 rounds below 0.1: the point window must read q at 0.1, not at 0.5
    top = TemporalSignal((0.1,), (True,), 0.5)
    q = TemporalSignal((0.1, 0.5), (True, False), 0.5)
    assert monitor_since(Interval(0.4, 0.4), top, q).values == (True,)
    s = TemporalSignal((1.1,), (True,), 1.7)
    out = monitor_until(Interval(0, 0.6), s, s)
    assert (out.times, out.values, out.end_time) == ((1.1,), (True,), 1.7 - 0.6)
    late = TemporalSignal((1.1, 1.6), (False, True), 1.7)
    assert monitor_until(Interval(0, 0.6), s, late).values == (True,)


# The per-location segment sweep the columnar one replaced, kept verbatim as
# a reference with the engine's former assembly: each location's inputs on
# its own merged steps, swept one location at a time and merged back.


def segment_until_reference(interval: Interval, s1: TemporalSignal, s2: TemporalSignal, domain) -> TemporalSignal:
    """Exact until sweep for piecewise-constant inputs.

    output(t) = choose over t' in [t+lo, t+hi] of
                (s2(t') combine (combine of s1 over [t, t'])).

    The output is a step function whose breakpoints lie among the input step
    times and those times shifted left by the interval bounds, so it suffices
    to evaluate at exactly those event times.  An unbounded interval clips
    the window at the trace end.  The evaluable domain shrinks by the
    interval upper bound (lower bound when unbounded); an empty domain is an
    error rather than a silent constant.

    Cost: O(N log N + sum over events of the segments in the window) for N
    merged input steps (``_temporal_sweep``); an unbounded window spans the
    rest of the trace.
    """
    return _segment_sweep_reference(interval, s1, s2, domain, future=True)


def segment_since_reference(interval: Interval, s1: TemporalSignal, s2: TemporalSignal, domain) -> TemporalSignal:
    """Time-mirrored analogue of monitor_until (window in the past), with the
    same cost: O(N log N + sum over events of the segments in the window)."""
    return _segment_sweep_reference(interval, s1, s2, domain, future=False)


def _segment_sweep_reference(interval: Interval, s1: TemporalSignal, s2: TemporalSignal, domain, future: bool) -> TemporalSignal:
    """The until (``future``) or since sweep, on segment indices.

    Both inputs are read once onto their merged step grid, so a segment
    index names one value of each.  Per event e, bisections find the
    segments that hold e, the near window edge (e + lo, or e - lo for since)
    and the far one (e + hi, e - hi, or the trace edge when unbounded).  They
    are clamped to the grid, so an edge that rounding puts just outside the
    domain reads the outermost segment.  The fold walks from e's segment to
    the far edge's, combining s1 into ``running``; from the near edge's
    segment on it also chooses s2 combined with ``running`` into ``acc``.
    Ties keep ``running``, the s2 value and ``acc``, as sampling every step
    time in the window did, so signed zeros come out the same.
    """
    t0, t_end = max(s1.start, s2.start), min(s1.end_time, s2.end_time)
    if t0 > t_end:
        raise SemanticError(
            f"signals have no common time domain: [{s1.start}, {s1.end_time}] vs "
            f"[{s2.start}, {s2.end_time}]"
        )
    lo, hi, bounded = interval.lo, interval.hi, interval.bounded
    lost = hi if bounded else lo
    out_start, out_end = (t0, t_end - lost) if future else (t0 + lost, t_end)
    if out_end < out_start:
        raise SemanticError(
            f"temporal interval [{lo}, {hi if bounded else 'inf'}] exceeds the trace horizon: "
            f"evaluable domain of {'until' if future else 'since'} is empty"
        )
    if s1.times == s2.times and s1.end_time == s2.end_time:
        # the monitor passes both inputs on one grid; skipping the merge
        # saves about 14% of long_trace's and 10% of epidemic's monitor time
        steps, v1, v2 = s1.times, s1.values, s2.values
    else:
        steps = [t0] + sorted(t for t in set(s1.times).union(s2.times) if t0 < t <= t_end)
        v1, v2 = ([s.values[bisect_right(s.times, t) - 1] for t in steps] for s in (s1, s2))
    shifts = (0.0, lo, hi) if bounded else (0.0, lo)
    events = {out_start}
    for s in steps:
        for shift in shifts:
            e = s - shift if future else s + shift
            if out_start <= e <= out_end:
                events.add(e)
    out_times = sorted(events)
    top, bottom = domain.top, domain.bottom
    way = 1 if future else -1
    out_values = []
    for e in out_times:
        if future:
            near, far = e + lo, (e + hi if bounded else t_end)
        else:
            near, far = e - lo, (e - hi if bounded else t0)
        k_e = bisect_right(steps, e) - 1
        k_near = max(bisect_right(steps, near) - 1, 0)
        k_far = max(bisect_right(steps, far) - 1, 0)
        running, acc = top, bottom
        for k in range(k_e, k_near, way):
            x = v1[k]
            running = running if running <= x else x
        for k in range(k_near, k_far + way, way):
            x = v1[k]
            running = running if running <= x else x
            y = v2[k]
            y = y if y <= running else running
            acc = acc if acc >= y else y
        out_values.append(acc)
    return TemporalSignal(tuple(out_times), tuple(out_values), out_end).minimize()


def column_steps(times, *arrays):
    """Per location, the times of its own steps (its first cell and every
    change in any of the arrays) and each array's values there: the former
    ``signals.column_steps``, which merged the change points of several
    arrays."""
    starts = np.logical_or.reduce([run_starts(a) for a in arrays]).T
    flat = [np.broadcast_to(times, starts.shape)[starts].tolist()]
    flat += [a.T[starts].tolist() for a in arrays]
    bounds = [0] + np.cumsum(starts.sum(axis=1)).tolist()
    return [tuple(tuple(f[a:b]) for f in flat) for a, b in zip(bounds, bounds[1:])]


def _per_location_reference(sweep, dom):
    """``sweep`` over the domain ``dom`` in the engine's former until/since step."""

    def kernel(interval, left, right):
        times, rows, end = engine._aligned([left, right])
        # each location's inputs on its own merged steps, as the sweep reads them
        return SpatioTemporalSignal.from_signals([
            sweep(interval, TemporalSignal(steps, v1, end), TemporalSignal(steps, v2, end), dom)
            for steps, v1, v2 in column_steps(times, *rows)
        ])

    return kernel


def _async_temporal_instance(rng, domain):
    """1-12 locations stepping at their own times (up to 13 steps each) on a
    grid of 1/8, 1/10, 1/3 or 1/7, two variables from {+-0.0, +-0.5, 1.0,
    2.0}, and three nested temporal formulas over them with point, bounded
    and unbounded windows, until and since weighted double."""
    unit = rng.choice([8, 10, 3, 7])
    grid = [i / unit for i in range(rng.randint(2, 24))]
    pool = [0.0, -0.0, 0.5, -0.5, 1.0, 2.0]
    signals = []
    for _ in range(rng.randint(1, 12)):
        times = [grid[0]] + sorted(rng.sample(grid[1:-1], rng.randint(0, min(12, len(grid) - 2))))
        values = tuple((rng.choice(pool), rng.choice(pool)) for _ in times)
        signals.append(TemporalSignal(tuple(times), values, grid[-1]))
    trace = Trace(("p", "q"), tuple(signals))
    model = DynamicalSpatialModel.static(build_spatial_model(len(signals), []))
    ctx = MonitorContext(model, trace, domain, standard_distances())

    def window():
        lo = rng.choice([0, 0, 1, 2, 3])
        kind = rng.random()
        if kind < 0.2:
            return Interval(lo / unit, UNBOUNDED)
        return Interval(lo / unit, (lo + (0 if kind < 0.4 else rng.randint(1, 5))) / unit)

    def formula(depth):
        if depth == 0 or rng.random() < 0.2:
            name = rng.choice(["p", "q"])
            op = rng.choice([None, ">", ">", ">=", "<", "<="])
            return Atomic(name) if op is None else Atomic(name, op, rng.choice([0.0, 0.0, 0.5, 1.0]))
        op = rng.choice([Until, Until, Since, Since, Eventually, Globally, Not, And, Or])
        if op in (Until, Since):
            return op(window(), formula(depth - 1), formula(depth - 1))
        if op in (Eventually, Globally):
            return op(window(), formula(depth - 1))
        if op is Not:
            return Not(formula(depth - 1))
        return op(formula(depth - 1), formula(depth - 1))

    return ctx, [formula(rng.randint(1, 3)) for _ in range(3)]


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_monitor_matches_per_location_sweep_reference(domain, monkeypatch):
    """The columnar sweep gives the per-location sweeps' verdicts, bit for
    bit, on asynchronous traces over dyadic and decimal grids.  Each side
    runs on its own copy of the context, since a context keeps its
    verdicts."""
    rng = random.Random(4099)
    compared = 0
    for _ in range(1000):
        ctx, formulas = _async_temporal_instance(rng, domain)
        for formula in formulas:
            with monkeypatch.context() as patch:
                patch.setattr(engine, "monitor_until", _per_location_reference(segment_until_reference, domain))
                patch.setattr(engine, "monitor_since", _per_location_reference(segment_since_reference, domain))
                try:
                    want = monitor(dataclasses.replace(ctx), formula)
                except SemanticError:
                    want = None
            if want is None:
                with pytest.raises(SemanticError):
                    monitor(dataclasses.replace(ctx), formula)
                continue
            assert repr(monitor(dataclasses.replace(ctx), formula).signals) == repr(want.signals), formula
            compared += 1
    assert compared > 2000


# The columnar sweep before the doubling fold and the shared event grid,
# kept verbatim (from its docstring on) as the reference its replacement is
# checked against: it sorts (location, event) pairs with a lexsort and walks
# every window one own segment per array pass.


def lexsort_sweep_reference(interval: Interval, times: np.ndarray, v1: np.ndarray, v2: np.ndarray, own: np.ndarray, t_end: float, domain: SignalDomain, future: bool) -> SpatioTemporalSignal:
    """The until (``future``) or since sweep of every location at once.

    ``own`` marks each location's own steps (the first row is one), which
    bound its segments and give its events.  Per (location, event e) pair,
    a grid lookup and the location's running count of own steps find the
    segments holding e, the near window edge (e + lo, or e - lo for since)
    and the far one (e + hi or e - hi), clamped to the grid, so an edge
    past the domain (rounded just outside, or infinite) reads the outermost
    segment.  Events shifted by an infinite hi lie outside the domain and
    are dropped.  The fold walks from e's segment to the far edge's,
    combining s1 into ``running``; from the near edge's segment on it also
    chooses s2 combined with ``running`` into ``acc``.  All pairs take step
    d of their walk together.
    """
    t0 = times[0].item()
    lo, hi = interval.lo, interval.hi
    lost = hi if interval.bounded else lo
    out_start, out_end = (t0, t_end - lost) if future else (t0 + lost, t_end)
    if out_end < out_start:
        raise SemanticError(
            f"temporal interval [{lo}, {hi}] exceeds the trace horizon: "
            f"evaluable domain of {'until' if future else 'since'} is empty"
        )
    n, way = own.shape[1], 1 if future else -1
    # own steps flat, one location after another; latest[k, l] is the flat
    # index of l's last own step at or before row k
    loc, row = np.nonzero(own.T)
    count = np.cumsum(own, axis=0)
    latest = count + (np.cumsum(count[-1]) - count[-1] - 1)
    x1, x2 = v1[row, loc], v2[row, loc]
    events = np.concatenate([times[row] - way * s for s in (0.0, lo, hi)])
    inside = (out_start <= events) & (events <= out_end)
    owners = np.concatenate((np.arange(n), np.tile(loc, 3)[inside]))
    events = np.concatenate((np.full(n, out_start), events[inside]))
    order = np.lexsort((events, owners))
    owners, events = owners[order], events[order]
    fresh = np.ones(len(events), dtype=bool)
    fresh[1:] = (owners[1:] != owners[:-1]) | (events[1:] != events[:-1])
    owners, events = owners[fresh], events[fresh]

    def segment(t: np.ndarray) -> np.ndarray:
        return latest[np.maximum(np.searchsorted(times, t, side="right") - 1, 0), owners]

    k_e = segment(events)
    span, lead = way * (segment(events + way * hi) - k_e), way * (segment(events + way * lo) - k_e)
    # longest walks first, so the pairs still walking at step d are a prefix
    order = np.argsort(-span, kind="stable")
    k_e, lead = k_e[order], lead[order]
    live = np.searchsorted(-span[order], -np.arange(span.max() + 1), side="right")
    dtype = np.result_type(v1, v2)
    running = np.full(len(events), domain.top, dtype=dtype)
    acc = np.full(len(events), domain.bottom, dtype=dtype)
    for d, m in enumerate(live.tolist()):
        k = k_e[:m] + way * d
        r = running[:m] = np.minimum(running[:m], x1[k])
        np.maximum(acc[:m], np.minimum(x2[k], r), out=acc[:m], where=lead[:m] <= d)
    times, _, values = stack_steps(events, owners, acc[np.argsort(order)], n)
    return canonical(times, values, out_end)


def _doubling_sweep_instance(rng, domain, max_rows=40, max_p=5):
    """The sweep kernel's own arguments, drawn directly: 1-6 locations on a
    grid of eighths or of tenths from a decimal start (1 to ``max_rows``
    rows, one row on purpose), each location stepping at its own rows
    (every row for a third of them), values among +-0.0, +-1e300 and +-inf
    as well, and a window whose bounds, in grid units, are often 2**p - 1,
    2**p or 2**p + 1 for p up to ``max_p``, so a window spans that many own
    segments of a location that steps at every row."""
    decimal = rng.random() < 0.4
    unit = 10 if decimal else 8
    first = rng.choice([0, 1, 11]) if decimal else rng.randint(0, 3)
    rows = 1 if rng.random() < 0.08 else rng.randint(2, max_rows)
    times = np.array([(first + i) / unit for i in range(rows)])
    t_end = (first + rows - 1 + rng.choice([0, 0, 1, 3])) / unit
    n = rng.randint(1, 6)
    density = rng.choice([0.15, 0.5, 1.0, 1.0])
    own = np.array([[k == 0 or rng.random() < density for _ in range(n)] for k in range(rows)])
    pool = [False, True] if domain is BOOL else [0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, math.inf, -math.inf]
    v1, v2 = (np.array([[rng.choice(pool) for _ in range(n)] for _ in range(rows)]) for _ in range(2))
    # hold each value until the location's next own step, as a step function does
    held = np.maximum.accumulate(np.where(own, np.arange(rows)[:, None], 0), axis=0)
    v1, v2 = (np.take_along_axis(v, held, axis=0) for v in (v1, v2))

    def bound():
        p = rng.randint(0, max_p)
        return rng.choice([0, rng.randint(0, 6), 2**p - 1, 2**p, 2**p + 1])

    lo = rng.choice([0, 0, bound()])
    hi = math.inf if rng.random() < 0.25 else lo + bound()
    return Interval(lo / unit, hi / unit), times, v1, v2, own, t_end, unit


def _sweep_cells(out):
    return repr((out.times.tolist(), out.values.shape, one_zero(out.values.ravel().tolist()), out.end_time))


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_doubling_sweep_matches_lexsort_reference(domain):
    """The doubling fold over the shared event grid gives the lexsort
    sweep's verdicts and grid, bit for bit, for until and since, on dyadic
    and decimal times, asynchronous locations, one-row inputs, point,
    bounded and unbounded windows with lo = 0 and lo > 0, and windows of
    2**p - 1, 2**p and 2**p + 1 own segments."""
    rng = random.Random(2048)
    compared = 0
    spans = set()
    for _ in range(1500):
        interval, times, v1, v2, own, t_end, unit = _doubling_sweep_instance(rng, domain)
        for future in (True, False):
            args = (interval, times, v1, v2, own, t_end)
            try:
                want = lexsort_sweep_reference(*args, domain, future)
            except SemanticError:
                with pytest.raises(SemanticError):
                    engine._temporal_sweep(*args, future)
                continue
            assert _sweep_cells(engine._temporal_sweep(*args, future)) == _sweep_cells(want), (args, future)
            compared += 1
            if own.all() and interval.lo == 0 and interval.hi * unit < len(times):
                spans.add(round(interval.hi * unit))  # own segments a whole window spans
    assert compared > 2000
    assert {2**p + d for p in (2, 3, 4, 5) for d in (-1, 0, 1)} <= spans


# The sweep before windows were answered by two overlapping table blocks,
# kept verbatim (from its docstring on) as the reference its replacement is
# checked against: it answers each window with one table block per bit of
# its length, and assembles the output with ``stack_steps``.


def doubling_sweep_reference(interval: Interval, times: np.ndarray, v1: np.ndarray, v2: np.ndarray, own: np.ndarray, t_end: float, future: bool) -> SpatioTemporalSignal:
    """The until (``future``) or since sweep of every location at once.

    ``own`` marks each location's own steps (the first row is one), which
    bound its segments and give its events: its own step times shifted by
    0, lo and hi (back for until, forward for since) inside the domain, and
    its start.  All events lie in one sorted grid of the shifted trace
    times, and a location x grid mask lists each location's events in order.
    Per grid value, a row lookup finds e, the near window edge (e + lo, or
    e - lo for since) and the far one (e + hi or e - hi), clamped to the
    grid, so an edge past the domain (rounded just outside, or infinite)
    reads the outermost row; the location's running count of own steps
    turns a row into its segment.

    The verdict at e combines s1 from e's segment up to the near edge's with
    the fold of the segments from there to the far edge's: choose of s2
    combined with the running combine of s1.  The fold is associative, so
    level j of a doubling table holds it over every block of 2**j own
    steps; each pair takes the blocks named by the bits of its length,
    smallest first (since walks the reversed steps).  Only max and min are
    reassociated, so the verdicts are those of a step-by-step walk.
    """
    v1, v2, bottom, top = _verdicts(v1, v2)
    t0 = times[0].item()
    lo, hi = interval.lo, interval.hi
    lost = hi if interval.bounded else lo
    out_start, out_end = (t0, t_end - lost) if future else (t0 + lost, t_end)
    if out_end < out_start:
        raise SemanticError(
            f"temporal interval [{lo}, {hi}] exceeds the trace horizon: "
            f"evaluable domain of {'until' if future else 'since'} is empty"
        )
    (rows, n), way = own.shape, 1 if future else -1
    # own steps flat, one location after another; latest[k, l] is the flat
    # index of l's last own step at or before row k
    loc, row = np.nonzero(own.T)
    count = np.cumsum(own, axis=0)
    latest = count + (np.cumsum(count[-1]) - count[-1] - 1)
    # every event is a trace time shifted by 0, lo or hi: one grid holds them
    shifted = np.concatenate([times - way * s for s in (0.0, lo, hi)])
    inside = (out_start <= shifted) & (shifted <= out_end)
    grid, slot = np.unique(np.append(shifted[inside], out_start), return_inverse=True)
    at = np.full(len(shifted), -1)
    at[inside] = slot[:-1]
    # mask[l, j] marks grid value j as an event of location l
    mine = at[np.add.outer(np.arange(3) * rows, row)].ravel()
    mask = np.zeros((n, len(grid)), dtype=bool)
    mask[:, slot[-1]] = True
    mask[np.tile(loc, 3)[mine >= 0], mine[mine >= 0]] = True
    owners, g = np.nonzero(mask)

    def segment(t: np.ndarray) -> np.ndarray:
        return latest[np.maximum(np.searchsorted(times, t, side="right") - 1, 0)[g], owners]

    k_e, k_near, k_far = segment(grid), segment(grid + way * lo), segment(grid + way * hi)
    x1, x2 = v1[row, loc], v2[row, loc]
    if not future:
        x1, x2 = x1[::-1], x2[::-1]
        k_e, k_near, k_far = (len(x1) - 1 - k for k in (k_e, k_near, k_far))
    # s1 over [k_e, k_near) into ``head``; the fold over [k_near, k_far] into
    # (``running``, ``acc``); each start advances past the blocks taken
    head_at, head_len = k_e, k_near - k_e
    tail_at, tail_len = k_near, k_far - k_near + 1
    head = np.full(len(g), top)
    running = np.full(len(g), top)
    acc = np.full(len(g), bottom)
    # the level tables: per block of h own steps from i, s1 combined over it
    # (``run``) and the fold over it (``best``)
    run, best = x1, np.minimum(x1, x2)
    h, widest = 1, (k_far - k_e).max() + 1
    while True:
        take = np.flatnonzero(head_len & h)
        k = head_at[take]
        head[take] = np.minimum(head[take], run[k])
        head_at[take] = k + h
        take = np.flatnonzero(tail_len & h)
        k = tail_at[take]
        acc[take] = np.maximum(acc[take], np.minimum(running[take], best[k]))
        running[take] = np.minimum(running[take], run[k])
        tail_at[take] = k + h
        if 2 * h > widest:
            break
        run, best = np.minimum(run[:-h], run[h:]), np.maximum(best[:-h], np.minimum(run[:-h], best[h:]))
        h *= 2
    out_times, _, stacked = stack_steps(grid[g], owners, np.minimum(head, acc), n)
    return canonical(out_times, stacked, out_end)


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_two_block_sweep_matches_doubling_reference(domain, monkeypatch):
    """The sweep that answers each window at one table level, from two
    blocks that overlap or touch, gives the bytes of the per-bit doubling
    sweep, for until and since, on windows of up to 2**7 + 1 own segments,
    and every level p = 0..7 answers some tails and, with lo > 0, some
    heads, in both directions."""
    by_level, buckets = engine._by_level, []
    monkeypatch.setattr(engine, "_by_level", lambda lengths: buckets.append(by_level(lengths)) or buckets[-1])
    rng = random.Random(7331)
    compared, hit = 0, set()
    for _ in range(1200):
        interval, times, v1, v2, own, t_end, _ = _doubling_sweep_instance(rng, domain, max_rows=300, max_p=7)
        for future in (True, False):
            args = (interval, times, v1, v2, own, t_end)
            try:
                want = doubling_sweep_reference(*args, future)
            except SemanticError:
                with pytest.raises(SemanticError):
                    engine._temporal_sweep(*args, future)
                continue
            buckets.clear()
            got = engine._temporal_sweep(*args, future)
            assert got.times.tobytes() == want.times.tobytes(), (args, future)
            assert (got.values.dtype, got.values.shape) == (want.values.dtype, want.values.shape), (args, future)
            assert got.values.tobytes() == want.values.tobytes() and got.end_time == want.end_time, (args, future)
            compared += 1
            # the first call buckets the tails, the second, when lo > 0, the heads
            for part, levels in zip(("tail", "head"), buckets):
                hit.update((future, part, p) for p, bucket in enumerate(levels) if len(bucket))
    assert compared > 1500
    assert {(future, part, p) for future in (True, False) for part in ("tail", "head") for p in range(8)} <= hit


def _dyadic_trace_ctx(rng, domain):
    """1-5 locations on an undirected path, each with one variable x that
    steps at its own quarters in [0, 8) (the first at 0), values among
    quarters in [-2, 2], over [0, 8]."""
    n = rng.randint(1, 5)
    model = DynamicalSpatialModel.static(undirected_model(n, [(k, 1.0, k + 1) for k in range(n - 1)]))
    signals = []
    for _ in range(n):
        times = [0.0] + sorted(rng.sample([k / 4 for k in range(1, 32)], rng.randint(0, 12)))
        signals.append(TemporalSignal(tuple(times), tuple((rng.randint(-8, 8) / 4,) for _ in times), 8.0))
    return MonitorContext(model=model, trace=Trace(("x",), tuple(signals)), domain=domain, distances={})


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_window_of_a_sum_equals_nested_windows(domain):
    """On dyadic grids, a window of a + b is a window of a over a window of
    b: F[0,a+b] phi is F[0,a] F[0,b] phi, G likewise, and true S[0,a+b] phi
    is true S[0,a] (true S[0,b] phi), times and values alike.  The
    identities hold for any exact sweep, so they check the engine without
    sharing its blocks or levels."""
    rng = random.Random(5407)
    true = Atomic("true")
    lengths = [0, 0.25, 0.5, 0.75, 1, 1.25, 2, 2.5, 3, 3.75]
    for _ in range(150):
        ctx = _dyadic_trace_ctx(rng, domain)
        phi = Atomic("x", rng.choice([">", ">=", "<"]), rng.randint(-4, 4) / 4)
        a, b = rng.choice(lengths), rng.choice(lengths)
        pairs = [
            (Eventually(Interval(0, a + b), phi), Eventually(Interval(0, a), Eventually(Interval(0, b), phi))),
            (Globally(Interval(0, a + b), phi), Globally(Interval(0, a), Globally(Interval(0, b), phi))),
            (Since(Interval(0, a + b), true, phi), Since(Interval(0, a), true, Since(Interval(0, b), true, phi))),
        ]
        for whole, nested in pairs:
            want, got = monitor(ctx, whole), monitor(ctx, nested)
            assert repr((got.times.tolist(), got.values.tolist(), got.end_time)) == repr(
                (want.times.tolist(), want.values.tolist(), want.end_time)
            ), (whole, a, b)


# ---------------------------------------------------------------------------
# reach / escape building blocks


def test_reach_zero_interval_is_target_signal():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1 = [rng.random() < 0.5 for _ in range(n)]
        s2 = [rng.random() < 0.5 for _ in range(n)]
        out = reach(model, hop_distance(), Interval(0, 0), s1, s2).tolist()
        assert out == s2


def test_bounded_reach_isolated_location():
    model = build_spatial_model(1, [])
    out = bounded_reach(model, hop_distance(), 0, 3, [False], [True])
    assert out == [True]
    out2 = bounded_reach(model, hop_distance(), 1, 3, [True], [True])
    assert out2 == [False]


def test_bounded_reach_two_node_chain():
    # single edge 0 -> 1; the only route prefix from 0 at hop distance 1 ends at 1
    model = build_spatial_model(2, [(0, 1.0, 1)])
    for a in (False, True):
        for b in (False, True):
            for c in (False, True):
                out = bounded_reach(model, hop_distance(), 1, 1, [a, c], [False, b]).tolist()
                assert out[0] == (a and b)
                assert out[1] is False


def test_bounded_reach_rejects_a_lower_bound_past_the_upper():
    model = build_spatial_model(2, [(0, 1.0, 1)])
    with pytest.raises(SemanticError, match=r"malformed distance interval \[2, 1\]"):
        bounded_reach(model, hop_distance(), 2, 1, [True, True], [False, True])


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_bounded_reach_with_infinite_upper_bound_is_unbounded_reach(domain):
    """With d2 = inf bounded reach is unbounded reach for every d1, so the
    walk 0 -> 1 -> 2 reaches the target at 2 over the infinite edge 1 -> 2
    (a queue that extends only the walks shorter than d2 stops there, since
    inf < inf is false)."""
    model = build_spatial_model(3, [(0, 1.0, 1), (1, math.inf, 2)])
    f = weight_sum_distance()
    s1 = [domain.top] * 3 if domain is BOOL else [1.0] * 3
    s2 = [False, False, True] if domain is BOOL else [-1.0, -1.0, 1.0]
    assert bounded_reach(model, f, 0, math.inf, s1, s2).tolist() == s1
    for d1 in (0.0, 1.0, 2.0, math.inf):
        got = bounded_reach(model, f, d1, math.inf, s1, s2).tolist()
        assert got == unbounded_reach(model, f, d1, s1, s2).tolist()


def test_escape_identity_full_interval():
    rng = random.Random(9)
    for domain in (BOOL, QUANT):
        for _ in range(25):
            n = rng.randint(1, 6)
            model = random_model(rng, n, 10)
            if domain is BOOL:
                s1 = [rng.random() < 0.5 for _ in range(n)]
            else:
                s1 = [rng.randint(-8, 8) / 4 for _ in range(n)]
            out = escape(model, hop_distance(), Interval(0, UNBOUNDED), s1).tolist()
            assert out == s1


def test_escape_network16_example():
    model = network16_model()
    end_dev = {0, 1, 2, 3, 5, 11, 12, 13, 14}
    s1 = [loc not in end_dev for loc in range(16)]
    out = escape(model, hop_distance(), Interval(2, UNBOUNDED), s1).tolist()
    assert out[9] is True  # location 10, via the two-router corridor


# ---------------------------------------------------------------------------
# randomized agreement with the enumeration oracles


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_bounded_reach_matches_walk_enumeration(domain):
    rng = random.Random(101)
    f = weight_sum_distance()
    for _ in range(60):
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1, s2 = _random_spatial(rng, domain, n), _random_spatial(rng, domain, n)
        d1 = rng.choice([0.0, 1.0, 2.0])
        d2 = d1 + rng.choice([0.0, 1.0, 3.0])
        got = bounded_reach(model, f, d1, d2, s1, s2)
        for loc in range(n):
            want = walk_reach(model, f, d1, d2, s1, s2, domain, loc)
            assert got[loc] == want


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_unbounded_reach_matches_dense_fixpoint(domain):
    rng = random.Random(102)
    f = weight_sum_distance()
    for _ in range(60):
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1, s2 = _random_spatial(rng, domain, n), _random_spatial(rng, domain, n)
        d1 = rng.choice([0.0, 1.0, 2.0, 4.0])
        got = unbounded_reach(model, f, d1, s1, s2).tolist()
        want = dense_unbounded_reach(model, f, d1, s1, s2, domain)
        assert got == want


def test_bounded_reach_with_infinite_upper_bound_terminates():
    """d2 = inf with d1 > 0 used to flood a cycle forever; it is unbounded reach."""
    model = build_spatial_model(2, [(0, 1.0, 1), (1, 1.0, 0)])
    f = weight_sum_distance()
    s1, s2 = [1.0, 1.0], [1.0, -1.0]
    with deadline(30):
        got = bounded_reach(model, f, 0.5, math.inf, s1, s2).tolist()
    assert got == unbounded_reach(model, f, 0.5, s1, s2).tolist()


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_bounded_reach_with_huge_finite_upper_bound(domain):
    """With d1 > 0 nothing prunes a cycle, so a huge finite d2 used to flood
    for d2 over the smallest edge distance rounds (1e308 never returned).
    From d1 + (n + 1) * d_max on it is unbounded reach, and route
    enumeration up to that bound gives the same verdicts."""
    top, bottom = domain.top, domain.bottom
    two_cycle = build_spatial_model(2, [(0, 1.0, 1), (1, 1.0, 0)])
    rng = random.Random(106)
    with deadline(30):
        for d2 in (1e6, 1e308):
            got = bounded_reach(two_cycle, hop_distance(), 0.5, d2, [top, top], [top, bottom]).tolist()
            assert got == [top, top]
        for _ in range(60):
            n = rng.randint(1, 4)
            model = random_model(rng, n, 8)
            f = rng.choice([hop_distance(), weight_sum_distance()])
            s1, s2 = _random_spatial(rng, domain, n), _random_spatial(rng, domain, n)
            d1 = rng.choice([0.5, 1.0, 2.0])
            got = bounded_reach(model, f, d1, rng.choice([1e6, 1e308]), s1, s2).tolist()
            assert got == unbounded_reach(model, f, d1, s1, s2).tolist()
            assert got == dense_unbounded_reach(model, f, d1, s1, s2, domain)
            far = d1 + (n + 1) * max(f.map(model.weight).tolist(), default=0)
            assert got == [walk_reach(model, f, d1, far, s1, s2, domain, l) for l in range(n)]


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_unbounded_reach_with_infinite_edges(domain):
    """A positive lower bound with an infinite-weight edge used to seed an
    endless flooding; every verdict must match the dense fixpoint."""
    f = weight_sum_distance()
    top, bottom = domain.top, domain.bottom
    # 0 <-> 1 weigh 1 and 1 -> 2 weighs inf; s1 holds everywhere, s2 only at 0
    model = build_spatial_model(3, [(0, 1.0, 1), (1, 1.0, 0), (1, math.inf, 2)])
    s1, s2 = [top] * 3, [top, bottom, bottom]
    rng = random.Random(105)
    with deadline(30):
        assert unbounded_reach(model, f, 0.5, s1, s2).tolist() == [top, top, bottom]
        for _ in range(300):
            n = rng.randint(1, 6)
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
            rng.shuffle(pairs)
            edges = [
                (a, rng.choice([1.0, 2.0, math.inf]), b)
                for a, b in pairs[: rng.randint(0, min(10, len(pairs)))]
            ]
            model = build_spatial_model(n, edges)
            s1, s2 = _random_spatial(rng, domain, n), _random_spatial(rng, domain, n)
            d1 = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
            got = unbounded_reach(model, f, d1, s1, s2).tolist()
            assert got == dense_unbounded_reach(model, f, d1, s1, s2, domain)


# The Boolean search as it ran before it moved onto inf-weighted edges of the
# snapshot's own CSR, kept verbatim (from its docstring on) as the reference
# its replacement is checked against.
def filtered_csr_reached_within(incoming: csr_array, s1: np.ndarray, targets: np.ndarray, limit: float) -> np.ndarray:
    """Boolean reach with lower bound zero, as one multi-source search.

    A location holds iff it is a target or a target lies within ``limit`` of
    it along a route whose strict prefix satisfies s1.  The search runs from
    all targets at once over the incoming edges whose source satisfies s1.
    Dijkstra sums a route's distances from the target end, as the flooding
    does, so the ``<= limit`` boundary agrees exactly.  An infinite limit
    asks only for a route, whatever its weights, so the search is
    unweighted.  When s1 holds everywhere, as under ``somewhere`` and
    ``everywhere``, the search runs on ``incoming`` itself.
    """
    graph = incoming
    if not s1.all():
        keep = s1[incoming.indices]
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        graph = csr_array(
            (incoming.data[keep], incoming.indices[keep], kept_before[incoming.indptr]),
            shape=incoming.shape,
        )
    unweighted = limit == math.inf
    dist = csgraph.dijkstra(graph, indices=np.flatnonzero(targets), min_only=True, unweighted=unweighted, limit=limit)
    return targets | (dist < math.inf if unweighted else dist <= limit)


def test_reached_within_matches_filtered_csr_reference():
    """On directed and symmetric snapshots of 1-40 locations, with weights
    that overflow or are infinite, s1 and the targets all, some or none
    true, and limits from 0 to inf, the search on inf-weighted edges gives
    the filtered-copy search's verdicts and leaves the cached CSR's bytes
    as they were."""
    rng = random.Random(2323)
    f = weight_sum_distance()
    weights = (0.1, 0.5, 1.0, 2.0, 1e300, math.inf)

    def pick(n, kind):
        if kind == "all":
            return np.ones(n, dtype=bool)
        if kind == "none":
            return np.zeros(n, dtype=bool)
        return np.array([rng.random() < 0.5 for _ in range(n)], dtype=bool)

    for trial in range(240):
        n = rng.randint(1, 40)
        symmetric = trial % 2
        pairs = [(a, b) for a in range(n) for b in range(n) if (a < b if symmetric else a != b)]
        rng.shuffle(pairs)
        edges = [(a, rng.choice(weights), b) for a, b in pairs[: rng.randint(0, min(3 * n, len(pairs)))]]
        model = (undirected_model if symmetric else build_spatial_model)(n, edges)
        incoming = model.edges(f).incoming
        before = [getattr(incoming, k).tobytes() for k in ("data", "indices", "indptr")]
        for s1_kind in ("all", "some", "none"):
            for target_kind in ("all", "some", "none"):
                s1, targets = pick(n, s1_kind), pick(n, target_kind)
                for limit in (0.0, 0.3, 2.5, 1e308, math.inf):
                    got = _reached_within(model.edges(f), s1, targets, limit)
                    want = filtered_csr_reached_within(incoming, s1, targets, limit)
                    assert got.dtype == bool and np.array_equal(got, want), (trial, s1_kind, target_kind, limit)
                    assert [getattr(incoming, k).tobytes() for k in ("data", "indices", "indptr")] == before


# The Boolean search as it ran before each edge view kept its last search:
# every call searched to its own limit on the CSR it was given.  Kept
# verbatim (from its docstring on) as the reference the kept searches are
# checked against, and called by the reference kernels below in its place.
def cutoff_reached_within(incoming: csr_array, s1: np.ndarray, targets: np.ndarray, limit: float) -> np.ndarray:
    """Boolean reach with lower bound zero, as one multi-source search.

    A location holds iff it is a target or a target lies within ``limit`` of
    it along a route whose strict prefix satisfies s1.  The search runs from
    all targets at once on ``incoming``'s edges, with the weight of every
    edge whose source fails s1 set to inf.  Dijkstra sums a route's
    distances from the target end, as the flooding does, so the ``<= limit``
    boundary agrees exactly.  An infinite limit asks only for a route,
    whatever its weights, so every open edge weighs 1 and ``dist < inf``
    decides.  When s1 holds everywhere and the limit is finite, as under
    ``somewhere`` and ``everywhere``, the search runs on ``incoming`` itself.
    ``bounded_reach`` sends it the calls over unequal distances or more
    than log2(n) equal hops, and ``_back_propagate`` every uncapped one.
    """
    graph = incoming
    if limit == math.inf or not s1.all():
        weights = np.where(s1[incoming.indices], 1.0 if limit == math.inf else incoming.data, math.inf)
        graph = csr_array((weights, incoming.indices, incoming.indptr), shape=incoming.shape)
    dist = csgraph.dijkstra(graph, indices=np.flatnonzero(targets), min_only=True, limit=limit)
    return targets | (dist < math.inf) & (dist <= limit)


def _spy_searches(monkeypatch) -> list:
    """The limit of every ``csgraph.dijkstra`` call from now on, in order."""
    limits, dijkstra = [], csgraph.dijkstra
    monkeypatch.setattr(csgraph, "dijkstra", lambda *args, **kw: limits.append(kw["limit"]) or dijkstra(*args, **kw))
    return limits


def test_kept_search_matches_cutoff_search_bit_for_bit(monkeypatch):
    """Random call sequences on one edge view give the cut-off search's
    verdicts bit for bit, and search exactly when the kept search cannot
    answer: on a new (inf limit, s1, targets) question to the call's own
    limit, and on the kept question at a larger limit once with no limit.
    The snapshots have 1-30 locations, directed or symmetric, with weights
    0.1, 0.5, 1, 1e300 and inf; each sequence asks rows that share their
    targets under s1 all, some and none, interleaved, at ascending,
    descending and repeated limits from 0, 0.3, 2.5, 1e308 and inf."""
    rng = random.Random(2828)
    f = weight_sum_distance()
    weights = (0.1, 0.5, 1.0, 1e300, math.inf)
    limits = (0.0, 0.3, 2.5, 1e308, math.inf)
    searched = _spy_searches(monkeypatch)
    drawn = set()
    for trial in range(160):
        n = rng.randint(1, 30)
        symmetric = trial % 2
        pairs = [(a, b) for a in range(n) for b in range(n) if (a < b if symmetric else a != b)]
        rng.shuffle(pairs)
        edges = [(a, rng.choice(weights), b) for a, b in pairs[: rng.randint(0, min(3 * n, len(pairs)))]]
        model = (undirected_model if symmetric else build_spatial_model)(n, edges)
        view = model.edges(f)
        before = [getattr(view.incoming, k).tobytes() for k in ("data", "indices", "indptr")]
        rows = [
            (_pick(rng, n, s1_kind, 0.7), targets)
            for targets in (_pick(rng, n, "some", 0.2), _pick(rng, n, rng.choice(["all", "none"]), 0.2))
            for s1_kind in ("all", "some", "none")
        ]
        kept = None  # the question last searched and the limit it searched to
        for _ in range(8):
            order = rng.choice(["ascending", "descending", "repeated", "interleaved"])
            calls = sorted(rng.sample(limits, rng.randint(2, 4)), reverse=order == "descending")
            if order == "repeated":
                calls = [rng.choice(limits)] * 3
            elif order == "interleaved":
                rng.shuffle(calls)
            row = rng.randrange(len(rows))
            for limit in calls:
                if order == "interleaved":
                    row = rng.randrange(len(rows))
                s1, targets = rows[row]
                question = (limit == math.inf, s1.tobytes(), targets.tobytes())
                if kept and kept[0] == question and kept[1] >= limit:
                    case, expected = "reuse", []
                elif kept and kept[0] == question:
                    case, expected, kept = "widen", [math.inf], (question, math.inf)
                else:
                    case, expected, kept = "search", [limit], (question, limit)
                drawn.add((order, case))
                searched.clear()
                got = _reached_within(view, s1, targets, limit)
                assert searched == expected, (trial, order, row, limit)
                want = cutoff_reached_within(view.incoming, s1, targets, limit)
                assert got.dtype == bool and got.tobytes() == want.tobytes(), (trial, order, row, limit)
        assert [getattr(view.incoming, k).tobytes() for k in ("data", "indices", "indptr")] == before
    for order in ("ascending", "descending", "repeated", "interleaved"):
        assert {(order, "search"), (order, "reuse")} <= drawn, order
    assert ("ascending", "widen") in drawn


def test_one_search_serves_every_radius_of_a_snapshot(monkeypatch):
    """``everywhere``'s question on one snapshot (s1 all true, the same
    targets) at radii 0.5, 3, 8 and 20 runs two searches, the first cut off
    at 0.5 and the second unlimited, and 20, 8, 3, 0.5 runs one; a lone
    call keeps its cut-off, and another s1 row with the same targets
    searches again.  Every verdict is the cut-off search's."""
    rng = random.Random(2929)
    f = weight_sum_distance()
    searched = _spy_searches(monkeypatch)

    def snapshot():
        return _random_digraph(random.Random(3030), 200, 3, [0.7, 1.3, 2.9, 4.1])

    s1, some = np.ones(200, dtype=bool), _pick(rng, 200, "some", 0.7)
    targets = _pick(rng, 200, "some", 0.05)

    def run(model, rows, radii):
        limits = []
        for (x1, x2), r in zip(rows, radii):
            searched.clear()
            got = bounded_reach(model, f, 0.0, r, x1, x2)
            limits += searched
            assert np.array_equal(got, cutoff_reached_within(model.edges(f).incoming, x1, x2, r)), r
        return limits

    assert run(snapshot(), [(s1, targets)] * 4, [0.5, 3.0, 8.0, 20.0]) == [0.5, math.inf]
    assert run(snapshot(), [(s1, targets)] * 4, [20.0, 8.0, 3.0, 0.5]) == [20.0]
    assert run(snapshot(), [(s1, targets)], [3.0]) == [3.0]
    model = snapshot()
    rows = [(s1, targets), (some, targets), (s1, targets)]
    assert run(model, rows, [8.0, 8.0, 8.0]) == [8.0, 8.0, 8.0]
    assert run(model, [(s1, targets)] * 2, [3.0, 8.0]) == []


def test_reach_with_infinite_lower_bound():
    """d1 = inf used to recurse between unbounded and bounded reach forever.
    Only routes through an infinite edge are infinitely long: 1 -> 2 gives
    min(s1[1], s2[2]) = 1.0 at 1, and 0 reaches it through 1; 2 has no
    route out.  (The dense oracle assumes the budget falls along a route,
    which an infinite need breaks, so the values are checked by hand.)"""
    f = weight_sum_distance()
    model = build_spatial_model(3, [(0, 1.0, 1), (1, 1.0, 0), (1, math.inf, 2)])
    far = Interval(math.inf, UNBOUNDED)
    with deadline(30):
        assert reach(model, f, far, [1.0] * 3, [1.0, -1.0, 2.0]).tolist() == [1.0, 1.0, -math.inf]
        assert reach(model, f, far, [True] * 3, [True, False, True]).tolist() == [True, True, False]
        # without an infinite edge no route is long enough
        finite = build_spatial_model(3, [(0, 1.0, 1), (1, 1.0, 0), (1, 5.0, 2)])
        for domain in (BOOL, QUANT):
            top = [domain.top] * 3
            for m, g in ((finite, f), (model, hop_distance())):
                assert reach(m, g, far, top, top).tolist() == [domain.bottom] * 3


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_flooding_over_the_round_budget_is_one_line_error(domain):
    """With d1 > 0 nothing prunes a cycle: a 2-cycle under hop floods d2
    rounds, and [1e17,1e17] never ended (past 2**53, d + 1 == d).  Above
    MAX_FLOOD_ROUNDS, estimated before the first round, reach is a
    one-line SemanticError naming the distances and the rounds."""
    two_cycle = build_spatial_model(2, [(0, 1.0, 1), (1, 1.0, 0)])
    s1, s2 = [domain.top] * 2, [domain.top, domain.bottom]
    over = engine.MAX_FLOOD_ROUNDS + 1
    cases = [(Interval(over, over), f"[{over}, {over}]", f"{over:.3g}")]
    cases += [(Interval(1e17, hi), "[1e+17, 1e+17]", "1e+17") for hi in (1e17, math.inf)]
    with deadline(10):
        for interval, distances, rounds in cases:
            with pytest.raises(SemanticError) as err:
                reach(two_cycle, hop_distance(), interval, s1, s2)
            assert str(err.value) == (
                f"reach over distances {distances} needs about {rounds} flooding rounds, "
                f"more than MAX_FLOOD_ROUNDS = {engine.MAX_FLOOD_ROUNDS}"
            )
        # below the budget the walks of exactly 21 hops from 0 end at 1
        got = reach(two_cycle, hop_distance(), Interval(21, 21), s1, s2).tolist()
        assert got == [domain.bottom, domain.top]
        # an edge on no cycle counts once, however short: 2 rounds, not 2e6
        path = build_spatial_model(3, [(0, 1e-6, 1), (1, 1.0, 2)])
        ends = [domain.bottom, domain.bottom, domain.top]
        got = reach(path, weight_sum_distance(), Interval(1, 2), [domain.top] * 3, ends)
        assert got.tolist() == [domain.top, domain.top, domain.bottom]
        # nor are the over-budget many locations of a chain, if d2 is short
        chain = build_spatial_model(over + 1, [(i, 1.0, i + 1) for i in range(over)])
        ends = [domain.bottom] * over + [domain.top]
        got = reach(chain, hop_distance(), Interval(1, 1), [domain.top] * (over + 1), ends)
        assert got.tolist() == ends[1:] + [domain.bottom]


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_escape_matches_simple_path_enumeration(domain):
    rng = random.Random(103)
    f = weight_sum_distance()
    for _ in range(60):
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1 = _random_spatial(rng, domain, n)
        d1 = rng.choice([0.0, 1.0, 2.0])
        hi = rng.choice([1.0, 3.0, None])
        d2 = None if hi is None else d1 + hi
        got = escape(model, f, Interval(d1, d2), s1).tolist()
        want = simple_path_escape(
            model, f, d1, math.inf if d2 is None else d2, s1, domain
        )
        assert got == want


def _incoming_in_edge_order(model):
    """Per location, the sources of its incoming edges in edge order (the CSR
    sorts them), which decides the fixpoints' +0.0/-0.0 ties."""
    order = np.argsort(model.dst, kind="stable")
    bounds = np.searchsorted(model.dst[order], np.arange(model.location_count + 1)).tolist()
    sources = model.src[order].tolist()
    return [sources[a:b] for a, b in zip(bounds, bounds[1:])]


def walk_matrix_escape(model, f, interval, s1, domain):
    """The walk-matrix fixpoint escape ran before it moved onto the reach
    relaxation, kept as the reference its replacement is checked against.

    A matrix e[l][l2] accumulates, over walks from l that first hit l2 at
    their end, the combined value of the walk's locations.  It is seeded on
    the diagonal and expanded backwards along incoming edges until a fixpoint
    (at most one round per location).  The result gates e by the all-pairs
    minimum-distance matrix.
    """
    d1 = interval.lo
    d2 = math.inf if interval.hi is None else interval.hi
    if not d1 <= d2:
        raise SemanticError(f"malformed distance interval [{d1}, {d2}]")
    dist = min_distance_matrix(model, f)
    n = model.location_count
    bottom = domain.bottom
    e = [[bottom] * n for _ in range(n)]
    for l in range(n):
        e[l][l] = s1[l]
    in_sources = _incoming_in_edge_order(model)
    active: set[tuple[int, int]] = {(l, l) for l in range(n)}
    while active:
        e_next = [row.copy() for row in e]
        nxt: set[tuple[int, int]] = set()
        for l1, l2 in active:
            base = e[l1][l2]
            for src in in_sources[l1]:
                x = s1[src]
                v = x if x <= base else base
                if v > e_next[src][l2]:
                    e_next[src][l2] = v
                    nxt.add((src, l2))
        e = e_next
        active = nxt
    out = []
    for l in range(n):
        acc = bottom
        row_dist = dist[l]
        row_e = e[l]
        for l2 in range(n):
            if d1 <= row_dist[l2] <= d2 and row_e[l2] > acc:
                acc = row_e[l2]
        out.append(acc)
    return out


def _random_digraph(rng, n, edges_per_location, weights):
    """A digraph on n locations with edges_per_location * n distinct edges
    (or all n * (n - 1)), listed in random order."""
    pairs = set()
    while len(pairs) < min(edges_per_location, n - 1) * n:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.add((a, b))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    return build_spatial_model(n, [(a, rng.choice(weights), b) for a, b in pairs])


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_escape_matches_walk_matrix_reference(domain):
    """On 10-150 locations, beyond the reach of path enumeration, the forward
    relaxation gives the walk-matrix fixpoint's values; only which of +0.0
    and -0.0 a zero verdict carries may differ."""
    rng = random.Random(808)
    f = weight_sum_distance()
    pool = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0)
    for trial in range(24):
        n = rng.randint(10, 150)
        model = _random_digraph(rng, n, rng.choice([1, 2, 3]), [0.5, 1.0, 1.5])
        if domain is BOOL:
            s1 = [rng.random() < 0.7 for _ in range(n)]
        else:
            s1 = [rng.choice(pool) for _ in range(n)]
        d1 = rng.choice([0.0, 1.0, 2.5])
        interval = Interval(d1, None if trial % 2 else d1 + rng.choice([0.0, 1.0, 4.0]))
        got = escape(model, f, interval, s1).tolist()
        want = walk_matrix_escape(model, f, interval, s1, domain)
        assert got == want
        if domain is BOOL:
            assert all(v is True or v is False for v in got)
        assert all(g == 0 for g, w in zip(got, want) if repr(g) != repr(w))


def test_escape_visits_out_edges_in_edge_order():
    """On this seeded instance (found by search) the per-start relaxation
    gave -0.0 at location 82 in edge order and 0.0 in sorted (src, dst)
    order.  The closure has no visiting order: both orders give the same
    values, and on the inputs the monitor passes (one zero) the same +0.0
    at 82 and no -0.0 anywhere."""
    rng = random.Random(1499)
    n = rng.randint(20, 200)
    model = _random_digraph(rng, n, rng.choice([1, 2, 3]), [1.0])
    s1 = [rng.choice((0.0, -0.0, 0.5, -0.5, 1.0)) for _ in range(n)]
    edges = list(zip(model.src.tolist(), model.weight.tolist(), model.dst.tolist()))
    resorted = build_spatial_model(n, sorted(edges, key=lambda e: (e[0], e[2])))
    got = escape(model, hop_distance(), Interval(1, UNBOUNDED), s1).tolist()
    other = escape(resorted, hop_distance(), Interval(1, UNBOUNDED), s1).tolist()
    assert got == other
    got = escape(model, hop_distance(), Interval(1, UNBOUNDED), one_zero(s1)).tolist()
    other = escape(resorted, hop_distance(), Interval(1, UNBOUNDED), one_zero(s1)).tolist()
    assert repr(got) == repr(other)
    assert repr(got[82]) == "0.0"
    assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in got)


def closure_escape_reference(model, f, interval, s1, domain):
    """The max/min Floyd-Warshall closure escape ran on every snapshot before
    symmetric snapshots moved onto single linkage and the distance searches
    stopped at the interval bound, kept verbatim (from ``d1, d2 = ...`` on)
    as the reference its replacement is checked against."""
    d1, d2 = interval.lo, interval.hi
    dist = min_distance_matrix(model, f)
    x1 = np.asarray(s1)
    n = model.location_count
    e = np.full((n, n), domain.bottom, dtype=x1.dtype)
    e[model.src, model.dst] = np.minimum(x1[model.src], x1[model.dst])
    np.fill_diagonal(e, x1)
    for k in range(n):
        np.maximum(e, np.minimum(e[:, k, None], e[k]), out=e)
    return np.where((d1 <= dist) & (dist <= d2), e, domain.bottom).max(axis=1)


def _random_undirected(rng, n, edges_per_location, weights):
    """An undirected graph on n locations: up to edges_per_location * n / 2
    distinct pairs, each listed in both directions, so sparse draws leave
    some locations isolated."""
    draws = edges_per_location * n // 2 if n > 1 else 0
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(draws)}
    return undirected_model(n, [(a, rng.choice(weights), b) for a, b in sorted(pairs)])


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_symmetric_escape_matches_closure_reference(domain, monkeypatch):
    """On symmetric snapshots escape reads the best walks from single
    linkage, and its values are the closure's, +-inf included; only which
    of +0.0 and -0.0 a zero carries may differ.  Edge distances of 0.5, 1
    and 1.5 and bounds on the same grid put endpoints exactly on d1 and
    d2, and location counts of 1 and 2 are drawn on purpose."""
    linkage_calls = []
    widest_walks = engine._widest_walks
    monkeypatch.setattr(engine, "_widest_walks", lambda *a: linkage_calls.append(1) or widest_walks(*a))
    rng = random.Random(1616)
    pool = (0.0, -0.0, 0.5, -0.5, 2.0, -1.0, math.inf, -math.inf)
    for trial in range(160):
        n = (1, 2)[trial] if trial < 2 else rng.choice([2, 3, rng.randint(4, 60)])
        model = _random_undirected(rng, n, rng.choice([0, 1, 2, 4, 8]), [0.5, 1.0, 1.5])
        if domain is BOOL:
            s1 = [rng.random() < 0.7 for _ in range(n)]
        elif trial % 3:
            s1 = [rng.choice(pool) for _ in range(n)]
        else:
            s1 = [rng.uniform(-1, 1) for _ in range(n)]
        f = rng.choice([weight_sum_distance(), hop_distance()])
        d1 = rng.choice([0.0, 0.5, 1.0, 2.5, math.inf])
        interval = Interval(d1, rng.choice([d1, d1 + 0.5, d1 + 2.0, math.inf]))
        got = escape(model, f, interval, s1).tolist()
        want = closure_escape_reference(model, f, interval, s1, domain).tolist()
        assert repr(one_zero(got)) == repr(one_zero(want))
    assert len(linkage_calls) == 159  # every trial but the one with n = 1


def test_escape_keeps_the_closure_on_directed_snapshots():
    """Over the one-way edge 0 -> 1 nothing leads from 1 back to 0, yet the
    single linkage of that edge set joins 0 and 1 either way, which would
    let 1 escape.  A directed snapshot therefore keeps the closure."""
    model = build_spatial_model(2, [(0, 1.0, 1)])
    assert not model.symmetric
    for domain in (BOOL, QUANT):
        s1 = np.array([domain.top, domain.top])
        interval = Interval(1, UNBOUNDED)
        want = closure_escape_reference(model, hop_distance(), interval, s1, domain).tolist()
        assert want == [domain.top, domain.bottom]
        assert escape(model, hop_distance(), interval, s1).tolist() == want
        assert engine._widest_walks(model, s1)[1, 0] == domain.top


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_escape_on_integer_inputs_equals_float_inputs(domain):
    """A list of Python ints names no domain, so escape raises the one-line
    TypeError on it, on the symmetric and the directed path alike, instead
    of the bare OverflowError on the bottom -inf in an int array.  The same
    ints in the domain's dtype give the verdicts of the values written as
    bools or floats."""
    hop = hop_distance()
    pair = undirected_model(2, [(0, 1.0, 1)])
    message = "kernel inputs must be all bool or all float64, got int64"
    with pytest.raises(TypeError, match=f"^{message}$"):
        escape(pair, hop, Interval(1, UNBOUNDED), [1, -1])
    assert escape(pair, hop, Interval(1, UNBOUNDED), np.array([1, -1], dtype=float)).tolist() == [-1.0, -1.0]
    rng = random.Random(1717)
    models = [pair, build_spatial_model(2, [(0, 1.0, 1)])]
    models += [_random_undirected(rng, 8, 2, [1.0]) for _ in range(3)]
    models += [_random_digraph(rng, 8, 2, [1.0]) for _ in range(3)]
    assert {m.symmetric for m in models} == {True, False}
    dtype = np.asarray(domain.top).dtype
    for model in models:
        for _ in range(8):
            ints = [rng.choice([0, 1] if domain is BOOL else [-2, -1, 0, 1, 3]) for _ in range(model.location_count)]
            typed = [bool(v) if domain is BOOL else float(v) for v in ints]
            for interval in (Interval(1, UNBOUNDED), Interval(0, 2), Interval(2, 2)):
                with pytest.raises(TypeError, match=f"^{message}$"):
                    escape(model, hop, interval, ints)
                got = escape(model, hop, interval, np.array(ints, dtype=dtype))
                want = escape(model, hop, interval, typed)
                assert got.dtype == want.dtype and repr(got.tolist()) == repr(want.tolist())


def _public_kernels():
    """Every public kernel as a function of its inputs, on two locations
    joined both ways: s1 and s2 as arrays (escape reads s1 only), or as
    one-step signals for until and since."""
    pair, hop = undirected_model(2, [(0, 1.0, 1)]), hop_distance()

    def signal(values):
        return SpatioTemporalSignal(np.array([0.0]), np.array([values]), 1.0)

    return {
        "monitor_until": lambda a, b: engine.monitor_until(Interval(0, 1), signal(a), signal(b)),
        "monitor_since": lambda a, b: engine.monitor_since(Interval(0, 1), signal(a), signal(b)),
        "reach": lambda a, b: reach(pair, hop, Interval(0, 1), a, b),
        "bounded_reach": lambda a, b: bounded_reach(pair, hop, 1, 2, a, b),
        "unbounded_reach": lambda a, b: unbounded_reach(pair, hop, 1, a, b),
        "escape": lambda a, _b: escape(pair, hop, Interval(1, UNBOUNDED), a),
    }


@pytest.mark.parametrize("kernel", list(_public_kernels()))
def test_kernels_take_only_bool_or_float64_inputs(kernel):
    """A kernel reads its verdict domain from its inputs' dtype, so inputs
    that are not all bool or all float64 name no domain: a list of ints, a
    float32 array, or a bool input beside a float64 one is a one-line
    TypeError naming the dtypes, not a guessed domain or an OverflowError
    on the -inf bottom in an int array."""
    run = _public_kernels()[kernel]
    ints, narrow = [1, -1], np.array([1.0, -1.0], dtype=np.float32)
    cases = [
        ((ints, ints), "int64, int64", "int64"),
        ((narrow, narrow), "float32, float32", "float32"),
        (([True, False], [1.0, -1.0]), "bool, float64", None),
        (([1.0, -1.0], [True, False]), "float64, bool", None),
    ]
    for inputs, pair, single in cases:
        got = single if kernel == "escape" else pair
        if got is None:
            continue
        with pytest.raises(TypeError) as raised:
            run(*inputs)
        assert str(raised.value) == f"kernel inputs must be all bool or all float64, got {got}"
    for inputs in (([True, False], [False, True]), ([1.0, -1.0], [-1.0, 1.0])):
        assert run(*inputs) is not None


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_symmetric_escape_matches_simple_path_enumeration(domain):
    rng = random.Random(104)
    f = weight_sum_distance()
    for _ in range(60):
        n = rng.randint(1, 6)
        model = _random_undirected(rng, n, rng.choice([1, 2, 4]), [1.0, 2.0])
        s1 = _random_spatial(rng, domain, n)
        d1 = rng.choice([0.0, 1.0, 2.0])
        d2 = d1 + rng.choice([0.0, 1.0, 3.0, math.inf])
        got = escape(model, f, Interval(d1, d2), s1).tolist()
        assert got == simple_path_escape(model, f, d1, d2, s1, domain)


def _random_spatial(rng, domain, n):
    if domain is BOOL:
        return [rng.random() < 0.5 for _ in range(n)]
    return [rng.randint(-8, 8) / 4 for _ in range(n)]


def _backward_walk_sum(rng, model, f, s1, target, steps):
    """Start and distance of a random route ending at target whose strict
    prefix satisfies s1, summed from the target end as route distances are."""
    loc, dist = target, 0.0
    edges = list(zip(model.src.tolist(), f.map(model.weight).tolist(), model.dst.tolist()))
    for _ in range(steps):
        options = [(src, step) for src, step, dst in edges if dst == loc and s1[src]]
        if not options:
            break
        loc, step = rng.choice(options)
        dist = dist + step
    return loc, dist


def test_boolean_reach_kernels_on_large_random_digraphs():
    """Boolean reach on 50-300 locations with non-dyadic weights agrees with
    the flooding (the quantitative domain on +-inf-coded inputs) and with the
    dense fixpoint, at radii equal to achievable route sums."""
    rng = random.Random(2718)
    f = weight_sum_distance()
    weights = [0.1, 0.2, 0.3, 0.7, -math.log(0.9), -math.log(0.35)]

    def coded(s):
        return [math.inf if v else -math.inf for v in s]

    for trial in range(10):
        n = rng.randint(50, 300)
        s1 = [rng.random() < 0.7 for _ in range(n)]
        s2 = [False] * n if trial == 4 else [rng.random() < 0.05 for _ in range(n)]
        pairs = set()
        while len(pairs) < 3 * n:
            a, b = rng.randrange(n - 1), rng.randrange(n - 1)
            if a != b:
                pairs.add((a, b))
        edges = [(a, rng.choice(weights), b) for a, b in sorted(pairs)]
        with_inf = trial % 3 == 0
        if with_inf:
            # the last location reaches a target only over an infinite-weight edge
            edges.append((n - 1, math.inf, 0))
            s1[n - 1], s2[n - 1], s2[0] = True, False, True
        model = build_spatial_model(n, edges)
        radii = [0.0, 0.3]
        walk_starts = []
        for target in [l for l in range(n) if s2[l]][:3]:
            start, dist = _backward_walk_sum(rng, model, f, s1, target, rng.randint(2, 6))
            radii.append(dist)
            walk_starts.append((start, dist))
        for d2 in radii:
            got = bounded_reach(model, f, 0.0, d2, s1, s2).tolist()
            flooded = bounded_reach(model, f, 0.0, d2, coded(s1), coded(s2)).tolist()
            assert got == [v > 0 for v in flooded]
            assert all(v is True or v is False for v in got)
            for start, dist in walk_starts:
                if dist <= d2:
                    assert got[start] is True
        for d1 in [0.0] if with_inf else [0.0, 0.25]:
            got = unbounded_reach(model, f, d1, s1, s2).tolist()
            assert got == dense_unbounded_reach(model, f, d1, s1, s2, BOOL)
            assert all(v is True or v is False for v in got)
            if with_inf:
                assert got[n - 1] is True


def flooding_reference(model, f, d1, d2, s1, s2, domain):
    """The dict flooding bounded reach ran before it took one array pass per
    round, kept verbatim (from ``n = ...`` on) as the reference ``_flood`` is
    checked against."""
    incoming = model.edges(f).incoming
    unconstrained_lo = d1 == 0
    n = model.location_count
    bottom = domain.bottom
    s = list(s2) if unconstrained_lo else [bottom] * n
    bounds = incoming.indptr.tolist()
    sources = incoming.indices.tolist()
    steps = incoming.data.tolist()
    queue: dict[tuple[int, float], Any] = {(l, 0): s2[l] for l in range(n)}
    fronts: list[list[tuple[float, Any]]] = [[] for _ in range(n)]
    while queue:
        nxt: dict[tuple[int, float], Any] = {}
        for (l, d), v in queue.items():
            if v == bottom:
                continue
            lo, hi = bounds[l], bounds[l + 1]
            for src, step in zip(sources[lo:hi], steps[lo:hi]):
                x = s1[src]
                v2 = v if v <= x else x
                d_new = d + step
                if d1 <= d_new <= d2 and v2 > s[src]:
                    s[src] = v2
                if d_new < d2:
                    key = (src, d_new)
                    prev = nxt.get(key)
                    nxt[key] = v2 if prev is None or v2 > prev else prev
        if unconstrained_lo and nxt:
            nxt = prune_dominated_reference(nxt, fronts)
        queue = nxt
    return s


def prune_dominated_reference(
    queue: dict[tuple[int, float], Any],
    fronts: list[list[tuple[float, Any]]],
) -> dict[tuple[int, float], Any]:
    """Keep, per location, only entries not dominated closer-and-better.

    Only used with an unconstrained lower bound: an entry at distance d with
    value v contributes nothing beyond what an entry at the same location
    with distance <= d and value >= v already contributes, and the
    dominating entry was enqueued no later, so every extension it feeds is
    still explored.  ``fronts`` carries each location's surviving (distance,
    value) pairs across rounds.
    """
    per_loc: dict[int, list[tuple[float, Any]]] = {}
    for (l, d), v in queue.items():
        per_loc.setdefault(l, []).append((d, v))
    out: dict[tuple[int, float], Any] = {}
    for l, entries in per_loc.items():
        front = fronts[l]
        entries.sort(key=lambda pair: pair[0])
        for d, v in entries:
            if any(d_old <= d and v <= v_old for d_old, v_old in front):
                continue
            out[(l, d)] = v
            front.append((d, v))
    return out


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_flooding_matches_dict_reference(domain, monkeypatch):
    """On 20-300 locations with non-dyadic weights, signed zeros and +-inf
    values, bounded reach and the flooding that seeds unbounded reach with
    d1 > 0 give the dict flooding's verdicts once -0.0 reads +0.0.  Boolean
    reach with d1 = 0 is a search, so the Boolean domain floods only with
    d1 > 0."""
    rng = random.Random(1212)
    pool = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.inf, -math.inf)
    for _ in range(30):
        n = rng.randint(20, 300)
        weights = rng.choice([[1.0], [0.5, 1.0, 1.5], [0.1, 0.2, 0.3, 0.7]])
        model = _random_digraph(rng, n, rng.choice([1, 2, 3]), weights)
        f = rng.choice([hop_distance(), weight_sum_distance()])
        if domain is BOOL:
            s1 = [rng.random() < 0.7 for _ in range(n)]
            s2 = [rng.random() < 0.2 for _ in range(n)]
            d1 = rng.choice([0.5, 1.0, 2.0])
        else:
            s1 = [rng.choice(pool) for _ in range(n)]
            s2 = [rng.choice(pool) for _ in range(n)]
            d1 = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0])
        d2 = d1 + rng.choice([0.0, 0.3, 1.0, 2.0, 3.0])
        got = bounded_reach(model, f, d1, d2, s1, s2).tolist()
        assert repr(one_zero(got)) == repr(one_zero(flooding_reference(model, f, d1, d2, s1, s2, domain)))
        if d1 > 0:
            with monkeypatch.context() as patch:
                patch.setattr(
                    engine, "_flood",
                    lambda _view, lo, hi, a, b: flooding_reference(model, f, lo, hi, a, b, domain),
                )
                want = unbounded_reach(model, f, d1, s1, s2).tolist()
            assert repr(one_zero(unbounded_reach(model, f, d1, s1, s2).tolist())) == repr(one_zero(want))


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_uniform_distance_flooding_matches_dict_reference(domain, monkeypatch):
    """When every edge distance is one value c (hop, or weight with all
    weights c in {0.1, 0.5, 3.0}) the flooding runs max/min rounds over the
    edge arrays.  With d1 in {0, c, 0.3, 2.5 c}, d2 = d1 + {0, 0.3, 1, 2, 3} c,
    signed zeros and +-inf values, it gives the dict flooding's verdicts
    once -0.0 reads +0.0, as does the flooding that seeds unbounded reach
    with d1 > 0 under hop.  Distances are sums, not multiples, of c: over
    c = 0.1, [0.3, 0.3] counts no walk, since 0.1 + 0.1 + 0.1 > 0.3, nor
    does [1, 1], since ten 0.1s add up to 0.9999999999999999 and eleven to
    1.0999999999999999; [0.2, 0.3] counts the walks of two edges and
    [1, 1.1] only those of eleven."""
    rng = random.Random(1515)
    pool = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.inf, -math.inf)
    calls = []
    uniform = engine._uniform_flood
    monkeypatch.setattr(engine, "_uniform_flood", lambda *args: calls.append(args[0].step) or uniform(*args))

    def values(n, p):
        if domain is BOOL:
            return [rng.random() < p for _ in range(n)]
        return [rng.choice(pool) for _ in range(n)]

    cases = [(c, d1, d1 + k * c) for c in (1.0, 0.1, 0.5, 3.0) for d1 in (0.0, c, 0.3, 2.5 * c) for k in (0, 0.3, 1, 2, 3)]
    cases += [(0.1, 0.3, 0.3), (0.1, 0.2, 0.3), (0.1, 1.0, 1.0), (0.1, 1.0, 1.1)] * 4
    for c, d1, d2 in cases:
        n = rng.randint(1, 300)
        model = _random_digraph(rng, n, rng.choice([1, 2, 3]), [c])
        f = hop_distance() if c == 1.0 and rng.random() < 0.5 else weight_sum_distance()
        s1, s2 = values(n, 0.7), values(n, 0.3)
        calls.clear()
        got = engine._flood(model.edges(f), d1, d2, s1, s2)
        assert calls == ([c] if len(model.src) else [])
        assert got.dtype == (bool if domain is BOOL else float)
        assert repr(one_zero(got.tolist())) == repr(one_zero(flooding_reference(model, f, d1, d2, s1, s2, domain)))
        if (c, d1, d2) in ((0.1, 0.3, 0.3), (0.1, 1.0, 1.0)):
            assert got.tolist() == [domain.bottom] * n
    for _ in range(20):
        n = rng.randint(2, 300)
        model = _random_digraph(rng, n, rng.choice([1, 2, 3]), [1.0])
        s1, s2 = values(n, 0.7), values(n, 0.3)
        d1 = rng.choice([1.0, 2.0, 2.5, 7.0])
        with monkeypatch.context() as patch:
            patch.setattr(
                engine, "_flood",
                lambda _view, lo, hi, a, b: flooding_reference(model, hop_distance(), lo, hi, a, b, domain),
            )
            want = unbounded_reach(model, hop_distance(), d1, s1, s2).tolist()
        calls.clear()
        got = unbounded_reach(model, hop_distance(), d1, s1, s2).tolist()
        assert calls == [1.0]
        assert repr(one_zero(got)) == repr(one_zero(want))


# The bounded-reach dispatch, the uniform flooding and the back-propagation
# as they ran before a Boolean round became one scatter over the edge arrays
# and Boolean reach with d1 = 0 took the rounds within a few equal hops:
# every Boolean d1 = 0 call searched, and every round, Boolean or not, was a
# gather and ``np.maximum.at``.  Kept verbatim, the calls renamed to the copies, as the
# references the new dispatch and rounds are checked against.
def dijkstra_dispatch_bounded_reach(model: SpatialModel, f: DistanceFunction, d1: float, d2: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Choose over route prefixes with accumulated distance in [d1, d2].

    The result at l is the choose over finite route prefixes from l whose
    accumulated distance lands in [d1, d2] of (s2 at the endpoint) combined
    with s1 over the strict prefix.

    Boolean verdicts with d1 = 0 are a shortest-path question: l holds iff
    s2 holds at l or some s2 location lies within d2 of l along a route
    whose strict prefix satisfies s1 (``_reached_within``).  Every other case
    floods (``_flood``), one array pass per round: max/min rounds over the
    edge arrays when every edge distance is equal, as under ``hop``, and a
    queue of (location, distance, value) entries otherwise.

    When d2 is infinite the call is ``unbounded_reach``, whatever d1, so a
    walk may pass an edge of infinite distance.  With d1 > 0 nothing prunes
    a cycle, so the rounds would run up to d2 over the smallest edge
    distance.  When every edge distance is finite and d2 >= d1 + (n + 1) *
    d_max for the largest edge distance d_max, the call is
    ``unbounded_reach`` as well: erasing the loops of a route's prefix, up
    to its shortest suffix of at least d1, leaves a route no worse whose
    length lies in [d1, d1 + n * d_max], and the extra d_max absorbs
    rounding.
    """
    s1, s2, _, _ = _verdicts(s1, s2)
    incoming = model.edges(f).incoming
    if not d1 <= d2:
        raise SemanticError(f"malformed distance interval [{d1}, {d2}]")
    if d2 == math.inf:
        return unbounded_reach(model, f, d1, s1, s2)
    if d1 > 0:
        steps = incoming.data
        if np.isfinite(steps).all() and d2 >= d1 + (model.location_count + 1) * steps.max(initial=0):
            return unbounded_reach(model, f, d1, s1, s2)
    elif s2.dtype == bool:
        return cutoff_reached_within(incoming, s1, s2, d2)
    return _flood(model.edges(f), d1, d2, s1, s2)



def maximum_at_uniform_flood(incoming: csr_array, c: float, d1: float, d2: float, x1: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``_flood`` when every edge distance is c, in max/min rounds over the
    edge arrays.  A walk of k edges is d_k = ((0 + c) + c) + ... long, summed
    as the queue sums it, so the step counts k with d1 <= d_k <= d2, the
    walks the queue counts, are one run [k1, k2] and every boundary agrees
    bit for bit, also for a non-dyadic c.

    With d1 > 0, rounds first step y from s2 to the best walks of exactly
    k1 edges: y[l] becomes s1[l] combined with the maximum of y over l's
    out-edges (bottom without one), until d reaches d1 (or y is bottom
    everywhere, which it then stays).  The capped ``_back_propagate``
    seeded with y (s2 when d1 = 0) then adds the walks one edge longer per
    round while d_k stays within d2.  It never needs more than n rounds, as
    an optimal walk past the first k1 edges is a simple path.
    """
    n, (bottom, _) = len(target), _BOUNDS[target.dtype]
    y, d = target, 0.0
    if d1 > 0:
        src, dst = _edges(incoming)
        gate = x1[src]
        while d < d1 and (y != bottom).any():
            y_next = np.full(n, bottom, dtype=target.dtype)
            np.maximum.at(y_next, src, np.minimum(gate, y[dst]))
            y, d = y_next, d + c
        if d > d2:
            return np.full(n, bottom, dtype=target.dtype)
    rounds = 0
    # the queue extends a walk only while it is shorter than d2
    while rounds < n and d < d2 and d + c <= d2:
        rounds, d = rounds + 1, d + c
    return maximum_at_back_propagate(incoming, x1, y, rounds)



def maximum_at_back_propagate(incoming: csr_array, s1: np.ndarray, s: np.ndarray, rounds: Optional[int] = None) -> np.ndarray:
    """Fixpoint in which s[src] absorbs s[dst] combined with s1[src] for every
    edge src -> dst, or at most ``rounds`` rounds of it.  It ignores weights,
    so the uncapped Boolean fixpoint is plain reachability from the seeds
    (``_reached_within`` with no limit).  Otherwise each round relaxes every
    edge at once (for Booleans min is "and" and max is "or"), and the loop
    stops at the first round that changes nothing: an optimal route is a
    simple path, so that takes at most n + 1 rounds."""
    s = np.array(s)  # a copy, which the rounds raise in place
    if s.dtype == bool and rounds is None:
        return cutoff_reached_within(incoming, s1, s, math.inf)
    src, dst = _edges(incoming)
    gate = s1[src]
    for _ in range(incoming.shape[0] + 1 if rounds is None else rounds):
        via = np.minimum(gate, s[dst])
        if not (via > s[src]).any():
            break
        np.maximum.at(s, src, via)
    return s



def _pick(rng, n, kind, p):
    if kind == "all":
        return np.ones(n, dtype=bool)
    if kind == "none":
        return np.zeros(n, dtype=bool)
    return np.array([rng.random() < p for _ in range(n)], dtype=bool)


def test_boolean_rounds_match_search_and_maximum_at_reference(monkeypatch):
    """Boolean bounded reach on random digraphs of 1-300 locations whose
    edges all have distance c, for c from 1, 0.1, 0.5, 3, the least
    subnormal, 1e308 and inf, with s1 and s2 all, some or none true.  With
    d1 = 0 and d2 the sum of 0 to log2(n) + 3 edges, it takes the rounds
    exactly when d2 / c <= log2(n) and the search otherwise, and either way
    gives the search's verdicts, the former dispatch's and the former
    ``np.maximum.at`` rounds'.  With d1 > 0 it gives the dict flooding's and
    the former rounds' verdicts.  The rounds never multiply by a distance,
    so c = inf cannot turn a verdict into inf * 0 = nan."""
    rng = random.Random(2424)
    flooded, searched = [], []
    uniform, search = engine._uniform_flood, engine._reached_within
    monkeypatch.setattr(engine, "_uniform_flood", lambda *args: flooded.append(args[0].step) or uniform(*args))
    monkeypatch.setattr(engine, "_reached_within", lambda *args: searched.append(args[3]) or search(*args))
    sides = set()
    for c in (1.0, 0.1, 0.5, 3.0, 5e-324, 1e308, math.inf):
        for trial in range(16):
            n = 1 if trial == 0 else rng.randint(2, 300)
            model = _random_digraph(rng, n, rng.choice([1, 2, 3]), [c])
            f = hop_distance() if c == 1.0 and trial % 2 else weight_sum_distance()
            incoming = model.edges(f).incoming
            s1 = _pick(rng, n, rng.choice(["all", "some", "some", "none"]), 0.7)
            s2 = _pick(rng, n, rng.choice(["all", "some", "some", "none"]), 0.1)
            sums = [0.0]
            while len(sums) < math.log2(n) + 4:
                sums.append(sums[-1] + c)
            for d2 in [d for d in sums if d < math.inf]:
                flooded.clear()
                searched.clear()
                got = bounded_reach(model, f, 0.0, d2, s1, s2)
                rounds = len(model.src) > 0 and d2 / c <= math.log2(n)
                sides.add((c, rounds))
                assert (flooded, searched) == (([c], []) if rounds else ([], [d2])), (c, n, d2)
                assert got.dtype == bool
                assert np.array_equal(got, search(model.edges(f), s1, s2, d2)), (c, n, d2)
                assert np.array_equal(got, dijkstra_dispatch_bounded_reach(model, f, 0.0, d2, s1, s2))
                if len(model.src):
                    assert np.array_equal(got, maximum_at_uniform_flood(incoming, c, 0.0, d2, s1, s2))
            for d1 in (c, sums[2] if n > 1 else 2 * c):
                d2 = d1 + rng.choice([0, 1, 2]) * c
                if not d2 < math.inf:
                    continue
                got = bounded_reach(model, f, d1, d2, s1, s2)
                assert got.tolist() == flooding_reference(model, f, d1, d2, s1.tolist(), s2.tolist(), BOOL)
                if len(model.src):
                    assert np.array_equal(got, maximum_at_uniform_flood(incoming, c, d1, d2, s1, s2))
    # both sides of the selection, where c allows them
    assert {(c, side) for c in (1.0, 0.1, 0.5, 3.0, 5e-324) for side in (False, True)} <= sides


def test_non_dyadic_bound_admits_the_summed_edges(monkeypatch):
    """Over c = 0.1, [0, 0.3] admits two edges and not three, since
    0.1 + 0.1 + 0.1 > 0.3: on a chain of 8 locations into a target at the
    end, the rounds (0.3 / 0.1 is just below 3 = log2(8)) and the search
    agree."""
    model = build_spatial_model(8, [(k, 0.1, k + 1) for k in range(7)])
    f = weight_sum_distance()
    s1, s2 = np.ones(8, dtype=bool), np.arange(8) == 7
    calls, uniform = [], engine._uniform_flood
    monkeypatch.setattr(engine, "_uniform_flood", lambda *args: calls.append(args[0].step) or uniform(*args))
    got = bounded_reach(model, f, 0.0, 0.3, s1, s2)
    assert calls == [0.1]
    assert got.tolist() == [False] * 5 + [True] * 3
    assert np.array_equal(got, _reached_within(model.edges(f), s1, s2, 0.3))


# Bounded and unbounded reach as they ran before each snapshot cached one
# edge view per distance function: every call took the CSR alone and derived
# ``dst`` (``_edges``), the uniform step (``_uniform_step``) and the largest
# distance again.  The code is kept verbatim, ``model.incoming_weights(f)``
# read as ``model.edges(f).incoming`` and the calls renamed to the copies, as
# the reference the view-reading kernels are checked against; the helpers'
# docstrings are left out.  ``maximum_at_uniform_flood`` and
# ``maximum_at_back_propagate`` read ``_edges`` too.
def csr_bounded_reach(model: SpatialModel, f: DistanceFunction, d1: float, d2: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Choose over route prefixes with accumulated distance in [d1, d2].

    The result at l is the choose over finite route prefixes from l whose
    accumulated distance lands in [d1, d2] of (s2 at the endpoint) combined
    with s1 over the strict prefix.

    Boolean verdicts with d1 = 0 are a shortest-path question: l holds iff
    s2 holds at l or some s2 location lies within d2 of l along a route
    whose strict prefix satisfies s1.  One search answers it in O(m log n)
    (``_reached_within``), unless every edge distance is one value c and
    d2 / c <= log2(n): then at most log2(n) rounds of one O(m) pass over
    the edge arrays each answer it (``csr_uniform_flood``).  Every other case
    floods (``csr_flood``), one array pass per round: those rounds when every
    edge distance is equal, as under ``hop``, and a queue of (location,
    distance, value) entries otherwise.

    When d2 is infinite the call is ``csr_unbounded_reach``, whatever d1, so a
    walk may pass an edge of infinite distance.  With d1 > 0 nothing prunes
    a cycle, so the rounds would run up to d2 over the smallest edge
    distance.  When every edge distance is finite and d2 >= d1 + (n + 1) *
    d_max for the largest edge distance d_max, the call is
    ``csr_unbounded_reach`` as well: erasing the loops of a route's prefix, up
    to its shortest suffix of at least d1, leaves a route no worse whose
    length lies in [d1, d1 + n * d_max], and the extra d_max absorbs
    rounding.
    """
    s1, s2, _, _ = _verdicts(s1, s2)
    incoming = model.edges(f).incoming
    if not d1 <= d2:
        raise SemanticError(f"malformed distance interval [{d1}, {d2}]")
    if d2 == math.inf:
        return csr_unbounded_reach(model, f, d1, s1, s2)
    if d1 > 0:
        steps = incoming.data
        if np.isfinite(steps).all() and d2 >= d1 + (model.location_count + 1) * steps.max(initial=0).item():
            return csr_unbounded_reach(model, f, d1, s1, s2)
    elif s2.dtype == bool:
        c = _uniform_step(incoming)
        if c is None or d2 / c > math.log2(model.location_count):
            return cutoff_reached_within(incoming, s1, s2, d2)
    return csr_flood(incoming, d1, d2, s1, s2)


def csr_flood(incoming: csr_array, d1: float, d2: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    n = incoming.shape[0]
    if d1 > 0:
        src, dst = _edges(incoming)
        _, comp = csgraph.connected_components(incoming, connection="strong")
        on_cycle = comp[dst] == comp[src]
        cycle_steps = incoming.data[on_cycle]
        lightest = np.full((2, n), math.inf)  # on-cycle out- and in-edge per location
        np.minimum.at(lightest[0], src[on_cycle], cycle_steps)
        np.minimum.at(lightest[1], dst[on_cycle], cycle_steps)
        with np.errstate(over="ignore"):  # a bound past the float range is inf
            rounds = min(
                d2 / incoming.data.min(initial=math.inf),
                d2 / cycle_steps.min(initial=math.inf) + n,
                n * (d2 / lightest.sum(axis=0).min() + 1),
            )
        if rounds > MAX_FLOOD_ROUNDS:
            interval = f"[{format_number(float(d1))}, {format_number(float(d2))}]"
            raise SemanticError(
                f"reach over distances {interval} needs about {rounds:.3g} flooding rounds, "
                f"more than MAX_FLOOD_ROUNDS = {MAX_FLOOD_ROUNDS}"
            )
    x1, target = np.asarray(s1), np.asarray(s2)
    c = _uniform_step(incoming)
    if c is not None:
        return csr_uniform_flood(incoming, c, d1, d2, x1, target)
    bottom, _ = _BOUNDS[target.dtype]
    prune = d1 == 0
    s = target.copy() if prune else np.full(n, bottom, dtype=target.dtype)
    loc, dist, val = np.arange(n), np.zeros(n), target
    front = (loc[:0], dist[:0], val[:0])
    while len(loc):
        live = val != bottom
        loc, dist, val = loc[live], dist[live], val[live]
        begin = incoming.indptr[loc]
        fan = incoming.indptr[loc + 1] - begin
        entry = np.repeat(np.arange(len(loc)), fan)
        edge = np.arange(len(entry)) + np.repeat(begin - (np.cumsum(fan) - fan), fan)
        src, d = incoming.indices[edge], dist[entry] + incoming.data[edge]
        v = np.minimum(val[entry], x1[src])
        inside = (d1 <= d) & (d <= d2)
        np.maximum.at(s, src[inside], v[inside])
        below = d < d2
        src, d, v = src[below], d[below], v[below]
        # per (src, d) group, sorted by value, the last entry holds the maximum
        order = np.lexsort((v, d, src))
        src, d, v = src[order], d[order], v[order]
        last = np.ones(len(src), dtype=bool)
        last[:-1] = (src[1:] != src[:-1]) | (d[1:] != d[:-1])
        loc, dist, val = src[last], d[last], v[last]
        if prune and len(loc):
            (loc, dist, val), front = _undominated(loc, dist, val, front)
    return s


def csr_uniform_flood(incoming: csr_array, c: float, d1: float, d2: float, x1: np.ndarray, target: np.ndarray) -> np.ndarray:
    n, (bottom, _) = len(target), _BOUNDS[target.dtype]
    y, d = target, 0.0
    if d1 > 0:
        step, nowhere = csr_step_back(incoming, x1), np.full(n, bottom, dtype=target.dtype)
        while d < d1 and (y != bottom).any():
            y, d = step(y, nowhere), d + c
        if d > d2:
            return nowhere
    rounds = 0
    # the queue extends a walk only while it is shorter than d2
    while rounds < n and d < d2 and d + c <= d2:
        rounds, d = rounds + 1, d + c
    return csr_back_propagate(incoming, x1, y, rounds)


def _uniform_step(incoming: csr_array) -> Optional[float]:
    """The one distance of every edge, or None when they differ or there
    are no edges."""
    steps = incoming.data
    return steps[0].item() if steps.size and (steps == steps[0]).all() else None


def csr_step_back(incoming: csr_array, s1: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    src, dst = _edges(incoming)
    gate = s1[src]

    def step(y: np.ndarray, into: np.ndarray) -> np.ndarray:
        via = np.minimum(gate, y[dst])
        raised = into.copy()
        if raised.dtype == bool:
            raised[src[via]] = True
        else:
            np.maximum.at(raised, src, via)
        return raised

    return step


def _edges(incoming: csr_array) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of every edge, in the incoming CSR's order."""
    return incoming.indices, np.repeat(np.arange(incoming.shape[0]), np.diff(incoming.indptr))


def csr_unbounded_reach(model: SpatialModel, f: DistanceFunction, d1: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Reach with no upper distance bound.

    With d1 = 0 the seed is s2 itself.  Otherwise a route counts from its
    shortest suffix that is at least d1 long.  When that suffix starts with
    a finite edge it is at most d1 plus the largest finite edge distance
    long, so a bounded flooding over that interval seeds its start (none
    when d1 is infinite).  When it starts with an infinite edge src -> dst,
    every route on from dst completes it, so src is seeded with s1[src]
    combined with the d1 = 0 value at dst.  Seeds are then back-propagated
    until a fixpoint (``csr_back_propagate``).
    """
    s1, s2, bottom, _ = _verdicts(s1, s2)
    incoming = model.edges(f).incoming
    if d1 == 0:
        return csr_back_propagate(incoming, s1, s2)
    finite = np.isfinite(incoming.data)
    if d1 == math.inf:
        # no route of finite edges is infinitely long
        s = np.full(model.location_count, bottom)
    else:
        d_max = incoming.data[finite].max(initial=0).item()
        s = csr_flood(incoming, d1, d1 + d_max, s1, s2)
    if not finite.all():
        anywhere = csr_back_propagate(incoming, s1, s2)
        src, dst = (a[~finite] for a in _edges(incoming))
        np.maximum.at(s, src, np.minimum(s1[src], anywhere[dst]))
    return csr_back_propagate(incoming, s1, s)


def csr_back_propagate(incoming: csr_array, s1: np.ndarray, s: np.ndarray, rounds: Optional[int] = None) -> np.ndarray:
    s = np.array(s)  # a copy: the result never aliases an input
    if s.dtype == bool and rounds is None:
        return cutoff_reached_within(incoming, s1, s, math.inf)
    step = csr_step_back(incoming, s1)
    for _ in range(incoming.shape[0] + 1 if rounds is None else rounds):
        raised = step(s, s)
        if not (raised > s).any():
            break
        s = raised
    return s


def _view_instance(rng: random.Random, domain):
    """A random snapshot of 1-12 locations whose edges are none, of one
    distance c (c from 1, 0.1, 0.5, 3 and inf), of several dyadic
    distances, or of several with inf among them, a distance function, and
    s1 and s2 over ``domain``'s values, signed zeros and +-inf included."""
    n = rng.choice([1, 2, 3, 5, 8, 12])
    kind = rng.choice(["none", "uniform", "mixed", "infinite"])
    c = rng.choice([1.0, 0.1, 0.5, 3.0, math.inf])
    weights = {"none": [], "uniform": [c], "mixed": [0.25, 0.5, 1.0, 2.0], "infinite": [0.5, 1.0, math.inf]}[kind]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    rng.shuffle(pairs)
    count = rng.randint(1, min(3 * n, len(pairs))) if weights and pairs else 0
    edges = [(a, rng.choice(weights), b) for a, b in pairs[:count]]
    if kind == "infinite" and edges:
        edges[0] = (edges[0][0], math.inf, edges[0][2])
    model = build_spatial_model(n, edges)
    f = hop_distance() if weights == [1.0] and rng.random() < 0.5 else weight_sum_distance()
    if domain is BOOL:
        s1, s2 = _pick(rng, n, rng.choice(["all", "some", "none"]), 0.7), _pick(rng, n, "some", 0.2)
    else:
        pool = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.inf, -math.inf)
        s1, s2 = (np.array([rng.choice(pool) for _ in range(n)]) for _ in range(2))
    return model, f, ("none" if not edges else kind), s1, s2


def _outcome(kernel, *args):
    """A kernel's verdicts as (dtype, bytes), or its SemanticError's text."""
    try:
        out = kernel(*args)
    except SemanticError as exc:
        return str(exc)
    return out.dtype.str, out.tobytes()


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_reach_on_edge_views_matches_csr_reference_bit_for_bit(domain):
    """On snapshots with no edges, one location, edges of infinite
    distance, and one or several distances, bounded reach with d1 from 0,
    positive values and inf, and d2 finite, at the loop-erased bound (just
    below it, at it and past it) or inf, and unbounded reach with the same
    d1, give the CSR reference's verdicts bit for bit, or its error."""
    rng = random.Random(2727)
    covered = set()
    with deadline(60):
        for _ in range(400):
            model, f, kind, s1, s2 = _view_instance(rng, domain)
            n = model.location_count
            d_max = model.edges(f).incoming.data.max(initial=0).item()
            for d1 in (0.0, rng.choice([0.25, 0.5, 1.0, 2.5, 3.0]), math.inf):
                assert _outcome(unbounded_reach, model, f, d1, s1, s2) == _outcome(csr_unbounded_reach, model, f, d1, s1, s2)
                bound = d1 + (n + 1) * d_max
                finite = d1 + rng.choice([0.0, 0.3, 1.0, 2.0]) * (1.0 if d_max in (0.0, math.inf) else d_max)
                cases = [("finite", finite), ("below", math.nextafter(bound, 0)), ("bound", bound), ("past", bound + 1)]
                for where, d2 in [("inf", math.inf)] + (cases if d1 < math.inf else []):
                    want = _outcome(csr_bounded_reach, model, f, d1, d2, s1, s2)
                    assert _outcome(bounded_reach, model, f, d1, d2, s1, s2) == want, (kind, n, d1, d2)
                    covered.add((kind, "zero" if d1 == 0 else "inf" if d1 == math.inf else "positive", where, n == 1))
    kinds = ("none", "uniform", "mixed", "infinite")
    assert {(k, d1, w, False) for k in kinds for d1 in ("zero", "positive") for w in ("finite", "bound", "inf")} <= covered
    assert {(k, "inf", "inf", False) for k in kinds} | {("none", "zero", "finite", True)} <= covered


def test_each_snapshot_builds_one_edge_view_per_distance(monkeypatch):
    """``SpatialModel.edges`` is built once per snapshot and distance
    function and returns that one object: its CSR holds the mapped
    distances, ``src`` is the CSR's ``indices``, ``dst`` its rows in the same
    order and ``step`` the one distance or None.  A second ``monitor`` run
    on a fresh copy of the context (same model, empty memo) builds no view,
    since reach and escape read the ones the first run cached."""
    space = importlib.import_module("strelmon.space")
    built, edge_view = [], space.EdgeView
    monkeypatch.setattr(space, "EdgeView", lambda *args: built.append(args) or edge_view(*args))
    model = build_spatial_model(4, [(0, 0.5, 1), (1, 2.0, 0), (2, 0.5, 1), (3, 1.0, 2)])
    view, hops = model.edges(weight_sum_distance()), model.edges(hop_distance())
    assert view is model.edges(weight_sum_distance()) and hops is model.edges(hop_distance()) and view is not hops
    assert len(built) == 2
    assert view.src is view.incoming.indices and (view.step, hops.step) == (None, 1.0)
    assert sorted(zip(view.src.tolist(), view.dst.tolist(), view.incoming.data.tolist())) == sorted(
        zip(model.src.tolist(), model.dst.tolist(), model.weight.tolist())
    )
    ctx = path3_ctx(QUANT)
    formula = parse("(coord reach(hop)[0,1] router) & (coord reach(hop)[1,2] router) & escape(hop)[1,inf] coord")
    built.clear()
    first = monitor(ctx, formula)
    assert len(built) == 1
    built.clear()
    second = monitor(dataclasses.replace(ctx), formula)
    assert built == [] and first.times.tobytes() == second.times.tobytes() and first.values.tobytes() == second.values.tobytes()


def _cycle_blocks(rng, n):
    """A random digraph on n locations whose strongly connected components
    are simple cycles or single locations, with random edges from earlier to
    later components: walks of k edges grow polynomially in k, so route
    enumeration stays cheap for k up to about 60."""
    order = list(range(n))
    rng.shuffle(order)
    blocks, edges = [], set()
    while order:
        size = rng.randint(1, min(3, len(order)))
        block, order = order[:size], order[size:]
        if size > 1:
            edges.update(zip(block, block[1:] + block[:1]))
        blocks.append(block)
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            if rng.random() < 0.5:
                edges.add((rng.choice(a), rng.choice(b)))
    return build_spatial_model(n, [(a, 1.0, b) for a, b in sorted(edges)])


# The exact-step lower bounds checked against walk enumeration under hop.
DEEP_LOWER_BOUNDS = range(1, 61)


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_deep_exact_steps_match_walk_enumeration(domain):
    """reach(hop)[d1, d2] for every d1 in 1..60 and d2 = d1 + {0, 1, 2, 3},
    on directed cycles of 2-6 locations and on small random digraphs whose
    components are cycles, equals the enumeration of every walk."""
    rng = random.Random(6060)
    f = hop_distance()
    with deadline(60):
        for trial in range(40):
            n = rng.randint(2, 6)
            if trial % 2:
                model = _cycle_blocks(rng, n)
            else:
                model = build_spatial_model(n, [(l, 1.0, (l + 1) % n) for l in range(n)])
            s1 = _random_spatial(rng, domain, n)
            s1[rng.randrange(n)] = domain.top
            s2 = _random_spatial(rng, domain, n)
            for d1 in DEEP_LOWER_BOUNDS:
                d2 = d1 + rng.choice([0, 1, 2, 3])
                got = reach(model, f, Interval(d1, d2), s1, s2).tolist()
                assert got == [walk_reach(model, f, d1, d2, s1, s2, domain, l) for l in range(n)], (trial, d1, d2)


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_lightest_cycle_bounds_the_flooding_rounds(domain):
    """A cycle of a 1 and a 1e-6 edge adds at least about 1 per pass, so
    [1, 2] floods a few rounds; the smallest on-cycle edge alone estimated
    2e6 and refused it.  The lightest-cycle estimate still refuses a long
    flooding around that cycle."""
    top, bottom = domain.top, domain.bottom
    model = build_spatial_model(3, [(0, 1.0, 1), (1, 1.0, 2), (2, 1e-6, 1)])
    f = weight_sum_distance()
    s1, s2 = [top] * 3, [bottom, bottom, top]
    got = bounded_reach(model, f, 1.0, 2.0, s1, s2).tolist()
    assert got == [walk_reach(model, f, 1.0, 2.0, s1, s2, domain, l) for l in range(3)] == [top] * 3
    with pytest.raises(SemanticError, match=r"needs about 3e\+04 flooding rounds"):
        bounded_reach(model, f, 1e4, 1e4, s1, s2)


# The relaxation quantitative unbounded reach and escape ran before the
# max/min array kernels, kept verbatim (the docstrings shortened) as the
# reference they are checked against; its visiting order decided which of
# +0.0 and -0.0 a zero verdict carried.


def relax_reference(neighbours: list[list[int]], s1: list, s: list, active: set[int]) -> list:
    """Max/min relaxation from the ``active`` locations until a fixpoint:
    s[v] absorbs s[u] combined with s1[v] for every v in neighbours[u]."""
    while active:
        nxt: set[int] = set()
        for u in active:
            base = s[u]
            for v in neighbours[u]:
                x = s1[v]
                v2 = base if base <= x else x
                if v2 > s[v]:
                    s[v] = v2
                    nxt.add(v)
        active = nxt
    return s


def neighbours_reference(model, forward: bool) -> list[list[int]]:
    """Per location, the far ends of its outgoing (``forward``) or incoming
    edges in edge order."""
    near, far = (model.src, model.dst) if forward else (model.dst, model.src)
    order = np.argsort(near, kind="stable")
    bounds = np.searchsorted(near[order], np.arange(model.location_count + 1)).tolist()
    ends = far[order].tolist()
    return [ends[a:b] for a, b in zip(bounds, bounds[1:])]


def quantitative_unbounded_reach_reference(model, f, d1, s1, s2, domain):
    """Quantitative unbounded reach on the relaxation; the seeding flooding
    is ``flooding_reference``."""
    incoming = model.edges(f).incoming
    if d1 == 0:
        return back_propagate_reference(model, incoming, s1, list(s2), domain)
    finite = np.isfinite(incoming.data)
    if d1 == math.inf:
        # no route of finite edges is infinitely long
        s = [domain.bottom] * model.location_count
    else:
        d_max = incoming.data[finite].max(initial=0).item()
        s = flooding_reference(model, f, d1, d1 + d_max, s1, s2, domain)
    if not finite.all():
        anywhere = back_propagate_reference(model, incoming, s1, list(s2), domain)
        edges = incoming.tocoo()
        for dst, src in zip(edges.row[~finite].tolist(), edges.col[~finite].tolist()):
            s[src] = max(s[src], min(s1[src], anywhere[dst]))
    return back_propagate_reference(model, incoming, s1, s, domain)


def back_propagate_reference(model, incoming, s1, s, domain):
    """The quantitative branch of the former ``_back_propagate``."""
    return relax_reference(neighbours_reference(model, forward=False), s1, s, set(range(model.location_count)))


def per_start_escape_reference(model, f, interval, s1, domain):
    """Escape with one forward relaxation per start location."""
    d1 = interval.lo
    d2 = math.inf if interval.hi is None else interval.hi
    if not d1 <= d2:
        raise SemanticError(f"malformed distance interval [{d1}, {d2}]")
    dist = min_distance_matrix(model, f)
    n = model.location_count
    bottom = domain.bottom
    successors = neighbours_reference(model, forward=True)
    out = []
    for l in range(n):
        e = [bottom] * n
        e[l] = s1[l]
        relax_reference(successors, s1, e, {l})
        acc = bottom
        row_dist = dist[l]
        for l2 in range(n):
            if d1 <= row_dist[l2] <= d2 and e[l2] > acc:
                acc = e[l2]
        out.append(acc)
    return out


def test_unbounded_reach_matches_relaxation_reference():
    """On 10-300 locations with signed zeros and +-inf values, some edges of
    infinite weight, under hop and weight and with d1 in {0, 1, 2}, the edge
    array relaxation gives the relaxation's values once -0.0 reads +0.0."""
    rng = random.Random(3301)
    pool = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.inf, -math.inf)
    for _ in range(30):
        n = rng.randint(10, 300)
        weights = rng.choice([[1.0], [0.5, 1.0, 1.5], [0.1, 0.2, 0.3, 0.7], [1.0] * 9 + [math.inf]])
        model = _random_digraph(rng, n, rng.choice([1, 2, 3]), weights)
        f = rng.choice([hop_distance(), weight_sum_distance()])
        s1 = [rng.choice(pool) for _ in range(n)]
        s2 = [rng.choice(pool) for _ in range(n)]
        d1 = rng.choice([0.0, 1.0, 2.0])
        got = unbounded_reach(model, f, d1, s1, s2).tolist()
        want = quantitative_unbounded_reach_reference(model, f, d1, s1, s2, QUANT)
        assert repr(one_zero(got)) == repr(one_zero(want))


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_escape_matches_per_start_relaxation_reference(domain):
    """On 10-300 locations, under hop and weight, with lower bounds in
    {0, 1, 2} and bounded and unbounded upper ones, the closure gives the
    per-start relaxation's values once -0.0 reads +0.0."""
    rng = random.Random(3302)
    pool = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.inf, -math.inf)
    for trial in range(16):
        n = rng.randint(10, 300)
        model = _random_digraph(rng, n, rng.choice([1, 2, 3]), rng.choice([[1.0], [0.5, 1.0, 1.5]]))
        f = rng.choice([hop_distance(), weight_sum_distance()])
        if domain is BOOL:
            s1 = [rng.random() < 0.7 for _ in range(n)]
        else:
            s1 = [rng.choice(pool) for _ in range(n)]
        d1 = rng.choice([0.0, 1.0, 2.0])
        interval = Interval(d1, None if trial % 2 else d1 + rng.choice([0.0, 1.0, 4.0]))
        got = escape(model, f, interval, s1).tolist()
        assert repr(one_zero(got)) == repr(one_zero(per_start_escape_reference(model, f, interval, s1, domain)))


def _read_only(values, dtype):
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_kernels_leave_read_only_inputs_unchanged(domain):
    """The monitor hands the kernels slices of its row arrays, so no kernel
    path may write into its inputs: given read-only arrays, each returns a
    fresh array and leaves the inputs' bytes as they were.  The paths are
    Boolean Dijkstra (d1 = 0), flooding (d1 > 0, and quantitative d1 = 0),
    the quantitative relaxation, unbounded reach over infinite edges, the
    escape closure on directed snapshots and single linkage on symmetric
    ones."""
    rng = random.Random(4242)
    dtype = bool if domain is BOOL else float
    pool = (True, False) if domain is BOOL else (0.0, -0.0, 0.5, -1.0, math.inf, -math.inf)
    f = weight_sum_distance()
    for trial in range(20):
        n = rng.randint(3, 30)
        random_graph = _random_undirected if trial % 2 else _random_digraph
        model = random_graph(rng, n, 2, [0.5, 1.0, math.inf])
        s1 = _read_only([rng.choice(pool) for _ in range(n)], dtype)
        s2 = _read_only([rng.choice(pool) for _ in range(n)], dtype)
        before = s1.tobytes(), s2.tobytes()
        calls = [
            lambda: bounded_reach(model, f, 0.0, 2.0, s1, s2),
            lambda: bounded_reach(model, f, 0.5, 2.0, s1, s2),
            lambda: unbounded_reach(model, f, 0.0, s1, s2),
            lambda: unbounded_reach(model, f, 1.0, s1, s2),
            lambda: escape(model, f, Interval(1.0, UNBOUNDED), s1),
            lambda: escape(model, f, Interval(0.0, 2.0), s1),
        ]
        for call in calls:
            out = call()
            assert isinstance(out, np.ndarray) and out.dtype == dtype and out.shape == (n,)
            assert out.flags.writeable
            assert (s1.tobytes(), s2.tobytes()) == before


# ---------------------------------------------------------------------------
# whole-formula behaviour


def test_atom_verdicts_network16():
    ctx = make_network16_ctx()
    out = monitor(ctx, Atomic("coord"))
    assert satisfied_locations(out, ctx) == [9]  # the unique coordinator


def test_constant_comparison_atoms():
    model = DynamicalSpatialModel.static(build_spatial_model(1, []))
    trace = Trace(("x",), (TemporalSignal((0.0,), ((1.0,),), 5.0),))
    ctx = MonitorContext(model=model, trace=trace, domain=BOOL, distances={})
    assert monitor(ctx, parse("x > 0")).value_at(0, 3.0) is True
    qctx = MonitorContext(model=model, trace=trace, domain=QUANT, distances={})
    trace03 = Trace(("x",), (TemporalSignal((0.0,), ((0.3,),), 5.0),))
    qctx = MonitorContext(model=model, trace=trace03, domain=QUANT, distances={})
    out = monitor(qctx, parse("x > 0"))
    assert out.value_at(0, 2.0) == pytest.approx(0.3)


def per_cell_atom_reference(ctx, name):
    """The atom loop the engine ran while an interpretation was a function
    of one location's value tuple, kept verbatim (from ``fn = ...`` on) as
    the reference the whole-array interpretations are checked against."""
    trace, dom = ctx.trace, ctx.domain
    times, data = trace.grid
    boolean = dom.name == "boolean"
    fn = ctx.interpretation[name]
    rows = [[fn(tuple(v)) for v in row] for row in data.tolist()]
    values = np.array(rows, dtype=bool if boolean else float)
    return canonical(times, values, trace.end_time)


# (name, tuple callable as the per-cell loop called it, the same atom over
# the whole steps x locations x variables array)
TUPLE_AND_ARRAY_ATOMS = {
    "boolean": [
        ("zero_x", lambda v: v[0] == 0, lambda d: d[..., 0] == 0),
        ("x_above_y", lambda v: v[0] > v[1], lambda d: d[..., 0] > d[..., 1]),
        ("some_positive", lambda v: any(x > 0 for x in v), lambda d: (d > 0).any(axis=-1)),
    ],
    "quantitative": [
        ("margin", lambda v: v[0] - v[1], lambda d: d[..., 0] - d[..., 1]),
        ("negated", lambda v: -v[0], lambda d: -d[..., 0]),
        ("least", lambda v: min(v), lambda d: d.min(axis=-1)),
        ("coded", lambda v: math.inf if v[-1] == 0 else -math.inf,
         lambda d: np.where(d[..., -1] == 0, math.inf, -math.inf)),
    ],
}


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_array_interpretations_match_per_cell_reference(domain):
    """On random steps x locations x variables grids with signed zeros
    (locations stepping at different times), each array interpretation
    gives the per-cell loop's verdict bit for bit: both pass through
    ``canonical``, which leaves +0.0 as the only zero."""
    rng = random.Random(1717)
    pool = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0)
    atoms = TUPLE_AND_ARRAY_ATOMS[domain.name]
    for _ in range(40):
        n, k = rng.randint(1, 12), rng.randint(2, 3)
        grid = [i / 4 for i in range(rng.randint(1, 20))]
        signals = []
        for _loc in range(n):
            times = [0.0] + sorted(rng.sample(grid[1:], rng.randint(0, len(grid) - 1)))
            values = tuple(tuple(rng.choice(pool) for _ in range(k)) for _ in times)
            signals.append(TemporalSignal(tuple(times), values, grid[-1] + 1.0))
        trace = Trace(tuple("xyz"[:k]), tuple(signals))
        model = DynamicalSpatialModel.static(build_spatial_model(n, []))

        def context(pick):
            interpretation = {name: fns[pick] for name, *fns in atoms}
            return MonitorContext(model=model, trace=trace, domain=domain, interpretation=interpretation)

        per_cell, whole = context(0), context(1)
        for name, *_ in atoms:
            want = per_cell_atom_reference(per_cell, name)
            got = monitor(whole, Atomic(name))
            assert got.times.tobytes() == want.times.tobytes()
            assert got.values.dtype == want.values.dtype
            assert got.values.tobytes() == want.values.tobytes(), name


@pytest.mark.parametrize(
    "bad, shape",
    [
        (lambda d: True, "()"),
        (lambda d: d[..., :1] > 0, "(3, 2, 1)"),
        (lambda d: d[:, 1:, 0] > 0, "(3, 1)"),
    ],
    ids=["scalar", "trailing_axis", "location_count"],
)
def test_interpretation_of_wrong_shape_is_one_line_error(bad, shape):
    """An interpretation must return exactly steps x locations; anything
    else is named, with both shapes, instead of broadcast."""
    signals = tuple(TemporalSignal((0.0, 1.0, 2.0), ((0.0,), (1.0,), (2.0,)), 3.0) for _ in range(2))
    trace = Trace(("x",), signals)
    model = DynamicalSpatialModel.static(build_spatial_model(2, [(0, 1.0, 1)]))
    for domain in (BOOL, QUANT):
        ctx = MonitorContext(model=model, trace=trace, domain=domain, interpretation={"odd": bad})
        with pytest.raises(SemanticError) as err:
            monitor(ctx, parse("F odd"))
        message = str(err.value)
        assert message == f"interpretation of atom 'odd' returned shape {shape}, expected (3, 2)"


def test_interpretation_cannot_write_into_the_trace():
    """Every atom reads the trace's one cached data array, so interpretations
    get it read-only: writing into it fails instead of changing the other
    atoms' verdicts."""

    def shifted(data):
        data[..., 0] -= 1.0
        return data[..., 0] > 0

    trace = Trace(("x",), (TemporalSignal((0.0, 1.0), ((0.5,), (2.0,)), 3.0),))
    model = DynamicalSpatialModel.static(build_spatial_model(1, []))
    ctx = MonitorContext(model=model, trace=trace, domain=BOOL, interpretation={"shifted": shifted})
    with pytest.raises(ValueError, match="read-only"):
        monitor(ctx, parse("shifted"))
    assert trace.grid[1].tolist() == [[[0.5]], [[2.0]]]
    assert monitor(ctx, parse("x > 1")).signals[0].values == (False, True)


def test_nan_trace_value_is_an_error_not_a_verdict():
    """A NaN in a library-built trace used to give a NaN verdict at its
    cell and spread to the neighbours through reach; the trace grid every
    atom reads now names the cell."""
    model = DynamicalSpatialModel.static(build_spatial_model(2, [(0, 1.0, 1), (1, 1.0, 0)]))
    trace = Trace(("x",), (sig([(0.0, (math.nan,))], 1.0), sig([(0.0, (1.0,))], 1.0)))
    for domain in (BOOL, QUANT):
        ctx = MonitorContext(model, trace, domain, standard_distances())
        for text in ("x > 0", "true reach(hop)[0,2] (x > 0)"):
            with pytest.raises(SignalError, match=r"^location 0 holds NaN for 'x' at time 0$"):
                monitor(ctx, parse(text))


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_asynchronous_csv_trace_gives_the_in_memory_verdicts(domain, tmp_path):
    """load_trace keeps each location's own steps, and the monitor puts
    them on one grid: a saved asynchronous trace, loaded back, gives the
    verdicts of the trace it was saved from, bit for bit.  Each formula
    runs on fresh copies of both contexts, so no verdict comes from the
    memo of an earlier formula."""
    rng = random.Random(1303)
    compared = 0
    for trial in range(40):
        n = rng.randint(1, 6)
        grid = [i / 10 for i in range(rng.randint(2, 12))]
        signals = []
        for loc in range(n):
            inner = sorted(rng.sample(grid[1:-1], rng.randint(0, len(grid) - 2)))
            # the file keeps no end time; location 0 steps at the end
            times = (0.0, *inner) + ((grid[-1],) if loc == 0 else ())
            values = tuple((rng.randint(-4, 4) / 4, float(rng.randint(0, 1))) for _ in times)
            signals.append(TemporalSignal(times, values, grid[-1]))
        trace = Trace(("x", "y"), tuple(signals))
        path = tmp_path / f"{trial}.csv"
        save_trace(trace, str(path))
        model = DynamicalSpatialModel.static(random_model(rng, n, 8))
        ctx = MonitorContext(model, trace, domain, standard_distances())
        back = MonitorContext(model, load_trace(str(path)), domain, standard_distances())
        assert [s.times for s in back.trace.signals] == [s.times for s in signals]
        for formula in [random_formula(rng, rng.randint(0, 3)) for _ in range(4)]:
            try:
                want = monitor(dataclasses.replace(ctx), formula)
            except SemanticError:
                with pytest.raises(SemanticError):
                    monitor(dataclasses.replace(back), formula)
                continue
            got = monitor(dataclasses.replace(back), formula)
            assert got.times.tobytes() == want.times.tobytes(), formula
            assert got.values.tobytes() == want.values.tobytes(), formula
            assert got.end_time == want.end_time
            compared += 1
    assert compared > 80


def test_interpretation_returning_nan_is_one_line_error():
    """NaN from an interpretation is a SemanticError in both domains (a
    Boolean cast used to read it as true); +-inf are values."""
    trace = Trace(("x",), tuple(sig([(0.0, (v,))], 1.0) for v in (0.0, 1.0)))
    model = DynamicalSpatialModel.static(build_spatial_model(2, [(0, 1.0, 1)]))
    interpretation = {
        "odd": lambda d: np.where(d[..., 0] > 0, math.nan, 1.0),
        "far": lambda d: np.where(d[..., 0] > 0, math.inf, -math.inf),
    }
    for domain in (BOOL, QUANT):
        ctx = MonitorContext(model, trace, domain, interpretation=interpretation)
        with pytest.raises(SemanticError) as err:
            monitor(ctx, parse("odd"))
        assert str(err.value) == "interpretation of atom 'odd' returned NaN"
    ctx = MonitorContext(model, trace, QUANT, interpretation=interpretation)
    assert monitor(ctx, parse("far")).values.tolist() == [[-math.inf, math.inf]]


def test_network16_reach_verdicts():
    ctx = make_network16_ctx()
    out = monitor(ctx, parse("end_dev reach(hop)[0,1] router"))
    sat = set(satisfied_locations(out, ctx))
    assert 5 in sat  # location 6: end device next to router 5
    assert 9 not in sat  # the coordinator cannot reach a router through end devices
    # A router is its own witness at distance zero: the zero-length route
    # prefix needs nothing of the left operand, so location 8 satisfies.
    assert 7 in sat


def test_network16_spatial_suite():
    ctx = make_network16_ctx()
    somewhere_out = monitor(ctx, parse("somewhere(hop)[0,4] coord"))
    assert satisfied_locations(somewhere_out, ctx) == list(range(16))
    everywhere_out = monitor(ctx, parse("everywhere(hop)[0,2] router"))
    assert satisfied_locations(everywhere_out, ctx) == []
    surround_out = monitor(ctx, parse("(coord|router) surround(hop)[0,3] end_dev"))
    assert 9 in satisfied_locations(surround_out, ctx)
    escape_out = monitor(ctx, parse("escape(hop)[2,inf] !end_dev"))
    assert 9 in satisfied_locations(escape_out, ctx)


def test_monitor_equals_desugared_monitor():
    rng = random.Random(55)
    dists = standard_distances()
    checked = 0
    while checked < 40:
        domain = rng.choice([BOOL, QUANT])
        dm, trace = random_instance(rng, domain)
        formula = random_formula(rng, rng.randint(1, 3))
        ctx = MonitorContext(model=dm, trace=trace, domain=domain, distances=dists)
        from strelmon.logic import desugar

        try:
            direct = monitor(ctx, formula)
        except SemanticError:
            continue
        desugared = monitor(dataclasses.replace(ctx), desugar(formula))
        compare_spatiotemporal(direct, desugared, domain)
        checked += 1


def test_interval_monotonicity_of_reach():
    rng = random.Random(66)
    f = weight_sum_distance()
    for _ in range(40):
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1 = [rng.randint(-8, 8) / 4 for _ in range(n)]
        s2 = [rng.randint(-8, 8) / 4 for _ in range(n)]
        d1_small = rng.choice([0.0, 1.0])
        d1_large = d1_small + rng.choice([0.0, 1.0])
        d2_small = d1_large + rng.choice([0.0, 2.0])
        d2_large = d2_small + rng.choice([0.0, 2.0])
        inner = bounded_reach(model, f, d1_large, d2_small, s1, s2)
        outer = bounded_reach(model, f, d1_small, d2_large, s1, s2)
        for a, b in zip(inner, outer):
            assert a <= b


def test_boolean_quantitative_sign_soundness():
    rng = random.Random(88)
    dists = standard_distances()
    checked = 0
    while checked < 60:
        dm, trace = random_instance(rng, QUANT)
        formula = random_formula(rng, rng.randint(1, 3))
        qctx = MonitorContext(model=dm, trace=trace, domain=QUANT, distances=dists)
        bctx = MonitorContext(model=dm, trace=trace, domain=BOOL, distances=dists)
        try:
            q = monitor(qctx, formula)
        except SemanticError:
            continue
        b = monitor(bctx, formula)
        probes = sorted(set(q.step_times()) | set(b.step_times()))
        for loc in range(q.location_count):
            for t in probes:
                qv = q.value_at(loc, t)
                bv = b.value_at(loc, t)
                if qv > 0:
                    assert bv is True
                elif qv < 0:
                    assert bv is False
        checked += 1


def test_dynamic_graph_change_without_trace_steps():
    # the graph flips while the trace is constant; the verdict must follow it
    m_connected = build_spatial_model(2, [(0, 1.0, 1), (1, 1.0, 0)])
    m_empty = build_spatial_model(2, [])
    dm = DynamicalSpatialModel(((0.0, m_connected), (5.0, m_empty)))
    trace = Trace(
        ("p",),
        (
            TemporalSignal((0.0,), ((0.0,),), 10.0),
            TemporalSignal((0.0,), ((1.0,),), 10.0),
        ),
    )
    ctx = MonitorContext(model=dm, trace=trace, domain=BOOL, distances=standard_distances())
    out = monitor(ctx, parse("somewhere(hop)[0,1] p"))
    assert out.value_at(0, 0.0) is True
    assert out.value_at(0, 4.999) is True
    assert out.value_at(0, 5.0) is False
    assert out.value_at(1, 7.0) is True  # location 1 satisfies p itself


def test_unresolved_names_are_semantic_errors():
    ctx = make_network16_ctx()
    with pytest.raises(SemanticError, match="nosuchvar"):
        monitor(ctx, parse("nosuchvar"))
    with pytest.raises(SemanticError, match="gap"):
        monitor(ctx, parse("coord reach(gap)[0,1] router"))
    with pytest.raises(SemanticError, match="at_99"):
        monitor(ctx, parse("at_99"))


@pytest.mark.parametrize("name", ["at_\u00b2", "at_\u0663"])
@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_address_atoms_take_ascii_digits_only(name, domain):
    """A superscript two or an Arabic-Indic three is a digit to str.isdigit
    but not to the grammar, so at_\u00b2 is an unknown name in both the
    engine and the oracle, never an address or a bare ValueError."""
    ctx = path3_ctx(domain)
    message = (
        f"atom {name!r} is neither a trace variable nor an interpreted name; "
        "variables are ['coord', 'router']"
    )
    for run in (monitor, oracle_monitor):
        with pytest.raises(SemanticError) as err:
            run(ctx, Atomic(name))
        assert str(err.value) == message


def test_names_are_checked_before_any_operator_runs(monkeypatch):
    """Every name fault to the right of a reach and an until is reported
    before either kernel runs, interpretation faults included, with the
    message the oracle gives too."""

    def operator_ran(*_args):
        raise AssertionError("an operator ran before the names were checked")

    for kernel in ("reach", "escape", "monitor_until", "monitor_since"):
        monkeypatch.setattr(engine, kernel, operator_ran)
    ctx = dataclasses.replace(path3_ctx(BOOL), interpretation={
        "nan_atom": lambda data: np.full(data.shape[:2], np.nan),
        "flat": lambda data: np.zeros(data.shape[1]),
    })
    faults = {
        "nosuch": "atom 'nosuch' is neither a trace variable nor an interpreted name; "
        "variables are ['coord', 'router']",
        "coord reach(gap) router": "unknown distance function 'gap'; registered: ['hop']",
        "at_99": "address atom 'at_99' names a missing location",
        "nan_atom": "interpretation of atom 'nan_atom' returned NaN",
        "flat": "interpretation of atom 'flat' returned shape (3,), expected (2, 3)",
    }
    for fault, message in faults.items():
        formula = parse(f"(coord reach(hop) router) & F[0,1] coord & {fault}")
        for run in (monitor, oracle_monitor):
            with pytest.raises(SemanticError) as err:
                run(ctx, formula)
            assert str(err.value) == message, (fault, run)


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_nested_surround_is_evaluated_as_a_dag(domain):
    """33 left-nested surrounds (the most the depth cap admits), and X & X
    with X 16 of them, take one evaluation per distinct core node: as trees
    they would grow 4x per level.  Each text runs on a fresh context, so
    the second does not read the first's 16-level prefix from the memo."""
    ctx = path3_ctx(domain)
    x = left_nested_surround(16)
    for text in (left_nested_surround(33), f"({x}) & ({x})"):
        with deadline(2):
            out = monitor(dataclasses.replace(ctx), parse(text))
        assert out.values.shape[1] == 3


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_desugaring_a_core_formula_again_returns_it(domain):
    """desugar rewrites each node object of its input once, so the core of
    33 left-nested surrounds, about 4**33 nodes as a tree, desugars to
    itself, and ``monitor``, which desugars what it is given, takes the core
    as it takes the text (on a fresh context, so not from the memo).
    Walking the core as a tree took 4x per level."""
    text = left_nested_surround(33)
    core = desugar(parse(text))
    ctx = path3_ctx(domain)
    with deadline(2):
        same = desugar(core) is core
        out = monitor(ctx, core)
    want = monitor(dataclasses.replace(ctx), parse(text))
    assert same and out.times.tobytes() == want.times.tobytes() and out.values.tobytes() == want.values.tobytes()


def test_each_distinct_core_node_is_evaluated_once(monkeypatch):
    """desugar interns equal subformulas into one object, atoms are
    evaluated once each by validate_formula and every other node once by
    _eval_node: as many calls as distinct nodes, by identity or by value."""
    seen = []

    def counted(original):
        def call(ctx, node, *rest):
            seen.append(node)
            return original(ctx, node, *rest)

        return call

    monkeypatch.setattr(engine, "_eval_node", counted(engine._eval_node))
    monkeypatch.setattr(engine, "_atom_signal", counted(engine._atom_signal))
    x = left_nested_surround(3)
    for text in (left_nested_surround(4), f"({x}) & ({x}) & F[0,1] ({x} | coord)"):
        seen.clear()
        monitor(path3_ctx(QUANT), parse(text))
        core = list(iter_subformulas(desugar(parse(text))))
        assert len({id(node) for node in seen}) == len(seen) == len(core) == len(set(core))


def test_address_atoms():
    ctx = make_network16_ctx()
    out = monitor(ctx, parse("at_3"))
    assert satisfied_locations(out, ctx) == [3]
    cyc = monitor(ctx, parse("at_0 reach(hop)[0,1] (!at_0 & somewhere(hop)[0,inf] at_0)"))
    # the network is undirected, so every location with a neighbour lies on a cycle
    assert 0 in satisfied_locations(cyc, ctx)


def test_since_requires_history():
    ctx = make_network16_ctx()
    out = monitor(ctx, parse("router S[1,2] coord"))
    assert out.start == 2.0


def test_globally_horizon_clipping():
    model = DynamicalSpatialModel.static(build_spatial_model(1, []))
    trace = Trace(
        ("x",),
        (TemporalSignal((0.0, 6.0), ((1.0,), (0.0,)), 10.0),),
    )
    ctx = MonitorContext(model=model, trace=trace, domain=BOOL, distances={})
    out = monitor(ctx, parse("G x"))
    # x fails from 6 on, so G x is false everywhere on [0, 10]
    assert all(v is False for v in out.signals[0].values)
    out2 = monitor(ctx, parse("G[0,2] x"))
    assert out2.value_at(0, 0.0) is True
    assert out2.value_at(0, 4.0) is False  # window [4, 6] touches the step at 6
    assert out2.end_time == 8.0


def test_quantitative_tie_order_keeps_signed_zeros():
    """Where the engine used to keep -0.0 by its tie order, every zero
    verdict is now +0.0: the expectations are the former ones with -0.0
    mapped to +0.0."""
    model = DynamicalSpatialModel.static(build_spatial_model(2, [(0, 1.0, 1), (1, 1.0, 0)]))
    trace = Trace(
        ("x",),
        (
            TemporalSignal((0.0, 1.0), ((1.0,), (2.0,)), 2.0),
            TemporalSignal((0.0,), ((1.0,),), 2.0),
        ),
    )
    ctx = MonitorContext(model=model, trace=trace, domain=QUANT, distances={"hop": hop_distance()})
    expected = {
        "(x > 1) & !(x > 1)": "[((0.0, 1.0), (0.0, -1.0)), ((0.0,), (0.0,))]",
        "!(x > 1) & (x > 1)": "[((0.0, 1.0), (0.0, -1.0)), ((0.0,), (0.0,))]",
        "(x < 1) U[0,1] !(x > 1)": "[((0.0, 1.0), (0.0, -1.0)), ((0.0,), (0.0,))]",
        "(x > 1) reach(hop)[1,2] !(x > 1)": "[((0.0,), (0.0,)), ((0.0,), (0.0,))]",
        "escape(hop)[1,inf] !(x > 1)": "[((0.0, 1.0), (0.0, -1.0)), ((0.0, 1.0), (0.0, -1.0))]",
    }
    for text, want in expected.items():
        out = monitor(ctx, parse(text))
        assert repr([(s.times, s.values) for s in out.signals]) == want, text
    one_edge = build_spatial_model(2, [(0, 1.0, 1)])
    out = escape(one_edge, hop_distance(), Interval(1, UNBOUNDED), [0.0, -0.0]).tolist()
    assert repr(one_zero(out)) == "[0.0, -inf]"


GOLDEN_FORMULAS = [
    "!(x > 0) & (y >= 0)",
    "y & !(x < 0)",
    "(x > 0) U[0.1,0.3] !(y > 0)",
    "(y >= 0) & F (x > 0.5)",
    "(y >= 0) S[0,0.2] (x > 0)",
    "(x > 0) reach(weight)[0,1.5] (y > 0)",
    "(x >= 0) reach(hop)[1,2] !(y > 0)",
    "(y > 0) reach(hop) (x > 0)",
    "escape(weight)[1,inf] (x > 0)",
    "F[0,0.2] ((x > 0) reach(hop)[0,1] y) & !(y < 0)",
]


def golden_instance(seed):
    """Four locations, each stepping on its own subset of a 0.1 grid, with
    signed zeros in the data and a graph that changes at 0.3 and 0.7."""
    rng = random.Random(seed)
    n = 4

    def snapshot():
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(pairs)
        count = rng.randint(3, 7)
        weights = [0.5, 1.0, 1.5]
        return build_spatial_model(n, [(a, rng.choice(weights), b) for a, b in pairs[:count]])

    model = DynamicalSpatialModel(((0.0, snapshot()), (0.3, snapshot()), (0.7, snapshot())))
    grid = [k / 10 for k in range(10)]
    pool = (0.0, -0.0, 0.5, -0.5, 1.0)
    sigs = []
    for _ in range(n):
        times = [0.0] + sorted(rng.sample(grid[1:], rng.randint(2, 7)))
        values = tuple((rng.choice(pool), rng.choice(pool)) for _ in times)
        sigs.append(TemporalSignal(tuple(times), values, 1.0))
    return model, Trace(("x", "y"), tuple(sigs))


def test_golden_outputs_of_the_per_location_engine():
    """Every location's verdict steps, as repr, match those the engine gave
    before verdicts became one shared grid and array per subformula
    (recorded in golden_signals.json, with -0.0 since mapped to +0.0):
    decimal times, signed zeros in the data, both domains, every core
    operator and a changing graph."""
    with open(Path(__file__).with_name("golden_signals.json")) as fh:
        expected = json.load(fh)
    dists = {"hop": hop_distance(), "weight": weight_sum_distance()}
    checked = 0
    for seed in (1, 2, 3):
        model, trace = golden_instance(seed)
        for domain in (BOOL, QUANT):
            ctx = MonitorContext(model=model, trace=trace, domain=domain, distances=dists)
            for text in GOLDEN_FORMULAS:
                out = monitor(ctx, parse(text))
                key = f"{seed} {domain.name} {text}"
                assert repr([(s.times, s.values) for s in out.signals]) == expected[key], key
                checked += 1
    assert checked == len(expected)


def test_monitor_verdicts_hold_no_negative_zero():
    """The reals have one zero: on data full of +0.0 and -0.0, no verdict of
    any subformula is -0.0, each evaluated as the root on a fresh context."""
    rng = random.Random(5150)
    dists = standard_distances()
    checked = 0
    for seed in range(60):
        model, trace = golden_instance(1000 + seed)
        ctx = MonitorContext(model=model, trace=trace, domain=QUANT, distances=dists)
        for _ in range(4):
            for node in iter_subformulas(desugar(random_formula(rng, rng.randint(1, 3)))):
                try:
                    values = monitor(dataclasses.replace(ctx), node).values
                except SemanticError:
                    continue
                assert not (np.signbit(values) & (values == 0)).any(), node
                checked += 1
    assert checked > 500


def test_quantitative_network16_consistency():
    bctx = make_network16_ctx()
    qctx = make_network16_ctx(QUANT)
    for text in (
        "end_dev reach(hop)[0,1] router",
        "escape(hop)[2,inf] !end_dev",
        "somewhere(hop)[0,4] coord",
        "everywhere(hop)[0,2] router",
    ):
        b = monitor(bctx, parse(text))
        q = monitor(qctx, parse(text))
        for loc in range(16):
            bv = b.value_at(loc, 0.0)
            qv = q.value_at(loc, 0.0)
            assert (qv > 0) == (bv is True) or qv == 0


# ---------------------------------------------------------------------------
# the context keeps every verdict, keyed by the interned node


def _memo_epidemic_ctx(seed: int) -> MonitorContext:
    """A 30-person, 10-day simulated epidemic, Boolean, with its state atoms."""
    model, trace = simulate_epidemic(EpidemicConfig(node_count=30, horizon_days=10, initial_infected=4, seed=seed))
    return MonitorContext(model, trace, BOOL, standard_distances(), epidemic_interpretation(BOOL))


def _memo_ring_ctx(domain) -> MonitorContext:
    """Five locations on an undirected unit ring, x stepping at each integer."""
    rng = random.Random(3301)
    model = DynamicalSpatialModel.static(undirected_model(5, [(i, 1.0, (i + 1) % 5) for i in range(5)]))
    signals = tuple(
        TemporalSignal(tuple(float(k) for k in range(6)), tuple((rng.uniform(-1, 1),) for _ in range(6)), 6.0)
        for _ in range(5)
    )
    return MonitorContext(model, Trace(("x",), signals), domain, standard_distances())


def _same_verdict(a: SpatioTemporalSignal, b: SpatioTemporalSignal) -> bool:
    return (a.times.tobytes(), a.values.tobytes(), a.end_time) == (b.times.tobytes(), b.values.tobytes(), b.end_time)


def test_a_second_formula_runs_only_the_nodes_it_has_not_seen(monkeypatch):
    """Two safe radii on one context: the second runs only its own nodes,
    so the shared ``G[0,7] !infected`` runs once, and each verdict is the
    one a fresh context gives."""
    ctx = _memo_epidemic_ctx(11)
    ran = []
    original = engine._eval_node
    monkeypatch.setattr(engine, "_eval_node", lambda ctx, node: ran.append(node) or original(ctx, node))
    near, far = desugar(safe_radius(3.0, 7.0)), desugar(safe_radius(8.0, 7.0))
    shared = desugar(Globally(Interval(0, 7), Not(Atomic("infected"))))
    assert shared in set(iter_subformulas(near)) & set(iter_subformulas(far))
    compound = {node for node in iter_subformulas(near) if not isinstance(node, Atomic)}
    first = monitor(ctx, near)
    assert len(ran) == len(compound) and set(ran) == compound
    ran.clear()
    second = monitor(ctx, far)
    unseen = {node for node in iter_subformulas(far) if not isinstance(node, Atomic)} - compound
    assert len(ran) == len(unseen) and set(ran) == unseen and shared not in ran and len(ran) < len(compound)
    ran.clear()
    assert monitor(ctx, far) is second and ran == []
    assert set(ctx.verdicts) == set(iter_subformulas(near)) | set(iter_subformulas(far))
    assert _same_verdict(first, monitor(dataclasses.replace(ctx), near))
    assert _same_verdict(second, monitor(dataclasses.replace(ctx), far))


def test_the_context_keeps_its_cores_alive():
    """The memo is keyed by the node itself, so it holds every core it
    evaluated: a dropped formula's core stays alive, no later node can take
    its identity, and later formulas read their own verdicts.  The cores die
    with the context."""
    ctx = _memo_ring_ctx(QUANT)
    formula = parse("(x > 0.3303) reach(hop)[0,2] F[0,1] (x < -0.3303)")
    core = desugar(formula)
    monitor(ctx, formula)
    alive = weakref.ref(core)
    del formula, core
    gc.collect()
    assert alive() is not None and alive() in ctx.verdicts
    rng = random.Random(3302)
    for _ in range(40):
        a, b = rng.randint(-9, 9) / 10, rng.randint(-9, 9) / 10
        text = f"(x > {a}) reach(hop)[0,{rng.randint(0, 3)}] F[0,{rng.randint(0, 2)}] (x < {b})"
        assert _same_verdict(monitor(ctx, parse(text)), monitor(dataclasses.replace(ctx), parse(text))), text
    del ctx
    gc.collect()
    assert alive() is None


def test_a_context_is_frozen_and_replace_starts_an_empty_memo():
    """Assigning a field of a context raises, the memo included, and
    ``dataclasses.replace`` gives the same inputs with an empty memo."""
    ctx = _memo_ring_ctx(BOOL)
    for name, value in [("interpretation", {}), ("distances", {}), ("trace", ctx.trace), ("verdicts", {})]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctx, name, value)
    monitor(ctx, parse("somewhere(hop)[0,1] (x > 0)"))
    assert len(ctx.verdicts) == 3
    fresh = dataclasses.replace(ctx)
    assert fresh.verdicts == {} and fresh.verdicts is not ctx.verdicts
    assert (fresh.model, fresh.trace, fresh.domain, fresh.distances) == (ctx.model, ctx.trace, ctx.domain, ctx.distances)


@pytest.mark.parametrize("domain", [BOOL, QUANT], ids=["boolean", "quantitative"])
def test_a_returned_verdict_cannot_be_written_through(domain):
    """A verdict's arrays are read-only, so a caller cannot change what the
    memo answers later: writing raises ValueError, and the next call gives
    the verdict unchanged."""
    ctx = _memo_ring_ctx(domain)
    formula = parse("!(x > 0) & G[0,2] somewhere(hop)[0,1] (x > 0.5)")
    out = monitor(ctx, formula)
    times, values = out.times.copy(), out.values.copy()
    for array, cell in [(out.values, (0, 0)), (out.times, 0)]:
        with pytest.raises(ValueError, match="read-only"):
            array[cell] = array[cell]
    with pytest.raises(ValueError, match="read-only"):
        out.values.fill(values.flat[0])
    inner = ctx.verdicts[desugar(parse("x > 0"))]
    with pytest.raises(ValueError, match="read-only"):
        inner.values[0] = inner.values[0]
    again = monitor(ctx, formula)
    assert again.times.tobytes() == times.tobytes() and again.values.tobytes() == values.tobytes()
