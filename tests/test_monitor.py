import importlib
import json
import math
import random
from bisect import bisect_right
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from conftest import (
    deadline,
    compare_spatiotemporal,
    make_network16_ctx,
    network16_model,
    random_formula,
    random_instance,
    random_model,
    standard_distances,
)
from strelmon.algebra import boolean_domain, maxmin_domain
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
    parse,
)
from strelmon.monitor import (
    MonitorContext,
    SemanticError,
    bounded_reach,
    escape,
    monitor,
    reach,
    satisfied_locations,
    unbounded_reach,
)
from strelmon.oracle import (
    dense_unbounded_reach,
    simple_path_escape,
    walk_reach,
)
from strelmon.signals import SignalError, SpatioTemporalSignal, TemporalSignal, Trace, column_steps
from strelmon.space import (
    DynamicalSpatialModel,
    build_spatial_model,
    hop_distance,
    min_distance_matrix,
    weight_sum_distance,
)


def sig(steps, end):
    times, values = zip(*steps)
    return TemporalSignal(tuple(times), tuple(values), end)


BOOL = boolean_domain()
QUANT = maxmin_domain()
# the package re-exports the function ``monitor`` under the module's name
engine = importlib.import_module("strelmon.monitor")


# ---------------------------------------------------------------------------
# until / since


def _one_location(future):
    """The engine's sweep on one location, as a function of two temporal
    signals: every step of either input, merged over their common domain,
    counts as an own step, so the sweep reads each listed step."""

    def sweep(interval, s1, s2, domain):
        t0, t_end = max(s1.start, s2.start), min(s1.end_time, s2.end_time)
        if t0 > t_end:
            raise SemanticError("signals have no common time domain")
        steps = [t0] + sorted(t for t in set(s1.times).union(s2.times) if t0 < t <= t_end)
        v1, v2 = (np.array([[s.value_at(t)] for t in steps]) for s in (s1, s2))
        own = np.ones(v1.shape, dtype=bool)
        out = engine._temporal_sweep(
            interval, np.array(steps, dtype=float), v1, v2, own, t_end, domain, future
        )
        return out.signals[0]

    return sweep


monitor_until, monitor_since = _one_location(True), _one_location(False)


def test_until_with_constant_true_left_is_sliding_max():
    s1 = sig([(0, True)], 4)
    s2 = sig([(0, False), (1, True), (2, False)], 4)
    out = monitor_until(Interval(0, 1), s1, s2, BOOL)
    # true exactly while the window [t, t+1] overlaps [1, 2)
    assert out.value_at(0) is True
    assert out.value_at(1.5) is True
    assert out.value_at(2.25) is False
    assert out.end_time == 3


def test_until_with_bottom_right_is_bottom():
    s1 = sig([(0, True), (1, False)], 4)
    s2 = sig([(0, False)], 4)
    out = monitor_until(Interval(0, 2), s1, s2, BOOL)
    assert all(v is False for v in out.values)


def test_until_point_window():
    s1 = sig([(0, 5.0)], 4)
    s2 = sig([(0, 1.0), (2, 3.0)], 4)
    out = monitor_until(Interval(1, 1), s1, s2, QUANT)
    assert out.value_at(0) == 1.0
    assert out.value_at(1) == 3.0  # window point t+1 = 2 sits on the step
    assert out.end_time == 3


def test_until_empty_domain_is_an_error():
    s1 = sig([(0, True)], 1)
    s2 = sig([(0, True)], 1)
    with pytest.raises(SemanticError):
        monitor_until(Interval(0, 2), s1, s2, BOOL)


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
        out = monitor_until(interval, s1, s2, domain)
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
        out_since = monitor_since(interval, s1, s2, QUANT)
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
    out = monitor_since(Interval(0, 1), s_top, s2, BOOL)
    # past window [t-1, t] overlaps [1, ...) from t = 1 on
    assert out.start == 1
    assert out.value_at(1) is True
    both_top = monitor_since(Interval(0, 1), s_top, s_top, BOOL)
    assert all(v is True for v in both_top.values)


# The sample-loop sweeps the segment kernel replaced, kept verbatim as a
# reference: every event re-samples its window with a value_at per sample.
# _common_domain is the engine's former per-location domain pairing.


def _common_domain(s1, s2):
    start = max(s1.start, s2.start)
    end = min(s1.end_time, s2.end_time)
    if start > end:
        raise SemanticError(
            f"signals have no common time domain: [{s1.start}, {s1.end_time}] vs "
            f"[{s2.start}, {s2.end_time}]"
        )
    if (s1.start, s1.end_time) != (start, end):
        s1 = s1.restrict(start, end)
    if (s2.start, s2.end_time) != (start, end):
        s2 = s2.restrict(start, end)
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
    """Bit-identical to the sample loops, signed zeros included, on dyadic
    and decimal grids with point, bounded and unbounded windows.  Instances
    on which the reference itself trips over a rounded window edge are
    skipped; the window-edge tests below cover those."""
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
                    kernel(interval, s1, s2, domain)
                continue
            got = kernel(interval, s1, s2, domain)
            assert repr((got.times, got.values, got.end_time)) == repr(
                (want.times, want.values, want.end_time)
            ), (interval, s1, s2)
            # both inputs resampled onto their merged steps, as the monitor
            # passes them: same verdicts, though neither input is minimal
            merged = tuple(sorted(set(s1.times) | set(s2.times)))
            m1, m2 = (
                TemporalSignal(merged, tuple(map(s.value_at, merged)), s.end_time) for s in (s1, s2)
            )
            got = kernel(interval, m1, m2, domain)
            assert repr((got.times, got.values, got.end_time)) == repr(
                (want.times, want.values, want.end_time)
            ), (interval, s1, s2)
            compared += 1
    assert compared > 4000


@pytest.mark.parametrize("domain", [BOOL, QUANT])
def test_sweep_kernel_reads_inputs_over_their_common_domain(domain):
    """Inputs on different domains give what the reference gives after
    restricting both to the common one."""
    rng = random.Random(2014)
    compared = 0
    for _ in range(600):
        interval, s1, s2 = _sweep_instance(rng, domain, decimal=False)
        grid = sorted(set(s1.times) | set(s2.times) | {s2.end_time})
        start = rng.choice(grid)
        s2 = s2.restrict(start, rng.choice([t for t in grid if t >= start]))
        for kernel, reference in ((monitor_until, until_reference), (monitor_since, since_reference)):
            try:
                want = reference(interval, s1, s2, domain)
            except SemanticError:
                with pytest.raises(SemanticError):
                    kernel(interval, s1, s2, domain)
                continue
            got = kernel(interval, s1, s2, domain)
            assert repr((got.times, got.values, got.end_time)) == repr(
                (want.times, want.values, want.end_time)
            ), (interval, s1, s2)
            compared += 1
    assert compared > 400


def test_window_edges_rounded_outside_the_domain():
    """e - hi and e + hi may round just past the domain; the window then
    reads the outermost segment instead of raising or wrapping around."""
    p = TemporalSignal((0.1, 0.2, 0.3, 0.5), (True, False, True, True), 0.5)
    assert monitor_since(Interval(0, 0.4), p, p, BOOL) == TemporalSignal((0.5,), (True,), 0.5)
    # 0.5 - 0.4 rounds below 0.1: the point window must read q at 0.1, not at 0.5
    top = TemporalSignal((0.1,), (True,), 0.5)
    q = TemporalSignal((0.1, 0.5), (True, False), 0.5)
    assert monitor_since(Interval(0.4, 0.4), top, q, BOOL).values == (True,)
    s = TemporalSignal((1.1,), (True,), 1.7)
    out = monitor_until(Interval(0, 0.6), s, s, BOOL)
    assert (out.times, out.values, out.end_time) == ((1.1,), (True,), 1.7 - 0.6)
    late = TemporalSignal((1.1, 1.6), (False, True), 1.7)
    assert monitor_until(Interval(0, 0.6), s, late, BOOL).values == (True,)


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


def _per_location_reference(sweep):
    """``sweep`` in the engine's former until/since step."""

    def kernel(interval, left, right, dom):
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
    """The columnar sweep gives the per-location sweeps' verdicts, signed
    zeros included, on asynchronous traces over dyadic and decimal grids."""
    rng = random.Random(4099)
    compared = 0
    for _ in range(1000):
        ctx, formulas = _async_temporal_instance(rng, domain)
        for formula in formulas:
            with monkeypatch.context() as patch:
                patch.setattr(engine, "monitor_until", _per_location_reference(segment_until_reference))
                patch.setattr(engine, "monitor_since", _per_location_reference(segment_since_reference))
                try:
                    want = monitor(ctx, formula)
                except SemanticError:
                    want = None
            if want is None:
                with pytest.raises(SemanticError):
                    monitor(ctx, formula)
                continue
            assert repr(monitor(ctx, formula).signals) == repr(want.signals), formula
            compared += 1
    assert compared > 2000


# ---------------------------------------------------------------------------
# reach / escape building blocks


def test_reach_zero_interval_is_target_signal():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1 = [rng.random() < 0.5 for _ in range(n)]
        s2 = [rng.random() < 0.5 for _ in range(n)]
        out = reach(model, hop_distance(), Interval(0, 0), s1, s2, BOOL)
        assert out == s2


def test_bounded_reach_isolated_location():
    model = build_spatial_model(1, [])
    out = bounded_reach(model, hop_distance(), 0, 3, [False], [True], BOOL)
    assert out == [True]
    out2 = bounded_reach(model, hop_distance(), 1, 3, [True], [True], BOOL)
    assert out2 == [False]


def test_bounded_reach_two_node_chain():
    # single edge 0 -> 1; the only route prefix from 0 at hop distance 1 ends at 1
    model = build_spatial_model(2, [(0, 1.0, 1)])
    for a in (False, True):
        for b in (False, True):
            for c in (False, True):
                out = bounded_reach(model, hop_distance(), 1, 1, [a, c], [False, b], BOOL)
                assert out[0] == (a and b)
                assert out[1] is False


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
            out = escape(model, hop_distance(), Interval(0, UNBOUNDED), s1, domain)
            assert out == s1


def test_escape_network16_example():
    model = network16_model()
    end_dev = {0, 1, 2, 3, 5, 11, 12, 13, 14}
    s1 = [loc not in end_dev for loc in range(16)]
    out = escape(model, hop_distance(), Interval(2, UNBOUNDED), s1, BOOL)
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
        got = bounded_reach(model, f, d1, d2, s1, s2, domain)
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
        got = unbounded_reach(model, f, d1, s1, s2, domain)
        want = dense_unbounded_reach(model, f, d1, s1, s2, domain)
        assert got == want


def test_bounded_reach_with_infinite_upper_bound_terminates():
    """d2 = inf with d1 > 0 used to flood a cycle forever; it is unbounded reach."""
    model = build_spatial_model(2, [(0, 1.0, 1), (1, 1.0, 0)])
    f = weight_sum_distance()
    s1, s2 = [1.0, 1.0], [1.0, -1.0]
    with deadline(30):
        got = bounded_reach(model, f, 0.5, math.inf, s1, s2, QUANT)
    assert got == unbounded_reach(model, f, 0.5, s1, s2, QUANT)


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
            got = bounded_reach(two_cycle, hop_distance(), 0.5, d2, [top, top], [top, bottom], domain)
            assert got == [top, top]
        for _ in range(60):
            n = rng.randint(1, 4)
            model = random_model(rng, n, 8)
            f = rng.choice([hop_distance(), weight_sum_distance()])
            s1, s2 = _random_spatial(rng, domain, n), _random_spatial(rng, domain, n)
            d1 = rng.choice([0.5, 1.0, 2.0])
            got = bounded_reach(model, f, d1, rng.choice([1e6, 1e308]), s1, s2, domain)
            assert got == unbounded_reach(model, f, d1, s1, s2, domain)
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
        assert unbounded_reach(model, f, 0.5, s1, s2, domain) == [top, top, bottom]
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
            got = unbounded_reach(model, f, d1, s1, s2, domain)
            assert got == dense_unbounded_reach(model, f, d1, s1, s2, domain)


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
        assert reach(model, f, far, [1.0] * 3, [1.0, -1.0, 2.0], QUANT) == [1.0, 1.0, -math.inf]
        assert reach(model, f, far, [True] * 3, [True, False, True], BOOL) == [True, True, False]
        # without an infinite edge no route is long enough
        finite = build_spatial_model(3, [(0, 1.0, 1), (1, 1.0, 0), (1, 5.0, 2)])
        for domain in (BOOL, QUANT):
            top = [domain.top] * 3
            for m, g in ((finite, f), (model, hop_distance())):
                assert reach(m, g, far, top, top, domain) == [domain.bottom] * 3


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
        got = escape(model, f, Interval(d1, d2), s1, domain)
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
        got = escape(model, f, interval, s1, domain)
        want = walk_matrix_escape(model, f, interval, s1, domain)
        assert got == want
        if domain is BOOL:
            assert all(v is True or v is False for v in got)
        assert all(g == 0 for g, w in zip(got, want) if repr(g) != repr(w))


def test_escape_visits_out_edges_in_edge_order():
    """Which of +0.0 and -0.0 a zero verdict carries depends on the order in
    which the relaxation visits a location's outgoing edges: edge order, not
    the sorted (src, dst) order of the CSR.  This seeded instance (found by
    search) is one where the two orders give different zeros."""
    rng = random.Random(1499)
    n = rng.randint(20, 200)
    model = _random_digraph(rng, n, rng.choice([1, 2, 3]), [1.0])
    s1 = [rng.choice((0.0, -0.0, 0.5, -0.5, 1.0)) for _ in range(n)]
    edges = list(zip(model.src.tolist(), model.weight.tolist(), model.dst.tolist()))
    resorted = build_spatial_model(n, sorted(edges, key=lambda e: (e[0], e[2])))
    got = escape(model, hop_distance(), Interval(1, UNBOUNDED), s1, QUANT)
    other = escape(resorted, hop_distance(), Interval(1, UNBOUNDED), s1, QUANT)
    assert got == other
    assert [(l, repr(v)) for l, (v, w) in enumerate(zip(got, other)) if repr(v) != repr(w)] == [(82, "-0.0")]


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
            got = bounded_reach(model, f, 0.0, d2, s1, s2, BOOL)
            flooded = bounded_reach(model, f, 0.0, d2, coded(s1), coded(s2), QUANT)
            assert got == [v > 0 for v in flooded]
            assert all(v is True or v is False for v in got)
            for start, dist in walk_starts:
                if dist <= d2:
                    assert got[start] is True
        for d1 in [0.0] if with_inf else [0.0, 0.25]:
            got = unbounded_reach(model, f, d1, s1, s2, BOOL)
            assert got == dense_unbounded_reach(model, f, d1, s1, s2, BOOL)
            assert all(v is True or v is False for v in got)
            if with_inf:
                assert got[n - 1] is True


def flooding_reference(model, f, d1, d2, s1, s2, domain):
    """The dict flooding bounded reach ran before it took one array pass per
    round, kept verbatim (from ``n = ...`` on) as the reference ``_flood`` is
    checked against."""
    incoming = model.incoming_weights(f)
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
    d1 > 0 give the dict flooding's verdicts, down to the sign of every
    zero.  Boolean reach with d1 = 0 is a search, so the Boolean domain
    floods only with d1 > 0."""
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
        got = bounded_reach(model, f, d1, d2, s1, s2, domain)
        assert repr(got) == repr(flooding_reference(model, f, d1, d2, s1, s2, domain))
        if d1 > 0:
            with monkeypatch.context() as patch:
                patch.setattr(
                    engine, "_flood",
                    lambda _incoming, lo, hi, a, b, dom: flooding_reference(model, f, lo, hi, a, b, dom),
                )
                want = unbounded_reach(model, f, d1, s1, s2, domain)
            assert repr(unbounded_reach(model, f, d1, s1, s2, domain)) == repr(want)


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
        desugared = monitor(ctx, desugar(formula))
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
        inner = bounded_reach(model, f, d1_large, d2_small, s1, s2, QUANT)
        outer = bounded_reach(model, f, d1_small, d2_large, s1, s2, QUANT)
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
    """Choose keeps its left operand unless the right one is larger, and
    combine unless it is smaller, so 0.0 and -0.0 come out as they always did."""
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
        "!(x > 1) & (x > 1)": "[((0.0, 1.0), (-0.0, -1.0)), ((0.0,), (-0.0,))]",
        "(x < 1) U[0,1] !(x > 1)": "[((0.0, 1.0), (-0.0, -1.0)), ((0.0,), (-0.0,))]",
        "(x > 1) reach(hop)[1,2] !(x > 1)": "[((0.0,), (-0.0,)), ((0.0,), (-0.0,))]",
        "escape(hop)[1,inf] !(x > 1)": "[((0.0, 1.0), (-0.0, -1.0)), ((0.0, 1.0), (-0.0, -1.0))]",
    }
    for text, want in expected.items():
        out = monitor(ctx, parse(text))
        assert repr([(s.times, s.values) for s in out.signals]) == want, text
    # each walk keeps its leftmost zero: 0 -> 1 is worth s1[0] = 0.0, not -0.0
    one_edge = build_spatial_model(2, [(0, 1.0, 1)])
    out = escape(one_edge, hop_distance(), Interval(1, UNBOUNDED), [0.0, -0.0], QUANT)
    assert repr(out) == "[0.0, -inf]"


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
    (recorded in golden_signals.json): decimal times, signed zeros, both
    domains, every core operator and a changing graph."""
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
