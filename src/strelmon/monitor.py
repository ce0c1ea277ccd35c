"""Offline monitoring engine.

``monitor`` evaluates a formula over a trace on a dynamic weighted graph and
returns a verdict per location and time: for every subformula one step grid
and one steps x locations array (``SpatioTemporalSignal``).  Verdicts are
bool or float64 arrays (extended reals), as the context's domain says, and
every kernel reads the domain from its inputs' dtype.  Choose is ``max``,
combine is ``min``, and the reals have one zero: every node returns +0.0,
never -0.0 (``canonical``), so no kernel needs a rule for equal values.
The desugared formula is a DAG (equal subformulas are one object): its
distinct atoms are evaluated first, which checks every name before any
operator runs, and every other distinct node once, memoised by identity.

Structure: an atom is one array expression over the trace grid (a
comparison, a subtraction, or one call of its interpretation), negation
and conjunction act on whole arrays over merged grids, and until/since
share one exact event sweep of all locations at once, each over its own
steps, in O(N log w + E) for N own steps, E events and w-step windows,
plus the sort of the event grid: each window is two lookups in one level
of a table of power-of-two blocks.  The spatial operators evaluate the
graph snapshot at every time where an input row or the graph changes, once
per snapshot and distinct pair of input rows; each kernel takes the input
rows as arrays, never writes into them,
and returns a new array.  Boolean unbounded reach, and Boolean reach with
lower bound zero unless it asks for at most log2(n) equal hops, are one
shortest-path search each on the snapshot's cached sparse weights, and
quantitative unbounded reach is a max/min relaxation over the edge arrays,
one array pass per round.  The reach kernels read the weights, the edge
arrays and the one edge distance from the edge view that each snapshot
builds once per distance function (``SpatialModel.edges``), and the view
keeps the last Boolean search, so the radii of a safe-radius sweep share
one search per snapshot.  Other bounded reach (with an infinite upper
bound, or a positive lower bound and an upper bound past every loop-erased
route, it is unbounded reach) is that relaxation capped at the admissible
walk lengths when every edge distance is equal, as under ``hop``, and
otherwise floods a queue of (location, distance, value) entries in one
array pass per round.  Escape takes the best walk between every pair from
single linkage when the edge set is symmetric, and from the max/min
Floyd-Warshall closure of an n x n array otherwise; its distance searches
stop at the interval bound.  Their contracts are spelled out on the
functions and cross-checked against brute-force oracles in the tests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np
from scipy.sparse import csgraph, csr_array

from .algebra import SignalDomain
from .logic import (
    And,
    Atomic,
    Escape,
    Formula,
    Interval,
    Not,
    Reach,
    Since,
    Until,
    desugar,
    format_number,
    iter_subformulas,
)
from .signals import SpatioTemporalSignal, Trace, canonical, run_starts
from .space import (
    DistanceFunction,
    DynamicalSpatialModel,
    EdgeView,
    SpatialModel,
    check_strictly_positive,  # noqa: F401  re-exported; spatial kernels check via SpatialModel.edges
    min_distance_matrix,
)


class SemanticError(ValueError):
    """Name-resolution failures, empty evaluable domains, bad intervals."""


# The most rounds a flooding with a positive lower bound may take (see
# ``_flood``): with d1 > 0 nothing prunes a cycle, so a 2-cycle under
# ``hop`` floods d2 rounds, and past 2**53 ``d + 1 == d`` never ends.
# Above it ``_flood`` raises a SemanticError instead of hanging.
MAX_FLOOD_ROUNDS = 10_000


_AT_PREFIX = "at_"

# The verdict domain a kernel input's dtype names, as (bottom, top).
_BOUNDS = {np.dtype(bool): (False, True), np.dtype(float): (-math.inf, math.inf)}


def _verdicts(*inputs) -> tuple:
    """The kernel inputs as arrays, then the bottom and top of the domain
    their one dtype names: bool for Boolean verdicts, float64 for max/min
    ones.  Any other dtype, or a mix, is a TypeError."""
    arrays = [np.asarray(x) for x in inputs]
    dtype = arrays[0].dtype
    if dtype not in _BOUNDS or any(a.dtype != dtype for a in arrays):
        got = ", ".join(str(a.dtype) for a in arrays)
        raise TypeError(f"kernel inputs must be all bool or all float64, got {got}")
    return (*arrays, *_BOUNDS[dtype])


@dataclass
class MonitorContext:
    """Everything a monitoring run needs besides the formula.

    ``interpretation`` optionally maps atom names to functions from the
    trace's read-only steps x locations x variables array to the atom's
    steps x locations array; atoms without an entry fall back to trace
    variables (bare Boolean variables or comparisons).  The names ``true``
    and ``false`` and the per-location address atoms ``at_<id>`` are built in.
    """

    model: DynamicalSpatialModel
    trace: Trace
    domain: SignalDomain
    distances: Mapping[str, DistanceFunction] = field(default_factory=dict)
    interpretation: Optional[Mapping[str, Callable[[np.ndarray], Any]]] = None

    def __post_init__(self):
        if self.model.location_count != self.trace.location_count:
            raise SemanticError(
                f"trace has {self.trace.location_count} locations but the model has "
                f"{self.model.location_count}"
            )
        if self.model.start > self.trace.start:
            raise SemanticError(
                f"first snapshot at {self.model.start} is after the trace start {self.trace.start}"
            )


_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _atom_signal(ctx: MonitorContext, atom: Atomic) -> SpatioTemporalSignal:
    """Interpretation of one atom at every location, on the trace grid: the
    one rule from an atom name to values, or to a SemanticError when the
    name resolves to nothing.  A bare name is ``true``/``false``, then an
    address ``at_`` plus ASCII digits, then an interpreted name, then a
    trace variable; a comparison always reads a trace variable."""
    trace, dom = ctx.trace, ctx.domain
    times, data = trace.grid
    boolean = dom.name == "boolean"
    name, c = atom.name, atom.threshold
    digits = name[len(_AT_PREFIX):]
    if atom.op is None and name in ("true", "false"):
        values = np.full(data.shape[:2], dom.top if name == "true" else dom.bottom)
    elif atom.op is None and name.startswith(_AT_PREFIX) and digits.isascii() and digits.isdigit():
        if not int(digits) < trace.location_count:
            raise SemanticError(f"address atom {name!r} names a missing location")
        here = np.arange(trace.location_count) == int(digits)
        values = np.broadcast_to(np.where(here, dom.top, dom.bottom), data.shape[:2])
    elif atom.op is None and ctx.interpretation is not None and name in ctx.interpretation:
        values = np.asarray(ctx.interpretation[name](data), dtype=float)
        if values.shape != data.shape[:2]:
            shapes = f"returned shape {values.shape}, expected {data.shape[:2]}"
            raise SemanticError(f"interpretation of atom {name!r} {shapes}")
        if np.isnan(values).any():
            raise SemanticError(f"interpretation of atom {name!r} returned NaN")
        if boolean:
            values = values != 0
    elif name not in trace.variables:
        raise SemanticError(
            f"atom {name!r} is neither a trace variable nor an interpreted name; "
            f"variables are {list(trace.variables)}"
        )
    else:
        x = data[:, :, trace.variables.index(name)]
        if atom.op is None:
            values = x != 0 if boolean else np.where(x != 0, dom.top, dom.bottom)
        elif boolean:
            values = _COMPARISONS[atom.op](x, c)
        else:
            # satisfaction margin: positive iff the comparison holds strictly
            values = x - c if atom.op in (">", ">=") else c - x
    return canonical(times, values, trace.end_time)


def validate_formula(ctx: MonitorContext, formula: Formula) -> dict[int, SpatioTemporalSignal]:
    """Check every atom and distance-function name before any operator
    runs, and return the atoms' signals keyed by node identity.

    Each distinct atom object is evaluated once by ``_atom_signal``, whose
    name errors (and an interpretation's NaN or wrong shape) surface here,
    in preorder; ``monitor`` starts ``_eval``'s memo from the result."""
    atoms = {}
    for node in iter_subformulas(formula):
        if isinstance(node, Atomic):
            atoms[id(node)] = _atom_signal(ctx, node)
        elif isinstance(node, (Reach, Escape)) and node.distance not in ctx.distances:
            raise SemanticError(
                f"unknown distance function {node.distance!r}; registered: "
                f"{sorted(ctx.distances)}"
            )
    return atoms


# ---------------------------------------------------------------------------
# temporal operators


def monitor_until(interval: Interval, s1: SpatioTemporalSignal, s2: SpatioTemporalSignal) -> SpatioTemporalSignal:
    """Exact until sweep for piecewise-constant inputs, at every location.

    output(t) = choose over t' in [t+lo, t+hi] of
                (s2(t') combine (combine of s1 over [t, t'])).

    A location's output can only step at its own step times (where either
    input changes there) shifted left by 0, lo or hi, so it suffices to
    evaluate at exactly those event times.  An unbounded interval clips the
    window at the trace end.  The evaluable domain shrinks by the interval
    upper bound (lower bound when unbounded); an empty domain is an error.

    Cost: O(N log w + E) for N own steps of all locations, E events and
    windows of up to w own segments, bounded or not: a table of the window
    fold, one array pass per power of two up to w, and two lookups per
    window in the level of its length (``_temporal_sweep``).  Two blocks
    that overlap answer a window exactly because only max and min select
    values.  Add the sort of the event grid and one pass over the steps x
    locations and locations x grid cells.
    """
    return _temporal_sweep(interval, *_own_steps(s1, s2), future=True)


def monitor_since(interval: Interval, s1: SpatioTemporalSignal, s2: SpatioTemporalSignal) -> SpatioTemporalSignal:
    """Time-mirrored analogue of monitor_until (window in the past)."""
    return _temporal_sweep(interval, *_own_steps(s1, s2), future=False)


def _own_steps(s1: SpatioTemporalSignal, s2: SpatioTemporalSignal) -> tuple:
    """(times, v1, v2, own, end): both inputs on their merged grid, and per
    cell whether it is an own step: the first row or a change in either."""
    times, (v1, v2), end = _aligned([s1, s2])
    return times, v1, v2, run_starts(v1) | run_starts(v2), end


def _temporal_sweep(interval: Interval, times: np.ndarray, v1: np.ndarray, v2: np.ndarray, own: np.ndarray, t_end: float, future: bool) -> SpatioTemporalSignal:
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
    turns a row into its segment.  With lo = 0 the near edge is e.

    The verdict at e combines s1 over the head, from e's segment up to the
    near edge's, with the fold over the tail, the segments from there to
    the far edge's: choose of s2 combined with the running combine of s1
    (since walks the reversed steps).  Level p of a table holds, for every
    block of 2**p own steps, s1 combined over it (``run``) and the fold over
    it (``best``); each level is built from the one before and replaces it.
    A tail [a, b] of length L is answered at p = floor(log2 L) by two blocks
    that overlap or touch, one from a and one ending at b:
    ``choose(best[a], run[a] combine best[b - 2**p + 1])``, and a non-empty
    head likewise by ``run`` at its two ends.  The overlap is safe because
    only max and min select values: where the blocks overlap, the second
    block's terms can only be too low, and the first block holds those
    exactly, so the verdicts are those of a step-by-step walk bit for bit.
    The pairs are bucketed by level once, and each bucket is answered as
    its level is built.  The output is assembled on the event grid: every
    grid value takes each location's last event at or before it.
    """
    v1, v2, _, top = _verdicts(v1, v2)
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
    shifts = (0.0, lo, hi) if lo else (0.0, hi)
    shifted = np.concatenate([times - way * s for s in shifts])
    inside = (out_start <= shifted) & (shifted <= out_end)
    grid, slot = np.unique(np.append(shifted[inside], out_start), return_inverse=True)
    at = np.full(len(shifted), -1)
    at[inside] = slot[:-1]
    # mask[l, j] marks grid value j as an event of location l
    mine = at[np.add.outer(np.arange(len(shifts)) * rows, row)].ravel()
    mask = np.zeros((n, len(grid)), dtype=bool)
    mask[:, slot[-1]] = True
    np.put(mask, (np.tile(loc, len(shifts)) * len(grid) + mine)[mine >= 0], True)
    owners, g = np.nonzero(mask)

    def segment(t: np.ndarray) -> np.ndarray:
        return latest.ravel()[np.maximum(np.searchsorted(times, t, side="right") - 1, 0)[g] * n + owners]

    k_e, k_far = segment(grid), segment(grid + way * hi)
    k_near = segment(grid + way * lo) if lo else k_e
    x1, x2 = v1[row, loc], v2[row, loc]
    if not future:
        x1, x2 = x1[::-1], x2[::-1]
        k_e, k_near, k_far = (len(x1) - 1 - k for k in (k_e, k_near, k_far))
    # the tail [k_near, k_far] and the head [k_e, k_near), empty when lo = 0
    tails = _by_level(k_far - k_near + 1)
    heads = _by_level(k_near - k_e) if lo else []
    acc, head = np.empty(len(g), dtype=x1.dtype), np.full(len(g), top)
    run, best = x1, np.minimum(x1, x2)
    levels = max(len(tails), len(heads))
    for p in range(levels):
        h = 1 << p
        if p < len(tails):
            a, b = k_near[tails[p]], k_far[tails[p]]
            acc[tails[p]] = np.maximum(best[a], np.minimum(run[a], best[b - h + 1]))
        if p < len(heads):
            a, b = k_e[heads[p]], k_near[heads[p]]
            head[heads[p]] = np.minimum(run[a], run[b - h])
        if p + 1 < levels:
            run, best = np.minimum(run[:-h], run[h:]), np.maximum(best[:-h], np.minimum(run[:-h], best[h:]))
    # pairs run location by location in grid order, each location from the
    # first grid value, so a running count over the mask numbers the last
    # event of each location at or before each grid value
    last = np.cumsum(mask).reshape(mask.shape) - 1
    return canonical(grid, np.minimum(head, acc)[last.T], out_end)


def _by_level(lengths: np.ndarray) -> list:
    """Per level p, the indices of the lengths in [2**p, 2**(p+1)), in
    order, up to the longest; zero lengths are in none."""
    # p + 1 for a length in [2**p, 2**(p+1)), 0 for 0; as int8 the stable
    # sort is a radix sort
    level = np.frexp(lengths)[1].astype(np.int8)
    order = np.argsort(level, kind="stable")
    return np.split(order, np.searchsorted(level[order], np.arange(1, level.max(initial=0) + 1)))[1:]


# ---------------------------------------------------------------------------
# spatial operators


def reach(model: SpatialModel, f: DistanceFunction, interval: Interval, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Dispatch on the upper distance bound: flooding when bounded, fixpoint
    back-propagation when unbounded."""
    if interval.hi == math.inf:
        return unbounded_reach(model, f, interval.lo, s1, s2)
    return bounded_reach(model, f, interval.lo, interval.hi, s1, s2)


def bounded_reach(model: SpatialModel, f: DistanceFunction, d1: float, d2: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Choose over route prefixes with accumulated distance in [d1, d2].

    The result at l is the choose over finite route prefixes from l whose
    accumulated distance lands in [d1, d2] of (s2 at the endpoint) combined
    with s1 over the strict prefix.

    Boolean verdicts with d1 = 0 are a shortest-path question: l holds iff
    s2 holds at l or some s2 location lies within d2 of l along a route
    whose strict prefix satisfies s1.  One search answers it in O(m log n)
    (``_reached_within``; the snapshot's edge view keeps it, so the same
    question at a smaller d2 reads it and at a larger d2 widens it once),
    unless every edge distance is one value c and d2 / c <= log2(n): then
    at most log2(n) rounds of one O(m) pass over the edge arrays each
    answer it (``_uniform_flood``).  Every other case floods (``_flood``),
    one array pass per round: those rounds when every edge distance is
    equal, as under ``hop``, and a queue of (location, distance, value)
    entries otherwise.

    When d2 is infinite the call is ``unbounded_reach``, whatever d1, so a
    walk may pass an edge of infinite distance.  With d1 > 0 nothing prunes
    a cycle, so the rounds would run up to d2 over the smallest edge
    distance.  When d2 >= d1 + (n + 1) * d_max for the largest edge
    distance d_max (never, with an edge of infinite distance), the call is
    ``unbounded_reach`` as well: erasing the loops of a route's prefix, up
    to its shortest suffix of at least d1, leaves a route no worse whose
    length lies in [d1, d1 + n * d_max], and the extra d_max absorbs
    rounding.
    """
    s1, s2, _, _ = _verdicts(s1, s2)
    edges = model.edges(f)
    n = model.location_count
    if not d1 <= d2:
        raise SemanticError(f"malformed distance interval [{d1}, {d2}]")
    if d2 == math.inf or d1 > 0 and d2 >= d1 + (n + 1) * edges.incoming.data.max(initial=0).item():
        return unbounded_reach(model, f, d1, s1, s2)
    if d1 <= 0 and s2.dtype == bool and (edges.step is None or d2 / edges.step > math.log2(n)):
        return _reached_within(edges, s1, s2, d2)
    return _flood(edges, d1, d2, s1, s2)


def _flood(edges: EdgeView, d1: float, d2: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """The flooding of ``bounded_reach``.

    With d1 > 0 the rounds are bounded first, and more than
    ``MAX_FLOOD_ROUNDS`` is a ``SemanticError``.  A round extends the walks
    by one edge and keeps those shorter than d2, so there are at most d2
    over the smallest edge distance rounds; at most d2 over the smallest
    distance of an edge on a cycle (inside a strongly connected component)
    plus n, since a walk leaves a component at most n - 1 times; and at
    most n * (d2 / w + 1), since a walk is a simple path of at most n - 1
    edges plus at most d2 / w cycles of at most n edges each, where every
    cycle weighs at least w, the least over locations of the lightest
    on-cycle out-edge plus the lightest on-cycle in-edge.

    When every edge distance is one value, as under ``hop``, the rounds are
    passes over the edge arrays (``_uniform_flood``).  Otherwise a
    queue holds one value per (location, accumulated distance), as three
    arrays; it starts with every location at distance 0 and its s2 value.  A
    round drops the entries at the domain bottom (they can never change the
    output) and extends every other one backwards along its slice of the
    incoming CSR.  A new entry src at distance d carries the entry's value
    combined with s1[src].  The new entries with d1 <= d <= d2 update the
    output at src by their maximum.  The entries with d < d2 are merged per
    (src, d) to their maximum, and form the next queue.  With d1 = 0 the
    next queue also drops its dominated entries (``_undominated``).  Both
    cuts leave the output as it is.
    """
    incoming = edges.incoming
    n = incoming.shape[0]
    if d1 > 0:
        _, comp = csgraph.connected_components(incoming, connection="strong")
        on_cycle = comp[edges.dst] == comp[edges.src]
        cycle_steps = incoming.data[on_cycle]
        lightest = np.full((2, n), math.inf)  # on-cycle out- and in-edge per location
        np.minimum.at(lightest[0], edges.src[on_cycle], cycle_steps)
        np.minimum.at(lightest[1], edges.dst[on_cycle], cycle_steps)
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
    if edges.step is not None:
        return _uniform_flood(edges, d1, d2, x1, target)
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


def _uniform_flood(edges: EdgeView, d1: float, d2: float, x1: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``_flood`` when every edge distance is c (``edges.step``), in rounds
    of ``_step_back`` over the edge arrays.  A walk of k edges is d_k =
    ((0 + c) + c) + ... long, summed as the queue and Dijkstra sum it, so
    the step counts k with d1 <= d_k <= d2, the walks the queue counts, are
    one run [k1, k2] and every boundary agrees bit for bit, also for a
    non-dyadic c.

    With d1 > 0, rounds first step y from s2 to the best walks of exactly
    k1 edges: y[l] becomes s1[l] combined with the maximum of y over l's
    out-edges (bottom without one), until d reaches d1 (or y is bottom
    everywhere, which it then stays).  The capped ``_back_propagate``
    seeded with y (s2 when d1 = 0) then adds the walks one edge longer per
    round while d_k stays within d2.  It never needs more than n rounds, as
    an optimal walk past the first k1 edges is a simple path.
    """
    n, (bottom, _) = len(target), _BOUNDS[target.dtype]
    c = edges.step
    y, d = target, 0.0
    if d1 > 0:
        step, nowhere = _step_back(edges, x1), np.full(n, bottom, dtype=target.dtype)
        while d < d1 and (y != bottom).any():
            y, d = step(y, nowhere), d + c
        if d > d2:
            return nowhere
    rounds = 0
    # the queue extends a walk only while it is shorter than d2
    while rounds < n and d < d2 and d + c <= d2:
        rounds, d = rounds + 1, d + c
    return _back_propagate(edges, x1, y, rounds)


def _step_back(edges: EdgeView, s1: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The round of ``_uniform_flood`` and ``_back_propagate``: a function
    of (y, into) that returns a new array, ``into`` raised at every location
    l to s1[l] combined with the maximum of y over l's out-edges.

    One gather over the edge arrays gives every edge src -> dst its value
    s1[src] combined with y[dst], and a copy of ``into`` is raised at src by
    it: with ``np.maximum.at`` for max/min verdicts, and for Booleans, where
    max is "or", by setting the sources of the true edges.  The Boolean
    round is a sparse matrix-vector product over the (or, and) semiring.
    """
    gate = s1[edges.src]

    def step(y: np.ndarray, into: np.ndarray) -> np.ndarray:
        via = np.minimum(gate, y[edges.dst])
        raised = into.copy()
        if raised.dtype == bool:
            raised[edges.src[via]] = True
        else:
            np.maximum.at(raised, edges.src, via)
        return raised

    return step


def _undominated(loc: np.ndarray, dist: np.ndarray, val: np.ndarray, front: tuple) -> tuple:
    """The d1 = 0 pruning of ``_flood``: the queue entries that no entry at
    the same location with no larger distance and no smaller value
    dominates, among the queue and ``front`` (the entries kept in earlier
    rounds), and the new front.  A dominated entry adds nothing: its
    dominator was enqueued no later and feeds every extension it would.

    All entries are sorted by (location, distance), earlier rounds first on
    equal distances; an entry is kept iff its value exceeds the maximum of
    its location's earlier entries, a segmented prefix maximum over dense
    value ranks.
    """
    every = [np.concatenate(pair) for pair in zip(front, (loc, dist, val))]
    fresh = np.arange(len(every[0])) >= len(front[0])
    order = np.lexsort((fresh, every[1], every[0]))
    key = every[0][order]
    values, rank = np.unique(every[2][order], return_inverse=True)
    segment = np.concatenate(([0], np.cumsum(key[1:] != key[:-1])))
    level = segment * len(values) + rank
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = level[1:] > np.maximum.accumulate(level)[:-1]
    kept = order[keep]
    queue = kept[fresh[kept]]
    return tuple(a[queue] for a in every), tuple(a[kept] for a in every)


def _reached_within(edges: EdgeView, s1: np.ndarray, targets: np.ndarray, limit: float) -> np.ndarray:
    """Boolean reach with lower bound zero, as one multi-source search.

    A location holds iff it is a target or a target lies within ``limit`` of
    it along a route whose strict prefix satisfies s1.  The search runs from
    all targets at once on the view's incoming edges, with the weight of
    every edge whose source fails s1 set to inf.  Dijkstra sums a route's
    distances from the target end, as the flooding does, so the ``<= limit``
    boundary agrees exactly.  An infinite limit asks only for a route,
    whatever its weights, so every open edge weighs 1 and ``dist < inf``
    decides.  When s1 holds everywhere and the limit is finite, as under
    ``somewhere`` and ``everywhere``, the search runs on ``incoming`` itself.
    ``bounded_reach`` sends it the calls over unequal distances or more
    than log2(n) equal hops, and ``_back_propagate`` every uncapped one.

    The view keeps the last search's distances (``EdgeView.searches``),
    keyed by whether the limit is infinite (unit weights) and the s1 and
    target rows, with the limit it searched to.  The same question within
    that limit reads them and does not search; at a larger limit, as in a
    safe-radius sweep over growing radii, it searches once with no limit
    and keeps that.  Weights are positive and float addition is monotone,
    so a location within ``limit`` gets the same sum under any larger
    cut-off, and the verdicts are the cut-off search's bit for bit.
    """
    key = (limit == math.inf, s1.tobytes(), targets.tobytes())
    searched, dist = edges.searches.get(key, (-math.inf, None))
    if searched < limit:
        searched = limit if dist is None else math.inf
        incoming = graph = edges.incoming
        if limit == math.inf or not s1.all():
            weights = np.where(s1[incoming.indices], 1.0 if limit == math.inf else incoming.data, math.inf)
            graph = csr_array((weights, incoming.indices, incoming.indptr), shape=incoming.shape)
        dist = csgraph.dijkstra(graph, indices=np.flatnonzero(targets), min_only=True, limit=searched)
        edges.searches.clear()
        edges.searches[key] = (searched, dist)
    return targets | (dist < math.inf) & (dist <= limit)


def unbounded_reach(model: SpatialModel, f: DistanceFunction, d1: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Reach with no upper distance bound.

    With d1 = 0 the seed is s2 itself.  Otherwise a route counts from its
    shortest suffix that is at least d1 long.  When that suffix starts with
    a finite edge it is at most d1 plus the largest finite edge distance
    long, so a bounded flooding over that interval seeds its start (none
    when d1 is infinite).  When it starts with an infinite edge src -> dst,
    every route on from dst completes it, so src is seeded with s1[src]
    combined with the d1 = 0 value at dst.  Seeds are then back-propagated
    until a fixpoint (``_back_propagate``).
    """
    s1, s2, bottom, _ = _verdicts(s1, s2)
    edges = model.edges(f)
    if d1 == 0:
        return _back_propagate(edges, s1, s2)
    finite = np.isfinite(edges.incoming.data)
    if d1 == math.inf:
        # no route of finite edges is infinitely long
        s = np.full(model.location_count, bottom)
    else:
        d_max = edges.incoming.data[finite].max(initial=0).item()
        s = _flood(edges, d1, d1 + d_max, s1, s2)
    if not finite.all():
        anywhere = _back_propagate(edges, s1, s2)
        src, dst = edges.src[~finite], edges.dst[~finite]
        np.maximum.at(s, src, np.minimum(s1[src], anywhere[dst]))
    return _back_propagate(edges, s1, s)


def _back_propagate(edges: EdgeView, s1: np.ndarray, s: np.ndarray, rounds: Optional[int] = None) -> np.ndarray:
    """Fixpoint in which s[src] absorbs s[dst] combined with s1[src] for every
    edge src -> dst, or at most ``rounds`` rounds of it.  It ignores weights,
    so the uncapped Boolean fixpoint is plain reachability from the seeds
    (``_reached_within`` with no limit).  Otherwise each round relaxes every
    edge at once (``_step_back``), and the loop stops at the first round
    that changes nothing: an optimal route is a simple path, so that takes
    at most n + 1 rounds."""
    s = np.array(s)  # a copy: the result never aliases an input
    if s.dtype == bool and rounds is None:
        return _reached_within(edges, s1, s, math.inf)
    step = _step_back(edges, s1)
    for _ in range(len(s) + 1 if rounds is None else rounds):
        raised = step(s, s)
        if not (raised > s).any():
            break
        s = raised
    return s


def escape(model: SpatialModel, f: DistanceFunction, interval: Interval, s1: np.ndarray) -> np.ndarray:
    """Escape: best value over routes leaving l through satisfying locations
    whose endpoint sits at a graph minimum distance inside the interval.

    A walk is worth the minimum of s1 over its locations.  ``e[l, l2]`` is
    the best walk from l to l2: s1[l] on the diagonal, bottom where no walk
    joins the pair.  The result at l is the maximum of row l over the
    endpoints whose minimum distance from l lies in the interval.  The
    distance searches stop at d2, or at d1 when d2 is infinite: a pair
    farther apart reads infinity, which the interval judges as it judges
    the true distance.

    When the edge set is symmetric (``SpatialModel.symmetric``) and n >= 2,
    ``e`` comes from single linkage (``_widest_walks``) in O(n^2 + m).
    Otherwise it is the max/min Floyd-Warshall closure of the one-edge
    walks: it starts from ``min(s1[src], s1[dst])`` on every edge, s1 on the
    diagonal and bottom elsewhere, and round k lets every walk pass through
    k, so O(n^3) time.  Both take O(n^2) memory, as dense as the distance
    matrix.
    """
    x1, bottom, _ = _verdicts(s1)
    d1, d2 = interval.lo, interval.hi
    dist = min_distance_matrix(model, f, limit=d2 if d2 < math.inf else d1)
    n = model.location_count
    if n >= 2 and model.symmetric:
        e = _widest_walks(model, x1)
    else:
        e = np.full((n, n), bottom)
        e[model.src, model.dst] = np.minimum(x1[model.src], x1[model.dst])
        np.fill_diagonal(e, x1)
        for k in range(n):
            np.maximum(e, np.minimum(e[:, k, None], e[k]), out=e)
    return np.where((d1 <= dist) & (dist <= d2), e, bottom).max(axis=1)


def _widest_walks(model: SpatialModel, x1: np.ndarray) -> np.ndarray:
    """Escape's ``e`` on a symmetric edge set, by single linkage (a minimum
    spanning forest, in C).  With the k distinct s1 values ranked from 0,
    an edge's walk value min(s1[u], s1[v]) becomes the height k minus its
    rank, and a pair without an edge the height k + 1.  A pair's cophenetic
    height is then the least over paths of their highest edge: k minus the
    rank of the best walk's value, or k + 1 when no path joins the pair,
    which maps to bottom.  Ranks keep +-inf and bools exact, and give
    linkage only finite heights."""
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    n = len(x1)
    values, rank = np.unique(x1, return_inverse=True)
    k = len(values)
    forward = model.src < model.dst  # each edge once, as the pair (u, v), u < v
    u, v = model.src[forward], model.dst[forward]
    heights = np.full(n * (n - 1) // 2, k + 1.0)  # condensed: pairs (u, v), u < v, row by row
    heights[n * u - u * (u + 1) // 2 + v - u - 1] = k - np.minimum(rank[u], rank[v])
    joined = cophenet(linkage(heights, method="single")).astype(np.intp)
    levels = np.append(values[::-1], _BOUNDS[x1.dtype][0])
    e = squareform(levels[joined - 1], checks=False)
    np.fill_diagonal(e, x1)
    return e


# ---------------------------------------------------------------------------
# the monitor itself


def monitor(ctx: MonitorContext, formula: Formula) -> SpatioTemporalSignal:
    """Evaluate a formula over the context's trace and dynamic model."""
    core = desugar(formula)
    return _eval(ctx, core, validate_formula(ctx, core))


def _eval(ctx: MonitorContext, node: Formula, cache: dict) -> SpatioTemporalSignal:
    """The node's verdict, memoised by node identity in ``cache``."""
    hit = cache.get(id(node))
    if hit is None:
        hit = cache[id(node)] = _eval_node(ctx, node, cache)
    return hit


def _eval_node(ctx: MonitorContext, node: Formula, cache: dict) -> SpatioTemporalSignal:
    if isinstance(node, Not):
        child = _eval(ctx, node.child, cache)
        # 0.0 - v, not -v: -(+0.0) would be -0.0
        values = ~child.values if child.values.dtype == bool else 0.0 - child.values
        return SpatioTemporalSignal(child.times, values, child.end_time)
    if isinstance(node, (Until, Since)):
        sweep = monitor_until if isinstance(node, Until) else monitor_since
        return sweep(node.interval, _eval(ctx, node.left, cache), _eval(ctx, node.right, cache))
    if not isinstance(node, (And, Reach, Escape)):
        raise SemanticError(f"cannot monitor non-core node {type(node).__name__}")
    operands = [node.child] if isinstance(node, Escape) else [node.left, node.right]
    spatial = isinstance(node, (Reach, Escape))
    times, rows, end = _aligned(
        [_eval(ctx, x, cache) for x in operands], ctx.model.snapshot_times() if spatial else ()
    )
    if isinstance(node, And):
        return canonical(times, np.minimum(*rows), end)
    kernel = reach if isinstance(node, Reach) else escape
    f = ctx.distances[node.distance]
    # Inputs repeated on one snapshot reuse the first result: one evaluation
    # per snapshot and distinct input rows.
    done: dict = {}
    out = np.empty_like(rows[0])
    for k, t in enumerate(times.tolist()):
        model = ctx.model.snapshot_at(t)
        key = (id(model), *(r[k].tobytes() for r in rows))
        if key not in done:
            done[key] = kernel(model, f, node.interval, *(r[k] for r in rows))
        out[k] = done[key]
    return canonical(times, out, end)


def _aligned(signals: list[SpatioTemporalSignal], extra=()) -> tuple:
    """The signals' rows on the union of their grids and the ``extra``
    times, over their common domain: (times, rows per signal, end time).
    The spatial operators pass the snapshot times as ``extra``, so they are
    evaluated wherever an input or the graph changes."""
    start, end = max(s.start for s in signals), min(s.end_time for s in signals)
    if start > end:
        domains = " vs ".join(f"[{s.start}, {s.end_time}]" for s in signals)
        raise SemanticError(f"signals have no common time domain: {domains}")
    times = np.union1d(np.concatenate([s.times for s in signals]), extra)
    times = np.concatenate(([start], times[(times > start) & (times <= end)]))
    return times, [s.values[np.searchsorted(s.times, times, side="right") - 1] for s in signals], end


def satisfied_locations(result: SpatioTemporalSignal, ctx: MonitorContext, t: float = 0.0) -> list[int]:
    """Locations whose verdict at t (or at the domain start if t precedes it)
    is positive/true."""
    probe = max(t, result.start)
    return [loc for loc, v in enumerate(result.values_at(probe)) if v > 0]
