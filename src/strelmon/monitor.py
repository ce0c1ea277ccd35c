"""Offline monitoring engine.

``monitor`` evaluates a formula over a trace on a dynamic weighted graph and
returns a verdict per location and time: for every subformula one step grid
and one steps x locations array (``SpatioTemporalSignal``).  Verdicts are
bools or extended reals, as the context's domain says; choose is ``max``
and combine is ``min``, both written so that the left operand wins ties
(signed zeros depend on it).

Structure: an atom is one comparison or subtraction over the trace grid,
negation and conjunction act on whole arrays over merged grids, and
until/since share one exact event sweep of all locations at once, each
over its own steps, costing O(N log N + sum of window segments) for N own
steps.  The spatial operators evaluate the graph snapshot at every time
where an input row or the graph changes, once per snapshot and distinct
pair of input rows, on the snapshot's cached sparse weights: Boolean reach
with lower bound zero and Boolean unbounded reach are shortest-path
searches, other bounded reach floods a queue of (location, distance,
value) entries in one array pass per round (with a positive lower bound
and an upper bound past every loop-erased route it is unbounded reach),
and quantitative unbounded reach and escape (once per start location) run
one max/min relaxation to a fixpoint.  Their contracts are spelled out on
the functions and cross-checked against brute-force oracles in the tests.
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
    iter_subformulas,
)
from .signals import SpatioTemporalSignal, Trace, canonical, run_starts, stack_steps
from .space import (
    DistanceFunction,
    DynamicalSpatialModel,
    SpatialModel,
    check_strictly_positive,  # noqa: F401  re-exported; spatial kernels check via incoming_weights
    min_distance_matrix,
)


class SemanticError(ValueError):
    """Name-resolution failures, empty evaluable domains, bad intervals."""


_AT_PREFIX = "at_"


@dataclass
class MonitorContext:
    """Everything a monitoring run needs besides the formula.

    ``interpretation`` optionally maps atom names to functions of the trace
    value tuple; atoms without an entry fall back to trace variables (bare
    Boolean variables or comparisons).  The names ``true`` and ``false`` and
    the per-location address atoms ``at_<id>`` are built in.
    """

    model: DynamicalSpatialModel
    trace: Trace
    domain: SignalDomain
    distances: Mapping[str, DistanceFunction] = field(default_factory=dict)
    interpretation: Optional[Mapping[str, Callable[[tuple], Any]]] = None

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
    """Interpretation of one atom at every location, on the trace grid."""
    trace, dom = ctx.trace, ctx.domain
    times, data = trace.grid
    boolean = dom.name == "boolean"
    name, c = atom.name, atom.threshold
    if atom.op is not None:
        x = data[:, :, _resolve_variable(ctx, name)]
        if boolean:
            values = _COMPARISONS[atom.op](x, c)
        else:
            # satisfaction margin: positive iff the comparison holds strictly
            values = x - c if atom.op in (">", ">=") else c - x
    elif name in ("true", "false"):
        values = np.full(data.shape[:2], dom.top if name == "true" else dom.bottom)
    elif _is_address(name):
        here = np.arange(trace.location_count) == int(name[len(_AT_PREFIX):])
        values = np.broadcast_to(np.where(here, dom.top, dom.bottom), data.shape[:2])
    elif ctx.interpretation is not None and name in ctx.interpretation:
        fn = ctx.interpretation[name]
        rows = [[fn(tuple(v)) for v in row] for row in data.tolist()]
        values = np.array(rows, dtype=bool if boolean else float)
    else:
        x = data[:, :, _resolve_variable(ctx, name)]
        values = x != 0 if boolean else np.where(x != 0, dom.top, dom.bottom)
    return canonical(times, values, trace.end_time)


def _is_address(name: str) -> bool:
    return name.startswith(_AT_PREFIX) and name[len(_AT_PREFIX):].isdigit()


def _resolve_variable(ctx: MonitorContext, name: str) -> int:
    if name not in ctx.trace.variables:
        raise SemanticError(
            f"atom {name!r} is neither a trace variable nor an interpreted name; "
            f"variables are {list(ctx.trace.variables)}"
        )
    return ctx.trace.variables.index(name)


def validate_formula(ctx: MonitorContext, formula: Formula) -> None:
    """Check every atom and distance-function name resolves before evaluating."""
    for node in iter_subformulas(formula):
        if isinstance(node, Atomic):
            name = node.name
            if node.op is not None:
                _resolve_variable(ctx, name)
            elif name in ("true", "false"):
                pass
            elif _is_address(name):
                if not int(name[len(_AT_PREFIX):]) < ctx.trace.location_count:
                    raise SemanticError(f"address atom {name!r} names a missing location")
            elif ctx.interpretation is not None and name in ctx.interpretation:
                pass
            else:
                _resolve_variable(ctx, name)
        elif isinstance(node, (Reach, Escape)):
            if node.distance not in ctx.distances:
                raise SemanticError(
                    f"unknown distance function {node.distance!r}; registered: "
                    f"{sorted(ctx.distances)}"
                )


# ---------------------------------------------------------------------------
# temporal operators


def monitor_until(interval: Interval, s1: SpatioTemporalSignal, s2: SpatioTemporalSignal, domain: SignalDomain) -> SpatioTemporalSignal:
    """Exact until sweep for piecewise-constant inputs, at every location.

    output(t) = choose over t' in [t+lo, t+hi] of
                (s2(t') combine (combine of s1 over [t, t'])).

    A location's output can only step at its own step times (where either
    input changes there) shifted left by 0, lo or hi, so it suffices to
    evaluate at exactly those event times.  An unbounded interval clips the
    window at the trace end.  The evaluable domain shrinks by the interval
    upper bound (lower bound when unbounded); an empty domain is an error.

    Cost: O(N log N + sum over events of the own segments in the window) for
    N own steps of all locations, in one array pass per window offset
    (``_temporal_sweep``); an unbounded window spans the rest of the trace.
    """
    return _temporal_sweep(interval, *_own_steps(s1, s2), domain, future=True)


def monitor_since(interval: Interval, s1: SpatioTemporalSignal, s2: SpatioTemporalSignal, domain: SignalDomain) -> SpatioTemporalSignal:
    """Time-mirrored analogue of monitor_until (window in the past)."""
    return _temporal_sweep(interval, *_own_steps(s1, s2), domain, future=False)


def _own_steps(s1: SpatioTemporalSignal, s2: SpatioTemporalSignal) -> tuple:
    """(times, v1, v2, own, end): both inputs on their merged grid, and per
    cell whether it is an own step: the first row or a change in either."""
    times, (v1, v2), end = _aligned([s1, s2])
    return times, v1, v2, run_starts(v1) | run_starts(v2), end


def _temporal_sweep(interval: Interval, times: np.ndarray, v1: np.ndarray, v2: np.ndarray, own: np.ndarray, t_end: float, domain: SignalDomain, future: bool) -> SpatioTemporalSignal:
    """The until (``future``) or since sweep of every location at once.

    ``own`` marks each location's own steps (the first row is one), which
    bound its segments and give its events.  Per (location, event e) pair,
    a grid lookup and the location's running count of own steps find the
    segments holding e, the near window edge (e + lo, or e - lo for since)
    and the far one (e + hi, e - hi, or the trace edge when unbounded),
    clamped to the grid, so an edge that rounding puts just outside the
    domain reads the outermost segment.  The fold walks from e's segment to
    the far edge's, combining s1 into ``running``; from the near edge's
    segment on it also chooses s2 combined with ``running`` into ``acc``.
    All pairs take step d of their walk together.  Ties keep ``running``,
    the s2 value and ``acc``, as sampling every step time in the window
    did, so signed zeros come out the same.
    """
    t0 = times[0].item()
    lo, hi, bounded = interval.lo, interval.hi, interval.bounded
    lost = hi if bounded else lo
    out_start, out_end = (t0, t_end - lost) if future else (t0 + lost, t_end)
    if out_end < out_start:
        raise SemanticError(
            f"temporal interval [{lo}, {hi if bounded else 'inf'}] exceeds the trace horizon: "
            f"evaluable domain of {'until' if future else 'since'} is empty"
        )
    n, way = own.shape[1], 1 if future else -1
    # own steps flat, one location after another; latest[k, l] is the flat
    # index of l's last own step at or before row k
    loc, row = np.nonzero(own.T)
    count = np.cumsum(own, axis=0)
    latest = count + (np.cumsum(count[-1]) - count[-1] - 1)
    x1, x2 = v1[row, loc], v2[row, loc]
    shifts = (0.0, lo, hi) if bounded else (0.0, lo)
    events = np.concatenate([times[row] - way * s for s in shifts])
    inside = (out_start <= events) & (events <= out_end)
    owners = np.concatenate((np.arange(n), np.tile(loc, len(shifts))[inside]))
    events = np.concatenate((np.full(n, out_start), events[inside]))
    order = np.lexsort((events, owners))
    owners, events = owners[order], events[order]
    fresh = np.ones(len(events), dtype=bool)
    fresh[1:] = (owners[1:] != owners[:-1]) | (events[1:] != events[:-1])
    owners, events = owners[fresh], events[fresh]

    def segment(t: np.ndarray) -> np.ndarray:
        return latest[np.maximum(np.searchsorted(times, t, side="right") - 1, 0), owners]

    far = events + way * hi if bounded else np.full_like(events, t_end if future else t0)
    k_e = segment(events)
    span, lead = way * (segment(far) - k_e), way * (segment(events + way * lo) - k_e)
    # longest walks first, so the pairs still walking at step d are a prefix
    order = np.argsort(-span, kind="stable")
    k_e, lead = k_e[order], lead[order]
    live = np.searchsorted(-span[order], -np.arange(span.max() + 1), side="right")
    dtype = np.result_type(v1, v2)
    running = np.full(len(events), domain.top, dtype=dtype)
    acc = np.full(len(events), domain.bottom, dtype=dtype)
    for d, m in enumerate(live.tolist()):
        k = k_e[:m] + way * d
        r, x, y, a = running[:m], x1[k], x2[k], acc[:m]
        r = running[:m] = np.where(r <= x, r, x)
        y = np.where(y <= r, y, r)
        acc[:m] = np.where((lead[:m] <= d) & ~(a >= y), y, a)
    return canonical(*stack_steps(events, owners, acc[np.argsort(order)], n), out_end)


# ---------------------------------------------------------------------------
# spatial operators


def reach(
    model: SpatialModel,
    f: DistanceFunction,
    interval: Interval,
    s1: list,
    s2: list,
    domain: SignalDomain,
) -> list:
    """Dispatch on the upper distance bound: flooding when bounded, fixpoint
    back-propagation when unbounded."""
    if interval.hi is None or interval.hi == math.inf:
        return unbounded_reach(model, f, interval.lo, s1, s2, domain)
    return bounded_reach(model, f, interval.lo, interval.hi, s1, s2, domain)


def bounded_reach(
    model: SpatialModel,
    f: DistanceFunction,
    d1: float,
    d2: float,
    s1: list,
    s2: list,
    domain: SignalDomain,
) -> list:
    """Choose over route prefixes with accumulated distance in [d1, d2].

    The result at l is the choose over finite route prefixes from l whose
    accumulated distance lands in [d1, d2] of (s2 at the endpoint) combined
    with s1 over the strict prefix.

    Boolean verdicts with d1 = 0 are a shortest-path question: l holds iff
    s2 holds at l or some s2 location lies within d2 of l along a route
    whose strict prefix satisfies s1 (``_reached_within``).  Every other case
    floods (``_flood``), one array pass per round.

    With d1 > 0 nothing prunes a cycle, so the rounds would run up to d2
    over the smallest edge distance.  When d2 is infinite, or every edge
    distance is finite and d2 >= d1 + (n + 1) * d_max for the largest edge
    distance d_max, the call is ``unbounded_reach``: erasing the loops of a
    route's prefix, up to its shortest suffix of at least d1, leaves a route
    no worse whose length lies in [d1, d1 + n * d_max], and the extra d_max
    absorbs rounding.
    """
    incoming = model.incoming_weights(f)
    if not d1 <= d2:
        raise SemanticError(f"malformed distance interval [{d1}, {d2}]")
    unconstrained_lo = d1 == 0
    if not unconstrained_lo:
        steps = incoming.data
        d_loop_free = d1 + (model.location_count + 1) * steps.max(initial=0)
        if d2 == math.inf or np.isfinite(steps).all() and d2 >= d_loop_free:
            return unbounded_reach(model, f, d1, s1, s2, domain)
    if unconstrained_lo and domain.name == "boolean":
        return _reached_within(incoming, s1, s2, d2)
    return _flood(incoming, d1, d2, s1, s2, domain)


def _flood(incoming: csr_array, d1: float, d2: float, s1: list, s2: list, domain: SignalDomain) -> list:
    """The flooding of ``bounded_reach``, one array pass per round.

    The queue holds one value per (location, accumulated distance), as three
    arrays in the order each entry was first found; it starts with every
    location at distance 0 and its s2 value.  A round drops the entries at
    the domain bottom (they can never change the output) and extends every
    other one backwards along its slice of the incoming CSR, so the new
    entries come in queue order and then CSR order.  A new entry src at
    distance d carries the entry's value combined with s1[src] (ties keep
    the entry's value).  Per src, the first maximum among the new entries
    with d1 <= d <= d2 replaces the output only if strictly greater.  The
    entries with d < d2 are merged per (src, d), keeping the first position
    and the first maximum, and form the next queue.

    With d1 = 0 the next queue also drops its dominated entries
    (``_undominated``).  Both cuts leave the output as it is.  Rounds,
    entries and the order of ties are those of a sequential flooding over a
    dict, so +0.0 and -0.0 come out as it gives them.
    """
    n = incoming.shape[0]
    x1, target = np.asarray(s1), np.asarray(s2)
    bottom = domain.bottom
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
        v, x = val[entry], x1[src]
        v = np.where(v <= x, v, x)
        inside = np.flatnonzero((d1 <= d) & (d <= d2))
        hit = inside[_first_maxima(v[inside], src[inside], n)]
        at, got = src[hit], v[hit]
        s[at] = np.where(got > s[at], got, s[at])
        below = np.flatnonzero(d < d2)
        lengths, length = np.unique(d[below], return_inverse=True)
        keys, key = np.unique(src[below].astype(np.int64) * len(lengths) + length, return_inverse=True)
        kept = below[_first_maxima(v[below], key, len(keys))]
        loc, dist, val = src[kept], d[kept], v[kept]
        if prune and len(loc):
            (loc, dist, val), front = _undominated(n, loc, dist, val, front)
    return s.tolist()


def _first_maxima(values: np.ndarray, group: np.ndarray, size: int) -> np.ndarray:
    """Per group (ids below ``size``), the position of its first maximum of
    ``values``, as a sequential strict ``>`` update keeps it (+0.0 and -0.0
    are equal, so the earlier one stays); ordered by each group's first
    position."""
    last = len(values)
    at = np.arange(last)
    top = np.zeros(size, dtype=values.dtype)
    top[group] = values
    np.maximum.at(top, group, values)
    first, best = np.full(size, last), np.full(size, last)
    np.minimum.at(first, group, at)
    tied = values == top[group]
    np.minimum.at(best, group[tied], at[tied])
    present = first < last
    return best[present][np.argsort(first[present])]


def _undominated(n: int, loc: np.ndarray, dist: np.ndarray, val: np.ndarray, front: tuple) -> tuple:
    """The d1 = 0 pruning of ``_flood``: the queue entries that no entry at
    the same location with no larger distance and no smaller value
    dominates, among the queue and ``front`` (the entries kept in earlier
    rounds), ordered by the first appearance of their location in the queue
    and then by distance, and the new front.  A dominated entry adds
    nothing: its dominator was enqueued no later and feeds every extension
    it would.

    All entries are sorted by (location, distance), earlier rounds first on
    equal distances; an entry is kept iff its value exceeds the maximum of
    its location's earlier entries, a segmented prefix maximum over dense
    value ranks (one rank for +0.0 and -0.0).
    """
    appear = np.arange(n) + len(loc)  # locations not in the queue sort after it
    seen, first = np.unique(loc, return_index=True)
    appear[seen] = first
    every = [np.concatenate(pair) for pair in zip(front, (loc, dist, val))]
    fresh = np.arange(len(every[0])) >= len(front[0])
    key = appear[every[0]]
    order = np.lexsort((fresh, every[1], key))
    key = key[order]
    values, rank = np.unique(every[2][order], return_inverse=True)
    segment = np.concatenate(([0], np.cumsum(key[1:] != key[:-1])))
    level = segment * len(values) + rank
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = level[1:] > np.maximum.accumulate(level)[:-1]
    kept = order[keep]
    queue = kept[fresh[kept]]
    return tuple(a[queue] for a in every), tuple(a[kept] for a in every)


def _reached_within(incoming: csr_array, s1: list, targets: list, limit: float) -> list:
    """Boolean reach with lower bound zero, as one multi-source search.

    A location holds iff it is a target or a target lies within ``limit`` of
    it along a route whose strict prefix satisfies s1.  The search runs from
    all targets at once over the incoming edges whose source satisfies s1.
    Dijkstra sums a route's distances from the target end, as the flooding
    does, so the ``<= limit`` boundary agrees exactly.  An infinite limit
    asks only for a route, whatever its weights, so the search is
    unweighted.
    """
    keep = np.asarray(s1, dtype=bool)[incoming.indices]
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    graph = csr_array(
        (incoming.data[keep], incoming.indices[keep], kept_before[incoming.indptr]),
        shape=incoming.shape,
    )
    hit = np.asarray(targets, dtype=bool)
    sources = np.flatnonzero(hit)
    if limit == math.inf:
        dist = csgraph.dijkstra(graph, indices=sources, min_only=True, unweighted=True)
        reached = np.isfinite(dist)
    else:
        dist = csgraph.dijkstra(graph, indices=sources, min_only=True, limit=limit)
        reached = dist <= limit
    return (hit | reached).tolist()


def unbounded_reach(
    model: SpatialModel,
    f: DistanceFunction,
    d1: float,
    s1: list,
    s2: list,
    domain: SignalDomain,
) -> list:
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
    incoming = model.incoming_weights(f)
    if d1 == 0:
        return _back_propagate(model, incoming, s1, list(s2), domain)
    finite = np.isfinite(incoming.data)
    if d1 == math.inf:
        # no route of finite edges is infinitely long
        s = [domain.bottom] * model.location_count
    else:
        d_max = incoming.data[finite].max(initial=0).item()
        s = _flood(incoming, d1, d1 + d_max, s1, s2, domain)
    if not finite.all():
        anywhere = _back_propagate(model, incoming, s1, list(s2), domain)
        edges = incoming.tocoo()
        for dst, src in zip(edges.row[~finite].tolist(), edges.col[~finite].tolist()):
            s[src] = max(s[src], min(s1[src], anywhere[dst]))
    return _back_propagate(model, incoming, s1, s, domain)


def _back_propagate(model: SpatialModel, incoming: csr_array, s1: list, s: list, domain: SignalDomain) -> list:
    """Fixpoint in which s[src] absorbs s[dst] combined with s1[src] for every
    edge src -> dst.  It ignores weights, so for Boolean verdicts it is plain
    reachability from the seeds (``_reached_within`` with no limit)."""
    if domain.name == "boolean":
        return _reached_within(incoming, s1, s, math.inf)
    return _relax(_neighbours(model, forward=False), s1, s, set(range(model.location_count)))


def _relax(neighbours: list[list[int]], s1: list, s: list, active: set[int]) -> list:
    """Max/min relaxation from the ``active`` locations until a fixpoint:
    s[v] absorbs s[u] combined with s1[v] for every v in neighbours[u].  Ties
    keep s[u] in the combine and the old s[v] in the choose, so the visiting
    order decides which of +0.0 and -0.0 survives."""
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


def _neighbours(model: SpatialModel, forward: bool) -> list[list[int]]:
    """Per location, the far ends of its outgoing (``forward``) or incoming
    edges in edge order, which decides ``_relax``'s signed-zero ties (the
    CSR sorts them)."""
    near, far = (model.src, model.dst) if forward else (model.dst, model.src)
    order = np.argsort(near, kind="stable")
    bounds = np.searchsorted(near[order], np.arange(model.location_count + 1)).tolist()
    ends = far[order].tolist()
    return [ends[a:b] for a, b in zip(bounds, bounds[1:])]


def escape(
    model: SpatialModel,
    f: DistanceFunction,
    interval: Interval,
    s1: list,
    domain: SignalDomain,
) -> list:
    """Escape: best value over routes leaving l through satisfying locations
    whose endpoint sits at a graph minimum distance inside the interval.

    Per start l, ``_relax`` propagates forward along outgoing edges from
    e[l] = s1[l], so e[l2] becomes the best walk from l to l2, each walk
    valued as its leftmost minimum of s1.  The result at l is the first
    maximum of e over the endpoints whose all-pairs minimum distance from l
    lies in the interval.
    """
    d1 = interval.lo
    d2 = math.inf if interval.hi is None else interval.hi
    if not d1 <= d2:
        raise SemanticError(f"malformed distance interval [{d1}, {d2}]")
    dist = min_distance_matrix(model, f)
    n = model.location_count
    bottom = domain.bottom
    successors = _neighbours(model, forward=True)
    out = []
    for l in range(n):
        e = [bottom] * n
        e[l] = s1[l]
        _relax(successors, s1, e, {l})
        acc = bottom
        row_dist = dist[l]
        for l2 in range(n):
            if d1 <= row_dist[l2] <= d2 and e[l2] > acc:
                acc = e[l2]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# the monitor itself


def monitor(ctx: MonitorContext, formula: Formula) -> SpatioTemporalSignal:
    """Evaluate a formula over the context's trace and dynamic model."""
    core = desugar(formula)
    validate_formula(ctx, core)
    cache: dict[Formula, SpatioTemporalSignal] = {}
    return _eval(ctx, core, cache)


def _eval(ctx: MonitorContext, node: Formula, cache: dict) -> SpatioTemporalSignal:
    hit = cache.get(node)
    if hit is not None:
        return hit
    result = _eval_node(ctx, node, cache)
    cache[node] = result
    return result


def _eval_node(ctx: MonitorContext, node: Formula, cache: dict) -> SpatioTemporalSignal:
    dom = ctx.domain
    if isinstance(node, Atomic):
        return _atom_signal(ctx, node)
    if isinstance(node, Not):
        child = _eval(ctx, node.child, cache)
        values = ~child.values if child.values.dtype == bool else -child.values
        return SpatioTemporalSignal(child.times, values, child.end_time)
    if isinstance(node, (Until, Since)):
        sweep = monitor_until if isinstance(node, Until) else monitor_since
        return sweep(node.interval, _eval(ctx, node.left, cache), _eval(ctx, node.right, cache), dom)
    if not isinstance(node, (And, Reach, Escape)):
        raise SemanticError(f"cannot monitor non-core node {type(node).__name__}")
    operands = [node.child] if isinstance(node, Escape) else [node.left, node.right]
    spatial = isinstance(node, (Reach, Escape))
    times, rows, end = _aligned(
        [_eval(ctx, x, cache) for x in operands], ctx.model.snapshot_times() if spatial else ()
    )
    if isinstance(node, And):
        # np.minimum would not promise the left operand on ties (signed zeros)
        return canonical(times, np.where(rows[1] < rows[0], rows[1], rows[0]), end)
    kernel = reach if isinstance(node, Reach) else escape
    f = ctx.distances[node.distance]
    # Inputs repeated on one snapshot reuse the first result: one evaluation
    # per snapshot and distinct input rows.
    done: dict = {}
    out = []
    for k, t in enumerate(times.tolist()):
        model = ctx.model.snapshot_at(t)
        key = (id(model), *(r[k].tobytes() for r in rows))
        if key not in done:
            done[key] = kernel(model, f, node.interval, *(r[k].tolist() for r in rows), dom)
        out.append(done[key])
    return canonical(times, np.array(out, dtype=rows[0].dtype), end)


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
