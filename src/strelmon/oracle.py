"""Brute-force reference semantics for small instances.

Everything here re-derives verdicts straight from the defining equations,
using deliberately naive machinery: temporal operators by a dense double
loop over event grids, bounded reach by exhaustive enumeration of route
prefixes, unbounded reach by a memoized recursion over the remaining lower
bound plus a dense fixpoint, escape by simple-path enumeration gated with a
Floyd-Warshall distance matrix.  None of the production algorithms (event
sweeps, flooding, back-propagation, generalized Dijkstra) are used, so
agreement between ``oracle_monitor`` and ``monitor`` is meaningful evidence.

Instances are capped at 8 locations and 6 distinct trace steps; the point is
trust, not speed.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .algebra import SignalDomain
from .logic import And, Atomic, Escape, Formula, Not, Reach, Since, Until, desugar
from .monitor import MonitorContext, SemanticError, validate_formula
from .signals import SpatioTemporalSignal, TemporalSignal
from .space import SpatialModel

MAX_LOCATIONS = 8
MAX_STEPS = 6


class OracleLimitError(ValueError):
    pass


def oracle_monitor(
    ctx: MonitorContext,
    formula: Formula,
    max_locations: int = MAX_LOCATIONS,
    max_steps: int = MAX_STEPS,
) -> SpatioTemporalSignal:
    if ctx.trace.location_count > max_locations:
        raise OracleLimitError(
            f"oracle accepts at most {max_locations} locations, got {ctx.trace.location_count}"
        )
    if len(ctx.trace.step_times()) > max_steps:
        raise OracleLimitError(
            f"oracle accepts at most {max_steps} trace steps, got {len(ctx.trace.step_times())}"
        )
    core = desugar(formula)
    validate_formula(ctx, core)
    times, values, end = _eval(ctx, core)
    signals = [TemporalSignal(tuple(times), tuple(row), end) for row in values]
    return SpatioTemporalSignal.from_signals(signals)


def _value_at(times: list[float], row: list[Any], t: float) -> Any:
    # linear scan; grids are tiny by construction
    idx = 0
    for i, tt in enumerate(times):
        if tt <= t:
            idx = i
        else:
            break
    return row[idx]


def _atom_value(ctx: MonitorContext, atom: Atomic, loc: int, data: tuple) -> Any:
    """One atom at one location, from the trace values there."""
    dom, name, c = ctx.domain, atom.name, atom.threshold
    boolean = dom.name == "boolean"
    data = tuple(map(float, data))
    if atom.op is not None:
        x = data[ctx.trace.variables.index(name)]
        if boolean:
            return {">": x > c, ">=": x >= c, "<": x < c, "<=": x <= c}[atom.op]
        return x - c if atom.op in (">", ">=") else c - x
    if name in ("true", "false"):
        return dom.top if name == "true" else dom.bottom
    if name.startswith("at_") and name[3:].isascii() and name[3:].isdigit():
        return dom.top if loc == int(name[3:]) else dom.bottom
    if ctx.interpretation is not None and name in ctx.interpretation:
        value = ctx.interpretation[name](np.array(data).reshape(1, 1, -1))
        return (bool if boolean else float)(np.asarray(value)[0, 0])
    return dom.top if data[ctx.trace.variables.index(name)] != 0 else dom.bottom


def _eval(ctx: MonitorContext, node: Formula) -> tuple[list[float], list[list[Any]], float]:
    """Returns (grid times, per-location values on the grid, end time)."""
    dom = ctx.domain
    n = ctx.trace.location_count
    if isinstance(node, Atomic):
        sigs = ctx.trace.signals
        steps = [(tuple(t for s in sigs for t in s.times), None, ctx.trace.end_time)]
        _, end, base = _merged(steps, ctx.model.snapshot_times())
        values = [[_atom_value(ctx, node, loc, sigs[loc].value_at(t)) for t in base] for loc in range(n)]
        return base, values, end
    if isinstance(node, Not):
        times, values, end = _eval(ctx, node.child)
        return times, [[dom.negate(v) for v in row] for row in values], end
    if isinstance(node, And):
        (t1, v1, _), (t2, v2, _) = children = [_eval(ctx, node.left), _eval(ctx, node.right)]
        _, end, times = _merged(children)
        values = [
            [min(_value_at(t1, v1[loc], t), _value_at(t2, v2[loc], t)) for t in times]
            for loc in range(n)
        ]
        return times, values, end
    if isinstance(node, (Until, Since)):
        (t1, v1, _), (t2, v2, _) = children = [_eval(ctx, node.left), _eval(ctx, node.right)]
        start, end, base = _merged(children)
        r1 = [[_value_at(t1, v1[loc], t) for t in base] for loc in range(n)]
        r2 = [[_value_at(t2, v2[loc], t) for t in base] for loc in range(n)]
        lo, hi = node.interval.lo, node.interval.hi
        lost = hi if hi < math.inf else lo
        if isinstance(node, Until):
            out_start, out_end = start, end - lost
        else:
            out_start, out_end = start + lost, end
        if out_start > out_end:
            raise SemanticError("temporal interval exceeds the trace horizon")
        grid = {out_start, out_end}
        for t in base:
            for shift in (0.0, lo, hi):
                for cand in (t - shift, t + shift):
                    if out_start <= cand <= out_end:
                        grid.add(cand)
        times = sorted(grid)
        values = []
        for loc in range(n):
            row = []
            for t in times:
                if isinstance(node, Until):
                    w_lo, w_hi = t + lo, min(t + hi, end)
                    row.append(
                        _window_value(dom, base, r1[loc], r2[loc], t, w_lo, w_hi, future=True)
                    )
                else:
                    w_lo, w_hi = max(t - hi, start), t - lo
                    row.append(
                        _window_value(dom, base, r1[loc], r2[loc], t, w_lo, w_hi, future=False)
                    )
            values.append(row)
        return times, values, out_end if isinstance(node, Until) else end
    if isinstance(node, Reach):
        return _eval_spatial(ctx, node, binary=True)
    if isinstance(node, Escape):
        return _eval_spatial(ctx, node, binary=False)
    raise SemanticError(f"oracle cannot evaluate non-core node {type(node).__name__}")


def _merged(children: list, extra=()) -> tuple[float, float, list[float]]:
    """The children's common domain and the merged grid (with ``extra``) on it."""
    start = max(times[0] for times, _, _ in children)
    end = min(e for _, _, e in children)
    if start > end:
        raise SemanticError("empty common time domain")
    grid = {start, *extra}.union(*(times for times, _, _ in children))
    return start, end, sorted(t for t in grid if start <= t <= end)


def _window_value(dom, base, row1, row2, t, w_lo, w_hi, future: bool) -> Any:
    """Direct evaluation of the until/since equation at a single time."""
    samples = {w_lo, w_hi}
    for s in base:
        if w_lo <= s <= w_hi:
            samples.add(s)
    acc = dom.bottom
    for tp in sorted(samples):
        span_lo, span_hi = (t, tp) if future else (tp, t)
        inner = {span_lo, span_hi}
        for s in base:
            if span_lo <= s <= span_hi:
                inner.add(s)
        prod = dom.top
        for u in inner:
            prod = min(prod, _value_at(base, row1, u))
        acc = max(acc, min(_value_at(base, row2, tp), prod))
    return acc


def _eval_spatial(ctx: MonitorContext, node, binary: bool):
    dom = ctx.domain
    n = ctx.trace.location_count
    operands = [node.left, node.right] if binary else [node.child]
    children = [_eval(ctx, x) for x in operands]
    _, end, times = _merged(children, ctx.model.snapshot_times())
    (t1, v1, _), (t2, v2, _) = children[0], children[-1]
    f = ctx.distances[node.distance]
    lo, hi = node.interval.lo, node.interval.hi
    values: list[list[Any]] = [[] for _ in range(n)]
    for t in times:
        model = ctx.model.snapshot_at(t)
        s1 = [_value_at(t1, v1[loc], t) for loc in range(n)]
        if binary:
            s2 = [_value_at(t2, v2[loc], t) for loc in range(n)]
            if hi != math.inf:
                out = [walk_reach(model, f, lo, hi, s1, s2, dom, loc) for loc in range(n)]
            else:
                out = dense_unbounded_reach(model, f, lo, s1, s2, dom)
        else:
            out = simple_path_escape(model, f, lo, hi, s1, dom)
        for loc in range(n):
            values[loc].append(out[loc])
    return times, values, end


def _out_steps(model: SpatialModel, f) -> list[list[tuple[int, float]]]:
    """Per location, (destination, f-distance) for each outgoing edge, in
    edge order, read straight from the snapshot's edge arrays."""
    out: list[list[tuple[int, float]]] = [[] for _ in range(model.location_count)]
    steps = np.asarray(f.map(model.weight), dtype=float).tolist()
    for src, dst, step in zip(model.src.tolist(), model.dst.tolist(), steps):
        out[src].append((dst, step))
    return out


def walk_reach(model: SpatialModel, f, d1, d2, s1, s2, dom: SignalDomain, start: int) -> Any:
    """Exhaustive route-prefix enumeration, pruned at accumulated distance d2.

    Strict positivity of f makes the enumeration finite: distances only grow
    along a prefix, so anything beyond d2 can never contribute.
    """
    out_edges = _out_steps(model, f)
    acc = dom.bottom

    def visit(loc: int, dist, prefix) -> None:
        nonlocal acc
        if d1 <= dist <= d2:
            acc = max(acc, min(s2[loc], prefix))
        prefix2 = min(prefix, s1[loc])
        if prefix2 == dom.bottom:
            return
        for dst, step in out_edges[loc]:
            nd = dist + step
            if nd <= d2:
                visit(dst, nd, prefix2)

    visit(start, 0, dom.top)
    return acc


def dense_unbounded_reach(model: SpatialModel, f, d1, s1, s2, dom: SignalDomain) -> list:
    """Lower-bounded reach by recursion on the remaining distance budget.

    V is the least fixpoint of the unconstrained equation
    V(l) = s2(l) choose (choose over out-edges of s1(l) combine V(dst)),
    computed by dense iteration.  U(l, need) demands the route cross the
    remaining bound `need` before contributions start; the budget decreases
    by each step's distance.
    """
    n = model.location_count
    out_edges = _out_steps(model, f)
    v = list(s2)
    while True:
        nxt = []
        for l in range(n):
            val = s2[l]
            for dst, _step in out_edges[l]:
                val = max(val, min(s1[l], v[dst]))
            nxt.append(val)
        if nxt == v:
            break
        v = nxt
    if d1 == 0:
        return v

    memo: dict[tuple[int, Any], Any] = {}

    def unbounded(loc: int, need) -> Any:
        if need <= 0:
            return v[loc]
        key = (loc, need)
        if key in memo:
            return memo[key]
        memo[key] = dom.bottom  # cycles re-entered with the same budget add nothing new
        acc = dom.bottom
        for dst, step in out_edges[loc]:
            acc = max(acc, min(s1[loc], unbounded(dst, need - step)))
        memo[key] = acc
        return acc

    return [unbounded(l, d1) for l in range(n)]


def floyd_warshall(model: SpatialModel, f) -> list[list[float]]:
    n = model.location_count
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for src, edges in enumerate(_out_steps(model, f)):
        for dst, step in edges:
            dist[src][dst] = min(dist[src][dst], step)
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            for j in range(n):
                cand = dik + dist[k][j]
                if cand < dist[i][j]:
                    dist[i][j] = cand
    return dist


def simple_path_escape(model: SpatialModel, f, d1, d2, s1, dom: SignalDomain) -> list:
    """Escape by enumerating simple paths.

    Revisiting a location only adds combine-factors, so under the idempotent
    shipped domains simple paths realize the best value for every endpoint;
    the endpoint is admitted when its minimum graph distance from the start
    lies in the interval.
    """
    dist = floyd_warshall(model, f)
    n = model.location_count
    out_edges = _out_steps(model, f)
    results = []
    for start in range(n):
        acc = dom.bottom
        admitted = [d1 <= dist[start][l] <= d2 for l in range(n)]

        def visit(loc: int, product, visited: set) -> None:
            nonlocal acc
            if admitted[loc]:
                acc = max(acc, product)
            for dst, _step in out_edges[loc]:
                if dst not in visited:
                    visit(dst, min(product, s1[dst]), visited | {dst})

        visit(start, s1[start], {start})
        results.append(acc)
    return results
