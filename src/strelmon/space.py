"""Weighted directed graphs, their time evolution, and route distances.

Locations are integer ids 0..n-1.  A graph snapshot stores its edges as
arrays in edge order: ``src`` and ``dst`` (int64) and ``weight`` (float64,
shape (m,) for scalar weights or (m, 2) for 2d vectors, as in models
embedded in the plane).  Undirected graphs are encoded as two opposite
edges, each edge followed by its reverse.  A distance function maps a whole
weight array to strictly positive numbers; a route's distance is the sum of
its mapped weights, and the distance between two locations is the minimum
over all routes.  Relations over points in the plane (Delaunay neighbours,
pairs within a radius) are computed from an (n, 2) array of positions as
sorted ``(src, dst)`` arrays, from which snapshots are built directly.
"""

from __future__ import annotations

import gc
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain
from typing import Any, Callable, Iterable, NoReturn

import numpy as np
from scipy.sparse import csgraph, csr_array

Weight = Any  # float or (float, float)


class ModelError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SpatialModel:
    """One graph snapshot: edge i runs from src[i] to dst[i] with weight[i]."""

    location_count: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        n = self.location_count
        if n <= 0:
            raise ModelError("location_count must be positive")
        for name, dtype in (("src", np.int64), ("dst", np.int64), ("weight", float)):
            array = np.array(getattr(self, name), dtype=dtype)  # an own copy, read-only so
            array.flags.writeable = False  # that the cached CSR weights cannot go stale
            object.__setattr__(self, name, array)
        src, dst, w = self.src, self.dst, self.weight
        if not (src.ndim == 1 and dst.shape == src.shape == w.shape[:1] and w.shape[1:] in ((), (2,))):
            raise ModelError("edge weights must be all scalars or all 2d vectors, one per edge")
        # report the first offending edge in edge order, whatever its fault
        out_of_range = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        keys = src * n + dst
        ordered = np.sort(keys)
        repeated = np.zeros(len(src), dtype=bool)
        if (ordered[1:] == ordered[:-1]).any():  # every edge but each pair's first
            repeated = ~np.isin(np.arange(len(src)), np.unique(keys, return_index=True)[1])
        bad = np.flatnonzero(out_of_range | (src == dst) | repeated)
        if bad.size:
            a, b = src[bad[0]].item(), dst[bad[0]].item()
            if out_of_range[bad[0]]:
                raise ModelError(f"edge ({a}, {b}) out of range for {n} locations")
            if a == b:
                raise ModelError(f"self-loop at location {a} is not allowed")
            raise ModelError(f"duplicate edge for ordered pair ({a}, {b})")

    def __eq__(self, other) -> bool:
        return isinstance(other, SpatialModel) and self.location_count == other.location_count and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in ("src", "dst", "weight"))

    def __hash__(self) -> int:
        return hash((self.location_count, len(self.src)))

    @classmethod
    def undirected(cls, n: int, src, dst, weight) -> "SpatialModel":
        """Both directions of every listed edge, each followed by its reverse."""
        return cls(n, *both_directions(src, dst, weight))

    @cached_property
    def symmetric(self) -> bool:
        """Whether the reverse of every edge is an edge too, whatever the
        weights: the edge set equals its reverse."""
        n = self.location_count
        return bool(np.array_equal(np.sort(self.src * n + self.dst), np.sort(self.dst * n + self.src)))

    @cached_property
    def _views(self) -> dict["DistanceFunction", "EdgeView"]:
        return {}

    def edges(self, f: "DistanceFunction") -> "EdgeView":
        """The snapshot's edges under f, as the reach kernels read them.

        Built once per distance function and kept with the snapshot, so every
        edge weight is mapped and checked for strict positivity once, and no
        kernel call derives the view's arrays again.  Raises ModelError if f
        is not strictly positive on some edge.
        """
        views = self._views
        if f not in views:
            n = self.location_count
            incoming = csr_array((check_strictly_positive(self, f), (self.dst, self.src)), shape=(n, n))
            dst = np.repeat(np.arange(n), np.diff(incoming.indptr))
            steps = incoming.data
            step = steps[0].item() if steps.size and (steps == steps[0]).all() else None
            views[f] = EdgeView(incoming, incoming.indices, dst, step)
        return views[f]


@dataclass(frozen=True, eq=False)
class EdgeView:
    """One snapshot's edges under one distance function (``SpatialModel.edges``).

    ``incoming`` is the reversed adjacency as CSR: row dst, column src, data
    the mapped distance.  ``src`` and ``dst`` give every edge's endpoints in
    that CSR's order (``src`` is its ``indices``), and ``step`` is the one
    distance of every edge, or None when they differ or there are no edges.
    ``searches`` holds the Boolean search ``monitor._reached_within`` ran
    last on this view, at most one entry, so the radii of a safe-radius
    sweep share the snapshot's search instead of each running its own.
    """

    incoming: csr_array
    src: np.ndarray
    dst: np.ndarray
    step: float | None
    searches: dict = field(default_factory=dict, repr=False)


def both_directions(src, dst, weight) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge arrays of every listed edge followed by its reverse, of the same weight.
    An endpoint outside the int64 range is an OverflowError here, not cast."""
    pairs = np.column_stack((np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)))
    return pairs.ravel(), pairs[:, ::-1].ravel(), np.repeat(np.asarray(weight, dtype=float), 2, axis=0)


def _edge_arrays(edges: Iterable[tuple[int, Weight, int]]) -> tuple[list, list, np.ndarray]:
    src, weight, dst = list(zip(*edges)) or ((), (), ())
    try:
        return src, dst, np.array(weight, dtype=float)
    except ValueError:
        raise ModelError("edge weights must be all scalars or all 2d vectors") from None


def build_spatial_model(n: int, edges: Iterable[tuple[int, Weight, int]]) -> SpatialModel:
    return SpatialModel(n, *_edge_arrays(edges))


def undirected_model(n: int, edges: Iterable[tuple[int, Weight, int]]) -> SpatialModel:
    """Expand each listed (src, weight, dst) edge to both directions."""
    return SpatialModel.undirected(n, *_edge_arrays(edges))


@dataclass(frozen=True)
class DynamicalSpatialModel:
    """Piecewise-constant graph evolution: the snapshot at time t is the
    latest one with time <= t."""

    snapshots: tuple[tuple[float, SpatialModel], ...]

    def __post_init__(self):
        if not self.snapshots:
            raise ModelError("need at least one snapshot")
        times = self._times
        for a, b in zip(times, times[1:]):
            if not a < b:
                raise ModelError(f"snapshot times must strictly increase, got {a} then {b}")
        counts = {m.location_count for _, m in self.snapshots}
        if len(counts) != 1:
            raise ModelError(f"snapshots disagree on location count: {sorted(counts)}")

    @classmethod
    def static(cls, model: SpatialModel, start: float = 0.0) -> "DynamicalSpatialModel":
        return cls(((start, model),))

    @property
    def location_count(self) -> int:
        return self.snapshots[0][1].location_count

    @property
    def start(self) -> float:
        return self.snapshots[0][0]

    @cached_property
    def _times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.snapshots)

    def snapshot_times(self) -> list[float]:
        return list(self._times)

    def snapshot_at(self, t: float) -> SpatialModel:
        if t < self.snapshots[0][0]:
            raise ModelError(f"time {t} precedes first snapshot at {self.snapshots[0][0]}")
        idx = bisect_right(self._times, t) - 1
        return self.snapshots[idx][1]


@dataclass(frozen=True)
class DistanceFunction:
    """Maps a snapshot's weight array to one number per edge (``math.inf``
    allowed, NaN for the wrong kind of weight); must be strictly positive."""

    name: str
    map: Callable[[np.ndarray], np.ndarray]


# Each built-in is made once (``cache``) and every call returns that object,
# so a snapshot's per-distance edge views (``SpatialModel.edges``) stay cached
# across monitoring runs and experiment helpers.
@cache
def hop_distance() -> DistanceFunction:
    return DistanceFunction("hop", lambda w: np.ones(len(w)))


@cache
def weight_sum_distance() -> DistanceFunction:
    return DistanceFunction("weight", lambda w: w if w.ndim == 1 else np.full(len(w), np.nan))


@cache
def euclidean_norm_distance() -> DistanceFunction:
    return DistanceFunction(
        "euclid", lambda w: np.hypot(w[:, 0], w[:, 1]) if w.ndim == 2 else np.full(len(w), np.nan)
    )


BUILTIN_DISTANCES = {
    "hop": hop_distance,
    "weight": weight_sum_distance,
    "euclid": euclidean_norm_distance,
}


def check_strictly_positive(model: SpatialModel, f: DistanceFunction) -> np.ndarray:
    """Map all edge weights through f and return the results in edge order;
    raises ModelError naming the first edge where f is not strictly positive."""
    mapped = np.asarray(f.map(model.weight), dtype=float)
    bad = np.flatnonzero(~(mapped > 0))
    if bad.size:
        i = bad[0]
        what = "is not defined" if np.isnan(mapped[i]) else "is not strictly positive"
        w = model.weight[i].tolist()
        raise ModelError(
            f"distance function {f.name!r} {what} on edge ({model.src[i]}, {model.dst[i]}) "
            f"with weight {tuple(w) if isinstance(w, list) else w!r}"
        )
    return mapped


def min_distance_matrix(model: SpatialModel, f: DistanceFunction, limit: float = math.inf) -> np.ndarray:
    """All-pairs minimum route distance: one Dijkstra per source.

    Entry [i, j] of the n x n float64 array is the minimum accumulated
    distance over routes from i to j, zero on the diagonal, infinity for
    unreachable pairs.  Requires a strictly positive distance function
    (monotone accumulation makes the greedy settling order correct).
    Searching the forward graph sums each route from its source, as route
    enumeration does.  Each search stops past ``limit``: a pair at most
    ``limit`` apart keeps its sum bit for bit (one exactly at ``limit``
    included), and every pair farther apart reads infinity.
    """
    return csgraph.dijkstra(model.edges(f).incoming.T, directed=True, limit=limit)


@dataclass(frozen=True)
class EuclideanPositions:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        check_finite_positions(self.array)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, loc: int) -> tuple[float, float]:
        return self.points[loc]

    @property
    def array(self) -> np.ndarray:
        """The points as an (n, 2) float64 array."""
        return np.asarray(self.points, dtype=float).reshape(len(self.points), 2)


def check_finite_positions(points: np.ndarray) -> None:
    """Raise ModelError naming the first row of an (n, 2) array that is not finite."""
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        x, y = points[bad[0]].tolist()
        raise ModelError(f"position of location {bad[0]} is not finite: ({x}, {y})")


def euclidean_model(pos: EuclideanPositions, relation: Iterable[tuple[int, int]]) -> SpatialModel:
    """Edges carry the 2d difference vector between the endpoint positions."""
    pts = pos.array
    a, b = np.array(list(relation), dtype=np.int64).reshape(-1, 2).T
    return SpatialModel(len(pos), a, b, pts[a] - pts[b])


def _line_direction(pts: np.ndarray) -> np.ndarray | None:
    """The offset from the first point to the first point apart from it if all
    points lie on that line ((1, 0) if all coincide), else None."""
    offsets = pts - pts[0]
    apart = np.flatnonzero(np.any(offsets != 0, axis=1))
    if not apart.size:
        return np.array([1.0, 0.0])  # the perturbation below separates them
    d = offsets[apart[0]]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed cross (inf or nan) is off the line
        cross = offsets[:, 0] * d[1] - offsets[:, 1] * d[0]
    return d if np.all(np.abs(cross) == 0.0) else None


def delaunay_edges(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric Delaunay-triangulation relation over an (n, 2) array of
    finite points, as int64 ``(src, dst)`` arrays sorted by (src, dst).

    Degenerate inputs are handled deterministically: exactly collinear point
    sets become the chain of consecutive neighbours along the line, and
    cocircular ties are broken by a tiny index-scaled perturbation of the
    coordinates before triangulating, so repeated runs agree bit for bit.
    Qhull sees the points translated and scaled into the unit box, which
    leaves the triangulation as it is, so their scale does not matter; a
    coordinate span that is not finite is a ModelError.
    """
    n = len(pts)
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        span = np.ptp(pts, axis=0)
    if not np.isfinite(span).all():
        raise ModelError(f"point coordinates do not span a finite box: {span[0]} by {span[1]}")
    direction = _line_direction(pts)
    if direction is not None:
        order = np.argsort(pts @ direction, kind="stable")
        sides = np.stack((order[:-1], order[1:]), axis=1)
    else:
        from scipy.spatial import Delaunay, QhullError

        extent = span.max()  # > 0: the points are not all equal
        angles = 2.399963229728653 * np.arange(n)  # golden angle spreads directions
        jitter = 1e-9 * (np.arange(n) + 1)[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        try:
            tri = Delaunay((pts - pts.min(axis=0)) / extent + jitter)
        except QhullError as exc:
            first_line = str(exc).partition("\n")[0]  # qhull appends many lines of context
            raise ModelError(f"triangulation failed: {first_line}") from None
        sides = tri.simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    sides = sides.astype(np.int64)
    keys = np.unique(np.concatenate((sides[:, 0] * n + sides[:, 1], sides[:, 1] * n + sides[:, 0])))
    return keys // n, keys % n


def radius_edges(pts: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of an (n, 2) array of points within the communication
    radius, boundary inclusive, as ``math.hypot`` of the coordinate
    differences decides it; int64 ``(i, j)`` arrays sorted by (i, j).

    ``np.hypot`` of the same differences is within a few ulps of it, so it
    decides every pair except those within a relative 1e-12 of the radius,
    which ``math.hypot`` decides again."""
    if radius < 0:
        raise ModelError("radius must be nonnegative")
    i, j = np.triu_indices(len(pts), 1)
    with np.errstate(over="ignore"):  # a distance past the float range is inf, beyond any radius
        d = np.hypot(*(pts[i] - pts[j]).T)
    within = d <= radius
    for k in np.flatnonzero(np.abs(d - radius) <= 1e-12 * max(radius, 1)).tolist():
        (xi, yi), (xj, yj) = pts[i[k]].tolist(), pts[j[k]].tolist()
        within[k] = math.hypot(xi - xj, yi - yj) <= radius
    return i[within].astype(np.int64), j[within].astype(np.int64)


def save_model(dm: DynamicalSpatialModel, path: str) -> None:
    """Write the dynamic-model JSON that ``load_model`` reads, one snapshot
    per line (compact, so the C encoder does the work).

    Each snapshot is written as edge columns: ``"src"`` and ``"dst"`` list
    the endpoints in edge order, and ``"weight"`` lists the scalar weights,
    or, for 2d vectors, two lists: the x components, then the y components.
    So the reader builds a few long lists, not two lists per edge.

    A non-finite weight or time, which ``load_model`` rejects, raises the
    ``ModelError`` the loader would give, before the file is opened.
    """
    for index, (t, m) in enumerate(dm.snapshots):
        if not np.isfinite(m.weight).all():
            e = int(np.argwhere(~np.isfinite(m.weight))[0, 0])  # the first edge holding one
            w = m.weight[e].tolist()
            raise ModelError(f"{path}: snapshot {index}: edge [{m.src[e]}, {m.dst[e]}] has non-finite weight {w!r}")
        if not math.isfinite(t):
            raise ModelError(f"{path}: snapshot {index}: non-finite time {float(t)!r}")
    lines = ",\n".join(
        json.dumps({"time": t, "src": m.src.tolist(), "dst": m.dst.tolist(), "weight": m.weight.T.tolist()})
        for t, m in dm.snapshots
    )
    with open(path, "w") as fh:
        fh.write(f'{{"locations": {dm.location_count}, "snapshots": [\n{lines}\n]}}\n')


def load_model(path: str) -> DynamicalSpatialModel:
    """Read the dynamic-model JSON: {"locations": n, "snapshots": [...]}.

    A snapshot gives its edges in one of two forms, never both:

    - columns, as ``save_model`` writes them: ``"src"`` and ``"dst"`` are
      arrays of JSON integers, and ``"weight"`` is an array of numbers (not
      bools) or, for 2d vectors, two such arrays, the x components and then
      the y components; all of one length, the edge count;
    - ``"edges"``: a list of [src, dst, weight] entries, the weight a number
      or a two-element array of them, one kind per snapshot.

    A snapshot with neither has no edges.  "undirected": true expands every
    edge to both directions.  Non-finite weights and times are rejected.
    """
    enabled = gc.isenabled()
    gc.disable()  # the parsed document holds no cycles: collecting while it lives frees nothing
    try:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ModelError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("snapshots"), list):
            raise ModelError(f"{path}: expected an object with 'locations' and a 'snapshots' list")
        n = doc.get("locations")
        if type(n) is not int:
            raise ModelError(f"{path}: 'locations' must be an integer, got {n!r}")
        undirected = doc.get("undirected", False)
        if type(undirected) is not bool:
            raise ModelError(f"{path}: 'undirected' must be true or false, got {undirected!r}")
        snapshots = []
        for index, snap in enumerate(doc["snapshots"]):
            try:
                if not isinstance(snap, dict) or type(snap.get("time")) not in (int, float):
                    raise ModelError("expected an object with a numeric 'time'")
                edges = _snapshot_edges(snap)
                model = SpatialModel.undirected(n, *edges) if undirected else SpatialModel(n, *edges)
                t = float(snap["time"])
                if not math.isfinite(t):
                    raise ModelError(f"non-finite time {snap['time']!r}")
            except (TypeError, ValueError, OverflowError) as exc:  # ModelError included
                raise ModelError(f"{path}: snapshot {index}: {exc}") from None
            snapshots.append((t, model))
        try:
            return DynamicalSpatialModel(tuple(snapshots))
        except ModelError as exc:
            raise ModelError(f"{path}: {exc}") from None
    finally:
        if enabled:
            gc.enable()


_COLUMNS = ("src", "dst", "weight")


def _snapshot_edges(snap: dict) -> tuple:
    """A snapshot's (src, dst, weight) from its columns or its "edges" list."""
    if not any(key in snap for key in _COLUMNS):
        entries = snap.get("edges", [])
        if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}):
            _raise_first_bad_edge(entries)
        src, dst, w = zip(*entries) if entries else ((), (), ())
        vector = set(map(type, w)) == {list} and set(map(len, w)) == {2}
        return _edge_columns(src, dst, list(zip(*w)) if vector else [w], entries)
    if "edges" in snap:
        raise ModelError("a snapshot lists its edges as 'edges' or as 'src', 'dst' and 'weight', not both")
    src, dst, weight = (snap.get(key) for key in _COLUMNS)
    for key, column in zip(_COLUMNS, (src, dst, weight)):
        if type(column) is not list:
            raise ModelError(f"'{key}' must be an array, got {column!r}")
    if not (weight and type(weight[0]) is list):
        return _edge_columns(src, dst, [weight], map(list, zip(src, dst, weight)))
    if len(weight) != 2 or type(weight[1]) is not list:
        raise ModelError("a vector 'weight' must be two arrays: the x components, then the y components")
    return _edge_columns(src, dst, weight, ([s, d, list(w)] for s, d, *w in zip(src, dst, *weight)))


def _edge_columns(src: list, dst: list, parts: list, rows: Iterable) -> tuple:
    """One snapshot's edge columns as (src, dst, weight) for ``SpatialModel``.

    ``parts`` holds the weight components: ``[w]`` for scalar weights,
    ``[xs, ys]`` for 2d vectors.  The lengths are checked first, then, in
    bulk, the types (JSON integers for endpoints, numbers for weights: a
    bool is neither) and that every weight is finite.  If a bulk check
    fails, the snapshot's [src, dst, weight] ``rows`` (read only then) are
    checked one at a time, so the message names the first bad edge.
    """
    lengths = [len(src), len(dst), *map(len, parts)]
    if len(set(lengths)) > 1:
        names = ("src", "dst", "weight") if len(parts) == 1 else ("src", "dst", "x weight", "y weight")
        raise ModelError("edge columns differ in length: " + ", ".join(f"{k} {v}" for k, v in zip(names, lengths)))
    if set(map(type, src)) | set(map(type, dst)) <= {int} and set(map(type, chain(*parts))) <= {int, float}:
        weight = np.array(parts, dtype=float)
        if np.isfinite(weight).all():
            return src, dst, weight[0] if len(parts) == 1 else weight.T.copy()
    _raise_first_bad_edge(rows)


def _raise_first_bad_edge(rows: Iterable) -> NoReturn:
    for row in rows:
        _check_edge_json(row)
    raise ModelError("edge weights must be all scalars or all 2d vectors")


def _check_edge_json(entry) -> None:
    if not isinstance(entry, list) or len(entry) != 3:
        raise ModelError(f"edge entry must be [src, dst, weight], got {entry!r}")
    src, dst, w = entry
    if type(src) is not int or type(dst) is not int:
        raise ModelError(f"edge endpoints must be integers, got {entry!r}")
    if isinstance(w, list) and len(w) != 2:
        raise ModelError(f"vector weight must have two components, got {w!r}")
    parts = w if isinstance(w, list) else [w]
    if not all(type(x) in (int, float) for x in parts):  # bool is no number here
        raise ModelError(f"edge [{src}, {dst}] has a weight that is not a number: {w!r}")
    if not all(map(math.isfinite, parts)):
        raise ModelError(f"edge [{src}, {dst}] has non-finite weight {w!r}")
