"""Weighted directed graphs, their time evolution, and route distances.

Locations are integer ids 0..n-1.  Edge weights are either scalars or 2d
vectors (for models embedded in the plane).  Undirected graphs are encoded as
two opposite edges.  A distance function maps edge weights to strictly
positive numbers; a route's distance is the sum of its mapped weights, and
the distance between two locations is the minimum over all routes.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Any, Callable, Iterable

import numpy as np
from scipy.sparse import csgraph, csr_array

Weight = Any  # float or (float, float)


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class SpatialModel:
    location_count: int
    edges: tuple[tuple[int, Weight, int], ...]

    def __post_init__(self):
        if self.location_count <= 0:
            raise ModelError("location_count must be positive")
        seen: set[tuple[int, int]] = set()
        for src, _w, dst in self.edges:
            if not (0 <= src < self.location_count and 0 <= dst < self.location_count):
                raise ModelError(f"edge ({src}, {dst}) out of range for {self.location_count} locations")
            if src == dst:
                raise ModelError(f"self-loop at location {src} is not allowed")
            if (src, dst) in seen:
                raise ModelError(f"duplicate edge for ordered pair ({src}, {dst})")
            seen.add((src, dst))

    @cached_property
    def in_edges(self) -> tuple[tuple[tuple[int, Weight], ...], ...]:
        """Per location, the (source, weight) pairs of incoming edges."""
        acc: list[list[tuple[int, Weight]]] = [[] for _ in range(self.location_count)]
        for src, w, dst in self.edges:
            acc[dst].append((src, w))
        return tuple(tuple(lst) for lst in acc)

    @cached_property
    def out_edges(self) -> tuple[tuple[tuple[int, Weight], ...], ...]:
        acc: list[list[tuple[int, Weight]]] = [[] for _ in range(self.location_count)]
        for src, w, dst in self.edges:
            acc[src].append((dst, w))
        return tuple(tuple(lst) for lst in acc)

    @cached_property
    def _incoming_by_distance(self) -> dict["DistanceFunction", csr_array]:
        return {}

    def incoming_weights(self, f: "DistanceFunction") -> csr_array:
        """Reversed adjacency as CSR: row dst, column src, data f(weight).

        Built once per distance function and kept with the snapshot, so every
        edge weight is mapped and checked for strict positivity once.  Raises
        ModelError if f is not strictly positive on some edge.
        """
        cache = self._incoming_by_distance
        incoming = cache.get(f)
        if incoming is None:
            data = np.array(check_strictly_positive(self, f), dtype=float)
            rows = np.array([dst for _src, _w, dst in self.edges], dtype=np.int64)
            cols = np.array([src for src, _w, _dst in self.edges], dtype=np.int64)
            n = self.location_count
            incoming = csr_array((data, (rows, cols)), shape=(n, n))
            cache[f] = incoming
        return incoming


def build_spatial_model(n: int, edges: Iterable[tuple[int, Weight, int]]) -> SpatialModel:
    return SpatialModel(n, tuple((src, w, dst) for src, w, dst in edges))


def undirected_model(n: int, edges: Iterable[tuple[int, Weight, int]]) -> SpatialModel:
    """Expand each listed edge to both directions."""
    out = []
    for src, w, dst in edges:
        out.append((src, w, dst))
        out.append((dst, w, src))
    return SpatialModel(n, tuple(out))


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


def snapshot_at(dm: DynamicalSpatialModel, t: float) -> SpatialModel:
    return dm.snapshot_at(t)


@dataclass(frozen=True)
class DistanceFunction:
    """Maps edge weights to numbers (``math.inf`` allowed); must be strictly positive."""

    name: str
    map: Callable[[Weight], float]


# Each built-in is made once (``cache``) and every call returns that object,
# so a snapshot's per-distance weights (``incoming_weights``) stay cached
# across monitoring runs and experiment helpers.
@cache
def hop_distance() -> DistanceFunction:
    return DistanceFunction("hop", lambda w: 1)


@cache
def weight_sum_distance() -> DistanceFunction:
    def as_scalar(w: Weight) -> float:
        if isinstance(w, (int, float)):
            return float(w)
        raise ModelError(f"weight-sum distance needs scalar edge weights, got {w!r}")

    return DistanceFunction("weight", as_scalar)


@cache
def euclidean_norm_distance() -> DistanceFunction:
    def norm(w: Weight) -> float:
        if isinstance(w, tuple) and len(w) == 2:
            return math.hypot(w[0], w[1])
        raise ModelError(f"euclidean distance needs 2d vector edge weights, got {w!r}")

    return DistanceFunction("euclid", norm)


BUILTIN_DISTANCES = {
    "hop": hop_distance,
    "weight": weight_sum_distance,
    "euclid": euclidean_norm_distance,
}


def check_strictly_positive(model: SpatialModel, f: DistanceFunction) -> list:
    """Map every edge weight through f and return the results in edge order;
    raises ModelError at the first one that is not strictly positive."""
    mapped = []
    for src, w, dst in model.edges:
        d = f.map(w)
        if not d > 0:
            raise ModelError(
                f"distance function {f.name!r} is not strictly positive on edge "
                f"({src}, {dst}) with weight {w!r}"
            )
        mapped.append(d)
    return mapped


def min_distance_matrix(model: SpatialModel, f: DistanceFunction) -> list[list[float]]:
    """All-pairs minimum route distance: one Dijkstra per source.

    Entry [i][j] is the minimum accumulated distance over routes from i to j,
    zero on the diagonal, infinity for unreachable pairs.  Requires a
    strictly positive distance function (monotone accumulation makes the
    greedy settling order correct).  Searching the forward graph sums each
    route from its source, as route enumeration does.
    """
    return csgraph.dijkstra(model.incoming_weights(f).T, directed=True).tolist()


@dataclass(frozen=True)
class EuclideanPositions:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for i, (x, y) in enumerate(self.points):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ModelError(f"position of location {i} is not finite: ({x}, {y})")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, loc: int) -> tuple[float, float]:
        return self.points[loc]


def euclidean_model(pos: EuclideanPositions, relation: Iterable[tuple[int, int]]) -> SpatialModel:
    """Edges carry the 2d difference vector between the endpoint positions."""
    n = len(pos)
    edges = []
    for a, b in relation:
        ax, ay = pos[a]
        bx, by = pos[b]
        edges.append((a, (ax - bx, ay - by), b))
    return SpatialModel(n, tuple(edges))


def _all_collinear(pts: np.ndarray) -> bool:
    if len(pts) < 3:
        return True
    base = pts[0]
    for i in range(1, len(pts)):
        d = pts[i] - base
        if d @ d > 0:
            direction = d
            break
    else:
        return True
    cross = (pts[:, 0] - base[0]) * direction[1] - (pts[:, 1] - base[1]) * direction[0]
    return bool(np.all(np.abs(cross) == 0.0))


def delaunay_proximity(pos: EuclideanPositions) -> set[tuple[int, int]]:
    """Symmetric Delaunay-triangulation relation over the positions.

    Degenerate inputs are handled deterministically: exactly collinear point
    sets become the chain of consecutive neighbours along the line, and
    cocircular ties are broken by a tiny index-scaled perturbation of the
    coordinates before triangulating, so repeated runs agree bit for bit.
    """
    n = len(pos)
    if n < 2:
        return set()
    if n == 2:
        return {(0, 1), (1, 0)}
    pts = np.asarray(pos.points, dtype=float)
    if _all_collinear(pts):
        base = pts[0]
        direction = None
        for i in range(1, n):
            d = pts[i] - base
            if d @ d > 0:
                direction = d
                break
        if direction is None:
            # all points coincide; perturbation below separates them
            direction = np.array([1.0, 0.0])
        order = np.argsort(pts @ direction, kind="stable")
        rel: set[tuple[int, int]] = set()
        for a, b in zip(order, order[1:]):
            rel.add((int(a), int(b)))
            rel.add((int(b), int(a)))
        return rel

    from scipy.spatial import Delaunay, QhullError

    extent = float(np.max(np.ptp(pts, axis=0)))
    eps = 1e-9 * (extent if extent > 0 else 1.0)
    angles = 2.399963229728653 * np.arange(n)  # golden angle spreads directions
    jitter = eps * (np.arange(n) + 1)[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    try:
        tri = Delaunay(pts + jitter)
    except QhullError as exc:
        raise ModelError(f"triangulation failed: {exc}") from None
    rel = set()
    for simplex in tri.simplices:
        for i in range(3):
            a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
            rel.add((a, b))
            rel.add((b, a))
    return rel


def connectivity_graph(pos: EuclideanPositions, radius: float) -> set[tuple[int, int]]:
    """Pairs within the communication radius, boundary inclusive."""
    if radius < 0:
        raise ModelError("radius must be nonnegative")
    n = len(pos)
    rel: set[tuple[int, int]] = set()
    for i in range(n):
        xi, yi = pos[i]
        for j in range(i + 1, n):
            xj, yj = pos[j]
            if math.hypot(xi - xj, yi - yj) <= radius:
                rel.add((i, j))
                rel.add((j, i))
    return rel


def _weight_to_json(w: Weight):
    if isinstance(w, tuple):
        return [w[0], w[1]]
    return w


def save_model(dm: DynamicalSpatialModel, path: str) -> None:
    doc = {
        "locations": dm.location_count,
        "snapshots": [
            {
                "time": t,
                "edges": [[src, dst, _weight_to_json(w)] for src, w, dst in m.edges],
            }
            for t, m in dm.snapshots
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> DynamicalSpatialModel:
    """Read the dynamic-model JSON: {"locations": n, "snapshots": [...]}.

    Each snapshot lists edges as [src, dst, weight] with weight a number or a
    two-element array; "undirected": true expands every edge to both
    directions.  Non-finite weights and times are rejected.
    """
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
    undirected = bool(doc.get("undirected", False))
    snapshots = []
    for index, snap in enumerate(doc["snapshots"]):
        try:
            if not isinstance(snap, dict) or "time" not in snap:
                raise ModelError("expected an object with a 'time'")
            edges = [_edge_from_json(entry) for entry in snap.get("edges", [])]
            model = undirected_model(n, edges) if undirected else build_spatial_model(n, edges)
            t = float(snap["time"])
            if not math.isfinite(t):
                raise ModelError(f"non-finite time {snap['time']!r}")
        except (TypeError, ValueError) as exc:  # ModelError included
            raise ModelError(f"{path}: snapshot {index}: {exc}") from None
        snapshots.append((t, model))
    return DynamicalSpatialModel(tuple(snapshots))


def _edge_from_json(entry) -> tuple[int, Weight, int]:
    if not isinstance(entry, list) or len(entry) != 3:
        raise ModelError(f"edge entry must be [src, dst, weight], got {entry!r}")
    src, dst, w = entry
    if isinstance(w, list) and len(w) != 2:
        raise ModelError(f"vector weight must have two components, got {w!r}")
    weight = (float(w[0]), float(w[1])) if isinstance(w, list) else float(w)
    if not all(map(math.isfinite, weight if isinstance(weight, tuple) else (weight,))):
        raise ModelError(f"edge [{src}, {dst}] has non-finite weight {w!r}")
    return int(src), weight, int(dst)
