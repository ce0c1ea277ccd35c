import gc
import itertools
import json
import math
import random
import warnings

import numpy as np
import pytest

from conftest import connectivity_graph, delaunay_proximity, weighted9_model
from strelmon.space import (
    DynamicalSpatialModel,
    EuclideanPositions,
    ModelError,
    SpatialModel,
    build_spatial_model,
    check_finite_positions,
    check_strictly_positive,
    delaunay_edges,
    euclidean_model,
    euclidean_norm_distance,
    hop_distance,
    load_model,
    min_distance_matrix,
    radius_edges,
    save_model,
    undirected_model,
    weight_sum_distance,
)


def test_build_validation():
    m = build_spatial_model(2, [])
    assert (m.src.tolist(), m.dst.tolist(), m.weight.tolist()) == ([], [], [])
    with pytest.raises(ModelError, match=r"\(0, 1\)"):
        build_spatial_model(2, [(0, 1.0, 1), (0, 2.0, 1)])
    with pytest.raises(ModelError):
        build_spatial_model(2, [(0, 1.0, 2)])
    with pytest.raises(ModelError):
        build_spatial_model(2, [(0, 1.0, 0)])


@pytest.mark.parametrize(
    "edges, distance, message",
    [
        # building: with several bad edges, the first one in edge order is named
        ([(0, 1.0, 1), (0, 1.0, 3), (2, 1.0, 2), (4, 1.0, 0)], None,
         r"edge \(0, 3\) out of range for 3 locations"),
        ([(0, 1.0, 1), (2, 1.0, 2), (1, 1.0, 1), (0, 1.0, 1)], None,
         r"self-loop at location 2 is not allowed"),
        ([(0, 1.0, 1), (1, 1.0, 2), (1, 2.0, 2), (0, 3.0, 1)], None,
         r"duplicate edge for ordered pair \(1, 2\)"),
        ([(0, 1.0, 1), (1, 1.0, 1), (0, 1.0, 1), (0, 1.0, 7)], None,
         r"self-loop at location 1 is not allowed"),
        ([(0, 1.0, 1), (0, 2.0, 1), (2, 1.0, 2), (-1, 1.0, 0)], None,
         r"duplicate edge for ordered pair \(0, 1\)"),
        ([(0, 1.0, 1), (3, 1.0, 3), (0, 1.0, 1)], None, r"edge \(3, 3\) out of range for 3 locations"),
        ([(0, 1.0, 1), (1, (1.0, 2.0), 2)], None, r"edge weights must be all scalars or all 2d vectors"),
        # mapping: the first edge where the distance is not strictly positive, with its weight
        ([(0, 1.0, 1), (1, 0.0, 2), (2, -1.0, 0)], weight_sum_distance,
         r"distance function 'weight' is not strictly positive on edge \(1, 2\) with weight 0\.0"),
        ([(0, (1.0, 0.0), 1), (1, (2.0, -1.0), 2)], weight_sum_distance,
         r"distance function 'weight' is not defined on edge \(0, 1\) with weight \(1\.0, 0\.0\)"),
        ([(0, (3.0, 4.0), 1), (1, (0.0, 0.0), 2), (2, (0.0, 0.0), 0)], euclidean_norm_distance,
         r"distance function 'euclid' is not strictly positive on edge \(1, 2\) with weight "
         r"\(0\.0, 0\.0\)"),
        ([(0, 1.0, 1), (1, 2.0, 2)], euclidean_norm_distance,
         r"distance function 'euclid' is not defined on edge \(0, 1\) with weight 1\.0"),
        ([(0, 0.0, 1), (1, -1.0, 2)], hop_distance, None),  # hop ignores the weights
        ([(0, (0.0, 0.0), 1)], hop_distance, None),
    ],
)
def test_first_offending_edge_is_named(edges, distance, message):
    if distance is None:
        with pytest.raises(ModelError, match=f"^{message}$"):
            build_spatial_model(3, edges)
        return
    m = build_spatial_model(3, edges)
    if message is None:
        assert check_strictly_positive(m, distance()).tolist() == [1.0] * len(edges)
    else:
        with pytest.raises(ModelError, match=f"^{message}$"):
            check_strictly_positive(m, distance())


def test_weighted9_weights():
    m = weighted9_model()
    edges = edge_triples(m)
    assert (1, 5.0, 6) in edges  # the marked symmetric pair
    assert (6, 5.0, 1) in edges


def edge_triples(model):
    """The snapshot's edges as (src, weight, dst) in edge order, vector
    weights as pairs."""
    weights = [tuple(w) if isinstance(w, list) else w for w in model.weight.tolist()]
    return list(zip(model.src.tolist(), weights, model.dst.tolist()))


def out_steps(model, f):
    """Per location, (destination, f-distance) of each outgoing edge."""
    out = [[] for _ in range(model.location_count)]
    for src, dst, step in zip(model.src.tolist(), model.dst.tolist(), f.map(model.weight).tolist()):
        out[src].append((dst, step))
    return out


def exhaustive_min_distance(model, f, src, dst):
    """Minimum accumulated distance over simple paths (positive weights make
    any optimal route simple)."""
    best = math.inf
    out = out_steps(model, f)

    def visit(loc, dist, seen):
        nonlocal best
        if loc == dst:
            best = min(best, dist)
            return
        for nxt, step in out[loc]:
            if nxt not in seen:
                visit(nxt, dist + step, seen | {nxt})

    visit(src, 0, {src})
    return 0 if src == dst else best


def test_min_distance_weighted9():
    m = weighted9_model()
    f = weight_sum_distance()
    dist = min_distance_matrix(m, f)
    assert dist[0][4] == 6.0  # 2 + 1 + 3 beats 2 + 5 + 2
    for i in range(9):
        assert dist[i][i] == 0.0
    for i in range(9):
        for j in range(9):
            assert dist[i][j] == exhaustive_min_distance(m, f, i, j)


def test_min_distance_matches_enumeration_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(pairs)
        edges = [(a, rng.choice([0.1, 0.2, 0.3, 0.5, 1.0, 2.5]), b) for a, b in pairs[: rng.randint(0, 10)]]
        m = build_spatial_model(n, edges)
        f = weight_sum_distance()
        dist = min_distance_matrix(m, f)
        for i in range(n):
            for j in range(n):
                assert dist[i][j] == exhaustive_min_distance(m, f, i, j)


def bfs_hops(model, src):
    out = {src: 0}
    frontier = [src]
    adjacency = out_steps(model, hop_distance())
    while frontier:
        nxt = []
        for u in frontier:
            for v, _step in adjacency[u]:
                if v not in out:
                    out[v] = out[u] + 1
                    nxt.append(v)
        frontier = nxt
    return out


def test_min_distance_hop_is_bfs():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 7)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(pairs)
        m = build_spatial_model(n, [(a, 1.0, b) for a, b in pairs[: rng.randint(0, 12)]])
        dist = min_distance_matrix(m, hop_distance())
        for src in range(n):
            reach = bfs_hops(m, src)
            for dst in range(n):
                assert dist[src][dst] == reach.get(dst, math.inf)


def test_min_distance_triangle_and_symmetry():
    m = weighted9_model()
    dist = min_distance_matrix(m, weight_sum_distance())
    n = m.location_count
    for i, j, k in itertools.product(range(n), repeat=3):
        assert dist[i][k] <= dist[i][j] + dist[j][k]
    for i in range(n):
        for j in range(n):
            assert dist[i][j] == dist[j][i]


def test_min_distance_limit_keeps_pairs_within_it():
    """With a limit the searches stop past it: a pair at most the limit
    apart, one exactly at it included, keeps its distance bit for bit, and
    a farther pair reads infinity."""
    probe = build_spatial_model(4, [(0, 0.1, 1), (1, 0.2, 2), (2, 0.5, 3)])
    f = weight_sum_distance()
    full = min_distance_matrix(probe, f)
    assert full[0][2] == 0.1 + 0.2 != 0.3
    limited = min_distance_matrix(probe, f, limit=0.1 + 0.2)
    assert limited[0].tolist() == [0.0, 0.1, 0.1 + 0.2, math.inf]
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 8)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(pairs)
        m = build_spatial_model(n, [(a, rng.choice([0.1, 0.3, 1.0, math.inf]), b) for a, b in pairs[:12]])
        full = min_distance_matrix(m, f)
        for limit in (0.0, 0.3, 0.4, 1.0, 2.5, math.inf):
            want = [[d if d <= limit else math.inf for d in row] for row in full.tolist()]
            assert min_distance_matrix(m, f, limit=limit).tolist() == want


def test_symmetric_edge_sets(tmp_path):
    """A snapshot is symmetric when the reverse of every edge is an edge,
    whatever the weights of the two directions."""
    assert undirected_model(3, [(0, 1.0, 1), (1, 2.0, 2)]).symmetric
    assert build_spatial_model(1, []).symmetric and build_spatial_model(3, []).symmetric
    assert build_spatial_model(2, [(0, 1.0, 1), (1, 3.0, 0)]).symmetric
    assert not build_spatial_model(2, [(0, 1.0, 1)]).symmetric
    assert not build_spatial_model(3, [(0, 1.0, 1), (1, 1.0, 0), (1, 1.0, 2)]).symmetric
    # strongly connected, yet no edge's reverse is an edge
    assert not build_spatial_model(3, [(0, 1.0, 1), (1, 1.0, 2), (2, 1.0, 0)]).symmetric
    path = tmp_path / "model.json"
    path.write_text(
        '{"locations": 3, "snapshots": ['
        '{"time": 0, "edges": [[0, 1, 1.0], [2, 1, 0.5], [1, 0, 1.0], [1, 2, 0.5]]}, '
        '{"time": 1, "edges": [[0, 1, 1.0], [1, 2, 0.5], [1, 0, 1.0]]}]}'
    )
    both, one_way = (m for _, m in load_model(str(path)).snapshots)
    assert both.symmetric and not one_way.symmetric


def test_min_distance_rejects_nonpositive():
    m = build_spatial_model(2, [(0, 0.0, 1)])
    with pytest.raises(ModelError):
        min_distance_matrix(m, weight_sum_distance())


def test_snapshot_at():
    m0 = build_spatial_model(2, [])
    m1 = build_spatial_model(2, [(0, 1.0, 1)])
    single = DynamicalSpatialModel.static(m0)
    assert single.snapshot_at(5.0) is m0
    dm = DynamicalSpatialModel(((0.0, m0), (10.0, m1)))
    assert dm.snapshot_at(9.999) is m0
    assert dm.snapshot_at(10.0) is m1  # left-closed steps
    with pytest.raises(ModelError):
        dm.snapshot_at(-1.0)
    with pytest.raises(ModelError):
        DynamicalSpatialModel(((0.0, m0), (0.0, m1)))


def test_snapshots_must_agree_on_location_count():
    with pytest.raises(ModelError, match=r"snapshots disagree on location count: \[2, 3\]"):
        DynamicalSpatialModel(((0.0, build_spatial_model(2, [])), (1.0, build_spatial_model(3, []))))

def test_euclidean_model():
    pos = EuclideanPositions(((0.0, 0.0), (3.0, 4.0)))
    m = euclidean_model(pos, [(0, 1)])
    assert edge_triples(m) == [(0, (-3.0, -4.0), 1)]
    f = euclidean_norm_distance()
    assert f.map(m.weight).tolist() == [5.0]

    shifted = EuclideanPositions(((10.0, 10.0), (13.0, 14.0)))
    m2 = euclidean_model(shifted, [(0, 1)])
    assert edge_triples(m2) == edge_triples(m)  # translation leaves difference vectors alone


def test_euclidean_zero_vector_rejected_with_norm_distance():
    pos = EuclideanPositions(((1.0, 1.0), (1.0, 1.0)))
    m = euclidean_model(pos, [(0, 1)])
    with pytest.raises(ModelError):
        min_distance_matrix(m, euclidean_norm_distance())


def undirected_pairs(rel):
    return {(a, b) for a, b in rel if a < b}


def circumcircle(p, q, r):
    ax, ay = p
    bx, by = q
    cx, cy = r
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0:
        return None
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    rad = math.hypot(ax - ux, ay - uy)
    return (ux, uy), rad


def brute_force_delaunay(points):
    """Edge (i, j) is Delaunay when some circle through i and j is empty;
    for points in general position it is enough to scan circumcircles of
    point triples and, for hull edges, the diametral circle."""
    n = len(points)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            witness = False
            # diametral circle
            cx = (points[i][0] + points[j][0]) / 2
            cy = (points[i][1] + points[j][1]) / 2
            rad = math.hypot(points[i][0] - cx, points[i][1] - cy)
            if all(
                math.hypot(points[k][0] - cx, points[k][1] - cy) >= rad - 1e-12
                for k in range(n)
                if k not in (i, j)
            ):
                witness = True
            for k in range(n):
                if witness or k in (i, j):
                    continue
                cc = circumcircle(points[i], points[j], points[k])
                if cc is None:
                    continue
                (ux, uy), rad = cc
                if all(
                    math.hypot(points[m][0] - ux, points[m][1] - uy) >= rad - 1e-12
                    for m in range(n)
                    if m not in (i, j, k)
                ):
                    witness = True
            if witness:
                edges.add((i, j))
    return edges


def test_delaunay_triangle():
    pos = EuclideanPositions(((0.0, 0.0), (4.0, 0.0), (1.0, 3.0)))
    rel = delaunay_proximity(pos)
    assert undirected_pairs(rel) == {(0, 1), (0, 2), (1, 2)}


def test_delaunay_unit_square():
    pos = EuclideanPositions(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    pairs = undirected_pairs(delaunay_proximity(pos))
    sides = {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert sides <= pairs
    diagonals = pairs - sides
    assert len(diagonals) == 1 and diagonals <= {(0, 2), (1, 3)}
    # deterministic across calls
    assert pairs == undirected_pairs(delaunay_proximity(pos))


def test_delaunay_collinear_chain():
    pos = EuclideanPositions(((0.0, 0.0), (4.0, 0.0), (1.0, 0.0), (2.5, 0.0)))
    pairs = undirected_pairs(delaunay_proximity(pos))
    assert pairs == {(0, 2), (2, 3), (1, 3)}  # consecutive along the line


def test_delaunay_small_inputs():
    assert delaunay_proximity(EuclideanPositions(())) == set()
    assert delaunay_proximity(EuclideanPositions(((1.0, 2.0),))) == set()
    assert delaunay_proximity(EuclideanPositions(((0.0, 0.0), (1.0, 1.0)))) == {(0, 1), (1, 0)}


def test_delaunay_matches_brute_force_on_random_points():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(3, 8)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        pairs = undirected_pairs(delaunay_proximity(EuclideanPositions(tuple(pts))))
        assert pairs == brute_force_delaunay(pts)


def set_delaunay_proximity_reference(pos: EuclideanPositions) -> set[tuple[int, int]]:
    """``delaunay_proximity`` as it was, building its set pair by pair."""
    from strelmon.space import _line_direction

    n = len(pos)
    if n < 2:
        return set()
    pts = np.asarray(pos.points, dtype=float)
    direction = _line_direction(pts)
    if direction is not None:
        order = np.argsort(pts @ direction, kind="stable").tolist()
        rel = set(zip(order, order[1:]))
        return rel | {(b, a) for a, b in rel}

    from scipy.spatial import Delaunay, QhullError

    extent = float(np.max(np.ptp(pts, axis=0)))
    eps = 1e-9 * (extent if extent > 0 else 1.0)
    angles = 2.399963229728653 * np.arange(n)  # golden angle spreads directions
    jitter = eps * (np.arange(n) + 1)[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    try:
        tri = Delaunay(pts + jitter)
    except QhullError as exc:
        raise ModelError(f"triangulation failed: {exc}") from None
    rel = {(s[i], s[(i + 1) % 3]) for s in tri.simplices.tolist() for i in range(3)}
    return rel | {(b, a) for a, b in rel}


def _point_sets():
    """Seeded position sets: uniform, on a coarse lattice (cocircular ties),
    collinear along a slanted line, and with every point coincident."""
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(0, 60)
        kind = seed % 4
        if kind == 0:
            yield tuple((rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n))
        elif kind == 1:
            yield tuple((float(rng.randint(0, 4)), float(rng.randint(0, 4))) for _ in range(n))
        elif kind == 2:
            yield tuple((x, 2.0 * x - 1.0) for x in (float(rng.randint(-9, 9)) for _ in range(n)))
        else:
            yield ((1.5, -2.0),) * n


def _sorted_pairs(a, b):
    keys = a * (max(a.max(initial=0), b.max(initial=0)) + 1) + b
    return a.dtype == b.dtype == np.int64 and bool((np.diff(keys) > 0).all())


def test_delaunay_edges_equal_the_set_reference():
    """The kernel's sorted pairs are the set the pair-by-pair build made."""
    for pts in _point_sets():
        pos = EuclideanPositions(pts)
        want = set_delaunay_proximity_reference(pos)
        a, b = delaunay_edges(np.array(pts, dtype=float).reshape(-1, 2))
        assert _sorted_pairs(a, b) and list(zip(a.tolist(), b.tolist())) == sorted(want)
        assert delaunay_proximity(pos) == want


@pytest.mark.parametrize("pts", [
    [[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308], [0.0, -1e308], [0.0, 0.0]],
    [[-1e308, 0.0], [1e308, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [math.inf, 0.0], [0.0, 1.0]],
    [[0.0, 0.0], [1.0, math.nan], [0.0, 1.0]],
], ids=["overflowing-span", "overflowing-line", "inf", "nan"])
def test_delaunay_edges_refuse_a_span_that_is_not_finite(pts):
    """Points whose coordinate span overflows a float, or that are not
    finite, are a one-line ModelError, with no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError) as err:
            delaunay_edges(np.array(pts))
    assert str(err.value).startswith("point coordinates do not span a finite box: ")
    assert "\n" not in str(err.value)
    # the largest finite span triangulates
    assert len(delaunay_edges(np.array([[0.0, 0.0], [1.7e308, 0.0], [0.0, 1.7e308]]))[0]) == 6

def test_radius_edges_are_the_sorted_pairs_below_the_diagonal():
    for pts in _point_sets():
        pos = EuclideanPositions(pts)
        for radius in (0.0, 1.0, 3.0, 100.0):
            want = loop_connectivity_graph_reference(pos, radius)
            i, j = radius_edges(np.array(pts, dtype=float).reshape(-1, 2), radius)
            assert _sorted_pairs(i, j) and list(zip(i.tolist(), j.tolist())) == sorted((a, b) for a, b in want if a < b)
            assert connectivity_graph(pos, radius) == want


def test_check_finite_positions_says_what_euclidean_positions_says():
    for points in (((0.0, 0.0), (math.inf, 1.0)), ((2.5, math.nan),), ((0.0, 1.0), (1.0, 2.0), (3.0, -math.inf))):
        with pytest.raises(ModelError) as want:
            EuclideanPositions(points)
        with pytest.raises(ModelError) as got:
            check_finite_positions(np.array(points))
        assert str(got.value) == str(want.value) and "is not finite" in str(got.value)
    check_finite_positions(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        EuclideanPositions(((1.0, 2.0, 3.0, 4.0),))


def loop_connectivity_graph_reference(pos: EuclideanPositions, radius: float) -> set[tuple[int, int]]:
    """``connectivity_graph`` as the double loop over pairs that it replaced."""
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


def test_connectivity_graph_equals_the_double_loop():
    """Seeded position sets, a third of them on a quarter lattice so that
    pairs lie exactly at the radius, give the double loop's pairs."""
    at_radius = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 60)
        if seed % 3 == 0:
            pts = tuple((rng.randint(0, 24) / 4, rng.randint(0, 24) / 4) for _ in range(n))
            radius = rng.choice([0.0, 0.25, 1.25, 2.5, 3.75, 5.0])
        else:
            pts = tuple((rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n))
            radius = rng.uniform(0, 6)
        pos = EuclideanPositions(pts)
        want = loop_connectivity_graph_reference(pos, radius)
        assert connectivity_graph(pos, radius) == want, seed
        at_radius += sum(math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1]) == radius for a, b in want)
    assert at_radius > 100


def test_connectivity_graph_at_the_radius_and_one_ulp_either_side():
    for (dx, dy), radius in [((3.0, 4.0), 5.0), ((0.3, 0.4), 0.5), ((1e-3, 0.0), 1e-3), ((5e5, 12e5), 13e5)]:
        for x in (dx, math.nextafter(dx, 0.0), math.nextafter(dx, math.inf)):
            for r in (radius, math.nextafter(radius, 0.0), math.nextafter(radius, math.inf)):
                pos = EuclideanPositions(((0.0, 0.0), (x, dy), (x, -dy)))
                want = loop_connectivity_graph_reference(pos, r)
                assert connectivity_graph(pos, r) == want, (x, dy, r)
        pos = EuclideanPositions(((0.0, 0.0), (dx, dy)))
        assert connectivity_graph(pos, radius) == {(0, 1), (1, 0)}
        assert connectivity_graph(pos, math.nextafter(math.hypot(dx, dy), 0.0)) == set()


def test_connectivity_graph_where_np_hypot_and_math_hypot_differ():
    """With either hypot's value as the radius, the pair is decided as
    ``math.hypot`` decides it."""
    rng = random.Random(5)
    vectors = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(20000)]
    distances = np.hypot(*np.array(vectors).T).tolist()
    differing = [(v, d) for v, d in zip(vectors, distances) if d != math.hypot(*v)][:20]
    if not differing:
        pytest.skip("np.hypot equals math.hypot on every drawn vector here")
    for (x, y), d in differing:
        pos = EuclideanPositions(((0.0, 0.0), (x, y)))
        for radius in (d, math.hypot(x, y)):
            assert connectivity_graph(pos, radius) == loop_connectivity_graph_reference(pos, radius)


def test_connectivity_graph():
    pos = EuclideanPositions(((0.0, 0.0), (3.0, 4.0), (1.0, 0.0)))
    assert connectivity_graph(pos, 0.0) == set()
    rel = connectivity_graph(pos, 5.0)
    assert (0, 1) in rel and (1, 0) in rel  # boundary inclusive at distance 5
    assert (0, 2) in rel
    rng = random.Random(2)
    pts = EuclideanPositions(tuple((rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(10)))
    previous = set()
    for radius in (0.5, 1.0, 2.0, 4.0, 8.0):
        current = connectivity_graph(pts, radius)
        assert previous <= current  # monotone in the radius
        for a, b in current:
            ax, ay = pts[a]
            bx, by = pts[b]
            assert math.hypot(ax - bx, ay - by) <= radius
        previous = current


def test_model_json_roundtrip(tmp_path):
    # one snapshot's weights are all scalars or all vectors, so each kind gets one
    m0 = build_spatial_model(3, [(0, 1.5, 1), (1, 0.25, 2)])
    m1 = build_spatial_model(3, [(2, (3.0, 0.5), 0), (1, (2.0, -1.0), 2)])
    dm = DynamicalSpatialModel(((0.0, m0), (2.5, m1)))
    path = tmp_path / "model.json"
    save_model(dm, str(path))
    back = load_model(str(path))
    assert back.snapshot_times() == [0.0, 2.5]
    assert edge_triples(back.snapshots[0][1]) == edge_triples(m0)
    assert edge_triples(back.snapshots[1][1]) == edge_triples(m1)

    # seeded random models, written by save_model and by hand in either form
    rng = random.Random(3131)
    for _ in range(200):
        n, undirected = rng.randint(1, 6), rng.random() < 0.3
        build = SpatialModel.undirected if undirected else SpatialModel
        saved, by_edges, edge_form, column_form, t = [], [], [], [], rng.choice([-2.5, 0, 0.1])
        for _ in range(rng.randint(1, 4)):
            vector = rng.random() < 0.5
            pairs = [(a, b) for a in range(n) for b in range(n) if (a < b if undirected else a != b)]
            chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
            src, dst = [a for a, _ in chosen], [b for _, b in chosen]
            w = [[roundtrip_weight(rng), roundtrip_weight(rng)] if vector else roundtrip_weight(rng) for _ in src]
            weight = np.array(w, dtype=float).reshape((len(src), 2) if vector else len(src))
            saved.append((t, build(n, src, dst, weight)))
            # an empty "edges" list has no weight kind: it reads back as scalar weights
            by_edges.append((t, build(n, src, dst, weight if src else [])))
            edge_form.append({"time": t, "edges": [list(e) for e in zip(src, dst, w)]})
            column_form.append({"time": t, "src": src, "dst": dst, "weight": weight.T.tolist()})
            t += rng.choice([0.5, 1, 1e-3])
        dm = DynamicalSpatialModel(tuple(saved))
        save_model(dm, str(path))
        assert_same_model(load_model(str(path)), dm)
        for snapshots, want in ((column_form, dm), (edge_form, DynamicalSpatialModel(tuple(by_edges)))):
            path.write_text(json.dumps({"locations": n, "undirected": undirected, "snapshots": snapshots}))
            assert_same_model(load_model(str(path)), want)


def roundtrip_weight(rng) -> float:
    return rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, -0.1, 3, rng.uniform(-1e3, 1e3)])


def assert_same_model(got, want):
    assert got.snapshot_times() == want.snapshot_times()
    assert got.location_count == want.location_count
    for (_, a), (_, b) in zip(got.snapshots, want.snapshots, strict=True):
        for key in ("src", "dst", "weight"):
            x, y = getattr(a, key), getattr(b, key)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), key


def unchecked_save_model_reference(dm: DynamicalSpatialModel, path: str) -> None:
    """``save_model`` as it wrote any weight and time, ``Infinity`` and ``NaN`` included."""
    lines = ",\n".join(
        json.dumps({"time": t, "src": m.src.tolist(), "dst": m.dst.tolist(), "weight": m.weight.T.tolist()})
        for t, m in dm.snapshots
    )
    with open(path, "w") as fh:
        fh.write(f'{{"locations": {dm.location_count}, "snapshots": [\n{lines}\n]}}\n')


def test_save_model_refuses_a_non_finite_weight(tmp_path):
    """``SpatialModel`` takes an infinite weight, which ``load_model`` rejects:
    ``save_model`` raises the loader's error and writes no file."""
    path = tmp_path / "model.json"
    dm = DynamicalSpatialModel.static(build_spatial_model(2, [(0, math.inf, 1)]))
    with pytest.raises(ModelError) as refused:
        save_model(dm, str(path))
    assert str(refused.value) == f"{path}: snapshot 0: edge [0, 1] has non-finite weight inf"
    assert not path.exists()


def test_every_model_save_model_accepts_loads_back_equal(tmp_path):
    """Seeded models with non-finite weights and times among finite ones:
    each one ``save_model`` writes loads back equal, and each one it refuses
    is refused with the error ``load_model`` gives on the file the unchecked
    writer makes of it, with no file left."""
    path = tmp_path / "model.json"
    rng = random.Random(3232)
    draw = lambda: rng.choice([math.inf, -math.inf, math.nan]) if rng.random() < 0.05 else roundtrip_weight(rng)
    refused = 0
    for _ in range(300):
        n, snapshots, t = rng.randint(2, 5), [], rng.choice([-math.inf, -1.0, 0, 0.5])
        for _ in range(rng.randint(1, 3)):
            vector, pairs = rng.random() < 0.5, [(a, b) for a in range(n) for b in range(n) if a != b]
            chosen = rng.sample(pairs, rng.randint(0, min(4, len(pairs))))
            w = [[draw(), draw()] if vector else draw() for _ in chosen]
            weight = np.array(w, dtype=float).reshape((len(chosen), 2) if vector else len(chosen))
            snapshots.append((t, SpatialModel(n, [a for a, _ in chosen], [b for _, b in chosen], weight)))
            t = rng.choice([t + 1.5, math.inf]) if rng.random() < 0.9 else math.nan
        if not all(a < b for (a, _), (b, _) in zip(snapshots, snapshots[1:])):
            continue
        dm = DynamicalSpatialModel(tuple(snapshots))
        path.unlink(missing_ok=True)
        try:
            save_model(dm, str(path))
        except ModelError as exc:
            refused += 1
            assert not path.exists()
            unchecked_save_model_reference(dm, str(path))
            with pytest.raises(ModelError) as rejected:
                load_model(str(path))
            assert str(rejected.value) == str(exc)
        else:
            assert_same_model(load_model(str(path)), dm)
    assert 50 < refused < 250


def test_model_json_undirected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"locations": 2, "undirected": true, '
        '"snapshots": [{"time": 0, "edges": [[0, 1, 2.5]]}]}'
    )
    m = load_model(str(path)).snapshot_at(0.0)
    assert set(edge_triples(m)) == {(0, 2.5, 1), (1, 2.5, 0)}


def test_model_json_malformed(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"locations": 2}')
    with pytest.raises(ModelError):
        load_model(str(path))


def reference_load_model(path: str) -> DynamicalSpatialModel:
    # The replaced reader, verbatim but for the names of the replaced
    # helpers it calls, and ``SpatialModel.undirected`` written out with the
    # replaced ``both_directions``.
    """Read the dynamic-model JSON: {"locations": n, "snapshots": [...]}.

    Each snapshot lists edges as [src, dst, weight]: src and dst are JSON
    integers, weight a number (not a bool) or a two-element array of them,
    one kind per snapshot.  "undirected": true expands every edge to both
    directions.  Non-finite weights and times are rejected.
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
                edges = reference_edges_from_json(snap.get("edges", []))
                model = SpatialModel(n, *reference_both_directions(*edges)) if undirected else SpatialModel(n, *edges)
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


def reference_both_directions(src, dst, weight) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge arrays of every listed edge followed by its reverse, of the same weight.
    (``SpatialModel.undirected`` called this before it took int64 endpoints.)"""
    pairs = np.column_stack((src, dst))
    return pairs.ravel(), pairs[:, ::-1].ravel(), np.repeat(np.asarray(weight, dtype=float), 2, axis=0)


def reference_edges_from_json(entries) -> tuple:
    """A snapshot's [src, dst, weight] entries as (src, dst, weight) arrays.
    Types are checked in bulk, then one entry at a time to name a bad one."""
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}:
        src, dst, w = zip(*entries) if entries else ((), (), ())
        kinds = set(map(type, w))
        if kinds == {list} and set(map(len, w)) == {2}:
            kinds = set(map(type, itertools.chain.from_iterable(w)))
        if set(map(type, src + dst)) <= {int} and kinds <= {int, float}:
            weight = np.array(w, dtype=float)
            if np.isfinite(weight).all():
                return src, dst, weight
    for entry in entries:
        reference_check_edge_json(entry)
    raise ModelError("edge weights must be all scalars or all 2d vectors")


def reference_check_edge_json(entry) -> None:
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


# Cells of a mutated edges-form document.  1e400 is written as that literal,
# which JSON reads as an infinite float; every other value as json.dumps writes it.
_HUGE = "<1e400>"
_ODD_VALUES = (math.nan, math.inf, -math.inf, _HUGE, True, False, None, "1", "a", [], {}, 2.5, -1,
               2**63, 2**64, -2**63 - 1, 10**400)


def mutated_edge_document(rng: random.Random) -> dict:
    """A random edges-form model document, then up to three random faults:
    odd cells, vector weights of the wrong length, entries dropped or
    repeated, fields dropped or retyped, endpoints out of range."""
    n = rng.randint(1, 5)
    doc: dict = {"locations": n, "snapshots": []}
    if rng.random() < 0.3:
        doc["undirected"] = rng.random() < 0.5
    t = rng.choice([0, 0.5, -1])
    for _ in range(rng.randint(1, 3)):
        vector = rng.random() < 0.5
        pairs = [(a, b) for a in range(n) for b in range(n) if a < b or (a != b and not doc.get("undirected"))]
        edges = [[a, b, [rng.uniform(-5, 5), rng.choice([1, 0.25, -3])] if vector else rng.choice([1, 2.5, 0.5, 7])]
                 for a, b in rng.sample(pairs, rng.randint(0, len(pairs)))]
        doc["snapshots"].append({"time": t, "edges": edges})
        t += rng.choice([1, 0.5, 2])
    for _ in range(rng.randint(0, 3)):
        snapshots = doc.get("snapshots")
        if not (isinstance(snapshots, list) and snapshots and isinstance(snap := rng.choice(snapshots), dict)):
            break
        edges = snap.get("edges") if isinstance(snap.get("edges"), list) else []
        entries = [entry for entry in edges if isinstance(entry, list) and len(entry) == 3]
        fault = rng.randrange(9)
        if fault == 0 and entries:  # an odd cell: an endpoint, a weight or a vector component
            entry = rng.choice(entries)
            if isinstance(entry[2], list) and rng.random() < 0.5:
                entry[2][rng.randrange(2)] = rng.choice(_ODD_VALUES)
            else:
                entry[rng.randrange(3)] = rng.choice(_ODD_VALUES)
        elif fault == 1 and entries:  # a vector weight of 1 or 3 components, or a vector among scalars
            entry = rng.choice(entries)
            w = entry[2] if isinstance(entry[2], list) else [entry[2]]
            entry[2] = rng.choice([w[:1], w[:1] * 3, [1.0, 2.0]])
        elif fault == 2 and edges:  # an entry dropped or repeated
            i = rng.randrange(len(edges))
            edges.insert(i, edges[i]) if rng.random() < 0.5 else edges.pop(i)
        elif fault == 3 and edges:  # an entry retyped or of the wrong length
            i = rng.randrange(len(edges))
            shorter_or_longer = [edges[i][:2], edges[i] + [1]] if isinstance(edges[i], list) else []
            edges[i] = rng.choice(shorter_or_longer + [5, None, "e", {"src": 0}])
        elif fault == 4 and entries:  # an endpoint out of range or past the int64 range
            rng.choice(entries)[rng.randrange(2)] = rng.choice([n, -1, n + 7, 2**63, -2**63 - 1, 2**64])
        elif fault == 5:  # a snapshot field dropped or retyped
            key = rng.choice(["time", "edges"])
            if rng.random() < 0.4:
                snap.pop(key, None)
            else:
                snap[key] = rng.choice(_ODD_VALUES + ("", [[0, 1, 1.0]]))
        elif fault == 6:  # a document field dropped or retyped
            key = rng.choice(["locations", "undirected", "snapshots"])
            if rng.random() < 0.4:
                doc.pop(key, None)
            else:
                doc[key] = rng.choice(_ODD_VALUES + (0, 3.0, "x"))
        elif fault == 7:  # a snapshot retyped, or the times out of order
            i = rng.randrange(len(doc["snapshots"]))
            if rng.random() < 0.5:
                doc["snapshots"][i] = rng.choice([None, [], 1, "s"])
            else:
                snap["time"] = rng.choice([-1, 0, 1, 2.5, math.nan])
        elif fault == 8:  # weights of the other kind throughout
            for entry in entries:
                entry[2] = entry[2][0] if isinstance(entry[2], list) else [entry[2], 1.0]
    return doc


def test_both_model_forms_load_as_the_replaced_edge_list_reader(tmp_path):
    """Every edges-form document loads to the same model as with the
    replaced reader, bit for bit, or fails with the same ModelError text.

    One change is meant: with "undirected": true the replaced reader let
    numpy cast an endpoint outside the int64 range (a float or uint64 array
    cast to int64) and named a wrapped endpoint, at times after a
    RuntimeWarning; now that snapshot is the OverflowError a directed one
    gives."""
    rng = random.Random(31031)
    path = str(tmp_path / "model.json")
    loaded, messages, overflows = 0, set(), 0
    for _ in range(1500):
        doc = mutated_edge_document(rng)
        with open(path, "w") as fh:
            fh.write(json.dumps(doc).replace(json.dumps(_HUGE), "1e400"))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the cast above
                want = reference_load_model(path)
        except ModelError as exc:
            want = str(exc)
        try:
            got = load_model(path)
        except ModelError as exc:
            got = str(exc)
        if isinstance(want, str):
            prefix = want.partition(": snapshot ")[2].partition(": ")[0]
            if got != want and doc.get("undirected") is True and got == (
                    f"{path}: snapshot {prefix}: Python int too large to convert to C long"):
                snap = doc["snapshots"][int(prefix)]
                assert any(not -2**63 <= x < 2**63 for e in snap["edges"] for x in e[:2] if type(x) is int)
                overflows += 1
                continue
            assert got == want, doc
            messages.add(prefix and want.partition(": snapshot ")[2].partition(": ")[2] or want[len(path):])
        else:
            assert not isinstance(got, str), (got, doc)
            assert_same_model(got, want)
            loaded += 1
    assert loaded > 300 and len(messages) > 50 and overflows, (loaded, len(messages), overflows)
