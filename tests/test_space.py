import itertools
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
