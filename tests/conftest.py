"""Shared builders for the test suite.

Golden graphs: a 9-node weighted graph used for distance checks, and the
16-node role-labelled network the spatial-operator examples run on.  Random
instances use dyadic step times and dyadic values so every arithmetic
operation along both the engine and the oracles is exact in binary floats.
"""

import contextlib
import random
import signal

import pytest
from hypothesis import settings

from strelmon.algebra import boolean_domain, maxmin_domain
from strelmon.logic import (
    And,
    Atomic,
    Escape,
    Eventually,
    Everywhere,
    Globally,
    Interval,
    Not,
    Or,
    Reach,
    Since,
    Somewhere,
    Surround,
    Until,
)
from strelmon.monitor import MonitorContext
from strelmon.signals import TemporalSignal, Trace
from strelmon.space import (
    DynamicalSpatialModel,
    EuclideanPositions,
    build_spatial_model,
    delaunay_edges,
    hop_distance,
    radius_edges,
    undirected_model,
    weight_sum_distance,
)

def _pairs(src, dst) -> set[tuple[int, int]]:
    return set(zip(src.tolist(), dst.tolist()))


def delaunay_proximity(pos: EuclideanPositions) -> set[tuple[int, int]]:
    """``delaunay_edges`` of the positions as a set of (src, dst) pairs."""
    return _pairs(*delaunay_edges(pos.array))


def connectivity_graph(pos: EuclideanPositions, radius: float) -> set[tuple[int, int]]:
    """``radius_edges`` of the positions in both directions, as a set of
    (src, dst) pairs."""
    a, b = radius_edges(pos.array, radius)
    return _pairs(a, b) | _pairs(b, a)


# A fixed example order for the property tests, so a CI failure reproduces
# locally with the same flag: pytest --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True)

# 9-node weighted graph: undirected edges as (a, b, weight), 1-indexed
WEIGHTED9_EDGES = [
    (1, 2, 2.0),
    (1, 8, 1.0),
    (2, 7, 5.0),
    (2, 3, 1.0),
    (4, 6, 4.0),
    (8, 6, 3.0),
    (7, 9, 7.0),
    (7, 5, 2.0),
    (3, 5, 3.0),
]

# 16-node network: undirected edges, 1-indexed
NETWORK16_EDGES = [
    (1, 8), (2, 7), (8, 6), (8, 7), (7, 10), (7, 5), (3, 10), (6, 5),
    (10, 11), (10, 9), (11, 15), (11, 12), (9, 14), (10, 14), (10, 16),
    (11, 16), (13, 16), (8, 4),
]
NETWORK16_END_DEV = {1, 2, 3, 4, 6, 12, 13, 14, 15}
NETWORK16_ROUTER = {5, 7, 8, 9, 11, 16}
NETWORK16_COORD = {10}


def weighted9_model():
    return undirected_model(9, [(a - 1, w, b - 1) for a, b, w in WEIGHTED9_EDGES])


def network16_model():
    return undirected_model(16, [(a - 1, 1.0, b - 1) for a, b in NETWORK16_EDGES])


def network16_trace(end_time=10.0):
    signals = []
    for loc in range(16):
        node = loc + 1
        vals = (
            1.0 if node in NETWORK16_COORD else 0.0,
            1.0 if node in NETWORK16_ROUTER else 0.0,
            1.0 if node in NETWORK16_END_DEV else 0.0,
        )
        signals.append(TemporalSignal((0.0,), (vals,), end_time))
    return Trace(("coord", "router", "end_dev"), tuple(signals))


@pytest.fixture
def network16_ctx():
    return MonitorContext(
        model=DynamicalSpatialModel.static(network16_model()),
        trace=network16_trace(),
        domain=boolean_domain(),
        distances={"hop": hop_distance()},
    )


def make_network16_ctx(domain=None):
    return MonitorContext(
        model=DynamicalSpatialModel.static(network16_model()),
        trace=network16_trace(),
        domain=domain or boolean_domain(),
        distances={"hop": hop_distance()},
    )


# ---------------------------------------------------------------------------
# random instances (dyadic grids keep all float arithmetic exact)


def random_model(rng: random.Random, n: int, max_edges: int):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    rng.shuffle(pairs)
    count = rng.randint(0, min(max_edges, len(pairs)))
    return build_spatial_model(
        n, [(a, float(rng.choice([1, 2])), b) for a, b in pairs[:count]]
    )


def random_instance(rng: random.Random, domain, max_locations=8, max_edges=10, max_steps=6):
    n = rng.randint(1, max_locations)
    m1 = random_model(rng, n, max_edges)
    if rng.random() < 0.5:
        snapshots = ((0.0, m1),)
    else:
        snapshots = ((0.0, m1), (1.25, random_model(rng, n, max_edges)))
    dm = DynamicalSpatialModel(snapshots)
    k = rng.randint(1, min(4, max_steps))
    times = sorted(rng.sample([i / 4 for i in range(9)], k))
    times[0] = 0.0
    end = 2.5
    sigs = []
    for _loc in range(n):
        if domain.name == "boolean":
            vals = tuple(
                (float(rng.randint(0, 1)), float(rng.randint(0, 1))) for _ in times
            )
        else:
            vals = tuple(
                (rng.randint(-8, 8) / 4, rng.randint(-8, 8) / 4) for _ in times
            )
        sigs.append(TemporalSignal(tuple(times), vals, end))
    trace = Trace(("x", "y"), tuple(sigs))
    return dm, trace


def random_formula(rng: random.Random, depth: int, variables=("x", "y"), allow_derived=True):
    if depth == 0 or rng.random() < 0.3:
        v = rng.choice(variables)
        if rng.random() < 0.5:
            return Atomic(v)
        return Atomic(v, rng.choice([">", "<", ">=", "<="]), rng.randint(-4, 4) / 4)
    ops = ["not", "and", "until", "since", "reach", "escape"]
    if allow_derived:
        ops += ["or", "somewhere", "everywhere", "surround", "F", "G"]
    op = rng.choice(ops)
    sub = lambda: random_formula(rng, depth - 1, variables, allow_derived)
    if op == "not":
        return Not(sub())
    if op == "and":
        return And(sub(), sub())
    if op == "or":
        return Or(sub(), sub())
    t_lo = rng.choice([0, 0.25])
    t_hi = rng.choice([0.25, 0.5, 0.75])
    ti = Interval(t_lo, max(t_lo, t_hi))
    d_lo = rng.choice([0, 1])
    d_hi = rng.choice([1, 2, 3, None])
    di = Interval(d_lo, None if d_hi is None else max(d_lo, d_hi))
    dist = rng.choice(["hop", "weight"])
    if op == "until":
        return Until(ti, sub(), sub())
    if op == "since":
        return Since(ti, sub(), sub())
    if op == "reach":
        return Reach(di, dist, sub(), sub())
    if op == "escape":
        return Escape(di, dist, sub())
    if op == "somewhere":
        return Somewhere(di, dist, sub())
    if op == "everywhere":
        return Everywhere(di, dist, sub())
    if op == "surround":
        return Surround(di, dist, sub(), sub())
    if op == "F":
        return Eventually(ti, sub())
    return Globally(ti, sub())


def left_nested_surround(levels: int, base="coord", right="router") -> str:
    """``levels`` left-nested ``(...) surround(hop)[0,1] right`` over
    ``base``.  Surround's desugaring uses its left operand four times, so as
    a tree the core of this grows 4x per level."""
    text = base
    for _ in range(levels):
        text = f"({text}) surround(hop)[0,1] {right}"
    return text


def path3_ctx(domain):
    """Three locations on an undirected hop path 0 - 1 - 2, with variables
    coord and router (values 0, 0.5 and 1.5) stepping once at 1 over [0, 3]."""
    model = DynamicalSpatialModel.static(undirected_model(3, [(0, 1.0, 1), (1, 1.0, 2)]))
    steps = [((1.5, 0.0), (0.5, 1.5)), ((0.0, 1.5), (1.5, 0.5)), ((0.5, 0.5), (0.0, 1.5))]
    trace = Trace(("coord", "router"), tuple(TemporalSignal((0.0, 1.0), s, 3.0) for s in steps))
    return MonitorContext(model=model, trace=trace, domain=domain, distances={"hop": hop_distance()})


def standard_distances():
    return {"hop": hop_distance(), "weight": weight_sum_distance()}


def compare_spatiotemporal(got, want, domain, tol=0.0, allow_subdomain=False):
    """Sample both signals at every breakpoint of either, plus midpoints.

    With allow_subdomain the comparison runs on the intersection of the two
    time domains (for identities whose two sides have different horizons).
    """
    assert got.location_count == want.location_count
    if not allow_subdomain:
        assert (got.start, got.end_time) == (want.start, want.end_time), (
            f"domains differ: [{got.start}, {got.end_time}] vs [{want.start}, {want.end_time}]"
        )
    lo = max(got.start, want.start)
    hi = min(got.end_time, want.end_time)
    assert lo <= hi, "no common domain to compare on"
    probes = sorted(
        {t for t in set(got.step_times()) | set(want.step_times()) if lo <= t <= hi} | {lo, hi}
    )
    probes = probes + [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    for loc in range(got.location_count):
        for t in probes:
            a = got.value_at(loc, t)
            b = want.value_at(loc, t)
            if domain.name == "boolean" or tol == 0.0:
                assert a == b, f"loc {loc} t {t}: {a!r} != {b!r}"
            else:
                assert a == b or abs(a - b) <= tol, f"loc {loc} t {t}: {a!r} != {b!r}"


def domains():
    return [boolean_domain(), maxmin_domain()]


@contextlib.contextmanager
def deadline(seconds):
    """Fail instead of hanging when the body runs longer than ``seconds``."""

    def expire(_signum, _frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
