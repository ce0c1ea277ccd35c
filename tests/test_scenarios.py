import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse import csgraph

from conftest import compare_spatiotemporal, connectivity_graph, delaunay_proximity
from strelmon.algebra import boolean_domain, maxmin_domain
from strelmon.logic import (
    Atomic,
    Eventually,
    Everywhere,
    FULL,
    Globally,
    Interval,
    Not,
    Or,
    Reach,
    Somewhere,
    format_formula,
    parse,
)
from strelmon.monitor import MonitorContext, monitor, satisfied_locations
from strelmon.oracle import oracle_monitor
from strelmon.scenarios import (
    EXPOSED,
    INFECTED,
    RECOVERED,
    SUSCEPTIBLE,
    ConfigError,
    DegreeSpec,
    EpidemicConfig,
    ManetConfig,
    SignalWalk,
    _walk,
    connect,
    dangerous_days,
    dangerous_days_counts,
    epidemic_interpretation,
    generate_manet,
    property_library,
    safe_radius,
    simulate_epidemic,
    sweep_safe_radius,
    target_reachable,
    _sample_degrees,
)
from strelmon import scenarios, space
from strelmon.signals import TemporalSignal, Trace
from strelmon.space import DynamicalSpatialModel, hop_distance, undirected_model, weight_sum_distance


SMALL_MANET = ManetConfig(node_count=12, routers=4, end_devices=7, steps=4, seed=5)


def test_manet_determinism():
    a = generate_manet(SMALL_MANET)
    b = generate_manet(SMALL_MANET)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]


def test_manet_zero_jitter_keeps_snapshots_identical():
    cfg = ManetConfig(node_count=12, routers=4, end_devices=7, steps=4, jitter=0.0, seed=7)
    proximity, connectivity, _trace = generate_manet(cfg)
    first = proximity.snapshots[0][1]
    assert all(m == first for _t, m in proximity.snapshots)
    firstc = connectivity.snapshots[0][1]
    assert all(m == firstc for _t, m in connectivity.snapshots)


def test_manet_connectivity_respects_radius():
    cfg = ManetConfig(node_count=15, routers=5, end_devices=9, steps=3, radius=2.5, seed=11)
    proximity, connectivity, trace = generate_manet(cfg)
    # reconstruct per-step positions from the proximity difference vectors is
    # roundabout; instead check against the euclidean weights directly
    for _t, model in proximity.snapshots:
        assert model.weight.shape == (len(model.src), 2)
    for _t, model in connectivity.snapshots:
        assert (model.weight == 1.0).all()
    assert trace.location_count == 15
    assert trace.variables == ("coord", "router", "end_dev", "battery", "humidity", "pollution")


def test_manet_roles_sum_and_walk_ranges():
    proximity, _conn, trace = generate_manet(SMALL_MANET)
    coords = routers = end_devs = 0
    for loc in range(trace.location_count):
        v = trace.signals[loc].values[0]
        coords += int(v[0])
        routers += int(v[1])
        end_devs += int(v[2])
    assert (coords, routers, end_devs) == (1, 4, 7)
    for loc in range(trace.location_count):
        for v in trace.signals[loc].values:
            assert 0.0 <= v[3] <= 1.0
            assert 20.0 <= v[4] <= 100.0
            assert 0.0 <= v[5] <= 200.0


def reference_walk(rng, cfg, steps):
    """``_walk`` as it was with one normal draw per step, kept as the
    reference for the sized draw."""
    value = float(rng.uniform(cfg.lo, cfg.hi))
    out = [value]
    for _ in range(steps - 1):
        value = float(np.clip(value + rng.normal(0.0, cfg.step), cfg.lo, cfg.hi))
        out.append(value)
    return out


def test_walk_matches_per_step_draw_reference():
    """One sized normal draw gives the per-step draws' walks bit for bit and
    leaves the generator in the same state; the last config clips often."""
    cfg = ManetConfig()
    walks = [cfg.battery, cfg.humidity, cfg.pollution, SignalWalk(-1.0, 1.0, 3.0)]
    for seed in range(20):
        for walk in walks:
            for steps in (1, 2, 14):
                new = np.random.Generator(np.random.PCG64(seed))
                old = np.random.Generator(np.random.PCG64(seed))
                for _ in range(5):
                    assert _walk(new, walk, steps) == reference_walk(old, walk, steps)
                assert new.random() == old.random()


def test_manet_config_validation():
    with pytest.raises(ConfigError):
        ManetConfig(node_count=10, routers=4, end_devices=7)
    with pytest.raises(ConfigError):
        ManetConfig.from_dict({"node_count": 12, "routers": 4, "end_devices": 7, "bogus": 1})
    with pytest.raises(ConfigError):
        SignalWalk(1.0, 1.0, 0.1)


def test_configs_written_by_asdict_load_back():
    """A config dumped with dataclasses.asdict, nested walks and degree specs
    included, loads back equal through the typed field checks."""
    manet = ManetConfig(node_count=40, routers=12, end_devices=27, side=10.0 * math.sqrt(2), steps=5, seed=3)
    epidemic = replace(EpidemicConfig(), attendance=(0.5, 0.25), include_static=False, seed=7)
    for cfg in (manet, epidemic):
        assert type(cfg).from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


def test_manet_connect_property_monitors():
    cfg = ManetConfig(node_count=12, routers=4, end_devices=7, steps=3, radius=6.0, seed=3)
    _prox, conn, trace = generate_manet(cfg)
    ctx = MonitorContext(
        model=conn,
        trace=trace,
        domain=boolean_domain(),
        distances={"hop": hop_distance()},
    )
    result = monitor(ctx, connect())
    assert result.location_count == 12  # runs; verdicts depend on the layout


def test_manet_proximity_model_supports_euclidean_distances():
    from strelmon.scenarios import safe_route
    from strelmon.space import euclidean_norm_distance

    cfg = ManetConfig(node_count=12, routers=4, end_devices=7, steps=3, seed=13)
    prox, _conn, trace = generate_manet(cfg)
    ctx = MonitorContext(
        model=prox,
        trace=trace,
        domain=boolean_domain(),
        distances={"euclid": euclidean_norm_distance()},
    )
    result = monitor(ctx, safe_route(d=1.0, T=1.0))
    assert result.location_count == 12
    # escape over the vector-weighted triangulation must see real distances:
    # with an enormous lower bound nothing escapes anywhere
    none = monitor(ctx, parse("escape(euclid)[1e9,inf] humidity < 1e9"))
    assert all(none.value_at(loc, 0.0) is False for loc in range(12))


def test_epidemic_determinism():
    cfg = EpidemicConfig(node_count=60, horizon_days=15, initial_infected=2, seed=9)
    a = simulate_epidemic(cfg)
    b = simulate_epidemic(cfg)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_epidemic_zero_infection_probability():
    cfg = EpidemicConfig(node_count=40, horizon_days=10, initial_infected=3, infection_mean=0.0, seed=1)
    model, trace = simulate_epidemic(cfg)
    for _t, m in model.snapshots:
        assert len(m.src) == 0  # zero-probability contacts are not edges
    for loc in range(40):
        states = {v[0] for v in trace.signals[loc].values}
        assert states <= {0.0, 2.0, 3.0}  # seeds progress, nobody else leaves S
    seeds = sum(1 for loc in range(40) if trace.signals[loc].values[0][0] == 2.0)
    assert seeds == 3


def test_epidemic_no_initial_infected_stays_susceptible():
    cfg = EpidemicConfig(node_count=40, horizon_days=10, initial_infected=0, seed=2)
    _model, trace = simulate_epidemic(cfg)
    for loc in range(40):
        assert all(v[0] == 0.0 for v in trace.signals[loc].values)


def test_epidemic_weights_are_neg_log_probability():
    cfg = EpidemicConfig(node_count=50, horizon_days=5, initial_infected=1, seed=3)
    model, _trace = simulate_epidemic(cfg)
    for _t, m in model.snapshots:
        for w in m.weight.tolist():
            assert w > 0  # p < 1 so -ln(p) > 0
            assert math.exp(-w) < 1.0


def test_epidemic_degree_realization():
    cfg = EpidemicConfig(
        node_count=500, horizon_days=2, initial_infected=1, include_dynamic=False, seed=4
    )
    model, _trace = simulate_epidemic(cfg)
    m = model.snapshots[0][1]
    pairs = len(m.src) / 2
    mean_degree = 2 * pairs / 500
    assert 8.0 <= mean_degree <= 12.0  # within 20% of the target mean 10


def test_epidemic_states_progress_in_order():
    cfg = EpidemicConfig(node_count=80, horizon_days=25, initial_infected=2, seed=6)
    _model, trace = simulate_epidemic(cfg)
    order = {0.0: 0, 1.0: 1, 2.0: 2, 3.0: 3}
    for loc in range(80):
        codes = [order[v[0]] for v in trace.signals[loc].values]
        assert all(a <= b for a, b in zip(codes, codes[1:]))


def test_epidemic_curve_rises_then_falls_at_defaults():
    cfg = EpidemicConfig(seed=0)
    _model, trace = simulate_epidemic(cfg)
    infected = [
        sum(1 for s in trace.signals if s.value_at(float(day))[0] == 2.0)
        for day in range(cfg.horizon_days)
    ]
    peak = max(infected)
    assert peak > infected[0]  # grows beyond the seeded cases
    assert infected[-1] <= 0.05 * peak  # dies out within the horizon
    # single peak up to small wiggles: weekly-smoothed curve is unimodal
    smooth = np.convolve(infected, np.ones(7) / 7, mode="valid")
    peak_at = int(np.argmax(smooth))
    rises = all(smooth[i] <= smooth[i + 1] + 2.0 for i in range(peak_at))
    falls = all(smooth[i] >= smooth[i + 1] - 2.0 for i in range(peak_at, len(smooth) - 1))
    assert rises and falls


def test_lognormal_parameterization_matches_constraints():
    from strelmon.scenarios import DegreeSpec

    spec = DegreeSpec(10.0, 50.0, 200.0)
    mu, sigma = spec.lognormal_params()
    assert math.exp(mu + sigma * sigma / 2) == pytest.approx(10.0, rel=1e-9)
    assert math.exp(mu + 2.3263478740408408 * sigma) == pytest.approx(50.0, rel=1e-9)


def brentq_lognormal_params_reference(spec: DegreeSpec) -> tuple[float, float]:
    """``DegreeSpec.lognormal_params`` as it solved on every call."""
    z99 = 2.3263478740408408  # standard normal 99th percentile
    target = math.log(spec.p99 / spec.mean)

    def gap(sigma: float) -> float:
        return z99 * sigma - sigma * sigma / 2.0 - target

    sigma = brentq(gap, 1e-9, z99 - 1e-9)
    mu = math.log(spec.mean) - sigma * sigma / 2.0
    return mu, sigma


def test_degree_spec_is_fit_once_with_the_same_bits(monkeypatch):
    """The stored (mu, sigma) is the per-call solve's, bit for bit, and a
    simulation solves nothing."""
    rng = np.random.default_rng(3232)
    specs = [EpidemicConfig().static_degree, EpidemicConfig().dynamic_degree, DegreeSpec(1.0, 14.9, 20.0)]
    for mean, ratio in zip(rng.uniform(0.1, 100, 100), rng.uniform(1.001, 14.9, 100)):
        specs.append(DegreeSpec(float(mean), float(mean * ratio), float(mean * ratio * 2)))
    for spec in specs:
        assert spec.lognormal_params() == brentq_lognormal_params_reference(spec), spec
        assert replace(spec).lognormal_params() == spec.lognormal_params()
    solves = []
    monkeypatch.setattr(scenarios, "brentq", lambda *args: solves.append(args))
    simulate_epidemic(EpidemicConfig(node_count=40, horizon_days=14, initial_infected=2, seed=1))
    assert solves == []


@pytest.mark.parametrize("mean, p99", [(1.0, 20.0), (1.0, 15.0), (2.0, 2.0 + 1e-12)])
def test_degree_spec_without_a_fit_is_a_config_error(mean, p99):
    """No lognormal has p99 / mean at or past e^(z99^2 / 2) ~ 14.97, nor
    within the bracket's sigma = 1e-9 of 1; brentq used to raise its own
    sign error on the first simulation."""
    with pytest.raises(ConfigError, match=r"no lognormal fits DegreeSpec\(.*between 1\.000000002 and 14\.97, got"):
        DegreeSpec(mean, p99, 50.0)
    with pytest.raises(ConfigError, match="no lognormal fits"):
        EpidemicConfig.from_dict({"dynamic_degree": {"mean": mean, "p99": p99, "cutoff": 50.0}})
    assert DegreeSpec(1.0, 14.96, 50.0).lognormal_params()[1] < 2.3263478740408408


def block_chung_lu_reference(rng: np.random.Generator, degrees: np.ndarray, nodes: np.ndarray):
    """Expected-degree graph: pair (i, j) kept with prob min(1, d_i d_j / sum(d)).
    Pairs i < j are tried row by row (rows with d_i > 0) with one uniform draw
    each, in blocks of rows that bound the memory; returns the kept pairs."""
    total = float(degrees.sum())
    k = len(nodes)
    rows = np.flatnonzero(degrees > 0)
    pairs = []
    for block in np.array_split(rows, 1 + len(rows) * k // 2**20):
        i, b = np.nonzero(np.arange(k) > block[:, None])
        a = block[i]
        kept = rng.random(len(a)) < np.minimum(1.0, degrees[a] * degrees[b] / total)
        pairs.append((nodes[a[kept]], nodes[b[kept]]))
    return tuple(map(np.concatenate, zip(*pairs)))


def chung_lu_degree_vectors():
    """(degrees, nodes) inputs: lognormal degrees at several sizes, some with
    zeros (or all zero), some large enough that most pairs clamp at 1, and
    node labels contiguous or not; last, one input of two row blocks."""
    rng = np.random.default_rng(3232)
    for case in range(560):
        k = (0, 1, 2, 3, 17, 64, 500)[case % 7]
        degrees = rng.lognormal(rng.uniform(0, 3), rng.uniform(0.1, 1.5), size=k)
        kind = case // 7 % 5
        if kind == 1:
            degrees[rng.random(k) < rng.uniform(0.1, 0.9)] = 0.0
        elif kind == 2:
            degrees[:] = 0.0
        elif kind == 3:
            degrees *= rng.uniform(10, 1e3)  # d_i d_j / sum(d) past 1 for many pairs
        elif kind == 4:
            degrees = np.where(rng.random(k) < 0.5, degrees, 0.0) * rng.choice([1e-3, 1.0, 1e6])
        nodes = np.arange(k) if case % 2 else np.sort(rng.choice(5 * k + 7, size=k, replace=False))
        yield degrees, nodes
    yield rng.lognormal(2.0, 0.8, size=1100), np.arange(3, 2203, 2)


def test_chung_lu_edges_equal_the_block_reference():
    """The row-bound sampler keeps the block sampler's pairs (dtype and bytes)
    from the same draws, and leaves the generator in the same state."""
    rng = np.random.default_rng(3233)
    blocks = set()
    for degrees, nodes in chung_lu_degree_vectors():
        k, rows = len(nodes), np.count_nonzero(degrees > 0)
        blocks.add(1 + rows * k // 2**20)
        seed = int(rng.integers(2**63))
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want, got = block_chung_lu_reference(want_rng, degrees, nodes), scenarios._chung_lu_edges(got_rng, degrees, nodes)
        for x, y in zip(got, want, strict=True):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), (k, degrees)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert blocks == {1, 2}


def test_property_library_trees():
    lib = property_library()
    assert set(lib) >= {
        "connect",
        "reliable_connect",
        "connect_restore",
        "cycle",
        "acyclic",
        "pollution_humidity",
        "safe_route",
        "somewhere_safe",
        "target_reachable",
        "dangerous_days",
        "safe_radius",
    }
    routing = Or(Atomic("router"), Atomic("coord"))
    assert lib["connect"]() == Reach(
        Interval(0, 1),
        "hop",
        Atomic("end_dev"),
        Reach(FULL, "hop", routing, Atomic("coord")),
    )
    assert lib["dangerous_days"]() == Globally(
        FULL,
        Or(
            Not(
                Reach(
                    Interval(0, 1),
                    "hop",
                    Atomic("susceptible"),
                    Eventually(Interval(0, 2), Atomic("infected")),
                )
            ),
            Eventually(Interval(0, 7), Atomic("infected")),
        ),
    )
    assert lib["safe_radius"](3.0, 7.0) == Globally(
        FULL,
        Or(
            Not(Everywhere(Interval(0, 3), "weight", Not(Atomic("infected")))),
            Globally(Interval(0, 7), Not(Atomic("infected"))),
        ),
    )
    assert lib["target_reachable"](4.0) == Everywhere(
        FULL, "hop", Somewhere(Interval(0, 4), "hop", Atomic("target"))
    )


def test_property_strings_roundtrip():
    lib = property_library()
    samples = [
        lib["connect"](),
        lib["reliable_connect"](),
        lib["connect_restore"](5.0),
        lib["cycle"](2),
        lib["acyclic"](2),
        lib["pollution_humidity"](10.0),
        lib["safe_route"](2.0, 10.0),
        lib["somewhere_safe"](1.0, 2.0, 10.0),
        lib["target_reachable"](4.0),
        lib["dangerous_days"](),
        lib["safe_radius"](3.0, 7.0),
    ]
    for formula in samples:
        assert parse(format_formula(formula)) == formula


def test_sweep_monotone_and_extremes():
    cfg = EpidemicConfig(node_count=60, horizon_days=25, initial_infected=6, seed=21)
    radii = [0.0, 1.0, 4.0, 40.0]
    result = sweep_safe_radius(cfg, radii, T=7.0, runs=3)
    for run in range(3):
        per_run = [result.counts[i][run] for i in range(len(radii))]
        assert all(a <= b for a, b in zip(per_run, per_run[1:]))
    rows = result.rows
    assert len(rows) == len(radii)
    assert rows[-1][1] >= rows[0][1]


@pytest.mark.parametrize("runs", [0, -2])
def test_repeated_experiments_need_at_least_one_run(runs):
    """Zero runs used to give nan means and an empty count list."""
    cfg = EpidemicConfig(node_count=30, horizon_days=6, initial_infected=2)
    with pytest.raises(ConfigError, match="at least one run"):
        sweep_safe_radius(cfg, [1.0], T=2.0, runs=runs)
    with pytest.raises(ConfigError, match="at least one run"):
        dangerous_days_counts(cfg, runs=runs)


def count_satisfied_reference(model, trace, formula, interpretation=None) -> int:
    """The count each experiment took per formula before a run's formulas
    shared one context, kept verbatim: a fresh context per formula."""
    ctx = MonitorContext(
        model=model,
        trace=trace,
        domain=boolean_domain(),
        distances={name: make() for name, make in space.BUILTIN_DISTANCES.items()},
        interpretation=interpretation,
    )
    return len(satisfied_locations(monitor(ctx, formula), ctx, t=0.0))


@pytest.mark.parametrize("seed", range(4))
def test_one_context_per_run_gives_the_per_formula_counts(seed):
    """The sweep and dangerous days monitor every formula of a run on the
    run's one context; their rows are the counts of a fresh context per
    formula, a repeated radius included."""
    cfg = EpidemicConfig(node_count=50, horizon_days=12, initial_infected=5, seed=seed)
    radii = (0.5, 3.0, 3.0, 8.0, 20.0)
    interpretation = epidemic_interpretation(boolean_domain())
    runs = [simulate_epidemic(replace(cfg, seed=cfg.seed + run)) for run in range(3)]
    want = [
        [count_satisfied_reference(model, trace, safe_radius(r, 7.0), interpretation) for model, trace in runs]
        for r in radii
    ]
    assert sweep_safe_radius(cfg, radii, T=7.0, runs=3).counts == tuple(map(tuple, want))
    assert dangerous_days_counts(cfg, runs=3) == [
        count_satisfied_reference(model, trace, dangerous_days(), interpretation) for model, trace in runs
    ]


def test_sweep_checks_each_snapshot_distance_once(monkeypatch):
    """The built-in distance functions are singletons, so a snapshot maps and
    checks its weights once per distance function for the whole sweep, not
    once per radius."""
    checked = []

    def counting(model, f):
        checked.append((id(model), f.name))
        return original(model, f)

    original = space.check_strictly_positive
    monkeypatch.setattr(space, "check_strictly_positive", counting)
    cfg = EpidemicConfig(node_count=30, horizon_days=10, initial_infected=3, seed=4)
    sweep_safe_radius(cfg, [0.5, 3.0, 8.0, 20.0], T=3.0, runs=1)
    assert checked
    assert len(checked) == len(set(checked))


def test_sweep_searches_each_snapshot_twice_for_every_radius(monkeypatch):
    """Monitoring safe_radius at radii 0.5, 3, 8 and 20 on one simulated
    epidemic runs each snapshot's Boolean search twice, cut off at 0.5 and
    then with no limit, and each radius gets the verdicts of a run on a
    freshly simulated copy, whose every search stops at its own radius."""
    limits, dijkstra = [], csgraph.dijkstra
    monkeypatch.setattr(csgraph, "dijkstra", lambda *args, **kw: limits.append(kw["limit"]) or dijkstra(*args, **kw))
    cfg = EpidemicConfig(node_count=60, horizon_days=10, initial_infected=5, seed=8)
    interpretation = epidemic_interpretation(boolean_domain())

    def run(model, trace, r):
        ctx = MonitorContext(model, trace, boolean_domain(), {"weight": weight_sum_distance()}, interpretation)
        limits.clear()
        result = monitor(ctx, safe_radius(r, 7.0))
        return (result.times.tobytes(), result.values.tobytes()), list(limits)

    radii = (0.5, 3.0, 8.0, 20.0)
    model, trace = simulate_epidemic(cfg)
    swept = [run(model, trace, r) for r in radii]
    alone = [run(*simulate_epidemic(cfg), r) for r in radii]
    snapshots = len(alone[0][1])
    assert snapshots == len(model.snapshots)
    for r, (verdicts, searched), (fresh, own) in zip(radii, swept, alone):
        assert verdicts == fresh, r
        assert own == [r] * snapshots
    assert [searched for _, searched in swept] == [[0.5] * snapshots, [math.inf] * snapshots, [], []]


def test_sweep_large_radius_matches_direct_evaluation():
    # at an effectively infinite radius the protection clause asks the whole
    # reachable component to be uninfected; evaluate that directly by scanning
    # the trace and the daily graphs
    cfg = EpidemicConfig(node_count=40, horizon_days=20, initial_infected=4, seed=30)
    model, trace = simulate_epidemic(cfg)
    domain = boolean_domain()
    interp = epidemic_interpretation(domain)
    T = 5.0
    radius = 1e9
    ctx = MonitorContext(
        model=model,
        trace=trace,
        domain=domain,
        distances={"weight": weight_sum_distance(), "hop": hop_distance()},
        interpretation=interp,
    )
    got = set(satisfied_locations(monitor(ctx, safe_radius(radius, T)), ctx))

    horizon = cfg.horizon_days - 1
    infected_at = lambda loc, day: trace.signals[loc].value_at(float(day))[0] == 2.0

    def reachable_from(loc, day):
        m = model.snapshot_at(float(day))
        out_edges = [[] for _ in range(m.location_count)]
        for u, v in zip(m.src.tolist(), m.dst.tolist()):
            out_edges[u].append(v)
        seen = {loc}
        stack = [loc]
        while stack:
            u = stack.pop()
            for v in out_edges[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    want = set()
    for loc in range(40):
        ok = True
        for day in range(int(horizon - T) + 1):
            ball_clear = not any(
                infected_at(other, day) for other in reachable_from(loc, day)
            )
            if ball_clear:
                protected = not any(
                    infected_at(loc, d) for d in range(day, day + int(T) + 1)
                )
                if not protected:
                    ok = False
                    break
        if ok:
            want.add(loc)
    assert got == want


@pytest.mark.parametrize("seed", [1, 2])
def test_epidemic_atoms_match_oracle_in_both_domains(seed):
    """On a small SEIR run (8 nodes, 10 days and sparse contacts, as in the
    benchmark's oracle cases, with dynamics fast enough that the verdicts
    are not constant) the engine, which calls each interpretation once on
    the whole trace, and the oracle, which calls it once per cell, agree on
    the state atoms, safe_radius and dangerous_days in both domains.  The
    quantitative verdicts are +inf exactly where the Boolean ones hold and
    -inf elsewhere."""
    degree = DegreeSpec(1.5, 4.0, 6.0)
    cfg = EpidemicConfig(
        node_count=8, horizon_days=10, initial_infected=3, infection_mean=0.5,
        exposed_mean_days=1.0, infectious_mean_days=4.0,
        static_degree=degree, dynamic_degree=degree, seed=seed,
    )
    model, trace = simulate_epidemic(cfg)
    formulas = [Atomic(state) for state in ("susceptible", "exposed", "infected", "recovered")]
    formulas += [safe_radius(0.5, 3.0), safe_radius(3.0, 3.0), dangerous_days()]
    verdicts = {}
    for domain in (boolean_domain(), maxmin_domain()):
        ctx = MonitorContext(
            model=model,
            trace=trace,
            domain=domain,
            distances={"weight": weight_sum_distance(), "hop": hop_distance()},
            interpretation=epidemic_interpretation(domain),
        )
        for formula in formulas:
            got = monitor(ctx, formula)
            compare_spatiotemporal(got, oracle_monitor(ctx, formula, max_steps=10), domain)
            verdicts[domain.name, formula] = got
    for formula in formulas:
        held, margin = verdicts["boolean", formula], verdicts["quantitative", formula]
        assert np.array_equal(margin.times, held.times)
        assert np.array_equal(margin.values, np.where(held.values, math.inf, -math.inf))
    assert not verdicts["boolean", dangerous_days()].values.all()
    assert not verdicts["boolean", safe_radius(0.5, 3.0)].values.all()


# ---------------------------------------------------------------------------
# The per-edge SEIR loop as it stood before the day update ran on arrays,
# kept verbatim as the reference for the vectorised ``simulate_epidemic``.

def _chung_lu_edges(rng: np.random.Generator, degrees: np.ndarray, nodes: np.ndarray) -> list[tuple[int, int]]:
    """Expected-degree graph: pair (i, j) kept with prob min(1, d_i d_j / sum(d))."""
    total = float(degrees.sum())
    edges: list[tuple[int, int]] = []
    if total <= 0:
        return edges
    k = len(nodes)
    for a in range(k):
        da = degrees[a]
        if da <= 0:
            continue
        probs = np.minimum(1.0, da * degrees[a + 1 :] / total)
        draws = rng.random(k - a - 1)
        for offset in np.nonzero(draws < probs)[0]:
            b = a + 1 + int(offset)
            edges.append((int(nodes[a]), int(nodes[b])))
    return edges


def _sample_edge_probability(rng: np.random.Generator, cfg: EpidemicConfig) -> float:
    if cfg.infection_mean == 0:
        return 0.0
    alpha = cfg.infection_alpha
    beta = alpha * (1.0 - cfg.infection_mean) / cfg.infection_mean
    return float(rng.beta(alpha, beta))


def _duration_days(rng: np.random.Generator, shape: float, mean: float) -> int:
    scale = mean / shape
    return max(1, int(round(rng.gamma(shape, scale))))


def reference_simulate_epidemic(cfg: EpidemicConfig) -> tuple[DynamicalSpatialModel, Trace]:
    """Daily-step SEIR simulation; returns the contact model and the state trace.

    Day t's spatial snapshot is the union of the static network and that
    day's event network; an edge weight is -ln(p) for the edge's infection
    probability, with simultaneous static and dynamic contact merged as
    independent exposures (p = 1 - (1-ps)(1-pd)).

    Transmission trials are per contact, independent across edges.  A static
    edge is one ongoing relationship whose sampled probability is spent in a
    single trial per direction, made the first day the pair sits
    susceptible-next-to-infective; a dynamic edge is a fresh contact event on
    each day it is drawn, so every occurrence gets its own trial.  The trace
    carries one variable, the state code (0 S, 1 E, 2 I, 3 R).
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.node_count
    static_edges: dict[tuple[int, int], float] = {}
    if cfg.include_static:
        degrees = _sample_degrees(rng, cfg.static_degree, n)
        for a, b in _chung_lu_edges(rng, degrees, np.arange(n)):
            p = _sample_edge_probability(rng, cfg)
            if p > 0:
                static_edges[(a, b)] = p
    attendance = rng.choice(np.asarray(cfg.attendance), size=n)

    state = np.full(n, SUSCEPTIBLE, dtype=int)
    timer = np.zeros(n, dtype=int)
    seeds = rng.choice(n, size=cfg.initial_infected, replace=False) if cfg.initial_infected else []
    for loc in seeds:
        state[loc] = INFECTED
        timer[loc] = _duration_days(rng, cfg.infectious_shape, cfg.infectious_mean_days)

    snapshots = []
    states_per_day = np.zeros((cfg.horizon_days, n), dtype=int)
    static_tried: set[tuple[int, int]] = set()  # directed (infective, susceptible) pairs
    for day in range(cfg.horizon_days):
        states_per_day[day] = state
        day_edges = dict(static_edges)
        dynamic_today: dict[tuple[int, int], float] = {}
        if cfg.include_dynamic:
            active = np.nonzero(rng.random(n) < attendance)[0]
            if len(active) >= 2:
                deg = _sample_degrees(rng, cfg.dynamic_degree, len(active))
                for ia, ib in _chung_lu_edges(rng, deg, active):
                    p = _sample_edge_probability(rng, cfg)
                    if p <= 0:
                        continue
                    key = (ia, ib) if ia < ib else (ib, ia)
                    dynamic_today[key] = p
                    if key in day_edges:
                        day_edges[key] = 1.0 - (1.0 - day_edges[key]) * (1.0 - p)
                    else:
                        day_edges[key] = p
        model = undirected_model(
            n, [(a, -math.log(p), b) for (a, b), p in sorted(day_edges.items())]
        )
        snapshots.append((float(day), model))

        # state update for the next day
        new_exposed = []
        for (a, b), p in static_edges.items():
            for src, dst in ((a, b), (b, a)):
                if state[src] == INFECTED and state[dst] == SUSCEPTIBLE:
                    if (src, dst) not in static_tried:
                        static_tried.add((src, dst))
                        if rng.random() < p:
                            new_exposed.append(dst)
        for (a, b), p in dynamic_today.items():
            for src, dst in ((a, b), (b, a)):
                if state[src] == INFECTED and state[dst] == SUSCEPTIBLE:
                    if rng.random() < p:
                        new_exposed.append(dst)
        next_state = state.copy()
        next_timer = timer.copy()
        progressing = timer > 0
        next_timer[progressing] -= 1
        for loc in np.nonzero(progressing & (next_timer == 0))[0]:
            if state[loc] == EXPOSED:
                next_state[loc] = INFECTED
                next_timer[loc] = _duration_days(rng, cfg.infectious_shape, cfg.infectious_mean_days)
            elif state[loc] == INFECTED:
                next_state[loc] = RECOVERED
        for loc in new_exposed:
            if next_state[loc] == SUSCEPTIBLE:
                next_state[loc] = EXPOSED
                next_timer[loc] = _duration_days(rng, cfg.exposed_shape, cfg.exposed_mean_days)
        state, timer = next_state, next_timer

    times = tuple(float(day) for day in range(cfg.horizon_days))
    end = float(cfg.horizon_days - 1)
    signals = tuple(
        TemporalSignal(times, tuple((float(states_per_day[day][loc]),) for day in range(cfg.horizon_days)), end)
        for loc in range(n)
    )
    trace = Trace(("state",), signals)
    return DynamicalSpatialModel(tuple(snapshots)), trace


@pytest.mark.parametrize(
    "variant",
    [{}, {"include_static": False}, {"include_dynamic": False}, {"infection_mean": 0.0}],
    ids=["default", "no-static", "no-dynamic", "no-infection"],
)
def test_simulate_epidemic_matches_per_edge_reference(variant):
    """Same seed, same random draws: the trace grid and every snapshot's edge
    arrays equal the per-edge loop's bit for bit."""
    for seed in (0, 1, 2):
        cfg = replace(EpidemicConfig(**variant), horizon_days=30, seed=seed)
        want_model, want_trace = reference_simulate_epidemic(cfg)
        got_model, got_trace = simulate_epidemic(cfg)
        for got, want in zip(got_trace.grid, want_trace.grid):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert got_model.snapshot_times() == want_model.snapshot_times()
        for (_t, got), (_t, want) in zip(got_model.snapshots, want_model.snapshots):
            for name in ("src", "dst", "weight"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        if not variant:
            assert (want_trace.grid[1] != SUSCEPTIBLE).sum() > cfg.initial_infected * 30  # it spreads


def loop_generate_manet_reference(cfg: ManetConfig):
    """``generate_manet`` as it was with per-step tuples of points, relation
    sets and sorted pair lists, kept as the reference for the array build."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.node_count
    order = rng.permutation(n)
    roles = np.full(n, 2)  # 0 coordinator, 1 router, 2 end device
    roles[order[: 1 + cfg.routers]] = 1
    roles[order[0]] = 0
    positions = rng.uniform(0.0, cfg.side, size=(n, 2))
    walks = {
        name: [_walk(rng, getattr(cfg, name), cfg.steps) for _ in range(n)]
        for name in ("battery", "humidity", "pollution")
    }
    times = [k * cfg.step_duration for k in range(cfg.steps)]
    end = cfg.steps * cfg.step_duration
    prox_snaps, conn_snaps = [], []
    for k in range(cfg.steps):
        if k > 0 and cfg.jitter > 0:
            positions = positions + rng.uniform(-cfg.jitter, cfg.jitter, size=(n, 2))
        pos = space.EuclideanPositions(tuple((float(x), float(y)) for x, y in positions))
        prox = space.euclidean_model(pos, sorted(delaunay_proximity(pos)))
        conn_pairs = sorted((a, b) for a, b in connectivity_graph(pos, cfg.radius) if a < b)
        conn = undirected_model(n, [(a, 1.0, b) for a, b in conn_pairs])
        prox_snaps.append((times[k], prox))
        conn_snaps.append((times[k], conn))
    variables = ("coord", "router", "end_dev", "battery", "humidity", "pollution")
    one_hot = np.broadcast_to(np.eye(3)[roles][:, None, :], (n, cfg.steps, 3))
    data = np.concatenate((one_hot, np.stack([walks[v] for v in variables[3:]], axis=2)), axis=2)
    trace = Trace.from_arrays(variables, times, data.transpose(1, 0, 2), end)
    return (
        DynamicalSpatialModel(tuple(prox_snaps)),
        DynamicalSpatialModel(tuple(conn_snaps)),
        trace,
    )


def _manet_outcome(generate, cfg: ManetConfig):
    """Every snapshot's time and edge-array bytes, and the trace's grid and
    own bytes; or the exception's type and text."""
    try:
        proximity, connectivity, trace = generate(cfg)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    arrays = [
        (t, *((a.dtype, a.shape, a.tobytes()) for a in (m.src, m.dst, m.weight)))
        for model in (proximity, connectivity) for t, m in model.snapshots
    ]
    grid = [(a.dtype, a.shape, a.tobytes()) for a in (*trace.grid, trace.own)]
    return arrays, grid, trace.end_time


MANET_SIZES = {
    "default": {},
    "benchmark-size": {"node_count": 100, "routers": 30, "end_devices": 69, "side": 10 * math.sqrt(5), "steps": 14},
    "no-jitter": {"jitter": 0.0},
    "coincident": {"side": 0.0},
    "coincident-no-jitter": {"side": 0.0, "jitter": 0.0, "steps": 3},
    "three-nodes": {"node_count": 3, "routers": 1, "end_devices": 1},
    "three-coincident": {"node_count": 3, "routers": 1, "end_devices": 1, "side": 0.0, "jitter": 0.0},
    "zero-radius": {"radius": 0.0},
    "zero-radius-coincident": {"radius": 0.0, "side": 0.0, "jitter": 0.0, "steps": 2},
    "radius-above-diagonal": {"radius": 10.0 * math.sqrt(2) * 1.01, "jitter": 0.0},
    "one-step": {"steps": 1},
}


@pytest.mark.parametrize("size", sorted(MANET_SIZES))
def test_generate_manet_equals_loop_reference(size):
    """Same seed, same random draws: every snapshot's src, dst and weight
    arrays and the trace's grid and own equal the loop's bit for bit."""
    for seed in range(6):
        cfg = replace(ManetConfig(), seed=seed, **MANET_SIZES[size])
        assert _manet_outcome(generate_manet, cfg) == _manet_outcome(loop_generate_manet_reference, cfg), seed

