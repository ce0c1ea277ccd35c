"""Scenario generators and the shipped property library.

Two families of inputs: a mobile sensor network whose nodes drift in the
plane (proximity graph from a Delaunay triangulation, connectivity graph
from a communication radius), and a daily-step SEIR epidemic over the union
of a static contact network and a resampled event network.  All randomness
flows from a single seed through numpy's PCG64 generator, whose stream is
stable across platforms, so equal seeds give identical models and traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import brentq

from .algebra import SignalDomain
from .logic import (
    And,
    Atomic,
    Escape,
    Eventually,
    Everywhere,
    Formula,
    Globally,
    Interval,
    Not,
    Or,
    Reach,
    Somewhere,
    UNBOUNDED,
)
from .monitor import MonitorContext, monitor, satisfied_locations
from .signals import TemporalSignal, Trace
from .space import (
    BUILTIN_DISTANCES,
    DynamicalSpatialModel,
    EuclideanPositions,
    connectivity_graph,
    delaunay_proximity,
    euclidean_model,
    undirected_model,
)

FULL = Interval(0.0, UNBOUNDED)

# SEIR state encoding used by the single trace variable "state"
SUSCEPTIBLE, EXPOSED, INFECTED, RECOVERED = 0, 1, 2, 3


class ConfigError(ValueError):
    pass


def _config_from_dict(cls, data: Mapping[str, Any]):
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r} for {cls.__name__}")
    kwargs = dict(data)
    for f in fields(cls):
        if f.name in kwargs and isinstance(kwargs[f.name], list):
            kwargs[f.name] = tuple(kwargs[f.name])
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# mobile ad-hoc network


@dataclass(frozen=True)
class SignalWalk:
    """Piecewise-constant random walk clipped to [lo, hi]."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigError(f"walk range [{self.lo}, {self.hi}] is empty")


@dataclass(frozen=True)
class ManetConfig:
    node_count: int = 20
    side: float = 10.0
    radius: float = 3.0
    routers: int = 6
    end_devices: int = 13
    battery: SignalWalk = SignalWalk(0.0, 1.0, 0.05)
    humidity: SignalWalk = SignalWalk(20.0, 100.0, 4.0)
    pollution: SignalWalk = SignalWalk(0.0, 200.0, 10.0)
    jitter: float = 0.3
    steps: int = 10
    step_duration: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if 1 + self.routers + self.end_devices != self.node_count:
            raise ConfigError(
                f"role counts must sum to node_count: 1 coordinator + {self.routers} routers "
                f"+ {self.end_devices} end devices != {self.node_count}"
            )
        if self.node_count < 3:
            raise ConfigError("need at least 3 nodes")
        if self.steps < 1:
            raise ConfigError("need at least one step")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ManetConfig":
        data = dict(data)
        for name in ("battery", "humidity", "pollution"):
            if name in data and isinstance(data[name], Mapping):
                data[name] = _config_from_dict(SignalWalk, data[name])
        return _config_from_dict(cls, data)


def _walk(rng: np.random.Generator, cfg: SignalWalk, steps: int) -> list[float]:
    value = float(rng.uniform(cfg.lo, cfg.hi))
    out = [value]
    for _ in range(steps - 1):
        value = float(np.clip(value + rng.normal(0.0, cfg.step), cfg.lo, cfg.hi))
        out.append(value)
    return out


def generate_manet(cfg: ManetConfig) -> tuple[DynamicalSpatialModel, DynamicalSpatialModel, Trace]:
    """Returns (proximity model, connectivity model, trace).

    Proximity edges carry the 2d position-difference vectors; connectivity
    edges carry unit weights.  The trace holds the Boolean role variables and
    the battery / humidity / pollution walks.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.node_count
    roles = [0] * n  # 0 coordinator, 1 router, 2 end device
    order = rng.permutation(n)
    for idx in order[1 : 1 + cfg.routers]:
        roles[idx] = 1
    for idx in order[1 + cfg.routers :]:
        roles[idx] = 2
    positions = rng.uniform(0.0, cfg.side, size=(n, 2))
    walks = {
        name: [_walk(rng, getattr(cfg, name), cfg.steps) for _ in range(n)]
        for name in ("battery", "humidity", "pollution")
    }
    times = [k * cfg.step_duration for k in range(cfg.steps)]
    end = cfg.steps * cfg.step_duration
    prox_snaps = []
    conn_snaps = []
    for k in range(cfg.steps):
        if k > 0 and cfg.jitter > 0:
            positions = positions + rng.uniform(-cfg.jitter, cfg.jitter, size=(n, 2))
        pos = EuclideanPositions(tuple((float(x), float(y)) for x, y in positions))
        prox = euclidean_model(pos, sorted(delaunay_proximity(pos)))
        conn_pairs = sorted((a, b) for a, b in connectivity_graph(pos, cfg.radius) if a < b)
        conn = undirected_model(n, [(a, 1.0, b) for a, b in conn_pairs])
        prox_snaps.append((times[k], prox))
        conn_snaps.append((times[k], conn))
    variables = ("coord", "router", "end_dev", "battery", "humidity", "pollution")
    signals = []
    for loc in range(n):
        values = tuple(
            (
                1.0 if roles[loc] == 0 else 0.0,
                1.0 if roles[loc] == 1 else 0.0,
                1.0 if roles[loc] == 2 else 0.0,
                walks["battery"][loc][k],
                walks["humidity"][loc][k],
                walks["pollution"][loc][k],
            )
            for k in range(cfg.steps)
        )
        signals.append(TemporalSignal(tuple(times), values, end))
    trace = Trace(variables, tuple(signals))
    return (
        DynamicalSpatialModel(tuple(prox_snaps)),
        DynamicalSpatialModel(tuple(conn_snaps)),
        trace,
    )


# ---------------------------------------------------------------------------
# epidemic on a contact network


@dataclass(frozen=True)
class DegreeSpec:
    """Lognormal degree distribution pinned by mean and 99th percentile,
    truncated by resampling above the cutoff."""

    mean: float
    p99: float
    cutoff: float

    def __post_init__(self):
        if not (0 < self.mean < self.p99 <= self.cutoff):
            raise ConfigError(f"need 0 < mean < p99 <= cutoff, got {self}")

    def lognormal_params(self) -> tuple[float, float]:
        z99 = 2.3263478740408408  # standard normal 99th percentile
        target = math.log(self.p99 / self.mean)

        def gap(sigma: float) -> float:
            return z99 * sigma - sigma * sigma / 2.0 - target

        sigma = brentq(gap, 1e-9, z99 - 1e-9)
        mu = math.log(self.mean) - sigma * sigma / 2.0
        return mu, sigma


@dataclass(frozen=True)
class EpidemicConfig:
    node_count: int = 500
    static_degree: DegreeSpec = DegreeSpec(10.0, 50.0, 200.0)
    dynamic_degree: DegreeSpec = DegreeSpec(10.0, 100.0, 1000.0)
    attendance: tuple[float, ...] = (1 / 30, 1 / 14, 1 / 7, 2 / 7)
    infection_mean: float = 0.05
    infection_alpha: float = 1.0
    exposed_shape: float = 4.0
    exposed_mean_days: float = 3.0
    infectious_shape: float = 4.0
    infectious_mean_days: float = 8.0
    horizon_days: int = 100
    initial_infected: int = 20
    include_static: bool = True
    include_dynamic: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.infection_mean < 1:
            raise ConfigError(f"infection_mean must lie in [0, 1), got {self.infection_mean}")
        if self.initial_infected > self.node_count:
            raise ConfigError("more initial infected than nodes")
        if self.horizon_days < 2:
            raise ConfigError("horizon must cover at least two days")
        if not (self.include_static or self.include_dynamic):
            raise ConfigError("at least one of the contact networks must be enabled")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EpidemicConfig":
        data = dict(data)
        for name in ("static_degree", "dynamic_degree"):
            if name in data and isinstance(data[name], Mapping):
                data[name] = _config_from_dict(DegreeSpec, data[name])
        return _config_from_dict(cls, data)


def _sample_degrees(rng: np.random.Generator, spec: DegreeSpec, n: int) -> np.ndarray:
    mu, sigma = spec.lognormal_params()
    out = rng.lognormal(mu, sigma, size=n)
    # truncation by rejection at the cutoff
    for _ in range(1000):
        over = out > spec.cutoff
        if not over.any():
            break
        out[over] = rng.lognormal(mu, sigma, size=int(over.sum()))
    return out


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


def simulate_epidemic(cfg: EpidemicConfig) -> tuple[DynamicalSpatialModel, Trace]:
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


def epidemic_interpretation(domain: SignalDomain) -> dict[str, Callable[[tuple], Any]]:
    """Atoms susceptible/exposed/infected/recovered over the state variable."""

    def is_state(code: int) -> Callable[[tuple], Any]:
        if domain.name == "boolean":
            return lambda values: values[0] == code
        return lambda values: math.inf if values[0] == code else -math.inf

    return {
        "susceptible": is_state(SUSCEPTIBLE),
        "exposed": is_state(EXPOSED),
        "infected": is_state(INFECTED),
        "recovered": is_state(RECOVERED),
    }


# ---------------------------------------------------------------------------
# property library


def connect() -> Formula:
    """An end device one hop from a router that routes to the coordinator.

    The inner routing layer treats the coordinator as a router, since after
    initialization it behaves as one.
    """
    routing = Or(Atomic("router"), Atomic("coord"))
    inner = Reach(FULL, "hop", routing, Atomic("coord"))
    return Reach(Interval(0, 1), "hop", Atomic("end_dev"), inner)


def reliable_connect(battery_threshold: float = 0.5) -> Formula:
    reliable_router = And(Atomic("battery", ">", battery_threshold), Atomic("router"))
    inner = Reach(FULL, "hop", reliable_router, Atomic("coord"))
    return Reach(Interval(0, 1), "hop", Atomic("end_dev"), inner)


def connect_restore(h: float) -> Formula:
    """A broken connection is restored within h time units."""
    base = connect()
    return Globally(FULL, Or(base, Eventually(Interval(0, h), base)))


def location_cycle(loc: int) -> Formula:
    at = Atomic(f"at_{loc}")
    return Reach(Interval(0, 1), "hop", at, And(Not(at), Somewhere(FULL, "hop", at)))


def location_acyclic(loc: int) -> Formula:
    return Not(location_cycle(loc))


def pollution_humidity(T: float, pollution: float = 150.0, humidity: float = 100.0) -> Formula:
    """High pollution eventually implies high humidity within T time units."""
    return Or(
        Not(Atomic("pollution", ">", pollution)),
        Eventually(Interval(0, T), Atomic("humidity", ">", humidity)),
    )


def safe_route(d: float, T: float, humidity: float = 90.0, pollution: float = 150.0) -> Formula:
    """A route of safe readings escapes beyond distance d, throughout [0, T]."""
    safe = And(Atomic("humidity", "<", humidity), Atomic("pollution", "<", pollution))
    return Globally(Interval(0, T), Escape(Interval(d, UNBOUNDED), "euclid", safe))


def somewhere_safe(d: float, escape_d: float, T: float) -> Formula:
    return Somewhere(Interval(0, d), "euclid", safe_route(escape_d, T))


def target_reachable(d: float, target_atom: str = "target") -> Formula:
    """The target is within d hops of every location."""
    return Everywhere(FULL, "hop", Somewhere(Interval(0, d), "hop", Atomic(target_atom)))


def dangerous_days() -> Formula:
    """Contact with a soon-infective individual leads to infection within a week."""
    exposure = Reach(
        Interval(0, 1), "hop", Atomic("susceptible"), Eventually(Interval(0, 2), Atomic("infected"))
    )
    return Globally(FULL, Or(Not(exposure), Eventually(Interval(0, 7), Atomic("infected"))))


def safe_radius(r: float, T: float) -> Formula:
    """An uninfected ball of weight-radius r protects a location for T days."""
    clear = Everywhere(Interval(0, r), "weight", Not(Atomic("infected")))
    return Globally(FULL, Or(Not(clear), Globally(Interval(0, T), Not(Atomic("infected")))))


def property_library() -> dict[str, Callable[..., Formula]]:
    return {
        "connect": connect,
        "reliable_connect": reliable_connect,
        "connect_restore": connect_restore,
        "cycle": location_cycle,
        "acyclic": location_acyclic,
        "pollution_humidity": pollution_humidity,
        "safe_route": safe_route,
        "somewhere_safe": somewhere_safe,
        "target_reachable": target_reachable,
        "dangerous_days": dangerous_days,
        "safe_radius": safe_radius,
    }


# ---------------------------------------------------------------------------
# experiments


def count_satisfied(model: DynamicalSpatialModel, trace: Trace, formula: Formula,
                    domain: SignalDomain, interpretation=None) -> int:
    ctx = MonitorContext(
        model=model,
        trace=trace,
        domain=domain,
        distances={name: make() for name, make in BUILTIN_DISTANCES.items()},
        interpretation=interpretation,
    )
    return len(satisfied_locations(monitor(ctx, formula), ctx, t=0.0))


@dataclass(frozen=True)
class SweepResult:
    radii: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]  # counts[i][run] for radii[i]

    @property
    def rows(self) -> list[tuple[float, float, float]]:
        out = []
        for r, per_run in zip(self.radii, self.counts):
            arr = np.asarray(per_run, dtype=float)
            out.append((r, float(arr.mean()), float(arr.std())))
        return out


def sweep_safe_radius(cfg: EpidemicConfig, radii: Sequence[float], T: float, runs: int,
                      domain: SignalDomain | None = None) -> SweepResult:
    """Monitor the safe-radius property across radii over repeated simulations.

    Each run simulates once and monitors every radius on the same trace, so
    per-run monotonicity in r is observable.  Counts are the number of
    locations satisfied at time zero.
    """
    from .algebra import boolean_domain

    domain = domain or boolean_domain()
    interpretation = epidemic_interpretation(domain)
    counts: list[list[int]] = [[] for _ in radii]
    for run in range(runs):
        run_cfg = replace(cfg, seed=cfg.seed + run)
        model, trace = simulate_epidemic(run_cfg)
        for i, r in enumerate(radii):
            counts[i].append(
                count_satisfied(model, trace, safe_radius(r, T), domain, interpretation)
            )
    return SweepResult(tuple(radii), tuple(tuple(c) for c in counts))


def dangerous_days_counts(cfg: EpidemicConfig, runs: int,
                          domain: SignalDomain | None = None) -> list[int]:
    """Satisfied-location counts of the dangerous-days property, one per run."""
    from .algebra import boolean_domain

    domain = domain or boolean_domain()
    interpretation = epidemic_interpretation(domain)
    out = []
    for run in range(runs):
        run_cfg = replace(cfg, seed=cfg.seed + run)
        model, trace = simulate_epidemic(run_cfg)
        out.append(count_satisfied(model, trace, dangerous_days(), domain, interpretation))
    return out
