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
from dataclasses import dataclass, is_dataclass, replace
from typing import Any, Callable, Iterator, Mapping, Sequence, get_type_hints

import numpy as np
from scipy.optimize import brentq

from .algebra import SignalDomain, boolean_domain
from .logic import (
    And,
    Atomic,
    Escape,
    Eventually,
    Everywhere,
    FULL,
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
from .signals import Trace
from .space import (
    BUILTIN_DISTANCES,
    DynamicalSpatialModel,
    SpatialModel,
    both_directions,
    check_finite_positions,
    delaunay_edges,
    radius_edges,
)

# SEIR state encoding used by the single trace variable "state"
SUSCEPTIBLE, EXPOSED, INFECTED, RECOVERED = 0, 1, 2, 3


class ConfigError(ValueError):
    pass


def _is_number(value: Any) -> bool:
    """A finite float; json.load also reads NaN, Infinity and integers past
    the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _field_value(kind, value: Any, name: str) -> Any:
    """A config field's JSON value checked against its annotation: int fields
    take integers, float fields finite numbers, bool fields booleans, tuple
    fields lists of finite numbers, and nested configs objects, checked in
    turn."""
    if is_dataclass(kind):
        if isinstance(value, Mapping):
            return _config_from_dict(kind, value, name + ".")
        ok, want = isinstance(value, kind), "an object"
    elif kind is int:
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif kind is float:
        ok, want = _is_number(value), "a finite number"
    elif kind is bool:
        ok, want = isinstance(value, bool), "true or false"
    else:  # tuple[float, ...]
        ok, want = isinstance(value, (list, tuple)) and all(map(_is_number, value)), "a list of finite numbers"
    if not ok:
        raise ConfigError(f"config field {name!r} must be {want}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _config_from_dict(cls, data: Mapping[str, Any], prefix: str = ""):
    """A ``cls`` from its JSON object; a nested object (``prefix`` is its
    dotted field name and a dot) prefixes its own check's error with that
    name."""
    types = get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"unknown config field {key!r} for {cls.__name__}")
        kwargs[key] = _field_value(types[key], value, prefix + key)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if not prefix:
            raise
        raise ConfigError(f"config field {prefix[:-1]!r}: {exc}") from None


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
        if not self.step >= 0:
            raise ConfigError(f"step must be nonnegative, got {self.step!r}")


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
        if not self.side >= 0:
            raise ConfigError(f"config field 'side' must be nonnegative, got {self.side!r}")
        if not self.jitter >= 0:
            raise ConfigError(f"config field 'jitter' must be nonnegative, got {self.jitter!r}")
        if not math.isfinite(2 * self.jitter):  # the width of each jitter draw
            raise ConfigError(f"config field 'jitter' must keep 2 * jitter finite, got {self.jitter!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ManetConfig":
        return _config_from_dict(cls, data)


def _walk(rng: np.random.Generator, cfg: SignalWalk, steps: int) -> list[float]:
    value = float(rng.uniform(cfg.lo, cfg.hi))
    out = [value]
    for step in rng.normal(0.0, cfg.step, size=steps - 1).tolist():
        value = min(max(value + step, cfg.lo), cfg.hi)
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
        check_finite_positions(positions)
        a, b = delaunay_edges(positions)
        prox_snaps.append((times[k], SpatialModel(n, a, b, positions[a] - positions[b])))
        i, j = radius_edges(positions, cfg.radius)
        conn_snaps.append((times[k], SpatialModel.undirected(n, i, j, np.ones(len(i)))))
    variables = ("coord", "router", "end_dev", "battery", "humidity", "pollution")
    one_hot = np.broadcast_to(np.eye(3)[roles][:, None, :], (n, cfg.steps, 3))
    data = np.concatenate((one_hot, np.stack([walks[v] for v in variables[3:]], axis=2)), axis=2)
    trace = Trace.from_arrays(variables, times, data.transpose(1, 0, 2), end)
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
    truncated by resampling above the cutoff.  Its (mu, sigma) is solved
    once, when the spec is built.

    A lognormal's p99 / mean is e^(z99 sigma - sigma^2 / 2), which peaks at
    e^(z99^2 / 2) ~ 14.97 at sigma = z99, so a spec at or past that ratio
    has no fit."""

    mean: float
    p99: float
    cutoff: float

    def __post_init__(self):
        if not (0 < self.mean < self.p99 <= self.cutoff):
            raise ConfigError(f"need 0 < mean < p99 <= cutoff, got {self}")
        z99 = 2.3263478740408408  # standard normal 99th percentile
        target = math.log(self.p99 / self.mean)

        def gap(sigma: float) -> float:
            return z99 * sigma - sigma * sigma / 2.0 - target

        lo, hi = 1e-9, z99 - 1e-9
        if gap(lo) * gap(hi) > 0:  # brentq's own test for a root in the bracket
            raise ConfigError(
                f"no lognormal fits {self}: p99 / mean must lie between "
                f"{math.exp(gap(lo) + target):.10g} and {math.exp(gap(hi) + target):.4g}, "
                f"got {self.p99 / self.mean:.10g}"
            )
        sigma = brentq(gap, lo, hi)
        object.__setattr__(self, "_params", (math.log(self.mean) - sigma * sigma / 2.0, sigma))

    def lognormal_params(self) -> tuple[float, float]:
        return self._params


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


def _chung_lu_edges(rng: np.random.Generator, degrees: np.ndarray, nodes: np.ndarray):
    """Expected-degree graph: pair (i, j) kept with prob min(1, d_i d_j / sum(d)).
    Pairs i < j are tried row by row (rows with d_i > 0) with one uniform draw
    each, in blocks of rows that bound the memory; returns the kept pairs.

    A draw is first compared with its row's bound min(1, d_i * top / sum(d)),
    where top is the largest d_j with j > i, and only the draws under it are
    tested exactly.  The degrees are nonnegative, and correctly rounded `*`
    and `/` are monotone, so every p_ij of the row is at most the bound: a
    draw over it would fail the exact test too, and the kept pairs are those
    of testing every pair.  A candidate's row i comes from a table of each
    draw's row in the block, and j from the draw's offset within the row."""
    total = float(degrees.sum())
    k = len(nodes)
    rows = np.flatnonzero(degrees > 0)
    top = np.append(np.maximum.accumulate(degrees[::-1])[::-1], 0.0)  # top[i] = max(degrees[i:])
    pairs = []
    for block in np.array_split(rows, 1 + len(rows) * k // 2**20):
        length = k - 1 - block  # pairs (i, j > i) of each row
        end = np.cumsum(length)
        draws = rng.random(int(length.sum()))
        bound = np.minimum(1.0, degrees[block] * top[block + 1] / total)
        index = np.flatnonzero(draws < np.repeat(bound, length))
        row = np.repeat(np.arange(len(block)), length)[index]
        a, b = block[row], index + (block + 1 - (end - length))[row]  # row i's pairs start at end - length
        kept = draws[index] < np.minimum(1.0, degrees[a] * degrees[b] / total)
        pairs.append((nodes[a[kept]], nodes[b[kept]]))
    return tuple(map(np.concatenate, zip(*pairs)))


def _contacts(rng: np.random.Generator, cfg: EpidemicConfig, degrees: np.ndarray, nodes: np.ndarray):
    """Sampled contact pairs (a < b) and their infection probabilities,
    dropping zero-probability contacts."""
    a, b = _chung_lu_edges(rng, degrees, nodes)
    alpha, mean = cfg.infection_alpha, cfg.infection_mean
    p = rng.beta(alpha, alpha * (1.0 - mean) / mean, size=len(a)) if mean != 0 else np.zeros(len(a))
    kept = p > 0
    return a[kept], b[kept], p[kept]


def _duration_days(rng: np.random.Generator, shape: float, mean: float, k: int) -> np.ndarray:
    return np.maximum(1, np.rint(rng.gamma(shape, mean / shape, size=k))).astype(int)


def _logs(p: np.ndarray) -> np.ndarray:
    """``math.log`` of each probability.  Not ``np.log``: numpy's SIMD log
    differs from libm in the last bit."""
    return np.fromiter(map(math.log, p.tolist()), dtype=float, count=len(p))


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

    Each day runs on arrays and draws in a fixed order: one uniform per trial
    (static pairs not yet tried, then the day's contacts, each pair then its
    reverse), onset durations by location, exposure ones by first trial.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.node_count
    empty = np.zeros(0, dtype=np.int64)
    static = nothing = (empty, empty, np.zeros(0))
    if cfg.include_static:
        static = _contacts(rng, cfg, _sample_degrees(rng, cfg.static_degree, n), np.arange(n))
    attendance = rng.choice(np.asarray(cfg.attendance), size=n)

    state = np.full(n, SUSCEPTIBLE, dtype=int)
    timer = np.zeros(n, dtype=int)
    seeds = rng.choice(n, size=cfg.initial_infected, replace=False) if cfg.initial_infected else empty
    state[seeds] = INFECTED
    timer[seeds] = _duration_days(rng, cfg.infectious_shape, cfg.infectious_mean_days, len(seeds))

    static_keys = static[0] * n + static[1]
    static_logs = _logs(static[2])  # a static contact's p is the same every day
    # directed contacts, each pair then its reverse, weighted by infection probability
    static_src, static_dst, static_p = both_directions(*static)
    static_tried = np.zeros(len(static_src), dtype=bool)  # (infective, susceptible) pairs tried
    snapshots = []
    states_per_day = np.zeros((cfg.horizon_days, n), dtype=int)
    for day in range(cfg.horizon_days):
        states_per_day[day] = state
        dynamic = nothing
        if cfg.include_dynamic:
            active = np.nonzero(rng.random(n) < attendance)[0]
            if len(active) >= 2:
                dynamic = _contacts(rng, cfg, _sample_degrees(rng, cfg.dynamic_degree, len(active)), active)
        dynamic_keys = dynamic[0] * n + dynamic[1]
        keys = np.sort(np.concatenate((static_keys, dynamic_keys)))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        static_at, drawn = np.searchsorted(keys, static_keys), np.searchsorted(keys, dynamic_keys)
        ps = np.zeros(len(keys))
        ps[static_at] = static[2]
        ps, pd = ps[drawn], dynamic[2]  # per drawn contact
        logs = np.zeros(len(keys))
        logs[static_at] = static_logs
        # probabilities are positive, so 0 marks a drawn contact without a static one
        logs[drawn] = _logs(np.where(ps == 0, pd, 1.0 - (1.0 - ps) * (1.0 - pd)))
        snapshots.append((float(day), SpatialModel.undirected(n, keys // n, keys % n, -logs)))

        # state update for the next day: one trial per directed contact, static ones first
        src, dst, p = map(np.concatenate, zip((static_src, static_dst, static_p), both_directions(*dynamic)))
        trial = (state[src] == INFECTED) & (state[dst] == SUSCEPTIBLE)
        trial[: len(static_tried)] &= ~static_tried
        static_tried |= trial[: len(static_tried)]
        exposed = dst[trial][rng.random(np.count_nonzero(trial)) < p[trial]]
        next_state, next_timer = state.copy(), timer.copy()
        progressing = timer > 0
        next_timer[progressing] -= 1
        done = progressing & (next_timer == 0)
        onset = np.flatnonzero(done & (state == EXPOSED))
        next_state[onset] = INFECTED
        next_timer[onset] = _duration_days(rng, cfg.infectious_shape, cfg.infectious_mean_days, len(onset))
        next_state[done & (state == INFECTED)] = RECOVERED
        # trial targets are susceptible today, and susceptible nodes do not progress
        exposed = exposed[np.sort(np.unique(exposed, return_index=True)[1])]
        next_state[exposed] = EXPOSED
        next_timer[exposed] = _duration_days(rng, cfg.exposed_shape, cfg.exposed_mean_days, len(exposed))
        state, timer = next_state, next_timer

    days = np.arange(cfg.horizon_days, dtype=float)
    trace = Trace.from_arrays(("state",), days, states_per_day[:, :, None], days[-1])
    return DynamicalSpatialModel(tuple(snapshots)), trace


def epidemic_interpretation(domain: SignalDomain) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    """Atoms susceptible/exposed/infected/recovered over the whole trace's state variable."""

    def is_state(code: int) -> Callable[[np.ndarray], np.ndarray]:
        return lambda data: np.where(data[..., 0] == code, domain.top, domain.bottom)

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


@dataclass(frozen=True)
class SweepResult:
    radii: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]  # counts[i][run] for radii[i]

    @property
    def rows(self) -> list[tuple[float, float, float]]:
        counts = [np.asarray(per_run, dtype=float) for per_run in self.counts]
        return [(r, float(c.mean()), float(c.std())) for r, c in zip(self.radii, counts)]


def _run_contexts(cfg: EpidemicConfig, runs: int) -> Iterator[MonitorContext]:
    """One Boolean context per run, simulated from seeds cfg.seed,
    cfg.seed + 1, ..., with the built-in distances and the epidemic atoms:
    the formulas monitored on a run's context share their subformulas."""
    if runs < 1:
        raise ConfigError(f"need at least one run, got runs = {runs}")
    domain = boolean_domain()
    distances = {name: make() for name, make in BUILTIN_DISTANCES.items()}
    interpretation = epidemic_interpretation(domain)
    for run in range(runs):
        model, trace = simulate_epidemic(replace(cfg, seed=cfg.seed + run))
        yield MonitorContext(model, trace, domain, distances, interpretation)


def _satisfied_at_start(ctx: MonitorContext, formula: Formula) -> int:
    return len(satisfied_locations(monitor(ctx, formula), ctx, t=0.0))


def sweep_safe_radius(cfg: EpidemicConfig, radii: Sequence[float], T: float, runs: int) -> SweepResult:
    """Monitor the safe-radius property across radii over repeated simulations.

    Each run simulates once and monitors every radius on the run's one
    context, so per-run monotonicity in r is observable and the radii share
    ``G[0,T] !infected``.  Counts are the number of locations satisfied at
    time zero.
    """
    per_run = [[_satisfied_at_start(ctx, safe_radius(r, T)) for r in radii] for ctx in _run_contexts(cfg, runs)]
    return SweepResult(tuple(radii), tuple(zip(*per_run)))


def dangerous_days_counts(cfg: EpidemicConfig, runs: int) -> list[int]:
    """Satisfied-location counts of the dangerous-days property, one per run."""
    return [_satisfied_at_start(ctx, dangerous_days()) for ctx in _run_contexts(cfg, runs)]
