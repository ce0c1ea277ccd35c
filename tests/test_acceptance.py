"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.  Criterion 1 is split: the golden suite checks the five published
properties, and a second check pins the walkthrough's remark about location
8.  That remark holds for routes of positive length (`reach[1,1]` is false
there); with the zero-length prefix the router at location 8 is its own
witness, so `reach[0,1]` is true there.  Both verdict sets are compared with
route enumeration on all 16 locations.
"""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    NETWORK16_END_DEV,
    NETWORK16_ROUTER,
    compare_spatiotemporal,
    make_network16_ctx,
    network16_model,
    random_formula,
    random_instance,
    random_model,
    standard_distances,
)
from strelmon.algebra import boolean_domain, maxmin_domain
from strelmon.logic import (
    Atomic,
    Escape,
    Everywhere,
    Interval,
    Not,
    Reach,
    Somewhere,
    UNBOUNDED,
    format_formula,
    parse,
)
from strelmon.monitor import (
    MonitorContext,
    SemanticError,
    bounded_reach,
    escape,
    monitor,
    satisfied_locations,
    unbounded_reach,
)
from strelmon.oracle import (
    dense_unbounded_reach,
    oracle_monitor,
    simple_path_escape,
    walk_reach,
)
from strelmon.scenarios import (
    EpidemicConfig,
    dangerous_days_counts,
    sweep_safe_radius,
)
from strelmon.signals import TemporalSignal, Trace
from strelmon.space import (
    DynamicalSpatialModel,
    EuclideanPositions,
    build_spatial_model,
    euclidean_model,
    euclidean_norm_distance,
    hop_distance,
    weight_sum_distance,
)

BOOL = boolean_domain()
QUANT = maxmin_domain()


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: the 16-node golden suite


def test_criterion_1_golden_spatial_suite():
    started = time.monotonic()
    ctx = make_network16_ctx()
    failures = []

    reach_sat = set(satisfied_locations(monitor(ctx, parse("end_dev reach(hop)[0,1] router")), ctx))
    if 5 not in reach_sat:
        failures.append("reach not true at location 6")

    escape_sat = set(satisfied_locations(monitor(ctx, parse("escape(hop)[2,inf] !end_dev")), ctx))
    if 9 not in escape_sat:
        failures.append("escape not true at location 10")

    somewhere_sat = satisfied_locations(monitor(ctx, parse("somewhere(hop)[0,4] coord")), ctx)
    if somewhere_sat != list(range(16)):
        failures.append(f"somewhere true at {somewhere_sat}, expected all 16")

    everywhere_sat = satisfied_locations(monitor(ctx, parse("everywhere(hop)[0,2] router")), ctx)
    if everywhere_sat:
        failures.append(f"everywhere true at {everywhere_sat}, expected none")

    surround_sat = set(
        satisfied_locations(monitor(ctx, parse("(coord|router) surround(hop)[0,3] end_dev")), ctx)
    )
    if 9 not in surround_sat:
        failures.append("surround not true at location 10")

    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, expected < 1s")
    ok = report(
        "1 (golden suite)",
        not failures,
        failures[0] if failures else f"five properties as published, {elapsed * 1000:.0f} ms",
    )
    assert ok, failures


def test_criterion_1_reach_false_at_location_8_as_stated():
    # The published walkthrough calls location 8 a non-satisfier of
    # `end_dev reach(hop)[0,1] router` because it is not an end device.  That
    # reason holds for routes of positive length only: the route-prefix
    # semantics admits the zero-length prefix, which asks nothing of the left
    # operand, so a router (location 8 is one) is its own witness at distance
    # zero.  The check therefore pins the exact statement: the [0,1] verdicts
    # agree with route enumeration, location 8 falsifies the [1,1] form as the
    # walkthrough says, and it satisfies [0,1] only through the zero-length
    # prefix.
    ctx = make_network16_ctx()
    model = network16_model()
    f = hop_distance()
    s1 = [loc + 1 in NETWORK16_END_DEV for loc in range(16)]
    s2 = [loc + 1 in NETWORK16_ROUTER for loc in range(16)]

    def engine_sat(formula):
        return set(satisfied_locations(monitor(ctx, parse(formula)), ctx))

    def walk_sat(d1, d2):
        return {loc for loc in range(16) if walk_reach(model, f, d1, d2, s1, s2, BOOL, loc)}

    sat01 = engine_sat("end_dev reach(hop)[0,1] router")
    sat11 = engine_sat("end_dev reach(hop)[1,1] router")
    failures = []
    if sat01 != walk_sat(0, 1):
        failures.append(f"[0,1] satisfiers {sorted(sat01)} differ from route enumeration")
    if 7 not in sat01:
        failures.append("[0,1] not true at location 8, a router at distance zero")
    if sat11 != walk_sat(1, 1):
        failures.append(f"[1,1] satisfiers {sorted(sat11)} differ from route enumeration")
    if 7 in sat11:
        failures.append("[1,1] true at location 8, which is not an end device")
    if (7 in sat01) != (s2[7] or 7 in sat11):
        failures.append("[0,1] at location 8 is not router or [1,1]")
    ok = report(
        "1 (location 8: reach[1,1] false, reach[0,1] true by the zero-length prefix)",
        not failures,
        failures[0] if failures else "both intervals match route enumeration on all 16 locations",
    )
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence on 1000 randomized instances


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20_002)
    dists = standard_distances()
    checked = 0
    while checked < 1000:
        domain = BOOL if checked % 2 == 0 else QUANT
        dm, trace = random_instance(rng, domain)
        formula = random_formula(rng, rng.randint(1, 4))
        ctx = MonitorContext(model=dm, trace=trace, domain=domain, distances=dists)
        try:
            got = monitor(ctx, formula)
        except SemanticError:
            continue  # interval exceeded the horizon; draw a fresh instance
        want = oracle_monitor(ctx, formula)
        compare_spatiotemporal(got, want, domain, tol=0.0 if domain is BOOL else 1e-9)
        checked += 1
    elapsed = time.monotonic() - started
    ok = report(
        "2 (oracle equivalence)",
        elapsed < 60.0,
        f"1000 instances, both domains, {elapsed:.1f}s (< 60s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: spatial operators against enumeration, 300 instances each


def _random_spatial(rng, domain, n):
    if domain is BOOL:
        return [rng.random() < 0.5 for _ in range(n)]
    return [rng.randint(-8, 8) / 4 for _ in range(n)]


def test_criterion_3_enumeration_oracles():
    rng = random.Random(30_003)
    f = weight_sum_distance()
    mismatches = 0
    for case in range(300):
        domain = BOOL if case % 2 == 0 else QUANT
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1 = _random_spatial(rng, domain, n)
        s2 = _random_spatial(rng, domain, n)
        d1 = rng.choice([0.0, 1.0, 2.0])
        d2 = d1 + rng.choice([0.0, 1.0, 3.0])
        got = bounded_reach(model, f, d1, d2, s1, s2)
        want = [walk_reach(model, f, d1, d2, s1, s2, domain, loc) for loc in range(n)]
        mismatches += _count_mismatch(got, want, domain)
    for case in range(300):
        domain = BOOL if case % 2 == 0 else QUANT
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1 = _random_spatial(rng, domain, n)
        s2 = _random_spatial(rng, domain, n)
        d1 = rng.choice([0.0, 1.0, 2.0, 4.0])
        got = unbounded_reach(model, f, d1, s1, s2)
        want = dense_unbounded_reach(model, f, d1, s1, s2, domain)
        mismatches += _count_mismatch(got, want, domain)
    for case in range(300):
        domain = BOOL if case % 2 == 0 else QUANT
        n = rng.randint(1, 6)
        model = random_model(rng, n, 10)
        s1 = _random_spatial(rng, domain, n)
        d1 = rng.choice([0.0, 1.0, 2.0])
        hi = rng.choice([1.0, 3.0, None])
        got = escape(model, f, Interval(d1, None if hi is None else d1 + hi), s1)
        want = simple_path_escape(
            model, f, d1, math.inf if hi is None else d1 + hi, s1, domain
        )
        mismatches += _count_mismatch(got, want, domain)
    ok = report(
        "3 (enumeration oracles)",
        mismatches == 0,
        f"bounded/unbounded reach and escape vs enumeration, 300 instances each, "
        f"{mismatches} mismatches",
    )
    assert ok


def _count_mismatch(got, want, domain):
    bad = 0
    for a, b in zip(got, want):
        if domain is BOOL:
            bad += a != b
        else:
            bad += not (a == b or abs(a - b) <= 1e-9)
    return bad


# ---------------------------------------------------------------------------
# criterion 4: derived-operator and algebraic identities


def test_criterion_4_identities():
    rng = random.Random(40_004)
    dists = standard_distances()
    violations = 0
    checked = 0
    while checked < 120:
        domain = BOOL if checked % 2 == 0 else QUANT
        dm, trace = random_instance(rng, domain)
        ctx = MonitorContext(model=dm, trace=trace, domain=domain, distances=dists)
        phi1 = random_formula(rng, 1)
        phi2 = random_formula(rng, 1)
        dist = rng.choice(["hop", "weight"])
        interval = Interval(0, rng.choice([1.0, 2.0]))
        tol = 0.0 if domain is BOOL else 1e-9
        # each side on a fresh copy of the context: a context keeps its verdicts
        try:
            ew = monitor(replace(ctx), Everywhere(interval, dist, phi1))
            dual = monitor(replace(ctx), Not(Somewhere(interval, dist, Not(phi1))))
            compare_spatiotemporal(ew, dual, domain, tol)

            zero = monitor(replace(ctx), Reach(Interval(0, 0), dist, phi1, phi2))
            target = monitor(replace(ctx), phi2)
            compare_spatiotemporal(zero, target, domain, tol, allow_subdomain=True)

            esc = monitor(replace(ctx), Escape(Interval(0, UNBOUNDED), dist, phi1))
            ident = monitor(replace(ctx), phi1)
            compare_spatiotemporal(esc, ident, domain, tol, allow_subdomain=True)
        except SemanticError:
            continue
        except AssertionError:
            violations += 1
        checked += 1

    sign_checked = 0
    while sign_checked < 120:
        dm, trace = random_instance(rng, QUANT)
        formula = random_formula(rng, rng.randint(1, 3))
        qctx = MonitorContext(model=dm, trace=trace, domain=QUANT, distances=dists)
        bctx = MonitorContext(model=dm, trace=trace, domain=BOOL, distances=dists)
        try:
            q = monitor(qctx, formula)
        except SemanticError:
            continue
        b = monitor(bctx, formula)
        probes = sorted(set(q.step_times()) | set(b.step_times()))
        for loc in range(q.location_count):
            for t in probes:
                qv = q.value_at(loc, t)
                bv = b.value_at(loc, t)
                if (qv > 0 and bv is not True) or (qv < 0 and bv is not False):
                    violations += 1
        sign_checked += 1
    ok = report(
        "4 (derived operators and identities)",
        violations == 0,
        f"everywhere duality, reach[0,0], escape[0,inf], sign soundness: "
        f"{violations} violations",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: isometry invariance


def _apply_isometry(rng, points):
    theta = rng.uniform(0, 2 * math.pi)
    tx, ty = rng.uniform(-50, 50), rng.uniform(-50, 50)
    reflect = rng.random() < 0.5
    out = []
    for x, y in points:
        if reflect:
            x = -x
        xr = x * math.cos(theta) - y * math.sin(theta) + tx
        yr = x * math.sin(theta) + y * math.cos(theta) + ty
        out.append((xr, yr))
    return out


def test_criterion_5_isometry_invariance():
    rng = random.Random(50_005)
    dists = {"euclid": euclidean_norm_distance()}
    mismatches = 0
    for case in range(50):
        n = rng.randint(3, 7)
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(pairs)
        relation = pairs[: rng.randint(n, min(len(pairs), 3 * n))]
        model_a = euclidean_model(EuclideanPositions(tuple(points)), relation)
        model_b = euclidean_model(
            EuclideanPositions(tuple(_apply_isometry(rng, points))), relation
        )
        times = (0.0,)
        domain = BOOL if case % 2 == 0 else QUANT
        trace = Trace(
            ("x", "y"),
            tuple(
                TemporalSignal(
                    times,
                    ((rng.randint(-8, 8) / 4, rng.randint(-8, 8) / 4),),
                    1.0,
                )
                for _ in range(n)
            ),
        )
        r1 = round(rng.uniform(0.5, 6.0), 3)
        r2 = round(r1 + rng.uniform(0.5, 6.0), 3)
        formulas = [
            Reach(Interval(r1, r2), "euclid", Atomic("x", ">", 0.0), Atomic("y", "<", 1.0)),
            Reach(Interval(0.0, r2), "euclid", Atomic("x", ">", 0.0), Atomic("y", "<", 1.0)),
            Escape(Interval(r1, UNBOUNDED), "euclid", Atomic("x", ">", 0.0)),
        ]
        for formula in formulas:
            ctx_a = MonitorContext(
                model=DynamicalSpatialModel.static(model_a),
                trace=trace, domain=domain, distances=dists,
            )
            ctx_b = MonitorContext(
                model=DynamicalSpatialModel.static(model_b),
                trace=trace, domain=domain, distances=dists,
            )
            va = monitor(ctx_a, formula)
            vb = monitor(ctx_b, formula)
            for loc in range(n):
                a = va.value_at(loc, 0.0)
                b = vb.value_at(loc, 0.0)
                if domain is BOOL:
                    mismatches += a != b
                else:
                    mismatches += not (a == b or abs(a - b) <= 1e-9)
    ok = report(
        "5 (isometry invariance)",
        mismatches == 0,
        f"50 random planar models under rotation+translation+reflection, "
        f"{mismatches} verdict changes",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: performance scaling


def _scaling_instance(n, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 4 * n:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.add((a, b))
    model = build_spatial_model(n, [(a, 1.0, b) for a, b in edges])
    times = tuple(float(k) for k in range(10))
    signals = tuple(
        TemporalSignal(
            times,
            tuple((float(rng.random() < 0.3), float(rng.random() < 0.1)) for _ in times),
            10.0,
        )
        for _ in range(n)
    )
    trace = Trace(("p", "q"), signals)
    return MonitorContext(
        model=DynamicalSpatialModel.static(model),
        trace=trace,
        domain=boolean_domain(),
        distances={"hop": hop_distance()},
    )


def test_criterion_6_scaling():
    formula = parse("p reach(hop)[0,3] q")
    best = {}
    for n in (1000, 2000, 4000):
        runs = []
        for attempt in range(3):
            ctx = _scaling_instance(n, seed=attempt)
            start = time.perf_counter()
            monitor(ctx, formula)
            runs.append(time.perf_counter() - start)
        best[n] = min(runs)
    exponent = math.log(best[4000] / best[1000]) / math.log(4.0)
    ok_time = best[1000] < 10.0
    ok_fit = exponent <= 2.3
    ok = report(
        "6 (performance scaling)",
        ok_time and ok_fit,
        f"1000 nodes in {best[1000]:.3f}s (< 10s), growth exponent "
        f"{exponent:.2f} over 1k->4k (<= 2.3); times {dict((k, round(v, 3)) for k, v in best.items())}",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: epidemic qualitative reproduction


@pytest.mark.slow
def test_criterion_7_epidemic_reproduction():
    started = time.monotonic()
    runs = 20

    # (a) one-network-at-a-time comparison of the dangerous-days property
    base = dict(
        node_count=500,
        horizon_days=100,
        initial_infected=3,
        exposed_mean_days=4.0,
        infectious_mean_days=24.0,
    )
    static_counts = dangerous_days_counts(
        EpidemicConfig(**base, include_dynamic=False, seed=71_000), runs=runs
    )
    dynamic_counts = dangerous_days_counts(
        EpidemicConfig(**base, include_static=False, seed=72_000), runs=runs
    )
    s_mean, s_std = float(np.mean(static_counts)), float(np.std(static_counts))
    d_mean, d_std = float(np.mean(dynamic_counts)), float(np.std(dynamic_counts))
    ok_a = s_mean > d_mean and d_std > s_std

    # (b) safe-radius sweep: per-run monotone, spanning the published shape
    sweep_cfg = EpidemicConfig(
        node_count=500,
        horizon_days=70,
        initial_infected=25,
        infectious_mean_days=24.0,
        seed=73_000,
    )
    radii = [0.5, 3.0, 8.0, 20.0]
    result = sweep_safe_radius(sweep_cfg, radii, T=7.0, runs=runs)
    monotone = all(
        all(
            result.counts[i][run] <= result.counts[i + 1][run]
            for i in range(len(radii) - 1)
        )
        for run in range(runs)
    )
    rows = result.rows
    low_frac = rows[0][1] / 500.0
    high_frac = rows[-1][1] / 500.0
    ok_b = monotone and low_frac < 0.60 and high_frac > 0.90

    elapsed = time.monotonic() - started
    ok = ok_a and ok_b and elapsed < 600.0
    report(
        "7 (epidemic reproduction)",
        ok,
        f"(a) static {s_mean:.0f}+/-{s_std:.0f} vs dynamic {d_mean:.0f}+/-{d_std:.0f}; "
        f"(b) monotone={monotone}, span {low_frac:.0%} -> {high_frac:.0%}; "
        f"{elapsed:.0f}s (< 600s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: parser round-trip and property strings


def test_criterion_8_parser():
    rng = random.Random(80_008)
    bad = 0
    for _ in range(100):
        formula = random_formula(rng, rng.randint(0, 4))
        if parse(format_formula(formula)) != formula:
            bad += 1

    from strelmon.scenarios import property_library

    lib = property_library()
    documented = [
        lib["connect"](),
        lib["reliable_connect"](),
        lib["connect_restore"](4.0),
        lib["cycle"](0),
        lib["acyclic"](0),
        lib["pollution_humidity"](10.0),
        lib["safe_route"](2.0, 10.0),
        lib["somewhere_safe"](1.0, 2.0, 10.0),
        lib["target_reachable"](4.0),
        lib["dangerous_days"](),
        lib["safe_radius"](3.0, 7.0),
    ]
    for formula in documented:
        if parse(format_formula(formula)) != formula:
            bad += 1
    ok = report(
        "8 (parser round-trip)",
        bad == 0,
        f"100 random trees + {len(documented)} named properties, {bad} round-trip failures",
    )
    assert ok
