"""The benchmark's four workloads.

Each workload builds its inputs from a seed (``setup``), monitors its whole
formula set once (``run``), and turns the outputs into checkable verdicts
(``verdicts``).  ``oracle_cases`` builds a down-scaled instance from the same
generator and formula set, small enough for the brute-force oracle.

Calls into strelmon go through module attributes looked up at call time, so
the tracing wrappers that ``tracing.py`` installs on those attributes see
them.  Modules are resolved with ``importlib.import_module`` because the
package rebinds the attribute ``strelmon.monitor`` to the function.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import random

algebra = importlib.import_module("strelmon.algebra")
cli = importlib.import_module("strelmon.cli")
logic = importlib.import_module("strelmon.logic")
monitor_mod = importlib.import_module("strelmon.monitor")
oracle = importlib.import_module("strelmon.oracle")
scenarios = importlib.import_module("strelmon.scenarios")
signals = importlib.import_module("strelmon.signals")
space = importlib.import_module("strelmon.space")


def _distances() -> dict:
    return {name: make() for name, make in space.BUILTIN_DISTANCES.items()}


def _context(model, trace, domain, interpretation=None):
    return monitor_mod.MonitorContext(
        model=model,
        trace=trace,
        domain=domain,
        distances=_distances(),
        interpretation=interpretation,
    )


def signal_digest(result) -> str:
    """SHA-256 over every location's minimized (time, value) steps."""
    h = hashlib.sha256()
    for loc, sig in enumerate(result.signals):
        sig = sig.minimize()
        h.update(repr((loc, sig.times, sig.values, sig.end_time)).encode())
    return h.hexdigest()


class Workload:
    """One seeded input family with a fixed formula set.

    ``formulas`` lists (domain name, formula text) pairs; ``expected_spans``
    names the traced spans that must fire on this workload.
    """

    name = ""
    sizes: dict = {}
    formulas: list = []
    expected_spans: frozenset = frozenset()

    def setup(self, seed: int, size: dict, workdir: str):
        raise NotImplementedError

    def run(self, inst) -> list:
        """Monitor every formula once; returns (context, result) pairs."""
        out = []
        for ctx, text in inst:
            formula = logic.parse(text)
            out.append((ctx, monitor_mod.monitor(ctx, formula)))
        return out

    def verdicts(self, inst, outputs) -> list:
        """(formula text, satisfied locations at the start, digest) per formula."""
        return [
            (text, len(monitor_mod.satisfied_locations(result, ctx)), signal_digest(result))
            for (ctx, text), (_, result) in zip(inst, outputs)
        ]

    def invariants(self, verdicts) -> list:
        """Named (label, holds) checks on one repetition's verdicts."""
        return []

    def oracle_cases(self, seed: int) -> list:
        """(context, formula text, max_steps) on a down-scaled instance."""
        raise NotImplementedError

    def core_nodes(self) -> int:
        """Distinct core subformulas over the formula set."""
        return sum(
            len(set(logic.iter_subformulas(logic.desugar(logic.parse(text)))))
            for _, text in self.formulas
        )

    def _pair(self, bool_ctx, quant_ctx) -> list:
        return [
            (bool_ctx if dom == "boolean" else quant_ctx, text) for dom, text in self.formulas
        ]


# ---------------------------------------------------------------------------


class Epidemic(Workload):
    """The paper's headline experiment: safe-radius sweep and dangerous days
    on one SEIR run (criterion-7(b) config), Boolean domain."""

    name = "epidemic"
    radii = (0.5, 3.0, 8.0, 20.0)
    sizes = {
        "full": {"nodes": 500, "days": 14, "infected": 25},
        "tiny": {"nodes": 40, "days": 10, "infected": 4},
    }
    formulas = [
        ("boolean", logic.format_formula(scenarios.safe_radius(r, 7.0))) for r in radii
    ] + [("boolean", logic.format_formula(scenarios.dangerous_days()))]
    expected_spans = frozenset({
        "scenarios.simulate_epidemic", "logic.parse", "logic.desugar", "monitor",
        "monitor.bounded_reach", "space.check_strictly_positive", "monitor.until",
    })

    def _contexts(self, cfg) -> list:
        model, trace = scenarios.simulate_epidemic(cfg)
        dom = algebra.boolean_domain()
        ctx = _context(model, trace, dom, scenarios.epidemic_interpretation(dom))
        return [(ctx, text) for _, text in self.formulas]

    def setup(self, seed, size, workdir):
        return self._contexts(scenarios.EpidemicConfig(
            node_count=size["nodes"],
            horizon_days=size["days"],
            initial_infected=size["infected"],
            infectious_mean_days=24.0,
            seed=seed,
        ))

    def invariants(self, verdicts):
        counts = [count for _, count, _ in verdicts[: len(self.radii)]]
        return [("safe_radius counts monotone in r", counts == sorted(counts))]

    def oracle_cases(self, seed):
        # Sparse contact networks keep the oracle's route enumeration small.
        degree = scenarios.DegreeSpec(1.5, 4.0, 6.0)
        inst = self._contexts(scenarios.EpidemicConfig(
            node_count=8,
            horizon_days=10,
            initial_infected=3,
            infectious_mean_days=24.0,
            static_degree=degree,
            dynamic_degree=degree,
            seed=seed,
        ))
        return [(ctx, text, 10) for ctx, text in inst]


# ---------------------------------------------------------------------------


def random_digraph_instance(seed: int, n: int, steps: int):
    """Static random digraph with 4n unit edges and a p, q, x trace."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 4 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    model = space.build_spatial_model(n, [(a, 1.0, b) for a, b in sorted(edges)])
    times = tuple(float(k) for k in range(steps))
    sigs = tuple(
        signals.TemporalSignal(
            times,
            tuple(
                (float(rng.random() < 0.3), float(rng.random() < 0.1), rng.random())
                for _ in times
            ),
            float(steps),
        )
        for _ in range(n)
    )
    return space.DynamicalSpatialModel.static(model), signals.Trace(("p", "q", "x"), sigs)


class StaticReach(Workload):
    """Criterion-6 scale: one static snapshot reused by every spatial call."""

    name = "static_reach"
    sizes = {"full": {"nodes": 4000, "steps": 5}, "tiny": {"nodes": 200, "steps": 3}}
    formulas = [
        ("boolean", "p reach(hop)[0,3] q"),
        ("boolean", "p reach(hop) q"),
        ("boolean", "everywhere(hop)[0,2] p"),
        ("quantitative", "(x > 0.2) reach(hop)[0,3] (x > 0.9)"),
        ("quantitative", "(x > 0.2) reach(hop) (x > 0.9)"),
    ]
    expected_spans = frozenset({
        "logic.parse", "logic.desugar", "monitor", "monitor.bounded_reach",
        "monitor.unbounded_reach", "space.check_strictly_positive",
    })

    def _contexts(self, seed, n, steps) -> list:
        model, trace = random_digraph_instance(seed, n, steps)
        return self._pair(
            _context(model, trace, algebra.boolean_domain()),
            _context(model, trace, algebra.maxmin_domain()),
        )

    def setup(self, seed, size, workdir):
        return self._contexts(seed, size["nodes"], size["steps"])

    def oracle_cases(self, seed):
        return [(ctx, text, 6) for ctx, text in self._contexts(seed, 8, 5)]


# ---------------------------------------------------------------------------


def ring_instance(seed: int, n: int, steps: int, dt: float):
    """Bidirectional unit ring with a p, x trace that steps every dt."""
    rng = random.Random(seed)
    model = space.undirected_model(n, [(i, 1.0, (i + 1) % n) for i in range(n)])
    times = tuple(k * dt for k in range(steps))
    sigs = tuple(
        signals.TemporalSignal(
            times,
            tuple((float(rng.random() < 0.3), rng.uniform(0.0, 10.0)) for _ in times),
            steps * dt,
        )
        for _ in range(n)
    )
    return space.DynamicalSpatialModel.static(model), signals.Trace(("p", "x"), sigs)


class LongTrace(Workload):
    """Temporal sweeps dominate; the only spatial work is one small reach."""

    name = "long_trace"
    sizes = {"full": {"nodes": 10, "steps": 800}, "tiny": {"nodes": 4, "steps": 80}}
    formulas = [
        ("boolean", "F[0,50] p"),
        ("boolean", "p S[0,20] (x > 8)"),
        ("boolean", "somewhere(hop)[0,2] F[0,10] p"),
        ("quantitative", "G[0,50] (x > 3)"),
        ("quantitative", "p U[0,20] (x > 8)"),
    ]
    expected_spans = frozenset({
        "logic.parse", "logic.desugar", "monitor", "monitor.until", "monitor.since",
    })

    def _contexts(self, seed, n, steps, dt) -> list:
        model, trace = ring_instance(seed, n, steps, dt)
        return self._pair(
            _context(model, trace, algebra.boolean_domain()),
            _context(model, trace, algebra.maxmin_domain()),
        )

    def setup(self, seed, size, workdir):
        return self._contexts(seed, size["nodes"], size["steps"], 1.0)

    def oracle_cases(self, seed):
        # Longer steps stretch 8 steps past the largest window (50).
        return [(ctx, text, 8) for ctx, text in self._contexts(seed, 8, 8, 9.0)]


# ---------------------------------------------------------------------------


def manet_config(nodes: int, steps: int, seed: int):
    """About 30% routers; the side keeps the default 20-nodes-per-100 density."""
    routers = max(1, (3 * nodes) // 10)
    return scenarios.ManetConfig(
        node_count=nodes,
        routers=routers,
        end_devices=nodes - 1 - routers,
        side=10.0 * math.sqrt(nodes / 20.0),
        steps=steps,
        seed=seed,
    )


class ManetCli(Workload):
    """The CLI end to end: simulate writes the files, monitor reads them back."""

    name = "manet_cli"
    sizes = {"full": {"nodes": 100, "steps": 14}, "tiny": {"nodes": 12, "steps": 12}}
    formulas = [
        ("boolean", logic.format_formula(scenarios.connect())),
        ("quantitative", logic.format_formula(scenarios.safe_route(2.0, 10.0))),
    ]
    models = ("connectivity", "proximity")
    expected_spans = frozenset({
        "cli", "scenarios.generate_manet", "space.save_model", "signals.save_trace",
        "space.load_model", "signals.load_trace", "cli.write_signal_csv", "logic.parse",
        "logic.desugar", "monitor", "monitor.unbounded_reach", "monitor.escape",
        "space.min_distance_matrix",
    })

    def setup(self, seed, size, workdir):
        config = os.path.join(workdir, "manet.json")
        with open(config, "w") as fh:
            json.dump(dataclasses.asdict(manet_config(size["nodes"], size["steps"], seed)), fh)
        prefix = os.path.join(workdir, "net")
        _cli(["simulate", "manet", "--config", config, "--seed", str(seed), "--out", prefix])
        return [
            (f"{prefix}.{model}.json", f"{prefix}.trace.csv", dom, text,
             os.path.join(workdir, f"verdicts{i}.csv"))
            for i, (model, (dom, text)) in enumerate(zip(self.models, self.formulas))
        ]

    def run(self, inst):
        return [
            _cli(["monitor", "--model", model, "--trace", trace, "--formula", text,
                  "--domain", dom, "--out", out])
            for model, trace, dom, text, out in inst
        ]

    def verdicts(self, inst, outputs):
        rows = []
        for _, _, _, text, out in inst:
            with open(out, "rb") as fh:
                data = fh.read()
            first: dict[str, float] = {}
            for loc, _t, value in list(csv.reader(io.StringIO(data.decode())))[1:]:
                first.setdefault(loc, float(value))
            count = sum(1 for v in first.values() if v > 0)
            rows.append((text, count, hashlib.sha256(data).hexdigest()))
        return rows

    def oracle_cases(self, seed):
        proximity, connectivity, trace = scenarios.generate_manet(manet_config(8, 12, seed))
        by_name = {"connectivity": connectivity, "proximity": proximity}
        return [
            (_context(by_name[model], trace, algebra.signal_domain_by_name(dom)), text, 12)
            for model, (dom, text) in zip(self.models, self.formulas)
        ]


def _cli(argv: list) -> str:
    """Run the CLI in-process with stdout captured; a nonzero exit raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"strelmon {argv[0]} exited with {code}")
    return buf.getvalue()


WORKLOADS = {w.name: w for w in (Epidemic(), StaticReach(), LongTrace(), ManetCli())}
