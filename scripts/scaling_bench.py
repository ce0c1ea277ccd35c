#!/usr/bin/env python3
"""Wall-time scaling of monitoring over growing random graphs or traces.

Either the location count (--sizes) or the trace length (--steps) may list
several values; the growth exponent is fitted over the one that does.

  reach over nodes:  scaling_bench.py --sizes 1000,2000,4000
  until over steps:  scaling_bench.py --sizes 1 --steps 1000,2000,4000,8000,16000 --formula "F[0,50] p"
  until with a positive lower bound (each window also has a head), and since, over steps:
    scaling_bench.py --sizes 1 --steps 4000,16000 --formula "p U[2,50] q"
    scaling_bench.py --sizes 1 --steps 4000,16000 --formula "p S[0,50] q"
  quantitative reach over nodes:
    scaling_bench.py --sizes 1000,2000,4000,8000 --domain quantitative --formula "(x > 0.2) reach(hop)[0,3] (x > 0.9)"
  escape over nodes on undirected graphs:
    scaling_bench.py --sizes 250,500,1000,2000 --steps 1 --undirected --formula "escape(hop)[2,inf] p"
  until over locations stepping at their own times:
    scaling_bench.py --sizes 100,200,300 --steps 40 --async --formula "F[0,1] p"
  Boolean reach over long paths from one end:
    scaling_bench.py --sizes 1000,2000,4000,8000,16000 --steps 1 --graph path --formula "true reach(hop)[0,16000] at_0"

A random graph (the default) draws 4 * n distinct directed edges;
--undirected also lists the reverse of each.  --graph path joins location k
to k + 1, and --graph grid lays the locations out row by row in ceil(sqrt(n))
columns and joins each to its right and lower neighbours; both list every
edge in both directions and draw none.  Each location carries Boolean
variables p and q and a uniform [0, 1) variable x, drawn from its own random
stream.  Every location steps at the times 0, 1, ..., steps - 1, or with
--async at 0 and steps - 1 distinct times on a 1/128 grid below steps, drawn
per location from a third stream; the values are the same draws either way.

The timer covers the `monitor` call alone.  A trace built from signals
stacks its step grid on first use, so the grid is built before the timer
starts: otherwise each figure would also hold that stacking, about half of
an until or since figure at 16000 steps.
"""

import argparse
import math
import random
import time

from strelmon.algebra import signal_domain_by_name
from strelmon.logic import parse
from strelmon.monitor import MonitorContext, monitor
from strelmon.signals import TemporalSignal, Trace
from strelmon.space import DynamicalSpatialModel, build_spatial_model, hop_distance


def graph_edges(graph: str, n: int, rng: random.Random) -> set:
    """The (src, dst) pairs of a random, path or grid graph on n locations."""
    if graph == "random":
        edges = set()
        while len(edges) < min(4 * n, n * (n - 1)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((a, b))
        return edges
    if graph == "path":
        edges = {(k, k + 1) for k in range(n - 1)}
    else:
        width = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) columns
        edges = {(k, k + 1) for k in range(n - 1) if (k + 1) % width} | {(k, k + width) for k in range(n - width)}
    return edges | {(b, a) for a, b in edges}


def instance(
    n: int,
    steps: int,
    seed: int,
    domain: str = "boolean",
    undirected: bool = False,
    asynchronous: bool = False,
    graph: str = "random",
) -> MonitorContext:
    rng, xs, ts = random.Random(seed), random.Random(f"x{seed}"), random.Random(f"t{seed}")
    edges = graph_edges(graph, n, rng)
    if undirected:
        edges |= {(b, a) for a, b in edges}
    model = build_spatial_model(n, [(a, 1.0, b) for a, b in edges])
    grid = tuple(float(k) for k in range(steps))

    def own_times() -> tuple:
        if not asynchronous:
            return grid
        return (0.0, *(k / 128 for k in sorted(ts.sample(range(1, 128 * steps), steps - 1))))

    signals = tuple(
        TemporalSignal(
            times,
            tuple((float(rng.random() < 0.3), float(rng.random() < 0.1), xs.random()) for _ in times),
            float(steps),
        )
        for times in (own_times() for _ in range(n))
    )
    return MonitorContext(
        model=DynamicalSpatialModel.static(model),
        trace=Trace(("p", "q", "x"), signals),
        domain=signal_domain_by_name(domain),
        distances={"hop": hop_distance()},
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", default="1000,2000,4000", help="location counts, comma-separated")
    parser.add_argument("--steps", default="10", help="trace steps per location, comma-separated")
    parser.add_argument("--formula", default="p reach(hop)[0,3] q")
    parser.add_argument("--domain", choices=("boolean", "quantitative"), default="boolean")
    parser.add_argument("--graph", choices=("random", "path", "grid"), default="random")
    parser.add_argument("--undirected", action="store_true", help="list both directions of every edge")
    parser.add_argument("--async", dest="asynchronous", action="store_true", help="step each location at its own times")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    formula = parse(args.formula)
    sizes = [int(s) for s in args.sizes.split(",")]
    step_counts = [int(s) for s in args.steps.split(",")]
    if len(sizes) > 1 and len(step_counts) > 1:
        parser.error("only one of --sizes and --steps may list several values")
    grown = step_counts if len(step_counts) > 1 else sizes
    best = []
    for n in sizes:
        for steps in step_counts:
            runs = []
            for attempt in range(args.repeats):
                ctx = instance(
                    n,
                    steps,
                    seed=attempt,
                    domain=args.domain,
                    undirected=args.undirected,
                    asynchronous=args.asynchronous,
                    graph=args.graph,
                )
                ctx.trace.grid  # stacked here, not inside the timed call
                start = time.perf_counter()
                monitor(ctx, formula)
                runs.append(time.perf_counter() - start)
            best.append(min(runs))
            print(f"n={n:6d}  steps={steps:6d}  best of {args.repeats}: {best[-1]:.4f}s")
    if len(grown) >= 2:
        exponent = math.log(best[-1] / best[0]) / math.log(grown[-1] / grown[0])
        label = "steps" if grown is step_counts else "nodes"
        print(f"growth exponent over {grown[0]} -> {grown[-1]} {label}: {exponent:.2f}")


if __name__ == "__main__":
    main()
