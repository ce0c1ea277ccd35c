"""Every script under scripts/ imports against the current library API, and
runs end to end on tiny arguments."""

import csv
import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the __main__ guard keeps main() from running
    assert callable(module.main)


def test_scripts_are_found():
    assert SCRIPTS  # an empty parameter list would silently skip the check above


TINY_RUNS = {
    "epidemic_sweep": ["--nodes", "30", "--horizon", "10", "--initial-infected", "3",
                       "--radii", "0.5,3", "--T", "3", "--runs", "2"],
    "static_vs_dynamic": ["--nodes", "30", "--horizon", "10", "--initial-infected", "3", "--runs", "2"],
    "manet_demo": ["--nodes", "8", "--routers", "3", "--steps", "3"],
    "scaling_bench": ["--sizes", "20,40", "--steps", "3", "--repeats", "1"],
}


def test_every_script_has_a_tiny_run():
    assert sorted(TINY_RUNS) == [p.stem for p in SCRIPTS]


def _load(stem):
    path = next(p for p in SCRIPTS if p.stem == stem)
    spec = importlib.util.spec_from_file_location(f"script_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("stem", sorted(TINY_RUNS))
def test_script_runs(stem, tmp_path, monkeypatch, capsys):
    """``main`` runs to the end on tiny arguments, so a change to the
    library's contracts that breaks a script fails here."""
    out = tmp_path / "out.csv"
    argv = TINY_RUNS[stem] + (["--out", str(out)] if stem == "epidemic_sweep" else [])
    monkeypatch.setattr(sys, "argv", [stem, *argv])
    _load(stem).main()
    printed = capsys.readouterr().out
    if stem == "epidemic_sweep":
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "mean", "std"]
        assert [float(row[0]) for row in rows[1:]] == [0.5, 3.0]
    elif stem == "static_vs_dynamic":
        assert "static-only" in printed and "dynamic-only" in printed
    elif stem == "manet_demo":
        assert "connected" in printed and "restores within 3" in printed
    else:
        assert "growth exponent" in printed


def test_scaling_bench_scales_quantitative_hop_reach(monkeypatch, capsys):
    """--domain quantitative scales the threshold reach over the x column,
    and x comes from its own random stream: p and q are the same draws as
    in an instance without x."""
    module = _load("scaling_bench")
    formula = "(x > 0.2) reach(hop)[0,3] (x > 0.9)"
    argv = ["--sizes", "20,40", "--steps", "3", "--repeats", "1", "--domain", "quantitative", "--formula", formula]
    monkeypatch.setattr(sys, "argv", ["scaling_bench", *argv])
    module.main()
    assert "growth exponent" in capsys.readouterr().out
    ctx = module.instance(20, 3, seed=1, domain="quantitative")
    assert ctx.domain.name == "quantitative" and ctx.trace.variables == ("p", "q", "x")
    # the instance's own draws: 80 distinct edges, then p and q per location and step
    draws, edges = random.Random(1), set()
    while len(edges) < 80:
        a, b = draws.randrange(20), draws.randrange(20)
        if a != b:
            edges.add((a, b))
    pq = [[(draws.random() < 0.3, draws.random() < 0.1) for _ in range(3)] for _ in range(20)]
    _, data = ctx.trace.grid
    assert data[:, :, :2].transpose(1, 0, 2).tolist() == [[[float(v) for v in s] for s in row] for row in pq]
    x = data[:, :, 2]
    assert ((0 <= x) & (x < 1)).all() and len(set(x.ravel().tolist())) == x.size


def test_scaling_bench_undirected_escape(monkeypatch, capsys):
    """--undirected lists the reverse of every drawn edge, so escape takes
    its symmetric path; the draws are those of the directed instance."""
    module = _load("scaling_bench")
    argv = ["--sizes", "20,40", "--steps", "1", "--repeats", "1", "--undirected", "--formula", "escape(hop)[2,inf] p"]
    monkeypatch.setattr(sys, "argv", ["scaling_bench", *argv])
    module.main()
    assert "growth exponent" in capsys.readouterr().out
    directed = module.instance(20, 2, seed=1).model.snapshot_at(0.0)
    ctx = module.instance(20, 2, seed=1, undirected=True)
    model = ctx.model.snapshot_at(0.0)
    assert model.symmetric and not directed.symmetric
    edges = set(zip(directed.src.tolist(), directed.dst.tolist()))
    assert set(zip(model.src.tolist(), model.dst.tolist())) == edges | {(b, a) for a, b in edges}
    assert np.array_equal(ctx.trace.grid[1], module.instance(20, 2, seed=1).trace.grid[1])


def test_scaling_bench_async_steps_each_location_at_its_own_times(monkeypatch, capsys):
    """--async draws each location's step times from a stream of their own:
    every location starts at 0 and steps at its own distinct times below
    the trace end, and its values are the synchronous instance's draws."""
    module = _load("scaling_bench")
    argv = ["--sizes", "20", "--steps", "3,6", "--repeats", "1", "--async", "--formula", "F[0,1] p"]
    monkeypatch.setattr(sys, "argv", ["scaling_bench", *argv])
    module.main()
    assert "growth exponent" in capsys.readouterr().out
    for domain in ("boolean", "quantitative"):
        sync = module.instance(20, 6, seed=1, domain=domain)
        ctx = module.instance(20, 6, seed=1, domain=domain, asynchronous=True)
        assert ctx.trace.end_time == sync.trace.end_time == 6.0
        own = [s.times for s in ctx.trace.signals]
        assert all(t[0] == 0.0 and len(set(t)) == 6 and t == tuple(sorted(t)) and t[-1] < 6.0 for t in own)
        assert len(set(own)) == 20
        assert [s.values for s in ctx.trace.signals] == [s.values for s in sync.trace.signals]


@pytest.mark.parametrize("graph", ["path", "grid"])
def test_scaling_bench_path_and_grid_graphs(graph, monkeypatch, capsys):
    """--graph path joins k to k + 1, --graph grid joins each location to
    its right and lower neighbours in rows of ceil(sqrt(n)), both in both
    directions; neither draws an edge, so p and q are the stream's first
    draws."""
    module = _load("scaling_bench")
    argv = ["--sizes", "10,20", "--steps", "2", "--repeats", "1", "--graph", graph, "--formula", "true reach(hop)[0,20] at_0"]
    monkeypatch.setattr(sys, "argv", ["scaling_bench", *argv])
    module.main()
    assert "growth exponent" in capsys.readouterr().out
    ctx = module.instance(10, 2, seed=1, graph=graph)
    model = ctx.model.snapshot_at(0.0)
    if graph == "path":
        one_way = {(k, k + 1) for k in range(9)}
    else:  # 4 columns: 0 1 2 3 / 4 5 6 7 / 8 9
        one_way = {(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (8, 9)} | {(k, k + 4) for k in range(6)}
    assert set(zip(model.src.tolist(), model.dst.tolist())) == one_way | {(b, a) for a, b in one_way}
    assert model.symmetric and model.location_count == 10
    draws = random.Random(1)
    pq = [[(draws.random() < 0.3, draws.random() < 0.1) for _ in range(2)] for _ in range(10)]
    _, data = ctx.trace.grid
    assert data[:, :, :2].transpose(1, 0, 2).tolist() == [[[float(v) for v in s] for s in row] for row in pq]
    default = module.instance(20, 2, seed=1).model.snapshot_at(0.0)
    drawn = module.instance(20, 2, seed=1, graph="random").model.snapshot_at(0.0)
    assert np.array_equal(default.src, drawn.src) and np.array_equal(default.dst, drawn.dst)


def test_scaling_bench_times_monitoring_not_the_first_stacking_of_the_grid(monkeypatch, capsys):
    """A signal-built trace stacks its step grid on first use; the script
    builds it before the timer starts, so every timed ``monitor`` call finds
    the grid already there."""
    module = _load("scaling_bench")
    timed, calls = module.monitor, []

    def monitor(ctx, formula):
        calls.append("grid" in vars(ctx.trace))
        return timed(ctx, formula)

    monkeypatch.setattr(module, "monitor", monitor)
    argv = ["--sizes", "1", "--steps", "20,40", "--repeats", "2", "--formula", "p U[0,5] q"]
    monkeypatch.setattr(sys, "argv", ["scaling_bench", *argv])
    module.main()
    assert "growth exponent" in capsys.readouterr().out
    assert calls == [True] * 4
