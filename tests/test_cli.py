import csv
import json
import math
import warnings

import numpy as np
import pytest

from conftest import NETWORK16_COORD, NETWORK16_EDGES, NETWORK16_END_DEV, NETWORK16_ROUTER, deadline
from strelmon.algebra import boolean_domain, maxmin_domain
from strelmon.cli import main
from strelmon.logic import MAX_DEPTH, format_number
from strelmon.monitor import MonitorContext, monitor
from strelmon.scenarios import (
    EpidemicConfig,
    ManetConfig,
    connect,
    dangerous_days,
    epidemic_interpretation,
    generate_manet,
    safe_radius,
    safe_route,
    simulate_epidemic,
)
from strelmon.signals import SignalError, canonical, column_steps, load_trace, run_starts, write_signal_csv
from strelmon.space import euclidean_norm_distance, hop_distance, weight_sum_distance


def write_network16(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "locations": 16,
                "undirected": True,
                "snapshots": [
                    {"time": 0.0, "edges": [[a - 1, b - 1, 1.0] for a, b in NETWORK16_EDGES]}
                ],
            }
        )
    )
    trace_path = tmp_path / "trace.csv"
    rows = ["location,time,coord,router,end_dev"]
    for loc in range(16):
        node = loc + 1
        rows.append(
            f"{loc},0,{int(node in NETWORK16_COORD)},{int(node in NETWORK16_ROUTER)},"
            f"{int(node in NETWORK16_END_DEV)}"
        )
    trace_path.write_text("\n".join(rows) + "\n")
    return str(model_path), str(trace_path)


def read_verdicts(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "location,verdict_at_t0"
    return {int(line.split(",")[0]): int(line.split(",")[1]) for line in out[1:]}


def test_monitor_reach_verdicts(tmp_path, capsys):
    model, trace = write_network16(tmp_path)
    out_path = tmp_path / "verdicts.csv"
    code = main(
        [
            "monitor",
            "--model", model,
            "--trace", trace,
            "--formula", "end_dev reach(hop)[0,1] router",
            "--domain", "boolean",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    verdicts = read_verdicts(capsys)
    assert verdicts[5] == 1  # location 6 in 1-indexed terms
    assert verdicts[9] == 0  # the coordinator fails
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["location", "time", "value"]
    assert all(len(r) == 3 for r in rows[1:])
    by_loc = {int(r[0]): r[2] for r in rows[1:]}
    assert by_loc[5] == "1" and by_loc[9] == "0"


def test_monitor_quantitative_output_tokens(tmp_path):
    model, trace = write_network16(tmp_path)
    out_path = tmp_path / "q.csv"
    code = main(
        [
            "monitor",
            "--model", model,
            "--trace", trace,
            "--formula", "somewhere(hop)[0,4] coord",
            "--domain", "quantitative",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert {r[2] for r in rows} == {"inf"}  # Boolean-roled atoms map to +inf


def test_monitor_formula_file(tmp_path, capsys):
    model, trace = write_network16(tmp_path)
    formula_path = tmp_path / "prop.strel"
    formula_path.write_text("somewhere(hop)[0,4] coord\n")
    code = main(
        ["monitor", "--model", model, "--trace", trace, "--formula-file", str(formula_path)]
    )
    assert code == 0
    verdicts = read_verdicts(capsys)
    assert all(verdicts[loc] == 1 for loc in range(16))


def test_monitor_malformed_model_exit_code(tmp_path, capsys):
    _model, trace = write_network16(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text('{"locations": 2}')
    code = main(["monitor", "--model", str(broken), "--trace", trace, "--formula", "coord"])
    assert code == 2
    assert capsys.readouterr().err


def test_monitor_parse_error_exit_code(tmp_path, capsys):
    model, trace = write_network16(tmp_path)
    code = main(
        ["monitor", "--model", model, "--trace", trace, "--formula", "end_dev reach(hop)[0,1"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "formula error" in err and "1:" in err


def test_monitor_deep_formula_exit_codes(tmp_path, capsys):
    model, trace = write_network16(tmp_path)
    args = ["monitor", "--model", model, "--trace", trace, "--dist", "hop=hop", "--formula"]
    assert main(args + ["!" * 3000 + "router"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "deeper than" in err[0]
    # each nested surround adds six core levels once desugared
    deepest = (MAX_DEPTH - 1) // 6

    def nested(k):
        return "router surround(hop)[0,2] (" * k + "coord" + ")" * k

    assert main(args + [nested(deepest)]) == 0
    assert main(args + [nested(deepest + 1)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_monitor_infinite_lower_distance_bound(tmp_path, capsys):
    """reach(hop)[1e400,inf] used to end in a RecursionError; with no
    infinite edge no route is long enough, so nothing holds."""
    model, trace = write_network16(tmp_path)
    code = main(["monitor", "--model", model, "--trace", trace, "--formula", "coord reach(hop)[1e400,inf] router"])
    assert code == 0
    assert set(read_verdicts(capsys).values()) == {0}


@pytest.mark.parametrize("domain", ["boolean", "quantitative"])
def test_monitor_huge_finite_distance_bound(tmp_path, domain):
    """reach(hop)[1,1e308] used to flood the network's cycles for 1e308
    rounds; it is reach(hop)[1,inf]."""
    model, trace = write_network16(tmp_path)
    outputs = []
    with deadline(60):
        for hi in ("1e308", "inf"):
            out = tmp_path / f"{hi}.csv"
            formula = f"true reach(hop)[1,{hi}] coord"
            argv = ["monitor", "--model", model, "--trace", trace, "--formula", formula]
            assert main(argv + ["--domain", domain, "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                outputs.append(list(csv.reader(fh))[1:])
    assert outputs[0] == outputs[1]
    assert {row[-1] for row in outputs[0]} == {"1" if domain == "boolean" else "inf"}


def simulate_manet(tmp_path, capsys):
    out = str(tmp_path / "net")
    assert main(["simulate", "manet", "--seed", "1", "--out", out]) == 0
    capsys.readouterr()
    return ["monitor", "--model", f"{out}.connectivity.json", "--trace", f"{out}.trace.csv"]


@pytest.mark.parametrize("interval", ["[1e17,inf]", "[1e17,1e17]"])
def test_monitor_flooding_over_the_round_budget_exit_code(tmp_path, capsys, interval):
    """With a lower bound of 1e17 hops the flooding would run about 1e17
    rounds, and past 2**53 ``d + 1 == d``, so it never ended; it is now a
    one-line error with exit code 2."""
    argv = simulate_manet(tmp_path, capsys)
    with deadline(10):
        assert main(argv + ["--formula", f"true reach(hop){interval} coord"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "1e+17" in err[0] and "MAX_FLOOD_ROUNDS" in err[0], err


@pytest.mark.parametrize("domain", ["boolean", "quantitative"])
def test_monitor_unbounded_eventually_text_is_bare_eventually(tmp_path, capsys, domain):
    """F[0,inf] used to be a parse error; it is the bare F, byte for byte."""
    argv = simulate_manet(tmp_path, capsys) + ["--domain", domain]
    outputs = []
    for i, formula in enumerate(["F coord", "F[0,inf] coord", "F[0,1e999] coord"]):
        out = tmp_path / f"{i}.csv"
        assert main(argv + ["--formula", formula, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_monitor_empty_until_domain_exit_code(tmp_path, capsys):
    """U[inf,inf] parses; its evaluable domain is empty, a one-line error."""
    argv = simulate_manet(tmp_path, capsys)
    assert main(argv + ["--formula", "coord U[inf,inf] router"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "evaluable domain of until is empty" in err[0], err


@pytest.mark.parametrize("formula", ["battery > 1e400", "battery <= -1e400"])
def test_monitor_infinite_threshold_exit_code(tmp_path, capsys, formula):
    argv = simulate_manet(tmp_path, capsys)
    assert main(argv + ["--formula", formula]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "1:" in err[0] and "threshold must be finite" in err[0], err


def test_monitor_name_error_exit_code(tmp_path, capsys):
    model, trace = write_network16(tmp_path)
    code = main(["monitor", "--model", model, "--trace", trace, "--formula", "nosuch"])
    assert code == 2
    assert "nosuch" in capsys.readouterr().err


def test_monitor_missing_file_exit_code(tmp_path, capsys):
    model, _trace = write_network16(tmp_path)
    code = main(
        ["monitor", "--model", model, "--trace", str(tmp_path / "absent.csv"), "--formula", "coord"]
    )
    assert code == 3
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_row", ["0,0,nan,0,1", "0,nan,0,0,1", "0,0,0,inf,1", "0,0,0,0,-inf"]
)
def test_monitor_non_finite_trace_exit_code(tmp_path, capsys, bad_row):
    model, trace = write_network16(tmp_path)
    with open(trace) as fh:
        lines = fh.read().splitlines()
    lines[1] = bad_row
    with open(trace, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code = main(["monitor", "--model", model, "--trace", trace, "--formula", "coord"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{trace}:2: non-finite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "edit, fragment",
    [
        pytest.param(lambda rows: rows[:1] + ["0,0,1"] + rows[2:], ":2: expected 5 fields, got 3", id="truncated-row"),
        pytest.param(lambda rows: rows[:1] + [rows[2], rows[1]] + rows[3:], ":3: rows must be sorted", id="unsorted-rows"),
        pytest.param(lambda rows: rows[:2] + rows[1:], ":3: rows must be sorted", id="duplicate-time"),
        pytest.param(
            lambda rows: ["location,time"] + [",".join(r.split(",")[:2]) for r in rows[1:]],
            "header must be location,time,<variables...>",
            id="no-variables",
        ),
        pytest.param(lambda rows: [], "empty trace file", id="empty-file"),
        pytest.param(lambda rows: rows[:1], "no data rows", id="header-only"),
        pytest.param(lambda rows: rows[:-1] + ["16" + rows[-1][2:]], "locations must be contiguous", id="location-gap"),
        pytest.param(lambda rows: rows[:1] + ["0,0,yes,0,1"] + rows[2:], ":2: could not convert", id="non-numeric"),
        pytest.param(lambda rows: rows[:1] + ["0,1" + rows[1][3:]] + rows[2:], "signal domains differ", id="late-start"),
    ],
)
def test_monitor_malformed_trace_exit_code(tmp_path, capsys, edit, fragment):
    model, trace = write_network16(tmp_path)
    with open(trace) as fh:
        rows = edit(fh.read().splitlines())
    with open(trace, "w") as fh:
        fh.write("".join(row + "\n" for row in rows))
    code = main(["monitor", "--model", model, "--trace", trace, "--formula", "coord"])
    assert code == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "snapshot",
    [
        '{"time": 1, "edges": [[0, 1, Infinity]]}',
        '{"time": 1, "edges": [[0, 1, NaN]]}',
        '{"time": 1, "edges": [[0, 1, [3.0, -Infinity]]]}',
        '{"time": Infinity, "edges": [[0, 1, 1.0]]}',
    ],
)
def test_monitor_non_finite_model_exit_code(tmp_path, capsys, snapshot):
    _model, trace = write_network16(tmp_path)
    model = tmp_path / "bad.json"
    model.write_text(
        '{"locations": 16, "snapshots": [{"time": 0, "edges": [[0, 1, 1.0]]}, %s]}' % snapshot
    )
    code = main(["monitor", "--model", str(model), "--trace", trace, "--formula", "coord"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{model}: snapshot 1: " in err and "non-finite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "document, fragment",
    [
        ('{"locations": 16, "snapshots": [{"edges": [[0, 1, 1.0]]}]}', "snapshot 0: "),
        ('{"locations": 16, "snapshots": [{"time": 0, "edges": [5]}]}', "snapshot 0: edge entry"),
        ('{"locations": "two", "snapshots": [{"time": 0, "edges": []}]}', "'locations'"),
        ('{"locations": 16, "snapshots": [{"time": 0, "edges": [[0, 1, "a"]]}]}', "snapshot 0: "),
        ('{"locations": 16, "snapshots": [{"time": 0}, {"time": 1, "edges": [[0, 1, [1]]]}]}',
         "snapshot 1: "),
        ('{"locations": 16, "undirected": "false", "snapshots": [{"time": 0, "edges": []}]}',
         "'undirected' must be true or false"),
        ('{"locations": 16, "snapshots": [{"time": 0, "edges": [[2.7, 1, 1.0]]}]}',
         "snapshot 0: edge endpoints must be integers"),
        ('{"locations": 16, "snapshots": [{"time": 0, "edges": [[true, 1, 1.0]]}]}',
         "snapshot 0: edge endpoints must be integers"),
        ('{"locations": 16, "snapshots": [{"time": 0, "edges": [[0, 1, true]]}]}',
         "snapshot 0: edge [0, 1] has a weight that is not a number"),
        ('{"locations": 3, "snapshots": []}', "need at least one snapshot"),
        ('{"locations": 16, "snapshots": [{"time": 0, "edges": [[0, 1, 1.0], [1, 2, [1.0, 2.0]]]}]}',
         "snapshot 0: edge weights must be all scalars or all 2d vectors"),
        ('{"locations": 16, "snapshots": [{"time": true, "edges": []}]}', "snapshot 0: "),
        ('{"locations": 16, "snapshots": [{"time": 0, "edges": [[0, 1', "invalid JSON"),
    ],
    ids=["no-time", "edge-not-a-list", "locations-not-an-integer", "non-numeric-weight",
         "short-vector-weight", "undirected-not-a-bool", "fractional-endpoint", "bool-endpoint",
         "bool-weight", "no-snapshots", "mixed-weight-kinds", "bool-time", "truncated"],
)
def test_monitor_malformed_model_one_line_error(tmp_path, capsys, document, fragment):
    _model, trace = write_network16(tmp_path)
    model = tmp_path / "bad.json"
    model.write_text(document)
    code = main(["monitor", "--model", str(model), "--trace", trace, "--formula", "coord"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {model}: ") and fragment in err[0], err[0]


def test_monitor_vector_weights_under_scalar_distance(tmp_path, capsys):
    """A 2d-vector weight has no scalar distance: reach(weight) on such a
    model is one line naming the first edge, not a traceback."""
    _model, trace = write_network16(tmp_path)
    model = tmp_path / "vectors.json"
    model.write_text(
        '{"locations": 16, "snapshots": [{"time": 0, "edges": [[0, 1, [3.0, 4.0]], [1, 2, [1.0, 0.0]]]}]}'
    )
    code = main(["monitor", "--model", str(model), "--trace", trace, "--formula", "coord reach(weight)[0,1] router"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "distance function 'weight' is not defined on edge (0, 1)" in err[0], err[0]


def test_monitor_decimal_times_window_edge(tmp_path, capsys):
    """0.5 - 0.4 rounds to just below the first row at 0.1; that is still
    inside the trace, not an input error."""
    model = tmp_path / "one.json"
    model.write_text('{"locations": 1, "snapshots": [{"time": 0, "edges": []}]}')
    trace = tmp_path / "decimal.csv"
    trace.write_text("location,time,p\n0,0.1,1\n0,0.2,0\n0,0.3,1\n0,0.5,1\n")
    code = main(["monitor", "--model", str(model), "--trace", str(trace), "--formula", "p S[0,0.4] p"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.strip().splitlines() == ["location,verdict_at_t0", "0,1"]


def test_dist_binding(tmp_path, capsys):
    model, trace = write_network16(tmp_path)
    code = main(
        [
            "monitor",
            "--model", model,
            "--trace", trace,
            "--formula", "end_dev reach(steps)[0,1] router",
            "--dist", "steps=hop",
        ]
    )
    assert code == 0
    assert read_verdicts(capsys)[5] == 1


def test_simulate_epidemic_roundtrip_and_determinism(tmp_path, capsys):
    cfg = {"node_count": 40, "horizon_days": 8, "initial_infected": 2, "seed": 3}
    cfg_path = tmp_path / "epi.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "epidemic", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "epidemic", "--config", str(cfg_path), "--out", str(out2)]) == 0
    model1 = (tmp_path / "run1.model.json").read_bytes()
    model2 = (tmp_path / "run2.model.json").read_bytes()
    trace1 = (tmp_path / "run1.trace.csv").read_bytes()
    trace2 = (tmp_path / "run2.trace.csv").read_bytes()
    assert model1 == model2 and trace1 == trace2

    code = main(
        [
            "monitor",
            "--model", str(tmp_path / "run1.model.json"),
            "--trace", str(tmp_path / "run1.trace.csv"),
            "--formula", "G[0,2] state < 2.5",
            "--domain", "boolean",
        ]
    )
    assert code == 0
    assert len(read_verdicts(capsys)) == 40


def test_simulate_invalid_config_field(tmp_path, capsys):
    cfg_path = tmp_path / "epi.json"
    cfg_path.write_text(json.dumps({"node_count": 40, "wrong_field": 1}))
    code = main(["simulate", "epidemic", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "wrong_field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, cfg, field",
    [
        ("epidemic", {"horizon_days": 2.5}, "horizon_days"),
        ("epidemic", {"seed": True}, "seed"),
        ("epidemic", {"include_static": 1}, "include_static"),
        ("epidemic", {"attendance": [0.1, "0.2"]}, "attendance"),
        ("epidemic", {"infection_mean": "0.1"}, "infection_mean"),
        ("epidemic", {"static_degree": {"mean": 5, "p99": None, "cutoff": 9}}, "static_degree.p99"),
        ("manet", {"steps": 2.5}, "steps"),
        ("manet", {"node_count": 3.0, "routers": 1, "end_devices": 1}, "node_count"),
        ("manet", {"battery": [0, 1, 0.1]}, "battery"),
        ("manet", {"side": math.inf}, "side"),
        ("manet", {"radius": math.nan}, "radius"),
        ("manet", {"jitter": 10**400}, "jitter"),
        ("manet", {"humidity": {"lo": 0, "hi": math.inf, "step": 1}}, "humidity.hi"),
        ("epidemic", {"attendance": [0.1, math.nan]}, "attendance"),
    ],
)
def test_simulate_config_field_type_exit_code(tmp_path, capsys, kind, cfg, field):
    """A config value of the wrong JSON type, or a NaN or Infinity where a
    number belongs, is a one-line error naming the field; it used to end in
    a traceback, a numpy error or a silent run."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", kind, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"config field {field!r}" in err[0], err


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"side": -5}, "side"),
        ({"side": -0.5, "jitter": 0}, "side"),
        ({"jitter": -1}, "jitter"),
        ({"jitter": 1e308}, "jitter"),
        ({"jitter": 9e307}, "jitter"),
        ({"battery": {"lo": 0, "hi": 1, "step": -1}}, "step"),
        ({"pollution": {"lo": 0, "hi": 200, "step": -1e-300}}, "step"),
    ],
)
def test_simulate_manet_out_of_range_config_exit_code(tmp_path, capsys, cfg, field):
    """A negative side, jitter or walk step, or a jitter whose draws span more
    than a float holds, is a one-line error naming the field; these used to
    run silently or end in a traceback or a numpy error."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "manet", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"config field {field!r}" in err[0], err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("side", [1e90, 1e200, 1.7e308])
def test_simulate_manet_huge_side_writes_its_files(tmp_path, capsys, side):
    """qhull triangulates the positions rescaled to the unit box, so a side
    it could not triangulate unscaled simulates and writes the three files,
    and neither the collinearity test's cross product nor a distance past
    the float range warns.  Under pytest numpy's warnings do not reach
    stderr, so they are made errors."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"side": side}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "manet", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 0
    assert not capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.glob("x.*")) == ["x.connectivity.json", "x.proximity.json", "x.trace.csv"]


def test_simulate_manet_triangulation_error_is_one_line(tmp_path, capsys, monkeypatch):
    """A qhull failure is one stderr line: qhull's message is cut to its
    first line."""
    from scipy.spatial import QhullError

    def fail(points):
        raise QhullError("QH6154 Qhull precision error: initial simplex is flat\nWhile executing: | qhull d Qz\n")

    monkeypatch.setattr("scipy.spatial.Delaunay", fail)
    assert main(["simulate", "manet", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: triangulation failed: QH6154 Qhull precision error: initial simplex is flat"]
    assert not list(tmp_path.glob("x.*"))


def test_simulate_manet_files(tmp_path):
    cfg = {
        "node_count": 10,
        "routers": 3,
        "end_devices": 6,
        "steps": 3,
        "seed": 4,
    }
    cfg_path = tmp_path / "manet.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "manet", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 0
    assert (tmp_path / "m.proximity.json").exists()
    assert (tmp_path / "m.connectivity.json").exists()
    assert (tmp_path / "m.trace.csv").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "epi.json"
    cfg_path.write_text(json.dumps({"node_count": 30, "horizon_days": 6, "seed": 1}))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "epidemic", "--config", str(cfg_path), "--seed", "9", "--out", str(a)]) == 0
    assert main(["simulate", "epidemic", "--config", str(cfg_path), "--seed", "9", "--out", str(b)]) == 0
    assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()


def test_sweep_csv_shape(tmp_path):
    cfg_path = tmp_path / "epi.json"
    cfg_path.write_text(
        json.dumps({"node_count": 30, "horizon_days": 15, "initial_infected": 3, "seed": 2})
    )
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--config", str(cfg_path),
            "--radii", "2.0",
            "--T", "5",
            "--runs", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "mean", "std"]
    assert len(rows) == 2
    assert len(rows[1]) == 3
    assert float(rows[1][2]) == 0.0  # single run has zero spread


def test_sweep_monotone_means(tmp_path):
    cfg_path = tmp_path / "epi.json"
    cfg_path.write_text(
        json.dumps({"node_count": 40, "horizon_days": 15, "initial_infected": 4, "seed": 8})
    )
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--config", str(cfg_path),
            "--radii", "0.5,2.0,30.0",
            "--T", "5",
            "--runs", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    means = [float(r[1]) for r in rows]
    assert means == sorted(means)


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_sweep_needs_at_least_one_run(tmp_path, capsys, runs):
    """--runs 0 used to write a table of nan rows and exit 0."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--radii", "2.0", "--runs", runs, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "at least one run" in err[0], err
    assert not out.exists()


def test_sweep_reports_a_bad_config_before_bad_radii(tmp_path, capsys):
    """The config is loaded before --radii is checked, so a run with both
    faults names the config."""
    cfg_path = tmp_path / "epi.json"
    cfg_path.write_text("[]")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_path), "--radii", ",", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "config must be a JSON object" in err[0], err
    assert not out.exists()


_MONITOR = ["monitor", "--model", "{model}", "--trace", "{trace}", "--formula"]


@pytest.mark.parametrize(
    "argv, config, code, fragment",
    [
        (["monitor", "--model", "{model}", "--trace", "{short}", "--formula", "coord"], None, 2,
         "trace has 2 locations but the model has 16"),
        (["monitor", "--model", "{late}", "--trace", "{trace}", "--formula", "coord"], None, 2,
         "first snapshot at 1.0 is after the trace start 0.0"),
        (_MONITOR + ["coord", "--dist", "hop"], None, 2, "--dist expects name=builtin"),
        (_MONITOR + ["coord", "--dist", "d=manhattan"], None, 2, "unknown builtin 'manhattan'"),
        (["simulate", "manet", "--config", "{config}", "--out", "{out}"], "{", 2, "invalid JSON"),
        (["sweep", "--radii", ",", "--out", "{out}"], None, 2, "--radii must list at least one radius"),
        (["simulate", "manet", "--config", "{config}", "--out", "{out}"],
         '{"node_count": 2, "routers": 1, "end_devices": 0}', 2, "need at least 3 nodes"),
        (["simulate", "manet", "--config", "{config}", "--out", "{out}"], '{"steps": 0}', 2,
         "need at least one step"),
        (["simulate", "manet", "--config", "{config}", "--out", "{out}"], '{"radius": -1}', 2,
         "radius must be nonnegative"),
        (["simulate", "epidemic", "--config", "{config}", "--out", "{out}"],
         '{"static_degree": {"mean": 5, "p99": 4, "cutoff": 9}}', 2, "need 0 < mean < p99 <= cutoff"),
        (["simulate", "epidemic", "--config", "{config}", "--out", "{out}"], '{"infection_mean": 1}', 2,
         "infection_mean must lie in [0, 1)"),
        (["simulate", "epidemic", "--config", "{config}", "--out", "{out}"],
         '{"node_count": 10, "initial_infected": 11}', 2, "more initial infected than nodes"),
        (["simulate", "epidemic", "--config", "{config}", "--out", "{out}"], '{"horizon_days": 1}', 2,
         "horizon must cover at least two days"),
        (["simulate", "epidemic", "--config", "{config}", "--out", "{out}"],
         '{"include_static": false, "include_dynamic": false}', 2, "at least one of the contact networks"),
        (_MONITOR + ["coord router"], None, 1, "trailing input after formula"),
        (_MONITOR + ["coord < router"], None, 1, "expected a number after comparison operator"),
        (_MONITOR + ["coord reach(1) router"], None, 1, "expected a distance-function name"),
    ],
    ids=[
        "location-counts", "late-snapshot", "dist-without-equals", "dist-unknown-builtin", "invalid-json",
        "empty-radii", "manet-node-count", "manet-steps", "manet-radius", "epidemic-degree",
        "epidemic-infection-mean", "epidemic-initial-infected", "epidemic-horizon", "epidemic-no-network",
        "parse-trailing", "parse-threshold", "parse-distance-name",
    ],
)
def test_one_line_diagnostics(tmp_path, capsys, argv, config, code, fragment):
    """Each fault is one stderr line with its exit code, and no output file."""
    model, trace = write_network16(tmp_path)
    short, late, config_path = tmp_path / "short.csv", tmp_path / "late.json", tmp_path / "cfg.json"
    short.write_text("location,time,coord\n0,0,1\n1,0,0\n")
    document = json.loads((tmp_path / "model.json").read_text())
    document["snapshots"][0]["time"] = 1.0
    late.write_text(json.dumps(document))
    if config is not None:
        config_path.write_text(config)
    paths = {"model": model, "trace": trace, "short": short, "late": late, "config": config_path, "out": tmp_path / "x"}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and fragment in err[0], err
    assert not list(tmp_path.glob("x*"))

def row_loop_write_signal_csv_reference(sig, path: str) -> None:
    """The verdict writer as the CLI's own row loop, before it wrote the
    verdict as a one-variable trace through ``save_trace``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["location", "time", "value"])
        for loc, (times, values) in enumerate(column_steps(sig.times, sig.values, run_starts(sig.values))):
            for t, v in zip(times, values):
                writer.writerow([loc, format_number(t), format_number(v)])


VERDICT_VALUES = (math.inf, -math.inf, 0.0, -0.0, 0.1, -2.5, 1e16, 2**53 + 1, 5e-324)


def seeded_verdicts(count: int):
    """Canonical verdicts, Boolean and quantitative in turn, on 1-6
    locations, over decimal step times from a start that may be negative."""
    rng = np.random.default_rng(22)
    for k in range(count):
        steps, n = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        start = float(rng.choice([-3.5, -0.1, 0.0, 0.3]))
        times = start + np.cumsum(np.concatenate(([0.0], rng.choice([0.1, 0.2, 0.3, 0.7, 1.0], steps - 1))))
        end = times[-1].item() + float(rng.choice([0.0, 0.1, 2.0]))
        if k % 2:
            values = rng.choice(np.array(VERDICT_VALUES, dtype=float), size=(steps, n))
        else:
            values = rng.random((steps, n)) < 0.5
        yield canonical(times, values, end)


def monitored_verdicts(name: str):
    """Verdicts of the scenario properties, Boolean and quantitative."""
    if name == "manet":
        prox, conn, trace = generate_manet(ManetConfig(node_count=12, routers=4, end_devices=7, steps=6, seed=5))
        runs = [
            (conn, connect(), {"hop": hop_distance()}),
            (prox, safe_route(2.0, 2.0), {"euclid": euclidean_norm_distance()}),
        ]
    else:
        model, trace = simulate_epidemic(EpidemicConfig(node_count=40, horizon_days=15, initial_infected=4, seed=30))
        distances = {"weight": weight_sum_distance(), "hop": hop_distance()}
        runs = [(model, safe_radius(2.0, 5.0), distances), (model, dangerous_days(), distances)]
    for domain in (boolean_domain(), maxmin_domain()):
        interpretation = epidemic_interpretation(domain) if name == "epidemic" else None
        for model, formula, distances in runs:
            yield monitor(MonitorContext(model, trace, domain, distances, interpretation), formula)


def verdict_cases(case: str):
    return list(seeded_verdicts(300) if case == "seeded" else monitored_verdicts(case))


@pytest.mark.parametrize("case", ["seeded", "manet", "epidemic"])
def test_write_signal_csv_equals_the_replaced_row_loop(case, tmp_path):
    """The verdict written as a one-variable trace has the bytes of the row
    loop it replaced."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for sig in verdict_cases(case):
        write_signal_csv(sig, str(got))
        row_loop_write_signal_csv_reference(sig, str(want))
        assert got.read_bytes() == want.read_bytes(), (sig.times, sig.values)


@pytest.mark.parametrize("case", ["seeded", "manet", "epidemic"])
def test_a_verdict_csv_is_a_trace(case, tmp_path):
    """``load_trace`` reads a verdict CSV back as the trace of one variable,
    ``value``, whose own steps are the verdict's run starts.  The file keeps
    no end time, so the trace ends at the last step.  A verdict holding
    +-inf is not a trace, whose values must be finite."""
    path = tmp_path / "verdict.csv"
    finite = 0
    for sig in verdict_cases(case):
        write_signal_csv(sig, str(path))
        if not np.isfinite(sig.values).all():
            with pytest.raises(SignalError, match="non-finite value"):
                load_trace(str(path))
            continue
        finite += 1
        trace = load_trace(str(path))
        assert trace.variables == ("value",)
        assert np.array_equal(trace.grid[0], sig.times)
        assert np.array_equal(trace.grid[1][:, :, 0], sig.values.astype(float))
        assert np.array_equal(trace.own, run_starts(sig.values))
        assert trace.end_time == sig.times[-1]
    assert finite
