import csv
import json

import pytest

from conftest import NETWORK16_COORD, NETWORK16_EDGES, NETWORK16_END_DEV, NETWORK16_ROUTER, deadline
from strelmon.cli import main
from strelmon.logic import MAX_DEPTH


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
    ],
    ids=["no-time", "edge-not-a-list", "locations-not-an-integer", "non-numeric-weight",
         "short-vector-weight", "undirected-not-a-bool", "fractional-endpoint", "bool-endpoint",
         "bool-weight", "no-snapshots", "mixed-weight-kinds", "bool-time"],
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
