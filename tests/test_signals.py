import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strelmon.signals import (
    SignalError,
    SpatioTemporalSignal,
    TemporalSignal,
    Trace,
    load_trace,
    save_trace,
)


def sig(steps, end):
    times, values = zip(*steps)
    return TemporalSignal(tuple(times), tuple(values), end)


def test_value_at_basic():
    s = sig([(0, "a")], 10)
    assert s.value_at(7) == "a"
    s2 = sig([(0, "a"), (5, "b")], 10)
    assert s2.value_at(5) == "b"  # steps are left-closed
    assert s2.value_at(4.999) == "a"
    assert s2.value_at(10) == "b"


def test_value_at_outside_domain():
    s = sig([(0, "a")], 10)
    with pytest.raises(SignalError):
        s.value_at(-0.1)
    with pytest.raises(SignalError):
        s.value_at(10.1)


def test_validation():
    with pytest.raises(SignalError):
        TemporalSignal((), (), 1.0)
    with pytest.raises(SignalError):
        TemporalSignal((0.0, 0.0), ("a", "b"), 1.0)
    with pytest.raises(SignalError):
        TemporalSignal((0.0, 2.0), ("a", "b"), 1.0)


def test_minimize():
    s = sig([(0, "a"), (3, "a"), (7, "b")], 9)
    m = s.minimize()
    assert m.times == (0, 7) and m.values == ("a", "b")
    assert m.minimize() is m  # idempotent


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8), st.data())
def test_minimize_preserves_value_at(values, data):
    times = tuple(float(i) for i in range(len(values)))
    s = TemporalSignal(times, tuple(values), float(len(values)))
    m = s.minimize()
    t = data.draw(st.floats(min_value=0, max_value=float(len(values))))
    assert m.value_at(t) == s.value_at(t)


def test_spatial_slice():
    st_sig = SpatioTemporalSignal.from_signals(
        (sig([(0, 1), (2, 5)], 4), sig([(0, 2)], 4))
    )
    assert st_sig.values_at(0) == [1, 2]
    assert st_sig.values_at(2) == [5, 2]  # slice sees the new step value
    rng = random.Random(0)
    for _ in range(20):
        t = rng.uniform(0, 4)
        assert st_sig.values_at(t) == [st_sig.value_at(loc, t) for loc in range(2)]


def test_trace_validation():
    good = Trace(("x",), (sig([(0, (1.0,))], 2),))
    assert good.location_count == 1
    with pytest.raises(SignalError):
        Trace(("x", "y"), (sig([(0, (1.0,))], 2),))
    with pytest.raises(SignalError, match="domains differ"):
        Trace(("x",), (sig([(0, (1.0,))], 2), sig([(0, (1.0,))], 3)))


def test_trace_csv_roundtrip(tmp_path):
    t = Trace(
        ("x", "flag"),
        (
            sig([(0.0, (1.25, 1.0)), (2.0, (3.5, 0.0))], 4.0),
            sig([(0.0, (-0.75, 0.0)), (3.0, (6.0, 1.0))], 4.0),
        ),
    )
    path = tmp_path / "trace.csv"
    save_trace(t, str(path))
    back = load_trace(str(path))
    assert back.variables == t.variables
    for loc in range(2):
        assert back.signals[loc].times == t.signals[loc].times
        assert back.signals[loc].values == t.signals[loc].values


def test_trace_grid_rejects_nan_naming_its_first_cell():
    t = Trace(
        ("x", "y"),
        (
            sig([(0.0, (1.0, 2.0)), (2.0, (float("inf"), float("nan")))], 4.0),
            sig([(0.0, (0.0, 0.0)), (1.5, (float("nan"), -float("inf")))], 4.0),
        ),
    )
    with pytest.raises(SignalError) as err:
        t.grid
    assert str(err.value) == "location 1 holds NaN for 'x' at time 1.5"
    # +-inf are values like any other
    _, data = Trace(t.variables, (sig([(0.0, (float("inf"), -float("inf")))], 1.0),)).grid
    assert data.tolist() == [[[float("inf"), -float("inf")]]]


def test_load_trace_rejects_unsorted(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("location,time,x\n1,0,1\n0,0,1\n")
    with pytest.raises(SignalError):
        load_trace(str(path))


def test_load_trace_rejects_gap_in_locations(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("location,time,x\n0,0,1\n2,0,1\n")
    with pytest.raises(SignalError):
        load_trace(str(path))
