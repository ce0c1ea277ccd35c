import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strelmon.algebra import boolean_domain, maxmin_domain, signal_domain_by_name
from strelmon.space import (
    ModelError,
    build_spatial_model,
    check_strictly_positive,
    euclidean_norm_distance,
    hop_distance,
    weight_sum_distance,
)

BOOLS = [False, True]
REALS = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([-math.inf, math.inf]),
)


def test_boolean_domain_examples():
    d = boolean_domain()
    assert max(False, True) is True
    assert min(True, False) is False
    for a in BOOLS:
        assert d.negate(d.negate(a)) is a
    assert d.negate(True) is False and d.negate(False) is True


def test_boolean_laws_exhaustive():
    d = boolean_domain()
    for a in BOOLS:
        assert d.bottom <= a <= d.top
        assert max(d.bottom, a) == a and max(d.top, a) == d.top
        assert min(d.top, a) == a and min(d.bottom, a) == d.bottom
        for b in BOOLS:
            assert d.negate(max(a, b)) == min(d.negate(a), d.negate(b))
            assert d.negate(min(a, b)) == max(d.negate(a), d.negate(b))
            for c in BOOLS:
                assert min(a, max(b, c)) == max(min(a, b), min(a, c))
    assert d.negate(d.top) == d.bottom
    assert d.negate(d.bottom) == d.top


def test_maxmin_examples():
    d = maxmin_domain()
    assert max(d.bottom, 3.0) == 3.0 and min(d.top, 3.0) == 3.0
    assert d.negate(d.top) == d.bottom and d.negate(d.bottom) == d.top
    assert d.negate(2.5) == -2.5


@given(REALS, REALS)
def test_maxmin_de_morgan(a, b):
    d = maxmin_domain()
    assert d.negate(max(a, b)) == min(d.negate(a), d.negate(b))
    assert d.negate(min(a, b)) == max(d.negate(a), d.negate(b))


@given(REALS, REALS, REALS)
def test_maxmin_semiring_laws(a, b, c):
    d = maxmin_domain()
    assert d.bottom <= a <= d.top
    assert max(d.bottom, a) == a and max(d.top, a) == d.top
    assert min(d.top, a) == a and min(d.bottom, a) == d.bottom
    assert min(a, max(b, c)) == max(min(a, b), min(a, c))


@given(REALS, REALS)
def test_maxmin_total_order(a, b):
    d = maxmin_domain()
    assert a <= b or b <= a
    assert d.negate(d.negate(a)) == a


def test_fold_helpers():
    # the temporal and spatial sweeps fold choose from bottom and combine from top
    for d, values in ((maxmin_domain(), [1.0, 3.0, -2.0]), (boolean_domain(), [False, True])):
        assert reduce(max, [], d.bottom) == d.bottom
        assert reduce(min, [], d.top) == d.top
        assert reduce(max, values, d.bottom) == max(values)
        assert reduce(min, values, d.top) == min(values)


def test_hop_domain():
    h = hop_distance()
    assert h.map(np.array([0.25, 7.0])).tolist() == [1, 1]
    assert h.map(np.array([(3.0, -4.0)])).tolist() == [1]
    assert 2 + math.inf == math.inf
    # a snapshot's weights are all scalars or all vectors; hop ignores both kinds
    for w in (0.0, (0.0, 0.0)):
        m = build_spatial_model(3, [(0, w, 1), (1, w, 2)])
        assert check_strictly_positive(m, h).tolist() == [1, 1]


def test_real_domain():
    m = build_spatial_model(3, [(0, 1.5, 1), (1, 2.5, 2)])
    assert check_strictly_positive(m, weight_sum_distance()).tolist() == [1.5, 2.5]
    assert euclidean_norm_distance().map(np.array([(3.0, -4.0)])).tolist() == [5.0]
    with pytest.raises(ModelError, match=r"edge \(1, 2\)"):
        check_strictly_positive(build_spatial_model(3, [(0, 1.0, 1), (1, 0.0, 2)]), weight_sum_distance())


@given(
    st.floats(min_value=0, max_value=1e9),
    st.floats(min_value=0, max_value=1e9),
    st.floats(min_value=0, max_value=1e9),
)
def test_real_add_associative_and_monotone(a, b, c):
    # the bounded-reach flooding relies on float sums never decreasing along a route
    assert abs((a + b) + c - (a + (b + c))) <= 1e-12 * max(1.0, a + b + c)
    if a <= b:
        assert a + c <= b + c
        assert c + a <= c + b


def test_hop_add_monotone():
    values = [0, 1, 2, 5, math.inf]
    for a in values:
        for b in values:
            for c in values:
                if a <= b:
                    assert a + c <= b + c


def test_domain_lookup():
    assert signal_domain_by_name("boolean").name == "boolean"
    assert signal_domain_by_name("quantitative").name == "quantitative"
    with pytest.raises(ValueError):
        signal_domain_by_name("tropical")
