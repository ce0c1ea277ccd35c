"""Offline monitoring of spatio-temporal reach/escape properties over
dynamic weighted graphs, with Boolean and quantitative verdicts."""

from .algebra import SignalDomain, boolean_domain, maxmin_domain
from .logic import Formula, Interval, ParseError, desugar, format_formula, parse
from .monitor import MonitorContext, SemanticError, monitor, satisfied_locations
from .oracle import oracle_monitor
from .signals import SpatioTemporalSignal, TemporalSignal, Trace, load_trace, save_trace
from .space import (
    DistanceFunction,
    DynamicalSpatialModel,
    EuclideanPositions,
    SpatialModel,
    build_spatial_model,
    euclidean_model,
    hop_distance,
    euclidean_norm_distance,
    load_model,
    min_distance_matrix,
    save_model,
    undirected_model,
    weight_sum_distance,
)

__version__ = "0.1.0"
