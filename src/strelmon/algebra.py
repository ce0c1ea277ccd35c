"""Verdict domains.

STREL's two shipped semirings are total orders in which choose is ``max``
and combine is ``min``: the Boolean domain ({False, True}, or, and) and the
max/min domain over the extended reals.  A domain therefore only names its
bottom, its top and its De Morgan negation; the monitor writes ``max`` and
``min`` as inline comparisons.  Route distances are plain numbers: strictly
positive per edge, summed along a route, with ``math.inf`` as "unbounded".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class SignalDomain:
    """A verdict domain: ``negate`` is an involution swapping bottom and top."""

    name: str
    bottom: Any
    top: Any
    negate: Callable[[Any], Any]


def boolean_domain() -> SignalDomain:
    """Python bools: choose is disjunction, combine is conjunction."""
    return SignalDomain("boolean", False, True, operator.not_)


def maxmin_domain() -> SignalDomain:
    """Extended reals with max/min and arithmetic negation.

    Verdicts are real-valued satisfaction margins; the sign carries the
    Boolean answer, the magnitude a degree of robustness.
    """
    return SignalDomain("quantitative", -math.inf, math.inf, operator.neg)


DOMAINS = {
    "boolean": boolean_domain,
    "quantitative": maxmin_domain,
}


def signal_domain_by_name(name: str) -> SignalDomain:
    try:
        return DOMAINS[name]()
    except KeyError:
        raise ValueError(f"unknown signal domain {name!r}; expected one of {sorted(DOMAINS)}") from None
