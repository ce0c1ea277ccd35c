"""Formula syntax tree, concrete grammar, parser, printer and desugaring.

The grammar is one table, ``_OPERATORS``, of each operator's text and
binding level, higher binding tighter:

    level 1  |                                       binary
    level 2  &                                       binary
    level 3  U  S  reach  surround                   binary
    level 4  !  F  G  escape  somewhere  everywhere  prefix

and one rule for the binaries: an expression of level k is a unary
followed by any binaries of level k to 3, each with the expression of one
level above its own as its right operand, so binaries associate left:

    formula  := binary(1) ;
    binary(k):= unary { op head binary(level(op) + 1) }   for k <= level(op) <= 3 ;
    unary    := op head unary                             for level(op) = 4
              | atom | "(" formula ")" ;
    head     := [ "(" ident ")" ] [interval] ;   distance: spatial ops; none after ! & |
    interval := "[" (number | "inf") "," (number | "inf") "]" ;
    atom     := ident | ident cmp number ; cmp := ">"|"<"|">="|"<=" ;

The printer reads the same levels: an operand is parenthesised exactly
where it binds looser than its position admits.  Every operator but `!`,
`&` and `|` takes the same optional interval, each bound a number or
`inf`; an omitted one means [0, inf].  ``Interval(lo, math.inf)`` is the
one unbounded interval: a temporal one runs to the trace edge.
"""

from __future__ import annotations

import math
import re
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{column}: {message}{suffix}")


UNBOUNDED = math.inf


@dataclass(frozen=True)
class Interval:
    """[lo, hi], unbounded when ``hi`` is ``math.inf`` (a passed None reads
    as it); the one check of NaN, negative and inverted bounds."""

    lo: float
    hi: float

    def __post_init__(self):
        # + 0.0 makes -0.0 the one zero, so equal intervals have equal fields
        lo, hi = float(self.lo) + 0.0, math.inf if self.hi is None else float(self.hi) + 0.0
        if not lo >= 0:
            raise ValueError(f"interval lower bound must be nonnegative, got {self.lo}")
        if not hi >= lo:
            raise ValueError(f"malformed interval [{self.lo}, {self.hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def bounded(self) -> bool:
        return self.hi < math.inf


FULL = Interval(0.0, UNBOUNDED)


class _Interned(type):
    """Makes a node class return the one live node with the same class and
    fields, children compared by identity: equal formulas are one object."""

    def __call__(cls, *args, **kwargs):
        node = super().__call__(*args, **kwargs)
        # a dataclass's __dict__ holds its fields in declaration order
        key = (cls, *(id(v) if isinstance(v, Formula) else v for v in vars(node).values()))
        return _NODES.setdefault(key, node)


# a key names its children by id, which stay unique while the node is alive
_NODES = weakref.WeakValueDictionary()


class Formula(metaclass=_Interned):
    """Base class; nodes are frozen dataclasses interned at construction, so
    ``==`` and ``hash`` are by identity and cost O(1) on any DAG."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(vars(self).values())

    def __repr__(self) -> str:
        """The dataclass repr, linear in the distinct nodes: a node that two
        or more fields hold prints in full once, as ``#k=Node(...)``, and as
        ``#k`` wherever it recurs, so a tree prints as a dataclass would."""
        held = Counter(id(child) for node in iter_subformulas(self) for child in _children(node))
        labels: dict[int, str] = {}

        def show(node) -> str:
            if not isinstance(node, Formula):
                return repr(node)
            if id(node) in labels:
                return labels[id(node)]
            label = ""
            if held[id(node)] > 1:
                labels[id(node)] = f"#{len(labels) + 1}"
                label = labels[id(node)] + "="
            fields = ", ".join(f"{name}={show(value)}" for name, value in vars(node).items())
            return f"{label}{type(node).__qualname__}({fields})"

        return show(self)


@dataclass(frozen=True, eq=False, repr=False)
class Atomic(Formula):
    name: str
    op: Optional[str] = None  # one of > < >= <= for comparison atoms
    threshold: Optional[float] = None

    def __post_init__(self):
        if (self.op is None) != (self.threshold is None):
            raise ValueError("comparison atoms need both op and threshold")
        if self.op is not None and self.op not in (">", "<", ">=", "<="):
            raise ValueError(f"unknown comparison operator {self.op!r}")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError(f"comparison threshold must be finite, got {self.threshold}")
        # + 0.0 makes -0.0 the one zero, so equal atoms have equal fields
        object.__setattr__(self, "threshold", None if self.op is None else float(self.threshold) + 0.0)


TRUE = Atomic("true")
FALSE = Atomic("false")


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Until(Formula):
    interval: Interval
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Since(Formula):
    interval: Interval
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Eventually(Formula):
    interval: Interval
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Globally(Formula):
    interval: Interval
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Reach(Formula):
    interval: Interval
    distance: str
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Escape(Formula):
    interval: Interval
    distance: str
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Somewhere(Formula):
    interval: Interval
    distance: str
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Everywhere(Formula):
    interval: Interval
    distance: str
    child: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Surround(Formula):
    interval: Interval
    distance: str
    left: Formula
    right: Formula


def _children(node: Formula) -> tuple:
    """A node's operands: its Formula-valued fields, in declaration order."""
    return tuple(v for v in vars(node).values() if isinstance(v, Formula))


# Each operator's text and binding level, higher binding tighter: levels 1
# to 3 are the binaries, level 4 the prefix operators.  The parser and the
# printer both read this one table.
_OPERATORS = {
    Or: ("|", 1), And: ("&", 2),
    Until: ("U", 3), Since: ("S", 3), Reach: ("reach", 3), Surround: ("surround", 3),
    Not: ("!", 4), Eventually: ("F", 4), Globally: ("G", 4),
    Escape: ("escape", 4), Somewhere: ("somewhere", 4), Everywhere: ("everywhere", 4),
}
_PREFIX = 4
_BY_TEXT = {text: (cls, level) for cls, (text, level) in _OPERATORS.items()}
_SPATIAL = (Reach, Surround, Escape, Somewhere, Everywhere)  # these name a distance function

# The parser, the desugarer and the monitor all recurse once per tree level,
# so deeper input is refused with a ParseError: both the operands nested
# while parsing and the levels of the desugared core tree are capped.
MAX_DEPTH = 200

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<cmp>>=|<=|>|<)
  | (?P<sym>[()\[\],!&|])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | cmp | sym | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        if m.lastgroup != "ws":
            yield _Token(m.lastgroup, m.group(), line, m.start() - line_start + 1)
        else:
            for i in range(m.start(), m.end()):
                if text[i] == "\n":
                    line += 1
                    line_start = i + 1
        pos = m.end()
    yield _Token("end", "", line, len(text) - line_start + 1)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.nesting = 0
        self.heights: dict[int, int] = {}  # id -> core-tree height; nodes stay alive in the tree

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        return ParseError(f"{message}, found {found}", tok.line, tok.column, expected)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "end":
            raise self.error(f"expected {text!r}", (text,))
        return self.advance()

    def build(self, tok: _Token, cls, *fields) -> Formula:
        """Build a node at a token, refusing invalid fields and a desugared
        tree deeper than MAX_DEPTH there."""
        try:
            node = cls(*fields)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None
        below = [self.heights[id(f)] for f in fields if isinstance(f, Formula)]
        height = _CORE_LEVELS.get(cls, 1) + max(below, default=0)
        if height > MAX_DEPTH:
            raise ParseError(
                f"formula nests deeper than {MAX_DEPTH} levels once desugared", tok.line, tok.column
            )
        self.heights[id(node)] = height
        return node

    def parse(self) -> Formula:
        node = self.parse_binary(1)
        if self.peek().kind != "end":
            raise self.error("trailing input after formula", ("end of input",))
        return node

    def parse_binary(self, lowest: int) -> Formula:
        """A unary followed by any binaries of level ``lowest`` or above, each
        taking what binds tighter than itself as its right operand."""
        node = self.parse_unary()
        while True:
            cls, level = _BY_TEXT.get(self.peek().text, (None, 0))
            if not lowest <= level < _PREFIX:
                return node
            tok = self.advance()
            node = self.build(tok, cls, *self.parse_head(cls), node, self.parse_binary(level + 1))

    def parse_unary(self) -> Formula:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error(f"formula nests deeper than {MAX_DEPTH} levels")
        cls, level = _BY_TEXT.get(tok.text, (None, 0))
        if level == _PREFIX:
            self.advance()
            node = self.build(tok, cls, *self.parse_head(cls), self.parse_unary())
        elif tok.text == "(":
            self.advance()
            node = self.parse_binary(1)
            self.expect(")")
        elif tok.kind == "ident":
            if cls is not None or tok.text == "inf":
                raise self.error(f"{tok.text!r} is a reserved word, not an atom", ("atom",))
            node = self.parse_atom()
        else:
            raise self.error("expected a formula", ("atom", "!", "(", "F", "G"))
        self.nesting -= 1
        return node

    def parse_atom(self) -> Formula:
        tok = self.advance()
        if self.peek().kind == "cmp":
            op = self.advance().text
            num = self.peek()
            if num.kind != "number":
                raise self.error("expected a number after comparison operator", ("number",))
            self.advance()
            return self.build(num, Atomic, tok.text, op, float(num.text))
        return self.build(tok, Atomic, tok.text)

    def parse_distance_name(self) -> str:
        self.expect("(")
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error("expected a distance-function name", ("identifier",))
        self.advance()
        self.expect(")")
        return tok.text

    def parse_head(self, cls) -> tuple:
        """The fields an operator is followed by: none after !, & and |, else
        an interval, and first the distance name of a spatial operator."""
        if "interval" not in cls.__dataclass_fields__:
            return ()
        if cls in _SPATIAL:
            dist = self.parse_distance_name()
            return self.parse_interval(), dist
        return (self.parse_interval(),)

    def parse_interval(self) -> Interval:
        """An optional [lo, hi], each bound a number or inf; [0, inf] if omitted."""
        if self.peek().text != "[":
            return FULL
        self.advance()
        lo_tok = self.peek()
        lo = self.parse_bound("lower")
        self.expect(",")
        hi = self.parse_bound("upper")
        self.expect("]")
        try:
            return Interval(lo, hi)
        except ValueError as exc:
            raise ParseError(str(exc), lo_tok.line, lo_tok.column) from None

    def parse_bound(self, which: str) -> float:
        tok = self.peek()
        if tok.kind != "number" and tok.text != "inf":
            raise self.error(f"expected a number or 'inf' as interval {which} bound", ("number", "inf"))
        return float(self.advance().text)


def parse(text: str) -> Formula:
    return _Parser(text).parse()


def format_number(x: float) -> str:
    """Exact text of a number: integral values without the trailing .0,
    infinities as inf and -inf, booleans as 1 and 0, others as repr."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _head(node: Formula) -> str:
    """An operator's text, distance name and interval as the parser reads
    them; F and G over [0, inf] print without the interval."""
    text = _OPERATORS[type(node)][0]
    if isinstance(node, _SPATIAL):
        text += f"({node.distance})"
    if "interval" not in vars(node) or (node.interval == FULL and isinstance(node, (Eventually, Globally))):
        return text
    return f"{text}[{format_number(node.interval.lo)},{format_number(node.interval.hi)}]"


def _fmt(node: Formula, lowest: int) -> str:
    """``node``'s text, parenthesised if its operator binds looser than
    ``lowest``: the level that ``parse_binary`` reads its position at."""
    if isinstance(node, Atomic):
        if node.op is None:
            return node.name
        return f"{node.name} {node.op} {format_number(node.threshold)}"
    if type(node) not in _OPERATORS:
        raise TypeError(f"not a formula node: {node!r}")
    level = _OPERATORS[type(node)][1]
    if level == _PREFIX:
        (child,) = _children(node)
        return _head(node) + ("" if isinstance(node, Not) else " ") + _fmt(child, _PREFIX)
    left, right = _children(node)
    text = f"{_fmt(left, level)} {_head(node)} {_fmt(right, level + 1)}"
    return f"({text})" if level < lowest else text


def format_formula(node: Formula) -> str:
    """Inverse of parse up to whitespace: parse(format_formula(f)) == f."""
    return _fmt(node, 1)


# the core fragment, and the core-tree levels each other operator adds once
# desugared (all others add one)
_CORE = (Atomic, Not, And, Until, Since, Reach, Escape)
_CORE_LEVELS = {Or: 3, Globally: 3, Everywhere: 3, Surround: 6}


def desugar(node: Formula) -> Formula:
    """Rewrite derived operators into the core fragment.

    Core nodes are Atomic, Not, And, Until, Since, Reach and Escape.  The
    rewrites: disjunction via De Morgan, eventually as a true-until,
    globally as its dual, somewhere as a true-reach, everywhere as the dual
    of somewhere, and surround as the region-enclosure conjunction
    phi1 & !reach(phi1, !(phi1|phi2)) & !escape[hi, inf](phi1).

    Nodes are interned, so the result is a DAG whose equal subformulas are
    one object: nested surrounds (each uses phi1 four times) grow by a
    constant per level, not 4x, and an identity walk visits each node once.
    The rewrite visits each node object of its input once too (a memo keyed
    by the node for this call), so desugaring a core DAG again is as fast and
    returns the same object.
    """
    return _rewrite(node, {})


def _rewrite(node: Formula, memo: dict[Formula, Formula]) -> Formula:
    """``node`` rewritten into the core fragment, memoised by the node."""
    if node not in memo:
        memo[node] = _rewrite_node(node, memo)
    return memo[node]


def _rewrite_node(node: Formula, memo: dict[Formula, Formula]) -> Formula:
    """``node``'s fields with its children rewritten, rebuilt as the same
    class if it is core, else as its definition in the core fragment."""
    fields = [_rewrite(v, memo) if isinstance(v, Formula) else v for v in vars(node).values()]
    if isinstance(node, _CORE):
        return type(node)(*fields)
    *head, child = fields  # a unary's interval and distance name, and its operand
    if isinstance(node, Eventually):
        return Until(*head, TRUE, child)
    if isinstance(node, Globally):
        return Not(Until(*head, TRUE, Not(child)))
    if isinstance(node, Somewhere):
        return Reach(*head, TRUE, child)
    if isinstance(node, Everywhere):
        return Not(Reach(*head, TRUE, Not(child)))
    if isinstance(node, Or):
        left, right = fields
        return Not(And(Not(left), Not(right)))
    if isinstance(node, Surround):
        interval, distance, left, right = fields
        # !(phi1 | phi2) with the disjunction already pushed through De Morgan
        outside = And(Not(left), Not(right))
        blocked = Not(Reach(interval, distance, left, outside))
        no_escape = Not(Escape(Interval(interval.hi, UNBOUNDED), distance, left))
        return And(And(left, blocked), no_escape)
    raise TypeError(f"not a formula node: {node!r}")


def iter_subformulas(node: Formula) -> Iterator[Formula]:
    """Each node object under ``node``, itself included, once, in preorder
    (left before right): a node shared by several parents at its first visit."""
    seen: set[int] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(reversed(_children(node)))
