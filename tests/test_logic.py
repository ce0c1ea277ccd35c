import copy
import dataclasses
import math
import pickle
import random

import pytest

from conftest import deadline, left_nested_surround, random_formula
from strelmon.logic import (
    And,
    Atomic,
    Escape,
    Eventually,
    Everywhere,
    FULL,
    Formula,
    Globally,
    Interval,
    MAX_DEPTH,
    Not,
    Or,
    ParseError,
    Reach,
    Since,
    Somewhere,
    Surround,
    TRUE,
    UNBOUNDED,
    Until,
    _CORE,
    _Parser,
    desugar,
    format_formula,
    format_number,
    iter_subformulas,
    parse,
)


def is_core(node) -> bool:
    """Whether every node under ``node`` is a core operator, as ``desugar`` returns."""
    return all(isinstance(n, _CORE) for n in iter_subformulas(node))


def test_parse_reach():
    f = parse("end_dev reach(hop)[0,1] router")
    assert f == Reach(Interval(0, 1), "hop", Atomic("end_dev"), Atomic("router"))


def test_parse_negated_comparison():
    assert parse("!(x > 0.5)") == Not(Atomic("x", ">", 0.5))


def test_parse_escape_unbounded():
    f = parse("escape(hop)[2,inf] !end_dev")
    assert f == Escape(Interval(2, UNBOUNDED), "hop", Not(Atomic("end_dev")))


def test_parse_somewhere():
    f = parse("somewhere(hop)[0,4] coord")
    assert f == Somewhere(Interval(0, 4), "hop", Atomic("coord"))


def test_precedence():
    # unary binds tightest, then temporal/spatial binary, then &, then |
    f = parse("a | b & c")
    assert f == Or(Atomic("a"), And(Atomic("b"), Atomic("c")))
    g = parse("a U[0,1] b & c")
    assert g == And(Until(Interval(0, 1), Atomic("a"), Atomic("b")), Atomic("c"))
    h = parse("a & b U[0,1] c")
    assert h == And(Atomic("a"), Until(Interval(0, 1), Atomic("b"), Atomic("c")))
    k = parse("!a U[0,1] F b")
    assert k == Until(Interval(0, 1), Not(Atomic("a")), Eventually(FULL, Atomic("b")))


def test_left_associative_binaries():
    f = parse("a | b | c")
    assert f == Or(Or(Atomic("a"), Atomic("b")), Atomic("c"))
    g = parse("a reach(hop)[0,1] b reach(hop)[0,2] c")
    assert g == Reach(
        Interval(0, 2),
        "hop",
        Reach(Interval(0, 1), "hop", Atomic("a"), Atomic("b")),
        Atomic("c"),
    )


# hand-written binding levels and builders, independent of the parser's table
_PAIR_BINARIES = {
    "|": (1, Or),
    "&": (2, And),
    "U[0,1]": (3, lambda left, right: Until(Interval(0, 1), left, right)),
    "S[1,inf]": (3, lambda left, right: Since(Interval(1, math.inf), left, right)),
    "reach(hop)[0,2]": (3, lambda left, right: Reach(Interval(0, 2), "hop", left, right)),
    "surround(w)[0,inf]": (3, lambda left, right: Surround(FULL, "w", left, right)),
}
_PAIR_PREFIXES = {  # each text is followed directly by its operand's
    "!": Not,
    "F ": lambda child: Eventually(FULL, child),
    "G[0,1] ": lambda child: Globally(Interval(0, 1), child),
    "escape(hop)[2,inf] ": lambda child: Escape(Interval(2, math.inf), "hop", child),
    "somewhere(w)[0,1] ": lambda child: Somewhere(Interval(0, 1), "w", child),
    "everywhere(hop)[0,inf] ": lambda child: Everywhere(FULL, "hop", child),
}
_PAIR_A, _PAIR_B, _PAIR_C = Atomic("a"), Atomic("b"), Atomic("c")


def _prints_and_parses_back(f, text):
    assert format_formula(f) == text
    assert parse(text) is f


@pytest.mark.parametrize("outer", [*_PAIR_BINARIES, *_PAIR_PREFIXES], ids=str.strip)
def test_precedence_of_every_operator_pair(outer):
    """Each operator over each other one: a binary under a binary as its
    left and as its right operand, a binary under a prefix, a prefix under
    a binary or a prefix.  The bare text parses by the binding levels, and
    the printer parenthesises exactly where the operand binds looser than
    its position admits: below the level on the left, at or below it on the
    right, and any binary under a prefix."""
    a, b, c = _PAIR_A, _PAIR_B, _PAIR_C
    if outer in _PAIR_PREFIXES:
        make = _PAIR_PREFIXES[outer]
        for prefix, make_prefix in _PAIR_PREFIXES.items():
            _prints_and_parses_back(make(make_prefix(a)), f"{outer}{prefix}a")
        for inner, (_, make_inner) in _PAIR_BINARIES.items():
            _prints_and_parses_back(make(make_inner(a, b)), f"{outer}(a {inner} b)")
            assert parse(f"{outer}a {inner} b") is make_inner(make(a), b)
        return
    level, make = _PAIR_BINARIES[outer]
    for prefix, make_prefix in _PAIR_PREFIXES.items():
        _prints_and_parses_back(make(make_prefix(a), make_prefix(b)), f"{prefix}a {outer} {prefix}b")
    for inner, (inner_level, make_inner) in _PAIR_BINARIES.items():
        bare = f"a {inner} b {outer} c"
        if inner_level >= level:
            assert parse(bare) is make(make_inner(a, b), c), bare
        else:
            assert parse(bare) is make_inner(a, make(b, c)), bare
        left = f"a {inner} b" if inner_level >= level else f"(a {inner} b)"
        _prints_and_parses_back(make(make_inner(a, b), c), f"{left} {outer} c")
        right = f"b {inner} c" if inner_level > level else f"(b {inner} c)"
        _prints_and_parses_back(make(a, make_inner(b, c)), f"a {outer} {right}")


@pytest.mark.parametrize("first", _PAIR_BINARIES)
def test_left_associativity_of_every_binary_pair(first):
    """Two binaries of one level, either first, group to the left, so the
    printer parenthesises a right operand of the same level and no left one."""
    a, b, c = _PAIR_A, _PAIR_B, _PAIR_C
    level, make_first = _PAIR_BINARIES[first]
    for second, (other, make_second) in _PAIR_BINARIES.items():
        if other != level:
            continue
        _prints_and_parses_back(make_second(make_first(a, b), c), f"a {first} b {second} c")
        _prints_and_parses_back(make_first(a, make_second(b, c)), f"a {first} (b {second} c)")


def test_parens_override():
    f = parse("a & (b | c)")
    assert f == And(Atomic("a"), Or(Atomic("b"), Atomic("c")))


def test_unadorned_unary_defaults():
    assert parse("F x") == Eventually(FULL, Atomic("x"))
    assert parse("G x") == Globally(FULL, Atomic("x"))
    assert parse("somewhere(hop) x") == Somewhere(FULL, "hop", Atomic("x"))
    assert parse("a reach(hop) b") == Reach(FULL, "hop", Atomic("a"), Atomic("b"))


def test_every_operator_takes_one_optional_interval():
    """U and S read their interval as every other operator does: optional
    ([0, inf] if omitted), each bound a number or inf.  The parser used to
    refuse inf as a temporal bound and an until or since without one."""
    a, b = Atomic("a"), Atomic("b")
    assert parse("a U b") == parse("a U[0,inf] b") == parse("a U[0,1e999] b") == Until(FULL, a, b)
    assert parse("a S b") == Since(FULL, a, b)
    assert parse("F[0,inf] a") == parse("F a") == Eventually(FULL, a)
    assert parse("F[1,inf] a") == parse("F[1,1e400] a") == Eventually(Interval(1, math.inf), a)
    assert parse("a S[0.5,inf] b") == Since(Interval(0.5, math.inf), a, b)
    assert parse("G[0.25,inf] a") == Globally(Interval(0.25, math.inf), a)
    assert parse("a U[inf,inf] b") == Until(Interval(math.inf, math.inf), a, b)
    with pytest.raises(ParseError, match="expected a number or 'inf' as interval lower bound"):
        parse("a U[b,1] b")


@pytest.mark.parametrize(
    "text", ["a U[0,1e999] b", "F[1,1e400] p", "F p", "a U[0,inf] b", "x S[0.5,inf] y", "G[inf,inf] p"]
)
def test_unbounded_temporal_text_roundtrips(text):
    """The printed form of an unbounded until, since, F or G parses back,
    desugared too: a U[0,1e999] b used to print as a U[0,inf] b, and F p to
    desugar to true U[0,inf] p, neither of which parsed."""
    f = parse(text)
    assert parse(format_formula(f)) == f
    assert parse(format_formula(desugar(f))) == desugar(f)


@pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
def test_comparison_threshold_must_be_finite(threshold):
    """x > inf used to give a NaN quantitative verdict on an infinite x."""
    with pytest.raises(ValueError, match="threshold must be finite"):
        Atomic("x", ">", threshold)


@pytest.mark.parametrize("text, column", [("x > 1e400", 5), ("x <= -1e400", 6), ("(y < 1e999)", 6)])
def test_infinite_threshold_is_a_parse_error_at_the_number(text, column):
    with pytest.raises(ParseError, match="threshold must be finite") as err:
        parse(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert len(str(err.value).splitlines()) == 1


def test_parse_error_reports_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("a &")
    assert err.value.line == 1
    assert err.value.column == 4
    assert err.value.expected

    with pytest.raises(ParseError) as err:
        parse("a U 0,1] b")
    assert "expected" in str(err.value)

    with pytest.raises(ParseError):
        parse("reach(hop)[0,1] b")  # reserved word used as an atom

    with pytest.raises(ParseError):
        parse("(a | b")

    with pytest.raises(ParseError):
        parse("a ? b")


def _core_height(node):
    children = [getattr(node, a) for a in ("child", "left", "right") if hasattr(node, a)]
    return 1 + max((_core_height(c) for c in children), default=0)


@pytest.mark.parametrize(
    "nest, levels",
    [
        (lambda k: "!" * k + "q", 1),
        (lambda k: " & ".join(["p"] * k + ["q"]), 1),
        (lambda k: "G[0,1] " * k + "q", 3),
        (lambda k: "p | (" * k + "q" + ")" * k, 3),
        (lambda k: "everywhere(hop) " * k + "q", 3),
        (lambda k: "p surround(hop)[0,1] (" * k + "q" + ")" * k, 6),
    ],
)
def test_depth_cap_counts_desugared_levels(nest, levels):
    """A formula parses iff its desugared tree has at most MAX_DEPTH levels;
    deeper ones are a ParseError, not a RecursionError."""
    boundary = (MAX_DEPTH - 1) // levels
    for k in range(boundary - 2, boundary + 3):
        if levels * k + 1 <= MAX_DEPTH:
            assert _core_height(desugar(parse(nest(k)))) == levels * k + 1
        else:
            with pytest.raises(ParseError, match="deeper than"):
                parse(nest(k))
    with pytest.raises(ParseError, match="deeper than"):
        parse("(" * MAX_DEPTH + "q" + ")" * MAX_DEPTH)


def test_interval_validation():
    with pytest.raises(ParseError):
        parse("F[2,1] x")
    # an infinite lower bound is allowed, but not above the upper one
    assert parse("escape(hop)[inf,inf] a") == Escape(Interval(math.inf, UNBOUNDED), "hop", Atomic("a"))
    assert parse("a reach(hop)[inf,inf] b").interval == Interval(math.inf, UNBOUNDED)
    for text in ("a reach(hop)[inf,2] b", "F[inf,2] x", "a S[inf,3] b"):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert len(str(err.value).splitlines()) == 1
    with pytest.raises(ValueError):
        Interval(-1.0, 2.0)
    with pytest.raises(ValueError):
        Interval(3.0, 2.0)


@pytest.mark.parametrize(
    "lo, hi",
    [(math.nan, 2.0), (0.0, math.nan), (math.nan, math.nan), (math.nan, None), (-1.0, 2.0),
     (-math.inf, 0.0), (3.0, 2.0), (math.inf, 2.0)],
)
def test_interval_rejects_nan_negative_and_inverted_bounds(lo, hi):
    """Interval is the one place that checks bounds; NaN fails every
    comparison, so F[nan,2] p used to be a silent false and F[0,nan] p a
    verdict ending at NaN."""
    bad_lo = not lo >= 0
    with pytest.raises(ValueError, match="lower bound must be nonnegative" if bad_lo else "malformed"):
        Interval(lo, hi)


def test_none_upper_bound_is_infinity():
    """math.inf is the one unbounded upper bound; a passed None reads as it."""
    assert Interval(0, None) == Interval(0, math.inf) == FULL
    assert hash(Interval(0, None)) == hash(Interval(0, math.inf))
    assert Interval(1.5, None).hi == math.inf and not Interval(1.5, None).bounded
    for interval in (Interval(0, None), Interval(1, 2), Interval(math.inf, math.inf)):
        assert type(interval.lo) is float and type(interval.hi) is float


def test_roundtrip_with_infinite_upper_bounds():
    """Every interval-carrying operator prints an unbounded interval so that
    it parses back, desugared too; F and G over [0, inf] print without one."""
    a, b = Atomic("a"), Atomic("b")
    cases = [Eventually(Interval(0, math.inf), a), Globally(Interval(0, None), a)]
    for lo in (0.0, 1.5, math.inf):
        i = Interval(lo, math.inf)
        cases += [Reach(i, "hop", a, b), Surround(i, "hop", a, b), Escape(i, "hop", a)]
        cases += [Somewhere(i, "weight", a), Everywhere(i, "weight", a)]
        cases += [Until(i, a, b), Since(i, a, b), Eventually(i, a), Globally(i, b)]
    for f in cases:
        text = format_formula(f)
        assert parse(text) == f, text
        assert parse(format_formula(desugar(f))) == desugar(f), f
    assert format_formula(cases[0]) == "F a" and format_formula(cases[1]) == "G a"
    assert format_formula(Until(Interval(1, None), a, b)) == "a U[1,inf] b"


def test_desugar_somewhere():
    f = desugar(parse("somewhere(hop)[0,4] coord"))
    assert f == Reach(Interval(0, 4), "hop", TRUE, Atomic("coord"))


def test_desugar_everywhere_is_dual_of_somewhere():
    ew = desugar(parse("everywhere(hop)[0,2] router"))
    dual = desugar(Not(Somewhere(Interval(0, 2), "hop", Not(Atomic("router")))))
    assert ew == dual


def test_desugar_eventually_globally():
    ev = desugar(parse("F[0,2] x"))
    assert ev == Until(Interval(0, 2), TRUE, Atomic("x"))
    gl = desugar(parse("G[0,2] x"))
    assert gl == Not(Until(Interval(0, 2), TRUE, Not(Atomic("x"))))


def test_desugar_or():
    f = desugar(parse("a | b"))
    assert f == Not(And(Not(Atomic("a")), Not(Atomic("b"))))


def test_desugar_surround_three_conjuncts():
    f = desugar(parse("(coord|router) surround(hop)[0,3] end_dev"))
    phi1 = desugar(Or(Atomic("coord"), Atomic("router")))
    outside = And(Not(phi1), Not(Atomic("end_dev")))
    blocked = Not(Reach(Interval(0, 3), "hop", phi1, outside))
    no_escape = Not(Escape(Interval(3, UNBOUNDED), "hop", phi1))
    assert f == And(And(phi1, blocked), no_escape)


def test_desugar_core_only_and_idempotent():
    rng = random.Random(99)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 4))
        core = desugar(f)
        assert is_core(core)
        assert desugar(core) == core


def test_roundtrip_on_random_asts():
    rng = random.Random(42)
    for _ in range(100):
        f = random_formula(rng, rng.randint(0, 4))
        text = format_formula(f)
        assert parse(text) == f, text
        assert parse(text) is f, text


def _interval_formula(rng, depth):
    """Random formula in which every interval operator may carry [lo, inf]
    with lo in {0, 0.25, inf}, or else a finite interval."""
    if depth == 0 or rng.random() < 0.2:
        return random_formula(rng, 0)
    ops = [Not, And, Or, Until, Since, Eventually, Globally, Reach, Surround, Escape,
           Somewhere, Everywhere]
    op = rng.choice(ops)
    sub = lambda: _interval_formula(rng, depth - 1)
    if op is Not:
        return Not(sub())
    if op in (And, Or):
        return op(sub(), sub())
    lo = rng.choice([0.0, 0.25, math.inf])
    interval = Interval(lo, math.inf) if rng.random() < 0.6 else Interval(min(lo, 0.5), rng.choice([0.5, 2]))
    if op in (Until, Since):
        return op(interval, sub(), sub())
    if op in (Eventually, Globally):
        return op(interval, sub())
    dist = rng.choice(["hop", "weight"])
    if op in (Reach, Surround):
        return op(interval, dist, sub(), sub())
    return op(interval, dist, sub())


def test_format_inverts_parse_on_unbounded_intervals():
    """parse(format_formula(f)) == f, and so for the desugared form, on
    formulas whose interval operators run to infinity."""
    rng = random.Random(1407)
    for _ in range(400):
        f = _interval_formula(rng, rng.randint(1, 5))
        text = format_formula(f)
        assert parse(text) == f, text
        core = desugar(f)
        assert parse(format_formula(core)) == core, text


def test_roundtrip_preserves_unadorned_operators():
    f = Globally(FULL, Or(Atomic("a"), Eventually(Interval(0, 3), Atomic("a"))))
    assert parse(format_formula(f)) == f


def test_format_examples():
    assert format_formula(parse("x >= 1.5 & !y")) == "x >= 1.5 & !y"
    assert format_formula(parse("escape(hop)[2,inf] !end_dev")) == "escape(hop)[2,inf] !end_dev"
    # infinite bounds print as inf: surround's escape conjunct and Interval(0, inf)
    assert format_formula(desugar(parse("a surround(hop) b"))) == (
        "a & !(a reach(hop)[0,inf] (!a & !b)) & !escape(hop)[inf,inf] a"
    )
    assert format_formula(Escape(Interval(0, math.inf), "hop", Atomic("a"))) == "escape(hop)[0,inf] a"
    assert format_formula(desugar(parse("F p"))) == "true U[0,inf] p"
    surround = desugar(parse("a surround(hop) b"))
    assert parse(format_formula(surround)) == surround


def test_separate_desugarings_of_nested_surround_are_one_object():
    """Every constructor returns the one live node with the same class and
    fields, so two parses and desugarings of one text give one object."""
    text = left_nested_surround(33)
    same = desugar(parse(text)) is desugar(parse(text))
    assert same  # a bool: a failing assertion on the nodes would print each as a tree


def test_hash_eq_set_and_is_core_are_linear_on_nested_surround():
    """33 left-nested surrounds, the most the depth cap admits, use each left
    operand four times once desugared: as a tree the core has about 4**33
    nodes.  Hashing, comparing, collecting and checking it used to walk that
    tree."""
    core = desugar(parse(left_nested_surround(33)))
    other = desugar(parse(left_nested_surround(33)))
    with deadline(2):
        hashes_equal = hash(core) == hash(other)
        equal = core == other and core != core.left
        distinct = len(set(iter_subformulas(core))) == len(list(iter_subformulas(core)))
        core_only = is_core(core)
    assert hashes_equal and equal and distinct and core_only


def test_repr_prints_each_distinct_node_once():
    """A tree prints as a dataclass repr would; a node that two or more
    fields hold prints in full once, as #k=..., and as #k where it recurs.
    So the 33-level nested-surround core, about 4**33 nodes as a tree,
    prints at once, in a few characters per distinct node."""
    b = "Atomic(name='b', op=None, threshold=None)"
    assert repr(parse("a & !F[0,1] b")) == (
        "And(left=Atomic(name='a', op=None, threshold=None), right=Not(child="
        f"Eventually(interval=Interval(lo=0.0, hi=1.0), child={b})))"
    )
    assert repr(parse("b U (b & !b)")) == (
        f"Until(interval=Interval(lo=0.0, hi=inf), left=#1={b}, right=And(left=#1, right=Not(child=#1)))"
    )
    core = desugar(parse(left_nested_surround(33)))
    with deadline(2):
        text = repr(core)
    assert len(text) < 300 * len(list(iter_subformulas(core)))


def test_copies_pickles_and_replaces_return_the_same_node():
    f = parse("(x > 0.5 | y) surround(hop)[0,2] !F[0.25,1] y")
    for node in (f, desugar(f), desugar(parse(left_nested_surround(33))), Atomic("x", ">=", -1.0)):
        copies = copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node)), dataclasses.replace(node)
        assert [c is node for c in copies] == [True] * 4
    assert dataclasses.replace(f, distance="weight") is parse("(x > 0.5 | y) surround(weight)[0,2] !F[0.25,1] y")


@pytest.mark.parametrize("case, first, second", [(0, 1, 1.0), (1, 1.0, 1), (2, -0.0, 0.0), (3, 0.0, -0.0)])
def test_fields_do_not_depend_on_build_order(case, first, second):
    """An interned node is the first of its equal nodes that was built, so
    thresholds and interval bounds are stored as canonical floats (1.0 for
    1, +0.0 for -0.0) and read back the same whichever came first."""
    x, a, b = f"order{case}", Atomic(f"order{case}_a"), Atomic(f"order{case}_b")
    atoms = Atomic(x, ">", first), Atomic(x, ">", second)
    untils = Until(Interval(first, 1), a, b), Until(Interval(second, 1), a, b)
    assert atoms[0] is atoms[1] and untils[0] is untils[1]
    for value in (atoms[1].threshold, untils[1].interval.lo, untils[1].interval.hi):
        assert type(value) is float and math.copysign(1.0, value) == 1.0
    assert format_formula(atoms[1]) == f"{x} > {1 if first else 0}"
    assert format_formula(untils[1]) == f"{a.name} U[{1 if first else 0},1] {b.name}"


def test_nodes_are_identical_exactly_when_they_print_alike():
    rng = random.Random(2606)
    formulas = [random_formula(rng, rng.randint(0, 2), variables=("x",)) for _ in range(300)]
    texts = [format_formula(f) for f in formulas]
    alike = 0
    for i, (f, text) in enumerate(zip(formulas, texts)):
        for g, other in zip(formulas[:i], texts[:i]):
            assert (f is g) == (text == other), (text, other)
            alike += f is g
    assert alike > 100


# The parser, printer and desugaring that the one operator table replaced,
# verbatim, with the tables they read.  The reference parser inherits the
# tokens, atoms, intervals and node building that were kept.

# operator keyword -> node class; the spatial ones name a distance function
_BINARY = {"U": Until, "S": Since, "reach": Reach, "surround": Surround}
_UNARY = {"F": Eventually, "G": Globally, "escape": Escape, "somewhere": Somewhere,
          "everywhere": Everywhere}
_SPATIAL = (Reach, Surround, Escape, Somewhere, Everywhere)
_KEYWORD = {cls: word for word, cls in {**_BINARY, **_UNARY}.items()}

KEYWORDS = {*_BINARY, *_UNARY, "inf"}


class ReferenceParser(_Parser):
    def parse(self) -> Formula:
        node = self.parse_or()
        if self.peek().kind != "end":
            raise self.error("trailing input after formula", ("end of input",))
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek().text == "|":
            node = self.build(self.advance(), Or, node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_temporal()
        while self.peek().text == "&":
            node = self.build(self.advance(), And, node, self.parse_temporal())
        return node

    def parse_temporal(self) -> Formula:
        node = self.parse_unary()
        while (tok := self.peek()).kind == "ident" and tok.text in _BINARY:
            self.advance()
            cls = _BINARY[tok.text]
            node = self.build(tok, cls, *self.parse_head(cls), node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error(f"formula nests deeper than {MAX_DEPTH} levels")
        if tok.text == "!":
            self.advance()
            node = self.build(tok, Not, self.parse_unary())
        elif tok.kind == "ident" and tok.text in _UNARY:
            self.advance()
            cls = _UNARY[tok.text]
            node = self.build(tok, cls, *self.parse_head(cls), self.parse_unary())
        elif tok.text == "(":
            self.advance()
            node = self.parse_or()
            self.expect(")")
        elif tok.kind == "ident":
            if tok.text in KEYWORDS:
                raise self.error(f"{tok.text!r} is a reserved word, not an atom", ("atom",))
            node = self.parse_atom()
        else:
            raise self.error("expected a formula", ("atom", "!", "(", "F", "G"))
        self.nesting -= 1
        return node

    def parse_head(self, cls) -> tuple:
        """The fields an operator keyword is followed by: an interval, and
        first the distance name of a spatial operator."""
        if cls in _SPATIAL:
            dist = self.parse_distance_name()
            return self.parse_interval(), dist
        return (self.parse_interval(),)


def _head(node: Formula) -> str:
    """An operator's keyword, distance name and interval as the parser reads
    them; F and G over [0, inf] print without the interval."""
    text = _KEYWORD[type(node)]
    if isinstance(node, _SPATIAL):
        text += f"({node.distance})"
    if node.interval == FULL and isinstance(node, (Eventually, Globally)):
        return text
    return f"{text}[{format_number(node.interval.lo)},{format_number(node.interval.hi)}]"


# precedence levels for printing; higher binds tighter
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_TEMPORAL = 3
_LEVEL_UNARY = 4


def _fmt(node: Formula, parent_level: int) -> str:
    if isinstance(node, Atomic):
        if node.op is None:
            return node.name
        return f"{node.name} {node.op} {format_number(node.threshold)}"
    if isinstance(node, Not):
        return "!" + _fmt(node.child, _LEVEL_UNARY)
    if isinstance(node, (Eventually, Globally, Escape, Somewhere, Everywhere)):
        return f"{_head(node)} {_fmt(node.child, _LEVEL_UNARY)}"
    if isinstance(node, (And, Or)):
        level = _LEVEL_AND if isinstance(node, And) else _LEVEL_OR
        op = "&" if isinstance(node, And) else "|"
        text = f"{_fmt(node.left, level)} {op} {_fmt(node.right, level + 1)}"
        return f"({text})" if level < parent_level else text
    if isinstance(node, (Until, Since, Reach, Surround)):
        text = f"{_fmt(node.left, _LEVEL_TEMPORAL)} {_head(node)} {_fmt(node.right, _LEVEL_UNARY)}"
        return f"({text})" if _LEVEL_TEMPORAL < parent_level else text
    raise TypeError(f"not a formula node: {node!r}")


def _rewrite(node: Formula, memo: dict[int, Formula]) -> Formula:
    """``node`` rewritten into the core fragment, memoised by node identity."""
    if id(node) not in memo:
        memo[id(node)] = _rewrite_node(node, memo)
    return memo[id(node)]


def _rewrite_node(node: Formula, memo: dict[int, Formula]) -> Formula:
    if isinstance(node, Atomic):
        return node
    if isinstance(node, Not):
        return Not(_rewrite(node.child, memo))
    if isinstance(node, And):
        return And(_rewrite(node.left, memo), _rewrite(node.right, memo))
    if isinstance(node, Or):
        return Not(And(Not(_rewrite(node.left, memo)), Not(_rewrite(node.right, memo))))
    if isinstance(node, Until):
        return Until(node.interval, _rewrite(node.left, memo), _rewrite(node.right, memo))
    if isinstance(node, Since):
        return Since(node.interval, _rewrite(node.left, memo), _rewrite(node.right, memo))
    if isinstance(node, Eventually):
        return Until(node.interval, TRUE, _rewrite(node.child, memo))
    if isinstance(node, Globally):
        return Not(Until(node.interval, TRUE, Not(_rewrite(node.child, memo))))
    if isinstance(node, Reach):
        return Reach(node.interval, node.distance, _rewrite(node.left, memo), _rewrite(node.right, memo))
    if isinstance(node, Escape):
        return Escape(node.interval, node.distance, _rewrite(node.child, memo))
    if isinstance(node, Somewhere):
        return Reach(node.interval, node.distance, TRUE, _rewrite(node.child, memo))
    if isinstance(node, Everywhere):
        return Not(Reach(node.interval, node.distance, TRUE, Not(_rewrite(node.child, memo))))
    if isinstance(node, Surround):
        left = _rewrite(node.left, memo)
        right = _rewrite(node.right, memo)
        # !(phi1 | phi2) with the disjunction already pushed through De Morgan
        outside = And(Not(left), Not(right))
        blocked = Not(Reach(node.interval, node.distance, left, outside))
        no_escape = Not(Escape(Interval(node.interval.hi, UNBOUNDED), node.distance, left))
        return And(And(left, blocked), no_escape)
    raise TypeError(f"not a formula node: {node!r}")


def reference_parse(text):
    return ReferenceParser(text).parse()


def reference_desugar(node):
    return _rewrite(node, {})


# a token string is operands joined by binaries, some operands under
# prefixes or parenthesised, then 0 to 2 tokens deleted, inserted or replaced
_CORPUS_ATOMS = ["a", "b", "x > 0.5", "x <= -1", "true", "at_1"]
_CORPUS_BINARIES = ["|", "&", "U", "S[0,1]", "U[2,inf]", "reach(hop)", "reach(w)[0,2]", "surround(hop)[1,3]",
                    "S[inf,inf]"]
_CORPUS_PREFIXES = ["!", "F", "G[0,1]", "F[1,inf]", "escape(hop)[2,inf]", "somewhere(hop)", "everywhere(w)[0,1]"]
_CORPUS_NOISE = ["(", ")", "[", "]", ",", "inf", "1", ">", "F[2,1]", "U[0", "reach", "(hop)", "surround(1)", "?",
                 "x > 1e400", "a U[inf,2]", "escape[0,1]"]
_CORPUS_DEEP = [
    "!" * 199 + "q", "!" * 200 + "q", "(" * 199 + "q" + ")" * 199, "(" * 200 + "q" + ")" * 200,
    "G[0,1] " * 66 + "q", "G[0,1] " * 67 + "q", "p | (" * 66 + "q" + ")" * 66, "p | (" * 67 + "q" + ")" * 67,
    left_nested_surround(33), left_nested_surround(34),
]


def _corpus_operand(rng, depth):
    prefixes = [rng.choice(_CORPUS_PREFIXES) for _ in range(rng.choice([0, 0, 0, 0, 1, 2]))]
    if depth > 0 and rng.random() < 0.3:
        return [*prefixes, "(", *_corpus_expression(rng, depth - 1), ")"]
    return [*prefixes, rng.choice(_CORPUS_ATOMS)]


def _corpus_expression(rng, depth):
    tokens = _corpus_operand(rng, depth)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        tokens += [rng.choice(_CORPUS_BINARIES), *_corpus_operand(rng, depth)]
    return tokens


def _corpus_string(rng):
    tokens = _corpus_expression(rng, 2)
    vocabulary = _CORPUS_ATOMS + _CORPUS_BINARIES + _CORPUS_PREFIXES + _CORPUS_NOISE
    for _ in range(rng.choice([0, 0, 1, 2])):
        i, edit = rng.randrange(len(tokens) + 1), rng.random()
        if edit < 2 / 3 and i < len(tokens):
            tokens[i : i + 1] = [] if edit < 1 / 3 else [rng.choice(vocabulary)]
        else:
            tokens.insert(i, rng.choice(vocabulary))
    separators = rng.choices([" ", "", "\n"], weights=[18, 1, 1], k=len(tokens))
    return "".join(s + t for s, t in zip(separators, tokens))


def _tree_size(node, memo):
    """The node count of ``node`` printed as a tree."""
    if id(node) not in memo:
        memo[id(node)] = 1 + sum(_tree_size(v, memo) for v in vars(node).values() if isinstance(v, Formula))
    return memo[id(node)]


def _outcome(parse_text, print_formula, desugar_formula, text):
    """A text's formula, its printed form and its desugared form, printed
    unless it is large as a tree; or the exact ParseError text."""
    try:
        f = parse_text(text)
    except ParseError as exc:
        return str(exc)
    core = desugar_formula(f)
    printed_core = print_formula(core) if _tree_size(core, {}) < 5000 else None
    return f, print_formula(f), core, printed_core


def test_one_operator_table_parses_prints_and_desugars_as_the_replaced_code():
    """On seeded random token strings, the one-table parser and printer and
    the one-rule desugaring give the same formula object, printed form and
    desugared form as the three parser loops, the level constants and the
    per-class rewrites they replaced; or the same ParseError text."""
    rng = random.Random(3030)
    corpus = _CORPUS_DEEP + [_corpus_string(rng) for _ in range(3000)]
    reference_print = lambda node: _fmt(node, 0)
    parsed = 0
    with deadline(10):
        for text in corpus:
            expected = _outcome(reference_parse, reference_print, reference_desugar, text)
            assert _outcome(parse, format_formula, desugar, text) == expected, text
            parsed += not isinstance(expected, str)
    assert 1000 < parsed < len(corpus) - 1000  # both outcomes are common
