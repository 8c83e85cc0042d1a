"""The value types of linres, pinned class by class.

Each class is an immutable value: its constructor validates and
normalizes its arguments, two instances are equal when they are of the
same class with equal fields and hash as the tuple of their fields, the
repr reads ``Name(field=value, ...)``, and no attribute can be assigned
or deleted afterwards.  The reprs are literal strings, since they appear
in Falsification messages.
"""

import copy
import pickle
import re
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from linres.betti import QQ, BettiTable, FieldSpec
from linres.errors import InputError
from linres.graphs import CheckResult, Chordality, Graph, SimplicialComplex
from linres.monomials import Monomial, MonomialIdeal
from linres.rees import (
    Binomial,
    ReesRing,
    TermOrder,
    ToricBasis,
    WalkBinomial,
    WalkCrossCheck,
    XDegreeReport,
)

B = Binomial((0, 1, 1), (1, 0, 0))
RING = ReesRing(2, ((1, 2),))
LEX = TermOrder("lex", (2, 0, 1), False)


class Case(NamedTuple):
    cls: type
    fields: tuple[str, ...]
    args: tuple  # the pinned instance
    same: tuple  # the same value, spelled differently where the class normalizes
    other: tuple  # an unequal instance
    text: str  # repr of the pinned instance
    defaults: dict  # parameter -> default; the other parameters are required
    hashable: bool = True


CASES = {
    "FieldSpec": Case(FieldSpec, ("p",), (3,), (3,), (2,), "FieldSpec(p=3)", {"p": None}),
    "BettiTable": Case(
        BettiTable, ("field", "entries", "gen_degree"),
        (QQ, {(0, 2): 3, (1, 3): 2}, 2), (FieldSpec(None), {(0, 2): 3, (1, 3): 2}, 2),
        (FieldSpec(2), {(0, 2): 3, (1, 3): 2}, 2),
        "BettiTable(field=FieldSpec(p=None), entries={(0, 2): 3, (1, 3): 2}, gen_degree=2)",
        {}, hashable=False),
    "Graph": Case(
        Graph, ("n", "edges", "loops"),
        (3, frozenset({(2, 1), (2, 3)}), frozenset({3})), (3, [(1, 2), [3, 2]], (3, 3)),
        (3, frozenset({(1, 2)}), frozenset({3})),
        "Graph(n=3, edges=frozenset({(2, 3), (1, 2)}), loops=frozenset({3}))",
        {"edges": frozenset(), "loops": frozenset()}),
    "Chordality": Case(
        Chordality, ("is_chordal", "peo", "chordless_cycle"),
        (True, (3, 1, 2)), (True, (3, 1, 2), None), (True, (1, 2, 3)),
        "Chordality(is_chordal=True, peo=(3, 1, 2), chordless_cycle=None)",
        {"peo": None, "chordless_cycle": None}),
    "SimplicialComplex": Case(
        SimplicialComplex, ("n", "facets"),
        (3, ({2, 3}, {2}, frozenset({1, 2}), {3, 2})), (3, [[1, 2], (3, 2)]), (3, ({1, 2, 3},)),
        "SimplicialComplex(n=3, facets=(frozenset({1, 2}), frozenset({2, 3})))", {}),
    "CheckResult": Case(
        CheckResult, ("ok", "witness"), (False, (1, 2, 3)), (False, (1, 2, 3)), (False, (1, 2, 4)),
        "CheckResult(ok=False, witness=(1, 2, 3))", {"witness": None}),
    "Monomial": Case(
        Monomial, ("exps",), ((1, 0, 2),), ((1, 0, 2),), ((2, 0, 1),), "Monomial(exps=(1, 0, 2))", {}),
    "MonomialIdeal": Case(
        MonomialIdeal, ("n", "gens"),
        (2, (Monomial((1, 1)), Monomial((2, 0)), Monomial((2, 1)))),
        (2, [Monomial((2, 0)), Monomial((1, 1)), Monomial((1, 1))]), (2, (Monomial((1, 1)),)),
        "MonomialIdeal(n=2, gens=(Monomial(exps=(2, 0)), Monomial(exps=(1, 1))))", {"gens": ()}),
    "Binomial": Case(
        Binomial, ("lead", "tail"), ((0, 1, 1), (1, 0, 0)), ((0, 1, 1), (1, 0, 0)),
        ((1, 0, 0), (0, 1, 1)), "Binomial(lead=(0, 1, 1), tail=(1, 0, 0))", {}),
    "TermOrder": Case(
        TermOrder, ("name", "ranking", "graded"), ("lex", (2, 0, 1), False),
        ("lex", (2, 0, 1), False), ("lex", (2, 0, 1), True),
        "TermOrder(name='lex', ranking=(2, 0, 1), graded=False)", {}),
    "ReesRing": Case(
        ReesRing, ("n", "edges"), (2, ((1, 2),)), (2, ((1, 2),)), (2, ((1, 1), (1, 2))),
        "ReesRing(n=2, edges=((1, 2),))", {}),
    "ToricBasis": Case(
        ToricBasis, ("ring", "order", "elements"), (RING, LEX, (B,)),
        (ReesRing(2, ((1, 2),)), TermOrder("lex", (2, 0, 1), False), (Binomial((0, 1, 1), (1, 0, 0)),)),
        (RING, LEX, ()),
        "ToricBasis(ring=ReesRing(n=2, edges=((1, 2),)), "
        "order=TermOrder(name='lex', ranking=(2, 0, 1), graded=False), "
        "elements=(Binomial(lead=(0, 1, 1), tail=(1, 0, 0)),))", {}),
    "XDegreeReport": Case(
        XDegreeReport, ("ok", "max_x_degree", "witness"), (False, 2, B), (False, 2, B),
        (True, 1, None),
        "XDegreeReport(ok=False, max_x_degree=2, witness=Binomial(lead=(0, 1, 1), tail=(1, 0, 0)))",
        {}),
    "WalkBinomial": Case(
        WalkBinomial, ("walk", "binomial"), ((1, 2, 3, 1), B), ((1, 2, 3, 1), B), ((1, 3, 2, 1), B),
        "WalkBinomial(walk=(1, 2, 3, 1), binomial=Binomial(lead=(0, 1, 1), tail=(1, 0, 0)))", {}),
    "WalkCrossCheck": Case(
        WalkCrossCheck, ("covered", "bound", "bound_sufficient", "missing", "realizations"),
        (False, 2, False, (B,), (WalkBinomial((1, 3, 1), B),)),
        (False, 2, False, (B,), (WalkBinomial((1, 3, 1), B),)), (False, 2, False, (B,)),
        "WalkCrossCheck(covered=False, bound=2, bound_sufficient=False, "
        "missing=(Binomial(lead=(0, 1, 1), tail=(1, 0, 0)),), "
        "realizations=(WalkBinomial(walk=(1, 3, 1), binomial=Binomial(lead=(0, 1, 1), tail=(1, 0, 0))),))",
        {"realizations": ()}),
}

case = pytest.mark.parametrize("c", CASES.values(), ids=CASES.keys())


def values(x, fields):
    return tuple(getattr(x, f) for f in fields)


@case
def test_repr(c):
    assert repr(c.cls(*c.args)) == c.text
    assert repr(c.cls(*c.same)) == c.text


@case
def test_keywords_name_the_fields(c):
    a = c.cls(*c.args)
    assert c.cls(**dict(zip(c.fields, c.args))) == a
    assert values(a, c.fields) == values(c.cls(*c.same), c.fields)


@case
def test_equality_and_hash(c):
    a, same, other = c.cls(*c.args), c.cls(*c.same), c.cls(*c.other)
    assert a == same and not a != same
    assert a != other and not a == other
    assert a == a
    if c.hashable:
        assert hash(a) == hash(same) == hash(values(a, c.fields))
        assert hash(other) == hash(values(other, c.fields))
        assert len({a, same, other}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)


@case
def test_another_class_with_the_same_fields_is_unequal(c):
    a = c.cls(*c.args)
    sub = type("Sub", (c.cls,), {})(*c.args)
    assert values(sub, c.fields) == values(a, c.fields)
    assert a != sub and sub != a
    assert a.__eq__(sub) is NotImplemented
    assert a != SimpleNamespace(**dict(zip(c.fields, values(a, c.fields))))
    assert a != values(a, c.fields)
    assert a.__eq__(values(a, c.fields)) is NotImplemented


@case
def test_defaults(c):
    required = [f for f in c.fields if f not in c.defaults]
    assert list(c.fields[:len(required)]) == required  # defaults come last
    a = c.cls(*c.args[:len(required)])
    for f in c.fields:
        expected = c.defaults[f] if f in c.defaults else getattr(c.cls(*c.args), f)
        assert getattr(a, f) == expected
    if required:
        with pytest.raises(TypeError):
            c.cls(*c.args[:len(required) - 1])
    with pytest.raises(TypeError):
        c.cls(*[None] * (len(c.fields) + 1))


@case
def test_frozen(c):
    a = c.cls(*c.args)
    before = repr(a)
    for f in c.fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == before


@case
def test_copies_and_pickles_are_equal_values(c):
    a = c.cls(*c.args)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is c.cls and b == a and repr(b) == c.text


@pytest.mark.parametrize("build, error, text", [
    (lambda: FieldSpec(4), InputError, "GF(4) is not a field; p must be prime"),
    (lambda: Graph(-1), InputError, "need n >= 0, got -1"),
    (lambda: Graph(3, frozenset({5})), InputError, "edge 5 is not a pair"),
    (lambda: Graph(3, frozenset({(1, 4)})), InputError, "edge (1, 4) out of vertex range 1..3"),
    (lambda: Graph(3, frozenset({(2, 2)})), InputError, "loop (2, 2) must be passed via loops=, not edges="),
    (lambda: Graph(3, loops=frozenset({0})), InputError, "loop at 0 out of vertex range 1..3"),
    (lambda: SimplicialComplex(3, ({1}, set())), InputError, "empty facet"),
    (lambda: SimplicialComplex(2, ({1, 3},)), InputError, "facet [1, 3] out of vertex range 1..2"),
    (lambda: Monomial((1, -1)), InputError, "exponents must be non-negative integers, got (1, -1)"),
    (lambda: MonomialIdeal(-1), InputError, "need n >= 0, got -1"),
    (lambda: MonomialIdeal(2, (Monomial((1,)),)), InputError, "generator (1,) has 1 variables, ideal has 2"),
    (lambda: MonomialIdeal(2, (Monomial((0, 0)),)), InputError, "unit ideal rejected: generator of degree 0"),
], ids=["FieldSpec", "Graph-n", "Graph-pair", "Graph-range", "Graph-loop-edge", "Graph-loop-range",
        "SimplicialComplex-empty", "SimplicialComplex-range", "Monomial", "MonomialIdeal-n",
        "MonomialIdeal-ring", "MonomialIdeal-unit"])
def test_validation(build, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$") as info:
        build()
    assert type(info.value) is error


def test_cached_members_leave_the_value_unchanged():
    g = Graph(3, frozenset({(1, 2), (2, 3)}))
    ideal = MonomialIdeal(3, (Monomial((1, 1, 0)), Monomial((0, 0, 2))))
    ring = ReesRing(2, ((1, 2),))
    assert g.neighbors(2) == frozenset({1, 3})
    assert ideal.pair_set() == frozenset({(1, 2)}) and ideal.square_set() == frozenset({3})
    assert ring.ends == ((1, 3), (2, 3), (1, 2))
    assert g == Graph(3, frozenset({(1, 2), (2, 3)}))
    assert ideal == MonomialIdeal(3, (Monomial((0, 0, 2)), Monomial((1, 1, 0))))
    assert ring == ReesRing(2, ((1, 2),))
    assert repr(ring) == "ReesRing(n=2, edges=((1, 2),))"
