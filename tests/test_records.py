"""terms.record, the class decorator of every record of the package:
construction, __post_init__, equality and hashing by declared fields,
frozen fields, the refusal of mutable defaults, and the printed form."""

from __future__ import annotations

from fractions import Fraction

import pytest

from itrsbench import (
    ITRS,
    ItrsFile,
    MemberVerdict,
    Pow,
    Rule,
    Scale,
    Signature,
    TermError,
    TermMetric,
    metric_infty,
    parse,
)
from itrsbench.convergence import Budgets, Segment, Verdict
from itrsbench.terms import record

SIG = Signature({"F": 1, "a": 0})


def test_positional_keyword_and_default_construction():
    assert Budgets() == Budgets(50_000, 24, 8)
    b = Budgets(10, depth_bound=3)
    assert (b.loop_states, b.max_steps, b.depth_bound) == (10, 24, 3)
    assert Budgets(depth_bound=3, loop_states=10) == b
    v = Verdict("unknown", note="budget")
    assert (v.kind, v.limit, v.witness, v.budget, v.note) == ("unknown", None, None, None, "budget")


@pytest.mark.parametrize("make, message", [
    (lambda: Rule("r", parse("a", SIG)), "missing"),
    (lambda: ItrsFile("custom", None), "missing"),
    (lambda: Budgets(nope=1), "unknown"),
    (lambda: Budgets(1, loop_states=2), "repeated"),
    (lambda: Budgets(1, 2, 3, 4), "takes 3 arguments"),
], ids=["missing", "no-terms", "unknown", "repeated", "extra"])
def test_a_bad_argument_is_a_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_post_init_still_validates():
    with pytest.raises(TermError, match="negative arity"):
        Signature({"f": -1})
    with pytest.raises(TermError, match="mis-sized"):
        TermMetric(SIG, {"F": (), "a": ()})


def test_equality_needs_the_same_class_and_equal_fields():
    assert Scale(2) == Scale(Fraction(2))
    assert Scale(2) != Pow(2)
    assert Scale(2) != Scale(3)
    assert MemberVerdict("member") != "member"


def test_equality_and_hash_ignore_cached_properties():
    s, t = Scale(Fraction(1, 2)), Scale(Fraction(1, 2))
    assert s._affine == (0, 1, 1)
    assert "_affine" in vars(s) and "_affine" not in vars(t)
    assert s == t and hash(s) == hash(t)
    m, n = metric_infty(SIG), metric_infty(SIG)
    assert m._weights
    assert "_weights" in vars(m) and "_weights" not in vars(n)
    assert m == n
    with pytest.raises(TypeError):  # its fields are dicts
        hash(m)


def test_mutable_records_are_unhashable():
    a = parse("a", SIG)
    for r in (ITRS(SIG, metric_infty(SIG), []), Segment([a])):
        with pytest.raises(TypeError, match="unhashable"):
            hash(r)


def test_frozen_fields_are_read_only():
    b = Budgets()
    with pytest.raises(AttributeError, match="frozen"):
        b.max_steps = 3
    with pytest.raises(AttributeError, match="frozen"):
        del b.max_steps
    assert b.max_steps == 24
    segment = Segment([parse("a", SIG)])
    segment.limit = segment.terms[0]
    assert segment.limit is segment.terms[0]


@pytest.mark.parametrize("default", [[], {}, set()], ids=["list", "dict", "set"])
def test_a_mutable_default_is_refused(default):
    with pytest.raises(ValueError, match="mutable default"):
        @record
        class Bag:
            items: object = default


def test_the_printed_form_is_the_one_of_before():
    assert repr(Budgets()) == "Budgets(loop_states=50000, max_steps=24, depth_bound=8)"
    assert repr(MemberVerdict("member")) == (
        "MemberVerdict(kind='member', witness_cycle=None, detail='')"
    )
    assert repr(Scale(Fraction(1, 2))) == "Scale(factor=Fraction(1, 2))"
