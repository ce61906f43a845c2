"""The .itrs text format: print -> parse round trips for every fixture,
header defaults, and positioned error reporting."""

from __future__ import annotations

import re

import pytest

from itrsbench import ParseError, TermError
from itrsbench.corpus import ITRS_SOURCES
from itrsbench.itrsfile import ItrsFile, parse_itrs, print_itrs
from itrsbench.metrics import HALVE, IDENTITY


def systems_equal(a, b) -> bool:
    if set(a.sig.symbols) != set(b.sig.symbols):
        return False
    for s in a.sig.symbols:
        if a.sig.arity(s) != b.sig.arity(s):
            return False
        if a.metric.components[s] != b.metric.components[s]:
            return False
    if len(a.rules) != len(b.rules):
        return False
    return all(
        ra.name == rb.name and ra.lhs == rb.lhs and ra.rhs == rb.rhs
        for ra, rb in zip(a.rules, b.rules)
    )


@pytest.mark.parametrize("name", sorted(ITRS_SOURCES))
def test_round_trip_identity(name):
    first = parse_itrs(ITRS_SOURCES[name])
    text = print_itrs(first)
    second = parse_itrs(text)
    assert systems_equal(first.system, second.system)
    assert first.terms == second.terms
    # printing is a normal form: printing again is the identity
    assert print_itrs(second) == text


def test_exnonlin_parses_to_one_rule():
    f = parse_itrs(ITRS_SOURCES["exnonlin-r"])
    assert len(f.system.rules) == 1
    assert f.system.rules[0].name == "swap"


def test_rule_less_file_is_valid():
    f = parse_itrs("metric infty\nsig F/2\n")
    assert f.system.rules == []
    assert "F" in f.system.sig


def test_variable_lhs_rejected():
    with pytest.raises(Exception):
        parse_itrs("metric infty\nsig F/1\nrule bad: x -> F(x)\n")


def test_extra_variable_rejected():
    with pytest.raises(Exception):
        parse_itrs("metric infty\nsig F/1\nsig G/2\nrule bad: F(x) -> G(x, y)\n")


def test_duplicate_rule_name_rejected():
    with pytest.raises(TermError, match="twice"):
        parse_itrs("metric infty\nsig F/1\nrule a: F(x) -> x\nrule a: F(F(x)) -> x\n")


def test_missing_header():
    with pytest.raises(ParseError):
        parse_itrs("sig F/1\n")


def test_custom_requires_annotations():
    with pytest.raises(ParseError):
        parse_itrs("metric custom\nsig F/1\n")


def test_annotation_count_must_match_arity():
    with pytest.raises(ParseError):
        parse_itrs("metric infty\nsig F/2 [lazy]\n")


def test_duplicate_symbol():
    with pytest.raises(ParseError):
        parse_itrs("metric infty\nsig F/1\nsig F/2\n")


def test_invalid_component_rejected():
    with pytest.raises(ParseError):
        parse_itrs("metric custom\nsig F/1 [scale(0)]\n")


def test_annotations_nest_to_any_depth():
    """comp( nested 5000 deep is read without recursion, as is its
    unbalanced form; an annotation list keeps its errors."""
    depth = 5000
    deep = "comp(" * depth + "lazy" + ")" * depth
    f = parse_itrs(f"metric custom\nsig F/2 [{deep}, comp(strict, {deep})]\n")
    assert f.system.metric.components["F"] == (HALVE, HALVE)
    plain = parse_itrs("metric custom\nsig F/2 [, lazy,, strict]\n").system.metric
    assert plain.components["F"] == (HALVE, IDENTITY)
    for annotation, error in [
        (deep[:-1], "unbalanced parentheses"), ("lazy), (strict", "unbalanced parentheses"),
        ("comp(lazy, comp())", "empty comp()"), ("lazy strict", "bad metric component"),
        ("scale(1/0)", "bad number"),
    ]:
        with pytest.raises(ParseError, match=re.escape(error)):
            parse_itrs(f"metric custom\nsig F/1 [{annotation}]\n")


def test_comment_lines_and_hash_symbols():
    text = (
        "# a whole-line comment\n"
        "metric infty\n"
        "sig F#1/1\n"
        "rule r: F#1(x) -> F#1(F#1(x))\n"
    )
    f = parse_itrs(text)
    assert "F#1" in f.system.sig
    assert len(f.system.rules) == 1


def test_named_terms_round_trip():
    f = parse_itrs("metric infty\nsig S/1\nsig 0/0\nterm two = S(S(0))\n")
    assert "two" in f.terms
    again = parse_itrs(print_itrs(f))
    assert again.terms == f.terms


def test_unrecognized_line():
    with pytest.raises(ParseError):
        parse_itrs("metric infty\nbogus line\n")
