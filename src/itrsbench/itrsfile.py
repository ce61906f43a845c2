"""The .itrs text format: a metric header, signature lines with per-argument
metric annotations, named rules, and named terms.

    metric infty
    sig F/2 [lazy, strict]
    sig H/1 [scale(2)]
    rule swap: F(x, y) -> F(y, x)
    term spine = mu X. F(x, X)

The `metric` header picks the default annotation (`infty` = all lazy,
`id` = all strict, `custom` = every sig line must carry annotations).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .metrics import (
    Cap,
    Component,
    HALVE,
    IDENTITY,
    Pow,
    Scale,
    TermMetric,
    compose,
    validate_metric,
)
from .rewriting import ITRS, Rule
from .terms import ParseError, Signature, parse, record, to_text

HEADERS = ("infty", "id", "custom")


@record
class ItrsFile:
    metric_header: str
    system: ITRS
    terms: dict  # name -> RationalTerm


def _parse_fraction(text: str, lineno: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {text!r}", lineno, 0)


def _parse_component(text: str, lineno: int) -> Component:
    text = text.strip()
    if text == "lazy":
        return HALVE
    if text == "strict":
        return IDENTITY
    m = re.fullmatch(r"(scale|pow|cap)\(([^()]*)\)", text)
    if m:
        value = _parse_fraction(m.group(2), lineno)
        return {"scale": Scale, "pow": Pow, "cap": Cap}[m.group(1)](value)
    m = re.fullmatch(r"comp\((.*)\)", text)
    if m:
        parts = [
            _parse_component(p, lineno) for p in _split_commas(m.group(1), lineno)
        ]
        if not parts:
            raise ParseError("empty comp()", lineno, 0)
        return compose(*parts)
    raise ParseError(f"bad metric component {text!r}", lineno, 0)


def _split_commas(text: str, lineno: int) -> list[str]:
    """Split on commas not nested inside parentheses."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", lineno, 0)
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ParseError("unbalanced parentheses", lineno, 0)
    if cur or out:
        out.append("".join(cur))
    return [p for p in (s.strip() for s in out) if p]


_SIG_RE = re.compile(r"sig\s+(\S+)\s*/\s*(\d+)\s*(?:\[(.*)\])?\s*$")
_RULE_RE = re.compile(r"rule\s+([A-Za-z0-9_'#-]+)\s*:\s*(.*?)\s*->\s*(.*)$")
_TERM_RE = re.compile(r"term\s+([A-Za-z0-9_'#-]+)\s*=\s*(.*)$")


def parse_itrs(text: str) -> ItrsFile:
    header: Optional[str] = None
    symbols: dict = {}
    annotations: dict = {}
    rule_lines: list = []
    term_lines: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # whole-line comments only: '#' inside a line is part of a symbol
        # name (disjoint unions rename clashes to F#1 / F#2)
        line = "" if raw.lstrip().startswith("#") else raw.strip()
        if not line:
            continue
        if line.startswith("metric"):
            value = line[len("metric") :].strip()
            if value not in HEADERS:
                raise ParseError(f"unknown metric header {value!r}", lineno, 0)
            header = value
            continue
        if line.startswith("sig"):
            m = _SIG_RE.fullmatch(line)
            if not m:
                raise ParseError("malformed sig line", lineno, 0)
            name, arity = m.group(1), int(m.group(2))
            if name in symbols:
                raise ParseError(f"duplicate symbol {name}", lineno, 0)
            symbols[name] = arity
            if m.group(3) is not None:
                comps = [
                    _parse_component(c, lineno)
                    for c in _split_commas(m.group(3), lineno)
                ]
                if len(comps) != arity:
                    raise ParseError(
                        f"{name} has arity {arity} but {len(comps)} annotations",
                        lineno,
                        0,
                    )
                annotations[name] = tuple(comps)
            continue
        if line.startswith("rule"):
            m = _RULE_RE.fullmatch(line)
            if not m:
                raise ParseError("malformed rule line", lineno, 0)
            rule_lines.append((lineno, m.group(1), m.group(2), m.group(3)))
            continue
        if line.startswith("term"):
            m = _TERM_RE.fullmatch(line)
            if not m:
                raise ParseError("malformed term line", lineno, 0)
            term_lines.append((lineno, m.group(1), m.group(2)))
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno, 0)

    if header is None:
        raise ParseError("missing metric header", 0, 0)
    default = {"infty": HALVE, "id": IDENTITY, "custom": None}[header]
    components = {}
    for name, arity in symbols.items():
        if name in annotations:
            components[name] = annotations[name]
        elif default is not None or arity == 0:
            components[name] = (default,) * arity
        else:
            raise ParseError(f"metric custom: symbol {name} lacks annotations", 0, 0)
    sig = Signature(symbols)
    metric = TermMetric(sig, components)
    report = validate_metric(metric)
    if not report.ok:
        raise ParseError("; ".join(report.problems), 0, 0)

    rules = []
    for lineno, name, lhs_text, rhs_text in rule_lines:
        try:
            rules.append(Rule(name, parse(lhs_text, sig), parse(rhs_text, sig)))
        except ParseError as e:
            raise ParseError(f"in rule {name}: {e}", lineno, 0)
    system = ITRS(sig, metric, rules)

    terms = {}
    for lineno, name, term_text in term_lines:
        try:
            terms[name] = parse(term_text, sig)
        except ParseError as e:
            raise ParseError(f"in term {name}: {e}", lineno, 0)
    return ItrsFile(header, system, terms)


def print_itrs(f: ItrsFile) -> str:
    lines = [f"metric {f.metric_header}"]
    m = f.system.metric
    for name in sorted(f.system.sig.symbols):
        arity = f.system.sig.arity(name)
        annot = ""
        if arity:
            annot = " [" + ", ".join(str(c) for c in m.components[name]) + "]"
        lines.append(f"sig {name}/{arity}{annot}")
    for rule in f.system.rules:
        lines.append(f"rule {rule.name}: {to_text(rule.lhs)} -> {to_text(rule.rhs)}")
    for name in sorted(f.terms):
        lines.append(f"term {name} = {to_text(f.terms[name])}")
    return "\n".join(lines) + "\n"
