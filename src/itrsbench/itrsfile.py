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


_COMPONENT_TOKEN = re.compile(
    r"\s*(?:(lazy|strict)|(scale|pow|cap)\(([^()]*)\)|(comp\()|(,)|(\))|\Z)")


def _parse_components(text: str, lineno: int) -> list[Component]:
    """The metric annotations of a comma-separated list, whose comp( may
    nest to any depth.  Read token by token (_COMPONENT_TOKEN: a leaf, a
    function with its number, comp(, a comma, a ')' or the end), not by
    recursion: each open comp( keeps the parts read so far on a stack.
    An empty part between commas is skipped."""
    stack: list[list] = [[]]  # the list's parts, then each open comp('s
    pos = 0
    after_part = False  # a comma, ')' or the end must come next
    while True:
        m = _COMPONENT_TOKEN.match(text, pos)
        if m is None or (after_part and (m[1] or m[2] or m[4])):
            raise ParseError(f"bad metric component {text[pos:].strip()!r}", lineno, 0)
        pos = m.end()
        after_part = not (m[4] or m[5])
        if m[1]:
            stack[-1].append(HALVE if m[1] == "lazy" else IDENTITY)
        elif m[2]:
            try:
                value = Fraction(m[3])
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad number {m[3]!r}", lineno, 0)
            stack[-1].append({"scale": Scale, "pow": Pow, "cap": Cap}[m[2]](value))
        elif m[4]:
            stack.append([])
        elif m[5]:
            continue
        elif m[6] and len(stack) > 1:
            parts = stack.pop()
            if not parts:
                raise ParseError("empty comp()", lineno, 0)
            stack[-1].append(compose(*parts))
        elif m[6] or len(stack) > 1:
            raise ParseError("unbalanced parentheses", lineno, 0)
        else:
            return stack[0]


def _parse_component(text: str, lineno: int) -> Component:
    comps = _parse_components(text, lineno)
    if len(comps) != 1:
        raise ParseError(f"bad metric component {text.strip()!r}", lineno, 0)
    return comps[0]


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
                comps = _parse_components(m.group(3), lineno)
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
