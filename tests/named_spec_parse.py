"""The parser that itrsbench.terms.parse replaced, kept as its test
oracle: it builds a spec keyed by fresh string names, with @alias entries
for mu binders and @ref entries for bound names, resolves those
indirections into direct edges and hands the spec to graph_term.  It
reports a mu binder with no body at 1:1 whatever the binder's place."""

from __future__ import annotations

from typing import Optional

from itrsbench.terms import (
    FALLBACK_VAR_NAME,
    VAR,
    ParseError,
    RationalTerm,
    Signature,
    graph_term,
)
from refined_parse import _Tokens


def named_spec_parse(text: str, sig: Optional[Signature] = None) -> RationalTerm:
    toks = _Tokens(text)
    counter = [0]
    spec: dict[str, tuple] = {}

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}@{counter[0]}"

    def is_symbol(name: str) -> bool:
        if sig is not None:
            return name in sig
        return name[0].isupper() or name[0].isdigit()

    def close_app(tok: str, args: list[str]) -> str:
        toks.expect(")")
        if sig is not None:
            if tok not in sig:
                raise ParseError(f"unknown symbol {tok}", *toks.location())
            if sig.arity(tok) != len(args):
                raise ParseError(f"{tok} expects {sig.arity(tok)} arguments", *toks.location())
        node = fresh("app")
        spec[node] = (tok, args)
        return node

    def parse_term() -> str:
        stack: list[tuple] = []
        while True:
            bound = stack[-1][2] if stack else {}
            tok = toks.take()
            if tok is None:
                raise ParseError("unexpected end of input", *toks.location())
            if tok == "mu":
                loop_var = toks.take()
                if loop_var is None or not loop_var[0].isalnum():
                    raise ParseError("expected a mu-bound name", *toks.location())
                toks.expect(".")
                node = fresh("mu")
                stack.append(("@mu", node, {**bound, loop_var: node}))
                continue
            if not (tok[0].isalnum() or tok[0] in "_'"):
                raise ParseError(f"unexpected token {tok!r}", *toks.location())
            if tok in bound:
                node = fresh("ref")
                spec[node] = ("@ref", [bound[tok]])
            elif toks.peek() == "(":
                toks.take()
                if toks.peek() != ")":
                    stack.append((tok, [], bound))
                    continue
                node = close_app(tok, [])
            else:
                node = fresh("leaf")
                if is_symbol(tok):
                    if sig is not None and sig.arity(tok) != 0:
                        raise ParseError(f"{tok} is not nullary", *toks.location())
                    spec[node] = (tok, [])
                else:
                    if tok == FALLBACK_VAR_NAME:
                        raise ParseError("reserved variable name", *toks.location())
                    spec[node] = (VAR, tok)
            while stack:
                frame = stack[-1]
                if frame[0] == "@mu":
                    spec[frame[1]] = ("@alias", [node])
                    node = frame[1]
                else:
                    frame[1].append(node)
                    if toks.peek() == ",":
                        toks.take()
                        break
                    node = close_app(frame[0], frame[1])
                stack.pop()
            else:
                return node

    root = parse_term()
    if toks.peek() is not None:
        raise ParseError(f"trailing input {toks.peek()!r}", *toks.location())

    def resolve(name: str) -> str:
        hops = 0
        while spec[name][0] in ("@alias", "@ref"):
            if hops > len(spec):
                raise ParseError("mu binder with no body", 1, 1)
            name = spec[name][1][0]
            hops += 1
        return name

    final: dict[str, tuple] = {}
    for name, entry in spec.items():
        if entry[0] in ("@alias", "@ref"):
            continue
        if entry[0] == VAR:
            final[name] = entry
        else:
            final[name] = (entry[0], [resolve(c) for c in entry[1]])
    return graph_term(final, resolve(root))
