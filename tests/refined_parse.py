"""The canonicaliser and the tokenizer that itrsbench.terms replaced,
kept as test oracles: from_nodes that trims the graph and runs Hopcroft
refinement over every live node, finite or not, and the parser that reads
its text through a lazy token stream (each token scanned by the first
peek or take that reaches it, offsets kept as it goes), then canonicalises
with that from_nodes."""

from __future__ import annotations

import re
from typing import Optional, Sequence

from itrsbench.terms import (
    APP,
    FALLBACK_VAR_NAME,
    VAR,
    ParseError,
    RationalTerm,
    Signature,
    from_nodes,
)
from flat_terms import renumbered


def refined_from_nodes(nodes: Sequence, root: int) -> RationalTerm:
    """The canonical term rooted at node root of a raw node list: trim,
    Hopcroft refinement of the whole live graph, renumbered quotient,
    which is minimal, given to the store."""
    number = {root: 0}
    live = [root]
    kids: list[tuple[int, ...]] = []
    for idx in live:  # live grows while it is walked
        entry = nodes[idx]
        if entry[0] == VAR:
            kids.append(())
            continue
        ks = []
        for child in entry[2]:
            k = number.get(child)
            if k is None:
                k = number[child] = len(live)
                live.append(child)
            ks.append(k)
        kids.append(tuple(ks))

    block: list[int] = []
    members: list[set[int]] = []
    labels: dict = {}
    for k, idx in enumerate(live):
        entry = nodes[idx]
        label = (VAR, entry[1]) if entry[0] == VAR else (APP, entry[1], len(entry[2]))
        b = labels.get(label)
        if b is None:
            b = labels[label] = len(members)
            members.append(set())
        members[b].add(k)
        block.append(b)

    if len(members) < len(live):
        preds: list[list[tuple[int, int]]] = [[] for _ in live]
        for p, ks in enumerate(kids):
            for i, k in enumerate(ks):
                preds[k].append((i, p))
        waiting = list(range(len(members)))
        is_waiting = [True] * len(members)
        while waiting:
            b = waiting.pop()
            is_waiting[b] = False
            by_letter: dict[int, list[int]] = {}
            for k in list(members[b]):
                for i, p in preds[k]:
                    by_letter.setdefault(i, []).append(p)
            for parents in by_letter.values():
                touched: dict[int, list[int]] = {}
                for p in parents:
                    touched.setdefault(block[p], []).append(p)
                for c, part in touched.items():
                    if len(part) == len(members[c]):
                        continue
                    d = len(members)
                    moved = set(part)
                    members[c] -= moved
                    members.append(moved)
                    for p in part:
                        block[p] = d
                    if is_waiting[c] or len(part) <= len(members[c]):
                        waiting.append(d)
                        is_waiting.append(True)
                    else:
                        waiting.append(c)
                        is_waiting[c] = True
                        is_waiting.append(False)

    quotient: list = [None] * len(members)
    for k, b in enumerate(block):
        if quotient[b] is None:
            entry = nodes[live[k]]
            if entry[0] == APP:
                entry = (APP, entry[1], tuple(block[c] for c in kids[k]))
            quotient[b] = entry
    return from_nodes(renumbered(quotient, block[0]), 0)


_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(r"[(),.]|[\w'#]+")


class _Tokens:
    """The token stream, with one token of lookahead: each token is
    scanned once, by the first peek or take that reaches it."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._ahead: Optional[str] = None  # the token scanned at pos, if any

    def location(self, pos: Optional[int] = None) -> tuple[int, int]:
        """Line and column of the offset pos, by default the current one."""
        if pos is None:
            pos = self.pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def peek(self) -> Optional[str]:
        if self._ahead is None:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if self.pos >= len(self.text):
                return None
            m = _TOKEN.match(self.text, self.pos)
            if m is None:
                raise ParseError(
                    f"unexpected character {self.text[self.pos]!r}", *self.location()
                )
            self._ahead = m.group()
        return self._ahead

    def take(self) -> Optional[str]:
        tok = self.peek()
        if tok is not None:
            self.pos += len(tok)
            self._ahead = None
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", *self.location())


def lazy_parse(text: str, sig: Optional[Signature] = None) -> RationalTerm:
    toks = _Tokens(text)
    nodes: list = []  # raw entries; a mu slot holds its body's index
    binders: dict[int, int] = {}  # mu slot -> text offset of its `mu`

    def is_symbol(name: str) -> bool:
        if sig is not None:
            return name in sig
        return name[0].isupper() or name[0].isdigit()

    def close_app(tok: str, args: list[int]) -> int:
        toks.expect(")")
        if sig is not None:
            if tok not in sig:
                raise ParseError(f"unknown symbol {tok}", *toks.location())
            if sig.arity(tok) != len(args):
                raise ParseError(f"{tok} expects {sig.arity(tok)} arguments", *toks.location())
        nodes.append((APP, tok, tuple(args)))
        return len(nodes) - 1

    stack: list[tuple] = []
    while True:
        bound = stack[-1][2] if stack else {}
        tok = toks.take()
        if tok is None:
            raise ParseError("unexpected end of input", *toks.location())
        if tok == "mu":
            at = toks.pos - len(tok)
            loop_var = toks.take()
            if loop_var is None or not loop_var[0].isalnum():
                raise ParseError("expected a mu-bound name", *toks.location())
            toks.expect(".")
            binders[len(nodes)] = at
            stack.append((None, len(nodes), {**bound, loop_var: len(nodes)}))
            nodes.append(None)
            continue
        if not (tok[0].isalnum() or tok[0] in "_'"):
            raise ParseError(f"unexpected token {tok!r}", *toks.location())
        if tok in bound:
            node = bound[tok]
        elif toks.peek() == "(":
            toks.take()
            if toks.peek() != ")":
                stack.append((tok, [], bound))
                continue
            node = close_app(tok, [])
        else:
            if is_symbol(tok):
                if sig is not None and sig.arity(tok) != 0:
                    raise ParseError(f"{tok} is not nullary", *toks.location())
                nodes.append((APP, tok, ()))
            else:
                if tok == FALLBACK_VAR_NAME:
                    raise ParseError("reserved variable name", *toks.location())
                nodes.append((VAR, tok))
            node = len(nodes) - 1
        while stack:
            frame = stack[-1]
            if frame[0] is None:
                nodes[frame[1]] = node
                node = frame[1]
            else:
                frame[1].append(node)
                if toks.peek() == ",":
                    toks.take()
                    break
                node = close_app(frame[0], frame[1])
            stack.pop()
        if not stack:
            break
    if toks.peek() is not None:
        raise ParseError(f"trailing input {toks.peek()!r}", *toks.location())

    end: dict[int, int] = {}
    for slot in binders:
        chain: set[int] = set()
        k = slot
        while k in binders and k not in end:
            if k in chain:
                raise ParseError("mu binder with no body", *toks.location(binders[k]))
            chain.add(k)
            k = nodes[k]
        k = end.get(k, k)
        for c in chain:
            end[c] = k
    if end:
        for i, entry in enumerate(nodes):
            if type(entry) is tuple and entry[0] == APP:
                nodes[i] = (APP, entry[1], tuple(end.get(c, c) for c in entry[2]))
    return refined_from_nodes(nodes, end.get(node, node))
