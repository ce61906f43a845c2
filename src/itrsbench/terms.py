"""Finite and rational terms as canonical rooted graphs.

A rational term is a finite rooted labeled graph; finite terms are the
acyclic case.  Every constructor canonicalizes: the graph is trimmed to
the part reachable from the root, bisimilar nodes are merged by partition
refinement, and nodes are renumbered in depth-first preorder (root = 0).
Two terms denote the same (possibly infinite) tree iff their canonical
forms are equal, which makes equality, hashing and sharing cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

Position = tuple[int, ...]  # 1-based child indices; () is the root
ROOT: Position = ()

# Reserved variable returned by subterm() for out-of-range positions.
# The parser refuses it, so it can never collide with user input.
FALLBACK_VAR_NAME = "?"

# Node entries: ("var", name) or ("app", symbol, (child_index, ...))
VAR = "var"
APP = "app"


class TermError(Exception):
    pass


class ParseError(TermError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Signature:
    """Function symbols with arities, plus reserved-name bookkeeping."""

    symbols: Mapping[str, int]

    def __post_init__(self):
        for name, arity in self.symbols.items():
            if arity < 0:
                raise TermError(f"negative arity for {name}")
            if not name or name == FALLBACK_VAR_NAME:
                raise TermError(f"reserved or empty symbol name {name!r}")

    def arity(self, name: str) -> int:
        return self.symbols[name]

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def union_disjoint(self, other: "Signature") -> "Signature":
        merged = dict(self.symbols)
        for name, arity in other.symbols.items():
            if name in merged:
                raise TermError(f"symbol clash: {name}")
            merged[name] = arity
        return Signature(merged)


_INTERN: dict[tuple, "RationalTerm"] = {}


@dataclass(frozen=True)
class RationalTerm:
    """Canonical rooted term graph; immutable and maximally shared."""

    nodes: tuple  # entry i: ("var", name) or ("app", sym, (child, ...))

    @property
    def root_entry(self):
        return self.nodes[0]

    @property
    def is_var(self) -> bool:
        return self.nodes[0][0] == VAR

    @property
    def root_symbol(self) -> str:
        entry = self.nodes[0]
        return entry[1]

    def entry(self, idx: int):
        return self.nodes[idx]

    def children_of(self, idx: int) -> tuple[int, ...]:
        entry = self.nodes[idx]
        return entry[2] if entry[0] == APP else ()

    def label_of(self, idx: int):
        """Label used for clash tests: variable name, or (symbol, arity)."""
        entry = self.nodes[idx]
        if entry[0] == VAR:
            return (VAR, entry[1])
        return (entry[1], len(entry[2]))

    @property
    def is_finite(self) -> bool:
        return not _has_cycle(self.nodes)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"RationalTerm({to_text(self)!r})"


def _has_cycle(nodes) -> bool:
    state = [0] * len(nodes)  # 0 new, 1 on stack, 2 done
    for start in range(len(nodes)):
        if state[start]:
            continue
        stack = [(start, iter(nodes[start][2] if nodes[start][0] == APP else ()))]
        state[start] = 1
        while stack:
            idx, it = stack[-1]
            advanced = False
            for child in it:
                if state[child] == 1:
                    return True
                if state[child] == 0:
                    state[child] = 1
                    entry = nodes[child]
                    stack.append((child, iter(entry[2] if entry[0] == APP else ())))
                    advanced = True
                    break
            if not advanced:
                state[idx] = 2
                stack.pop()
    return False


def _canonical(nodes: Sequence, root: int) -> RationalTerm:
    # reachability trim
    reachable = []
    seen = {root: 0}
    queue = [root]
    while queue:
        idx = queue.pop()
        reachable.append(idx)
        entry = nodes[idx]
        if entry[0] == APP:
            for child in entry[2]:
                if child not in seen:
                    seen[child] = len(seen)
                    queue.append(child)
    live = sorted(seen, key=seen.get)

    # partition refinement: merge bisimilar nodes
    block: dict[int, int] = {}
    labels: dict = {}
    for idx in live:
        entry = nodes[idx]
        label = (VAR, entry[1]) if entry[0] == VAR else (APP, entry[1], len(entry[2]))
        block[idx] = labels.setdefault(label, len(labels))
    while True:
        sigs: dict = {}
        new_block: dict[int, int] = {}
        for idx in live:
            entry = nodes[idx]
            children = entry[2] if entry[0] == APP else ()
            sig = (block[idx], tuple(block[c] for c in children))
            new_block[idx] = sigs.setdefault(sig, len(sigs))
        if len(sigs) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    # quotient + preorder renumbering from the root's block
    rep: dict[int, int] = {}
    for idx in live:
        rep.setdefault(block[idx], idx)
    order: dict[int, int] = {}
    out: list = []
    stack = [block[root]]
    order[block[root]] = 0
    out.append(None)
    while stack:
        b = stack.pop()
        entry = nodes[rep[b]]
        if entry[0] == VAR:
            out[order[b]] = (VAR, entry[1])
        else:
            child_blocks = [block[c] for c in entry[2]]
            pending = []
            for cb in child_blocks:
                if cb not in order:
                    order[cb] = len(out)
                    out.append(None)
                    pending.append(cb)
            out[order[b]] = (APP, entry[1], tuple(order[cb] for cb in child_blocks))
            stack.extend(reversed(pending))
    key = tuple(out)
    cached = _INTERN.get(key)
    if cached is None:
        cached = RationalTerm(key)
        _INTERN[key] = cached
    return cached


def var(name: str) -> RationalTerm:
    return _canonical([(VAR, name)], 0)


FALLBACK_VAR = var(FALLBACK_VAR_NAME)


def app(symbol: str, args: Sequence[RationalTerm] = ()) -> RationalTerm:
    nodes: list = [None]
    roots = []
    for arg in args:
        offset = len(nodes)
        roots.append(offset)
        for entry in arg.nodes:
            if entry[0] == VAR:
                nodes.append(entry)
            else:
                nodes.append((APP, entry[1], tuple(c + offset for c in entry[2])))
    nodes[0] = (APP, symbol, tuple(roots))
    return _canonical(nodes, 0)


def graph_term(spec: Mapping[str, tuple], root: str) -> RationalTerm:
    """Build a (possibly cyclic) term from named nodes.

    spec maps a node name to ("var", varname) or (symbol, [child node names]).
    """
    index = {name: i for i, name in enumerate(spec)}
    nodes = []
    for name, entry in spec.items():
        if entry[0] == VAR and isinstance(entry[1], str):
            nodes.append((VAR, entry[1]))
        else:
            symbol, children = entry
            nodes.append((APP, symbol, tuple(index[c] for c in children)))
    return _canonical(nodes, index[root])


def node_at(t: RationalTerm, p: Position) -> Optional[int]:
    """Graph node reached by following p from the root, or None."""
    idx = 0
    for i in p:
        entry = t.nodes[idx]
        if entry[0] != APP or not (1 <= i <= len(entry[2])):
            return None
        idx = entry[2][i - 1]
    return idx


def subterm_at_node(t: RationalTerm, idx: int) -> RationalTerm:
    """The subterm rooted at graph node idx of t."""
    return _canonical(t.nodes, idx)


def subterm(t: RationalTerm, p: Position) -> RationalTerm:
    """Subterm at p; the reserved fallback variable when p is not a position."""
    idx = node_at(t, p)
    if idx is None:
        return FALLBACK_VAR
    return subterm_at_node(t, idx)


def replace(t: RationalTerm, p: Position, u: RationalTerm) -> RationalTerm:
    """t with the subterm at p replaced by u; t itself when p is invalid.

    Rebuilds a fresh spine along p, so replacement inside a cycle cuts it.
    """
    if node_at(t, p) is None:
        return t
    nodes = list(t.nodes)
    offset = len(nodes)
    for entry in u.nodes:
        if entry[0] == VAR:
            nodes.append(entry)
        else:
            nodes.append((APP, entry[1], tuple(c + offset for c in entry[2])))

    def rebuild(idx: int, rest: Position) -> int:
        if not rest:
            return offset
        entry = nodes[idx]
        i = rest[0]
        new_child = rebuild(entry[2][i - 1], rest[1:])
        children = list(entry[2])
        children[i - 1] = new_child
        nodes.append((APP, entry[1], tuple(children)))
        return len(nodes) - 1

    new_root = rebuild(0, p)
    return _canonical(nodes, new_root)


def positions(t: RationalTerm, depth_bound: int) -> set[Position]:
    """All positions of length <= depth_bound (by bounded unfolding)."""
    return {p for p, _idx in iter_positions(t, depth_bound)}


def iter_positions(t: RationalTerm, depth_bound: int) -> Iterator[tuple[Position, int]]:
    """Breadth-first (position, node) pairs up to the depth bound."""
    queue: list[tuple[Position, int]] = [(ROOT, 0)]
    while queue:
        next_queue = []
        for p, idx in queue:
            yield p, idx
            if len(p) == depth_bound:
                continue
            entry = t.nodes[idx]
            if entry[0] == APP:
                for i, child in enumerate(entry[2], start=1):
                    next_queue.append((p + (i,), child))
        queue = next_queue


def topequ(t: RationalTerm, p: Position, u: RationalTerm) -> bool:
    """Same function symbols up to position p (inductive definition)."""
    ti, ui = 0, 0
    for i in p:
        te, ue = t.nodes[ti], u.nodes[ui]
        if te[0] != APP or ue[0] != APP:
            return False
        if te[1] != ue[1] or len(te[2]) != len(ue[2]):
            return False
        if not (1 <= i <= len(te[2])):
            return False
        ti, ui = te[2][i - 1], ue[2][i - 1]
    return True


def bisimilar(t: RationalTerm, u: RationalTerm) -> bool:
    """Do t and u denote the same infinite tree?

    Decided by a coinductive product-graph search.  Canonical forms make
    `t == u` equivalent, so no library code calls this: it is the test
    oracle that `==` is checked against.
    """
    assumed: set[tuple[int, int]] = set()
    stack = [(0, 0)]
    while stack:
        a, b = stack.pop()
        if (a, b) in assumed:
            continue
        if t.label_of(a) != u.label_of(b):
            return False
        assumed.add((a, b))
        stack.extend(zip(t.children_of(a), u.children_of(b)))
    return True


Substitution = Mapping[str, RationalTerm]


def substitute(sigma: Substitution, t: RationalTerm) -> RationalTerm:
    """Homomorphic application; variables outside dom(sigma) unchanged."""
    if not sigma:
        return t
    nodes = list(t.nodes)
    redirect: dict[int, int] = {}
    for idx, entry in enumerate(t.nodes):
        if entry[0] == VAR and entry[1] in sigma:
            image = sigma[entry[1]]
            offset = len(nodes)
            for sub_entry in image.nodes:
                if sub_entry[0] == VAR:
                    nodes.append(sub_entry)
                else:
                    nodes.append(
                        (APP, sub_entry[1], tuple(c + offset for c in sub_entry[2]))
                    )
            redirect[idx] = offset
    if not redirect:
        return t
    for idx in range(len(t.nodes)):
        entry = nodes[idx]
        if entry[0] == APP:
            nodes[idx] = (
                APP,
                entry[1],
                tuple(redirect.get(c, c) for c in entry[2]),
            )
    return _canonical(nodes, redirect.get(0, 0))


def variables(t: RationalTerm) -> set[str]:
    return {entry[1] for entry in t.nodes if entry[0] == VAR}


def symbols_used(t: RationalTerm) -> set[str]:
    return {entry[1] for entry in t.nodes if entry[0] == APP}


def term_depth(t: RationalTerm) -> int:
    """Depth of a finite term (root = depth 0)."""
    if not t.is_finite:
        raise TermError("depth of an infinite term")
    memo: dict[int, int] = {}

    def go(idx: int) -> int:
        if idx in memo:
            return memo[idx]
        entry = t.nodes[idx]
        d = 0 if entry[0] == VAR else (
            1 + max((go(c) for c in entry[2]), default=-1)
        )
        memo[idx] = d
        return d

    return go(0)


def prefix_of(p: Position, q: Position) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


def parallel(p: Position, q: Position) -> bool:
    return not prefix_of(p, q) and not prefix_of(q, p)


# --- text syntax -----------------------------------------------------------
#
#   term ::= 'mu' VAR '.' term | name '(' term (',' term)* ')' | name
#
# A bare name bound by an enclosing `mu` refers to the loop.  Otherwise,
# with a signature given, names in the signature are (nullary) symbols and
# the rest are variables; without one, names starting with an uppercase
# letter or a digit are nullary symbols and the rest are variables.


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def location(self) -> tuple[int, int]:
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return line, col

    def peek(self) -> Optional[str]:
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch in "(),.":
            return ch
        if ch.isalnum() or ch in "_'#":
            end = self.pos
            while end < len(self.text) and (
                self.text[end].isalnum() or self.text[end] in "_'#"
            ):
                end += 1
            return self.text[self.pos : end]
        raise ParseError(f"unexpected character {ch!r}", *self.location())

    def take(self) -> Optional[str]:
        tok = self.peek()
        if tok is not None:
            self.pos += len(tok)
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", *self.location())


def parse(text: str, sig: Optional[Signature] = None) -> RationalTerm:
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

    def parse_term(bound: dict[str, str]) -> str:
        tok = toks.take()
        if tok is None:
            raise ParseError("unexpected end of input", *toks.location())
        if tok == "mu":
            loop_var = toks.take()
            if loop_var is None or not loop_var[0].isalnum():
                raise ParseError("expected a mu-bound name", *toks.location())
            toks.expect(".")
            node = fresh("mu")
            body = parse_term({**bound, loop_var: node})
            spec[node] = ("@alias", [body])
            return node
        if not (tok[0].isalnum() or tok[0] in "_'"):
            raise ParseError(f"unexpected token {tok!r}", *toks.location())
        if tok in bound:
            node = fresh("ref")
            spec[node] = ("@ref", [bound[tok]])
            return node
        if toks.peek() == "(":
            toks.take()
            args = []
            if toks.peek() != ")":
                args.append(parse_term(bound))
                while toks.peek() == ",":
                    toks.take()
                    args.append(parse_term(bound))
            toks.expect(")")
            if sig is not None:
                if tok not in sig:
                    raise ParseError(f"unknown symbol {tok}", *toks.location())
                if sig.arity(tok) != len(args):
                    raise ParseError(
                        f"{tok} expects {sig.arity(tok)} arguments", *toks.location()
                    )
            node = fresh("app")
            spec[node] = (tok, args)
            return node
        node = fresh("leaf")
        if is_symbol(tok):
            if sig is not None and sig.arity(tok) != 0:
                raise ParseError(f"{tok} is not nullary", *toks.location())
            spec[node] = (tok, [])
        else:
            if tok == FALLBACK_VAR_NAME:
                raise ParseError("reserved variable name", *toks.location())
            spec[node] = (VAR, tok)
        return node

    root = parse_term({})
    if toks.peek() is not None:
        raise ParseError(f"trailing input {toks.peek()!r}", *toks.location())

    # resolve @alias/@ref indirections into direct edges
    def resolve(name: str, hops: int = 0) -> str:
        entry = spec[name]
        if entry[0] in ("@alias", "@ref"):
            if hops > len(spec):
                raise ParseError("mu binder with no body", 1, 1)
            return resolve(entry[1][0], hops + 1)
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


_MU_NAMES = "XYZWVU"


def to_text(t: RationalTerm) -> str:
    """Canonical mu-binder syntax; inverse of parse up to bisimilarity."""
    used = variables(t)
    loops = _loop_nodes(t)
    names: dict[int, str] = {}
    for idx in sorted(loops):
        k = len(names)
        base = _MU_NAMES[k % len(_MU_NAMES)] + ("" if k < len(_MU_NAMES) else str(k))
        while base in used:
            base += "'"
        names[idx] = base
        used.add(base)

    def render(idx: int, active: frozenset[int]) -> str:
        entry = t.nodes[idx]
        if idx in active:
            return names[idx]
        if entry[0] == VAR:
            return entry[1]
        inner = active | ({idx} if idx in names else frozenset())
        args = ", ".join(render(c, inner) for c in entry[2])
        body = f"{entry[1]}({args})" if entry[2] else entry[1]
        if idx in names:
            return f"mu {names[idx]}. {body}"
        return body

    return render(0, frozenset())


def _loop_nodes(t: RationalTerm) -> set[int]:
    """Nodes that some path re-enters (need a mu binder when printing)."""
    loops: set[int] = set()
    state: dict[int, int] = {}

    def dfs(idx: int):
        state[idx] = 1
        for child in t.children_of(idx):
            if state.get(child) == 1:
                loops.add(child)
            elif child not in state:
                dfs(child)
        state[idx] = 2

    dfs(0)
    return loops
