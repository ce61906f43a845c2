"""Finite and rational terms as canonical rooted graphs.

A rational term is a finite rooted labeled graph; finite terms are the
acyclic case.  Every term is canonical: trimmed to the part reachable
from the root, with no two nodes bisimilar, and numbered in depth-first
preorder (root = 0).  Two terms denote the same (possibly infinite) tree
iff their canonical forms are equal.  Live terms are interned weakly, so
terms with one canonical form built while one is alive are the same
object, and equality and hashing are by identity.

Every canonical term leaves through one preorder renumbering,
_renumbered, which also trims what the root does not reach.  from_nodes,
and the constructors built on it (var, app, graph_term, parse,
substitute), makes one depth-first pass from the root: the nodes that
reach no cycle are hash-consed children first, and only those that reach
one go through Hopcroft's O(m log n) partition refinement; the quotient
of both is then renumbered.  A finite graph, such as a mu-free text, is
never refined.  replace and subterm_at_node start from a canonical term:
subterm_at_node only renumbers, and replace hash-conses the nodes it adds
against the term's own nodes, then renumbers; only a cyclic replacement,
whose loops may fold into the term, goes through from_nodes.  parse makes
one pass over the tokens of one regular-expression scan, binding each
`mu` name to its body's node as soon as that node's head is read.  One
cached depth-first walk per term answers is_finite, orders a finite term
for replace and term_depth, and places to_text's binders.
"""

from __future__ import annotations

import re
import weakref
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

Position = tuple[int, ...]  # 1-based child indices; () is the root
ROOT: Position = ()

# Reserved variable returned by subterm() for out-of-range positions.
# The parser refuses it, so it can never collide with user input.
FALLBACK_VAR_NAME = "?"

# Node entries: ("var", name) or ("app", symbol, (child_index, ...))
VAR = "var"
APP = "app"
PLACED = "placed"  # RationalTerm._pattern: an edge into a node already matched


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


# Canonical node tuple -> its one live term.  Weak, so a term leaves the
# table once nothing else refers to it, and long runs stay bounded.
_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class RationalTerm:
    """Canonical rooted term graph; immutable, interned, so == is identity."""

    nodes: tuple  # entry i: ("var", name) or ("app", sym, (child, ...))

    def __reduce__(self):  # copy, deepcopy and pickle give the interned term
        return _interned, (self.nodes,)

    @property
    def is_var(self) -> bool:
        return self.nodes[0][0] == VAR

    @property
    def root_symbol(self) -> str:
        entry = self.nodes[0]
        return entry[1]

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
        return type(self._walk) is tuple

    @cached_property
    def _walk(self):
        """One depth-first walk from the root, children in order: the finish
        order of a finite term (children first), or else the targets of
        the back edges, where to_text puts its binders."""
        nodes = self.nodes
        state = [0] * len(nodes)  # 0 unseen, 1 on the path, 2 finished
        order: list[int] = []
        loops: set[int] = set()
        stack = [0]  # a node to enter, or ~node to finish
        while stack:
            k = stack.pop()
            if k < 0:
                state[~k] = 2
                order.append(~k)
            elif state[k] == 1:
                loops.add(k)
            elif state[k] == 0:
                state[k] = 1
                stack.append(~k)
                if nodes[k][0] == APP:
                    stack.extend(reversed(nodes[k][2]))
        return frozenset(loops) if loops else tuple(order)

    @cached_property
    def _index(self) -> dict:
        """Node entry -> node number.  Two nodes with one entry would be
        bisimilar, so in a canonical graph every entry is unique."""
        return {entry: i for i, entry in enumerate(self.nodes)}

    @cached_property
    def _pattern(self) -> tuple:
        """This term as a pattern for rewriting.match: its edges (parent,
        child index, child, label) in node order, a preorder, and its
        variable leaves (node, name).  The first edge into a node carries
        its label, (symbol, arity), or None for a variable; a later one
        carries PLACED: it must meet the node already placed there."""
        labels = [None if e[0] == VAR else (e[1], len(e[2])) for e in self.nodes]
        placed = {0}
        edges = []
        for a in range(len(self.nodes)):
            for i, b in enumerate(self.children_of(a)):
                edges.append((a, i, b, PLACED if b in placed else labels[b]))
                placed.add(b)
        leaves = tuple((b, e[1]) for b, e in enumerate(self.nodes) if e[0] == VAR)
        return tuple(edges), leaves

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"RationalTerm({to_text(self)!r})"


def from_nodes(nodes: Sequence, root: int) -> RationalTerm:
    """The canonical term rooted at node root of a raw node list, whose
    entries are as in RationalTerm.nodes; any node may be unreachable.

    One depth-first pass from the root finishes each node after its
    children, except along back edges.  A node reaches a cycle iff one of
    its edges is a back edge or leads to a node that reaches one.  A node
    that reaches none denotes a finite tree; its children are canonical by
    the time it finishes, so it is hash-consed by (label, canonical
    children), which is exact.  The nodes that reach a cycle denote
    infinite trees, never bisimilar to a finite one: only they go through
    _refine, with their finite children as part of their labels.  A
    finite graph runs no refinement at all.
    """
    # mark[k]: None while k is unseen; -1 while k is on the path, and
    # after if k reaches a cycle; once k is finite, its quotient entry
    mark: list = [None] * len(nodes)
    quotient: list = []  # the finite classes, then the cyclic blocks
    table: dict = {}  # finite entry over quotient children -> its class
    labels: dict = {}  # node that reaches a cycle -> (symbol, child marks)
    marks = mark.__getitem__
    stack = [root]  # a node to visit, or ~node to finish
    while stack:
        k = stack.pop()
        if k >= 0:
            if mark[k] is not None:
                continue
            entry = nodes[k]
            if entry[0] == APP and entry[2]:
                mark[k] = -1
                stack.append(~k)
                stack.extend(entry[2])
                continue
        else:
            k = ~k
            entry = nodes[k]
            kids = tuple(map(marks, entry[2]))
            if -1 in kids:  # an edge back onto the path, or to a cyclic node
                labels[k] = (entry[1], kids)
                continue
            entry = (APP, entry[1], kids)
        m = table.get(entry)
        if m is None:
            m = table[entry] = len(quotient)
            quotient.append(entry)
        mark[k] = m
    if labels:
        cyclic = list(labels)  # cyclic[j] is now marked -2 - j
        for j, k in enumerate(cyclic):
            mark[k] = -2 - j
        preds: list[list[tuple[int, int]]] = [[] for _ in cyclic]
        for j, k in enumerate(cyclic):
            for i, c in enumerate(nodes[k][2]):
                m = mark[c]
                if m < 0:
                    preds[-2 - m].append((i, j))
        block, count = _refine(list(labels.values()), preds)
        base = len(quotient)
        quotient.extend([None] * count)
        for k, b in zip(cyclic, block):
            mark[k] = base + b
        for k, b in zip(cyclic, block):
            if quotient[base + b] is None:
                entry = nodes[k]
                quotient[base + b] = (APP, entry[1], tuple(map(marks, entry[2])))
    return _renumbered(quotient, mark[root])


def _refine(labels: list, preds: list) -> tuple[list[int], int]:
    """The block of each node under the coarsest partition that refines
    labels (one per node) and is stable under every edge (letter,
    parent) of preds[node], and the number of blocks: bisimilarity.

    Hopcroft 1971, in the splitter form of Paige & Tarjan, SIAM J.
    Comput. 1987.  Every block starts waiting, and a block that splits
    while not waiting queues only its smaller part, so O(m log n) in all.
    """
    block: list[int] = []
    members: list[set[int]] = []
    ids: dict = {}
    for k, label in enumerate(labels):
        b = ids.get(label)
        if b is None:
            b = ids[label] = len(members)
            members.append(set())
        members[b].add(k)
        block.append(b)
    if len(members) == len(labels):
        return block, len(members)
    waiting = list(range(len(members)))
    is_waiting = [True] * len(members)
    while waiting:
        b = waiting.pop()
        is_waiting[b] = False
        by_letter: dict[int, list[int]] = {}
        for k in list(members[b]):  # b itself may split below
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
    return block, len(members)


def _renumbered(nodes: Sequence, root: int) -> RationalTerm:
    """The interned term of the nodes reachable from root, renumbered in
    depth-first preorder.  The caller guarantees that no two of them are
    bisimilar, so this is the canonical form."""
    order = {root: 0}
    out: list = [None]
    stack = [root]
    while stack:
        k = stack.pop()
        entry = nodes[k]
        if entry[0] == VAR:
            out[order[k]] = entry
            continue
        pending = []
        children = []
        for c in entry[2]:
            o = order.get(c)
            if o is None:
                o = order[c] = len(out)
                out.append(None)
                pending.append(c)
            children.append(o)
        out[order[k]] = (APP, entry[1], tuple(children))
        stack.extend(reversed(pending))
    return _interned(tuple(out))


def _interned(key: tuple) -> RationalTerm:
    """The one live term whose canonical node tuple is key."""
    cached = _INTERN.get(key)
    if cached is None:
        cached = RationalTerm(key)
        _INTERN[key] = cached
    return cached


def var(name: str) -> RationalTerm:
    return from_nodes([(VAR, name)], 0)


FALLBACK_VAR = var(FALLBACK_VAR_NAME)


def app(symbol: str, args: Sequence[RationalTerm] = ()) -> RationalTerm:
    nodes: list = [None]
    nodes[0] = (APP, symbol, tuple(append_nodes(nodes, arg) for arg in args))
    return from_nodes(nodes, 0)


def append_nodes(nodes: list, t: RationalTerm, binding: Mapping[str, int] = {}) -> int:
    """Copy t's graph onto the end of the raw node list nodes and return
    the index of the copy's root.  A variable that binding maps to an
    index of nodes stands for that node instead of itself."""
    offset = len(nodes)
    where = [
        binding.get(entry[1], offset + i) if entry[0] == VAR else offset + i
        for i, entry in enumerate(t.nodes)
    ]
    nodes.extend(
        entry if entry[0] == VAR else (APP, entry[1], tuple(where[c] for c in entry[2]))
        for entry in t.nodes
    )
    return where[0]


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
    return from_nodes(nodes, index[root])


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
    """The subterm rooted at graph node idx of t.

    The nodes of a canonical term are pairwise not bisimilar, so the
    subterm's nodes are too: it is trimmed and renumbered, not refined.
    """
    return t if idx == 0 else _renumbered(t.nodes, idx)


def subterm(t: RationalTerm, p: Position) -> RationalTerm:
    """Subterm at p; the reserved fallback variable when p is not a position."""
    idx = node_at(t, p)
    if idx is None:
        return FALLBACK_VAR
    return subterm_at_node(t, idx)


def replace(
    t: RationalTerm, p: Position, u: RationalTerm, binding: Mapping[str, int] = {}
) -> RationalTerm:
    """t with the subterm at p replaced by u; t itself when p is invalid.

    A variable of u that binding maps to a node of t stands for the
    subterm of t at that node, so replace(t, p, rhs, match(lhs, t, p)) is
    one rewrite step.  A fresh spine is built along p, so replacement
    inside a cycle cuts it.

    The new nodes (u's copy, children first, then the spine, bottom up)
    are hash-consed: each is looked up by its entry among t's nodes and
    the new nodes made before it, and made only when absent.  When u is
    finite that is exact: t's nodes are pairwise not bisimilar and never
    point at new ones, and a new node's children are already unique, so
    it is bisimilar to a node iff their entries are equal.  The result is
    then only trimmed and renumbered.  A cyclic u can close a loop
    bisimilar to one of t's, so its copy goes through from_nodes.
    """
    if node_at(t, p) is None:
        return t
    nodes = list(t.nodes)
    index = t._index
    added: dict = {}  # entry -> number, for the nodes made here

    def cons(entry) -> int:
        k = index.get(entry)
        if k is None:
            k = added.get(entry)
            if k is None:
                k = added[entry] = len(nodes)
                nodes.append(entry)
        return k

    finite = u.is_finite
    if not finite:
        new = append_nodes(nodes, u, binding)
    else:
        where = [0] * len(u.nodes)
        for i in u._walk:
            entry = u.nodes[i]
            if entry[0] == VAR:
                k = binding.get(entry[1])
                where[i] = cons(entry) if k is None else k
            else:
                where[i] = cons((APP, entry[1], tuple(where[c] for c in entry[2])))
        new = where[0]
    spine = [0]
    for i in p[:-1]:
        spine.append(t.nodes[spine[-1]][2][i - 1])
    for idx, i in zip(reversed(spine), reversed(p)):
        entry = t.nodes[idx]
        children = list(entry[2])
        children[i - 1] = new
        new = cons((APP, entry[1], tuple(children)))
    if not finite:
        return from_nodes(nodes, new)
    return t if new == 0 else _renumbered(nodes, new)


def positions(t: RationalTerm, depth_bound: int) -> set[Position]:
    """All positions of length <= depth_bound (by bounded unfolding)."""
    return {p for p, _idx in iter_positions(t, depth_bound)}


def iter_positions(t: RationalTerm, depth_bound: int) -> Iterator[tuple[Position, int]]:
    """Breadth-first (position, node) pairs up to the depth bound."""
    queue: list[tuple[Position, int]] = [(ROOT, 0)]
    for p, idx in queue:  # queue grows while it is walked
        yield p, idx
        if len(p) < depth_bound:
            queue.extend((p + (i,), c) for i, c in enumerate(t.children_of(idx), 1))


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


# --- graph search ----------------------------------------------------------


def sccs(
    roots: Iterable[Hashable], succ: Callable[[Hashable], Iterable[Hashable]]
) -> list[list]:
    """Strongly connected components of the nodes reachable from roots,
    each listed after every component it reaches (children first).

    Iterative Tarjan (SIAM J. Comput. 1972), visiting roots and successors
    in the order given.  A component is cyclic iff it has two or more
    nodes or its one node is its own successor.
    """
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    work: list = []
    out = []

    def push(node):
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(succ(node))))

    for root in roots:
        if root not in index:
            push(root)
        while work:
            node, it = work[-1]
            for child in it:
                if child not in index:
                    push(child)
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    out.append(comp)
    return out


def bfs_path(
    start: Hashable,
    goal: Hashable,
    step: Callable[[Hashable], Iterable[tuple[object, Hashable]]],
    budget: Optional[int] = None,
) -> Optional[list]:
    """Labels of a shortest path of at least one step from start to goal.

    step(node) yields (label, next) pairs.  Nodes are discovered in
    successor order and keep their first-discovery parent, so the path
    found is the same on every run; goal == start asks for the shortest
    nonempty cycle.  At most budget nodes are expanded when one is given.
    None means no path was found.
    """
    parent: dict = {start: None}  # every node found, with its first parent
    queue = deque([start])
    expansions = 0
    while queue and (budget is None or expansions < budget):
        node = queue.popleft()
        expansions += 1
        for label, nxt in step(node):
            if nxt == goal:
                path = [label]
                while node != start:
                    node, label = parent[node]
                    path.append(label)
                path.reverse()
                return path
            if nxt not in parent:
                parent[nxt] = (node, label)
                queue.append(nxt)
    return None


Substitution = Mapping[str, RationalTerm]


def substitute(sigma: Substitution, t: RationalTerm) -> RationalTerm:
    """Homomorphic application; variables outside dom(sigma) unchanged."""
    nodes: list = []
    binding = {x: append_nodes(nodes, sigma[x]) for x in variables(t) if x in sigma}
    if not binding:
        return t
    return from_nodes(nodes, append_nodes(nodes, t, binding))


def variables(t: RationalTerm) -> set[str]:
    return {entry[1] for entry in t.nodes if entry[0] == VAR}


def term_depth(t: RationalTerm) -> int:
    """Depth of a finite term (root = depth 0)."""
    if not t.is_finite:
        raise TermError("depth of an infinite term")
    depth = [0] * len(t.nodes)
    for idx in t._walk:
        depth[idx] = max((depth[c] + 1 for c in t.children_of(idx)), default=0)
    return depth[0]


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


# One scan: a token is group 1, and a character that starts none (a bad
# one) matches with group 1 empty.  \s is str.isspace, \w str.isalnum and _.
_TOKEN = re.compile(r"([(),.]|[\w'#]+)|\S")


def _error(text: str, k: int, message: str, after: bool = False) -> ParseError:
    """message at the start of token k of text, or just after it.  Where
    there is no token k, at the end of the text; where the scan met a
    bad character instead, that is the error.  Offsets are recovered by
    scanning again, so only an error pays for them."""
    m = next(islice(_TOKEN.finditer(text), k, None), None)
    if m is None:
        pos = len(text)
    elif not m.group(1):
        message, pos = f"unexpected character {m.group()!r}", m.start()
    else:
        pos = m.end() if after else m.start()
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def parse(text: str, sig: Optional[Signature] = None) -> RationalTerm:
    """The term of a mu-text, in one pass over its tokens.  A node is
    numbered when its head is read and filled in at its `)`; a `mu` name
    waits in pending until its body's head is read, then names that node.
    A body that is a pending name is no body, raised after any other error."""
    tokens: list = _TOKEN.findall(text)
    bad = "" in tokens  # the tokens end at the first bad character
    if bad:
        del tokens[tokens.index(""):]
    tokens.append(None)  # the end, read as often as asked
    i = 0  # the next token
    nodes: list = []  # raw entries for from_nodes, numbered as their heads are read
    pending: list[tuple[str, int]] = []  # (name, token number of its `mu`)
    bodiless: Optional[int] = None  # the `mu` of the first binder with no body

    def is_symbol(name: str) -> bool:
        if sig is not None:
            return name in sig
        return name[0].isupper() or name[0].isdigit()

    def close_app(frame: tuple, k: int) -> int:
        """The node of an application frame, whose `)` is token k."""
        tok, node, args, _bound = frame
        if tokens[k] != ")":
            raise _error(text, k, f"expected ')', got {tokens[k]!r}", after=True)
        if sig is not None:
            if tok not in sig:
                raise _error(text, k, f"unknown symbol {tok}", after=True)
            if sig.arity(tok) != len(args):
                raise _error(text, k, f"{tok} expects {sig.arity(tok)} arguments", after=True)
        nodes[node] = (APP, tok, tuple(args))
        return node

    # Open applications wait on a stack as (symbol, node, args so far,
    # bound inside); each pass of the outer loop reads the head of one
    # term, the inner loop closes finished ones.
    stack: list[tuple] = []
    while True:
        tok = tokens[i]
        if tok is None:
            raise _error(text, i, "unexpected end of input")
        i += 1
        if tok == "mu":
            loop_var = tokens[i]
            if loop_var is None or not loop_var[0].isalnum():
                raise _error(text, i, "expected a mu-bound name", after=True)
            if tokens[i + 1] != ".":
                raise _error(text, i + 1, f"expected '.', got {tokens[i + 1]!r}", after=True)
            pending.append((loop_var, i - 1))
            i += 2
            continue
        if not (tok[0].isalnum() or tok[0] in "_'"):
            raise _error(text, i - 1, f"unexpected token {tok!r}", after=True)
        bound = stack[-1][3] if stack else {}
        if pending:
            names = dict(pending)  # each name's innermost `mu`
            pending.clear()
            if tok in names and bodiless is None:
                bodiless = names[tok]  # raised once the rest has parsed
            bound = {**bound, **dict.fromkeys(names, len(nodes))}  # the body's head's node
        if tok in bound:
            node = bound[tok]
        else:
            node = len(nodes)
            if tokens[i] == "(":
                i += 1
                nodes.append(None)
                frame = (tok, node, [], bound)
                if tokens[i] != ")":
                    stack.append(frame)
                    continue
                i += 1
                close_app(frame, i - 1)
            elif is_symbol(tok):
                if sig is not None and sig.arity(tok) != 0:
                    raise _error(text, i, f"{tok} is not nullary")
                nodes.append((APP, tok, ()))
            else:
                if tok == FALLBACK_VAR_NAME:
                    raise _error(text, i, "reserved variable name")
                nodes.append((VAR, tok))
        while stack:
            frame = stack[-1]
            frame[2].append(node)
            i += 1
            if tokens[i - 1] == ",":
                break
            node = close_app(frame, i - 1)
            stack.pop()
        if not stack:
            break
    if tokens[i] is not None or bad:
        raise _error(text, i, f"trailing input {tokens[i]!r}")
    if bodiless is not None:
        raise _error(text, bodiless, "mu binder with no body")
    return from_nodes(nodes, node)


_MU_NAMES = "XYZWVU"


def to_text(t: RationalTerm) -> str:
    """Canonical mu-binder syntax; inverse of parse up to bisimilarity."""
    used = variables(t)
    names: dict[int, str] = {}
    for idx in () if t.is_finite else sorted(t._walk):
        k = len(names)
        base = _MU_NAMES[k % len(_MU_NAMES)] + ("" if k < len(_MU_NAMES) else str(k))
        while base in used:
            base += "'"
        names[idx] = base
        used.add(base)

    pieces: list[str] = []
    stack: list = [(0, frozenset())]  # pending (node, enclosing binders) or text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        idx, active = item
        entry = t.nodes[idx]
        if idx in active:
            pieces.append(names[idx])
            continue
        if entry[0] == VAR:
            pieces.append(entry[1])
            continue
        if idx in names:
            pieces.append(f"mu {names[idx]}. ")
            active = active | {idx}
        pieces.append(entry[1])
        children = entry[2]
        if children:
            pieces.append("(")
            stack.append(")")
            for k in range(len(children) - 1, -1, -1):
                stack.append((children[k], active))
                if k:
                    stack.append(", ")
    return "".join(pieces)

