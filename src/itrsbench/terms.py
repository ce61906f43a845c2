"""Finite and rational terms as nodes of one hash-consed store.

A rational term is a finite rooted labeled graph; finite terms are the
acyclic case.  A term is a node of one store, in which no two live nodes
are bisimilar, after Filliâtre & Conchon, "Type-safe modular
hash-consing" (ML Workshop 2006): a node has a symbol (a variable, its
name) and its argument nodes, and two terms denote the same (possibly
infinite) tree iff they are the same object, so equality and hashing
are by identity.  The store holds its nodes weakly; a node on a cycle
leaves it at the garbage collection that frees its loop.

A node on no cycle is hash-consed by (symbol, argument nodes), which is
exact since the arguments are unique.  A strongly connected component
of new nodes with a cycle, a loop, is refined by Hopcroft's algorithm
and placed whole: it meets a stored loop that it points into or that
has its multiset of node labels, if the two are bisimilar.
unfold builds the term that a finite state graph unfolds to, a rational
tree (Courcelle, TCS 1983), this way: it places the components that
sccs yields, children first, and a graph without a cycle runs no
refinement.  graph_term, a cyclic substitute, the cutoffs, the knot of
a limit and the renamings of symbols are each such an unfolding.  parse
places each loop as its `mu` binder closes, since the text's scoping
marks the loop, and hash-conses the rest at each `)`: its low-link is
the one kept outside sccs.  replace and subterm work on nodes: a rewrite
step conses the instance of the right-hand side and the spine above its
position, O(|p| + |rhs|) for a finite one, and visits nothing else.

Every algorithm walks nodes and keys its tables by node.  RationalTerm.nodes
is the raw-graph export, numbers and names only, numbered by node_numbers
from the root 0: it hands a graph to from_nodes, which reads it back
(pickling), and to callers outside the package; no other module knows
its format.  Numbers appear otherwise only where an output names a node:
a membership witness, a principal cycle, the order of to_text's binders.
"""

from __future__ import annotations

import re
import weakref
from collections import Counter, deque
from functools import cached_property
from itertools import islice
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

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


def record(cls=None, /, *, frozen=False):
    """Class decorator: a record of the fields the class annotates, in
    order, each defaulting to the class attribute of its name if there is
    one.  It adds __init__, __repr__, __eq__ and __hash__, those of a
    standard-library data class with the same frozen flag, made from
    closures over the field names: creating a class compiles no code, and
    nothing beyond operator is imported for it, so a cold start pays for
    neither code generation nor the inspect module.

    __init__ takes the fields positionally or by keyword, fills the
    instance's __dict__ and then runs __post_init__ if the class has one;
    a missing, unknown or repeated argument is a TypeError.  __repr__
    prints Name(field=value, ...).  Records are equal only if of the same
    class, with equal fields; equality and hash read the declared fields
    alone, not cached_property values kept in __dict__.  A mutable record
    is unhashable.  A frozen one hashes its field tuple, and assigning to
    or deleting any attribute raises AttributeError (cached_property
    still fills __dict__).  An unhashable default, such as a list, dict
    or set, is a ValueError: every instance would share it.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    for name, default in defaults.items():
        if type(default).__hash__ is None:
            raise ValueError(f"mutable default {type(default)} for field {name} is not allowed")
    n = len(names)
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    key = get if n > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes {n} arguments but {len(args)} were given")
        values = self.__dict__
        if defaults:
            values.update(defaults)
        values.update(zip(names, args))
        if kwargs:
            rest = names[len(args):]
            for name in kwargs:
                if name not in rest:
                    raise TypeError(f"{cls.__name__}() got an unknown or repeated argument {name!r}")
            values.update(kwargs)
        if len(values) < n:
            missing = [name for name in names if name not in values]
            raise TypeError(f"{cls.__name__}() missing arguments {missing}")
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def read_only(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    if frozen:
        cls.__hash__ = lambda self: hash(key(self))
        cls.__setattr__ = cls.__delattr__ = read_only
    else:
        cls.__hash__ = None
    return cls


@record(frozen=True)
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


# The store.  _TABLE maps (symbol, args) to a weak reference to the one
# live node off every cycle with that symbol and those arguments (args
# None for a variable).  A node on a cycle is kept out of it: a key holds
# its arguments, and a loop's keys would hold the loop alive.  Each loop
# has a table of its own nodes instead, shared by them (_loop), and
# _LOOPS maps the fingerprint of a loop (see _place_loop) to weak
# references to one node of each stored loop with it.
_TABLE: dict = {}
_LOOPS: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _drop(ref: _Ref):
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


def _drop_loop(ref: _Ref):
    refs = _LOOPS.get(ref.key)
    if refs is not None:
        refs.remove(ref)
        if not refs:
            del _LOOPS[ref.key]


class RationalTerm:
    """A node of the store, and the term it roots: immutable, and no other
    live node is bisimilar to it, so == is identity.  symbol is a function
    symbol or a variable's name; args holds the argument nodes, None for
    a variable.  Built only by this module's constructors.  Two marks are
    kept on a node for other layers: _hits, its redexes per system
    (rewriting._node_hits), and _checked, the last signature found to cover
    every node below it (metrics.TermMetric.covers)."""

    __slots__ = (
        "symbol", "args", "_finite", "_loop", "_hits", "_checked", "__weakref__", "__dict__"
    )

    def __reduce__(self):  # copy, deepcopy and pickle give the stored term
        return from_nodes, (self.nodes, 0)

    @property
    def is_var(self) -> bool:
        return self.args is None

    @property
    def root_symbol(self) -> str:
        return self.symbol

    @property
    def label(self):
        """Label used for clash tests: (VAR, name), or (symbol, arity)."""
        return (VAR, self.symbol) if self.args is None else (self.symbol, len(self.args))

    @property
    def is_finite(self) -> bool:
        return self._finite

    @cached_property
    def nodes(self) -> tuple:
        """The raw-graph export: entry i ("var", name) or ("app", sym,
        (child, ...)) for the node numbered i by node_numbers."""
        return _flat_view(self)

    @cached_property
    def _pattern(self) -> tuple:
        """This term as a pattern for rewriting.match: its number of nodes,
        its edges (parent, child index, child, label) breadth first from
        the root 0, and its variable leaves (node, name).  The first edge
        into a node carries its label, (symbol, arity), or None for a
        variable; a later one carries PLACED: it meets the node placed."""
        number = {self: 0}
        order = [self]
        edges = []
        for a, node in enumerate(order):  # order grows while it is walked
            for i, c in enumerate(node.args or ()):
                b = number.setdefault(c, len(order))
                if b < len(order):
                    edges.append((a, i, b, PLACED))
                else:
                    order.append(c)
                    edges.append((a, i, b, None if c.args is None else (c.symbol, len(c.args))))
        leaves = tuple((b, node.symbol) for b, node in enumerate(order) if node.args is None)
        return len(order), tuple(edges), leaves

    @cached_property
    def _open(self) -> tuple:
        """For a finite term: the nodes below the root that reach a
        variable, children first, each once; what an instance rebuilds."""
        reach: dict = {}  # a node reaches a variable if it is one or a child does
        for (node,) in sccs(self.args or (), lambda n: n.args or ()):
            if node.args is None or any([c in reach for c in node.args]):
                reach[node] = None
        return tuple(reach)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"RationalTerm({to_text(self)!r})"


def node_numbers(t: RationalTerm) -> dict:
    """Each node reachable from t with its number in t.nodes, in the
    order of the numbers: the root is 0, a node's children are numbered
    in order when it is entered, and entered first to last."""
    number = {t: 0}
    stack = [t]
    while stack:
        pending = []
        for c in stack.pop().args or ():
            if c not in number:
                number[c] = len(number)
                pending.append(c)
        stack.extend(reversed(pending))
    return number


def _flat_view(t: RationalTerm) -> tuple:
    """The entries of t.nodes."""
    number = node_numbers(t)
    return tuple([
        (VAR, n.symbol) if n.args is None else (APP, n.symbol, tuple([number[c] for c in n.args]))
        for n in number
    ])


def _cons(symbol: str, args: Optional[tuple]) -> RationalTerm:
    """The stored node with this symbol and these argument nodes, made
    when absent.  Exact: the arguments are unique, so a bisimilar node has
    these very arguments.  It is in _TABLE, or it lies on a cycle through
    one of them and is in that argument's loop table."""
    key = (symbol, args)
    ref = _TABLE.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    finite = True
    if args:
        for a in args:
            if not a._finite:
                finite = False
                loop = a._loop
                if loop is not None:
                    node = loop.get(args)
                    if node is not None and node.symbol != symbol:
                        node = loop.get(key)
                    if node is not None:
                        return node
    node = RationalTerm()
    node.symbol = symbol
    node.args = args
    node._finite = finite
    node._loop = None
    node._hits = node._checked = None
    ref = _TABLE[key] = _Ref(node, _drop)
    ref.key = key
    return node


def unfold(root: Hashable, expand: Callable) -> RationalTerm:
    """The stored term that the state graph from root unfolds to.

    expand(state) gives a state's symbol and its children, None for a
    variable; each child is a stored term, kept as it is, or another
    state: any hashable that is not a RationalTerm.  Each state is
    expanded once, as sccs enters it.  The store places the strongly
    connected components that sccs yields, children first, so each
    component's children outside it are stored by then.  A component of
    one state off every cycle is hash-consed (_cons), and a loop is placed
    whole (_place_loop).  A graph without a cycle runs no refinement.
    """
    entry: dict = {}  # each expanded state's (symbol, children)
    inner: dict = {}  # each expanded state's children that are states

    def succ(state):
        symbol, kids = entry[state] = expand(state)
        inner[state] = [c for c in kids if c.__class__ is not RationalTerm] if kids else ()
        return inner[state]

    term: dict = {}  # each state's term, once stored
    for comp in sccs([root], succ):
        s = comp[0]
        if len(comp) == 1 and s not in inner[s]:
            symbol, kids = entry[s]
            term[s] = _cons(symbol, None if kids is None else tuple([term.get(c, c) for c in kids]))
            continue
        index = {c: j for j, c in enumerate(comp)}
        loop = _place_loop(
            [entry[s][0] for s in comp],
            [[index[c] if c in index else term.get(c, c) for c in entry[s][1]] for s in comp],
        )
        term.update(zip(comp, loop))
    return term[root]


def from_nodes(nodes: Sequence, root: int) -> RationalTerm:
    """The term rooted at node root of a raw node list, whose entries are
    as in RationalTerm.nodes, except that a child may also be a term
    instead of a number; any entry may be unreachable.  The raw-graph
    import: unfold over the list's indices."""
    return unfold(root, lambda k: (nodes[k][1], None if nodes[k][0] == VAR else nodes[k][2]))


def _place_loop(symbols: list, kids: list) -> list[RationalTerm]:
    """The stored nodes of a strongly connected raw graph with a cycle:
    node j has symbols[j] and the children kids[j], each a number of this
    graph or a stored term.

    _refine merges its bisimilar nodes, with a child outside as part of
    the label and a child inside as an edge.  The quotient can meet a
    stored loop in two ways: it points into that loop, or the two have one
    multiset of labels, whose fingerprint does not depend on where a walk
    enters the loop (_stored_loop).  Otherwise it is stored as a new loop.
    """
    labels, preds = _graph(symbols, kids)
    block, count = _refine(labels, preds)
    if count < len(kids):
        first: list = [None] * count  # block -> its first node
        for j, b in enumerate(block):
            if first[b] is None:
                first[b] = j
        symbols = [symbols[j] for j in first]
        kids = [[block[c] if c.__class__ is int else c for c in kids[j]] for j in first]
        labels = [labels[j] for j in first]
    else:
        block = range(count)  # already minimal
    fingerprint = hash(frozenset(Counter(labels).items()))
    stored = _stored_loop(fingerprint, symbols, kids) or _new_loop(fingerprint, symbols, kids)
    return [stored[b] for b in block]


def _graph(symbols: list, kids: list) -> tuple[list, list[list]]:
    """labels and preds for _refine: each node's symbol with its children
    outside (None for one inside), and the edges (letter, parent) into
    each node."""
    labels = []
    preds: list[list] = [[] for _ in kids]
    for j, ks in enumerate(kids):
        outside = []
        for i, c in enumerate(ks):
            if c.__class__ is int:
                preds[c].append((i, j))
                c = None
            outside.append(c)
        labels.append((symbols[j], tuple(outside)))
    return labels, preds


def _stored_loop(fingerprint: int, symbols: list, kids: list) -> Optional[list]:
    """The stored nodes bisimilar to the nodes of a minimal loop, or None.

    A stored node bisimilar to one of them lies on a stored loop that the
    loop points into or that has its fingerprint, and that loop takes all
    of it.  One joint _refine of the loop with those stored loops decides,
    in O(m log n).
    """
    tables = {id(t): t for ks in kids for c in ks
              if c.__class__ is not int and (t := c._loop) is not None}
    for ref in _LOOPS.get(fingerprint, ()):
        node = ref()
        if node is not None:
            tables[id(node._loop)] = node._loop
    if not tables:
        return None
    n = len(kids)
    others = [m for t in tables.values() for m in t.values()]
    number = {m: n + j for j, m in enumerate(others)}  # a stored node, as a raw one
    symbols = symbols + [m.symbol for m in others]
    kids = [[c if c.__class__ is int else number.get(c, c) for c in ks] for ks in kids]
    kids += [[number.get(a, a) for a in m.args] for m in others]
    block, _count = _refine(*_graph(symbols, kids))
    found = {block[j]: m for m, j in number.items()}
    image = [found.get(block[j]) for j in range(n)]
    return image if image[0] is not None else None


def _new_loop(fingerprint: int, symbols: list, kids: list) -> list[RationalTerm]:
    members = [RationalTerm() for _ in kids]
    table: dict = {}  # the loop's own args -> node; (symbol, args) for a second one
    for node, symbol, ks in zip(members, symbols, kids):
        node.symbol = symbol
        node.args = tuple([members[c] if c.__class__ is int else c for c in ks])
        node._finite = False
        node._loop = table
        node._hits = node._checked = None
        table[(symbol, node.args) if node.args in table else node.args] = node
    ref = _Ref(members[0], _drop_loop)
    ref.key = fingerprint
    _LOOPS.setdefault(fingerprint, []).append(ref)
    return members


def _refine(labels: list, preds: list) -> tuple[list[int], int]:
    """The block of each node under the coarsest partition that refines
    labels (one per node) and is stable under every edge (letter,
    parent) of preds[node], and the number of blocks: bisimilarity.

    Hopcroft 1971, in the splitter form of Paige & Tarjan, SIAM J.
    Comput. 1987.  Every block starts waiting, and a block that splits
    while not waiting queues only its smaller part, so O(m log n) in all.
    A splitter of one node with one parent, every splitter but the first
    on a ring, takes that parent out of its block directly; measured,
    without it the distance-infty bench family took 132 ms of CPU per 10
    rounds instead of 99 ms, and the metric workload 15% more (on a
    2-core host).
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
        if len(members[b]) == 1:
            (k,) = members[b]
            if len(preds[k]) == 1:  # the step below, for one parent p
                p = preds[k][0][1]
                rest = members[block[p]]
                if len(rest) > 1:
                    rest.discard(p)
                    block[p] = len(members)
                    members.append({p})
                    waiting.append(block[p])
                    is_waiting.append(True)
                continue
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


def var(name: str) -> RationalTerm:
    return _cons(name, None)


FALLBACK_VAR = var(FALLBACK_VAR_NAME)


def app(symbol: str, args: Sequence[RationalTerm] = ()) -> RationalTerm:
    return _cons(symbol, tuple(args))


def graph_term(spec: Mapping[str, tuple], root: str) -> RationalTerm:
    """Build a (possibly cyclic) term from named nodes.

    spec maps a node name to ("var", varname) or (symbol, [child node names]).
    """

    def expand(name: str):
        entry = spec[name]
        return (entry[1], None) if entry[0] == VAR and isinstance(entry[1], str) else entry

    return unfold(root, expand)


def node_at(t: RationalTerm, p: Position) -> Optional[RationalTerm]:
    """The node reached by following p from the root, or None."""
    for i in p:
        if t.args is None or not 0 < i <= len(t.args):
            return None
        t = t.args[i - 1]
    return t


def subterm(t: RationalTerm, p: Position) -> RationalTerm:
    """Subterm at p; the reserved fallback variable when p is not a position."""
    node = node_at(t, p)
    return FALLBACK_VAR if node is None else node


def replace(
    t: RationalTerm, p: Position, u: RationalTerm, binding: Mapping[str, RationalTerm] = {}
) -> RationalTerm:
    """t with the subterm at p replaced by u; t itself when p is invalid.

    A variable of u that binding maps stands for the term it is mapped
    to, so replace(t, p, rhs, match(lhs, t, p)) is one rewrite step.  The
    instance of u is built (see substitute), then a fresh spine along p,
    bottom up, each node hash-consed: O(|p| + |u|) for a finite u, and
    nothing else of t is visited.  Replacement inside a cycle cuts it;
    where a new node is bisimilar to a stored one, it is that node.
    """
    spine = []
    node = t
    for i in p:
        if node.args is None or not 0 < i <= len(node.args):
            return t
        spine.append(node)
        node = node.args[i - 1]
    new = substitute(binding, u)
    for node, i in zip(reversed(spine), reversed(p)):
        new = _cons(node.symbol, node.args[: i - 1] + (new,) + node.args[i:])
    return new


def positions(t: RationalTerm, depth_bound: int) -> set[Position]:
    """All positions of length <= depth_bound (by bounded unfolding)."""
    queue = [(ROOT, t)]
    for p, node in queue:  # queue grows while it is walked
        if node.args and len(p) < depth_bound:
            queue.extend((p + (i,), c) for i, c in enumerate(node.args, 1))
    return {p for p, _node in queue}


def topequ(t: RationalTerm, p: Position, u: RationalTerm) -> bool:
    """Same function symbols up to position p (inductive definition)."""
    for i in p:
        if t.args is None or u.args is None or t.label != u.label:
            return False
        if not 0 < i <= len(t.args):
            return False
        t, u = t.args[i - 1], u.args[i - 1]
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
    done = float("inf")  # the index of a node once its component is out
    index: dict = {}  # a node's order of entry, then done
    low: dict = {}  # the least index a node reaches on the stack
    stack: list = []
    out = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            for child in it:
                k = index.get(child)
                if k is None:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    work.append((child, iter(succ(child))))
                    break
                if k < low[node]:  # never for a done child
                    low[node] = k
            else:
                work.pop()
                lo = low[node]
                if work:
                    parent = work[-1][0]
                    if lo < low[parent]:
                        low[parent] = lo
                if lo == index[node]:
                    comp = [stack.pop()]
                    while comp[-1] != node:
                        comp.append(stack.pop())
                    for n in comp:
                        index[n] = done
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
    """Homomorphic application; variables outside dom(sigma) unchanged.

    On a finite t only the nodes that reach a variable are rebuilt,
    children first, each hash-consed.  A t that reaches a cycle is
    unfolded (unfold) from its nodes on or above a cycle, each finite
    child substituted so.
    """
    if not sigma:
        return t
    if t._finite:
        if t.args is None:
            return sigma.get(t.symbol, t)
        made: dict = {}
        for node in t._open:
            if node.args is None:
                made[node] = sigma.get(node.symbol, node)
            else:
                made[node] = _cons(node.symbol, tuple([made.get(c, c) for c in node.args]))
        return _cons(t.symbol, tuple([made.get(c, c) for c in t.args])) if made else t

    def expand(state: tuple):
        (node,) = state
        return node.symbol, [substitute(sigma, c) if c._finite else (c,) for c in node.args]

    return unfold((t,), expand)


def variables(t: RationalTerm) -> set[str]:
    seen = {t}
    stack = [t]
    while stack:
        for c in stack.pop().args or ():
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return {node.symbol for node in seen if node.args is None}


def _binders(t: RationalTerm) -> set:
    """The nodes that an edge enters while they are on the path of one
    depth-first walk from t, children in order: where to_text puts its
    binders."""
    loops: set = set()
    state: dict = {}  # True on the path, False finished
    stack = [(t, True)]  # a node to enter, or (node, False) to finish
    while stack:
        node, enter = stack.pop()
        if not enter:
            state[node] = False
        elif state.get(node):
            loops.add(node)
        elif node not in state:
            state[node] = True
            stack.append((node, False))
            stack.extend([(c, True) for c in reversed(node.args or ())])
    return loops


def term_depth(t: RationalTerm) -> int:
    """Depth of a finite term (root = depth 0)."""
    if not t.is_finite:
        raise TermError("depth of an infinite term")
    depth: dict = {}
    for (node,) in sccs([t], lambda n: n.args or ()):  # children first
        depth[node] = max([depth[c] + 1 for c in node.args or ()], default=0)
    return depth[t]


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
    """The term of a mu-text, in one pass over its tokens.

    A term is hash-consed at its `)` once its arguments are terms; one
    that reaches a `mu` name still open is a raw node (symbol, args)
    instead, numbered in nodes.  A `mu` name waits in pending until its
    body's head is read, then names a raw slot, which that head fills if
    it is raw; a head that is a leaf, another name or a term leaves the
    slot empty, and it is dropped.  A body that is a pending name is no
    body, raised after any other error.

    Each loop is placed as its binder closes, with Tarjan's low-link
    (SIAM J. Comput. 1972) read off the text's scoping: low[k] is the
    least open slot that raw node k reaches, an empty slot's own number,
    and a node's low is the least low of its raw children.  A name is
    used only inside its binder's body, while its slot is empty, so a raw
    node reaches no slot of a binder closed before it, and a node made
    inside a body lies above its slot in nodes.  So when the head filling
    slot s closes with low s, every raw node from s on was made in the
    body, the head reaches it, and it reaches s: they are exactly one
    strongly connected component, a loop.  _place_loop stores it then,
    and its nodes leave nodes, so the context around it (a lasso's
    prefix, say) is hash-consed like finite text.  No raw node is left at
    the end, where no slot is open.  Once a binder with no body is seen,
    nothing is placed: its slot stays empty, and the text is refused.
    """
    tokens: list = _TOKEN.findall(text)
    bad = "" in tokens  # the tokens end at the first bad character
    if bad:
        del tokens[tokens.index(""):]
    tokens.append(None)  # the end, read as often as asked
    i = 0  # the next token
    nodes: list = []  # raw nodes (symbol, args), None for an empty slot
    low: list[int] = []  # the least open slot each raw node reaches
    pending: list[tuple[str, int]] = []  # (name, token number of its `mu`)
    bodiless: Optional[int] = None  # the `mu` of the first binder with no body
    symbols = sig.symbols if sig is not None else None

    def is_symbol(name: str) -> bool:
        if sig is not None:
            return name in symbols
        return name[0].isupper() or name[0].isdigit()

    def close_app(frame: tuple, k: int):
        """The term or raw node of an application frame, whose `)` is token k."""
        tok, slot, args, _bound = frame
        if tokens[k] != ")":
            raise _error(text, k, f"expected ')', got {tokens[k]!r}", after=True)
        if symbols is not None and symbols.get(tok) != len(args):
            if tok not in symbols:
                raise _error(text, k, f"unknown symbol {tok}", after=True)
            raise _error(text, k, f"{tok} expects {symbols[tok]} arguments", after=True)
        lo = -1
        if nodes:
            for c in args:
                if c.__class__ is int:
                    c = low[c]
                    if lo < 0 or c < lo:
                        lo = c
        if lo < 0:  # it reaches no open `mu` name
            if slot is not None:
                del nodes[slot:], low[slot:]
            return _cons(tok, tuple(args))
        if slot is None:
            slot = len(nodes)
            nodes.append((tok, args))
            low.append(lo)
            return slot
        nodes[slot] = (tok, args)
        low[slot] = lo
        if lo < slot or bodiless is not None:
            return slot
        body = nodes[slot:]
        del nodes[slot:], low[slot:]
        return _place_loop(
            [symbol for symbol, _args in body],
            [[c - slot if c.__class__ is int else c for c in kids] for _symbol, kids in body],
        )[0]

    # Open applications wait on a stack as (symbol, slot or None, args so
    # far, bound inside); each pass of the outer loop reads the head of
    # one term, the inner loop closes finished ones.
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
        slot = None
        if pending:
            names = dict(pending)  # each name's innermost `mu`
            pending.clear()
            if tok in names and bodiless is None:
                bodiless = names[tok]  # raised once the rest has parsed
            slot = len(nodes)  # the body's head's, if it is raw
            nodes.append(None)
            low.append(slot)
            bound = {**bound, **dict.fromkeys(names, slot)}
        if tok in bound:
            node = bound[tok]
        elif tokens[i] == "(":
            i += 1
            frame = (tok, slot, [], bound)
            if tokens[i] != ")":
                stack.append(frame)
                continue
            i += 1
            node = close_app(frame, i - 1)
        elif is_symbol(tok):
            if sig is not None and symbols[tok] != 0:
                raise _error(text, i, f"{tok} is not nullary")
            node = _cons(tok, ())
        else:
            if tok == FALLBACK_VAR_NAME:
                raise _error(text, i, "reserved variable name")
            node = _cons(tok, None)
        if slot is not None and node != slot:  # a head that fills no slot
            del nodes[slot:], low[slot:]
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
    return node


_MU_NAMES = "XYZWVU"


def to_text(t: RationalTerm) -> str:
    """Canonical mu-binder syntax; inverse of parse up to bisimilarity.
    Binders are named in the order of node_numbers."""
    used = variables(t)
    names: dict = {}
    if not t.is_finite:
        loops = _binders(t)
        for node in [n for n in node_numbers(t) if n in loops]:
            k = len(names)
            base = _MU_NAMES[k % len(_MU_NAMES)] + ("" if k < len(_MU_NAMES) else str(k))
            while base in used:
                base += "'"
            names[node] = base
            used.add(base)

    pieces: list[str] = []
    stack: list = [(t, frozenset())]  # pending (node, enclosing binders) or text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        node, active = item
        if node in active:
            pieces.append(names[node])
            continue
        if node.args is None:
            pieces.append(node.symbol)
            continue
        if node in names:
            pieces.append(f"mu {names[node]}. ")
            active = active | {node}
        pieces.append(node.symbol)
        children = node.args
        if children:
            pieces.append("(")
            stack.append(")")
            for k in range(len(children) - 1, -1, -1):
                stack.append((children[k], active))
                if k:
                    stack.append(", ")
    return "".join(pieces)
