"""The flat canonical terms that the store of itrsbench.terms replaced,
kept as test oracles.  A term here is a canonical node tuple, as
RationalTerm.nodes gives it: entry i ("var", name) or ("app", symbol,
(child, ...)), no two nodes bisimilar, numbered from the root 0.

from_nodes hash-conses the nodes that reach no cycle and refines the
rest with Hopcroft's algorithm over the one graph; replace copies the
whole term, hash-conses the nodes it adds against the term's own and
renumbers the result; redexes matches each node of one flat tuple once.
Bindings name node numbers of the matched tuple.  product is the graph
that distance solved on index pairs of two flat terms.

The readers of a store term by node number (children_of, label_of,
subterm_at_node, iter_positions) and the index versions of membership,
simple cycles, principal cycles, the principal cut, the depth-first walk
and to_text that itrsbench ran on RationalTerm.nodes before it walked
nodes are kept too: the readers for the tests, the rest as oracles of the
numbered outputs."""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from itrsbench.layers import PrincipalCut
from itrsbench.metrics import (
    ITER_BUDGET,
    Cycles,
    MemberVerdict,
    _positive_limit,
    compose,
    lazy_weight,
)
from itrsbench.terms import (
    _MU_NAMES,
    APP,
    PLACED,
    ROOT,
    VAR,
    TermError,
    _refine,
    bfs_path,
    node_numbers,
    sccs,
    variables,
)


def renumbered(nodes: Sequence, root: int) -> tuple:
    """The nodes reachable from root, renumbered as RationalTerm.nodes
    numbers them; the caller guarantees that no two are bisimilar."""
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
    return tuple(out)


def from_nodes(nodes: Sequence, root: int) -> tuple:
    """The canonical tuple rooted at node root of a raw node list."""
    mark: list = [None] * len(nodes)
    quotient: list = []
    table: dict = {}
    labels: dict = {}
    marks = mark.__getitem__
    stack = [root]
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
            if -1 in kids:
                labels[k] = (entry[1], kids)
                continue
            entry = (APP, entry[1], kids)
        m = table.get(entry)
        if m is None:
            m = table[entry] = len(quotient)
            quotient.append(entry)
        mark[k] = m
    if labels:
        cyclic = list(labels)
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
    return renumbered(quotient, mark[root])


def append_nodes(nodes: list, t: tuple, binding: Mapping[str, int] = {}) -> int:
    """Copy the tuple t onto the end of the raw node list nodes and return
    the index of the copy's root.  A variable that binding maps to an
    index of nodes stands for that node instead of itself."""
    offset = len(nodes)
    where = [
        binding.get(entry[1], offset + i) if entry[0] == VAR else offset + i
        for i, entry in enumerate(t)
    ]
    nodes.extend(
        entry if entry[0] == VAR else (APP, entry[1], tuple(where[c] for c in entry[2]))
        for entry in t
    )
    return where[0]


def node_at(t: tuple, p) -> Optional[int]:
    """The number of the node reached by following p from the root, or None."""
    idx = 0
    for i in p:
        entry = t[idx]
        if entry[0] != APP or not (1 <= i <= len(entry[2])):
            return None
        idx = entry[2][i - 1]
    return idx


def _finish_order(t: tuple) -> Optional[list]:
    """The nodes of t children first, or None when t has a cycle."""
    state = [0] * len(t)
    order: list[int] = []
    stack = [0]
    while stack:
        k = stack.pop()
        if k < 0:
            state[~k] = 2
            order.append(~k)
        elif state[k] == 1:
            return None
        elif state[k] == 0:
            state[k] = 1
            stack.append(~k)
            if t[k][0] == APP:
                stack.extend(reversed(t[k][2]))
    return order


def replace(t: tuple, p, u: tuple, binding: Mapping[str, int] = {}) -> tuple:
    """t with the subterm at p replaced by u; t itself when p is invalid.
    A variable of u that binding maps to a node of t stands for that node."""
    if node_at(t, p) is None:
        return t
    nodes = list(t)
    index = {entry: i for i, entry in enumerate(t)}
    added: dict = {}

    def cons(entry) -> int:
        k = index.get(entry)
        if k is None:
            k = added.get(entry)
            if k is None:
                k = added[entry] = len(nodes)
                nodes.append(entry)
        return k

    order = _finish_order(u)
    if order is None:
        new = append_nodes(nodes, u, binding)
    else:
        where = [0] * len(u)
        for i in order:
            entry = u[i]
            if entry[0] == VAR:
                k = binding.get(entry[1])
                where[i] = cons(entry) if k is None else k
            else:
                where[i] = cons((APP, entry[1], tuple(where[c] for c in entry[2])))
        new = where[0]
    spine = [0]
    for i in p[:-1]:
        spine.append(t[spine[-1]][2][i - 1])
    for idx, i in zip(reversed(spine), reversed(p)):
        entry = t[idx]
        children = list(entry[2])
        children[i - 1] = new
        new = cons((APP, entry[1], tuple(children)))
    if order is None:
        return from_nodes(nodes, new)
    return t if new == 0 else renumbered(nodes, new)


def match_at(lhs, t: tuple, root: int) -> Optional[dict[str, int]]:
    """The compiled match of the rule term lhs at node root of t, whose
    label the caller has checked."""
    size, edges, leaves = lhs._pattern
    image = [root] * size
    for a, i, b, label in edges:
        c = t[image[a]][2][i]
        if label is PLACED:
            if image[b] != c:
                return None
            continue
        if label is not None:
            entry = t[c]
            if entry[0] != APP or entry[1] != label[0] or len(entry[2]) != label[1]:
                return None
        image[b] = c
    return {x: image[b] for b, x in leaves}


def redexes(system, t: tuple, depth_bound: int) -> list[tuple]:
    """(position, rule, binding) of every redex with position length <=
    depth_bound, outermost first, then left to right, then in rule order."""
    out = []
    hits_at: list = [None] * len(t)
    queue = [(ROOT, 0)]
    for p, idx in queue:
        entry = t[idx]
        if entry[0] != APP:
            continue
        hits = hits_at[idx]
        if hits is None:
            hits = hits_at[idx] = [
                (rule, sigma)
                for rule in system._by_root_label.get((entry[1], len(entry[2])), ())
                if (sigma := match_at(rule.lhs, t, idx)) is not None
            ]
        for rule, sigma in hits:
            out.append((p, rule, sigma))
        if len(p) < depth_bound:
            for i, c in enumerate(entry[2], 1):
                queue.append((p + (i,), c))
    return out


def product(m, t: tuple, u: tuple):
    """The product graph of the flat terms t and u under the metric m,
    rooted at (0, 0), as distance walked it before it walked pairs of
    store nodes: the clash test on index pairs, and the edges of a pair to
    its paired children (none from a clash), each under the component of
    its argument.  A pair of one node twice is entered too."""

    def label(nodes: tuple, k: int):
        entry = nodes[k]
        return (VAR, entry[1]) if entry[0] == VAR else (entry[1], len(entry[2]))

    def clash(pair) -> bool:
        return label(t, pair[0]) != label(u, pair[1])

    def edges(pair):
        a, b = pair
        if clash(pair) or t[a][0] == VAR:
            return ()
        return [
            (m.component(t[a][1], i), nxt)
            for i, nxt in enumerate(zip(t[a][2], u[b][2]), start=1)
        ]

    return clash, edges


# --- a store term read by node number --------------------------------------


def children_of(t, idx: int) -> tuple:
    """The children of node idx of t.nodes."""
    entry = t.nodes[idx]
    return entry[2] if entry[0] == APP else ()


def label_of(t, idx: int):
    """The label of node idx of t.nodes."""
    entry = t.nodes[idx]
    return (VAR, entry[1]) if entry[0] == VAR else (entry[1], len(entry[2]))


def subterm_at_node(t, idx: int):
    """The store node numbered idx in t.nodes."""
    return list(node_numbers(t))[idx]


def iter_positions(t, depth_bound: int) -> Iterator[tuple]:
    """Breadth-first (position, node number) pairs up to the depth bound."""
    queue = [(ROOT, 0)]
    for p, idx in queue:  # queue grows while it is walked
        yield p, idx
        if len(p) < depth_bound:
            queue.extend((p + (i,), c) for i, c in enumerate(children_of(t, idx), 1))


def walk(t):
    """One depth-first walk of t.nodes from the root, children in order:
    the finish order of a finite term, or else the targets of the back
    edges, as a frozenset."""
    nodes = t.nodes
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


# --- the numbered outputs, by node number -----------------------------------


def simple_cycles(t) -> Cycles:
    """The simple cycles of t.nodes as edge lists (node number, arg)."""
    cycles = Cycles()
    seen_keys: set = set()
    for start in range(len(t.nodes)):
        on_path = {start}
        path: list = []
        stack = [(start, enumerate(children_of(t, start), start=1))]
        while stack:
            idx, kids = stack[-1]
            for i, child in kids:
                if child == start:
                    cycle = path + [(idx, i)]
                    nodes_key = frozenset(cycle)
                    if nodes_key not in seen_keys:
                        if len(cycles) == ITER_BUDGET:
                            cycles.truncated = (
                                f"cycle enumeration cap of {ITER_BUDGET} cycles exceeded"
                            )
                            return cycles
                        seen_keys.add(nodes_key)
                        cycles.append(cycle)
                elif child > start and child not in on_path:
                    on_path.add(child)
                    path.append((idx, i))
                    stack.append((child, enumerate(children_of(t, child), start=1)))
                    break
            else:
                stack.pop()
                on_path.discard(idx)
                if path:
                    path.pop()
    return cycles


def cycle_component(m, t, cycle):
    return compose(*[m.component(t.nodes[idx][1], i) for idx, i in cycle])


def is_member(m, t) -> MemberVerdict:
    """itrsbench.metrics.is_member over node numbers."""
    m.check_term(t)
    if t.is_finite:
        return MemberVerdict("member", detail="finite term")
    if m.is_granular:

        def strict(idx):
            return [
                ((idx, i), child)
                for i, child in enumerate(children_of(t, idx), start=1)
                if lazy_weight(m.component(t.nodes[idx][1], i)) == 0
            ]

        for comp in sccs(range(len(t.nodes)), lambda idx: [k for _e, k in strict(idx)]):
            members = set(comp)
            cycle = bfs_path(
                comp[0], comp[0], lambda idx: [(e, k) for e, k in strict(idx) if k in members]
            )
            if cycle:
                return MemberVerdict("non_member", tuple(cycle), "cycle with no lazy edge")
        return MemberVerdict("member", detail="every cycle has a lazy edge")
    cycles = simple_cycles(t)
    if cycles.truncated:
        return MemberVerdict("unknown", detail=cycles.truncated)
    for cycle in cycles:
        limit = _positive_limit(cycle_component(m, t, cycle))
        if limit:
            return MemberVerdict("non_member", tuple(cycle), limit)
    return MemberVerdict("member", detail=f"{len(cycles)} contracting cycles")


def node_color(t, idx: int, coloring) -> Optional[int]:
    """The color of node idx; variables are colorless (None)."""
    entry = t.nodes[idx]
    return None if entry[0] == VAR else coloring[entry[1]]


def principal_cycles(t, coloring, m=None) -> Cycles:
    """itrsbench.layers.principal_cycles over node numbers."""
    cycles = simple_cycles(t)
    out = Cycles(truncated=cycles.truncated)
    for cycle in cycles:
        if len({node_color(t, idx, coloring) for idx, _arg in cycle}) == 1:
            continue
        entry = {"cycle": cycle, "length": len(cycle)}
        if m is not None:
            entry["component"] = cycle_component(m, t, cycle)
        out.append(entry)
    return out


def ppos(t, coloring) -> PrincipalCut:
    """The principal cut in one walk of the top layer, its edges a
    frozenset of (node number, arg)."""
    if t.is_var:
        raise TermError("a variable has no layers")
    root_color = coloring[t.root_symbol]
    edges = set()
    top = {0}
    stack = [0]
    while stack:
        idx = stack.pop()
        for arg, child in enumerate(t.nodes[idx][2]):
            color = node_color(t, child, coloring)
            if color == root_color and child not in top:
                top.add(child)
                stack.append(child)
            elif color not in (None, root_color):
                edges.add((idx, arg))
    return PrincipalCut(t, root_color, frozenset(edges))


def to_text(t, loops=None) -> str:
    """Canonical mu-binder syntax, the binders at loops, by default the
    back-edge targets of walk."""
    used = variables(t)
    names: dict[int, str] = {}
    if loops is None and not t.is_finite:
        loops = walk(t)
    for idx in sorted(loops or ()):
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
