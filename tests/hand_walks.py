"""The hand-written term walks that itrsbench.convergence and
itrsbench.layers replaced, kept as test oracles: the knot that copies a
spine node by node, the principal cut found by walking the top layer
twice, principal positions found by re-walking every position up to the
bound from the root, the cutoff that recurses once per layer (so it
raises RecursionError past about 1000 layers), and the sliding diameter
that measures every pair of every window afresh."""

from __future__ import annotations

from itrsbench.layers import PrincipalCut, toplayer_fill
from itrsbench.metrics import distance
from itrsbench.terms import (
    VAR,
    TermError,
    from_nodes,
    iter_positions,
    node_at,
    subterm_at_node,
)


def knot(t, p, q):
    """The subterm of t at p, with the (relative) position q redirected
    back to its own root."""
    base = node_at(t, p)
    nodes = list(t.nodes)
    spine = [base]
    idx = base
    for i in q:
        idx = nodes[idx][2][i - 1]
        spine.append(idx)
    fresh = {}
    for k, orig in enumerate(spine[:-1]):
        entry = nodes[orig]
        fresh[k] = len(nodes)
        nodes.append(entry)
    fresh[len(spine) - 1] = fresh[0]  # the knot
    for k, orig in enumerate(spine[:-1]):
        entry = nodes[fresh[k]]
        children = list(entry[2])
        children[q[k] - 1] = fresh[k + 1]
        nodes[fresh[k]] = (entry[0], entry[1], tuple(children))
    return from_nodes(tuple(nodes), fresh[0])


def _node_color(t, idx, coloring):
    entry = t.nodes[idx]
    return None if entry[0] == VAR else coloring[entry[1]]


def top_layer_nodes(t, coloring):
    """Root-color application nodes reachable without crossing a boundary."""
    root_color = _node_color(t, 0, coloring)
    top = set()
    stack = [0]
    while stack:
        idx = stack.pop()
        if idx in top or _node_color(t, idx, coloring) != root_color:
            continue
        top.add(idx)
        stack.extend(t.nodes[idx][2])
    return top


def ppos(t, coloring):
    if t.is_var:
        raise TermError("a variable has no layers")
    root_color = coloring[t.root_symbol]
    edges = set()
    for idx in top_layer_nodes(t, coloring):
        for arg, child in enumerate(t.nodes[idx][2]):
            color = _node_color(t, child, coloring)
            if color is not None and color != root_color:
                edges.add((idx, arg))
    return PrincipalCut(t, root_color, frozenset(edges))


def cut_positions(cut, depth_bound):
    """Every position up to the bound whose last edge, and no earlier
    one, is a cut edge, each re-walked from the root."""
    out = set()
    for p, _idx in iter_positions(cut.term, depth_bound):
        if not p:
            continue
        idx, hits = 0, []
        for i in p:
            hits.append((idx, i - 1) in cut.edges)
            idx = cut.term.nodes[idx][2][i - 1]
        if hits[-1] and not any(hits[:-1]):
            out.add(p)
    return out


def cutoff(t, n, u, coloring):
    """The outermost n layers of t, everything deeper replaced by u: each
    cut edge's subterm is cut off one layer shallower, and filled in."""
    memo: dict = {}

    def go(term, depth):
        if depth == 0:
            return u
        if term.is_var:
            return term
        key = (term, depth)
        if key in memo:
            return memo[key]
        cut = ppos(term, coloring)
        xi = {
            edge: go(subterm_at_node(term, term.nodes[edge[0]][2][edge[1]]), depth - 1)
            for edge in cut.edges
        }
        result = toplayer_fill(term, cut, xi)
        memo[key] = result
        return result

    return go(t, n)


def sliding_diameter(m, tr, window):
    """The largest distance within each window of window consecutive terms."""
    terms = tr.all_terms()
    out = []
    for i in range(len(terms) - window + 1):
        chunk = terms[i : i + window]
        out.append(max(distance(m, a, b) for j, a in enumerate(chunk) for b in chunk[j + 1 :]))
    return out
