"""Layer structure of terms over a two-colored (union) signature: the
principal cut, top-layer filling and distance, rank, the cutoff
construction, principal cycles, and the granular step function."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .metrics import (
    Cycles,
    TermMetric,
    cycle_component,
    distance,
    lazy_weight,
    simple_cycles,
)
from .terms import (
    APP,
    VAR,
    Position,
    RationalTerm,
    TermError,
    append_nodes,
    from_nodes,
    iter_positions,
    node_at,
    sccs,
    subterm_at_node,
    var,
    variables,
)

Coloring = Mapping[str, int]
FILL_VAR_BASE = "hole"


def _node_color(t: RationalTerm, idx: int, coloring: Coloring) -> Optional[int]:
    """Color of a graph node; variables are colorless (None)."""
    entry = t.nodes[idx]
    if entry[0] == VAR:
        return None
    return coloring[entry[1]]


@dataclass(frozen=True)
class PrincipalCut:
    """The first color-crossing edges of a term graph.

    Edges are (node index, argument index); the node is in the top layer
    (same color as the root) and the child is an application node of the
    other color.
    """

    term: RationalTerm
    root_color: int
    edges: frozenset  # of (node_idx, arg_idx)

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def positions(self, depth_bound: int) -> set[Position]:
        """Explicit principal positions with length <= depth_bound.

        A position is principal when its last edge is a cut edge and no
        earlier edge along it is (the first crossing along any branch is
        always a cut edge).
        """
        out = set()
        for p, _idx in iter_positions(self.term, depth_bound):
            if not p:
                continue
            idx, hits = 0, []
            for i in p:
                hits.append((idx, i - 1) in self.edges)
                idx = self.term.nodes[idx][2][i - 1]
            if hits[-1] and not any(hits[:-1]):
                out.add(p)
        return out


def _top_layer_nodes(t: RationalTerm, coloring: Coloring) -> set[int]:
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


def ppos(t: RationalTerm, coloring: Coloring) -> PrincipalCut:
    """The principal cut: earliest edges into the other color."""
    if t.is_var:
        raise TermError("a variable has no layers")
    root_color = coloring[t.root_symbol]
    edges = set()
    for idx in _top_layer_nodes(t, coloring):
        for arg, child in enumerate(t.nodes[idx][2]):
            color = _node_color(t, child, coloring)
            if color is not None and color != root_color:
                edges.add((idx, arg))
    return PrincipalCut(t, root_color, frozenset(edges))


def cut_positions(t: RationalTerm, coloring: Coloring, depth_bound: int) -> set[Position]:
    return ppos(t, coloring).positions(depth_bound)


Fill = Union[RationalTerm, Mapping[tuple, RationalTerm]]


def toplayer_fill(t: RationalTerm, cut: PrincipalCut, xi: Fill) -> RationalTerm:
    """Replace the subterm behind every cut edge by its fill.

    xi is either one term used everywhere or a map from cut edges to
    terms.  Positions above and parallel to the cut are untouched.
    """
    if cut.term != t:
        raise TermError("cut was computed for a different term")
    if cut.is_empty:
        return t
    if isinstance(xi, RationalTerm):
        xi = {edge: xi for edge in cut.edges}
    if set(xi) != set(cut.edges):
        raise TermError("fill map must cover the cut exactly")

    nodes = list(t.nodes)
    fill_roots = {edge: append_nodes(nodes, xi[edge]) for edge in sorted(cut.edges)}
    for idx, arg in cut.edges:
        entry = nodes[idx]
        children = list(entry[2])
        children[arg] = fill_roots[(idx, arg)]
        nodes[idx] = (APP, entry[1], tuple(children))
    return from_nodes(tuple(nodes), 0)


def _fresh_fill_var(*terms: RationalTerm) -> RationalTerm:
    used = set()
    for t in terms:
        used |= variables(t)
    name = FILL_VAR_BASE
    while name in used:
        name += "'"
    return var(name)


def toplayer_distance(
    m: TermMetric,
    coloring: Coloring,
    t: RationalTerm,
    u: RationalTerm,
):
    """Distance of the two top-layer skeletons, gaps filled with one
    shared fresh variable."""
    if t.is_var or u.is_var or coloring[t.root_symbol] != coloring[u.root_symbol]:
        raise TermError("top-layer distance needs equal root colors")
    hole = _fresh_fill_var(t, u)
    skel_t = toplayer_fill(t, ppos(t, coloring), hole)
    skel_u = toplayer_fill(u, ppos(u, coloring), hole)
    return distance(m, skel_t, skel_u)


# --- rank, principal cycles, cutoff ------------------------------------------


def principal_cycles(
    t: RationalTerm, coloring: Coloring, m: Optional[TermMetric] = None
) -> Cycles:
    """Simple cycles of the term graph that cross a color boundary, each
    with its composed ultra-metric component when a metric is given.
    Only the cycles within the enumeration cap are looked at; the
    result's truncated field says when that cut the list short."""
    cycles = simple_cycles(t)
    out = Cycles(truncated=cycles.truncated)
    for cycle in cycles:
        colors = {_node_color(t, idx, coloring) for idx, _arg in cycle}
        if len(colors) == 1:
            continue
        entry = {"cycle": cycle, "length": len(cycle)}
        if m is not None:
            entry["component"] = cycle_component(m, t, cycle)
        out.append(entry)
    return out


def rank(t: RationalTerm, coloring: Coloring):
    """Nesting depth of alternating layers: the most color changes between
    application nodes along a path; math.inf when a cycle crosses colors.
    A component with no crossing edge inside takes the best edge out."""
    value: dict[int, int] = {}
    for comp in sccs([0], t.children_of):
        members = set(comp)
        best = 0
        for idx in comp:
            color = _node_color(t, idx, coloring)
            for child in t.children_of(idx):
                changes = _node_color(t, child, coloring) not in (None, color)
                if child not in members:
                    best = max(best, value[child] + changes)
                elif changes:
                    return math.inf
        for idx in comp:
            value[idx] = best
    return value[0]


def cutoff(
    t: RationalTerm, n: int, u: RationalTerm, coloring: Coloring
) -> RationalTerm:
    """Keep the outermost n layers of t, replacing everything deeper by u."""
    memo: dict = {}

    def go(term: RationalTerm, depth: int) -> RationalTerm:
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


# --- step function and trace-level principal positions ------------------------


def step_fn(
    g: TermMetric, t: RationalTerm, path: Sequence[Position], n: int
) -> int:
    """Lazy edges crossed among the first n steps of a position chain."""
    if not g.is_granular:
        raise TermError("step function is defined for granular metrics")
    if n >= len(path):
        raise TermError("chain too short for the requested step count")
    count = 0
    for k in range(n):
        p, q = path[k], path[k + 1]
        if len(q) != len(p) + 1 or q[: len(p)] != p:
            raise TermError(f"not a chain at step {k}: {p} then {q}")
        if node_at(t, q) is None:
            raise TermError(f"chain leaves the term at {q}")
        comp = g.component(t.nodes[node_at(t, p)][1], q[-1])
        if lazy_weight(comp) > 0:
            count += 1
    return count


def trace_ppos(
    terms: Sequence[RationalTerm], coloring: Coloring, depth_bound: int
) -> set[Position]:
    """Positions principal in every recorded term from some index on.

    That is the union over i of the intersection of the cut positions of
    terms i, i+1, ..., last.  The intersections are nested, each inside
    the next, so the union is the last one: the last term's cut positions.
    """
    if not terms:
        raise TermError("empty trace")
    return cut_positions(terms[-1], coloring, depth_bound)
