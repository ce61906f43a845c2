"""Layer structure of terms over a two-colored (union) signature: the
principal cut, top-layer filling and distance, rank, the cutoff
construction, principal cycles, and the granular step function."""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from .metrics import (
    Cycles,
    TermMetric,
    cycle_component,
    distance,
    lazy_weight,
    simple_cycles,
)
from .terms import (
    Position,
    RationalTerm,
    TermError,
    node_at,
    node_numbers,
    record,
    sccs,
    unfold,
    var,
    variables,
)

Coloring = Mapping[str, int]


@record(frozen=True)
class PrincipalCut:
    """The first color-crossing edges of a term graph.

    Edges are (node, argument index), in the order of ppos's walk; the
    node is in the top layer (same color as the root) and the child is an
    application node of the other color.
    """

    term: RationalTerm
    root_color: int
    edges: tuple  # of (node, arg_idx)

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def positions(self, depth_bound: int) -> set[Position]:
        """Explicit principal positions with length <= depth_bound.

        A position is principal when its last edge is a cut edge and no
        earlier edge along it is (the first crossing along any branch is
        always a cut edge).
        """
        cut = set(self.edges)
        out = set()
        stack: list[tuple[Position, RationalTerm]] = [((), self.term)]
        while stack:
            p, node = stack.pop()
            if len(p) >= depth_bound:
                continue
            for arg, child in enumerate(node.args or ()):
                if (node, arg) in cut:
                    out.add(p + (arg + 1,))
                else:
                    stack.append((p + (arg + 1,), child))
        return out


def ppos(t: RationalTerm, coloring: Coloring) -> PrincipalCut:
    """The principal cut: earliest edges into the other color, collected
    in one walk of the top layer (root-color application nodes reachable
    without crossing a boundary)."""
    if t.is_var:
        raise TermError("a variable has no layers")
    root_color = coloring[t.root_symbol]
    edges = []
    top = {t}
    stack = [t]
    while stack:
        node = stack.pop()
        for arg, child in enumerate(node.args):
            if child.args is None:
                continue
            if coloring[child.symbol] != root_color:
                edges.append((node, arg))
            elif child not in top:
                top.add(child)
                stack.append(child)
    return PrincipalCut(t, root_color, tuple(edges))


def cut_positions(t: RationalTerm, coloring: Coloring, depth_bound: int) -> set[Position]:
    return ppos(t, coloring).positions(depth_bound)


def toplayer_fill(
    t: RationalTerm, cut: PrincipalCut, xi: Mapping[tuple, RationalTerm]
) -> RationalTerm:
    """Replace the subterm behind every cut edge by its fill.

    xi maps each cut edge to its term, which may differ from edge to edge;
    one term behind every edge is cutoff(t, 1, term, coloring).  Positions
    above and parallel to the cut are untouched.
    """
    if cut.term != t:
        raise TermError("cut was computed for a different term")
    if cut.is_empty:
        return t
    if set(xi) != set(cut.edges):
        raise TermError("fill map must cover the cut exactly")

    def expand(state: tuple):  # a node of the top layer
        (node,) = state
        return node.symbol, [
            xi.get((node, arg), child if child.args is None else (child,))
            for arg, child in enumerate(node.args)
        ]

    return unfold((t,), expand)


def toplayer_distance(
    m: TermMetric,
    coloring: Coloring,
    t: RationalTerm,
    u: RationalTerm,
):
    """Distance of the two top-layer skeletons, the cutoffs at one layer
    with one shared fresh variable in every gap."""
    if t.is_var or u.is_var or coloring[t.root_symbol] != coloring[u.root_symbol]:
        raise TermError("top-layer distance needs equal root colors")
    # a name longer than every variable of t and u is neither's
    hole = var(max(variables(t) | variables(u), key=len, default="") + "'")
    return distance(m, cutoff(t, 1, hole, coloring), cutoff(u, 1, hole, coloring))


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
    number = node_numbers(t)
    for cycle in cycles:
        if len({coloring[node.symbol] for node, _arg in cycle}) == 1:
            continue
        entry = {"cycle": [(number[node], arg) for node, arg in cycle], "length": len(cycle)}
        if m is not None:
            entry["component"] = cycle_component(m, t, cycle)
        out.append(entry)
    return out


def rank(t: RationalTerm, coloring: Coloring):
    """Nesting depth of alternating layers: the most color changes between
    application nodes along a path; math.inf when a cycle crosses colors.
    A component with no crossing edge inside takes the best edge out."""
    value: dict = {}
    for comp in sccs([t], lambda node: node.args or ()):
        members = set(comp)
        best = 0
        for node in comp:
            color = None if node.args is None else coloring[node.symbol]
            for child in node.args or ():
                changes = child.args is not None and coloring[child.symbol] != color
                if child not in members:
                    best = max(best, value[child] + changes)
                elif changes:
                    return math.inf
        for node in comp:
            value[node] = best
    return value[t]


def cutoff(
    t: RationalTerm, n: int, u: RationalTerm, coloring: Coloring
) -> RationalTerm:
    """Keep the outermost n layers of t, replacing everything deeper by u.

    The unfolding of the states (store node of t, layers left).  The root
    starts with n layers left; an edge into an application node of the
    other color leaves one layer, any other edge keeps the count, a
    variable stays as it is, and u stands wherever no layer is left.
    """
    if n < 0:
        raise TermError("a negative number of layers")
    if n == 0:
        return u
    if t.args is None:
        return t

    def expand(state: tuple):
        node, left = state
        color = coloring[node.symbol]
        children: list = []
        for child in node.args:
            if child.args is not None:
                below = left - (coloring[child.symbol] != color)
                child = (child, below) if below else u
            children.append(child)
        return node.symbol, children

    return unfold((t, n), expand)


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
        comp = g.component(node_at(t, p).symbol, q[-1])
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
