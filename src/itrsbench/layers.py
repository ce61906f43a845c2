"""Layer structure of terms over a two-colored (union) signature: the
principal cut, top-layer filling and distance, rank, the cutoff
construction, principal cycles, and the granular step function."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .metrics import (
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
    Signature,
    TermError,
    _canonical,
    iter_positions,
    subterm_at_node,
    var,
    variables,
)

Coloring = Mapping[str, int]
FILL_VAR_BASE = "hole"


@dataclass(frozen=True)
class LayeredSignature:
    sig: Signature
    coloring: Coloring

    def __post_init__(self):
        missing = set(self.sig.symbols) - set(self.coloring)
        if missing:
            raise TermError(f"coloring not total: {sorted(missing)}")

    def color(self, symbol: str) -> int:
        return self.coloring[symbol]


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

    def targets(self) -> list[int]:
        return sorted({self.term.nodes[i][2][a] for i, a in self.edges})

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


def _node_at_prefix(t: RationalTerm, p: Position) -> int:
    idx = 0
    for i in p:
        idx = t.nodes[idx][2][i - 1]
    return idx


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
    fill_roots = {}
    for edge in sorted(cut.edges):
        offset = len(nodes)
        nodes.extend(
            (entry[0], entry[1], tuple(c + offset for c in entry[2]))
            if entry[0] == APP
            else entry
            for entry in xi[edge].nodes
        )
        fill_roots[edge] = offset
    for idx, arg in cut.edges:
        entry = nodes[idx]
        children = list(entry[2])
        children[arg] = fill_roots[(idx, arg)]
        nodes[idx] = (APP, entry[1], tuple(children))
    return _canonical(tuple(nodes), 0)


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
    tol: float = 1e-9,
):
    """Distance of the two top-layer skeletons, gaps filled with one
    shared fresh variable."""
    if t.is_var or u.is_var or coloring[t.root_symbol] != coloring[u.root_symbol]:
        raise TermError("top-layer distance needs equal root colors")
    hole = _fresh_fill_var(t, u)
    skel_t = toplayer_fill(t, ppos(t, coloring), hole)
    skel_u = toplayer_fill(u, ppos(u, coloring), hole)
    return distance(m, skel_t, skel_u, tol=tol)


# --- rank, principal cycles, cutoff ------------------------------------------


def _crossing(t: RationalTerm, coloring: Coloring, cycle) -> bool:
    for idx, arg in cycle:  # arg is 1-based, matching cycle edge lists
        child = t.nodes[idx][2][arg - 1]
        if _node_color(t, idx, coloring) != _node_color(t, child, coloring):
            return True
    return False


def principal_cycles(
    t: RationalTerm, coloring: Coloring, m: Optional[TermMetric] = None
) -> list[dict]:
    """Simple cycles of the term graph that cross a color boundary, each
    with its composed ultra-metric component when a metric is given."""
    out = []
    for cycle in simple_cycles(t):
        if not _crossing(t, coloring, cycle):
            continue
        entry = {"cycle": cycle, "length": len(cycle)}
        if m is not None:
            entry["component"] = cycle_component(m, t, cycle)
        out.append(entry)
    return out


def rank(t: RationalTerm, coloring: Coloring):
    """Nesting depth of alternating layers; math.inf when a color-crossing
    cycle is reachable."""
    memo: dict[RationalTerm, object] = {}

    def go(term: RationalTerm):
        if term.is_var:
            return 0
        if term in memo:
            return memo[term]
        if any(_crossing(term, coloring, c) for c in simple_cycles(term)):
            memo[term] = math.inf
            return math.inf
        cut = ppos(term, coloring)
        value = 0 if cut.is_empty else 1 + max(
            go(subterm_at_node(term, child)) for child in cut.targets()
        )
        memo[term] = value
        return value

    return go(t)


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
        idx = _node_at_prefix(t, p)
        entry = t.nodes[idx]
        if entry[0] != APP:
            raise TermError(f"chain leaves the term at {p}")
        comp = g.component(entry[1], q[-1])
        if lazy_weight(comp) > 0:
            count += 1
    return count


def trace_ppos(
    terms: Sequence[RationalTerm], coloring: Coloring, depth_bound: int
) -> set[Position]:
    """Positions principal in every recorded term from some index on."""
    if not terms:
        raise TermError("empty trace")
    per_term = [cut_positions(t, coloring, depth_bound) for t in terms]
    out: set[Position] = set()
    for start in range(len(per_term)):
        suffix = per_term[start]
        for s in per_term[start + 1 :]:
            suffix = suffix & s
        out |= suffix
    return out
