"""The hand-written term walks that itrsbench.convergence and
itrsbench.layers replaced, kept as test oracles: the knot that copies a
spine node by node, the principal cut found by walking the top layer
twice, principal positions found by re-walking every position up to the
bound from the root, the cutoff that recurses once per layer (so it
raises RecursionError past about 1000 layers), the sliding diameter
that measures every pair of every window afresh, the predicates Fp and
Kt that walk the principal cuts and search again on every call, and the
two walks of a term that one depth-first walk replaced: a Tarjan pass for
the children-first order of a finite term, and a second depth-first walk
for the nodes that to_text binds."""

from __future__ import annotations

from dataclasses import dataclass

from itrsbench import layers
from itrsbench.convergence import REACH_DEPTH
from itrsbench.layers import PrincipalCut, toplayer_fill
from itrsbench.metrics import distance
from itrsbench.rewriting import DEFAULT_WEAK_BUDGET, weak_reach_path
import flat_terms
from flat_terms import children_of, iter_positions, node_at, node_color
from itrsbench.terms import TermError, from_nodes, sccs, subterm


def knot(t, p, q):
    """The subterm of t at p, with the (relative) position q redirected
    back to its own root."""
    base = node_at(t.nodes, p)
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


def top_layer_nodes(t, coloring):
    """Root-color application nodes reachable without crossing a boundary."""
    root_color = node_color(t, 0, coloring)
    top = set()
    stack = [0]
    while stack:
        idx = stack.pop()
        if idx in top or node_color(t, idx, coloring) != root_color:
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
            color = node_color(t, child, coloring)
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
        cut = layers.ppos(term, coloring)
        xi = {edge: go(edge[0].args[edge[1]], depth - 1) for edge in cut.edges}
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


@dataclass
class Fp:
    """True of terms that weakly reduce to a later principal-p subterm:
    every call walks the principal cut of each later trace term and
    searches again."""

    position: tuple
    trace: object
    system: object
    coloring: dict
    budget: int = DEFAULT_WEAK_BUDGET

    def __call__(self, beta, term):
        for gamma, t in self.trace.indexed_terms():
            if gamma < beta:
                continue
            if self.position not in cut_positions(ppos(t, self.coloring), len(self.position)):
                continue
            if weak_reach_path(self.system, term, subterm(t, self.position),
                               budget=self.budget, depth_bound=REACH_DEPTH) is not None:
                return True
        return False


@dataclass
class Kt:
    """True of terms that are not weak reducts of the anchor term; every
    call searches again."""

    anchor: object
    system: object
    budget: int = DEFAULT_WEAK_BUDGET

    def __call__(self, beta, term):
        return weak_reach_path(self.system, self.anchor, term, budget=self.budget,
                               depth_bound=REACH_DEPTH) is None


def postorder(t):
    """The nodes of t, each after its children; None when t is cyclic."""
    comps = sccs([0], lambda idx: children_of(t, idx))
    if any(len(comp) > 1 or comp[0] in children_of(t, comp[0]) for comp in comps):
        return None
    return tuple(comp[0] for comp in comps)


def loop_nodes(t):
    """Nodes that some path re-enters (need a mu binder when printing)."""
    loops = set()
    on_path = {0}
    done = set()
    work = [(0, iter(children_of(t, 0)))]
    while work:
        idx, it = work[-1]
        for child in it:
            if child in on_path:
                loops.add(child)
            elif child not in done:
                on_path.add(child)
                work.append((child, iter(children_of(t, child))))
                break
        else:
            work.pop()
            on_path.remove(idx)
            done.add(idx)
    return loops


def to_text(t):
    """Canonical mu-binder syntax, with the binders at loop_nodes."""
    return flat_terms.to_text(t, loop_nodes(t))
