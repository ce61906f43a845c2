"""The full-graph loop searches, kept as the test oracle for the layered
ones in itrsbench.convergence: build the whole reduction graph up to the
budget, then look for a witness once.  Also the per-position redex search
that itrsbench.rewriting.redexes replaced."""

from __future__ import annotations

from collections import deque
from typing import Optional

from itrsbench.convergence import LoopWitness
from itrsbench.metrics import distance
from itrsbench.rewriting import RedexOccurrence, match, rewrite_step, successors
from itrsbench.terms import bfs_path, sccs
from flat_terms import iter_positions


class FullGraph:
    def __init__(self, start, edges: dict, exhausted: bool):
        self.start = start
        self.edges = edges  # term -> list of (RedexOccurrence, term)
        self.exhausted = exhausted

    def path(self, target):
        if target == self.start:
            return []
        return self.steps(self.start, target)

    def steps(self, a, b):
        return bfs_path(a, b, lambda t: self.edges.get(t, ()))

    def components(self):
        return sccs(self.edges, lambda t: [u for _o, u in self.edges[t] if u in self.edges])


def full_reduction_graph(system, t0, budget=50_000, depth_bound=8) -> FullGraph:
    edges: dict = {}
    queue = deque([t0])
    seen = {t0}
    exhausted = False
    while queue:
        if len(edges) >= budget:
            exhausted = True
            break
        t = queue.popleft()
        out = successors(system, t, depth_bound)
        edges[t] = out
        for _occ, u in out:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return FullGraph(t0, edges, exhausted)


def _cycle_through(graph, base, via):
    first = graph.steps(base, via)
    second = graph.steps(via, base)
    if first is None or second is None:
        return None
    return first + second


def _distinct_on_cycle(system, base, cycle):
    t = base
    for occ in cycle:
        t = rewrite_step(system, t, occ)
        if t != base:
            return t, distance(system.metric, base, t)
    return None


def loop_in(system, graph: FullGraph) -> Optional[LoopWitness]:
    """The loop witness of the whole explored graph."""
    t0 = graph.start
    components = graph.components()
    components.sort(key=lambda comp: (t0 not in comp, min(map(str, comp))))
    for comp in components:
        if len(comp) < 2:
            continue
        base = t0 if t0 in comp else min(comp, key=str)
        prefix = graph.path(base)
        if prefix is None:
            continue
        cycle = graph.steps(base, base)
        witness = cycle and _distinct_on_cycle(system, base, cycle)
        if witness is not None:
            other, sep = witness
            return LoopWitness(t0, tuple(prefix), tuple(cycle), base, other, sep)
        for other in sorted(comp, key=str):
            if other == base:
                continue
            cycle = _cycle_through(graph, base, other)
            if cycle is None:
                continue
            sep = distance(system.metric, base, other)
            return LoopWitness(t0, tuple(prefix), tuple(cycle), base, other, sep)
    return None


def root_recurrence_in(graph: FullGraph) -> Optional[LoopWitness]:
    """The root-step cycle of the whole explored graph."""
    for comp in graph.components():
        members = set(comp)
        for t in comp:
            for occ, u in graph.edges.get(t, ()):
                if occ.position != () or u not in members:
                    continue
                back = [] if u == t else graph.steps(u, t)
                if back is None:
                    continue
                prefix = graph.path(t)
                if prefix is None:
                    continue
                return LoopWitness(graph.start, tuple(prefix), (occ, *back), t, u, None)
    return None


def naive_redexes(system, t, depth_bound):
    """Every rule matched at every position, then sorted outermost-first."""
    out = []
    for p, _idx in iter_positions(t, depth_bound):
        for rule in system.rules:
            sigma = match(rule.lhs, t, p)
            if sigma is not None:
                out.append(RedexOccurrence(p, rule, sigma))
    out.sort(key=lambda occ: (len(occ.position), occ.position))
    return out
