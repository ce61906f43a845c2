"""The whole-graph sweep that itrsbench.metrics._fixpoint used before it
solved one strongly connected component at a time, kept as the test
oracle for it: one DFS collects the nodes in postorder and notes whether
the graph has a cycle, a backward pass from the nonzero leaves marks the
nodes that reach one (every other node is 0), and the rest start at 1
and are swept together, children first, until a sweep changes nothing.
Every sweep visits every node, so a node on no cycle is recomputed for as
long as any cycle below or beside it is still settling."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Optional, Sequence

from itrsbench.metrics import ITER_BUDGET, TOL, Component, Number


def sweep_fixpoint(
    root: Hashable,
    edges: Callable[[Hashable], Sequence[tuple[Component, Hashable]]],
    leaf: Callable[[Hashable], Number],
) -> Number:
    """Value at root of the greatest solution of v(n) = leaf(n) at nodes
    without edges and v(n) = max(c(v(k)) for c, k in edges(n)) elsewhere.

    The values stay exact until a sweep changes nothing; a value that
    changes while its float image does not, or 4 sweeps per swept node
    plus 64, move them all to floats, swept until the largest change is
    below TOL.
    """
    succ = {root: edges(root)}
    parents: dict[Hashable, list] = {}
    order = []  # postorder: a node after the nodes it reaches, cycles aside
    on_stack, cyclic = {root}, False
    stack = [(root, iter(succ[root]))]
    while stack:
        node, todo = stack[-1]
        for _comp, kid in todo:
            parents.setdefault(kid, []).append(node)
            if kid not in succ:
                succ[kid] = edges(kid)
                on_stack.add(kid)
                stack.append((kid, iter(succ[kid])))
                break
            cyclic = cyclic or kid in on_stack
        else:
            stack.pop()
            on_stack.discard(node)
            order.append(node)
    value = {n: leaf(n) for n in order if not succ[n]}
    live = {n for n, v in value.items() if v}
    stack = list(live)
    while stack:
        for node in parents.get(stack.pop(), ()):
            if node not in live:
                live.add(node)
                stack.append(node)
    if root not in live:
        return Fraction(0)
    inner = [n for n in order if succ[n] and n in live]
    for n in inner:
        value[n] = Fraction(1)
        succ[n] = [(c, k) for c, k in succ[n] if k in live]
    limit: Optional[int] = 4 * len(inner) + 64  # exact sweeps; None once floats
    sweeps = 0
    while True:
        sweeps += 1
        changed = blurred = False
        delta = 0.0
        for n in inner:
            new = max(c(value[k]) for c, k in succ[n])
            if new != value[n]:
                step = abs(float(new) - float(value[n]))
                changed, blurred, delta = True, blurred or not step, max(delta, step)
                value[n] = new
        if not (changed and cyclic) or (limit is None and (delta < TOL or sweeps >= ITER_BUDGET)):
            return value[root]
        if limit is not None and (blurred or sweeps >= limit):
            value = {n: float(v) for n, v in value.items()}
            limit, sweeps = None, 0
