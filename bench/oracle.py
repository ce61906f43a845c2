"""Expected answers for the metric workload, computed without itrsbench.

Every component used by the benchmark's metrics maps a power of two to a
power of two, so a value 2^-e is kept as the integer e (value 0 is None).
Terms are the benchmark's own generated structures, never itrsbench
output:

- Word: a unary term, either a lasso (prefix, then a cycle repeated for
  ever) or a finite chain ending in a leaf (a nullary symbol or a
  variable);
- Graph: a small branching term graph, node 0 the root, each node a
  (label, children) pair.

The metric tables below are copied by hand from the fixture sources.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


def _lazy(e):
    return e + 1


def _strict(e):
    return e


def _scale2(e):  # x -> min(1, 2x)
    return max(e - 1, 0)


def _pow2(e):  # x -> x^2
    return 2 * e


def _cap_half(e):  # x -> min(x, 1/2)
    return max(e, 1)


COMPONENTS = {
    "lazy": _lazy,
    "strict": _strict,
    "scale2": _scale2,
    "pow2": _pow2,
    "cap_half": _cap_half,
}

# symbol -> one component name per argument
INFTY = {"A": ("lazy",), "B": ("lazy",), "C": ("lazy",), "S": ("lazy",),
         "E": ("lazy",), "nil": ()}                       # string fixture
EXA = {"F": ("lazy",), "G": ("lazy",), "H": ("scale2",)}  # exa-layers union
EXA2 = {"F": ("pow2",), "G": ("strict",), "H": ("cap_half",)}  # exa-layers2 union
LTREE = {"Bin": ("lazy", "strict", "strict"), "Null": (), "N": ()}
COLOURS = {"F": 0, "G": 0, "H": 1}  # both exa unions: r-symbols 0, s-symbols 1


def _weight(metric, label, i) -> int:
    comp = metric[label][i]
    if comp not in ("lazy", "strict"):
        raise ValueError(f"{label} argument {i + 1} is not granular")
    return 1 if comp == "lazy" else 0


def matches_exact(got, e: Optional[int]) -> bool:
    """Is got exactly 2^-e (0 for None)?  Avoids building 2^e for huge e."""
    if not isinstance(got, Fraction):
        return False
    if e is None:
        return got == 0
    den = got.denominator
    return got.numerator == 1 and den.bit_length() == e + 1 and den & (den - 1) == 0


def close(got: float, e: Optional[int], tol: float) -> bool:
    want = 0.0 if e is None or e > 1100 else 2.0 ** -e
    return abs(float(got) - want) <= tol


# --- unary terms ----------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    prefix: tuple
    cycle: tuple = ()
    leaf: Optional[str] = None  # end of a finite word

    def symbol(self, i: int) -> Optional[str]:
        if i < len(self.prefix):
            return self.prefix[i]
        if self.cycle:
            return self.cycle[(i - len(self.prefix)) % len(self.cycle)]
        return self.leaf if i == len(self.prefix) else None

    def text(self) -> str:
        core = "X" if self.cycle else self.leaf
        if self.cycle:
            core = "mu X. " + _wrap(self.cycle, core)
        return _wrap(self.prefix, core)


def _wrap(symbols, core: str) -> str:
    return "".join(f"{s}(" for s in symbols) + core + ")" * len(symbols)


def word_distance(metric, t: Word, u: Word) -> Optional[int]:
    """Compose the components along the path to the first clash."""
    span = max(len(t.prefix), len(u.prefix)) + math.lcm(
        len(t.cycle) or 1, len(u.cycle) or 1
    ) + 1
    for i in range(span):
        a, b = t.symbol(i), u.symbol(i)
        if a != b:
            e = 0
            for k in range(i - 1, -1, -1):
                e = COMPONENTS[metric[t.symbol(k)][0]](e)
            return e
        if a is None:
            return None
    return None


def _cycle_map(metric, cycle):
    def go(e):
        for s in reversed(cycle):
            e = COMPONENTS[metric[s][0]](e)
        return e

    return go


def word_member(metric, w: Word) -> bool:
    """A lasso is a member iff iterating its cycle drives the value to 0."""
    if not w.cycle:
        return True
    step = _cycle_map(metric, w.cycle)
    e = 0
    while True:
        nxt = step(e)
        if nxt == e:
            return False
        # past len(cycle) no floor binds inside one pass, so the map is
        # affine with slope >= 1 and an increase repeats for ever
        if e > len(w.cycle) + 1 and nxt > e:
            return True
        e = nxt


def word_vdepth(metric, w: Word, x: str) -> Optional[int]:
    """[[w]] at y = 1 for the variable x, on a finite word."""
    if w.cycle:
        raise ValueError("vdepth oracle takes finite words")
    if w.leaf != x:
        return None
    e = 0
    for s in reversed(w.prefix):
        e = COMPONENTS[metric[s][0]](e)
    return e


def word_rank(w: Word):
    """Alternations of colour along the word; infinite on a mixed cycle."""
    if w.cycle and len({COLOURS[s] for s in w.cycle}) > 1:
        return math.inf
    path = list(w.prefix) + list(w.cycle[:1]) + ([w.leaf] if w.leaf else [])
    return sum(COLOURS[a] != COLOURS[b] for a, b in zip(path, path[1:]))


def word_epos(metric, w: Word, k: int):
    """Number of positions with value >= 2^-k; None when infinite."""
    if w.cycle and not any(_weight(metric, s, 0) for s in w.cycle):
        return None
    count, e, i = 0, 0, 0
    while e <= k and w.symbol(i) is not None:
        count += 1
        s = w.symbol(i)
        if not metric[s]:
            break
        e += _weight(metric, s, 0)
        i += 1
    return count


# --- branching term graphs --------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    nodes: tuple  # (label, (child, ...)); a label not in the metric is a variable

    def text(self) -> str:
        targets = {c for i, (_l, cs) in enumerate(self.nodes) for c in cs if c <= i}
        names = {v: f"X{v}" for v in targets}

        def render(v: int, open_: frozenset) -> str:
            if v in open_:
                return names[v]
            label, children = self.nodes[v]
            inner = open_ | {v} if v in names else open_
            body = label
            if children:
                body += "(" + ", ".join(render(c, inner) for c in children) + ")"
            return f"mu {names[v]}. {body}" if v in names else body

        return render(0, frozenset())


def graph_distance(metric, t: Graph, u: Graph) -> Optional[int]:
    """0-1 BFS over the product graph to the cheapest label clash."""
    best = {(0, 0): 0}
    queue = deque([(0, 0, 0)])
    while queue:
        w, a, b = queue.popleft()
        if w > best[(a, b)]:
            continue
        (la, ca), (lb, cb) = t.nodes[a], u.nodes[b]
        if la != lb or len(ca) != len(cb):
            return w
        for i, pair in enumerate(zip(ca, cb)):
            step = _weight(metric, la, i)
            if w + step < best.get(pair, w + step + 1):
                best[pair] = w + step
                (queue.append if step else queue.appendleft)((w + step, *pair))
    return None


def _min_weights(metric, g: Graph) -> dict:
    best = {0: 0}
    queue = deque([(0, 0)])
    while queue:
        w, v = queue.popleft()
        if w > best[v]:
            continue
        label, children = g.nodes[v]
        for i, c in enumerate(children):
            step = _weight(metric, label, i)
            if w + step < best.get(c, w + step + 1):
                best[c] = w + step
                (queue.append if step else queue.appendleft)((w + step, c))
    return best


def _on_strict_cycle(metric, g: Graph, v: int) -> bool:
    seen, stack = set(), [v]
    while stack:
        x = stack.pop()
        label, children = g.nodes[x]
        for i, c in enumerate(children):
            if _weight(metric, label, i):
                continue
            if c == v:
                return True
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def graph_member(metric, g: Graph) -> bool:
    """Granular membership: no reachable cycle made of strict edges only."""
    return not any(_on_strict_cycle(metric, g, v) for v in _min_weights(metric, g))


def graph_vdepth(metric, g: Graph, x: str) -> Optional[int]:
    """Cheapest lazy count to an occurrence of x (granular metrics)."""
    weights = _min_weights(metric, g)
    hits = [w for v, w in weights.items() if g.nodes[v][0] == x]
    return min(hits) if hits else None


def graph_epos(metric, g: Graph, k: int):
    """Number of positions with value >= 2^-k; None when infinite."""
    weights = _min_weights(metric, g)
    if any(w <= k and _on_strict_cycle(metric, g, v) for v, w in weights.items()):
        return None
    memo: dict = {}

    def count(v: int, e: int) -> int:
        if (v, e) not in memo:
            label, children = g.nodes[v]
            memo[(v, e)] = 1 + sum(
                count(c, e + _weight(metric, label, i))
                for i, c in enumerate(children)
                if e + _weight(metric, label, i) <= k
            )
        return memo[(v, e)]

    return count(0, 0)


# --- reading itrsbench terms -----------------------------------------------------


def unfold(nodes: tuple, depth: int, idx: int = 0):
    """A nested-tuple view of a term's node table down to a depth, for
    comparing a finite result with a hand-built expectation."""
    entry = nodes[idx]
    if entry[0] == "var":
        return entry[1]
    if depth == 0:
        return (entry[1], "...")
    return (entry[1],) + tuple(unfold(nodes, depth - 1, c) for c in entry[2])


def as_word(nodes: tuple) -> Optional[Word]:
    """The Word a unary term's node table spells, or None if it branches."""
    seen: dict = {}
    symbols = []
    idx = 0
    while idx not in seen:
        entry = nodes[idx]
        if entry[0] == "var" or not entry[2]:
            return Word(tuple(symbols), (), entry[1])
        if len(entry[2]) != 1:
            return None
        seen[idx] = len(symbols)
        symbols.append(entry[1])
        idx = entry[2][0]
    start = seen[idx]
    return Word(tuple(symbols[:start]), tuple(symbols[start:]))
