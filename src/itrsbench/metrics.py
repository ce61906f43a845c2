"""Term metrics built from a closed set of unary component constructors.

A term metric assigns each function symbol one monotone component per
argument; the induced n-ary map is the max of the components applied
argument-wise.  Distances between rational terms are read off the
product graph on pairs of store nodes, which never enters a pair of one
node twice (that pair is 0), and variable depths off the nodes of the
term; both are split the same way.  On granular metrics each is a
lightest path, 2^-k times the value at its end, k the fewest lazy edges
on a path to a clash pair (at 1) or to an occurrence of the variable (at
y); that holds off the completion too.  Other metrics take the greatest
solution of the equations (on a granular metric it equals the lightest
path on every member of the completion, not off it).  One solver finds
it for both, one strongly connected component at a time, children first:
a node that reaches no nonzero leaf is 0, a node on no cycle takes one
step, any other cycle is swept down from 1 on its own, and the answer is
exact whenever every exact sweep settles.  A distance under a metric
whose scale factors and cap bounds are powers of two and whose pows are
integers is swept on integer exponents, v = 2^-e; values stay for other
constants and for variable depths.  The distances along one trace share
one table of solved pairs (shared_distance), so each pair is solved once.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import cached_property
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

from .terms import (
    Position,
    RationalTerm,
    Signature,
    TermError,
    bfs_path,
    node_numbers,
    record,
    sccs,
    var,
)

Number = Union[Fraction, float]

ITER_BUDGET = 10_000
TOL = 1e-9  # floats closer than this, to each other or to 0, count as equal
DEFAULT_DEPTH_GUARD = 256


class SignatureMismatch(TermError):
    pass


class GuardExceeded(TermError):
    def __init__(self, position: Position):
        super().__init__(f"epsilon-position frontier still open at {position}")
        self.position = position


# --- components ------------------------------------------------------------
#
# Each component is a map on values x in [0, 1] (__call__) and, for x =
# 2^-e, a map on exponents e in [0, inf).  On exponents every component,
# composed or not, is e -> max(floor, slope*e + shift), and its _affine is
# that triple: scale(a) is (0, 1, -log2 a), pow(k) is (0, k, 0), cap(c) is
# (-log2 c, 1, 0), and a composition folds its parts from the inside out.
# The entries are exact (ints and Fractions) while every scale factor and
# cap bound is a power of two, floats otherwise.  Everything on the
# exponent side (exponent_below, _exponent_map, _pure_shift,
# _positive_limit) reads the triple alone.


class _Affine:
    """The exponent side of a component, read off its _affine triple."""

    def exponent_below(self, b: Number) -> Optional[Number]:
        """For b >= 0, the largest e >= 0 whose image is at most b; None
        when there is none."""
        floor, slope, shift = self._affine
        if b < floor:
            return None
        e = b - shift if slope == 1 else (b - shift) / slope
        return e if e >= 0 else None


@record(frozen=True)
class Scale(_Affine):
    """x -> min(1, a*x); Scale(1) is the identity, Scale(1/2) halving."""

    factor: Fraction

    def __call__(self, x: Number) -> Number:
        return min(_one_like(x), self.factor * x)

    @cached_property
    def _affine(self) -> tuple:
        return 0, 1, -_log2(self.factor)

    def __str__(self):
        if self.factor == 1:
            return "strict"
        if self.factor == Fraction(1, 2):
            return "lazy"
        return f"scale({self.factor})"


@record(frozen=True)
class Pow(_Affine):
    """x -> x**k for positive rational k."""

    exponent: Fraction

    def __call__(self, x: Number) -> Number:
        if self.exponent.denominator == 1 and isinstance(x, Fraction):
            return x ** self.exponent.numerator
        return float(x) ** float(self.exponent)

    @cached_property
    def _affine(self) -> tuple:
        return 0, self.exponent, 0

    def __str__(self):
        return f"pow({self.exponent})"


@record(frozen=True)
class Cap(_Affine):
    """x -> min(x, c)."""

    bound: Fraction

    def __call__(self, x: Number) -> Number:
        return min(x, self.bound if isinstance(x, Fraction) else float(self.bound))

    @cached_property
    def _affine(self) -> tuple:
        return -_log2(self.bound), 1, 0

    def __str__(self):
        return f"cap({self.bound})"


@record(frozen=True)
class Compose(_Affine):
    """Composition, outermost part first: Compose(f, g)(x) = f(g(x))."""

    parts: tuple

    def __call__(self, x: Number) -> Number:
        for part in reversed(self.parts):
            x = part(x)
        return x

    @cached_property
    def _affine(self) -> tuple:
        # (f, k, c) after (F, K, C): max(f, k*max(F, K*e + C) + c), as k > 0
        floor, slope, shift = 0, 1, 0  # the identity
        for part in reversed(self.parts):
            f, k, c = part._affine
            floor, slope, shift = max(f, k * floor + c), k * slope, k * shift + c
        return floor, slope, shift

    def __str__(self):
        return "comp(" + ",".join(str(p) for p in self.parts) + ")"


Component = Union[Scale, Pow, Cap, Compose]

IDENTITY = Scale(Fraction(1))
HALVE = Scale(Fraction(1, 2))


def compose(*parts: Component) -> Component:
    flat: list[Component] = []
    for part in parts:
        if isinstance(part, Compose):
            flat.extend(part.parts)
        else:
            flat.append(part)
    flat = [p for p in flat if p != IDENTITY]
    # adjacent contracting scales compose exactly (a*b*x <= a <= 1); a
    # factor <= 0 is left for component_problems to report
    merged: list[Component] = []
    for part in flat:
        if (
            merged
            and isinstance(part, Scale)
            and isinstance(merged[-1], Scale)
            and 0 < part.factor <= 1
            and 0 < merged[-1].factor <= 1
        ):
            merged[-1] = Scale(merged[-1].factor * part.factor)
        else:
            merged.append(part)
    if not merged:
        return IDENTITY
    if len(merged) == 1:
        return merged[0]
    return Compose(tuple(merged))


def component_problems(comp: Component) -> list[str]:
    """Violations of the unary ultra-metric-map laws, if any."""
    if isinstance(comp, Scale):
        return [] if comp.factor > 0 else [f"scale factor {comp.factor} not positive"]
    if isinstance(comp, Pow):
        return [] if comp.exponent > 0 else [f"pow exponent {comp.exponent} not positive"]
    if isinstance(comp, Cap):
        if comp.bound <= 0:
            return [f"cap bound {comp.bound} forces f(x)=0 for x>0"]
        if comp.bound > 1:
            return [f"cap bound {comp.bound} above 1"]
        return []
    if isinstance(comp, Compose):
        if not comp.parts:
            return ["empty composition"]
        out = []
        for part in comp.parts:
            out.extend(component_problems(part))
        return out
    return [f"unknown component {comp!r}"]


def _pure_shift(comp: Component) -> Optional[int]:
    """The whole k >= 0 with comp mapping every exponent e >= 0 to e + k,
    read off its exact triple; None for any other map, or when the shift
    is a float (as for comp(scale(3), scale(1/3)), whose logs cancel only
    up to rounding)."""
    floor, slope, shift = comp._affine
    if slope == 1 and max(floor, 0) <= shift and _whole(shift):
        return int(shift)
    return None


def is_granular_component(comp: Component) -> bool:
    """Is comp the map of strict (e -> e) or of lazy (e -> e + 1), however
    it is spelled: pow(1), cap(1), comp(strict, lazy), ...?"""
    return _pure_shift(comp) in (0, 1)


def lazy_weight(comp: Component) -> int:
    """Number of halvings in a granular component (0 for the identity): the
    whole k >= 0 with comp mapping every exponent e to e + k."""
    k = _pure_shift(comp)
    if k is None:
        raise TermError(f"not a granular component: {comp}")
    return k


def _one_like(x: Number) -> Number:
    return Fraction(1) if isinstance(x, Fraction) else 1.0


def _log2(q: Fraction) -> Number:
    """log2 q, as a Fraction when q is a power of two, else a float."""
    if q <= 0:
        raise TermError(f"log2 of {q}: not positive")
    num, den = q.numerator, q.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return Fraction(num.bit_length() - den.bit_length())
    return math.log2(num) - math.log2(den)


def _power_of_half(e: Number) -> str:
    """2^-e as text, exact unless e is a float."""
    if isinstance(e, float):
        return f"2^-{e:.6g}"
    return f"2^-{e}" if e.denominator == 1 else f"2^-({e})"


def _whole(x: Number) -> bool:
    return not isinstance(x, float) and x.denominator == 1


def _exponent_map(comp: Component) -> Optional[Callable[[int], int]]:
    """comp's map of exponents, e -> max(floor, slope*e + shift), as a map
    of ints, when its triple is integral: every scale factor and cap bound
    a power of two, and the slope a whole number.  None otherwise."""
    if not all(map(_whole, comp._affine)):
        return None
    floor, slope, shift = map(int, comp._affine)
    return lambda e: image if (image := slope * e + shift) > floor else floor


# --- term metrics ----------------------------------------------------------


@record(frozen=True)
class TermMetric:
    sig: Signature
    components: Mapping[str, tuple[Component, ...]]

    def __post_init__(self):
        for name, arity in self.sig.symbols.items():
            comps = self.components.get(name)
            if comps is None or len(comps) != arity:
                raise TermError(f"metric components missing or mis-sized for {name}")

    def component(self, symbol: str, i: int) -> Component:
        """Component of argument i (1-based)."""
        return self.components[symbol][i - 1]

    @cached_property
    def is_granular(self) -> bool:
        return all(
            is_granular_component(c)
            for comps in self.components.values()
            for c in comps
        )

    @cached_property
    def _weights(self) -> dict:
        """Per symbol, the lazy_weight of each argument's component; read
        on granular metrics only."""
        return {s: tuple(map(lazy_weight, comps)) for s, comps in self.components.items()}

    @cached_property
    def _exponent_maps(self) -> Optional[dict]:
        """Per symbol, each argument's component as a map of integer
        exponents (see _exponent_map), or None unless every component
        has one."""
        maps = {s: tuple(map(_exponent_map, comps)) for s, comps in self.components.items()}
        return None if any(None in row for row in maps.values()) else maps

    def covers(self, t: RationalTerm) -> bool:
        """Is every node of t over the signature, with its arity?  A node
        marked as checked under this signature is not walked again, and a
        walk that finds every node covered marks the nodes it walked."""
        sig = self.sig
        if t._checked is sig:
            return True
        arity = sig.symbols.get
        walked = {t}
        stack = [t]
        while stack:
            node = stack.pop()
            if node.args is not None:
                if arity(node.symbol) != len(node.args):
                    return False
                for c in node.args:
                    if c._checked is not sig and c not in walked:
                        walked.add(c)
                        stack.append(c)
        for node in walked:
            node._checked = sig
        return True

    def check_term(self, t: RationalTerm):
        if not self.covers(t):
            raise SignatureMismatch(f"term {t} not over the metric's signature")


@record(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def validate_metric(m: TermMetric) -> ValidationReport:
    problems = []
    for symbol, comps in m.components.items():
        for i, comp in enumerate(comps, start=1):
            for issue in component_problems(comp):
                problems.append(f"{symbol} argument {i}: {issue}")
    return ValidationReport(not problems, tuple(problems))


def metric_infty(sig: Signature) -> TermMetric:
    return TermMetric(sig, {s: (HALVE,) * a for s, a in sig.symbols.items()})


def metric_id(sig: Signature) -> TermMetric:
    return TermMetric(sig, {s: (IDENTITY,) * a for s, a in sig.symbols.items()})


def metric_granular(sig: Signature, laziness: Mapping[str, Sequence[str]]) -> TermMetric:
    """laziness maps a symbol to per-argument 'strict' or 'lazy' tags."""
    comps = {}
    for symbol, arity in sig.symbols.items():
        tags = laziness[symbol]
        if len(tags) != arity:
            raise TermError(f"{symbol}: {len(tags)} tags for arity {arity}")
        comps[symbol] = tuple(IDENTITY if t == "strict" else HALVE for t in tags)
    return TermMetric(sig, comps)


# --- distance --------------------------------------------------------------


def distance(m: TermMetric, t: RationalTerm, u: RationalTerm) -> Number:
    return shared_distance(m, t, u, {})


def shared_distance(m: TermMetric, t: RationalTerm, u: RationalTerm, solved: dict) -> Number:
    """distance(m, t, u), reading and adding to solved: the pairs of the
    product graph solved exactly so far under m, each with its value in
    the domain its solver works in (fewest lazy edges to a clash, the
    exponent, or the value).  The distances along one trace share one
    table, so each pair is solved at most once per trace: a pair in the
    table is a goal of _lightest_path at its known weight and a leaf of
    _fixpoint with its value.  Only exact values enter it, and a solve
    that read the table gives way where it would move to floats, so every
    answer is the one an empty table gives."""
    m.check_term(t)
    m.check_term(u)
    if t is u:
        return Fraction(0)
    # distinct nodes are not bisimilar, so (t, u) reaches a clash, and every
    # pair without edges is one
    root = (t, u)
    if m.is_granular:
        # distance = 2^(-w) for w = the fewest lazy edges on a product-graph
        # path to a root-symbol clash
        best = _lightest_path(
            root,
            lambda pair: solved.get(pair, 0 if _clash(pair) else None),
            _product(m._weights),
            solved,
        )
        return Fraction(0) if best is None else Fraction(1, 1 << best)
    maps = m._exponent_maps
    if maps is not None:
        e = _fixpoint(root, _product(maps), lambda pair: 0, on_exponents=True, solved=solved)
        if e is not None:
            return Fraction(1, 1 << e)  # 2**e squares its way up: seconds at e = 2^30
        solved = None  # exponents gave way: the values move to floats, without the table
    values = _product(m.components)
    v = _fixpoint(root, values, lambda pair: Fraction(1), solved=solved)
    return _fixpoint(root, values, lambda pair: Fraction(1)) if v is None else v


def _clash(pair: tuple[RationalTerm, RationalTerm]) -> bool:
    """Do the two distinct nodes of pair differ at the root?  Under one
    signature, one symbol means one arity, and two variables of one name
    are one node."""
    a, b = pair
    return a.symbol != b.symbol or a.args is None or b.args is None


def _product(table: Mapping[str, tuple]):
    """The edges of the product graph on pairs of store nodes: none from a
    clash, and from a pair that agrees at the root, one to each pair of
    arguments that are distinct nodes, under the argument's entry in table
    (per symbol, one entry per argument).  A pair of one node twice
    denotes one tree, at distance 0, so it is never entered."""

    def edges(pair):
        if _clash(pair):
            return ()
        a, b = pair
        return [(f, (x, y)) for f, x, y in zip(table[a.symbol], a.args, b.args) if x is not y]

    return edges


def _lightest_path(
    start: Hashable,
    goal: Callable[[Hashable], Optional[int]],
    edges: Callable[[Hashable], Iterable[tuple[int, Hashable]]],
    solved: Optional[dict] = None,
) -> Optional[int]:
    """Least total weight of a path from start to a goal node, plus that
    goal's own weight.

    goal(node) is the node's own weight, None off the goals; edges(node)
    yields (weight, next) pairs.  Every weight is 0 or more, so Dijkstra
    applies: a goal is not expanded, and its path weight plus its own is
    pushed as a finish, whose pop is the answer.  None when no goal is
    reachable.  A counter breaks ties on the heap, so nodes need not be
    ordered.  solved, when given, gets every node of the lightest path,
    each with its own least weight to a goal: the answer less its
    distance from start.
    """
    dist = {start: 0}
    parent: dict = {}
    tie = itertools.count(1)
    heap = [(0, 0, start, False)]
    while heap:
        w, _, node, finish = heapq.heappop(heap)
        if finish:
            if solved is not None:
                while True:
                    solved[node] = w - dist[node]
                    if node == start:
                        break
                    node = parent[node]
            return w
        if w > dist[node]:
            continue
        own = goal(node)
        if own is not None:
            heapq.heappush(heap, (w + own, next(tie), node, True))
            continue
        for weight, nxt in edges(node):
            nw = w + weight
            if nw < dist.get(nxt, nw + 1):
                dist[nxt] = nw
                parent[nxt] = node
                heapq.heappush(heap, (nw, next(tie), nxt, False))
    return None


def _fixpoint(
    root: Hashable,
    edges: Callable[[Hashable], Sequence[tuple[Callable, Hashable]]],
    leaf: Callable[[Hashable], Number],
    on_exponents: bool = False,
    solved: Optional[dict] = None,
) -> Optional[Number]:
    """Value at root of the greatest solution of v(n) = leaf(n) at nodes
    without edges and v(n) = max(c(v(k)) for c, k in edges(n)) elsewhere.

    Solved one strongly connected component at a time, children first.
    A node that reaches no nonzero leaf is 0, and its edges are dropped;
    that is decided on the graph, not on values, which can underflow a
    float to 0.  A node on no cycle takes one step (pinned by
    test_a_node_on_no_cycle_takes_one_step).  A cycle starts at 1
    and is swept alone until a sweep changes nothing, and its values are
    then exact.  A value that changes while its float image does not (the
    values have underflowed a float), or 4 sweeps of one component per
    node of it plus 64, move every value to floats, and from then on each
    component is swept until the largest change is below TOL.  Both
    depend only on the component and the exact values below it.

    on_exponents sweeps the same equations on integer exponents, v = 2^-e:
    each c is then a component's _exponent_map, leaf(n) an exponent
    (math.inf for a value 0), the max of values is the min of exponents,
    and a cycle climbs from 0.  The answer is the exponent at root, exact,
    or None where the sweeps on values would move to floats: the caller
    then solves on values.

    solved, when given, maps nodes to their known exact values (in the
    domain swept): each is a leaf with that value, and its edges are not
    asked for.  A solve that ends exact adds every value it found to it.
    A solve that read a known value answers None where it would move to
    floats, since without the table it would sweep that node's part of
    the graph in floats too.
    """
    known = {} if solved is None else solved
    succ: dict = {}

    def kids(node):
        out = succ[node] = () if node in known else edges(node)
        return [k for _c, k in out]

    comps = sccs([root], kids)
    if on_exponents:
        zero, one, best = math.inf, 0, min
    else:
        zero, one, best = Fraction(0), Fraction(1), max
    exact = True  # False once the values are floats
    value: dict = {}
    live: set = set()  # the nodes that reach a nonzero leaf; the others are 0
    for comp in comps:
        head = comp[0]
        if not succ[head]:
            x = known[head] if head in known else leaf(head)
            if x != zero:
                live.add(head)
                value[head] = x if exact else float(x)
            continue
        if not any(k in live for n in comp for _c, k in succ[n]):
            continue
        live.update(comp)
        if len(comp) == 1 and all(k != head for _c, k in succ[head]):
            new = best(c(value[k]) for c, k in succ[head] if k in live)
            value[head] = one if new == one else new  # as a sweep from 1: 1.0 stays exact
            continue
        value.update(dict.fromkeys(comp, one))
        limit = 4 * len(comp) + 64  # exact sweeps of this component
        sweeps = 0
        while True:
            sweeps += 1
            changed = blurred = False
            delta = 0.0
            for n in comp:
                new = best(c(value[k]) for c, k in succ[n] if k in live)
                if new != value[n]:
                    changed = True
                    if not on_exponents:
                        step = abs(float(new) - float(value[n]))
                        blurred, delta = blurred or not step, max(delta, step)
                    value[n] = new
            if not changed or (not exact and (delta < TOL or sweeps >= ITER_BUDGET)):
                break
            if exact and (blurred or sweeps >= limit):
                if on_exponents or any(n in known for n in succ):
                    return None
                value = {n: float(v) for n, v in value.items()}
                one, exact, sweeps = 1.0, False, 0
    if exact and solved is not None:
        solved.update(value)
    return value[root] if root in live else zero


# --- positional umms and epsilon-positions ---------------------------------


def position_umm(m: TermMetric, t: RationalTerm, p: Position) -> Component:
    m.check_term(t)
    parts: list[Component] = []
    node = t
    for i in p:
        if node.args is None or not (1 <= i <= len(node.args)):
            raise TermError(f"invalid position {p} in {t}")
        parts.append(m.component(node.symbol, i))
        node = node.args[i - 1]
    return compose(*parts)


def epos(
    m: TermMetric,
    t: RationalTerm,
    epsilon: float,
    depth_guard: int = DEFAULT_DEPTH_GUARD,
) -> set[Position]:
    """Positions p with (t,p)_m(1) >= epsilon, by DFS with prefix pruning.

    Each position p carries the largest b >= 0 with (t,p)_m(2^-b) >=
    epsilon: log2(1/epsilon) at the root, and at a child, its component's
    exponent_below of the parent's b.  That applies the components in
    position_umm's order, outermost first, at O(1) per edge, and p is in
    the set iff it has such a b.  Exact when epsilon and every scale factor
    and cap bound are powers of two, float otherwise.

    Raises GuardExceeded when the frontier is still at or above epsilon
    past depth_guard, which witnesses that the set is infinite for a
    rational term (non-membership evidence).
    """
    if epsilon <= 0:
        raise TermError("epsilon must be positive")
    m.check_term(t)
    out: set[Position] = set()
    root = _log2(1 / Fraction(epsilon))
    stack: list[tuple[Position, RationalTerm, Number]] = [((), t, root)] if root >= 0 else []
    while stack:
        p, node, b = stack.pop()
        if len(p) > depth_guard:
            raise GuardExceeded(p)
        out.add(p)
        if node.args is not None:
            for i, child in enumerate(node.args, start=1):
                below = m.component(node.symbol, i).exponent_below(b)
                if below is not None:
                    stack.append((p + (i,), child, below))
    return out


# --- membership in the metric completion -----------------------------------


@record(frozen=True)
class MemberVerdict:
    kind: str  # "member" | "non_member" | "unknown"
    witness_cycle: Optional[tuple] = None  # edges (node number, arg_index)
    detail: str = ""

    def __bool__(self) -> bool:
        return self.kind == "member"


class Cycles(list):
    """Simple cycles, each an edge list (node, arg index).  truncated is
    empty when the list is complete, and names the cap when it is not."""

    def __init__(self, cycles=(), truncated: str = ""):
        super().__init__(cycles)
        self.truncated = truncated


def simple_cycles(t: RationalTerm) -> Cycles:
    """The simple cycles of the term graph, up to ITER_BUDGET of them;
    past the cap the enumeration stops and the list says so.  Each is
    found from its least node by node_numbers, in that order."""
    cycles = Cycles()
    seen_keys: set[frozenset] = set()
    number = node_numbers(t)
    for start, k in number.items():
        on_path = {start}
        path: list[tuple[RationalTerm, int]] = []  # the edges down to the top of stack
        stack = [(start, enumerate(start.args or (), start=1))]
        while stack:
            node, kids = stack[-1]
            for i, child in kids:
                if child is start:
                    cycle = path + [(node, i)]
                    nodes_key = frozenset(cycle)
                    if nodes_key not in seen_keys:
                        if len(cycles) == ITER_BUDGET:
                            cycles.truncated = (
                                f"cycle enumeration cap of {ITER_BUDGET} cycles exceeded"
                            )
                            return cycles
                        seen_keys.add(nodes_key)
                        cycles.append(cycle)
                elif number[child] > k and child not in on_path:
                    on_path.add(child)
                    path.append((node, i))
                    stack.append((child, enumerate(child.args or (), start=1)))
                    break
            else:
                stack.pop()
                on_path.discard(node)
                if path:
                    path.pop()
    return cycles


def cycle_component(m: TermMetric, t: RationalTerm, cycle) -> Component:
    return compose(*[m.component(node.symbol, i) for node, i in cycle])


def is_member(m: TermMetric, t: RationalTerm) -> MemberVerdict:
    """Does the infinite tree denoted by t lie in the metric completion?

    Granular metrics: iff the strict edges (lazy weight 0) of the graph,
    from every node, form no cyclic strongly connected component; the
    witness is a shortest strict cycle in one.

    Other metrics enumerate the simple cycles, and answer unknown past the
    enumeration cap.  The term is a member iff iterating each cycle's
    composed component from 1 drives the value to 0; the witness is the
    first cycle whose iterates stall or tend to a positive limit.  The
    test runs on exponents, x = 2^-e, where the cycle's composed component
    is e -> max(floor, slope*e + shift) (its _affine triple): the iterates
    from 0 stall at the first when the second equals it, and else tend to
    infinity iff slope >= 1 (_positive_limit).
    The exponents, hence the verdict and the stall value in its detail,
    are exact when every scale factor and cap bound is a power of two;
    other constants enter as float logarithms.  A witness names its nodes
    by node_numbers.
    """
    m.check_term(t)
    if t.is_finite:
        return MemberVerdict("member", detail="finite term")
    if m.is_granular:

        def strict(node: RationalTerm) -> list[tuple[tuple[RationalTerm, int], RationalTerm]]:
            if node.args is None:
                return []
            weights = m._weights[node.symbol]
            return [
                ((node, i), child)
                for i, (child, w) in enumerate(zip(node.args, weights), start=1)
                if w == 0
            ]

        number = node_numbers(t)
        for comp in sccs(number, lambda node: [k for _e, k in strict(node)]):
            members = set(comp)
            cycle = bfs_path(
                comp[0], comp[0], lambda node: [(e, k) for e, k in strict(node) if k in members]
            )
            if cycle:
                witness = tuple((number[node], i) for node, i in cycle)
                return MemberVerdict("non_member", witness, "cycle with no lazy edge")
        return MemberVerdict("member", detail="every cycle has a lazy edge")
    cycles = simple_cycles(t)
    if cycles.truncated:
        return MemberVerdict("unknown", detail=cycles.truncated)
    for cycle in cycles:
        limit = _positive_limit(cycle_component(m, t, cycle))
        if limit:
            number = node_numbers(t)
            return MemberVerdict("non_member", tuple((number[n], i) for n, i in cycle), limit)
    return MemberVerdict("member", detail=f"{len(cycles)} contracting cycles")


def _positive_limit(comp: Component) -> str:
    """Where the iterates of comp from 1 stop short of 0, as text; empty
    when they tend to 0.

    On exponents comp is e -> max(floor, slope*e + shift), and its iterates
    from e_0 = 0 only climb.  The first is e_1 = max(floor, shift); if e_2
    equals it they stall there.  Otherwise e_2 > e_1 >= floor, so the floor
    binds at no iterate from e_1 on, and they follow the line: for slope >=
    1 each step is at least the last, and for slope < 1 they tend to its
    fixed point shift / (1 - slope).
    """
    floor, slope, shift = comp._affine
    first = max(floor, shift)
    if max(floor, slope * first + shift) == first:
        return f"cycle iterates stall at {_power_of_half(first)}"
    if slope >= 1:
        return ""
    return f"cycle iterates tend to {_power_of_half(shift / (1 - slope))}"


# --- variable depth --------------------------------------------------------


@record(frozen=True)
class VariableDepth:
    """The map y -> [[t]] under the valuation sending x to y, others to 0.

    Split as distance is: on granular metrics the value is y * 2^-k, k the
    fewest lazy edges on a path to an occurrence of x, off the completion
    too, and an exact 0 without one.  Other metrics take the greatest
    solution of the equations, by the same solver as their distances:
    nodes of t that reach no occurrence of x are 0, and the value is exact
    whenever the exact sweep settles.  On every member of a granular
    completion the two agree.
    """

    metric: TermMetric
    term: RationalTerm
    variable: str

    def __call__(self, y: Number) -> Number:
        if not 0 <= y <= 1:
            raise TermError(f"variable depth is defined on [0, 1], not at {y}")
        x = var(self.variable)  # the one stored node of the variable
        if self.metric.is_granular:
            best = _lightest_path(
                self.term, lambda node: 0 if node is x else None, self._edges(self.metric._weights)
            )
            return Fraction(0) if best is None else y * Fraction(1, 1 << best)
        return _fixpoint(self.term, self._edges(self.metric.components),
                         lambda node: y if node is x else Fraction(0))

    def _edges(self, table: Mapping[str, tuple]):
        """The edges of the term graph, each under its argument's entry in
        table (per symbol, one entry per argument)."""

        def edges(node: RationalTerm) -> list:
            return [] if node.args is None else list(zip(table[node.symbol], node.args))

        return edges


def vdepth(m: TermMetric, t: RationalTerm, x: str) -> VariableDepth:
    m.check_term(t)
    return VariableDepth(m, t, x)
