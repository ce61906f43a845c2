"""Term metrics built from a closed set of unary component constructors.

A term metric assigns each function symbol one monotone component per
argument; the induced n-ary map is the max of the components applied
argument-wise.  Distances between rational terms are computed on the
product graph: exact shortest-path for granular metrics, monotone
downward iteration of the distance equations otherwise.  The iteration
pins clash pairs at 1 and equal pairs at 0, where a matched pair is equal
(its two subterms denote the same tree) iff it reaches no clash in the
product graph; one backward pass from the clashes finds them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

from .terms import (
    APP,
    VAR,
    Position,
    RationalTerm,
    Signature,
    TermError,
    node_at,
    subterm,
)

Number = Union[Fraction, float]

ITER_BUDGET = 10_000
DEFAULT_TOL = 1e-9
DEFAULT_DEPTH_GUARD = 256


class SignatureMismatch(TermError):
    pass


class GuardExceeded(TermError):
    def __init__(self, position: Position):
        super().__init__(f"epsilon-position frontier still open at {position}")
        self.position = position


# --- components ------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    """x -> min(1, a*x); Scale(1) is the identity, Scale(1/2) halving."""

    factor: Fraction

    def __call__(self, x: Number) -> Number:
        return min(_one_like(x), self.factor * x)

    def __str__(self):
        if self.factor == 1:
            return "strict"
        if self.factor == Fraction(1, 2):
            return "lazy"
        return f"scale({self.factor})"


@dataclass(frozen=True)
class Pow:
    """x -> x**k for positive rational k."""

    exponent: Fraction

    def __call__(self, x: Number) -> Number:
        if self.exponent.denominator == 1 and isinstance(x, Fraction):
            return x ** self.exponent.numerator
        return float(x) ** float(self.exponent)

    def __str__(self):
        return f"pow({self.exponent})"


@dataclass(frozen=True)
class Cap:
    """x -> min(x, c)."""

    bound: Fraction

    def __call__(self, x: Number) -> Number:
        return min(x, self.bound if isinstance(x, Fraction) else float(self.bound))

    def __str__(self):
        return f"cap({self.bound})"


@dataclass(frozen=True)
class Compose:
    """Composition, outermost part first: Compose(f, g)(x) = f(g(x))."""

    parts: tuple

    def __call__(self, x: Number) -> Number:
        for part in reversed(self.parts):
            x = part(x)
        return x

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
    # adjacent contracting scales compose exactly (a*b*x <= a <= 1)
    merged: list[Component] = []
    for part in flat:
        if (
            merged
            and isinstance(part, Scale)
            and isinstance(merged[-1], Scale)
            and part.factor <= 1
            and merged[-1].factor <= 1
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


def is_granular_component(comp: Component) -> bool:
    return comp == IDENTITY or comp == HALVE


def lazy_weight(comp: Component) -> int:
    """Number of halvings in a granular component (0 for the identity)."""
    if comp == IDENTITY:
        return 0
    if comp == HALVE:
        return 1
    if isinstance(comp, Scale) and comp.factor <= 1:
        # power-of-two contracting scale, e.g. from composing halvings
        num, den = comp.factor.numerator, comp.factor.denominator
        if num == 1 and den & (den - 1) == 0:
            return den.bit_length() - 1
    if isinstance(comp, Compose):
        return sum(lazy_weight(p) for p in comp.parts)
    raise TermError(f"not a granular component: {comp}")


def _one_like(x: Number) -> Number:
    return Fraction(1) if isinstance(x, Fraction) else 1.0


def _is_exact(comp: Component) -> bool:
    if isinstance(comp, (Scale, Cap)):
        return True
    if isinstance(comp, Pow):
        return comp.exponent.denominator == 1
    return all(_is_exact(p) for p in comp.parts)


# --- term metrics ----------------------------------------------------------


@dataclass(frozen=True)
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

    @property
    def is_granular(self) -> bool:
        return all(
            is_granular_component(c)
            for comps in self.components.values()
            for c in comps
        )

    def covers(self, t: RationalTerm) -> bool:
        return all(
            entry[0] == VAR
            or (entry[1] in self.sig and self.sig.arity(entry[1]) == len(entry[2]))
            for entry in t.nodes
        )

    def check_term(self, t: RationalTerm):
        if not self.covers(t):
            raise SignatureMismatch(f"term {t} not over the metric's signature")


@dataclass(frozen=True)
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


def distance(
    m: TermMetric, t: RationalTerm, u: RationalTerm, tol: float = DEFAULT_TOL
) -> Number:
    m.check_term(t)
    m.check_term(u)
    if t == u:
        return Fraction(0)
    if t.is_finite and u.is_finite:
        return _distance_finite(m, t, u)
    if m.is_granular:
        return _distance_granular(m, t, u)
    return _distance_iterate(m, t, u, tol)


def _distance_finite(m: TermMetric, t: RationalTerm, u: RationalTerm) -> Number:
    memo: dict[tuple[int, int], Number] = {}

    def go(a: int, b: int) -> Number:
        key = (a, b)
        if key in memo:
            return memo[key]
        ea, eb = t.nodes[a], u.nodes[b]
        if t.label_of(a) != u.label_of(b):
            val: Number = Fraction(1)
        elif ea[0] == VAR:
            val = Fraction(0)
        else:
            val = Fraction(0)
            for i, (ca, cb) in enumerate(zip(ea[2], eb[2]), start=1):
                val = max(val, m.component(ea[1], i)(go(ca, cb)))
        memo[key] = val
        return val

    return go(0, 0)


def _product_nodes(t: RationalTerm, u: RationalTerm):
    """Reachable product pairs, split into clash pairs and matched pairs,
    and the matched pairs that reach no clash (the equal ones)."""
    seen: set[tuple[int, int]] = set()
    clashes: set[tuple[int, int]] = set()
    matched: list[tuple[int, int]] = []
    parents: dict[tuple[int, int], list[tuple[int, int]]] = {}
    stack = [(0, 0)]
    seen.add((0, 0))
    while stack:
        a, b = stack.pop()
        if t.label_of(a) != u.label_of(b):
            clashes.add((a, b))
            continue
        matched.append((a, b))
        for pair in zip(t.children_of(a), u.children_of(b)):
            parents.setdefault(pair, []).append((a, b))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    unequal = set(clashes)
    stack = list(clashes)
    while stack:
        for pair in parents.get(stack.pop(), ()):
            if pair not in unequal:
                unequal.add(pair)
                stack.append(pair)
    equal = {pair for pair in matched if pair not in unequal}
    return matched, clashes, equal


def _lightest_path(
    start: Hashable,
    is_goal: Callable[[Hashable], bool],
    edges: Callable[[Hashable], Iterable[tuple[Component, Hashable]]],
) -> Optional[int]:
    """Least total lazy_weight of a path from start to a goal node.

    edges(node) yields (component, next) pairs; every weight is 0 or
    more, so Dijkstra applies.  None when no goal node is reachable.
    """
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        w, node = heapq.heappop(heap)
        if w > dist[node]:
            continue
        if is_goal(node):
            return w
        for comp, nxt in edges(node):
            nw = w + lazy_weight(comp)
            if nw < dist.get(nxt, nw + 1):
                dist[nxt] = nw
                heapq.heappush(heap, (nw, nxt))
    return None


def _distance_granular(m: TermMetric, t: RationalTerm, u: RationalTerm) -> Fraction:
    # on the product graph, distance = 2^(-w) for w = the fewest lazy
    # edges on a path to a root-symbol clash
    def edges(pair):
        a, b = pair
        for i, nxt in enumerate(zip(t.children_of(a), u.children_of(b)), start=1):
            yield m.component(t.nodes[a][1], i), nxt

    best = _lightest_path(
        (0, 0), lambda pair: t.label_of(pair[0]) != u.label_of(pair[1]), edges
    )
    if best is None:
        return Fraction(0)
    return Fraction(1, 2**best)


def _distance_iterate(
    m: TermMetric, t: RationalTerm, u: RationalTerm, tol: float
) -> Number:
    matched, clashes, equal = _product_nodes(t, u)
    exact = all(_is_exact(c) for comps in m.components.values() for c in comps)
    value: dict[tuple[int, int], Number] = {}
    for pair in clashes:
        value[pair] = Fraction(1)
    for pair in matched:
        value[pair] = Fraction(0) if pair in equal else Fraction(1)
    pinned = clashes | equal

    def sweep() -> float:
        delta = 0.0
        for a, b in matched:
            if (a, b) in pinned:
                continue
            ea = t.nodes[a]
            if ea[0] == VAR:
                continue
            new: Number = Fraction(0) if isinstance(value[(a, b)], Fraction) else 0.0
            for i, pair in enumerate(zip(ea[2], u.children_of(b)), start=1):
                new = max(new, m.component(ea[1], i)(value[pair]))
            if new != value[(a, b)]:
                delta = max(delta, abs(float(new) - float(value[(a, b)])))
                value[(a, b)] = new
        return delta

    if exact:
        # hope for an exact fixed point within a few rounds of sweeps
        for _ in range(4 * len(matched) + 64):
            if sweep() == 0.0:
                return value[(0, 0)]
        # no exact stabilization; fall through to float iteration
    for pair in list(value):
        value[pair] = float(value[pair])
    for _ in range(ITER_BUDGET):
        if sweep() < tol:
            break
    return float(value[(0, 0)])


# --- positional umms and epsilon-positions ---------------------------------


def position_umm(m: TermMetric, t: RationalTerm, p: Position) -> Component:
    m.check_term(t)
    parts: list[Component] = []
    idx = 0
    for i in p:
        entry = t.nodes[idx]
        if entry[0] != APP or not (1 <= i <= len(entry[2])):
            raise TermError(f"invalid position {p} in {t}")
        parts.append(m.component(entry[1], i))
        idx = entry[2][i - 1]
    return compose(*parts)


def epos(
    m: TermMetric,
    t: RationalTerm,
    epsilon: float,
    depth_guard: int = DEFAULT_DEPTH_GUARD,
) -> set[Position]:
    """Positions p with (t,p)_m(1) >= epsilon, by DFS with prefix pruning.

    Raises GuardExceeded when the frontier is still at or above epsilon
    past depth_guard, which witnesses that the set is infinite for a
    rational term (non-membership evidence).
    """
    if epsilon <= 0:
        raise TermError("epsilon must be positive")
    m.check_term(t)
    out: set[Position] = set()
    stack: list[tuple[Position, int, Number]] = [((), 0, Fraction(1))]
    while stack:
        p, idx, val = stack.pop()
        if val < epsilon:
            continue
        if len(p) > depth_guard:
            raise GuardExceeded(p)
        out.add(p)
        entry = t.nodes[idx]
        if entry[0] == APP:
            for i, child in enumerate(entry[2], start=1):
                stack.append((p + (i,), child, m.component(entry[1], i)(val)))
    return out


# --- membership in the metric completion -----------------------------------


@dataclass(frozen=True)
class MemberVerdict:
    kind: str  # "member" | "non_member" | "unknown"
    witness_cycle: Optional[tuple] = None  # edges (node, arg_index)
    detail: str = ""

    def __bool__(self) -> bool:
        return self.kind == "member"


def simple_cycles(t: RationalTerm) -> list[list[tuple[int, int]]]:
    """All simple cycles of the term graph as edge lists (node, arg index)."""
    cycles: list[list[tuple[int, int]]] = []
    seen_keys: set[tuple] = set()
    n = len(t.nodes)

    def dfs(start: int, idx: int, path: list[tuple[int, int]], on_path: set[int]):
        for i, child in enumerate(t.children_of(idx), start=1):
            if child == start:
                cycle = path + [(idx, i)]
                nodes_key = frozenset(cycle)
                if nodes_key not in seen_keys:
                    seen_keys.add(nodes_key)
                    cycles.append(cycle)
            elif child > start and child not in on_path:
                on_path.add(child)
                dfs(start, child, path + [(idx, i)], on_path)
                on_path.discard(child)

    for start in range(n):
        dfs(start, start, [], {start})
        if len(cycles) > ITER_BUDGET:
            raise TermError(f"cycle enumeration cap of {ITER_BUDGET} cycles exceeded")
    return cycles


def cycle_component(m: TermMetric, t: RationalTerm, cycle) -> Component:
    parts = []
    for node, i in cycle:
        parts.append(m.component(t.nodes[node][1], i))
    return compose(*parts)


def is_member(
    m: TermMetric, t: RationalTerm, tol: float = DEFAULT_TOL
) -> MemberVerdict:
    """Does the infinite tree denoted by t lie in the metric completion?"""
    m.check_term(t)
    if t.is_finite:
        return MemberVerdict("member", detail="finite term")
    try:
        cycles = simple_cycles(t)
    except TermError as exc:
        return MemberVerdict("unknown", detail=str(exc))
    if m.is_granular:
        for cycle in cycles:
            comp = cycle_component(m, t, cycle)
            if lazy_weight(comp) == 0:
                return MemberVerdict(
                    "non_member", tuple(cycle), "cycle with no lazy edge"
                )
        return MemberVerdict("member", detail="every cycle has a lazy edge")
    contracted = []
    for cycle in cycles:
        comp = cycle_component(m, t, cycle)
        x: Number = Fraction(1)
        verdict = None
        for _ in range(ITER_BUDGET):
            nxt = comp(x)
            if nxt < tol:
                verdict = "contracts"
                break
            if nxt == x or abs(float(nxt) - float(x)) < tol * 1e-3:
                verdict = "fixed"
                break
            x = nxt
        if verdict == "fixed" and float(x) > tol:
            return MemberVerdict(
                "non_member",
                tuple(cycle),
                f"cycle iterates stall at {float(comp(x)):.6g}",
            )
        if verdict is None:
            return MemberVerdict("unknown", tuple(cycle), "iteration budget exhausted")
        contracted.append(cycle)
    return MemberVerdict("member", detail=f"{len(contracted)} contracting cycles")


# --- variable depth --------------------------------------------------------


@dataclass(frozen=True)
class VariableDepth:
    """The map y -> [[t]] under the valuation sending x to y, others to 0."""

    metric: TermMetric
    term: RationalTerm
    variable: str

    def __call__(self, y: Number) -> Number:
        t = self.term
        if t.is_finite:
            memo: dict[int, Number] = {}

            def go(idx: int) -> Number:
                if idx in memo:
                    return memo[idx]
                entry = t.nodes[idx]
                if entry[0] == VAR:
                    val = y if entry[1] == self.variable else Fraction(0)
                else:
                    val = Fraction(0)
                    for i, child in enumerate(entry[2], start=1):
                        val = max(val, self.metric.component(entry[1], i)(go(child)))
                memo[idx] = val
                return val

            return go(0)
        # cyclic right-hand sides: monotone downward iteration from 1
        vals: dict[int, Number] = {}
        for idx, entry in enumerate(t.nodes):
            if entry[0] == VAR:
                vals[idx] = y if entry[1] == self.variable else Fraction(0)
            else:
                vals[idx] = Fraction(1)
        for _ in range(ITER_BUDGET):
            changed = False
            for idx, entry in enumerate(t.nodes):
                if entry[0] == VAR:
                    continue
                new: Number = Fraction(0)
                for i, child in enumerate(entry[2], start=1):
                    new = max(new, self.metric.component(entry[1], i)(vals[child]))
                if new != vals[idx]:
                    vals[idx] = new
                    changed = True
            if not changed:
                break
        return vals[0]

    def granular_level(self) -> Optional[int]:
        """Minimum lazy-edge count over occurrences of the variable, if any."""
        if not self.metric.is_granular:
            raise TermError("granular level of a non-granular metric")
        t = self.term

        def edges(idx):
            entry = t.nodes[idx]
            for i, child in enumerate(t.children_of(idx), start=1):
                yield self.metric.component(entry[1], i), child

        return _lightest_path(0, lambda idx: t.nodes[idx] == (VAR, self.variable), edges)


def vdepth(m: TermMetric, t: RationalTerm, x: str) -> VariableDepth:
    m.check_term(t)
    return VariableDepth(m, t, x)


def d_infty_leq_check(
    m: TermMetric, t: RationalTerm, u: RationalTerm
) -> tuple[Number, Number, bool]:
    """d_infty(t,u) <= d_m(t,u) for granular m; returns both distances."""
    if not m.is_granular:
        raise TermError("comparison check requires a granular metric")
    d_inf = distance(metric_infty(m.sig), t, u)
    d_m = distance(m, t, u)
    return d_inf, d_m, d_inf <= d_m
