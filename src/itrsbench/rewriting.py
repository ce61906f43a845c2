"""Rules, rewrite systems, matching and single-step rewriting on rational
terms, rule classification, the indirection transform, and disjoint union."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .metrics import (
    IDENTITY,
    Component,
    MemberVerdict,
    TermMetric,
    is_member,
    vdepth,
)
from .terms import (
    APP,
    VAR,
    Position,
    RationalTerm,
    Signature,
    Substitution,
    TermError,
    iter_positions,
    node_at,
    replace,
    subterm,
    substitute,
    subterm_at_node,
    variables,
)

INDIRECTION_SYMBOL = "I"
DEFAULT_WEAK_BUDGET = 10_000
DEFAULT_REDEX_DEPTH = 6


class StaleOccurrence(TermError):
    pass


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: RationalTerm
    rhs: RationalTerm

    @property
    def is_collapsing(self) -> bool:
        return self.rhs.is_var

    @property
    def has_variable_lhs(self) -> bool:
        return self.lhs.is_var

    @property
    def has_extra_variables(self) -> bool:
        return not variables(self.rhs) <= variables(self.lhs)

    @property
    def is_left_linear(self) -> bool:
        # in the canonical graph a repeated variable is a shared leaf;
        # count incoming references instead
        counts: dict[str, int] = {}
        for entry in self.lhs.nodes:
            if entry[0] == APP:
                for child in entry[2]:
                    sub = self.lhs.nodes[child]
                    if sub[0] == VAR:
                        counts[sub[1]] = counts.get(sub[1], 0) + 1
        return all(c <= 1 for c in counts.values())


def is_collapsing(rule: Rule) -> bool:
    return rule.is_collapsing


@dataclass
class ITRS:
    sig: Signature
    metric: TermMetric
    rules: list[Rule]

    def __post_init__(self):
        report = classify_itrs(self)
        rejected = [
            (name, flags)
            for name, flags in report.per_rule.items()
            if "variable-lhs" in flags or "extra-variables" in flags
        ]
        if rejected:
            raise TermError(f"rules rejected by the engine: {rejected}")

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise TermError(f"no rule named {name}")


@dataclass(frozen=True)
class ClassificationReport:
    per_rule: Mapping[str, tuple[str, ...]]
    rhs_membership: Mapping[str, str]

    def flags(self, name: str) -> tuple[str, ...]:
        return self.per_rule[name]


def classify_itrs(system: "ITRS") -> ClassificationReport:
    """Per-rule flags; variable-lhs and extra-variable rules are flagged
    for rejection, everything else is informational."""
    per_rule = {}
    membership = {}
    for rule in system.rules:
        flags = []
        if rule.has_variable_lhs:
            flags.append("variable-lhs")
        if rule.has_extra_variables:
            flags.append("extra-variables")
        if rule.is_collapsing:
            flags.append("collapsing")
        if rule.is_left_linear:
            flags.append("left-linear")
        if not (rule.has_variable_lhs or rule.has_extra_variables):
            if is_pseudo_collapsing(system.metric, rule):
                flags.append("pseudo-collapsing")
            verdict = is_depth_preserving(system.metric, rule)
            if verdict.kind.endswith("pass"):
                flags.append("depth-preserving")
            membership[rule.name] = is_member(system.metric, rule.rhs).kind
        per_rule[rule.name] = tuple(flags)
    return ClassificationReport(per_rule, membership)


# --- matching and stepping --------------------------------------------------


def match(lhs: RationalTerm, t: RationalTerm, p: Position) -> Optional[Substitution]:
    """Match the finite pattern lhs against the subterm of t at p.

    Repeated pattern variables require bisimilar (canonically equal)
    bindings.  Returns the substitution or None.
    """
    root = node_at(t, p)
    if root is None:
        return None
    binding: dict[str, RationalTerm] = {}

    def go(pat_idx: int, sub_idx: int) -> bool:
        entry = lhs.nodes[pat_idx]
        if entry[0] == VAR:
            bound = subterm_at_node(t, sub_idx)
            prior = binding.get(entry[1])
            if prior is None:
                binding[entry[1]] = bound
                return True
            return prior == bound
        sub_entry = t.nodes[sub_idx]
        if sub_entry[0] != APP or sub_entry[1] != entry[1]:
            return False
        if len(sub_entry[2]) != len(entry[2]):
            return False
        return all(go(pc, sc) for pc, sc in zip(entry[2], sub_entry[2]))

    if go(0, root):
        return binding
    return None


@dataclass(frozen=True)
class RedexOccurrence:
    position: Position
    rule: Rule
    binding: Mapping[str, RationalTerm]


def redexes(
    system: ITRS, t: RationalTerm, depth_bound: int = DEFAULT_REDEX_DEPTH
) -> list[RedexOccurrence]:
    """All redex occurrences with position length <= depth_bound, ordered
    outermost-first, then left-to-right, then by rule order."""
    out = []
    for p, _idx in iter_positions(t, depth_bound):
        for rule in system.rules:
            sigma = match(rule.lhs, t, p)
            if sigma is not None:
                out.append(RedexOccurrence(p, rule, sigma))
    out.sort(key=lambda occ: (len(occ.position), occ.position))
    return out


def rewrite_step(system: ITRS, t: RationalTerm, occ: RedexOccurrence) -> RationalTerm:
    sigma = match(occ.rule.lhs, t, occ.position)
    if sigma is None:
        raise StaleOccurrence(f"{occ.rule.name} no longer matches at {occ.position}")
    return replace(t, occ.position, substitute(sigma, occ.rule.rhs))


def successors(
    system: ITRS, t: RationalTerm, depth_bound: int = DEFAULT_REDEX_DEPTH
) -> list[tuple[RedexOccurrence, RationalTerm]]:
    """One-step reducts with redex depth <= depth_bound, deduplicated up to
    bisimilarity of (position, rule, result)."""
    seen = set()
    out = []
    for occ in redexes(system, t, depth_bound):
        result = replace(t, occ.position, substitute(occ.binding, occ.rule.rhs))
        key = (occ.position, occ.rule.name, result)
        if key not in seen:
            seen.add(key)
            out.append((occ, result))
    return out


def bfs_path(
    start: Hashable,
    goal: Hashable,
    step: Callable[[Hashable], Iterable[tuple[object, Hashable]]],
    budget: Optional[int] = None,
) -> Optional[list]:
    """Labels of a shortest path of at least one step from start to goal.

    step(node) yields (label, next) pairs.  Nodes are discovered in
    successor order and keep their first-discovery parent, so the path
    found is the same on every run; goal == start asks for the shortest
    nonempty cycle.  At most budget nodes are expanded when one is given.
    None means no path was found.
    """
    parent: dict = {}
    seen = {start}
    queue = deque([start])
    expansions = 0
    while queue and (budget is None or expansions < budget):
        node = queue.popleft()
        expansions += 1
        for label, nxt in step(node):
            if nxt == goal:
                path = [label]
                while node != start:
                    node, label = parent[node]
                    path.append(label)
                path.reverse()
                return path
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = (node, label)
                queue.append(nxt)
    return None


def weak_reach(
    system: ITRS,
    t: RationalTerm,
    u: RationalTerm,
    budget: int = DEFAULT_WEAK_BUDGET,
    depth_bound: int = DEFAULT_REDEX_DEPTH,
) -> bool:
    """Finite-step reachability t ->* u up to bisimilarity.

    False means "not found within the budget", never a refutation.
    """
    return weak_reach_path(system, t, u, budget, depth_bound) is not None


def weak_reach_path(
    system: ITRS,
    t: RationalTerm,
    u: RationalTerm,
    budget: int = DEFAULT_WEAK_BUDGET,
    depth_bound: int = DEFAULT_REDEX_DEPTH,
) -> Optional[list[RedexOccurrence]]:
    """Like weak_reach but returns the step list when found."""
    if t == u:
        return []
    return bfs_path(t, u, lambda s: successors(system, s, depth_bound), budget)


# --- rule-level metric checks ------------------------------------------------


def is_pseudo_collapsing(m: TermMetric, rule: Rule) -> bool:
    """Some variable at metric depth 1 on the right but strictly shallower
    on the left."""
    for x in variables(rule.lhs):
        right = vdepth(m, rule.rhs, x)(Fraction(1))
        if right == 1 and vdepth(m, rule.lhs, x)(Fraction(1)) < 1:
            return True
    return False


@dataclass(frozen=True)
class DepthVerdict:
    kind: str  # "exact-pass" | "sampled-pass" | "fail"
    witness: Optional[tuple] = None  # (variable, sample point, lhs, rhs)


def is_depth_preserving(
    m: TermMetric, rule: Rule, samples: int = 33
) -> DepthVerdict:
    """Do steps of this rule preserve every variable's depth?

    Granular metrics are decided exactly via minimal lazy-edge counts;
    otherwise the two depth maps are compared on a sample grid.
    """
    if m.is_granular:
        for x in variables(rule.lhs):
            left = vdepth(m, rule.lhs, x).granular_level()
            right = vdepth(m, rule.rhs, x).granular_level()
            if right is None:
                continue  # variable dropped: rhs depth is constant 0
            if left is None or left > right:
                return DepthVerdict("fail", (x, 1, left, right))
        return DepthVerdict("exact-pass")
    for x in variables(rule.lhs):
        left_map = vdepth(m, rule.lhs, x)
        right_map = vdepth(m, rule.rhs, x)
        for k in range(samples + 1):
            y = Fraction(k, samples)
            lv, rv = left_map(y), right_map(y)
            if float(lv) < float(rv) - 1e-12:
                return DepthVerdict("fail", (x, y, lv, rv))
    return DepthVerdict("sampled-pass")


# --- indirection and disjoint union -----------------------------------------


@dataclass(frozen=True)
class IndirectResult:
    system: ITRS
    symbol: str  # the indirection symbol actually used
    renamed: bool


def indirect(system: ITRS, report: bool = False):
    """Add a fresh unary identity-metric symbol I with rules l -> I(r)
    and I(x) -> x."""
    from .terms import app, var

    symbol = INDIRECTION_SYMBOL
    renamed = False
    while symbol in system.sig:
        symbol += "#"
        renamed = True
    sig = system.sig.union_disjoint(Signature({symbol: 1}))
    comps = dict(system.metric.components)
    comps[symbol] = (IDENTITY,)
    metric = TermMetric(sig, comps)
    rules = [
        Rule(r.name, r.lhs, app(symbol, [r.rhs])) for r in system.rules
    ]
    rules.append(Rule(f"{symbol}-erase", app(symbol, [var("x")]), var("x")))
    out = ITRS(sig, metric, rules)
    if report:
        return IndirectResult(out, symbol, renamed)
    return out


def erase_indirection(t: RationalTerm, symbol: str = INDIRECTION_SYMBOL) -> RationalTerm:
    """Homomorphically drop I(...) wrappers."""
    from .terms import _canonical

    redirect = {}
    for idx, entry in enumerate(t.nodes):
        if entry[0] == APP and entry[1] == symbol:
            redirect[idx] = entry[2][0]

    def resolve(idx: int) -> int:
        seen = set()
        while idx in redirect:
            if idx in seen:
                raise TermError("cyclic tower of indirection symbols")
            seen.add(idx)
            idx = redirect[idx]
        return idx

    nodes = []
    for entry in t.nodes:
        if entry[0] == APP:
            nodes.append((APP, entry[1], tuple(resolve(c) for c in entry[2])))
        else:
            nodes.append(entry)
    return _canonical(nodes, resolve(0))


@dataclass(frozen=True)
class UnionResult:
    system: ITRS
    rename_left: Mapping[str, str]
    rename_right: Mapping[str, str]
    coloring: Mapping[str, int]  # 0 = left constituent, 1 = right


def disjoint_union(left: ITRS, right: ITRS) -> UnionResult:
    """Coproduct: union signature with deterministic #1/#2 renaming of
    clashes; ultra-metric components carried over unchanged."""
    clashes = set(left.sig.symbols) & set(right.sig.symbols)
    rename_left = {
        s: (s + "#1" if s in clashes else s) for s in left.sig.symbols
    }
    rename_right = {
        s: (s + "#2" if s in clashes else s) for s in right.sig.symbols
    }
    symbols = {}
    comps = {}
    coloring = {}
    for side, renaming, system in (
        (0, rename_left, left),
        (1, rename_right, right),
    ):
        for old, new in renaming.items():
            symbols[new] = system.sig.arity(old)
            comps[new] = system.metric.components[old]
            coloring[new] = side
    sig = Signature(symbols)
    metric = TermMetric(sig, comps)
    rules = [
        Rule(r.name, rename_symbols(r.lhs, rename_left), rename_symbols(r.rhs, rename_left))
        for r in left.rules
    ] + [
        Rule(r.name, rename_symbols(r.lhs, rename_right), rename_symbols(r.rhs, rename_right))
        for r in right.rules
    ]
    return UnionResult(ITRS(sig, metric, rules), rename_left, rename_right, coloring)


def rename_symbols(t: RationalTerm, renaming: Mapping[str, str]) -> RationalTerm:
    from .terms import _canonical

    nodes = []
    for entry in t.nodes:
        if entry[0] == APP:
            nodes.append((APP, renaming.get(entry[1], entry[1]), entry[2]))
        else:
            nodes.append(entry)
    return _canonical(nodes, 0)
