"""Rules, rewrite systems, matching and single-step rewriting on rational
terms, rule classification, the indirection transform, and disjoint union."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .metrics import (
    IDENTITY,
    TermMetric,
    is_member,
    vdepth,
)
from .terms import (
    PLACED,
    ROOT,
    Position,
    RationalTerm,
    Signature,
    TermError,
    app,
    bfs_path,
    node_at,
    record,
    replace,
    sccs,
    unfold,
    var,
    variables,
)

INDIRECTION_SYMBOL = "I"
DEFAULT_WEAK_BUDGET = 10_000
DEFAULT_REDEX_DEPTH = 6
DEPTH_SAMPLES = 33  # non-granular depth maps are compared at k/33, k = 0..33


class StaleOccurrence(TermError):
    pass


@record(frozen=True)
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
        # Canonical sharing merges the occurrences of a variable into one
        # leaf, so the lhs is linear iff no node that a second edge or a
        # cycle enters reaches a variable.
        seen = {self.lhs}
        stack = [self.lhs]
        while stack:
            for c in stack.pop().args or ():
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
                elif variables(c):
                    return False
        return True


@record
class ITRS:
    sig: Signature
    metric: TermMetric
    rules: list[Rule]

    def __post_init__(self):
        names = [r.name for r in self.rules]
        twice = sorted({n for n in names if names.count(n) > 1})
        if twice:
            raise TermError(f"rule names used twice: {twice}")
        for r in self.rules:
            if r.has_variable_lhs:
                raise TermError(f"rule {r.name}: the lhs is a variable")
            if r.has_extra_variables:
                raise TermError(f"rule {r.name}: rhs variables missing from the lhs")
            self.metric.check_term(r.lhs)
            self.metric.check_term(r.rhs)
        # label of an lhs root -> the rules with that label, in rule order
        self._by_root_label: dict[tuple, list[Rule]] = {}
        for r in self.rules:
            self._by_root_label.setdefault(r.lhs.label, []).append(r)

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise TermError(f"no rule named {name}")


@record(frozen=True)
class ClassificationReport:
    per_rule: Mapping[str, tuple[str, ...]]
    rhs_membership: Mapping[str, str]

    def flags(self, name: str) -> tuple[str, ...]:
        return self.per_rule[name]


def classify_itrs(system: "ITRS") -> ClassificationReport:
    """Per-rule informational flags and the membership of each rhs; run
    only when asked, ITRS itself checks rule shapes."""
    per_rule = {}
    membership = {}
    for rule in system.rules:
        flags = []
        if rule.is_collapsing:
            flags.append("collapsing")
        if rule.is_left_linear:
            flags.append("left-linear")
        if is_pseudo_collapsing(system.metric, rule):
            flags.append("pseudo-collapsing")
        if is_depth_preserving(system.metric, rule).kind.endswith("pass"):
            flags.append("depth-preserving")
        membership[rule.name] = is_member(system.metric, rule.rhs).kind
        per_rule[rule.name] = tuple(flags)
    return ClassificationReport(per_rule, membership)


# --- matching and stepping --------------------------------------------------


def match(lhs: RationalTerm, t: RationalTerm, p: Position) -> Optional[dict[str, RationalTerm]]:
    """Match the pattern lhs against the subterm of t at p.

    Returns the binding of each pattern variable to a subterm of t, or
    None.  A match is a graph homomorphism from lhs into the nodes of t,
    which sends each lhs node to one node: a repeated variable, a shared
    ground subterm or a cycle of lhs meets one node, one subterm.
    """
    root = node_at(t, p)
    if root is None or not (lhs.is_var or root.label == lhs.label):
        return None
    return _match_at(lhs, root)


def _match_at(lhs: RationalTerm, root: RationalTerm) -> Optional[dict]:
    """match at the node root, whose label the caller has checked."""
    size, edges, leaves = lhs._pattern
    image = [root] * size  # lhs node -> the node it meets, once placed
    for a, i, b, label in edges:
        c = image[a].args[i]
        if label is PLACED:
            if image[b] is not c:
                return None
            continue
        if label is not None and (
            c.args is None or c.symbol != label[0] or len(c.args) != label[1]
        ):
            return None
        image[b] = c
    return {x: image[b] for b, x in leaves}


def _node_hits(by_label: dict, node: RationalTerm) -> tuple:
    """The memo kept on node, an application node, for the system of
    by_label (its rules by the label of their lhs root): (by_label, the
    (rule, binding) of each rule that matches at node), made once."""
    hits = node._hits
    if hits is None or hits[0] is not by_label:
        hits = node._hits = by_label, [
            (rule, sigma)
            for rule in by_label.get((node.symbol, len(node.args)), ())
            if (sigma := _match_at(rule.lhs, node)) is not None
        ]
    return hits


class RedexOccurrence(NamedTuple):
    """rule applies at position; binding maps each variable of the rule's
    lhs to the subterm it meets."""

    position: Position
    rule: Rule
    binding: Mapping[str, RationalTerm]


def redexes(
    system: ITRS, t: RationalTerm, depth_bound: int = DEFAULT_REDEX_DEPTH
) -> list[RedexOccurrence]:
    """All redex occurrences with position length <= depth_bound, ordered
    outermost-first, then left-to-right, then by rule order.

    One breadth-first pass over (position, node) pairs, reading each
    node's matches from its memo (_node_hits): a reduct shares every node
    off its spine with its term, and only the new nodes are matched.
    """
    out = []
    by_label = system._by_root_label
    queue = [(ROOT, t)]
    for p, node in queue:  # queue grows while it is walked: breadth first
        args = node.args
        if args is None:
            continue  # a variable: no lhs root has its label, no children
        hits = node._hits
        if hits is None or hits[0] is not by_label:  # checked inline on the hot path
            hits = _node_hits(by_label, node)
        for rule, sigma in hits[1]:
            out.append(RedexOccurrence(p, rule, sigma))
        if len(p) < depth_bound:
            for i, c in enumerate(args, 1):
                queue.append((p + (i,), c))
    return out


def is_normal_form(system: ITRS, t: RationalTerm) -> bool:
    """No node of t's graph is a redex: exact on a rational term, whose
    every subterm is a node."""
    nodes = [n for comp in sccs([t], lambda n: n.args or ()) for n in comp]
    return not any(_node_hits(system._by_root_label, n)[1] for n in nodes if n.args is not None)


def rewrite_step(system: ITRS, t: RationalTerm, occ: RedexOccurrence) -> RationalTerm:
    sigma = match(occ.rule.lhs, t, occ.position)
    if sigma is None:
        raise StaleOccurrence(f"{occ.rule.name} no longer matches at {occ.position}")
    return replace(t, occ.position, occ.rule.rhs, sigma)


def successors(
    system: ITRS, t: RationalTerm, depth_bound: int = DEFAULT_REDEX_DEPTH
) -> list[tuple[RedexOccurrence, RationalTerm]]:
    """One-step reducts with redex depth <= depth_bound: one per redex
    occurrence, in the order of redexes."""
    return [
        (occ, replace(t, occ.position, occ.rule.rhs, occ.binding))
        for occ in redexes(system, t, depth_bound)
    ]


class Reach:
    """Bounded weak reachability t ->* u under one system, through redexes
    of depth <= depth_bound, each question searched once.

    reducts maps each term a search expanded to its successors, and
    answers maps each question (budget, t, u) to its answer: a shortest
    step list, [] when t == u (no search), or None when bfs_path found no
    path within budget expanded terms, which refutes nothing.  A caller
    that asks many questions about the same terms keeps one Reach and
    drops it when done.
    """

    def __init__(self, system: ITRS, depth_bound: int = DEFAULT_REDEX_DEPTH):
        self.system = system
        self.depth_bound = depth_bound
        self.reducts: dict = {}
        self.answers: dict = {}

    def _step(self, t: RationalTerm) -> list[tuple[RedexOccurrence, RationalTerm]]:
        out = self.reducts.get(t)
        if out is None:
            out = self.reducts[t] = successors(self.system, t, self.depth_bound)
        return out

    def path(
        self, t: RationalTerm, u: RationalTerm, budget: int = DEFAULT_WEAK_BUDGET
    ) -> Optional[list[RedexOccurrence]]:
        key = (budget, t, u)
        if key not in self.answers:
            self.answers[key] = [] if t == u else bfs_path(t, u, self._step, budget)
        return self.answers[key]


def weak_reach_path(
    system: ITRS,
    t: RationalTerm,
    u: RationalTerm,
    budget: int = DEFAULT_WEAK_BUDGET,
    depth_bound: int = DEFAULT_REDEX_DEPTH,
) -> Optional[list[RedexOccurrence]]:
    """One question to a fresh Reach: a step list t ->* u up to
    bisimilarity, or None, meaning "not found within the budget", never a
    refutation."""
    return Reach(system, depth_bound).path(t, u, budget)


# --- rule-level metric checks ------------------------------------------------


def is_pseudo_collapsing(m: TermMetric, rule: Rule) -> bool:
    """Some variable at metric depth 1 on the right but strictly shallower
    on the left."""
    for x in variables(rule.lhs):
        right = vdepth(m, rule.rhs, x)(Fraction(1))
        if right == 1 and vdepth(m, rule.lhs, x)(Fraction(1)) < 1:
            return True
    return False


@record(frozen=True)
class DepthVerdict:
    kind: str  # "exact-pass" | "sampled-pass" | "fail"
    witness: Optional[tuple] = None  # (variable, sample point, lhs value, rhs value)


def is_depth_preserving(m: TermMetric, rule: Rule) -> DepthVerdict:
    """Do steps of this rule preserve every variable's depth?

    Granular depth maps are y * 2^-k, so y = 1 decides them exactly;
    otherwise the two maps are compared on a sample grid.  Two Fractions
    are compared exactly, anything else within 1e-12.
    """
    if m.is_granular:
        points, kind = [Fraction(1)], "exact-pass"
    else:
        points = [Fraction(k, DEPTH_SAMPLES) for k in range(DEPTH_SAMPLES + 1)]
        kind = "sampled-pass"
    for x in variables(rule.lhs):
        left, right = vdepth(m, rule.lhs, x), vdepth(m, rule.rhs, x)
        for y in points:
            lv, rv = left(y), right(y)
            exact = isinstance(lv, Fraction) and isinstance(rv, Fraction)
            if lv < rv if exact else float(lv) < float(rv) - 1e-12:
                return DepthVerdict("fail", (x, y, lv, rv))
    return DepthVerdict(kind)


# --- indirection and disjoint union -----------------------------------------


@record(frozen=True)
class IndirectResult:
    system: ITRS
    symbol: str  # the indirection symbol actually used
    renamed: bool


def indirect(system: ITRS) -> IndirectResult:
    """Add a fresh unary identity-metric symbol I with rules l -> I(r)
    and I(x) -> x, the latter named I-erase unless that name is taken."""
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
    erase = f"{symbol}-erase"
    while any(r.name == erase for r in rules):
        erase += "#"
    rules.append(Rule(erase, app(symbol, [var("x")]), var("x")))
    return IndirectResult(ITRS(sig, metric, rules), symbol, renamed)


def erase_indirection(t: RationalTerm, symbol: str = INDIRECTION_SYMBOL) -> RationalTerm:
    """Homomorphically drop I(...) wrappers."""

    def expand(state: tuple):
        (node,) = state
        seen = set()
        while node.args and node.symbol == symbol:
            if node in seen:
                raise TermError("cyclic tower of indirection symbols")
            seen.add(node)
            node = node.args[0]
        return node.symbol, None if node.args is None else [(c,) for c in node.args]

    return unfold((t,), expand)


@record(frozen=True)
class UnionResult:
    system: ITRS
    rename_left: Mapping[str, str]
    rename_right: Mapping[str, str]
    coloring: Mapping[str, int]  # 0 = left constituent, 1 = right


def disjoint_union(left: ITRS, right: ITRS) -> UnionResult:
    """Coproduct: union signature and rules with deterministic #1/#2
    renaming of clashing symbols and rule names; ultra-metric components
    carried over unchanged."""
    symbols: dict = {}
    comps: dict = {}
    coloring: dict = {}
    rules: list[Rule] = []
    renamings = []
    given_symbols: set[str] = set()
    given_names: set[str] = set()
    for side, system, other in ((0, left, right), (1, right, left)):
        tag = f"#{side + 1}"
        renaming = _tag_clashes(system.sig.symbols, other.sig.symbols, tag, given_symbols)
        names = _tag_clashes(
            [r.name for r in system.rules], [r.name for r in other.rules], tag, given_names
        )
        for old, new in renaming.items():
            symbols[new] = system.sig.arity(old)
            comps[new] = system.metric.components[old]
            coloring[new] = side
        rules += [
            Rule(names[r.name], rename_symbols(r.lhs, renaming), rename_symbols(r.rhs, renaming))
            for r in system.rules
        ]
        renamings.append(renaming)
    sig = Signature(symbols)
    return UnionResult(ITRS(sig, TermMetric(sig, comps), rules), *renamings, coloring)


def _tag_clashes(names, others, tag: str, given: set[str]) -> dict[str, str]:
    """Each name, with tag appended when others has it too, and appended
    again until the tagged name is free in names, in others and in given.
    given collects the names handed out, across calls."""
    taken = set(names) | set(others)
    out = {}
    for n in names:
        new = n
        if n in others:
            new = n + tag
            while new in taken or new in given:
                new += tag
        out[n] = new
        given.add(new)
    return out


def rename_symbols(t: RationalTerm, renaming: Mapping[str, str]) -> RationalTerm:
    def expand(state: tuple):
        (node,) = state
        if node.args is None:
            return node.symbol, None
        return renaming.get(node.symbol, node.symbol), [(c,) for c in node.args]

    return unfold((t,), expand)
