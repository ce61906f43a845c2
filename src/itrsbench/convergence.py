"""Trace recording, divergence detection, omega-limit extrapolation,
convergence classification, strong-convergence and focussed-sequence
probes, and the predicate-guided top-layer simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .layers import (
    Coloring,
    cut_positions,
    cutoff,
    ppos,
    toplayer_fill,
)
from .metrics import (
    MemberVerdict,
    TermMetric,
    distance,
    is_member,
)
from .rewriting import (
    ITRS,
    RedexOccurrence,
    Rule,
    bfs_path,
    indirect,
    match,
    redexes,
    rewrite_step,
    successors,
    weak_reach,
    weak_reach_path,
)
from .terms import (
    Position,
    RationalTerm,
    TermError,
    _canonical,
    node_at,
    replace,
    subterm,
    subterm_at_node,
    topequ,
)


@dataclass(frozen=True)
class Budgets:
    loop_states: int = 50_000
    weak_reach: int = 10_000
    max_steps: int = 24
    depth_bound: int = 8
    window: int = 4
    tol: float = 1e-9
    extrapolate_period: int = 8


DEFAULT_BUDGETS = Budgets()


# --- traces ------------------------------------------------------------------


@dataclass
class Segment:
    """A finite run of single steps; terms[i+1] = step i applied to terms[i].

    The optional limit is the recorded omega-marker: the term the segment
    is deemed to approach.
    """

    terms: list[RationalTerm]
    steps: list[RedexOccurrence]
    limit: Optional[RationalTerm] = None

    def __post_init__(self):
        if len(self.terms) != len(self.steps) + 1:
            raise TermError("segment needs one more term than steps")


@dataclass
class Trace:
    segments: list[Segment]
    stuck: bool = False  # last segment ended in a normal form

    def all_terms(self) -> list[RationalTerm]:
        return [t for seg in self.segments for t in seg.terms]

    def indexed_terms(self) -> list[tuple[tuple[int, int], RationalTerm]]:
        """Terms with their (segment, offset) ordinal-style indices."""
        return [
            ((k, i), t)
            for k, seg in enumerate(self.segments)
            for i, t in enumerate(seg.terms)
        ]

    def validate(self, system: ITRS):
        for seg in self.segments:
            for i, occ in enumerate(seg.steps):
                got = rewrite_step(system, seg.terms[i], occ)
                if got != seg.terms[i + 1]:
                    raise TermError(f"trace step {i} does not replay")


def single_segment(terms, steps, limit=None, stuck=False) -> Trace:
    return Trace([Segment(list(terms), list(steps), limit)], stuck=stuck)


# --- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class LoopWitness:
    start: RationalTerm
    prefix: tuple  # steps from start to the loop base
    cycle: tuple  # steps from the base back to itself
    base: RationalTerm
    distinct: RationalTerm  # a loop term at positive distance from the base
    separation: object  # d(base, distinct)


@dataclass(frozen=True)
class NonMemberLimitWitness:
    limit: RationalTerm
    membership: MemberVerdict


@dataclass(frozen=True)
class DiameterFloorWitness:
    epsilon: float
    window: int
    diameters: tuple


Witness = Union[LoopWitness, NonMemberLimitWitness, DiameterFloorWitness]


@dataclass(frozen=True)
class Verdict:
    kind: str  # "converging" | "diverging" | "unknown"
    limit: Optional[RationalTerm] = None
    witness: Optional[Witness] = None
    budget: Optional[Budgets] = None
    note: str = ""


def converging(limit, note=""):
    return Verdict("converging", limit=limit, note=note)


def diverging(witness, note=""):
    return Verdict("diverging", witness=witness, note=note)


def unknown(budget, note=""):
    return Verdict("unknown", budget=budget, note=note)


def replay_loop(system: ITRS, w: LoopWitness, tol: float = 1e-9) -> bool:
    """Re-execute a loop witness from scratch."""
    t = w.start
    for occ in w.prefix:
        t = rewrite_step(system, t, occ)
    if t != w.base:
        return False
    saw_distinct = False
    for occ in w.cycle:
        t = rewrite_step(system, t, occ)
        if t == w.distinct:
            saw_distinct = True
    return (
        t == w.base
        and saw_distinct
        and float(distance(system.metric, w.base, w.distinct, tol=tol)) > tol
    )


# --- simulation ---------------------------------------------------------------


def _pick(occs: list[RedexOccurrence], strategy: str) -> RedexOccurrence:
    positions = {o.position for o in occs}
    if strategy == "leftmost-outermost":
        keep = [
            o
            for o in occs
            if not any(o.position[:k] in positions for k in range(len(o.position)))
        ]
    elif strategy == "leftmost-innermost":
        keep = [
            o
            for o in occs
            if not any(
                q != o.position and q[: len(o.position)] == o.position
                for q in positions
            )
        ]
    else:
        raise TermError(f"unknown strategy {strategy}")
    return min(keep, key=lambda o: o.position)


def simulate(
    system: ITRS,
    t0: RationalTerm,
    strategy: str = "leftmost-outermost",
    max_steps: int = 24,
    depth_bound: int = 8,
    script: Optional[Sequence[tuple[Position, str]]] = None,
):
    """Run one reduction path (or, for 'exhaustive', build the graph)."""
    if strategy == "exhaustive":
        return reduction_graph(system, t0, budget=max_steps, depth_bound=depth_bound)
    terms = [t0]
    steps: list[RedexOccurrence] = []
    stuck = False
    if strategy == "script":
        if script is None:
            raise TermError("script strategy needs a script")
        for p, rule_name in script:
            rule = system.rule(rule_name)
            sigma = match(rule.lhs, terms[-1], p)
            if sigma is None:
                raise TermError(f"script step {rule_name}@{p} does not apply")
            occ = RedexOccurrence(p, rule, sigma)
            steps.append(occ)
            terms.append(rewrite_step(system, terms[-1], occ))
    else:
        for _ in range(max_steps):
            occs = redexes(system, terms[-1], depth_bound)
            if not occs:
                stuck = True
                break
            occ = _pick(occs, strategy)
            steps.append(occ)
            terms.append(rewrite_step(system, terms[-1], occ))
    return single_segment(terms, steps, stuck=stuck)


@dataclass
class ReductionGraph:
    start: RationalTerm
    edges: dict  # term -> list of (RedexOccurrence, term)
    exhausted: bool  # budget ran out before closure

    def path(self, target: RationalTerm) -> Optional[list[RedexOccurrence]]:
        """Shortest step list from start to target, if recorded."""
        if target == self.start:
            return []
        return self.steps(self.start, target)

    def steps(self, a, b) -> Optional[list[RedexOccurrence]]:
        """Shortest nonempty step list a ->+ b within the recorded edges."""
        return bfs_path(a, b, lambda t: self.edges.get(t, ()))


def reduction_graph(
    system: ITRS, t0: RationalTerm, budget: int = 50_000, depth_bound: int = 8
) -> ReductionGraph:
    from collections import deque

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
    return ReductionGraph(t0, edges, exhausted)


# --- loop detection -----------------------------------------------------------


def _sccs(edges: dict) -> list[list]:
    """Iterative Tarjan over the explored part of a reduction graph."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out = []
    counter = [0]

    for root in list(edges):
        if root in index:
            continue
        work = [(root, iter([u for _o, u in edges.get(root, ()) if u in edges]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append(
                        (child, iter([u for _o, u in edges.get(child, ()) if u in edges]))
                    )
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    out.append(comp)
    return out


def _cycle_through(graph: ReductionGraph, base, via) -> Optional[list[RedexOccurrence]]:
    """Steps base ->+ via ->+ base within the explored graph."""
    first = graph.steps(base, via)
    second = graph.steps(via, base)
    if first is None or second is None:
        return None
    return first + second


def find_loop(
    system: ITRS,
    t0: RationalTerm,
    budget: int = 50_000,
    depth_bound: int = 8,
    tol: float = 1e-9,
) -> Optional[LoopWitness]:
    """A reduction cycle visiting two terms at positive distance."""
    graph = reduction_graph(system, t0, budget=budget, depth_bound=depth_bound)
    components = _sccs(graph.edges)
    # prefer a loop through the start term itself when one exists
    components.sort(key=lambda comp: (t0 not in comp, min(map(str, comp))))
    for comp in components:
        if len(comp) < 2:
            continue
        base = t0 if t0 in comp else min(comp, key=str)
        prefix = graph.path(base)
        if prefix is None:
            continue
        # the shortest nonempty cycle through the base usually already
        # visits a separated term; fall back to steering through one
        cycle = graph.steps(base, base)
        witness = cycle and _distinct_on_cycle(system, base, cycle, tol)
        if witness is not None:
            other, sep = witness
            return LoopWitness(t0, tuple(prefix), tuple(cycle), base, other, sep)
        for other in sorted(comp, key=str):
            if other == base:
                continue
            sep = distance(system.metric, base, other, tol=tol)
            if float(sep) <= tol:
                continue
            cycle = _cycle_through(graph, base, other)
            if cycle is None:
                continue
            return LoopWitness(t0, tuple(prefix), tuple(cycle), base, other, sep)
    return None


def _distinct_on_cycle(system: ITRS, base, cycle, tol):
    t = base
    for occ in cycle:
        t = rewrite_step(system, t, occ)
        sep = distance(system.metric, base, t, tol=tol)
        if t != base and float(sep) > tol:
            return t, sep
    return None


def find_root_recurrence(
    system: ITRS,
    t0: RationalTerm,
    budget: int = 50_000,
    depth_bound: int = 8,
) -> Optional[LoopWitness]:
    """A reduction cycle that contracts a root redex: a direct witness
    against top-termination."""
    graph = reduction_graph(system, t0, budget=budget, depth_bound=depth_bound)
    for comp in _sccs(graph.edges):
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
                return LoopWitness(t0, tuple(prefix), (occ, *back), t, u, None)
    return None


# --- diameters and limits ------------------------------------------------------


def sliding_diameter(m: TermMetric, tr: Trace, window: int, tol: float = 1e-9) -> list:
    if window < 2:
        raise TermError("window must be at least 2")
    terms = tr.all_terms()
    out = []
    for i in range(len(terms) - window + 1):
        chunk = terms[i : i + window]
        out.append(
            max(
                distance(m, a, b, tol=tol)
                for j, a in enumerate(chunk)
                for b in chunk[j + 1 :]
            )
        )
    return out


def _knot(t: RationalTerm, p: Position, q: Position) -> RationalTerm:
    """The subterm of t at p, with the (relative) position q redirected
    back to its own root: the rational solution of X = C[X] where C is
    the context between p and p·q."""
    base = node_at(t, p)
    nodes = list(t.nodes)
    # copy the spine from base along q so the redirect does not disturb
    # shared occurrences
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
    return _canonical(tuple(nodes), fresh[0])


def extrapolate_limit(
    seg: Segment, max_period: int = 8
) -> Optional[RationalTerm]:
    """Rational limit of a context-pumping segment.

    Detects redex positions descending along one spine with a fixed
    period and a constant written context, builds the mu-term limit, and
    verifies prefix agreement (agreement outside the active position) on
    every recorded term of the pumping suffix.
    """
    if not seg.steps:
        return seg.terms[0]
    n = len(seg.steps)
    pos = [occ.position for occ in seg.steps]
    for period in range(1, max_period + 1):
        for start in range(0, n - 2 * period + 1):
            q = pos[start + period][len(pos[start]) :]
            if not q or pos[start + period][: len(pos[start])] != pos[start]:
                continue
            ok = True
            for i in range(start, n - period):
                if (
                    pos[i + period] != pos[i] + q
                    or seg.steps[i + period].rule.name != seg.steps[i].rule.name
                ):
                    ok = False
                    break
            if not ok:
                continue
            anchor = start + period
            limit = replace(
                seg.terms[anchor], pos[start], _knot(seg.terms[anchor], pos[start], q)
            )
            if all(
                topequ(seg.terms[i], pos[i], limit) for i in range(start, n)
            ) and topequ(seg.terms[n], pos[n - period] + q, limit):
                return limit
    return None


# --- classification -------------------------------------------------------------


def classify_convergence(
    system: ITRS,
    t0: RationalTerm,
    budgets: Budgets = DEFAULT_BUDGETS,
    strategy: str = "leftmost-outermost",
) -> Verdict:
    """Loop search, then limit extrapolation plus membership, then a
    sliding-diameter floor; honest Unknown otherwise."""
    loop = find_loop(
        system,
        t0,
        budget=budgets.loop_states,
        depth_bound=budgets.depth_bound,
        tol=budgets.tol,
    )
    if loop is not None:
        return diverging(loop)

    tr = simulate(
        system,
        t0,
        strategy=strategy,
        max_steps=budgets.max_steps,
        depth_bound=budgets.depth_bound,
    )
    limit = extrapolate_limit(tr.segments[-1], max_period=budgets.extrapolate_period)
    if limit is not None and tr.segments[-1].steps:
        membership = is_member(system.metric, limit, tol=budgets.tol)
        if membership.kind == "non_member":
            return diverging(NonMemberLimitWitness(limit, membership))
        if membership.kind == "member":
            return converging(limit, note=f"strategy {strategy}")
    if tr.stuck:
        return converging(tr.all_terms()[-1], note="normal form reached")

    diams = sliding_diameter(system.metric, tr, budgets.window, tol=budgets.tol)
    if diams:
        floor = min(float(d) for d in diams)
        if floor > budgets.tol:
            return diverging(
                DiameterFloorWitness(floor, budgets.window, tuple(diams)),
                note="desk-scale evidence, not a proof",
            )
    return unknown(budgets)


@dataclass(frozen=True)
class StrongReport:
    indirected: Verdict
    root_recurrence: Optional[LoopWitness]

    @property
    def violated(self) -> bool:
        return self.indirected.kind == "diverging" or self.root_recurrence is not None


def strong_convergence_probe(
    system: ITRS,
    t0: RationalTerm,
    budgets: Budgets = DEFAULT_BUDGETS,
    strategy: str = "leftmost-outermost",
) -> StrongReport:
    """Convergence of the indirected system, plus a direct root-redex
    recurrence check."""
    verdict = classify_convergence(indirect(system), t0, budgets, strategy)
    recurrence = find_root_recurrence(
        system, t0, budget=budgets.loop_states, depth_bound=budgets.depth_bound
    )
    return StrongReport(verdict, recurrence)


# --- focussed sequences ----------------------------------------------------------


@dataclass(frozen=True)
class FocussedReport:
    ok: bool
    beta: Optional[int]
    zetas: Mapping[int, int]  # per index gamma, the least working zeta
    witnesses: Mapping[tuple, tuple]  # (gamma, kappa) -> step list
    failures: tuple
    note: str = "prefix evidence only; the recorded trace is finite"


def focussed_probe(
    system: ITRS,
    tr: Trace,
    p: Position,
    budget: int = 10_000,
    depth_bound: int = 8,
) -> FocussedReport:
    """Evaluate the focussed-sequence predicate on the recorded subterm
    sequence at p, with bounded reachability as the weak-reduction oracle."""
    seq = [subterm(t, p) for t in tr.all_terms()]
    n = len(seq)
    reach_cache: dict = {}

    def reaches(a, b):
        key = (a, b)
        if key not in reach_cache:
            reach_cache[key] = weak_reach_path(
                system, a, b, budget=budget, depth_bound=depth_bound
            )
        return reach_cache[key]

    zetas = {}
    failures = []
    for gamma in range(n):
        found = None
        for zeta in range(n):
            if all(reaches(seq[gamma], seq[kappa]) is not None for kappa in range(zeta, n)):
                found = zeta
                break
        if found is None:
            failures.append(gamma)
        else:
            zetas[gamma] = found
    beta = None
    for b in range(n):
        if all(g in zetas for g in range(b, n)):
            beta = b
            break
    witnesses = {}
    if beta is not None:
        for gamma in range(beta, n):
            for kappa in range(zetas[gamma], n):
                witnesses[(gamma, kappa)] = tuple(reaches(seq[gamma], seq[kappa]))
    return FocussedReport(beta is not None, beta, zetas, witnesses, tuple(failures))


# --- predicate sequences and the simulated top layer ------------------------------


@dataclass
class Fp:
    """True of terms that weakly reduce to a later principal-p subterm."""

    position: Position
    trace: Trace
    system: ITRS
    coloring: Coloring
    budget: int = 10_000
    depth_bound: int = 8

    def __call__(self, beta: tuple, term: RationalTerm) -> bool:
        for gamma, t in self.trace.indexed_terms():
            if gamma < beta:
                continue
            if self.position not in cut_positions(
                t, self.coloring, len(self.position)
            ):
                continue
            if weak_reach(
                self.system,
                term,
                subterm(t, self.position),
                budget=self.budget,
                depth_bound=self.depth_bound,
            ):
                return True
        return False


@dataclass
class Kt:
    """True of terms that are not weak reducts of the anchor term."""

    anchor: RationalTerm
    system: ITRS
    budget: int = 10_000
    depth_bound: int = 8

    def __call__(self, beta: tuple, term: RationalTerm) -> bool:
        return not weak_reach(
            self.system, self.anchor, term, budget=self.budget, depth_bound=self.depth_bound
        )


@dataclass
class XiReport:
    trace: Trace
    flip_counts: list  # per even->odd stage, number of l-to-r flips
    violations: list  # (stage index, description)
    diameters: list
    cauchy: bool


def _next_index(beta: tuple) -> tuple:
    return (beta[0], beta[1] + 1)


def xi_trace(
    system: ITRS,
    tr: Trace,
    rule: Rule,
    s: Callable,
    coloring: Coloring,
    window: int = 4,
    tol: float = 1e-9,
) -> XiReport:
    """The simulated top-layer sequence: every recorded term is filled at
    its principal cut with l or r as the predicate sequence directs, each
    original step splitting into a batched l-to-r flip stage followed by
    a root-system step (or a stutter).

    The potentially infinite flip stage is realized as one batched update
    with its flip count recorded.
    """
    l, r = rule.lhs, rule.rhs
    if l == r:
        raise TermError("the guiding rule must be non-trivial")
    root_color = coloring[tr.all_terms()[0].root_symbol]
    root_rules = [
        rl for rl in system.rules if coloring.get(rl.lhs.root_symbol) == root_color
    ]
    root_system = ITRS(system.sig, system.metric, root_rules)

    evaluated: dict = {}  # (beta, subterm) -> verdict, for the monotone-law check

    def fills(t: RationalTerm, beta: tuple):
        """The fill choice per cut edge at time beta."""
        cut = ppos(t, coloring)
        choices = {}
        for edge in sorted(cut.edges):
            child = t.nodes[edge[0]][2][edge[1]]
            sub = subterm_at_node(t, child)
            key = (beta, sub)
            if key not in evaluated:
                evaluated[key] = s(beta, sub)
            choices[edge] = evaluated[key]
        return cut, choices

    def filled(t, cut, choices):
        return toplayer_fill(t, cut, {e: (l if keep else r) for e, keep in choices.items()})

    out_segments = []
    flip_counts = []
    violations = []
    for k, seg in enumerate(tr.segments):
        sim_terms: list[RationalTerm] = []
        for i, t in enumerate(seg.terms):
            beta = (k, i)
            cut, now = fills(t, beta)
            _, nxt = fills(t, _next_index(beta))
            flips = sum(1 for e in now if now[e] and not nxt[e])
            if any(nxt[e] and not now[e] for e in now):
                violations.append(
                    (2 * i, "a fill flipped from r back to l as time advanced")
                )
            flip_counts.append(flips)
            sim_terms.append(filled(t, cut, now))
            sim_terms.append(filled(t, cut, nxt))
        for i in range(len(seg.steps)):
            odd, after = sim_terms[2 * i + 1], sim_terms[2 * i + 2]
            if odd == after:
                continue
            stepped = any(
                res == after
                for _occ, res in successors(
                    root_system, odd, depth_bound=max(8, len(seg.steps[i].position) + 2)
                )
            )
            if not stepped:
                violations.append(
                    (2 * i + 1, "stage-1 transition is not a root-system step")
                )
        sim_limit = None
        if seg.limit is not None:
            lim_cut, lim_choices = fills(seg.limit, (k + 1, 0))
            sim_limit = filled(seg.limit, lim_cut, lim_choices)
        out_segments.append(_sim_segment(sim_terms, sim_limit))

    violations.extend(_monotone_violations(system, s, evaluated))
    sim_trace = Trace(out_segments)
    diams = sliding_diameter(system.metric, sim_trace, window, tol=tol)
    # Cauchy-ness is a tail property: measure the floor on the last segment
    tail = sliding_diameter(system.metric, Trace(out_segments[-1:]), window, tol=tol)
    floor = min((float(d) for d in tail), default=0.0)
    return XiReport(sim_trace, flip_counts, violations, diams, floor <= tol)


def _sim_segment(terms, limit):
    """A segment carrying simulated terms; step objects are not recorded."""
    return Segment(list(terms), [None] * (len(terms) - 1), limit)


def _monotone_violations(system: ITRS, s, evaluated: dict, budget: int = 2_000) -> list:
    """Check the predicate-sequence law on the evaluated triples:
    beta <= gamma and t ->>_w u and s(gamma)(u) imply s(beta)(t)."""
    out = []
    for (beta, t), vt in evaluated.items():
        if vt:
            continue
        for (gamma, u), vu in evaluated.items():
            if beta <= gamma and vu and weak_reach(system, t, u, budget=budget):
                out.append(("monotone-law", beta, gamma, str(t), str(u)))
    return out


# --- the cutoff of a whole trace ---------------------------------------------------


@dataclass
class CutoffReport:
    trace: Trace
    stutters: list  # indices of stutter steps
    violations: list
    root_only: bool  # every non-stutter step was a root-system step


def cutoff_trace(
    system: ITRS,
    tr: Trace,
    n: int,
    u: RationalTerm,
    coloring: Coloring,
    depth_bound: int = 8,
) -> CutoffReport:
    """Pointwise cutoff of a recorded trace; every step must become a
    reduction step again or a stutter."""
    root_color = coloring[tr.all_terms()[0].root_symbol] if n > 0 else None
    stutters = []
    violations = []
    root_only = True
    out_segments = []
    index = 0
    for seg in tr.segments:
        cut_terms = [cutoff(t, n, u, coloring) for t in seg.terms]
        for i in range(len(cut_terms) - 1):
            a, b = cut_terms[i], cut_terms[i + 1]
            if a == b:
                stutters.append(index)
            else:
                bound = max(depth_bound, len(seg.steps[i].position) + 2)
                hits = [
                    occ
                    for occ, res in successors(system, a, depth_bound=bound)
                    if res == b
                ]
                if not hits:
                    violations.append((index, "cut step is not a reduction step"))
                elif n == 1 and all(
                    coloring.get(occ.rule.lhs.root_symbol) != root_color
                    for occ in hits
                ):
                    root_only = False
            index += 1
        out_segments.append(
            _sim_segment(cut_terms, seg.limit and cutoff(seg.limit, n, u, coloring))
        )
    return CutoffReport(Trace(out_segments), stutters, violations, root_only)
