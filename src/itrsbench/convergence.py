"""Trace recording, divergence detection, omega-limit extrapolation,
convergence classification, strong-convergence and focussed-sequence
probes, and the predicate-guided top-layer simulation."""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence, Union

from .layers import (
    Coloring,
    cut_positions,
    cutoff,
    ppos,
    toplayer_fill,
)
from .metrics import (
    TOL,
    MemberVerdict,
    TermMetric,
    distance,
    is_member,
    shared_distance,
)
from .rewriting import (
    DEFAULT_WEAK_BUDGET,
    ITRS,
    Reach,
    RedexOccurrence,
    Rule,
    indirect,
    is_normal_form,
    match,
    redexes,
    rewrite_step,
    successors,
)
from .terms import (
    APP,
    Position,
    RationalTerm,
    TermError,
    app,
    bfs_path,
    from_nodes,
    record,
    replace,
    sccs,
    subterm,
    topequ,
    var,
)


@record(frozen=True)
class Budgets:
    """The resource caps of classify_convergence (and of
    strong_convergence_probe, which runs it on the indirected system).
    When no verdict is reached within them the answer is unknown, and its
    note names the caps that bound it.

    loop_states: how many terms the loop search (reduction_graph over every
    redex, breadth first) expands before it stops; also the root-recurrence
    search's budget in strong_convergence_probe.
    max_steps: how many steps the leftmost-outermost run takes, the run
    whose terms feed limit extrapolation and the sliding diameters.
    depth_bound: the longest redex position both searches look at: the
    loop search and the run see no deeper redex.  A term whose redexes all
    lie deeper ends the run, and the answer is unknown, since it is no
    normal form.
    """

    loop_states: int = 50_000
    max_steps: int = 24
    depth_bound: int = 8


DEFAULT_BUDGETS = Budgets()
WINDOW = 4  # terms per sliding diameter
MAX_PERIOD = 8  # longest pumping period extrapolate_limit tries
REACH_DEPTH = 8  # redex depth of the weak-reachability and step checks
MONOTONE_BUDGET = 2_000  # Reach.path budget of the predicate-sequence law check


# --- traces ------------------------------------------------------------------


@record
class Segment:
    """A finite run of single steps; terms[i+1] = step i applied to terms[i].

    The optional limit is the recorded omega-marker: the term the segment
    is deemed to approach.  A simulated segment records no step objects:
    its steps default to None each.
    """

    terms: list[RationalTerm]
    steps: Optional[list[Optional[RedexOccurrence]]] = None
    limit: Optional[RationalTerm] = None

    def __post_init__(self):
        if self.steps is None:
            self.steps = [None] * (len(self.terms) - 1)
        if len(self.terms) != len(self.steps) + 1:
            raise TermError("segment needs one more term than steps")


@record
class Trace:
    segments: list[Segment]
    stuck: bool = False  # the run ended with no redex within its depth bound

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
        """Every recorded step replays, and every simulated step (None) is
        a parallel step (_parallel_step): a stutter, one step, or a stage
        of xi_trace that flips several cut edges at once."""
        for seg in self.segments:
            for i, occ in enumerate(seg.steps):
                a, b = seg.terms[i], seg.terms[i + 1]
                if occ is None:
                    ok = _parallel_step(system, a, b)
                else:
                    ok = rewrite_step(system, a, occ) == b
                if not ok:
                    raise TermError(f"trace step {i} does not replay")


def _parallel_step(system: ITRS, a: RationalTerm, b: RationalTerm) -> bool:
    """Do a and b agree but at pairwise disjoint positions, at each of
    which b's subterm is a root step of the system from a's?

    None of them is a stutter, one is a step, and several are contracted
    at once, as xi_trace flips its cut edges; a cut edge on a cycle of
    the top layer stands for infinitely many positions, still a strongly
    convergent reduction, since a rational term has finitely many
    positions at each depth.  Decided exactly on the pairs of nodes, the
    subterms of a and b at one position: a pair that is neither one node
    nor a root step must have one head and pairs of arguments that hold.
    """
    seen = set()
    stack = [(a, b)]
    while stack:
        x, y = pair = stack.pop()
        if x is y or pair in seen:
            continue
        seen.add(pair)
        if any(res is y for _occ, res in successors(system, x, depth_bound=0)):
            continue
        if x.args is None or y.args is None or (x.symbol, len(x.args)) != (y.symbol, len(y.args)):
            return False
        stack.extend(zip(x.args, y.args))
    return True


# --- verdicts ----------------------------------------------------------------


@record(frozen=True)
class LoopWitness:
    """Evidence that some reduction from start diverges: the prefix steps
    lead from start to base, and the cycle steps lead from base back to
    itself through distinct, a term at distance separation > 0 from base.
    Repeating the cycle forever gives a reduction whose terms never get
    closer than separation, so it has no limit.  The cycle may use any
    redex (the loop search explores them all), so the witnessed reduction
    need not be the leftmost-outermost one.  replay_loop checks it.
    """

    start: RationalTerm
    prefix: tuple  # steps from start to the loop base
    cycle: tuple  # steps from the base back to itself
    base: RationalTerm
    distinct: RationalTerm  # a loop term at positive distance from the base
    separation: object  # d(base, distinct)


@record(frozen=True)
class NonMemberLimitWitness:
    """Evidence that the leftmost-outermost run diverges: the run pumps a
    repeating period towards limit (extrapolate_limit), and membership
    shows that limit is not in the metric completion, so the run's terms
    have no limit there.
    """

    limit: RationalTerm
    membership: MemberVerdict


@record(frozen=True)
class DiameterFloorWitness:
    """Evidence, not proof, that the leftmost-outermost run diverges:
    every window of that many consecutive terms of the recorded run has
    diameter above epsilon (the least of diameters, which lists each
    window's diameter in order).  A run observed for max_steps steps may
    still settle later, so a verdict resting on this witness says so in
    its note.
    """

    epsilon: float
    window: int
    diameters: tuple


Witness = Union[LoopWitness, NonMemberLimitWitness, DiameterFloorWitness]


@record(frozen=True)
class Verdict:
    """The answer of classify_convergence for one start term.

    "converging" is a claim about the leftmost-outermost run only: it
    reached a normal form, no node of which is a redex, or it pumps
    towards limit and limit is a member of the metric completion; other
    reductions of the start term may still diverge.  "diverging" claims
    that some reduction from the start term diverges, and witness says
    which and why: a LoopWitness (any reduction, replayable), a
    NonMemberLimitWitness or a DiameterFloorWitness (both about the
    leftmost-outermost run; the latter is evidence, not proof).
    "unknown" means the budget ran out first: budget holds the caps and
    note names the ones that bound the answer.
    """

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


def replay_loop(system: ITRS, w: LoopWitness) -> bool:
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
    return t == w.base and saw_distinct and w.distinct != w.base


# --- simulation ---------------------------------------------------------------


def _pick(occs: list[RedexOccurrence], strategy: str) -> RedexOccurrence:
    # a proper prefix sorts first, so the least redex position is outermost
    if strategy == "leftmost-innermost":
        above = {o.position[:k] for o in occs for k in range(len(o.position))}
        occs = [o for o in occs if o.position not in above]  # no redex below
    elif strategy != "leftmost-outermost":
        raise TermError(f"unknown strategy {strategy}")
    return min(occs, key=lambda o: o.position)


def simulate(
    system: ITRS,
    t0: RationalTerm,
    strategy: str = "leftmost-outermost",
    max_steps: int = DEFAULT_BUDGETS.max_steps,
    depth_bound: int = DEFAULT_BUDGETS.depth_bound,
    script: Optional[Sequence[tuple[Position, str]]] = None,
    reducts: Optional[Mapping] = None,
) -> Trace:
    """Run one reduction path.

    reducts, when given, maps terms to their successors under this system
    and depth bound (as ReductionGraph.edges does): a term in it takes its
    step and reduct from there, and only the others are searched.
    """
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
            steps.append(RedexOccurrence(p, rule, sigma))
            terms.append(replace(terms[-1], p, rule.rhs, sigma))
    else:
        for _ in range(max_steps):
            out = reducts.get(terms[-1]) if reducts is not None else None
            occs = redexes(system, terms[-1], depth_bound) if out is None else [o for o, _u in out]
            if not occs:
                stuck = True
                break
            occ = _pick(occs, strategy)
            steps.append(occ)
            if out is None:
                terms.append(replace(terms[-1], occ.position, occ.rule.rhs, occ.binding))
            else:
                terms.append(next(u for o, u in out if o is occ))
    return Trace([Segment(terms, steps)], stuck=stuck)


@record
class ReductionGraph:
    start: RationalTerm
    edges: dict  # expanded term -> list of (RedexOccurrence, term)
    exhausted: bool  # budget ran out before closure
    found: Optional[LoopWitness] = None  # the search's answer that ended the growth
    mid_layer: bool = False  # search runs before its layer is complete

    def path(self, target: RationalTerm) -> Optional[list[RedexOccurrence]]:
        """Shortest step list from start to target, if recorded."""
        if target == self.start:
            return []
        return self.steps(self.start, target)

    def steps(self, a, b) -> Optional[list[RedexOccurrence]]:
        """Shortest nonempty step list a ->+ b within the recorded edges."""
        return bfs_path(a, b, lambda t: self.edges.get(t, ()))

    def components(self) -> list[list]:
        """Strongly connected components of the explored terms, children first."""
        return sccs(self.edges, lambda t: [u for _o, u in self.edges[t] if u in self.edges])


def reduction_graph(
    system: ITRS,
    t0: RationalTerm,
    budget: int,
    depth_bound: int,
    search: Callable[[ReductionGraph], Optional[LoopWitness]],
) -> ReductionGraph:
    """The reduction graph of t0, grown breadth first in successor order
    until search answers, the graph closes, or budget terms are expanded.

    The graph grows one BFS layer (the terms one step farther from t0
    than the last) at a time.  After a layer that added an edge t -> u
    with u no farther from t0 than t, search runs on the expanded terms;
    its first answer other than None is kept as found and ends the growth.
    Every cycle has such an edge, out of its term farthest from t0, and
    is complete once that term's layer is, so search sees each cycle as
    soon as it exists; diamond joins (u one step farther than t) never
    run it.  A layer the budget cuts off counts as the last layer.

    When t0 has no self-loop, search also runs at once on the first edge
    t -> t0 (t not t0), with mid_layer set: that edge closes the first
    cycle through t0, and bfs_path, which expands terms in this same
    order, finds that cycle in the graph as it stands.  A search whose
    answer needs the whole layer answers None while mid_layer is set.
    """
    edges: dict = {}
    graph = ReductionGraph(t0, edges, False)
    level = {t0: 0}
    layer = [t0]
    depth = 0
    into_start = False  # has an edge into t0 been seen (t0's self-loop included)
    while layer and not graph.exhausted:
        closing = False
        next_layer = []
        for t in layer:
            if len(edges) >= budget:
                graph.exhausted = True
                break
            out = successors(system, t, depth_bound)
            edges[t] = out
            for _occ, u in out:
                seen = level.get(u)
                if seen is None:
                    level[u] = depth + 1
                    next_layer.append(u)
                elif seen <= depth:
                    closing = True
                    if seen == 0 and not into_start:
                        into_start = True
                        if t != t0:
                            graph.mid_layer = True
                            graph.found = search(graph)
                            graph.mid_layer = False
                            if graph.found is not None:
                                return graph
        if closing:
            graph.found = search(graph)
            if graph.found is not None:
                break
        layer = next_layer
        depth += 1
    return graph


# --- loop detection -----------------------------------------------------------


def find_loop(
    system: ITRS,
    t0: RationalTerm,
    budget: int = DEFAULT_BUDGETS.loop_states,
    depth_bound: int = DEFAULT_BUDGETS.depth_bound,
) -> Optional[LoopWitness]:
    """A reduction cycle visiting two distinct terms, which are at positive
    distance however small it is.

    The search stops at the first BFS layer of the reduction graph whose
    explored part holds such a cycle (see reduction_graph), so a larger
    budget never loses a loop that a smaller one found.  In that graph the
    cyclic components are tried with the one holding t0 first, then by
    their least term text.  The loop base is t0 or that least term, the
    prefix is the shortest path from t0 to the base, and the cycle is the
    shortest one through the base when it visits another term; otherwise
    it is the shortest cycle through the base and the least other term of
    the component, by text.

    The growth stops earlier, at the first edge t -> t0 with t not t0,
    when t0 has no self-loop: the witness is fixed there (base t0, empty
    prefix, the shortest cycle through t0), so the rest of the layer
    cannot change it.  When t0 has a self-loop, the other term is the
    least of the whole component, and the layer is finished first.
    """
    return reduction_graph(
        system, t0, budget, depth_bound, lambda graph: _loop_witness(system, graph)
    ).found


def _loop_witness(system: ITRS, graph: ReductionGraph) -> Optional[LoopWitness]:
    """find_loop's choice of witness within the explored graph, or None."""
    t0 = graph.start
    components = [comp for comp in graph.components() if len(comp) > 1]
    # prefer a loop through the start term itself when one exists; only
    # without one are the components ordered by their least term text
    home = [comp for comp in components if t0 in comp]
    for comp in home or sorted(components, key=lambda comp: min(map(str, comp))):
        base = t0 if t0 in comp else min(comp, key=str)
        prefix = graph.path(base)
        if prefix is None:
            continue
        # the shortest cycle through the base leaves it at its first step,
        # unless that step is a self-loop; then steer through another term
        cycle = graph.steps(base, base)
        other = rewrite_step(system, base, cycle[0])
        if other == base:
            other = min((t for t in comp if t != base), key=str)
            cycle = graph.steps(base, other) + graph.steps(other, base)
        sep = distance(system.metric, base, other)
        return LoopWitness(t0, tuple(prefix), tuple(cycle), base, other, sep)
    return None


def find_root_recurrence(
    system: ITRS,
    t0: RationalTerm,
    budget: int = DEFAULT_BUDGETS.loop_states,
    depth_bound: int = DEFAULT_BUDGETS.depth_bound,
) -> Optional[LoopWitness]:
    """A reduction cycle that contracts a root redex: a direct witness
    against top-termination.

    The search stops at the first BFS layer of the reduction graph whose
    explored part has a root step inside a strongly connected component
    (see reduction_graph).  The witness's cycle starts with that step.
    Which component's step is taken depends on the whole layer, so this
    search does not stop in the middle of one.
    """
    return reduction_graph(system, t0, budget, depth_bound, _root_recurrence).found


def _root_recurrence(graph: ReductionGraph) -> Optional[LoopWitness]:
    """A cycle of the explored graph that starts with a root step, or None."""
    if graph.mid_layer:
        return None
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


# --- diameters and limits ------------------------------------------------------


def sliding_diameter(m: TermMetric, tr: Trace, window: int) -> list:
    if window < 2:
        raise TermError("window must be at least 2")
    terms = tr.all_terms()
    if len(terms) < window:
        return []
    # near[j][k] = d(terms[j], terms[j + 1 + k]): each pair within a window
    # once, and the pairs of their product graphs solved once for all
    solved: dict = {}
    near = [
        [shared_distance(m, a, b, solved) for b in terms[j + 1 : j + window]]
        for j, a in enumerate(terms)
    ]
    return [
        max(d for j in range(i, i + window - 1) for d in near[j][: i + window - 1 - j])
        for i in range(len(terms) - window + 1)
    ]


def _knot(t: RationalTerm, p: Position, q: Position) -> RationalTerm:
    """The subterm of t at p, with the (relative) position q redirected
    back to its own root: the rational solution of X = C[X] where C is
    the context between p and p·q.  A raw copy of the spine along q, whose
    last edge goes back to its first node, placed by from_nodes."""
    spine = [subterm(t, p)]
    for i in q[:-1]:
        spine.append(spine[-1].args[i - 1])
    nodes = [
        (APP, s.symbol, s.args[: i - 1] + ((k + 1) % len(q),) + s.args[i:])
        for k, (s, i) in enumerate(zip(spine, q))
    ]
    return from_nodes(nodes, 0)


def _generalise(t: RationalTerm, depth: int) -> RationalTerm:
    """t cut at depth: each subterm met there becomes a variable named for
    its node, so equal cut subterms share one name and t is an instance of
    the result."""
    names: dict = {}
    made: dict = {}

    def cut(node: RationalTerm, d: int) -> RationalTerm:
        if node.args is None:
            return node
        if d == 0:
            return var(names.setdefault(node, f"?{len(names)}"))
        key = (node, d)
        if key not in made:
            made[key] = app(node.symbol, [cut(c, d - 1) for c in node.args])
        return made[key]

    return cut(t, depth)


def _repeats(seg: Segment, start: int, period: int) -> bool:
    """Does the period from start pump its redex subterm s for ever?

    Yes if the redex subterm one period on is s itself.  Yes also if the
    period's steps, replayed at their positions relative to s on P, the
    shallowest generalisation of s (s cut into variables at a depth) on
    which they all apply, rewrite P to a term holding an instance P.mu at
    q: rewriting is closed under substitution and context, so P.mu^k
    pumps again for every k, and s is an instance of P.  A depth past the
    summed lengths of the period's positions and sizes of its left-hand
    sides reads all that the steps read, so no deeper cut is tried.
    """
    p = seg.steps[start].position
    s = subterm(seg.terms[start], p)
    q = seg.steps[start + period].position[len(p) :]
    if subterm(seg.terms[start + period], p + q) is s:
        return True
    steps = []
    for occ in seg.steps[start : start + period]:
        if occ.position[: len(p)] != p:
            return False
        steps.append((occ.position[len(p) :], occ.rule))
    for depth in range(1, sum(len(r) + rule.lhs._pattern[0] for r, rule in steps) + 1):
        pattern = _generalise(s, depth)
        u = pattern
        for r, rule in steps:
            sigma = match(rule.lhs, u, r)
            if sigma is None:
                break
            u = replace(u, r, rule.rhs, sigma)
        else:
            return match(pattern, u, q) is not None
        if pattern is s:
            return False
    return False


def extrapolate_limit(seg: Segment) -> Optional[RationalTerm]:
    """Rational limit of a context-pumping segment.

    Detects redex positions descending along one spine with a fixed
    period and a constant written context, builds the mu-term limit, and
    verifies prefix agreement (agreement outside the active position) on
    every recorded term of the pumping suffix.  The period must also
    repeat (see _repeats): its steps turn the start's redex subterm into a
    context holding, at q, the subterm itself or an instance of a
    generalisation of it.  So the rules of the period apply again at p.q,
    p.q.q, ... for ever, whether the pumped argument stays put or grows,
    while a tail that only consumes a finite argument is refused.

    Not yet proved: that leftmost-outermost keeps choosing these redexes.
    The lemma still to prove is that no later pump makes a redex above or
    left of p.q (p the start's redex position).  It needs a bound on the
    depth of the left-hand sides, checked on the limit's context.
    """
    if not seg.steps:
        return seg.terms[0]
    n = len(seg.steps)
    pos = [occ.position for occ in seg.steps]
    for period in range(1, MAX_PERIOD + 1):
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
            if not ok or not _repeats(seg, start, period):
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
) -> Verdict:
    """Loop search, then limit extrapolation of the leftmost-outermost run
    plus membership, then a sliding-diameter floor; honest Unknown
    otherwise, whose note names what bound it.  The run reads the steps of
    the terms the loop search expanded from its graph."""
    graph = reduction_graph(
        system, t0, budgets.loop_states, budgets.depth_bound,
        lambda g: _loop_witness(system, g),
    )
    if graph.found is not None:
        return diverging(graph.found)

    tr = simulate(system, t0, max_steps=budgets.max_steps, depth_bound=budgets.depth_bound,
                  reducts=graph.edges)
    limit = extrapolate_limit(tr.segments[-1])
    membership = None
    if limit is not None and tr.segments[-1].steps:
        membership = is_member(system.metric, limit)
        if membership.kind == "non_member":
            return diverging(NonMemberLimitWitness(limit, membership))
        if membership.kind == "member":
            return converging(limit, note="strategy leftmost-outermost")
    if is_normal_form(system, tr.all_terms()[-1]):  # stuck, or at its last step
        return converging(tr.all_terms()[-1], note="normal form reached")

    diams = [] if tr.stuck else sliding_diameter(system.metric, tr, WINDOW)
    floor = min(float(d) for d in diams) if diams else None
    if floor is not None and floor > TOL:
        return diverging(
            DiameterFloorWitness(floor, WINDOW, tuple(diams)),
            note="desk-scale evidence, not a proof",
        )
    bounds = []
    if graph.exhausted:
        bounds.append(f"loop search stopped at loop_states={budgets.loop_states}")
    if membership is not None:
        bounds.append(f"membership of the extrapolated limit undecided: {membership.detail}")
    if tr.stuck:
        bounds.append(f"the run stopped at redexes below depth_bound={budgets.depth_bound}")
    elif membership is None:
        bounds.append(f"the run neither got stuck nor pumped in max_steps={budgets.max_steps}")
    if floor is not None:
        bounds.append(f"diameter floor {floor:g} at or below TOL={TOL:g}")
    return unknown(budgets, note="; ".join(bounds))


@record(frozen=True)
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
) -> StrongReport:
    """Convergence of the indirected system, plus a direct root-redex
    recurrence check."""
    verdict = classify_convergence(indirect(system).system, t0, budgets)
    recurrence = find_root_recurrence(
        system, t0, budget=budgets.loop_states, depth_bound=budgets.depth_bound
    )
    return StrongReport(verdict, recurrence)


# --- focussed sequences ----------------------------------------------------------


@record(frozen=True)
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
    budget: int = DEFAULT_WEAK_BUDGET,
) -> FocussedReport:
    """Evaluate the focussed-sequence predicate on the recorded subterm
    sequence at p, with bounded reachability as the weak-reduction oracle:
    one Reach at REACH_DEPTH for the whole probe, so each (a, b) is
    searched once and each term expanded once."""
    seq = [subterm(t, p) for t in tr.all_terms()]
    n = len(seq)
    reach = Reach(system, REACH_DEPTH)

    zetas = {}
    failures = []
    for gamma in range(n):
        found = None
        for zeta in range(n):
            if all(reach.path(seq[gamma], seq[kappa], budget) is not None
                   for kappa in range(zeta, n)):
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
                witnesses[(gamma, kappa)] = tuple(reach.path(seq[gamma], seq[kappa], budget))
    return FocussedReport(beta is not None, beta, zetas, witnesses, tuple(failures))


# --- predicate sequences and the simulated top layer ------------------------------


@record
class Fp:
    """True of terms that weakly reduce to a later principal-p subterm.

    Asks its one Reach at REACH_DEPTH, alive as long as this probe, so
    each (term, target) is searched once per budget."""

    position: Position
    trace: Trace
    system: ITRS
    coloring: Coloring
    budget: int = DEFAULT_WEAK_BUDGET

    def __post_init__(self):
        self.reach = Reach(self.system, REACH_DEPTH)
        p = self.position
        # (gamma, subterm at p) for each trace term in which p is principal
        self.targets = [
            (gamma, subterm(t, p))
            for gamma, t in self.trace.indexed_terms()
            if p in cut_positions(t, self.coloring, len(p))
        ]

    def __call__(self, beta: tuple, term: RationalTerm) -> bool:
        return any(
            gamma >= beta and self.reach.path(term, target, self.budget) is not None
            for gamma, target in self.targets
        )


@record
class Kt:
    """True of terms that are not weak reducts of the anchor term.

    Asks its one Reach at REACH_DEPTH, alive as long as this probe, so
    each term is searched for once per budget."""

    anchor: RationalTerm
    system: ITRS
    budget: int = DEFAULT_WEAK_BUDGET

    def __post_init__(self):
        self.reach = Reach(self.system, REACH_DEPTH)

    def __call__(self, beta: tuple, term: RationalTerm) -> bool:
        return self.reach.path(self.anchor, term, self.budget) is None


@record
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

    def behind(t: RationalTerm):
        """The principal cut of t, and its edges with the subterm behind each."""
        cut = ppos(t, coloring)
        return cut, [((node, arg), node.args[arg]) for node, arg in cut.edges]

    def choices(subs, beta: tuple) -> dict:
        """The fill choice per cut edge at time beta."""
        out = {}
        for edge, sub in subs:
            key = (beta, sub)
            if key not in evaluated:
                evaluated[key] = s(beta, sub)
            out[edge] = evaluated[key]
        return out

    fills: dict = {}  # (term, choices in cut-edge order) -> filled term

    def filled(t, cut, chosen):
        """t filled at its cut as chosen, built once per term and choices:
        equal choices at beta and its successor (no flip) or at a limit
        and the next segment's first term reuse the term built first."""
        key = (t, tuple(chosen.values()))
        if key not in fills:
            fills[key] = toplayer_fill(
                t, cut, {e: (l if keep else r) for e, keep in chosen.items()}
            )
        return fills[key]

    out_segments = []
    flip_counts = []
    violations = []
    for k, seg in enumerate(tr.segments):
        sim_terms: list[RationalTerm] = []
        for i, t in enumerate(seg.terms):
            beta = (k, i)
            cut, subs = behind(t)
            now, nxt = choices(subs, beta), choices(subs, _next_index(beta))
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
            if not _steps_between(root_system, odd, after, seg.steps[i]):
                violations.append(
                    (2 * i + 1, "stage-1 transition is not a root-system step")
                )
        sim_limit = None
        if seg.limit is not None:
            lim_cut, lim_subs = behind(seg.limit)
            sim_limit = filled(seg.limit, lim_cut, choices(lim_subs, (k + 1, 0)))
        out_segments.append(Segment(sim_terms, limit=sim_limit))

    violations.extend(_monotone_violations(system, s, evaluated))
    sim_trace = Trace(out_segments)
    diams = sliding_diameter(system.metric, sim_trace, WINDOW)
    # Cauchy-ness is a tail property: measure the floor on the last segment,
    # whose windows are the last ones of the whole trace
    tail = diams[len(sim_trace.all_terms()) - len(out_segments[-1].terms) :]
    floor = min((float(d) for d in tail), default=0.0)
    return XiReport(sim_trace, flip_counts, violations, diams, floor <= TOL)


def _steps_between(
    system: ITRS, a: RationalTerm, b: RationalTerm, step: Optional[RedexOccurrence]
) -> list[RedexOccurrence]:
    """The redex occurrences that take a to b in one step, searched two
    levels below the recorded step's position (REACH_DEPTH at least, and
    REACH_DEPTH alone for a simulated step, which is None)."""
    bound = REACH_DEPTH if step is None else max(REACH_DEPTH, len(step.position) + 2)
    return [occ for occ, res in successors(system, a, depth_bound=bound) if res == b]


def _monotone_violations(system: ITRS, s, evaluated: dict) -> list:
    """Check the predicate-sequence law on the evaluated triples:
    beta <= gamma and t ->>_w u and s(gamma)(u) imply s(beta)(t).

    Asks, under MONOTONE_BUDGET, the predicate's own Reach when it has
    one for this system (as Fp and Kt do), else a fresh one at
    REACH_DEPTH: its answers are keyed by budget, so none found under the
    predicate's own budget is read here, while the terms it expanded are
    not expanded again."""
    out = []
    reach = getattr(s, "reach", None)
    if not isinstance(reach, Reach) or reach.system is not system:
        reach = Reach(system, REACH_DEPTH)
    for (beta, t), vt in evaluated.items():
        if vt:
            continue
        for (gamma, u), vu in evaluated.items():
            if beta <= gamma and vu and reach.path(t, u, MONOTONE_BUDGET) is not None:
                out.append(("monotone-law", beta, gamma, str(t), str(u)))
    return out


# --- the cutoff of a whole trace ---------------------------------------------------


@record
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
                hits = _steps_between(system, a, b, seg.steps[i])
                if not hits:
                    violations.append((index, "cut step is not a reduction step"))
                elif n == 1 and all(
                    coloring.get(occ.rule.lhs.root_symbol) != root_color
                    for occ in hits
                ):
                    root_only = False
            index += 1
        out_segments.append(
            Segment(cut_terms, limit=seg.limit and cutoff(seg.limit, n, u, coloring))
        )
    return CutoffReport(Trace(out_segments), stutters, violations, root_only)
