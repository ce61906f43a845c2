"""Convergence analysis: simulation strategies, loop detection with
replayable witnesses, limit extrapolation, the classification pipeline,
strong-convergence and focussed probes, and the guided top-layer
simulations."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from itrsbench import (
    ITRS,
    Budgets,
    DiameterFloorWitness,
    Fp,
    Kt,
    LoopWitness,
    NonMemberLimitWitness,
    RationalTerm,
    Rule,
    Segment,
    Signature,
    TermError,
    Trace,
    app,
    classify_convergence,
    cutoff_trace,
    extrapolate_limit,
    find_loop,
    find_root_recurrence,
    focussed_probe,
    metric_id,
    metric_infty,
    parse,
    positions,
    redexes,
    replay_loop,
    rewrite_step,
    simulate,
    sliding_diameter,
    strong_convergence_probe,
    subterm,
    xi_trace,
)
from itrsbench import convergence, rewriting
from itrsbench.itrsfile import parse_itrs
from itrsbench.layers import ppos, toplayer_fill
from itrsbench.corpus import (
    diverge_exa_trace,
    exnonlin_trace,
    load,
    load_union,
    rearrange_trace,
    string_trace,
    union_traces,
)
from conftest import (
    CORPUS_UNIONS,
    random_finite_term,
    random_rational_term,
    rng_for,
    seeded_union_terms,
)
from full_graph_search import full_reduction_graph, loop_in, root_recurrence_in
import hand_walks


# --- simulation ----------------------------------------------------------------


def test_simulate_outermost_vs_innermost():
    system, _ = load_union("toyama-r", "toyama-s")
    t = parse("G(G(0, 1), 1)", system.sig)
    outer = simulate(system, t, "leftmost-outermost", max_steps=1)
    inner = simulate(system, t, "leftmost-innermost", max_steps=1)
    assert outer.segments[0].steps[0].position == ()
    assert inner.segments[0].steps[0].position == (1,)


@pytest.mark.parametrize("strategy", ["leftmost-outermost", "leftmost-innermost"])
def test_simulate_picks_the_leftmost_outermost_or_innermost_redex(strategy):
    """By the definitions: the least position among the redexes with no
    other redex strictly above (outermost) or below (innermost) them, and
    the first rule in rule order there; a term with no redex is stuck."""
    rng = rng_for(f"pick-{strategy}")
    system, _ = load_union("toyama-r", "toyama-s")

    def below(q, p):
        return len(q) > len(p) and q[: len(p)] == p

    picked = 0
    for _ in range(80):
        if rng.random() < 0.5:
            t = random_rational_term(rng, system.sig, rng.randint(1, 5))
        else:
            t = random_finite_term(rng, system.sig, 4)
        occs = redexes(system, t, 8)
        tr = simulate(system, t, strategy, max_steps=1, depth_bound=8)
        if not occs:
            assert tr.stuck
            continue
        if strategy == "leftmost-outermost":
            keep = [o for o in occs if not any(below(o.position, q.position) for q in occs)]
        else:
            keep = [o for o in occs if not any(below(q.position, o.position) for q in occs)]
        assert tr.segments[0].steps == [min(keep, key=lambda o: o.position)]
        picked += 1
    assert picked > 40


def test_simulate_script_and_validate():
    system = load("exnonlin-s").system
    tr = simulate(system, parse("0", system.sig), "script",
                  script=[((), "succ"), ((1,), "succ")])
    assert [str(t) for t in []] == []
    assert tr.all_terms()[-1] == parse("S(S(0))", system.sig)
    tr.validate(system)


def test_a_simulated_step_is_one_parallel_step():
    """A simulated step (None) validates when it contracts pairwise
    disjoint redexes, none, one, several, or infinitely many on a cycle,
    and not when a step is left out of the middle of a trace."""
    system, _ = load_union("exnonlin-r", "exnonlin-s")

    def check(*texts):
        terms = [parse(t, system.sig) for t in texts]
        Trace([Segment(terms, [None] * (len(terms) - 1))]).validate(system)

    check("F(0, 0, 0)", "F(0, 0, 0)", "F(0, S(0), 0)", "F(S(0), S(0), S(0))")
    check("F(x, 0, 0)", "F(x, S(0), 0)")
    check("mu X. F(0, X, X)", "mu X. F(S(0), X, X)", "mu X. F(S(S(0)), X, X)")
    chain = ["F(0, 0, 0)", "F(0, 0, S(0))", "F(0, S(0), 0)", "F(S(0), S(0), 0)",
             "F(S(0), 0, S(0))"]
    check(*chain)
    for k in (2, 3):
        with pytest.raises(TermError, match=f"step {k - 1} does not replay"):
            check(*chain[:k], *chain[k + 1 :])
    with pytest.raises(TermError, match="step 0 does not replay"):
        check("mu X. F(0, X, X)", "mu X. F(S(S(0)), X, X)")


def test_simulate_script_matches_once_per_step(monkeypatch):
    system, _, tr = exnonlin_trace()
    script = [(occ.position, occ.rule.name) for occ in tr.segments[0].steps]
    calls = Counter()
    match_at = rewriting._match_at

    def counted(lhs, root):
        calls[None] += 1
        return match_at(lhs, root)

    monkeypatch.setattr(rewriting, "_match_at", counted)
    again = simulate(system, tr.all_terms()[0], "script", script=script)
    assert again.all_terms() == tr.all_terms()
    assert calls[None] == len(script)
    with pytest.raises(TermError, match="does not apply"):
        simulate(system, tr.all_terms()[0], "script", script=[((1, 1), "succ")])


def test_simulate_stuck_on_normal_form():
    system, _ = load_union("toyama-r", "toyama-s")
    tr = simulate(system, parse("G(0, 1)", system.sig), max_steps=10)
    assert tr.stuck
    assert tr.all_terms()[-1] in (parse("0", system.sig), parse("1", system.sig))


def test_segment_shape_enforced():
    system = load("exnonlin-s").system
    with pytest.raises(Exception):
        Segment([parse("0", system.sig)], [None])


# --- loop detection ------------------------------------------------------------


def test_no_loop_in_terminating_system():
    system, _ = load_union("toyama-r", "toyama-s")
    assert find_loop(system, parse("G(0, 1)", system.sig), budget=2_000) is None


def test_pumping_system_has_no_loop():
    system = load("exnonlin-s").system
    assert find_loop(system, parse("0", system.sig), budget=2_000) is None


def test_found_loops_replay():
    system, _ = load_union("toyama-r", "toyama-s")
    w = find_loop(system, parse("F(0, 1, G(0, 1))", system.sig), budget=5_000)
    assert w is not None
    assert replay_loop(system, w)
    assert w.separation > 0


def test_root_recurrence_on_cyclic_rule():
    sig = Signature({"A": 0, "B": 0})
    from itrsbench import ITRS, Rule, app, metric_infty

    system = ITRS(sig, metric_infty(sig),
                  [Rule("ab", app("A"), app("B")), Rule("ba", app("B"), app("A"))])
    w = find_root_recurrence(system, app("A"), budget=100)
    assert w is not None
    assert any(occ.position == () for occ in w.cycle)


@pytest.mark.parametrize("n", [29, 30, 40])
def test_a_loop_below_tol_is_still_a_loop(n):
    """A -> B, B -> A under infty: S^n(A) and S^n(B) are at 2^-n, below
    TOL from n = 30 on, but distinct terms, so the loop between them is
    found and replays."""
    sig = Signature({"A": 0, "B": 0, "S": 1})
    system = ITRS(sig, metric_infty(sig),
                  [Rule("ab", app("A"), app("B")), Rule("ba", app("B"), app("A"))])
    verdict = classify_convergence(
        system, parse("S(" * n + "A" + ")" * n, sig), Budgets(depth_bound=n + 2)
    )
    assert verdict.kind == "diverging"
    assert isinstance(verdict.witness, LoopWitness)
    assert replay_loop(system, verdict.witness)
    assert verdict.witness.separation == Fraction(1, 2**n)


# --- extrapolation --------------------------------------------------------------


def test_extrapolate_successor_pumping():
    system = load("exnonlin-s").system
    tr = simulate(system, parse("0", system.sig), max_steps=10, depth_bound=16)
    limit = extrapolate_limit(tr.segments[0])
    assert limit == parse("mu X. S(X)", system.sig)


@pytest.mark.parametrize("union", CORPUS_UNIONS)
def test_knot_matches_the_spine_copy(union):
    _system, _coloring, terms = seeded_union_terms(union, 40)
    rng = rng_for(f"knot-oracle:{union}")
    for t in terms:
        ps = sorted(positions(t, 3))
        for p in rng.sample(ps, min(3, len(ps))):
            qs = sorted(positions(subterm(t, p), 4) - {()})
            for q in rng.sample(qs, min(4, len(qs))):
                assert convergence._knot(t, p, q) is hand_walks.knot(t, p, q), (t, p, q)


def test_extrapolate_rejects_aperiodic():
    system, _ = load_union("toyama-r", "toyama-s")
    tr = simulate(system, parse("G(0, 1)", system.sig), max_steps=4)
    assert extrapolate_limit(tr.segments[0]) is None


def test_extrapolate_inner_pumping_keeps_context():
    system = load("string").system
    tr = simulate(system, parse("A(B(E(nil)))", system.sig), max_steps=2)
    # too short to extrapolate; must not crash
    extrapolate_limit(tr.segments[0])


# --- classification pipeline -----------------------------------------------------


def test_classify_converging_to_infinite_limit():
    system = load("exnonlin-s").system
    verdict = classify_convergence(system, parse("0", system.sig))
    assert verdict.kind == "converging"
    assert verdict.limit == parse("mu X. S(X)", system.sig)


def test_classify_diverging_by_loop():
    system, _ = load_union("toyama-r", "toyama-s")
    verdict = classify_convergence(system, parse("F(0, 1, G(0, 1))", system.sig))
    assert verdict.kind == "diverging"
    assert isinstance(verdict.witness, LoopWitness)


def test_classify_diverging_by_non_member_limit():
    system, _ = load_union("exa-layers-r", "exa-layers-s")
    t = parse("mu X. F(F(H(X)))", system.sig)
    verdict = classify_convergence(system, t)
    assert verdict.kind == "diverging"
    assert isinstance(verdict.witness, NonMemberLimitWitness)
    assert verdict.witness.membership.kind == "non_member"


def test_classify_diverging_by_diameter_floor():
    system, tr = string_trace()
    verdict = classify_convergence(
        system, tr.all_terms()[0], Budgets(max_steps=18, depth_bound=24)
    )
    assert verdict.kind == "diverging"
    assert isinstance(verdict.witness, DiameterFloorWitness)
    assert min(verdict.witness.diameters) > 0


def test_classify_stuck_is_converging():
    system, _ = load_union("toyama-r", "toyama-s")
    verdict = classify_convergence(system, parse("G(0, 1)", system.sig))
    assert verdict.kind == "converging"


# runs that pump a redex whose argument grows, so that no redex subterm
# of the run repeats
GROWING = {
    "growing": "sig F/1\nsig G/1\nsig H/1\nsig a/0\n"
               "rule grow: F(x) -> G(F(H(x)))\nterm start = F(a)",
    "growing pair": "sig F/2\nsig G/1\nsig H/1\nsig a/0\n"
                    "rule grow: F(x, x) -> G(F(H(x), H(x)))\nterm start = F(a, a)",
}


def _corpus_start(name: str):
    if name == "toyama union":
        system, _ = load_union("toyama-r", "toyama-s")
        return system, parse("F(0, 1, G(0, 1))", system.sig)
    if name in GROWING:
        f = parse_itrs("metric infty\n" + GROWING[name])
    else:
        f = load({"toyama": "toyama-r"}.get(name, name))
    return f.system, f.terms["start"]


CORPUS_STARTS = ("string", "zantema", "toyama", "toyama union")
BUDGET_GRID = [Budgets(loop_states=2_000, max_steps=steps, depth_bound=depth)
               for steps in (8, 12, 16, 20, 24, 32) for depth in (8, 16)]


def verdicts_without_a_flip(system, t0, grid) -> dict:
    """The verdict at each budget of grid, after checking that none is
    converging where another is diverging and that every loop witness
    replays."""
    verdicts = {budgets: classify_convergence(system, t0, budgets) for budgets in grid}
    for budgets, verdict in verdicts.items():
        if isinstance(verdict.witness, LoopWitness):
            assert replay_loop(system, verdict.witness), budgets
    kinds = {verdict.kind for verdict in verdicts.values()}
    assert not {"converging", "diverging"} <= kinds, kinds
    return verdicts


@pytest.mark.parametrize("name", CORPUS_STARTS + tuple(GROWING))
def test_verdicts_do_not_flip_with_the_budget(name):
    """A corpus start term is never converging at one budget of the grid
    and diverging at another, and every loop witness replays."""
    verdicts_without_a_flip(*_corpus_start(name), BUDGET_GRID)


def test_a_run_that_ends_in_a_normal_form_at_its_last_step_converges():
    """grow: F(x) -> S(F(x)) and cut: S^4(x) -> T from F(a): the
    leftmost-outermost run reaches the normal form T at its fifth step.
    On a grid of its own (max_steps 2-8, depth_bound 8 and 16) the verdict
    kind never flips, and from max_steps 5 on it is converging to T, by
    "normal form reached", also where the run used every step and never
    tried one more.  Limits are not compared across the grid: at
    max_steps 2-4 the run still extrapolates mu X. S(X), whose root is a
    cut redex that leftmost-outermost would pick, a defect of the period
    extrapolation not mended here."""
    f = parse_itrs("metric infty\nsig F/1\nsig S/1\nsig T/0\nsig a/0\n"
                   "rule grow: F(x) -> S(F(x))\nrule cut: S(S(S(S(x)))) -> T\n"
                   "term start = F(a)")
    grid = [Budgets(loop_states=2_000, max_steps=steps, depth_bound=depth)
            for steps in range(2, 9) for depth in (8, 16)]
    verdicts = verdicts_without_a_flip(f.system, f.terms["start"], grid)
    for budgets, verdict in verdicts.items():
        if budgets.max_steps >= 5:
            assert verdict.kind == "converging", budgets
            assert verdict.limit is parse("T", f.system.sig), budgets
            assert verdict.note == "normal form reached", budgets


def test_the_string_run_pumps_no_period_whose_redex_does_not_repeat():
    """The string run returns to the root ever later, so its `bs` tail is
    no pumping period: at every budget of the grid the verdict rests on
    the diameter floor, not on an extrapolated limit."""
    system, t0 = _corpus_start("string")
    for budgets in BUDGET_GRID:
        verdict = classify_convergence(system, t0, budgets)
        assert verdict.kind == "diverging", budgets
        assert isinstance(verdict.witness, DiameterFloorWitness), budgets


@pytest.mark.parametrize("name", GROWING)
def test_extrapolate_pumping_with_a_growing_argument(name):
    """No redex subterm of the run repeats, but the rule pumps an instance
    of a generalisation of it, so the limit is G(G(...)) at every length."""
    system, t0 = _corpus_start(name)
    for steps in (3, 8, 16):
        tr = simulate(system, t0, max_steps=steps, depth_bound=16)
        assert extrapolate_limit(tr.segments[0]) is parse("mu X. G(X)", system.sig)


@pytest.mark.parametrize("name", CORPUS_STARTS)
def test_the_run_reads_the_loop_search_graph(monkeypatch, name):
    """classify_convergence hands the loop search's graph to the run as a
    successors memo; every verdict and witness is the one computed
    without it."""
    system, t0 = _corpus_start(name)
    with_memo = [classify_convergence(system, t0, b) for b in BUDGET_GRID]
    plain = convergence.simulate
    monkeypatch.setattr(convergence, "simulate",
                        lambda *args, **kw: plain(*args, **{**kw, "reducts": None}))
    assert [classify_convergence(system, t0, b) for b in BUDGET_GRID] == with_memo


def test_a_memoised_run_searches_no_expanded_term(monkeypatch):
    system, t0 = _corpus_start("string")
    graph = convergence.reduction_graph(system, t0, 2_000, 24, lambda g: None)
    assert not graph.exhausted
    searched = []
    find = convergence.redexes
    monkeypatch.setattr(convergence, "redexes",
                        lambda s, t, d: searched.append(t) or find(s, t, d))
    tr = simulate(system, t0, max_steps=18, depth_bound=24, reducts=graph.edges)
    assert searched == []
    monkeypatch.undo()
    assert tr.segments[0].steps == simulate(system, t0, max_steps=18, depth_bound=24).segments[0].steps


def test_an_unknown_verdict_names_the_budgets_that_bound_it():
    system, t0 = _corpus_start("string")
    verdict = classify_convergence(system, t0, Budgets(loop_states=3, max_steps=2))
    assert verdict.kind == "unknown"
    assert "loop_states=3" in verdict.note and "max_steps=2" in verdict.note
    closed = classify_convergence(system, t0, Budgets(loop_states=2_000, max_steps=2))
    assert closed.kind == "unknown"
    assert "loop_states" not in closed.note and "max_steps=2" in closed.note


@pytest.mark.parametrize("redex, reduct", [("F(Z)", "Z"), ("A", "Z")])
def test_a_run_stuck_above_a_deep_redex_claims_no_normal_form(redex, reduct):
    """Under F(x) -> x and A -> Z, S^10(F(Z)) and S^10(A) have their one
    redex at depth 10.  At depth_bound 8 the run stops at once, at no
    normal form: unknown, and the note names depth_bound.  At 16 it
    reaches S^10(Z)."""
    sig = Signature({"S": 1, "F": 1, "Z": 0, "A": 0})
    rules = [Rule("drop", parse("F(x)", sig), parse("x", sig)), Rule("a", app("A"), app("Z"))]
    system = ITRS(sig, metric_infty(sig), rules)
    t0 = parse("S(" * 10 + redex + ")" * 10, sig)
    stopped = classify_convergence(system, t0, Budgets(depth_bound=8))
    assert stopped.kind == "unknown" and stopped.limit is None
    assert "depth_bound=8" in stopped.note and "max_steps" not in stopped.note
    reached = classify_convergence(system, t0, Budgets(depth_bound=16))
    assert reached.kind == "converging" and reached.note == "normal form reached"
    assert reached.limit is parse("S(" * 10 + reduct + ")" * 10, sig)


def test_sliding_diameter_of_constant_trace():
    system = load("exnonlin-s").system
    t = parse("0", system.sig)
    tr = Trace([Segment([t, t, t], [None, None])])
    assert sliding_diameter(system.metric, tr, window=2) == [0, 0]


def test_sliding_diameter_measures_each_pair_once(monkeypatch):
    """On the corpus traces, each pair of terms within a window is measured
    once per call, and the diameters are those of measuring every window
    afresh: equal values of equal types, exact Fractions included."""
    traces = [(s, tr) for _name, s, _c, tr, _fill in union_traces()]
    traces.append(string_trace())
    calls = []
    measure = convergence.shared_distance
    monkeypatch.setattr(
        convergence,
        "shared_distance",
        lambda m, a, b, solved: calls.append(1) or measure(m, a, b, solved),
    )
    for system, tr in traces:
        n = len(tr.all_terms())
        for window in (2, 3, 4, 5):
            calls.clear()
            got = sliding_diameter(system.metric, tr, window)
            want = hand_walks.sliding_diameter(system.metric, tr, window)
            assert [(type(d), d) for d in got] == [(type(d), d) for d in want]
            assert len(calls) == sum(min(window - 1, n - 1 - j) for j in range(n))
            assert any(d != 0 for d in got)


# --- strong convergence ----------------------------------------------------------


def test_strong_probe_flags_root_recurrence():
    system, _ = load_union("collapsing-r", "collapsing-s")
    t = parse("G(mu X. F(H(X)))", system.sig)
    report = strong_convergence_probe(system, t, Budgets(loop_states=2_000))
    assert report.violated
    assert report.root_recurrence is None or replay_loop(
        system, report.root_recurrence
    )


def test_strong_probe_clean_on_terminating_system():
    system = load("collapsing-r").system  # G(H(x)) -> G(x) terminates
    t = parse("G(H(H(x)))", system.sig)
    report = strong_convergence_probe(system, t, Budgets(loop_states=2_000))
    assert not report.violated


# --- focussed probe --------------------------------------------------------------


def test_focussed_probe_constant_sequence():
    system = load("exnonlin-s").system
    t = parse("S(0)", system.sig)
    tr = Trace([Segment([t, t, t], [None, None])])
    # subterm at (1,) is 0, S(0), ... constant 0 here: trivially focussed
    report = focussed_probe(system, tr, (1,))
    assert report.ok
    assert "finite" in report.note


def test_focussed_probe_skips_non_reaching_prefix():
    """S(Z) is a normal form distinct from Z, so the subterm sequence
    S(Z), Z is focussed only from index 1 on."""
    system, _ = load_union("rearrange-r", "rearrange-s")
    a = parse("J(K(S(Z), Z))", system.sig)
    b = parse("J(K(Z, Z))", system.sig)
    tr = Trace([Segment([a, b], [None])])
    report = focussed_probe(system, tr, (1, 1), budget=200)
    assert report.ok
    assert report.beta == 1
    assert 0 in report.failures


def test_focussed_probe_asks_each_question_once(monkeypatch):
    """On the exnonlin run, each probe searches each (a, b) of its subterm
    sequence at most once, never one with a == b, and expands each term
    once, however many zetas and witnesses ask for it."""
    system, _coloring, tr = exnonlin_trace()
    search, expand = rewriting.bfs_path, rewriting.successors
    for p in [(1,), (2,), (3,)]:
        asked, expanded = Counter(), Counter()
        monkeypatch.setattr(rewriting, "bfs_path", lambda a, b, step, budget: (
            asked.update([(a, b)]) or search(a, b, step, budget)))
        monkeypatch.setattr(rewriting, "successors", lambda s, t, depth_bound: (
            expanded.update([t]) or expand(s, t, depth_bound)))
        rep = focussed_probe(system, tr, p, budget=200)
        assert rep.ok and rep.witnesses
        assert asked and set(asked.values()) == {1}
        assert not any(a == b for a, b in asked)
        assert expanded and set(expanded.values()) == {1}


# --- guided top-layer simulation ---------------------------------------------------


def test_xi_trace_kt_predicate_no_violations():
    system, coloring, tr = exnonlin_trace()
    rule = system.rule("succ")
    anchor = parse("S(S(S(0)))", system.sig)
    report = xi_trace(system, tr, rule, Kt(anchor, system, budget=500),
                      coloring)
    assert report.violations == []
    assert len(report.trace.all_terms()) >= len(tr.all_terms())


def test_xi_trace_rejects_trivial_rule():
    system, coloring, tr = exnonlin_trace()
    from itrsbench import Rule, var

    with pytest.raises(Exception):
        xi_trace(system, tr, Rule("id", parse("0", system.sig),
                                  parse("0", system.sig)),
                 Kt(parse("0", system.sig), system), coloring)


# --- cutoff traces ---------------------------------------------------------------


def test_cutoff_trace_zero_is_constant():
    system, coloring, tr = exnonlin_trace()
    u = parse("0", system.sig)
    report = cutoff_trace(system, tr, 0, u, coloring)
    assert all(t == u for t in report.trace.all_terms())
    assert report.violations == []


def test_cutoff_trace_diverge_exa_flattens():
    """The cut trace at n=2 loses the divergence of the original."""
    system, coloring, tr = diverge_exa_trace(steps=12)
    from itrsbench import var

    report = cutoff_trace(system, tr, 2, var("x"), coloring)
    assert report.violations == []
    original = sliding_diameter(system.metric, tr, window=4)
    cut = sliding_diameter(system.metric, report.trace, window=4)
    assert min(original) >= 1
    assert min(cut) < min(original)


# --- the layered loop search against the full-graph oracle ---------------------------


def _g_spines(depth: int) -> list[str]:
    """Every G-context spine of the given depth holding both 0 and 1."""
    out = ["0", "1"]
    for _ in range(depth):
        out = [f"G({leaf}, {c})" for c in out for leaf in "01"] + [
            f"G({c}, {leaf})" for c in out for leaf in "01"
        ]
    return [c for c in out if "0" in c and "1" in c]


def _loop_starts():
    """(id, system, start, budget, depth bound): the corpus start terms and
    the analyze workload's loop families at its budgets."""
    toyama, _ = load_union("toyama-r", "toyama-s")
    collapsing, _ = load_union("collapsing-r", "collapsing-s")
    rearrange, _ = load_union("rearrange-r", "rearrange-s")
    exa, _ = load_union("exa-layers-r", "exa-layers-s")
    string = load("string")
    zantema = load("zantema")
    toyama_r = load("toyama-r")
    out = [
        ("toyama-r", toyama_r.system, toyama_r.terms["start"], 300, 8),
        ("zantema", zantema.system, zantema.terms["start"], 300, 8),
        ("toyama", toyama, parse("F(0, 1, G(0, 1))", toyama.sig), 5_000, 8),
        ("collapsing", collapsing, parse("G(mu X. F(H(X)))", collapsing.sig), 1_000, 16),
        ("exa", exa, parse("H(mu X. F(F(H(X))))", exa.sig), 300, 8),
        ("exnonlin", load("exnonlin-s").system, parse("0", load("exnonlin-s").system.sig),
         300, 8),
    ]
    for states in (500, 2_000):
        out.append((f"string-{states}", string.system, string.terms["start"], states, 24))
    # cycles whose every edge stays within one BFS layer
    sig = Signature({"S": 0, "A": 0, "B": 0})
    rules = [("sa", "S", "A"), ("sb", "S", "B"), ("ab", "A", "B"), ("ba", "B", "A"),
             ("ss", "S", "S")]
    same_layer = ITRS(sig, metric_id(sig), [Rule(n, app(l), app(r)) for n, l, r in rules])
    out.append(("same-layer", same_layer, app("S"), 300, 8))
    self_loop = ITRS(sig, metric_id(sig), [Rule("aa", app("A"), app("A"))])
    out.append(("self-loop", self_loop, app("A"), 300, 8))
    # a self-loop on the start and a longer cycle through it: the first edge
    # back into S comes from Y, but the witness's other term is the least
    # one of the whole component, A, which closes later in the same layer
    sig = Signature({"S": 0, "Y": 0, "A": 0})
    rules = [("ss", "S", "S"), ("sy", "S", "Y"), ("sa", "S", "A"), ("ys", "Y", "S"),
             ("as", "A", "S")]
    start_loop = ITRS(sig, metric_id(sig), [Rule(n, app(l), app(r)) for n, l, r in rules])
    out.append(("start-self-loop", start_loop, app("S"), 300, 8))
    # S^30(A) and S^30(B) are closer than TOL under infty, but distinct
    sig = Signature({"A": 0, "B": 0, "S": 1})
    flip = ITRS(sig, metric_infty(sig),
                [Rule("ab", app("A"), app("B")), Rule("ba", app("B"), app("A"))])
    out.append(("below-tol", flip, parse("S(" * 30 + "A" + ")" * 30, sig), 300, 32))
    for k in range(4):
        text = "G(" + "H(" * k + "mu X. F(H(X))" + ")" * k + ")"
        for depth in range(8, 15):
            out.append((f"collapsing-{k}-{depth}", collapsing,
                        parse(text, collapsing.sig), 300, depth))
    for depth in (1, 2):
        for i, c in enumerate(_g_spines(depth)):
            out.append((f"toyama-loop-{depth}-{i}", toyama,
                        parse(f"F(0, 1, {c})", toyama.sig), 300, 8))
    for states in range(200, 501, 50):
        out.append((f"rearrange-{states}", rearrange,
                    parse("J(mu X. K(E, X))", rearrange.sig), states, 8))
    return out


LOOP_STARTS = _loop_starts()


def _explored(monkeypatch) -> list:
    """Records the number of terms every reduction_graph call expands."""
    sizes = []
    grow = convergence.reduction_graph

    def counting(*args, **kwargs):
        graph = grow(*args, **kwargs)
        sizes.append(len(graph.edges))
        return graph

    monkeypatch.setattr(convergence, "reduction_graph", counting)
    return sizes


def _replays_from_a_root_step(system, w) -> bool:
    t = w.start
    for occ in w.prefix:
        t = rewrite_step(system, t, occ)
    if t != w.base or w.cycle[0].position != ():
        return False
    for occ in w.cycle:
        t = rewrite_step(system, t, occ)
    return t == w.base


@pytest.mark.parametrize("name, system, t0, budget, depth", LOOP_STARTS,
                         ids=[s[0] for s in LOOP_STARTS])
def test_layered_search_agrees_with_the_full_graph(monkeypatch, name, system, t0,
                                                   budget, depth):
    full = full_reduction_graph(system, t0, budget, depth)
    sizes = _explored(monkeypatch)

    w = find_loop(system, t0, budget, depth)
    assert w == loop_in(system, full)
    assert w is None or replay_loop(system, w)

    r = find_root_recurrence(system, t0, budget, depth)
    assert (r is None) == (root_recurrence_in(full) is None)
    assert r is None or _replays_from_a_root_step(system, r)
    assert max(sizes) <= len(full.edges)


@pytest.mark.parametrize("name", ["collapsing-0-8", "collapsing-3-14", "toyama",
                                  "toyama-loop-2-5", "rearrange-200", "exa"])
def test_a_loop_found_at_one_budget_is_found_at_every_larger_one(name):
    _, system, t0, budget, depth = next(s for s in LOOP_STARTS if s[0] == name)
    found = []
    for b in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, budget):
        w = find_loop(system, t0, b, depth)
        assert w is None or replay_loop(system, w)
        found.append(w is not None)
    assert found == sorted(found)
    assert found[-1] == (name != "exa")


def test_the_loop_through_the_start_term_wins_unprinted(monkeypatch):
    """B -> A, B -> D, B -> C, A <-> D and C -> B: the layer that closes
    B -> C -> B has closed A <-> D first, whose least term text is
    smaller.  The component holding the start term still gives the
    witness, the one of the whole graph's old rule, and no term is
    printed to choose it."""
    sig = Signature({"A": 0, "B": 0, "C": 0, "D": 0})
    rules = [Rule(a + b, app(a), app(b)) for a, b in ["BA", "BD", "BC", "AD", "DA", "CB"]]
    system = ITRS(sig, metric_id(sig), rules)
    t0 = app("B")
    want = loop_in(system, full_reduction_graph(system, t0))
    components = []
    real = convergence.ReductionGraph.components
    monkeypatch.setattr(convergence.ReductionGraph, "components",
                        lambda graph: components.append(real(graph)) or components[-1])

    def unprintable(t):
        raise AssertionError("a term was printed")

    monkeypatch.setattr(RationalTerm, "__str__", unprintable)
    w = find_loop(system, t0)
    assert w == want and w.base == t0 and [step.rule.name for step in w.cycle] == ["BC", "CB"]
    assert sorted(map(len, components[-1])) == [2, 2]  # A <-> D and B <-> C


def test_diamond_joins_run_no_witness_search(monkeypatch):
    sig = Signature({"F": 3, "A": 0, "B": 0})
    system = ITRS(sig, metric_id(sig), [Rule("ab", app("A"), app("B"))])
    t0 = parse("F(A, A, A)", sig)
    full = full_reduction_graph(system, t0)
    into = [u for out in full.edges.values() for _occ, u in out]
    assert len(set(into)) < len(into)  # some term is reached twice
    searches = []
    monkeypatch.setattr(convergence, "_loop_witness",
                        lambda system, graph: searches.append(graph) or None)
    assert find_loop(system, t0) is None
    assert searches == []


def test_root_recurrence_witness_starts_with_a_root_step():
    system, _ = load_union("toyama-r", "toyama-s")
    w = find_root_recurrence(system, parse("F(0, 1, G(0, 1))", system.sig), 300)
    assert w is not None
    assert _replays_from_a_root_step(system, w)


def test_fp_computes_each_reduct_once(monkeypatch):
    system, coloring, tr = rearrange_trace()
    calls = Counter()
    expand = rewriting.successors

    def counting(s, t, depth_bound=6):
        if s is system:
            calls[(t, depth_bound)] += 1
        return expand(s, t, depth_bound)

    monkeypatch.setattr(rewriting, "successors", counting)
    probe = Fp((1, 1), tr, system, coloring, budget=400)
    xi_trace(system, tr, system.rule("jk"), probe, coloring)
    assert len(calls) > 10
    assert set(calls.values()) == {1}


def test_xi_asks_each_question_once(monkeypatch):
    """On the rearrangement run's xi simulation, the predicate's Reach is
    asked 29 distinct (budget, term, target) questions at Fp's budget 400
    and 6 at the monotone check's 2000, and searches each once (the 4 at
    400 with term == target not at all), where the table-free Fp of
    tests/hand_walks.py searches 165 times.  cut_positions runs once per
    trace term, when Fp is built (hand_walks: 165 times), and xi_trace
    takes one principal cut per term and one for the limit."""
    system, coloring, tr = rearrange_trace()
    asked, searched, cuts, tops = Counter(), Counter(), Counter(), Counter()
    path, search = rewriting.Reach.path, rewriting.bfs_path
    cut_positions, ppos = convergence.cut_positions, convergence.ppos

    def counting_path(reach, t, u, budget):
        asked[(budget, t, u)] += 1
        return path(reach, t, u, budget)

    monkeypatch.setattr(rewriting.Reach, "path", counting_path)
    monkeypatch.setattr(rewriting, "bfs_path", lambda t, u, step, budget: (
        searched.update([(budget, t, u)]) or search(t, u, step, budget)))
    monkeypatch.setattr(convergence, "cut_positions",
                        lambda t, c, d: cuts.update([t]) or cut_positions(t, c, d))
    monkeypatch.setattr(convergence, "ppos", lambda t, c: tops.update([t]) or ppos(t, c))
    probe = Fp((1, 1), tr, system, coloring, budget=400)
    assert sum(cuts.values()) == len(tr.all_terms()) == 14
    xi_trace(system, tr, system.rule("jk"), probe, coloring)
    assert set(probe.reach.answers) == set(asked)
    assert Counter(budget for budget, _t, _u in asked) == {400: 29, 2000: 6}
    assert set(searched.values()) == {1}
    assert set(asked) - set(searched) == {(400, t, t) for _b, t, u in asked if t == u}
    assert Counter(budget for budget, _t, _u in searched) == {400: 25, 2000: 6}
    assert sum(cuts.values()) == 14
    limits = [seg.limit for seg in tr.segments if seg.limit is not None]
    assert tops == Counter(tr.all_terms() + limits)


def test_xi_fills_each_term_and_choice_once(monkeypatch):
    """On the rearrangement run's xi simulation, toplayer_fill runs once
    per distinct (term, fill choices): 16 times for the 29 simulated
    terms and limit, since 10 of the 14 terms flip no edge and the first
    segment's limit is filled as the second segment's first term is."""
    system, coloring, tr = rearrange_trace()
    calls = []
    fill = convergence.toplayer_fill
    monkeypatch.setattr(convergence, "toplayer_fill",
                        lambda t, cut, xi: calls.append((t, tuple(xi.items()))) or fill(t, cut, xi))
    probe = Fp((1, 1), tr, system, coloring, budget=400)
    rep = xi_trace(system, tr, system.rule("jk"), probe, coloring)
    assert rep.flip_counts.count(0) == 10
    assert len(calls) == len(set(calls)) == 16


def xi_cases():
    """(name, system, coloring, trace, rule, predicate factory) of every xi
    run the suites make, and a few more: the factory takes the module
    whose Fp or Kt it builds."""

    def exnonlin():
        system, coloring, tr = exnonlin_trace()
        lo = simulate(system, parse("F(0, 0, 0)", system.sig), max_steps=4)
        anchor = parse("S(S(S(0)))", system.sig)
        yield "exnonlin-kt", system, coloring, tr, "succ", lambda m: m.Kt(anchor, system, 500)
        yield ("exnonlin-lo-fp", system, coloring, lo, "succ",
               lambda m: m.Fp((1,), lo, system, coloring, 500))
        for p in [(1,), (2,), (3,)]:
            yield (f"exnonlin-fp{p}", system, coloring, tr, "succ",
                   lambda m, p=p: m.Fp(p, tr, system, coloring, 200))

    def rearrange():
        system, coloring, tr = rearrange_trace()
        anchor = parse("J(mu X. K(Z, X))", system.sig)
        yield ("rearrange-fp", system, coloring, tr, "jk",
               lambda m: m.Fp((1, 1), tr, system, coloring, 400))
        yield "rearrange-kt", system, coloring, tr, "jk", lambda m: m.Kt(anchor, system, 400)
        # a budget of 2 misses reductions: stage and monotone-law violations
        yield ("rearrange-fp-budget-2", system, coloring, tr, "jk",
               lambda m: m.Fp((1, 1), tr, system, coloring, 2))

    return [*exnonlin(), *rearrange()]


@pytest.mark.parametrize("case", xi_cases(), ids=lambda case: case[0])
def test_xi_reports_match_the_table_free_predicates(case):
    """Fp and Kt answer each question once; with the predicates of
    tests/hand_walks.py, which search again on every call, xi_trace gives
    the same report: terms, flips, violations, and diameters of the same
    types and values, and the same Cauchy flag."""
    _name, system, coloring, tr, rule, predicate = case
    got, want = (
        xi_trace(system, tr, system.rule(rule), predicate(module), coloring)
        for module in (convergence, hand_walks)
    )
    assert got.trace.all_terms() == want.trace.all_terms()
    assert [seg.limit for seg in got.trace.segments] == [seg.limit for seg in want.trace.segments]
    assert got.flip_counts == want.flip_counts
    assert got.violations == want.violations
    assert [(type(d), d) for d in got.diameters] == [(type(d), d) for d in want.diameters]
    assert got.cauchy == want.cauchy
    assert bool(got.violations) == (case[0] == "rearrange-fp-budget-2")


@pytest.mark.parametrize("case", xi_cases(), ids=lambda case: case[0])
def test_xi_terms_are_fresh_fills(case):
    """Each simulated term is its trace term filled afresh at its
    principal cut with the predicate's choices at beta, then at beta's
    successor; each limit with the choices at the next segment's start."""
    _name, system, coloring, tr, rule, predicate = case
    rule = system.rule(rule)
    probe = predicate(convergence)
    rep = xi_trace(system, tr, rule, probe, coloring)

    def fresh(t, beta):
        cut = ppos(t, coloring)
        behind = {(node, arg): node.args[arg] for node, arg in cut.edges}
        return toplayer_fill(t, cut, {e: rule.lhs if probe(beta, u) else rule.rhs
                                      for e, u in behind.items()})

    assert rep.trace.all_terms() == [
        fresh(t, (k, i + j)) for (k, i), t in tr.indexed_terms() for j in (0, 1)
    ]
    assert [seg.limit for seg in rep.trace.segments] == [
        None if seg.limit is None else fresh(seg.limit, (k + 1, 0))
        for k, seg in enumerate(tr.segments)
    ]


def test_monotone_check_reaches_as_deep_as_the_predicates():
    """F^7(A) -> F^7(B) rewrites at depth 7: past the default redex depth
    6, within REACH_DEPTH 8, the depth Fp and Kt reach at.  The check sees
    the violation, and expands F^7(A) into the predicate's own Reach."""
    assert rewriting.DEFAULT_REDEX_DEPTH < 7 <= convergence.REACH_DEPTH
    sig = Signature({"F": 1, "A": 0, "B": 0})
    system = ITRS(sig, metric_id(sig), [Rule("ab", app("A"), app("B"))])
    t = parse("F(F(F(F(F(F(F(A)))))))", sig)
    u = parse("F(F(F(F(F(F(F(B)))))))", sig)
    probe = Kt(t, system)
    evaluated = {((0, 0), t): False, ((0, 1), u): True}
    assert convergence._monotone_violations(system, probe, evaluated) == [
        ("monotone-law", (0, 0), (0, 1), str(t), str(u))
    ]
    assert t in probe.reach.reducts
