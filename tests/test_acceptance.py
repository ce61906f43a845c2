"""Acceptance suite: fourteen criteria, one test (and one pass/fail line)
each.  Granular metrics are checked exactly on dyadic rationals; iterated
general metrics use tolerance 1e-9."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from itrsbench import (
    ITRS,
    Budgets,
    Fp,
    GuardExceeded,
    LoopWitness,
    RedexOccurrence,
    Rule,
    Signature,
    app,
    classify_convergence,
    classify_itrs,
    cut_positions,
    cutoff_trace,
    disjoint_union,
    distance,
    epos,
    extrapolate_limit,
    find_loop,
    focussed_probe,
    is_member,
    match,
    metric_granular,
    metric_id,
    metric_infty,
    parse,
    redexes,
    replace,
    replay_loop,
    replace as _replace,
    rewrite_step,
    simulate,
    sliding_diameter,
    strong_convergence_probe,
    subterm,
    var,
    xi_trace,
)
from itrsbench.corpus import (
    diverge_exa_trace,
    exnonlin_trace,
    load,
    load_union,
    rearrange_trace,
    union_traces,
)
from itrsbench.metrics import lazy_weight, position_umm
from itrsbench.terms import positions
from coinductive_match import bisimilar
from conftest import (
    GENERIC_SIG,
    mutate,
    random_finite_term,
    random_rational_term,
    rng_for,
)

TOL = 1e-9


def report(n: int, label: str):
    print(f"PASS  criterion {n:2d}: {label}")


# --- 1. the three-step loop -------------------------------------------------------


def test_criterion_01_toyama_three_step_loop():
    system, _ = load_union("toyama-r", "toyama-s")
    start = parse("F(0, 1, G(0, 1))", system.sig)
    verdict = classify_convergence(system, start)
    assert verdict.kind == "diverging"
    w = verdict.witness
    assert isinstance(w, LoopWitness)
    assert len(w.cycle) == 3
    assert w.base == start and not w.prefix
    assert replay_loop(system, w)
    report(1, "analyze finds the exact 3-step loop from F(0,1,G(0,1)); it replays")


# --- 2. the collapsing two-step loop ------------------------------------------------


def test_criterion_02_collapsing_two_step_loop():
    system, _ = load_union("collapsing-r", "collapsing-s")
    t = parse("mu X. F(H(X))", system.sig)
    start = app("G", [t])
    w = find_loop(system, start, budget=1_000)
    assert w is not None
    assert len(w.cycle) == 2
    loop_terms = {start, app("G", [app("H", [t])])}
    current = start
    seen = {current}
    for occ in w.cycle:
        current = rewrite_step(system, current, occ)
        seen.add(current)
    assert current == start and seen == loop_terms
    assert replay_loop(system, w)
    report(2, "2-step loop G(t) -> G(H(t)) -> G(t) found within budget 1000")


# --- 3. exa-layers membership and constant head distances ----------------------------


def test_criterion_03_exa_layers_membership_and_head_distances():
    system, _coloring, tr = diverge_exa_trace(steps=20)
    m = system.metric
    assert is_member(m, parse("mu X. F(F(H(X)))", system.sig)).kind == "member"
    assert is_member(m, parse("mu X. G(H(X))", system.sig)).kind == "non_member"
    terms = tr.all_terms()
    assert len(terms) == 21
    for a, b in zip(terms, terms[1:]):
        d = distance(m, a, b)
        assert isinstance(d, Fraction) and d == Fraction(1)
    report(3, "exa-layers membership as expected; 20 head steps at exact distance 1")


# --- 4. exa-layers2 ------------------------------------------------------------------


def test_criterion_04_exa_layers2_union_members():
    left = load("exa-layers2-r").system
    right = load("exa-layers2-s").system
    for system, text in (
        (left, "mu X. F(X)"),
        (left, "mu X. G(X)"),
        (right, "mu X. H(X)"),
    ):
        verdict = is_member(system.metric, parse(text, system.sig))
        assert verdict.kind == "non_member"
    union = disjoint_union(left, right).system
    assert is_member(union.metric, parse("mu X. F(F(H(X)))", union.sig)).kind == "member"
    assert is_member(union.metric, parse("mu X. G(H(X))", union.sig)).kind == "non_member"
    report(4, "exa-layers2 constituents admit no infinite terms; the union does")


# --- 5. the omega-level cycle ---------------------------------------------------------


def test_criterion_05_zantema_omega_cycle():
    f = load("zantema")
    system, sig = f.system, f.system.sig
    s_inf = parse("mu X. S(X)", sig)
    for constant in ("E", "F"):
        tr = simulate(system, parse(constant, sig), max_steps=6, depth_bound=10)
        assert extrapolate_limit(tr.segments[0]) == s_inf
    omega_term = app("G", [s_inf, s_inf])
    rule = system.rule("g")
    sigma = match(rule.lhs, omega_term, ())
    assert sigma is not None  # the non-linear lhs G(x,x) matches at the limit
    assert rewrite_step(
        system, omega_term, RedexOccurrence((), rule, sigma)
    ) == f.terms["start"]
    # divergence evidence: the cycle start ->> G(S^inf, S^inf) -> start lives
    # at the limit level, so the start term is not strongly convergent even
    # though every finite-step segment converges
    verdict = classify_convergence(system, f.terms["start"],
                                   Budgets(loop_states=2_000, max_steps=12))
    assert verdict.kind == "converging"
    report(5, "both pumpings extrapolate to S^inf; G(x,x) closes the omega cycle")


# --- 6. ultrametric laws ---------------------------------------------------------------


def _pair(rng, sig):
    t = random_finite_term(rng, sig, 4)
    roll = rng.random()
    if roll < 0.25:
        return t, t
    if roll < 0.7:
        return t, mutate(rng, t, sig)
    return t, random_finite_term(rng, sig, 4)


def test_criterion_06_ultrametric_laws(property_metrics):
    for name, m, exact in property_metrics:
        rng = rng_for(f"acc6-{name}")
        slack = 0 if exact else TOL
        for _ in range(1000):
            t, u = _pair(rng, m.sig)
            w = random_finite_term(rng, m.sig, 4)
            dtu, dut = distance(m, t, u), distance(m, u, t)
            assert dtu == dut  # symmetry
            assert (abs(dtu) <= slack) == bisimilar(t, u)  # indiscernibles
            dtw, duw = distance(m, t, w), distance(m, u, w)
            assert dtw <= max(dtu, duw) + slack  # strong triangle
    report(6, "ultrametric laws hold on 1000 pairs per metric (infty/id/ltree/exa-layers2)")


# --- 7. contexts are non-expansive -------------------------------------------------------


def test_criterion_07_context_non_expansiveness(property_metrics):
    for name, m, exact in property_metrics:
        rng = rng_for(f"acc7-{name}")
        slack = 0 if exact else TOL
        for _ in range(250):
            t, t2 = _pair(rng, m.sig)
            u = random_finite_term(rng, m.sig, 3)
            common = sorted(positions(t, 5) & positions(t2, 5))
            p = rng.choice(common)
            lhs = distance(m, replace(t, p, u), replace(t2, p, u))
            assert lhs <= distance(m, t, t2) + slack
    report(7, "d(t[u]p, t'[u]p) <= d(t,t') on 1000 random replacements")


# --- 8. epsilon-positions -----------------------------------------------------------------


def test_criterion_08_epos():
    m = metric_infty(GENERIC_SIG)
    rng = rng_for("acc8")
    for _ in range(500):
        t = random_rational_term(rng, GENERIC_SIG, 5)
        eps = Fraction(1, 2 ** rng.randrange(0, 7))
        ps = epos(m, t, eps)
        for p in ps:
            for k in range(len(p)):
                assert p[:k] in ps  # prefix closure
    sig = Signature({"S": 1, "0": 0})
    assert epos(metric_infty(sig), parse("S(S(0))", sig), Fraction(1, 2)) == {
        (),
        (1,),
    }
    with pytest.raises(GuardExceeded):
        epos(metric_id(sig), parse("mu X. S(X)", sig), Fraction(1, 2))
    report(8, "epos prefix-closed on 500 samples; exact example; guard on S^inf under id")


# --- 9. the classical metric is the finest granular one ------------------------------------


def test_criterion_09_d_infty_below_granular(ltree_metric):
    mixed = metric_granular(
        GENERIC_SIG,
        {"F": ["lazy", "strict"], "G": ["strict"], "H": ["lazy"], "c": [], "d": []},
    )
    for m in (ltree_metric, mixed):
        d_inf = metric_infty(m.sig)
        rng = rng_for(f"acc9-{id(m) % 97}")
        for _ in range(1000):
            if rng.random() < 0.5:
                t, u = _pair(rng, m.sig)
            else:
                t = random_rational_term(rng, m.sig, 4)
                u = random_rational_term(rng, m.sig, 4)
            assert distance(d_inf, t, u) <= distance(m, t, u)
    report(9, "d_infty <= d_m on 1000 pairs per granular metric")


# --- 10. cutoff of recorded traces -----------------------------------------------------------


def test_criterion_10_cutoff_traces():
    for name, system, coloring, tr, fill in union_traces():
        for n in range(4):
            rep = cutoff_trace(system, tr, n, fill, coloring)
            assert rep.violations == [], (name, n, rep.violations)
            if n == 1:
                assert rep.root_only, name
    report(10, "cutoff traces validate for n in 0..3; n=1 stays in the root system")


# --- 11. step counts never decrease under rewriting -------------------------------------------


def _step_union():
    sig_r = Signature({"A": 2, "B": 1, "C": 0})
    g_r = metric_granular(sig_r, {"A": ["lazy", "strict"], "B": ["lazy"], "C": []})
    r = ITRS(sig_r, g_r, [
        Rule("b-dup", parse("B(x)", sig_r), parse("B(B(x))", sig_r)),
        Rule("a-grow", parse("A(x, y)", sig_r), parse("A(x, B(y))", sig_r)),
        Rule("a-drop", parse("A(x, y)", sig_r), parse("B(x)", sig_r)),
    ])
    sig_s = Signature({"P": 1, "Q": 1, "D": 0})
    g_s = metric_granular(sig_s, {"P": ["lazy"], "Q": ["strict"], "D": []})
    s = ITRS(sig_s, g_s, [
        Rule("d-pump", parse("D", sig_s), parse("P(D)", sig_s)),
        Rule("q-dup", parse("Q(x)", sig_s), parse("Q(Q(x))", sig_s)),
        Rule("p-wrap", parse("P(x)", sig_s), parse("P(Q(x))", sig_s)),
    ])
    result = disjoint_union(r, s)
    return result.system, result.coloring


def _principal_chains(t, coloring, hops, bound=5):
    chains, done = [((),)], []
    for _ in range(hops):
        grown = []
        for ch in chains:
            sub = subterm(t, ch[-1])
            cps = [] if sub.is_var else sorted(cut_positions(sub, coloring, bound))
            if not cps:
                done.append(ch)
                continue
            for p in cps[:4]:
                grown.append(ch + (ch[-1] + p,))
        chains = grown
    return chains + done


def _steps(m, t, chain):
    weights = [lazy_weight(position_umm(m, t, p)) for p in chain]
    out = [0]
    for a, b in zip(weights, weights[1:]):
        out.append(out[-1] + (1 if a != b else 0))
    return out


def test_criterion_11_step_monotone():
    system, coloring = _step_union()
    flags = classify_itrs(system)
    for name in flags.per_rule:
        assert "collapsing" not in flags.flags(name)
        assert "pseudo-collapsing" not in flags.flags(name)
    sig = system.sig
    seeds = [
        parse("mu X. A(P(X), C)", sig),
        parse("mu X. P(A(X, D))", sig),
        parse("mu X. Q(B(X))", sig),
        parse("mu X. B(P(A(X, C)))", sig),
    ]
    rng = rng_for("acc11")

    def random_union_term():
        t = rng.choice(seeds)
        for _ in range(rng.randrange(0, 3)):
            symbol = rng.choice(sorted(s for s in sig.symbols if sig.arity(s)))
            args = [t] + [
                rng.choice(seeds + [parse("C", sig), parse("D", sig)])
                for _ in range(sig.arity(symbol) - 1)
            ]
            rng.shuffle(args)
            t = app(symbol, args)
        return t

    m = system.metric
    checked = 0
    while checked < 500:
        t = random_union_term()
        occs = redexes(system, t, depth_bound=4)
        if not occs:
            continue
        occ = rng.choice(occs)
        u = rewrite_step(system, t, occ)
        if u.is_var:
            continue
        chains_t = _principal_chains(t, coloring, 3)
        profiles_t = [_steps(m, t, ch) for ch in chains_t]
        for ch_u in _principal_chains(u, coloring, 3):
            prof_u = _steps(m, u, ch_u)
            k = len(prof_u)
            assert any(
                len(pt) >= k and all(prof_u[j] >= pt[j] for j in range(k))
                for pt in profiles_t
            ), (t, occ.rule.name, occ.position, ch_u)
        checked += 1
    report(11, "500 random steps: every principal path of the reduct is dominated")


# --- 12. the guided top-layer simulation of the rearrangement run ------------------------------


def test_criterion_12_xi_trace_rearrange():
    system, coloring, tr = rearrange_trace()
    rule = system.rule("jk")
    rep = xi_trace(system, tr, rule, Fp((1, 1), tr, system, coloring, budget=400),
                   coloring)
    sig = system.sig
    a0 = parse("mu X. K(J(K(x, y)), X)", sig)
    j_a0 = app("J", [a0])
    j_kr = app("J", [app("K", [parse("J(y)", sig), a0])])
    second = rep.trace.segments[1].terms
    for i, t in enumerate(second[:-1]):
        assert t == (j_a0 if i % 2 == 0 else j_kr)
    assert rep.violations == []
    assert not rep.cauchy
    from itrsbench import Trace

    tail = sliding_diameter(system.metric, Trace([rep.trace.segments[1]]), 2)
    floor = min(tail)
    assert floor == distance(system.metric, j_a0, j_kr) > 0
    report(12, "xi-trace alternates J(a0)/J(K(r,a0)), validates, and is non-Cauchy")


# --- 13. indirection agrees with the direct root-recurrence probe ------------------------------


def _terms_up_to_depth(sig: Signature, depth: int):
    level = [var("x")] + [app(s) for s in sig.symbols if sig.arity(s) == 0]
    seen = set(level)
    for _ in range(depth):
        fresh = []
        for symbol in sorted(sig.symbols):
            arity = sig.arity(symbol)
            if arity == 0:
                continue
            pools = [list(seen)] * arity
            from itertools import product

            for args in product(*pools):
                t = app(symbol, args)
                if t not in seen:
                    fresh.append(t)
        seen.update(fresh)
    return sorted(seen, key=str)


def test_criterion_13_indirection_equivalence():
    systems = [
        load("exa-layers-r").system,  # F(F(x)) -> G(x)
        load("toyama-s").system,  # collapsing projections
        load("collapsing-s").system,  # F(x) -> x
    ]
    budgets = Budgets(loop_states=2_000, max_steps=12)
    total = 0
    for system in systems:
        for t in _terms_up_to_depth(system.sig, 3):
            probe = strong_convergence_probe(system, t, budgets)
            assert (probe.root_recurrence is not None) == (
                probe.indirected.kind == "diverging"
            ), t
            total += 1
    assert total >= 40
    report(13, f"indirected verdict matches the root-recurrence check on {total} starts")


# --- 14. the non-left-linear union trace is focussed --------------------------------------------


def test_criterion_14_focussed_exnonlin():
    system, _coloring, tr = exnonlin_trace()
    for p in [(1,), (2,), (3,)]:
        rep = focussed_probe(system, tr, p, budget=500)
        assert rep.ok
        assert rep.beta is not None
        assert rep.witnesses
        # replay one recorded weak-reduction witness
        (gamma, kappa), steps = sorted(rep.witnesses.items())[0]
        current = subterm(tr.all_terms()[gamma], p)
        for occ in steps:
            current = rewrite_step(system, current, occ)
        assert current == subterm(tr.all_terms()[kappa], p)
    report(14, "focussed at p in {1,2,3} with explicit beta and replayable witnesses")
