"""Rewriting engine: matching and stepping against a naive finite-term
rewriter, rule classification, indirection, and the disjoint union as a
coproduct."""

from __future__ import annotations

from fractions import Fraction

import pytest

from itrsbench import (
    ITRS,
    Rule,
    Signature,
    StaleOccurrence,
    TermError,
    app,
    classify_itrs,
    disjoint_union,
    distance,
    erase_indirection,
    indirect,
    is_depth_preserving,
    is_pseudo_collapsing,
    match,
    metric_granular,
    metric_id,
    metric_infty,
    parse,
    redexes,
    rewrite_step,
    subterm,
    successors,
    var,
    weak_reach,
    weak_reach_path,
)
from itrsbench.corpus import load, load_union
from itrsbench.rewriting import bfs_path, rename_symbols
from conftest import GENERIC_SIG, random_finite_term, rng_for


# --- a naive finite-term rewriter oracle ------------------------------------------
# Terms as nested tuples ("var", x) | (symbol, (args...)).


def naive_of(t):
    if t.is_var:
        return ("var", t.nodes[0][1])
    return (
        t.root_symbol,
        tuple(naive_of(subterm(t, (i,)))
              for i in range(1, len(t.nodes[0][2]) + 1)),
    )


def naive_match(lhs, n, binding):
    if lhs[0] == "var":
        x = lhs[1]
        if x in binding:
            return binding if binding[x] == n else None
        binding = dict(binding)
        binding[x] = n
        return binding
    if n[0] == "var" or lhs[0] != n[0] or len(lhs[1]) != len(n[1]):
        return None
    for a, b in zip(lhs[1], n[1]):
        binding = naive_match(a, b, binding)
        if binding is None:
            return None
    return binding


def naive_substitute(binding, n):
    if n[0] == "var":
        return binding.get(n[1], n)
    return (n[0], tuple(naive_substitute(binding, c) for c in n[1]))


def naive_rewrites(rules, n, prefix=()):
    out = []
    for rule in rules:
        binding = naive_match(naive_of(rule.lhs), n, {})
        if binding is not None:
            out.append((prefix, rule.name,
                        naive_substitute(binding, naive_of(rule.rhs))))
    if n[0] != "var":
        for i, child in enumerate(n[1], start=1):
            for p, name, result in naive_rewrites(rules, child, prefix + (i,)):
                replaced = list(n[1])
                replaced[i - 1] = result
                out.append((p, name, (n[0], tuple(replaced))))
    return out


def toyama_union() -> ITRS:
    system, _ = load_union("toyama-r", "toyama-s")
    return system


@pytest.mark.parametrize("seed", range(10))
def test_engine_matches_naive_rewriter(seed):
    system = toyama_union()
    rng = rng_for(f"rw-oracle-{seed}")
    for _ in range(20):
        t = random_finite_term(rng, system.sig, 3)
        got = {
            (occ.position, occ.rule.name, naive_of(result))
            for occ, result in successors(system, t, depth_bound=6)
        }
        want = set(naive_rewrites(system.rules, naive_of(t)))
        assert got == want


def test_nonlinear_match_uses_bisimilarity():
    sig = Signature({"F": 3, "S": 1})
    rule = Rule("swap", parse("F(x, x, y)", sig), parse("F(x, y, x)", sig))
    one = parse("mu X. S(X)", sig)
    two = parse("mu X. S(S(X))", sig)  # same tree, different presentation
    t = app("F", [one, two, var("z")])
    sigma = match(rule.lhs, t, ())
    assert sigma is not None
    assert sigma["x"] == one


def test_rewrite_step_stale_occurrence():
    system = toyama_union()
    t = parse("G(0, 1)", system.sig)
    (occ, _), *_ = successors(system, t)
    u = parse("F(0, 1, 0)", system.sig)
    with pytest.raises(StaleOccurrence):
        rewrite_step(system, u, occ)


def test_redexes_ordered_outermost_first():
    system = toyama_union()
    t = parse("G(G(0, 1), G(1, 0))", system.sig)
    occs = redexes(system, t)
    lengths = [len(o.position) for o in occs]
    assert lengths == sorted(lengths)
    assert occs[0].position == ()


def test_rewrite_preserves_canonical_form():
    system = toyama_union()
    rng = rng_for("rw-canonical")
    for _ in range(50):
        t = random_finite_term(rng, system.sig, 3)
        for occ, result in successors(system, t):
            system.metric.check_term(result)
            assert rewrite_step(system, t, occ) == result


# --- rule classification ---------------------------------------------------------


def test_variable_lhs_rejected():
    sig = Signature({"F": 1})
    m = metric_infty(sig)
    with pytest.raises(TermError):
        ITRS(sig, m, [Rule("bad", var("x"), app("F", [var("x")]))])


def test_extra_variables_rejected():
    sig = Signature({"F": 1, "G": 2})
    m = metric_infty(sig)
    with pytest.raises(TermError):
        ITRS(sig, m, [Rule("bad", app("F", [var("x")]),
                           app("G", [var("x"), var("y")]))])


def test_classification_flags():
    system = toyama_union()
    report = classify_itrs(system)
    assert "collapsing" in report.flags("left")
    assert "collapsing" in report.flags("right")
    assert "collapsing" not in report.flags("top")
    assert "left-linear" in report.flags("left")
    assert "left-linear" in report.flags("top")  # F(0,1,x): one occurrence of x
    nonlinear = load("exnonlin-r").system
    assert "left-linear" not in classify_itrs(nonlinear).flags("swap")
    assert report.rhs_membership["top"] == "member"


def test_pseudo_collapsing_detection():
    sig = Signature({"F": 2})
    m = metric_granular(sig, {"F": ["lazy", "strict"]})
    moves_out = Rule("bad", parse("F(x, y)", sig), parse("F(y, x)", sig))
    stays = Rule("ok", parse("F(x, y)", sig), parse("F(x, y)", sig))
    assert is_pseudo_collapsing(m, moves_out)
    assert not is_pseudo_collapsing(m, stays)


def test_pseudo_collapsing_under_infty_means_collapsing():
    sig = Signature({"F": 2, "G": 1})
    m = metric_infty(sig)
    rule = Rule("r", parse("F(x, y)", sig), parse("G(x)", sig))
    assert not is_pseudo_collapsing(m, rule)
    collapsing = Rule("c", parse("G(x)", sig), var("x"))
    assert is_pseudo_collapsing(m, collapsing)


def test_depth_preserving_exact_for_granular():
    sig = Signature({"F": 2, "G": 1})
    m = metric_granular(sig, {"F": ["lazy", "strict"], "G": ["lazy"]})
    deepens = Rule("deep", parse("G(x)", sig), parse("G(G(x))", sig))
    verdict = is_depth_preserving(m, deepens)
    assert verdict.kind == "exact-pass"
    shallows = Rule("up", parse("G(G(x))", sig), parse("G(x)", sig))
    assert is_depth_preserving(m, shallows).kind == "fail"


# --- indirection -----------------------------------------------------------------


def test_indirect_shape():
    system = load("exa-layers-r").system
    result = indirect(system, report=True)
    assert result.symbol == "I"
    assert not result.renamed
    names = {r.name for r in result.system.rules}
    assert names == {"ffg", "I-erase"}
    assert result.system.metric.components["I"][0](Fraction(1)) == 1  # strict


def test_indirect_renames_on_clash():
    sig = Signature({"I": 1, "F": 1})
    m = metric_infty(sig)
    system = ITRS(sig, m, [Rule("r", app("F", [var("x")]), app("I", [var("x")]))])
    result = indirect(system, report=True)
    assert result.renamed
    assert result.symbol == "I#"


def test_indirect_then_erase_recovers_reducts():
    system = toyama_union()
    ind = indirect(system)
    rng = rng_for("rw-indirect")
    for _ in range(30):
        t = random_finite_term(rng, system.sig, 3)
        direct = {naive_of(u) for _occ, u in successors(system, t)}
        via = set()
        for occ, v in successors(ind, t):
            if occ.rule.name == "I-erase":
                continue
            via.add(naive_of(erase_indirection(v)))
        assert via == direct


def test_erase_indirection_cycle_error():
    t = parse("mu X. I(X)", Signature({"I": 1}))
    with pytest.raises(TermError):
        erase_indirection(t)


# --- disjoint union --------------------------------------------------------------


def test_union_renaming_deterministic():
    left = load("exnonlin-s").system  # has 0, S
    result = disjoint_union(left, left)
    assert result.rename_left == {"0": "0#1", "S": "S#1"}
    assert result.rename_right == {"0": "0#2", "S": "S#2"}
    assert set(result.coloring.values()) == {0, 1}


def test_union_injections_preserve_distances():
    """Coproduct injections are isometries."""
    left = load("exnonlin-r").system
    right = load("exnonlin-s").system
    result = disjoint_union(left, right)
    rng = rng_for("rw-coproduct")
    for _ in range(50):
        t = random_finite_term(rng, right.sig, 4)
        u = random_finite_term(rng, right.sig, 4)
        ti = rename_symbols(t, result.rename_right)
        ui = rename_symbols(u, result.rename_right)
        assert distance(result.system.metric, ti, ui) == distance(
            right.metric, t, u
        )


def test_weak_reach_and_path_agree():
    system = load("exnonlin-s").system
    t = parse("0", system.sig)
    u = parse("S(S(S(0)))", system.sig)
    assert weak_reach(system, t, u)
    path = weak_reach_path(system, t, u)
    assert path is not None and len(path) == 3
    current = t
    for occ in path:
        current = rewrite_step(system, current, occ)
    assert current == u


# --- the shared breadth-first path search --------------------------------------------

DIAMOND = {
    "a": [("ab", "b"), ("ac", "c")],
    "b": [("bd", "d")],
    "c": [("cd", "d")],
    "d": [("da", "a")],
    "e": [],
}


def test_bfs_path_shortest_first_discovered():
    step = DIAMOND.__getitem__
    assert bfs_path("a", "d", step) == ["ab", "bd"]
    assert bfs_path("b", "c", step) == ["bd", "da", "ac"]


def test_bfs_path_goal_is_start_gives_nonempty_cycle():
    step = DIAMOND.__getitem__
    assert bfs_path("a", "a", step) == ["ab", "bd", "da"]
    assert bfs_path("e", "e", step) is None


def test_bfs_path_unreachable_goal_is_none():
    assert bfs_path("a", "e", DIAMOND.__getitem__) is None


def test_bfs_path_budget_bounds_expansions():
    expanded = []

    def chain(n):
        expanded.append(n)
        return [(n + 1, n + 1)]

    assert bfs_path(0, 3, chain, budget=3) == [1, 2, 3]
    expanded.clear()
    assert bfs_path(0, 3, chain, budget=2) is None
    assert expanded == [0, 1]
