"""Rewriting engine: matching and stepping against a naive finite-term
rewriter, rule classification, indirection, and the disjoint union as a
coproduct."""

from __future__ import annotations

from collections import Counter
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
    graph_term,
    indirect,
    is_depth_preserving,
    is_member,
    is_pseudo_collapsing,
    match,
    metric_granular,
    metric_id,
    metric_infty,
    parse,
    redexes,
    replace,
    rewrite_step,
    substitute,
    subterm,
    successors,
    var,
    variables,
    weak_reach_path,
)
from itrsbench import metrics, rewriting
from itrsbench.corpus import ITRS_SOURCES, load, load_union
from itrsbench.metrics import SignatureMismatch
from itrsbench.rewriting import DepthVerdict, Reach, RedexOccurrence, rename_symbols
from itrsbench.terms import bfs_path, node_at, sccs
from flat_terms import children_of, iter_positions, label_of, subterm_at_node
from conftest import GENERIC_SIG, random_finite_term, random_rational_term, rng_for
from coinductive_match import coinductive_match
from full_graph_search import naive_redexes
import flat_terms


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


def match_by_subterms(lhs, t, p):
    """Bind each variable to the subterm it meets; repeated variables
    must meet equal subterms."""
    if flat_terms.node_at(t.nodes, p) is None:
        return None
    sigma = {}
    for q, idx in iter_positions(lhs, len(lhs.nodes)):
        node = flat_terms.node_at(t.nodes, p + q)
        if lhs.nodes[idx][0] == "var":
            sub = subterm_at_node(t, node)
            if sigma.setdefault(lhs.nodes[idx][1], sub) != sub:
                return None
        elif label_of(t, node) != label_of(lhs, idx):
            return None
    return sigma


@pytest.mark.parametrize(
    "sources",
    [("exnonlin-r", "exnonlin-s"), ("zantema",), ("collapsing-r", "collapsing-s")],
    ids=lambda sources: sources[0],
)
def test_rewriting_on_nodes_equals_substituting_subterms(sources):
    """Non-left-linear and collapsing rules on random cyclic terms."""
    system = load_union(*sources)[0] if len(sources) == 2 else load(*sources).system
    rng = rng_for(f"rw-nodes-{sources[0]}")
    steps = 0
    for _ in range(40):
        t = random_rational_term(rng, system.sig, rng.randint(1, 7))
        want = set()
        for p, _idx in iter_positions(t, 4):
            for rule in system.rules:
                sigma = match_by_subterms(rule.lhs, t, p)
                binding = match(rule.lhs, t, p)
                assert (binding is None) == (sigma is None)
                if sigma is not None:
                    assert binding == sigma
                    want.add((p, rule.name, replace(t, p, substitute(sigma, rule.rhs))))
        got = successors(system, t, depth_bound=4)
        assert {(occ.position, occ.rule.name, result) for occ, result in got} == want
        for occ, result in got:
            assert rewrite_step(system, t, occ) == result
        steps += len(got)
    assert steps > 40


def test_match_refuses_a_repeated_variable_on_two_nodes():
    system = load("zantema").system
    lhs = system.rule("g").lhs
    assert match(lhs, parse("G(mu X. S(X), S(E))", system.sig), ()) is None
    t = parse("G(mu X. S(X), mu X. S(S(X)))", system.sig)
    binding = match(lhs, t, ())
    assert binding == {"x": node_at(t, (1,))} == {"x": node_at(t, (2,))}


def test_match_with_a_cyclic_pattern_terminates():
    sig = Signature({"S": 1, "E": 0})
    lhs = parse("mu X. S(X)", sig)
    assert match(lhs, parse("mu X. S(S(X))", sig), ()) == {}
    assert match(lhs, parse("S(S(E))", sig), ()) is None


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


def test_redex_occurrence_is_a_named_tuple():
    system, _ = load_union("toyama-r", "toyama-s")
    occs = redexes(system, parse("G(0, 1)", system.sig))
    assert [o.rule.name for o in occs] == ["left", "right"]
    occ = occs[0]
    assert isinstance(occ, tuple) and RedexOccurrence._fields == ("position", "rule", "binding")
    position, rule, binding = occ
    assert (position, rule, binding) == (occ.position, occ.rule, occ.binding)
    assert occ == RedexOccurrence((), system.rule("left"), dict(binding))


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


@pytest.mark.parametrize("lhs, rhs", [
    ("F(A)", "B"),  # a ground lhs: classification never looked at it
    ("F(x)", "A"),
    ("A", "F(B)"),
])
def test_rules_off_the_signature_rejected(lhs, rhs):
    sig = Signature({"F": 1, "B": 0})
    wide = Signature({"F": 1, "A": 0, "B": 0})
    with pytest.raises(SignatureMismatch):
        ITRS(sig, metric_infty(sig), [Rule("r", parse(lhs, wide), parse(rhs, wide))])


def test_systems_build_without_classification(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("classification ran while building a system")

    for module in (rewriting, metrics):
        for name in ("classify_itrs", "is_member", "vdepth"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    pairs = [n[:-2] for n in ITRS_SOURCES if n.endswith("-r") and n[:-2] + "-s" in ITRS_SOURCES]
    assert len(pairs) >= 5
    systems = [load(name).system for name in ITRS_SOURCES]
    systems += [load_union(f"{n}-r", f"{n}-s")[0] for n in pairs]
    for system in systems:
        assert indirect(system).system.rules
    sig = Signature({"F": 1, "G": 2})
    with pytest.raises(TermError):
        ITRS(sig, metric_infty(sig), [Rule("bad", var("x"), app("F", [var("x")]))])
    with pytest.raises(TermError):
        ITRS(sig, metric_infty(sig), [Rule("bad", app("F", [var("x")]),
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


@pytest.mark.parametrize("lhs, linear", [
    ("F(G(x), G(x))", False),  # x twice, under one shared G(x) node
    ("F(x, G(y))", True),
    ("F(x, x)", False),
    ("F(G(c), G(c))", True),  # sharing without variables
    ("F(x, mu X. G(X))", True),  # a cycle that reaches no variable
    ("mu X. F(X, x)", False),  # x below a cycle: infinitely many paths
    ("F(mu X. F(X, G(x)), y)", False),
])
def test_left_linearity_counts_paths_not_shared_leaves(lhs, linear):
    sig = Signature({"F": 2, "G": 1, "c": 0})
    assert Rule("r", parse(lhs, sig), parse("c", sig)).is_left_linear is linear


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


def test_depth_off_the_completion_is_one_value():
    """Under ltree the rhs has a strict cycle above a lazy edge to x: x
    sits at depth 1/2 on both sides, so the rule preserves depth and
    collapses nothing.  Pseudo-collapsing and depth preservation read the
    same depth of x."""
    system = load("ltree").system
    sig = system.sig
    rule = Rule("r", parse("Bin(x, N, Null)", sig), parse("mu X. Bin(x, Null, X)", sig))
    report = classify_itrs(ITRS(sig, system.metric, [rule]))
    assert report.flags("r") == ("left-linear", "depth-preserving")
    assert report.rhs_membership["r"] == "non_member"
    assert is_depth_preserving(system.metric, rule).kind == "exact-pass"


@pytest.mark.parametrize("lhs, rhs, witness", [
    ("H(F(x))", "F(x)", None),  # y >= y/2
    ("F(x)", "H(x)", (Fraction(1, 33), Fraction(1, 66), Fraction(2, 33))),  # y/2 < min(1, 2y)
    # 2^-41 against 2^-40, closer than any float tolerance: compared exactly
    ("F(" * 41 + "x" + ")" * 41, "F(" * 40 + "x" + ")" * 40,
     (Fraction(1, 33), Fraction(1, 33 * 2**41), Fraction(1, 33 * 2**40))),
], ids=["pass", "fail", "fail-below-float-tolerance"])
def test_depth_preserving_on_the_sample_grid(lhs, rhs, witness):
    """exa-layers (F and G halve, H doubles) is not granular: the depth
    maps are compared at k/33, and the first failing point is the witness."""
    system, _ = load_union("exa-layers-r", "exa-layers-s")
    assert not system.metric.is_granular
    rule = Rule("r", parse(lhs, system.sig), parse(rhs, system.sig))
    verdict = is_depth_preserving(system.metric, rule)
    if witness is None:
        assert verdict == DepthVerdict("sampled-pass")
    else:
        assert verdict == DepthVerdict("fail", ("x",) + witness)


# --- indirection -----------------------------------------------------------------


def test_indirect_shape():
    system = load("exa-layers-r").system
    result = indirect(system)
    assert result.symbol == "I"
    assert not result.renamed
    names = {r.name for r in result.system.rules}
    assert names == {"ffg", "I-erase"}
    assert result.system.metric.components["I"][0](Fraction(1)) == 1  # strict


def test_indirect_renames_on_clash():
    sig = Signature({"I": 1, "F": 1})
    m = metric_infty(sig)
    system = ITRS(sig, m, [Rule("r", app("F", [var("x")]), app("I", [var("x")]))])
    result = indirect(system)
    assert result.renamed
    assert result.symbol == "I#"


def test_indirect_erase_rule_gets_a_fresh_name():
    sig = Signature({"F": 1})
    system = ITRS(sig, metric_infty(sig), [Rule("I-erase", app("F", [var("x")]), var("x"))])
    names = [r.name for r in indirect(system).system.rules]
    assert names == ["I-erase", "I-erase#"]


def test_indirect_then_erase_recovers_reducts():
    system = toyama_union()
    ind = indirect(system).system
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


def test_union_tags_until_the_name_is_free():
    def system(symbols, rule_names):
        sig = Signature(symbols)
        lhs = app("F", [var("x")])
        return ITRS(sig, metric_infty(sig), [Rule(name, lhs, lhs) for name in rule_names])

    result = disjoint_union(system({"F": 1, "F#1": 2}, ["a", "a#1"]), system({"F": 1}, ["a"]))
    assert result.rename_left == {"F": "F#1#1", "F#1": "F#1"}
    assert result.rename_right == {"F": "F#2"}
    union = result.system
    assert union.sig.symbols == {"F#1#1": 1, "F#1": 2, "F#2": 1}
    assert [r.name for r in union.rules] == ["a#1#1", "a#1", "a#2"]
    assert [r.lhs.root_symbol for r in union.rules] == ["F#1#1", "F#1#1", "F#2"]
    # a right name that is the left's tagged name
    result = disjoint_union(system({"F": 1}, ["a"]), system({"F": 1, "F#1": 3}, ["a", "a#1"]))
    assert result.rename_left == {"F": "F#1#1"}
    assert result.rename_right == {"F": "F#2", "F#1": "F#1"}
    assert [r.name for r in result.system.rules] == ["a#1#1", "a#2", "a#1"]


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
    """weak_reach_path is one question to a fresh Reach: the same steps,
    which replay."""
    system = load("exnonlin-s").system
    t = parse("0", system.sig)
    u = parse("S(S(S(0)))", system.sig)
    assert Reach(system).path(t, u) is not None
    path = weak_reach_path(system, t, u)
    assert path is not None and len(path) == 3
    assert Reach(system).path(t, u) == path
    current = t
    for occ in path:
        current = rewrite_step(system, current, occ)
    assert current == u


def test_reach_searches_each_question_once_per_budget(monkeypatch):
    """A Reach keeps one answer per (budget, t, u) and one successor list
    per term: asking again searches nothing, t == u needs no search, and
    a new budget searches again through the terms already expanded."""
    system = load("exnonlin-s").system
    t, u = parse("0", system.sig), parse("S(S(S(0)))", system.sig)
    searched, expanded = [], Counter()
    search, expand = rewriting.bfs_path, rewriting.successors
    monkeypatch.setattr(rewriting, "bfs_path", lambda a, b, step, budget: (
        searched.append((budget, a, b)) or search(a, b, step, budget)))
    monkeypatch.setattr(rewriting, "successors", lambda s, a, depth_bound: (
        expanded.update([a]) or expand(s, a, depth_bound)))
    reach = Reach(system, 8)
    first = reach.path(t, u, 100)
    assert reach.path(t, u, 100) is first and len(first) == 3
    assert reach.path(u, u, 100) == [] and reach.path(t, t, 5) == []
    assert reach.path(u, t, 100) is None  # nothing rewrites S back to 0
    assert reach.path(t, u, 1) is None  # within budget only
    assert searched == [(100, t, u), (100, u, t), (1, t, u)]
    assert set(reach.answers) == {(100, t, u), (100, u, u), (5, t, t), (100, u, t), (1, t, u)}
    assert set(expanded.values()) == {1} and set(expanded) == set(reach.reducts)


# --- the shared graph searches: breadth-first paths and SCCs -------------------------

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


def test_sccs_children_first():
    graph = {"a": ["b"], "b": ["c", "d"], "c": ["b"], "d": [], "e": ["a", "d"]}
    assert sccs(["a", "e"], graph.__getitem__) == [["d"], ["c", "b"], ["a"], ["e"]]
    assert sccs(["e"], graph.__getitem__) == [["d"], ["c", "b"], ["a"], ["e"]]
    assert sccs(["d"], graph.__getitem__) == [["d"]]


def test_sccs_self_loop_counts_as_cyclic():
    """A self-loop is a one-node component, told apart by its own edge."""
    assert sccs(["x"], {"x": ["x"]}.__getitem__) == [["x"]]
    loop = parse("mu X. G(X)", GENERIC_SIG)
    assert not loop.is_finite
    assert parse("G(c)", GENERIC_SIG).is_finite
    assert is_member(metric_id(GENERIC_SIG), loop).witness_cycle == ((0, 1),)


# --- redex search on graph nodes ----------------------------------------------------

GENERIC_RULES = [
    ("fx", "F(x, x)", "G(x)"),
    ("fg", "F(G(x), y)", "F(y, x)"),
    ("gh", "G(H(x))", "H(x)"),
    ("cd", "c", "d"),
    ("ring", "mu X. G(X)", "c"),
]


def generic_system() -> ITRS:
    rules = [Rule(name, parse(lhs, GENERIC_SIG), parse(rhs, GENERIC_SIG))
             for name, lhs, rhs in GENERIC_RULES]
    return ITRS(GENERIC_SIG, metric_infty(GENERIC_SIG), rules)


@pytest.mark.parametrize("seed", range(6))
def test_redexes_equal_the_per_position_search(seed):
    rng = rng_for(f"redexes-{seed}")
    for system in (generic_system(), toyama_union()):
        for _ in range(25):
            if rng.random() < 0.7:
                t = random_rational_term(rng, system.sig, rng.randint(1, 7))
            else:
                t = random_finite_term(rng, system.sig, 4)
            depth = rng.randint(0, 9)
            assert redexes(system, t, depth) == naive_redexes(system, t, depth)


def test_redexes_match_once_per_node_and_rule(monkeypatch):
    system = generic_system()
    t = parse("mu X. F(G(X), X)", GENERIC_SIG)
    want = naive_redexes(system, t, 16)
    calls = []

    def counting(lhs, root):
        calls.append(root)
        return match_at(lhs, root)

    match_at = rewriting._match_at
    monkeypatch.setattr(rewriting, "_match_at", counting)
    got = redexes(system, t, 16)
    assert got == want
    assert len(want) > 1000  # positions far outnumber nodes on the branching cycle
    by_label = system._by_root_label
    assert 0 < len(calls) <= sum(len(by_label.get(label_of(t, n), ())) for n in range(len(t.nodes)))


# --- the compiled matcher against the coinductive one ---------------------------------

SYMBOLS_BY_ARITY = {
    k: sorted(s for s in GENERIC_SIG.symbols if GENERIC_SIG.arity(s) == k) for k in range(3)
}


def pattern_from(rng, t, root, unfold):
    """A random lhs read off t from graph node root.  Each node reached
    is kept, with t's symbol or now and then another of its arity, or cut
    to a variable; the root is kept.  unfold=False gives one pattern node
    per node of t, so t's cycles and shared nodes stay; unfold=True copies
    each position up to depth 3, so cycles unroll and equal subterms are
    shared again only by canonical merging.  A variable is named after
    the node it cuts, so repeats agree, or at random, so they may not."""
    spec = {}

    def visit(idx, depth):
        name = f"p{len(spec)}" if unfold else f"n{idx}"
        if name in spec:
            return name
        entry = t.nodes[idx]
        if entry[0] == "var" or (depth and rng.random() < 0.15) or (unfold and depth == 3):
            x = f"x{idx}" if rng.random() < 0.6 else rng.choice(("x", "y"))
            spec[name] = ("var", x)
            return name
        symbol = entry[1]
        if rng.random() < 0.25:
            symbol = rng.choice(SYMBOLS_BY_ARITY[len(entry[2])])
        spec[name] = None  # reserve the name before the children
        spec[name] = (symbol, [visit(c, depth + 1) for c in entry[2]])
        return name

    return graph_term(spec, visit(root, 0))


def pattern_kinds(lhs):
    """Which of cyclic, non-linear and shared-ground lhs is."""
    kinds = set()
    if not lhs.is_finite:
        kinds.add("cyclic")
    if not Rule("lhs", lhs, lhs).is_left_linear:
        kinds.add("non-linear")
    into = Counter(c for n in range(len(lhs.nodes)) for c in children_of(lhs, n))
    if any(k > 1 and not variables(subterm_at_node(lhs, c)) for c, k in into.items()):
        kinds.add("shared-ground")
    return kinds


def test_compiled_match_equals_the_coinductive_match():
    """Cyclic patterns, repeated variables and shared ground nodes, on
    every node of cyclic and finite terms that has the pattern's root
    label."""
    rng = rng_for("compiled-match")
    attempts = hits = 0
    kinds = Counter()
    for _ in range(1000):
        if rng.random() < 0.7:
            t = random_rational_term(rng, GENERIC_SIG, rng.randint(1, 7))
        else:
            t = random_finite_term(rng, GENERIC_SIG, 4)
        sources = [n for n in range(len(t.nodes)) if t.nodes[n][0] == "app"]
        if not sources:
            continue
        for _ in range(4):
            lhs = pattern_from(rng, t, rng.choice(sources), unfold=rng.random() < 0.5)
            for n in range(len(t.nodes)):
                if label_of(t, n) != label_of(lhs, 0):
                    continue
                want = coinductive_match(lhs, t, n)
                got = rewriting._match_at(lhs, subterm_at_node(t, n))
                if want is not None:
                    assert got == {x: subterm_at_node(t, i) for x, i in want.items()}, (lhs, t, n)
                else:
                    assert got is None, (lhs, t, n)
                attempts += 1
                hits += want is not None
                kinds.update((kind, want is not None) for kind in pattern_kinds(lhs))
    assert 0.3 * attempts < hits < 0.7 * attempts
    assert min(kinds[kind, hit] for kind in ("cyclic", "non-linear", "shared-ground")
               for hit in (False, True)) > 100
