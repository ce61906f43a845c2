"""Layer structure over two-colored signatures: principal cuts, top-layer
fills and distances, rank, cutoff, and the granular step function."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from itrsbench import (
    Signature,
    TermError,
    app,
    cut_positions,
    cutoff,
    distance,
    graph_term,
    metric_granular,
    metric_infty,
    parse,
    ppos,
    principal_cycles,
    rank,
    step_fn,
    subterm,
    toplayer_distance,
    toplayer_fill,
    trace_ppos,
    var,
)
from itrsbench.corpus import load_union, rearrange_trace, union_traces
from itrsbench.metrics import ITER_BUDGET, lazy_weight
from itrsbench.terms import node_numbers, parallel, positions
from conftest import (
    CORPUS_UNIONS,
    GENERIC_SIG,
    random_finite_term,
    random_rational_term,
    rng_for,
    seeded_union_terms,
)
from flat_terms import children_of, simple_cycles
import hand_walks


def rearrange_setup():
    system, coloring = load_union("rearrange-r", "rearrange-s")
    return system, coloring


def exa_setup():
    system, coloring = load_union("exa-layers-r", "exa-layers-s")
    return system, coloring


# --- principal cuts -------------------------------------------------------------


def test_one_color_term_has_empty_cut():
    system, coloring = exa_setup()
    t = parse("F(F(G(x)))", system.sig)
    cut = ppos(t, coloring)
    assert cut.is_empty
    assert cut.positions(6) == set()


def test_cut_positions_first_crossing_only():
    system, coloring = exa_setup()
    t = parse("F(H(F(H(x))))", system.sig)
    assert cut_positions(t, coloring, 6) == {(1,)}


def test_cut_positions_of_cyclic_spine():
    system, coloring = exa_setup()
    t = parse("mu X. F(F(H(X)))", system.sig)
    # the H-subterm at (1,1) is the first crossing; deeper crossings on the
    # cyclic spine are below it and therefore not principal
    assert cut_positions(t, coloring, 12) == {(1, 1)}


def test_variable_has_no_layers():
    _, coloring = exa_setup()
    with pytest.raises(TermError):
        ppos(var("x"), coloring)


@pytest.mark.parametrize("union", CORPUS_UNIONS)
def test_cut_and_positions_match_the_hand_walks(union):
    _system, coloring, terms = seeded_union_terms(union, 40)
    for t in terms:
        if t.is_var:
            continue
        cut, old = ppos(t, coloring), hand_walks.ppos(t, coloring)
        number = node_numbers(t)
        assert sorted((number[node], arg) for node, arg in cut.edges) == sorted(old.edges), t
        for depth in range(9):
            assert cut.positions(depth) == hand_walks.cut_positions(old, depth), (t, depth)


# --- top-layer fill -------------------------------------------------------------


def test_fill_cyclic_term_example():
    """t = K(E, t): filling the single principal gap with l gives mu X. K(l, X)."""
    system, coloring = rearrange_setup()
    t = parse("mu X. K(E, X)", system.sig)
    cut = ppos(t, coloring)
    l = parse("Z", system.sig)
    assert toplayer_fill(t, cut, {e: l for e in cut.edges}) == parse("mu X. K(Z, X)", system.sig)


def test_fill_leaves_parallel_positions_untouched():
    system, coloring = rearrange_setup()
    rng = rng_for("layers-parallel")
    for _ in range(60):
        t = random_finite_term(rng, system.sig, 4)
        if t.is_var:
            continue
        cut = ppos(t, coloring)
        if cut.is_empty:
            continue
        principal = cut.positions(8)
        filled = toplayer_fill(t, cut, {e: var("hole") for e in cut.edges})
        for q in positions(t, 6):
            if all(parallel(q, p) for p in principal):
                assert subterm(filled, q) == subterm(t, q)


def test_fill_map_must_cover_cut():
    system, coloring = rearrange_setup()
    t = parse("J(K(E, Z))", system.sig)
    cut = ppos(t, coloring)
    with pytest.raises(TermError):
        toplayer_fill(t, cut, {})


def test_toplayer_distance_requires_equal_root_colors():
    system, coloring = rearrange_setup()
    with pytest.raises(TermError):
        toplayer_distance(
            system.metric,
            coloring,
            parse("J(E)", system.sig),
            parse("H(E)", system.sig),
        )


def test_toplayer_distance_ignores_lower_layers():
    system, coloring = rearrange_setup()
    t = parse("J(K(Z, K(Z, Z)))", system.sig)
    u = parse("J(K(S(Z), K(Z, S(Z))))", system.sig)
    # top layers J(K(.,K(.,.))) are identical once gaps share one hole
    assert toplayer_distance(system.metric, coloring, t, u) == 0


# --- rank and principal cycles ---------------------------------------------------


def test_rank_finite_alternation():
    system, coloring = rearrange_setup()
    assert rank(parse("J(Z)", system.sig), coloring) == 1
    # J/K layer over H, over J(E), over E: three alternations below the root
    assert rank(parse("J(K(Z, H(J(E))))", system.sig), coloring) == 3
    assert rank(parse("Z", system.sig), coloring) == 0


def test_rank_infinite_on_crossing_cycle():
    system, coloring = rearrange_setup()
    t = parse("mu X. J(K(Z, H(X)))", system.sig)
    assert rank(t, coloring) == math.inf


RANK_COLORINGS = [
    {"F": 0, "G": 1, "H": 0, "c": 1, "d": 0},
    {"F": 1, "G": 0, "H": 0, "c": 0, "d": 0},
    {"F": 0, "G": 0, "H": 0, "c": 1, "d": 0},  # only constants cross: finite
]


def node_color(t, coloring, idx):
    entry = t.nodes[idx]
    return None if entry[0] == "var" else coloring[entry[1]]


def unfolded_rank(t, coloring, idx, depth):
    """Most color changes between application nodes along the paths of at
    most depth edges from node idx, by plain unfolding."""
    if depth == 0:
        return 0
    best = 0
    for child in children_of(t, idx):
        child_color = node_color(t, coloring, child)
        changes = child_color is not None and child_color != node_color(t, coloring, idx)
        best = max(best, unfolded_rank(t, coloring, child, depth - 1) + changes)
    return best


def test_rank_matches_cycle_enumeration_and_unfolding():
    """Infinite iff some simple cycle crosses colors; otherwise the most
    color changes along an unfolding as deep as the graph is large, which
    no path needs to exceed once no cycle crosses."""
    rng = rng_for("layers-rank-oracle")
    seen = set()
    for coloring in RANK_COLORINGS:
        for k in range(80):
            if k % 4:
                t = random_rational_term(rng, GENERIC_SIG, rng.randint(2, 5))
            else:
                t = random_finite_term(rng, GENERIC_SIG, 4)
            crossing = any(
                node_color(t, coloring, node)
                != node_color(t, coloring, children_of(t, node)[i - 1])
                for cycle in simple_cycles(t)
                for node, i in cycle
            )
            got = rank(t, coloring)
            if crossing:
                assert got == math.inf, t
            else:
                assert got == unfolded_rank(t, coloring, 0, len(t.nodes)), t
            seen.add((crossing, t.is_finite))
    assert seen == {(True, False), (False, False), (False, True)}


def test_principal_cycles_annotated():
    system, coloring = exa_setup()
    t = parse("mu X. F(F(H(X)))", system.sig)
    cycles = principal_cycles(t, coloring, system.metric)
    assert len(cycles) == 1
    assert cycles[0]["length"] == 3
    comp = cycles[0]["component"]
    assert comp(Fraction(1)) == Fraction(1, 4)  # scale2 caps at 1, two halvings


def test_principal_cycles_acyclic_empty():
    system, coloring = exa_setup()
    assert principal_cycles(parse("F(H(x))", system.sig), coloring) == []


def test_principal_cycles_stop_at_the_cap():
    """Node i points at i+1 and i+2: more simple cycles than the cap."""
    n = 20
    spec = {f"n{i}": (f"S{i}", [f"n{(i + 1) % n}", f"n{(i + 2) % n}"]) for i in range(n)}
    t = graph_term(spec, "n0")
    coloring = {f"S{i}": i % 2 for i in range(n)}
    cycles = principal_cycles(t, coloring)
    assert len(cycles) == ITER_BUDGET
    assert cycles.truncated == f"cycle enumeration cap of {ITER_BUDGET} cycles exceeded"
    for c in cycles:
        assert len({coloring[t.nodes[idx][1]] for idx, _arg in c["cycle"]}) == 2
    one_color = principal_cycles(t, {f"S{i}": 0 for i in range(n)})
    assert one_color == [] and one_color.truncated == cycles.truncated
    system, coloring = exa_setup()
    complete = principal_cycles(parse("mu X. F(F(H(X)))", system.sig), coloring)
    assert len(complete) == 1 and complete.truncated == ""


# --- cutoff ---------------------------------------------------------------------


def test_cutoff_zero_is_fill():
    system, coloring = rearrange_setup()
    t = parse("J(K(Z, Z))", system.sig)
    u = parse("Z", system.sig)
    assert cutoff(t, 0, u, coloring) == u


def test_cutoff_counts_layers():
    system, coloring = rearrange_setup()
    t = parse("J(K(H(J(K(Z, Z))), Z))", system.sig)
    u = parse("Z", system.sig)
    one = cutoff(t, 1, u, coloring)
    assert one == parse("J(K(Z, Z))", system.sig)
    two = cutoff(t, 2, u, coloring)
    assert two == parse("J(K(H(Z), Z))", system.sig)
    assert cutoff(t, 3, u, coloring) == t
    assert cutoff(t, 4, u, coloring) == t


def test_cutoff_on_infinite_alternation():
    system, coloring = exa_setup()
    t = parse("mu X. F(F(H(X)))", system.sig)
    u = parse("G(x)", system.sig)
    assert cutoff(t, 1, u, coloring) == parse("F(F(G(x)))", system.sig)
    assert cutoff(t, 2, u, coloring) == parse("F(F(H(G(x))))", system.sig)
    assert cutoff(t, 3, u, coloring) == parse(
        "F(F(H(F(F(G(x))))))", system.sig
    )


@pytest.mark.parametrize("union", CORPUS_UNIONS)
def test_cutoff_matches_the_recursive_cutoff(union):
    system, coloring, terms = seeded_union_terms(union, 40)
    rng = rng_for(f"layers-cutoff-oracle:{union}")
    for t in terms:
        u = rng.choice([var("x"), random_finite_term(rng, system.sig, 2)])
        for n in range(7):
            assert cutoff(t, n, u, coloring) is hand_walks.cutoff(t, n, u, coloring), (t, n, u)


@pytest.mark.parametrize("union", CORPUS_UNIONS)
def test_one_layer_of_cutoff_is_the_top_layer_filled_with_one_term(union):
    """The cutoff at one layer is the top layer with u behind every
    principal cut edge: the same stored node on every application term."""
    system, coloring, terms = seeded_union_terms(union, 400)
    rng = rng_for(f"layers-one-layer-fill:{union}")
    for t in terms:
        if t.is_var:
            continue
        u = rng.choice([var("x"), random_finite_term(rng, system.sig, 2)])
        cut = ppos(t, coloring)
        filled = toplayer_fill(t, cut, {e: u for e in cut.edges})
        assert cutoff(t, 1, u, coloring) is filled, (t, u)


def test_cutoff_returns_past_the_recursion_limit():
    """Thousands of layers, where one level of recursion per layer
    raised RecursionError."""
    system, coloring = exa_setup()
    u = parse("G(x)", system.sig)
    ring = parse("mu X. F(H(X))", system.sig)
    unrolled = parse("F(H(" * 1000 + "G(x)" + "))" * 1000, system.sig)
    assert cutoff(ring, 2000, u, coloring) is unrolled
    chain = parse("F(H(" * 1200 + "x" + "))" * 1200, system.sig)
    assert cutoff(chain, 2400, u, coloring) is chain


def test_cutoff_refuses_negative_layers():
    """On an alternating cycle the layers never run out."""
    system, coloring = exa_setup()
    with pytest.raises(TermError):
        cutoff(parse("mu X. F(H(X))", system.sig), -1, var("x"), coloring)


def test_cutoff_non_expansive():
    system, coloring = rearrange_setup()
    rng = rng_for("layers-cutoff-nonexp")
    u = parse("Z", system.sig)
    for _ in range(80):
        t1 = random_finite_term(rng, system.sig, 4)
        t2 = random_finite_term(rng, system.sig, 4)
        if t1.is_var or t2.is_var:
            continue
        for n in (1, 2, 3):
            lhs = distance(system.metric, cutoff(t1, n, u, coloring),
                           cutoff(t2, n, u, coloring))
            assert lhs <= distance(system.metric, t1, t2)


# --- step function --------------------------------------------------------------


def test_step_fn_examples():
    sig = Signature({"F": 2, "G": 1})
    g = metric_granular(sig, {"F": ["lazy", "strict"], "G": ["lazy"]})
    t = parse("F(G(F(x, y)), G(x))", sig)
    chain = [(), (1,), (1, 1), (1, 1, 2)]
    assert step_fn(g, t, chain, 0) == 0
    assert step_fn(g, t, chain, 1) == 1  # lazy F-edge
    assert step_fn(g, t, chain, 2) == 2  # lazy G-edge
    assert step_fn(g, t, chain, 3) == 2  # strict second F-argument


def test_step_fn_all_strict_path():
    sig = Signature({"F": 1})
    g = metric_granular(sig, {"F": ["strict"]})
    t = parse("mu X. F(X)", sig)
    chain = [(), (1,), (1, 1)]
    assert step_fn(g, t, chain, 2) == 0


def test_step_fn_rejects_non_granular():
    system, coloring = exa_setup()
    with pytest.raises(TermError):
        step_fn(system.metric, parse("H(x)", system.sig), [(), (1,)], 1)


def test_step_fn_rejects_broken_chain():
    sig = Signature({"F": 1})
    g = metric_granular(sig, {"F": ["lazy"]})
    t = parse("mu X. F(X)", sig)
    with pytest.raises(TermError):
        step_fn(g, t, [(), (1, 1)], 1)


@pytest.mark.parametrize("index", [0, 3])
def test_step_fn_rejects_an_argument_outside_the_arity(index):
    sig = Signature({"F": 2, "A": 0})
    g = metric_granular(sig, {"F": ["strict", "lazy"], "A": []})
    with pytest.raises(TermError):
        step_fn(g, parse("F(A, A)", sig), [(), (index,)], 1)


# --- trace-level principal positions ----------------------------------------------


def test_trace_ppos_eventually_principal():
    system, coloring, tr = rearrange_trace()
    terms = tr.all_terms()
    stable = trace_ppos(terms, coloring, 6)
    # the gap below the J/K top layer stays principal from some point on,
    # the root itself never is
    assert (1, 1) in stable
    assert () not in stable


@pytest.mark.parametrize("depth_bound", [4, 8])
def test_trace_ppos_is_the_union_of_suffix_intersections(depth_bound):
    """By the definition: the union over every start index of the cut
    positions common to all terms from that index on."""
    for name, _system, coloring, tr, _x in union_traces():
        terms = tr.all_terms()
        per_term = [cut_positions(t, coloring, depth_bound) for t in terms]
        union: set = set()
        for start in range(len(per_term)):
            union |= set.intersection(*per_term[start:])
        assert trace_ppos(terms, coloring, depth_bound) == union, name
        for k in range(1, len(terms)):
            assert trace_ppos(terms[:k], coloring, depth_bound) == set().union(
                *(set.intersection(*per_term[s:k]) for s in range(k))), (name, k)


def test_trace_ppos_single_term():
    system, coloring = rearrange_setup()
    t = parse("J(K(Z, Z))", system.sig)
    assert trace_ppos([t], coloring, 6) == cut_positions(t, coloring, 6)
