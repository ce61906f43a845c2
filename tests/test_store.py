"""The hash-consed store of itrsbench.terms against the flat canonical
terms it replaced (tests/flat_terms.py): identical flat views, redex
occurrences and reducts on seeded graphs and on seeded steps of every
corpus system; == against bisimilar; the weak tables empty again after
long runs; a rewrite path, trace diameters and a cut trace that build
no flat view; and loops placed whole where they meet a stored one."""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter
from itertools import combinations

import flat_terms
import hand_walks
import itrsbench.terms as terms_module
from itrsbench import (
    app,
    bisimilar,
    find_loop,
    parse,
    redexes,
    replace,
    simulate,
    successors,
    to_text,
    var,
)
from itrsbench.convergence import _knot, cutoff_trace, extrapolate_limit, sliding_diameter
from itrsbench.corpus import ITRS_SOURCES, diverge_exa_trace, load, load_union, string_trace
from itrsbench.terms import APP, from_nodes, node_at, sccs, subterm_at_node
from conftest import (
    CORPUS_UNIONS,
    random_finite_term,
    random_rational_term,
    rng_for,
    store_nodes,
)
from test_terms import random_mixed_nodes, random_raw_nodes

# start terms of the corpus fixtures, by the system they run under
CORPUS_STARTS = {
    "exnonlin": ["F(0, 0, 0)", "0"],
    "rearrange": ["J(mu X. K(E, X))", "Z", "mu X. K(J(K(x, y)), X)"],
    "exa-layers": ["mu X. H(F(F(X)))", "mu X. F(F(H(X)))", "mu X. F(H(X))"],
    "exa-layers2": ["mu X. F(F(H(X)))", "mu X. G(H(X))"],
    "toyama": ["F(0, 1, G(0, 1))", "F(0, 1, mu X. G(0, G(1, X)))"],
    "collapsing": ["mu X. F(H(X))", "G(H(H(mu X. F(H(X)))))"],
    "zantema": ["E", "F", "G(mu X. S(X), S(E))"],
    "string": [],
}


def corpus_systems():
    """(name, system, start terms) for every corpus system with rules:
    each fixture file, and each union of a fixture pair."""
    out = []
    for name in sorted(ITRS_SOURCES):
        f = load(name)
        if f.system.rules:
            starts = list(f.terms.values()) + [
                parse(text, f.system.sig) for text in CORPUS_STARTS.get(name, ())]
            out.append((name, f.system, starts))
    for union in CORPUS_UNIONS:
        system, _coloring = load_union(f"{union}-r", f"{union}-s")
        out.append((union, system, [parse(text, system.sig) for text in CORPUS_STARTS[union]]))
    return out


def seeded_terms(name, system, starts, count=24):
    """The start terms, seeded finite and cyclic terms over the system,
    and their reducts two steps deep."""
    rng = rng_for(f"store:{name}")
    pool = list(starts) + [
        random_finite_term(rng, system.sig, 4) if k % 2 else
        random_rational_term(rng, system.sig, rng.randint(1, 6))
        for k in range(count)
    ]
    for _ in range(2):
        pool += [u for t in pool[-count:] for _o, u in successors(system, t, 4)[:6]]
    return list(dict.fromkeys(pool))


def on_cycles(t) -> set:
    """The flat node numbers of t that lie on a cycle."""
    return {k for comp in sccs([0], t.children_of) for k in comp
            if len(comp) > 1 or k in t.children_of(k)}


def test_flat_views_equal_the_flat_canonical_forms():
    """from_nodes stores the very graph that the flat canonicaliser
    computes, and every node's flat view is that graph from the node."""
    rng = rng_for("store-flat-views")
    shapes = Counter()
    for k in range(2000):
        nodes, root = random_raw_nodes(rng) if k % 2 else random_mixed_nodes(rng)
        t = from_nodes(nodes, root)
        assert t.nodes == flat_terms.from_nodes(nodes, root), (nodes, root)
        for i in range(len(t.nodes)):
            assert subterm_at_node(t, i).nodes == flat_terms.renumbered(t.nodes, i)
        shapes["finite" if t.is_finite else "cyclic"] += 1
    assert min(shapes.values()) > 500, shapes


def test_occurrences_and_reducts_equal_the_flat_ones():
    """On every corpus system, redexes finds the flat search's positions
    and rules with the bound subterms as nodes, and each reduct's flat
    view is the flat replace of the step, many of them inside cycles and
    many collapsing."""
    shapes = Counter()
    for name, system, starts in corpus_systems():
        rng = rng_for(f"store-steps:{name}")
        for t in seeded_terms(name, system, starts):
            depth = rng.randint(2, 6)
            got = redexes(system, t, depth)
            want = flat_terms.redexes(system, t.nodes, depth)
            assert [(o.position, o.rule) for o in got] == [(p, r) for p, r, _b in want], t
            cyclic = on_cycles(t)
            for occ, (p, rule, binding) in zip(got, want):
                assert {x: u.nodes for x, u in occ.binding.items()} == {
                    x: flat_terms.renumbered(t.nodes, i) for x, i in binding.items()}
                reduct = replace(t, p, rule.rhs, occ.binding)
                assert reduct.nodes == flat_terms.replace(t.nodes, p, rule.rhs.nodes, binding)
                spine = {flat_terms.node_at(t.nodes, p[:k]) for k in range(len(p) + 1)}
                shapes["inside a cycle"] += bool(spine & cyclic)
                shapes["collapsing"] += rule.is_collapsing
            assert [u for _o, u in successors(system, t, depth)] == [
                replace(t, o.position, o.rule.rhs, o.binding) for o in got]
    assert shapes["inside a cycle"] > 200 and shapes["collapsing"] > 200, shapes


def test_equality_is_bisimilarity_on_seeded_pairs():
    """Distinct live terms are never bisimilar, and terms built apart
    that are bisimilar are one object."""
    seen = Counter()
    for name, system, starts in corpus_systems()[::3]:
        pool = seeded_terms(name, system, starts, count=8)
        rebuilt = [parse(to_text(t), system.sig) for t in pool]
        for a, b in zip(pool, rebuilt):
            assert a is b and bisimilar(a, b)
        for a, b in combinations(pool[:60], 2):
            assert (a == b) == bisimilar(a, b), (a, b)
            seen[a == b] += 1
    assert seen[False] > 500


def collect():
    """Collect until nothing is left: a collection that frees a node above
    a loop drops the table key that held the loop, which the next frees."""
    while gc.collect():
        pass


def test_the_tables_empty_again_after_long_runs():
    """A long simulate and a find_loop under tracemalloc: once their terms
    are dropped and collections have run (nodes on cycles are freed only
    by them), the node table and the loop index are back at their sizes,
    and the traced memory is back, to a small remainder.  A first run
    leaves each shared node's match memo on these systems, so that the
    second starts from where it ends."""
    exnonlin = load("exnonlin-s").system
    rearrange, _ = load_union("rearrange-r", "rearrange-s")

    def run():
        trace = simulate(exnonlin, parse("0", exnonlin.sig), max_steps=300, depth_bound=400)
        limit = extrapolate_limit(trace.segments[0])  # a knot
        witness = find_loop(rearrange, parse("J(mu X. K(E, X))", rearrange.sig), budget=400)
        ring = parse(marker_ring(500).replace("M", "Traced"))  # a loop of its own
        assert limit is parse("mu X. S(X)", exnonlin.sig) and witness is not None
        return trace, limit, witness, ring

    def sizes() -> tuple:
        return len(terms_module._TABLE), sum(map(len, terms_module._LOOPS.values()))

    run()
    collect()
    tracemalloc.start()
    try:
        before = sizes()
        memory = tracemalloc.get_traced_memory()[0]
        kept = run()
        grown = sizes()
        assert grown[0] > before[0] + 300 and grown[1] > before[1]
        del kept
        collect()
        assert sizes() == before
        left, peak = tracemalloc.get_traced_memory()
        assert left - memory < (peak - memory) / 20, (left - memory, peak - memory)
    finally:
        tracemalloc.stop()


def test_the_rewrite_path_builds_no_flat_view(monkeypatch):
    """redexes and successors run on nodes: with the flat-view walk made
    to raise, they still run on every corpus start term and on seeded
    reducts, cyclic ones included."""
    runs = []
    for name, system, starts in corpus_systems():
        rng = rng_for(f"store-no-view:{name}")
        cyclic = [random_rational_term(rng, system.sig, rng.randint(2, 6)) for _ in range(4)]
        runs.append((system, starts + cyclic))

    def no_view(t):
        raise AssertionError("the rewrite path built a flat view")

    monkeypatch.setattr(terms_module, "_flat_view", no_view)
    seen = Counter()
    for system, terms in runs:
        for t in terms:
            reducts = [u for _o, u in successors(system, t, 8)]
            for u in reducts[:8]:
                redexes(system, u, 8)
                seen["cyclic reducts"] += not u.is_finite
                seen["reducts"] += 1
    assert seen["cyclic reducts"] > 50 and seen["reducts"] > 150, seen


def test_a_trace_diameter_builds_no_flat_view(monkeypatch):
    """distance walks pairs of store nodes: with the flat-view walk made
    to raise, sliding_diameter runs over the string and diverge-exa traces
    (a granular metric and one solved on exponents) and gives the same
    diameters as before."""
    system, _coloring, exa = diverge_exa_trace()
    traces = [(load("string").system.metric, string_trace()[1]), (system.metric, exa)]
    want = [sliding_diameter(m, tr, 3) for m, tr in traces]
    for _m, tr in traces:
        for t in tr.all_terms():
            for node in store_nodes(t):
                node.__dict__.pop("_view", None)
                node.__dict__.pop("nodes", None)

    def no_view(t):
        raise AssertionError("distance built a flat view")

    monkeypatch.setattr(terms_module, "_flat_view", no_view)
    assert [sliding_diameter(m, tr, 3) for m, tr in traces] == want
    assert all(want) and any(d < 1 for d in want[0]) and set(want[1]) == {1}


def test_cutting_a_trace_builds_no_flat_view(monkeypatch):
    """cutoff walks the states (store node, layers left): with the flat-view
    walk made to raise, cutoff_trace cuts the diverge-exa trace at 1 to 3
    layers into the terms of the cutoff that recurses once per layer
    (tests/hand_walks.py), and its steps still validate at 2."""
    system, coloring, tr = diverge_exa_trace()
    u = var("x")
    terms = tr.all_terms()
    want = {n: [hand_walks.cutoff(t, n, u, coloring) for t in terms] for n in (1, 2, 3)}
    for t in terms + [t for cut in want.values() for t in cut]:
        for node in store_nodes(t):
            node.__dict__.pop("_view", None)
            node.__dict__.pop("nodes", None)
    for rule in system.rules:  # the patterns, which may share a node with a cut term
        rule.lhs._pattern, rule.lhs.nodes

    def no_view(t):
        raise AssertionError("cutoff built a flat view")

    monkeypatch.setattr(terms_module, "_flat_view", no_view)
    for n, cut in want.items():
        rep = cutoff_trace(system, tr, n, u, coloring)
        assert rep.trace.all_terms() == cut
    assert not cutoff_trace(system, tr, 2, u, coloring).violations
    assert len(set(want[2][1:])) == 1 and want[3] != want[2] != want[1]


# --- loops placed whole -------------------------------------------------------


def test_a_loop_folds_into_a_stored_loop_that_it_points_into():
    """A new loop bisimilar to a stored loop below it: raw, through
    replace with a cyclic right-hand side, and through the knot."""
    loop = parse("mu X. G(X, X)")
    # n0 = G(n1, loop) and n1 = G(n0, loop) unfold to the all-G tree again
    assert from_nodes([(APP, "G", (1, loop)), (APP, "G", (0, loop))], 0) is loop
    t = parse("H(c)")
    assert replace(t, (1,), parse("mu X. G(X, y)"), {"y": loop}) is app("H", [loop])
    assert replace(t, (1,), parse("mu X. G(y, G(X, y))"), {"y": loop}) is app("H", [loop])
    assert _knot(loop, (), (1,)) is loop
    ring = parse("mu X. F(G(X))")
    assert _knot(parse("H(mu X. F(G(X)))"), (1,), (1, 1)) is ring


def test_nodes_above_a_loop_meet_its_nodes():
    """A node consed over a loop's nodes is the loop's node with that
    symbol and those arguments, also when two of them share arguments."""
    t = from_nodes([(APP, "C", (1, 2)), (APP, "A", (0,)), (APP, "B", (0,))], 0)
    a, b = t.args
    assert a.args == b.args == (t,)
    assert app("A", [t]) is a and app("B", [t]) is b
    assert app("D", [t]).args == (t,) and app("D", [t]) not in (a, b)
    assert app("C", [a, b]) is t and parse(to_text(b)) is b


def marker_ring(n: int, at: int = 0) -> str:
    word = ["S"] * n
    word[at] = "M"
    return "mu X. " + "".join(f"{s}(" for s in word) + "X" + ")" * n


def test_a_ring_built_apart_is_the_stored_one():
    """The same 900-node marker ring parsed twice while the first lives is
    one object, and a rotation of it is a node of that loop."""
    text = marker_ring(900, 17)
    first = parse(text)
    assert len(first.nodes) == 900
    assert parse(text) is first
    rotated = parse(marker_ring(900, 18))
    assert rotated is not first and node_at(rotated, (1,)) is first
    # no label of its own: the two presentations meet through one joint refinement
    word = [s for i in range(1, 30) for s in "A" * i + "B"]
    text = "mu X. " + "".join(f"{s}(" for s in word) + "X" + ")" * len(word)
    again = parse(text)
    assert parse(text) is again and len(again.nodes) == len(word)


def test_placing_a_loop_is_not_quadratic():
    """Loops of 20000 nodes met twice through the joint refinement:
    O(m log n), where a quadratic step takes minutes."""
    n = 20000
    ring = parse(marker_ring(n))
    assert parse(marker_ring(n, n // 2)) is node_at(ring, (1,) * (n // 2))
    word = "".join("A" * (i % 7 + 1) + "B" for i in range(n // 5)) + "A" * 9 + "B"
    text = "mu X. " + "".join(f"{s}(" for s in word) + "X" + ")" * len(word)
    first = parse(text)
    assert parse(text) is first
    knot = from_nodes([(APP, "G", ((k + 1) % n, first)) for k in range(n)], 0)
    assert knot is from_nodes([(APP, "G", ((k + 1) % n, first)) for k in range(n)], 0)
