"""The hash-consed store of itrsbench.terms against the flat canonical
terms it replaced (tests/flat_terms.py): identical flat views, redex
occurrences and reducts on seeded graphs and on seeded steps of every
corpus system; == against bisimilar; the weak tables empty again after
long runs; readers that build no flat view, and a flat view that holds
no node; and loops placed whole where they meet a stored one."""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import flat_terms
import hand_walks
import itrsbench.terms as terms_module
from itrsbench import (
    Fp,
    GuardExceeded,
    RationalTerm,
    app,
    cut_positions,
    epos,
    find_loop,
    is_member,
    metric_id,
    parse,
    ppos,
    rank,
    redexes,
    replace,
    simulate,
    successors,
    term_depth,
    to_text,
    toplayer_fill,
    var,
    variables,
    vdepth,
    xi_trace,
)
from itrsbench.convergence import _knot, cutoff_trace, extrapolate_limit, sliding_diameter
from itrsbench.corpus import (
    ITRS_SOURCES,
    diverge_exa_trace,
    load,
    load_union,
    rearrange_trace,
    string_trace,
)
from itrsbench.layers import principal_cycles
from itrsbench.metrics import simple_cycles
from itrsbench.terms import APP, VAR, from_nodes, node_at, node_numbers, sccs, unfold
from coinductive_match import bisimilar
from conftest import (
    CORPUS_UNIONS,
    GENERIC_SIG,
    random_finite_term,
    random_rational_term,
    rng_for,
    seeded_union_terms,
    store_nodes,
)
from flat_terms import children_of, subterm_at_node
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
    return {k for comp in sccs([0], lambda k: children_of(t, k)) for k in comp
            if len(comp) > 1 or k in children_of(t, k)}


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


def _rewrite_path():
    """redexes and successors run on every corpus start term and on
    seeded reducts, cyclic ones included."""
    runs = []
    for name, system, starts in corpus_systems():
        rng = rng_for(f"store-no-view:{name}")
        cyclic = [random_rational_term(rng, system.sig, rng.randint(2, 6)) for _ in range(4)]
        runs.append((system, starts + cyclic))

    def run():
        seen = Counter()
        for system, terms in runs:
            for t in terms:
                reducts = [u for _o, u in successors(system, t, 8)]
                for u in reducts[:8]:
                    redexes(system, u, 8)
                    seen["cyclic reducts"] += not u.is_finite
                    seen["reducts"] += 1
        assert seen["cyclic reducts"] > 50 and seen["reducts"] > 150, seen

    return [t for _system, terms in runs for t in terms], run


def _trace_diameter():
    """sliding_diameter over the string and diverge-exa traces (a granular
    metric and one solved on exponents) gives the same diameters."""
    system, _coloring, exa = diverge_exa_trace()
    traces = [(load("string").system.metric, string_trace()[1]), (system.metric, exa)]
    want = [sliding_diameter(m, tr, 3) for m, tr in traces]

    def run():
        assert [sliding_diameter(m, tr, 3) for m, tr in traces] == want
        assert all(want) and any(d < 1 for d in want[0]) and set(want[1]) == {1}

    return [t for _m, tr in traces for t in tr.all_terms()], run


def _cut_trace():
    """cutoff_trace cuts the diverge-exa trace at 1 to 3 layers into the
    terms of the cutoff that recurses once per layer (tests/hand_walks.py),
    and its steps still validate at 2."""
    system, coloring, tr = diverge_exa_trace()
    u = var("x")
    terms = tr.all_terms()
    want = {n: [hand_walks.cutoff(t, n, u, coloring) for t in terms] for n in (1, 2, 3)}

    def run():
        for n, cut in want.items():
            assert cutoff_trace(system, tr, n, u, coloring).trace.all_terms() == cut
        assert not cutoff_trace(system, tr, 2, u, coloring).violations
        assert len(set(want[2][1:])) == 1 and want[3] != want[2] != want[1]

    return terms + [t for cut in want.values() for t in cut], run


def _seeded_cyclic(name, sig, count=40):
    rng = rng_for(f"store-no-view:{name}")
    return [random_rational_term(rng, sig, rng.randint(2, 7)) for _ in range(count)]


def _membership(metric, name):
    """is_member gives the verdicts and witnesses it gave before the
    flat-view walk was made to raise, non-members among them."""
    terms = _seeded_cyclic(name, metric.sig)
    want = [is_member(metric, t) for t in terms]
    assert {v.kind for v in want} == {"member", "non_member"}

    def run():
        assert [is_member(metric, t) for t in terms] == want

    return terms, run


def _epos(m, t):
    """epos at 1/8 with a guard of 16, or where the guard stopped it."""
    try:
        return epos(m, t, 0.125, depth_guard=16)
    except GuardExceeded as e:
        return e.args


def _readers():
    """epos, vdepth, rank, ppos, positions, toplayer_fill, term_depth,
    variables and bisimilar, each on seeded union terms, finite and
    cyclic, with the answers they gave before the flat-view walk was made
    to raise."""
    system, coloring, terms = seeded_union_terms("exa-layers2", 40)
    m = system.metric
    finite = [t for t in terms if t.is_finite]
    apps = [t for t in terms if not t.is_var]
    cases = {
        "epos": lambda: [_epos(m, t) for t in terms],
        "vdepth": lambda: [vdepth(m, t, "x")(Fraction(1, 2)) for t in terms],
        "rank": lambda: [rank(t, coloring) for t in apps],
        "ppos": lambda: [(ppos(t, coloring).edges, cut_positions(t, coloring, 5)) for t in apps],
        "toplayer_fill": lambda: [
            toplayer_fill(cut.term, cut, {e: var("hole") for e in cut.edges})
            for cut in (ppos(t, coloring) for t in apps)
        ],
        "term_depth": lambda: [term_depth(t) for t in finite],
        "variables": lambda: [variables(t) for t in terms],
        "bisimilar": lambda: [bisimilar(a, b) for a in terms[:12] for b in terms[:12]],
    }
    return cases, terms


def _reader(name):
    def case():
        cases, terms = _readers()
        want = cases[name]()

        def run():
            assert cases[name]() == want

        return terms, run

    return case


def _xi_rearrange():
    """xi_trace on the rearrange fixture gives the same report."""
    system, coloring, tr = rearrange_trace()
    rule = system.rule("jk")

    def report():
        rep = xi_trace(system, tr, rule, Fp((1, 1), tr, system, coloring, budget=400), coloring)
        return rep.trace.all_terms(), rep.flip_counts, rep.violations, rep.cauchy

    want = report()

    def run():
        assert report() == want

    return tr.all_terms(), run


NO_VIEW_CASES = {
    "rewrite-path": _rewrite_path,
    "trace-diameter": _trace_diameter,
    "cut-trace": _cut_trace,
    "member-granular": lambda: _membership(metric_id(GENERIC_SIG), "granular"),
    "member-cycles": lambda: _membership(
        load_union("exa-layers2-r", "exa-layers2-s")[0].metric, "cycles"),
    **{name: _reader(name) for name in (
        "epos", "vdepth", "rank", "ppos", "toplayer_fill", "term_depth", "variables",
        "bisimilar")},
    "xi_trace": _xi_rearrange,
}


@pytest.mark.parametrize("case", NO_VIEW_CASES)
def test_no_reader_builds_a_flat_view(case, monkeypatch):
    """Each reader walks store nodes: with the cached flat views of its
    terms dropped and the flat-view walk made to raise, it still runs and
    gives the answers it gave before."""
    terms, run = NO_VIEW_CASES[case]()
    for t in terms:
        for node in store_nodes(t):
            node.__dict__.pop("nodes", None)

    def no_view(t):
        raise AssertionError(f"{case} built a flat view")

    monkeypatch.setattr(terms_module, "_flat_view", no_view)
    run()


def test_the_export_holds_no_node():
    """A term's cached nodes holds numbers and names only, so it keeps no
    node of a loop alive."""
    for t in _seeded_cyclic("export", GENERIC_SIG, 20) + [parse("F(G(c), H(mu X. G(X)))")]:
        stack, seen = [t.nodes], set()
        while stack:
            obj = stack.pop()
            assert not isinstance(obj, RationalTerm), t
            if isinstance(obj, tuple) and id(obj) not in seen:
                seen.add(id(obj))
                stack.extend(gc.get_referents(obj))


@pytest.mark.parametrize("union", CORPUS_UNIONS)
def test_numbered_outputs_equal_the_flat_readers(union):
    """Read on nodes and numbered by node_numbers, membership verdicts and
    witnesses, simple cycles in their order, principal cycles, the cut
    edges and to_text equal those of the readers of the flat view
    (tests/flat_terms.py), on seeded union terms and seeded cyclic terms,
    under the union's metric and a granular one."""
    system, coloring, terms = seeded_union_terms(union, 40)
    rng = rng_for(f"store-numbered:{union}")
    terms += [random_rational_term(rng, system.sig, rng.randint(2, 7)) for _ in range(100)]
    seen = Counter()
    for t in terms:
        number = node_numbers(t)
        cycles = simple_cycles(t)
        want = flat_terms.simple_cycles(t)
        assert [[(number[n], i) for n, i in c] for c in cycles] == want, t
        assert cycles.truncated == want.truncated
        for m in (system.metric, metric_id(system.sig)):
            got = is_member(m, t)
            assert got == flat_terms.is_member(m, t), t
            seen[got.kind] += 1
        assert to_text(t) == flat_terms.to_text(t)
        if t.is_var:
            continue
        got = principal_cycles(t, coloring, system.metric)
        assert got == flat_terms.principal_cycles(t, coloring, system.metric), t
        seen["principal cycles"] += len(got)
        edges = [(number[node], arg) for node, arg in ppos(t, coloring).edges]
        assert sorted(edges) == sorted(flat_terms.ppos(t, coloring).edges), t
        seen["cut edges"] += len(edges)
    assert seen["non_member"] > 50 and seen["member"] > 40, seen
    assert seen["principal cycles"] > 20 and seen["cut edges"] > 50, seen


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


# --- the state-graph builder ---------------------------------------------------


def test_unfold_takes_int_tuple_and_str_states():
    """A node over a ring, with a stored term beside each, from int, tuple
    and str states: the stored node that parse gives, each state
    expanded once, and the kept term never expanded."""
    c = parse("c")
    want = parse("H(mu X. G(A(X), c), c)")
    graphs = [
        {2: ("H", [0, c]), 0: ("G", [1, c]), 1: ("A", (0,))},
        {("h",): ("H", [("g", 2), c]), ("g", 2): ("G", [("a", 1), c]),
         ("a", 1): ("A", [("g", 2)])},
        {"h": ("H", ["g", c]), "g": ("G", ["a", c]), "a": ("A", ["g"])},
    ]
    for graph in graphs:
        calls = Counter()

        def expand(state, graph=graph):
            calls[state] += 1
            return graph[state]

        assert unfold(next(iter(graph)), expand) is want
        assert dict(calls) == dict.fromkeys(graph, 1)


def test_unfold_gives_the_node_that_from_nodes_gives():
    """Named states over seeded raw lists, cyclic ones among them: the
    very node that from_nodes gives for the list."""
    rng = rng_for("unfold-states")
    cyclic = 0
    for _ in range(300):
        nodes, root = random_raw_nodes(rng, max_nodes=12)

        def expand(name, nodes=nodes):
            entry = nodes[int(name[1:])]
            return entry[1], None if entry[0] == VAR else [f"n{c}" for c in entry[2]]

        t = unfold(f"n{root}", expand)
        assert t is from_nodes(nodes, root), (nodes, root)
        cyclic += not t.is_finite
    assert cyclic > 50


def test_unfold_gives_the_stored_variable():
    """(name, None) is the variable name, at the root or below."""
    assert unfold("v", lambda state: ("x", None)) is var("x")
    graph = {0: ("F", [1, 1]), 1: ("x", None)}
    assert unfold(0, graph.__getitem__) is app("F", [var("x"), var("x")])
