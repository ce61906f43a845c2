"""Term core: canonical graphs, bisimilarity, positions, substitution,
and the mu-term parser, cross-checked against a naive nested-tuple
implementation on the finite fragment."""

from __future__ import annotations

import copy
import gc
import pickle
import sys
from collections import Counter
from itertools import combinations
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from itrsbench import (
    ParseError,
    Signature,
    TermError,
    app,
    graph_term,
    parallel,
    parse,
    positions,
    prefix_of,
    replace,
    substitute,
    subterm,
    term_depth,
    to_text,
    topequ,
    var,
    variables,
)
from itrsbench.terms import (
    APP,
    VAR,
    from_nodes,
    node_at,
    node_numbers,
    sccs,
)
import itrsbench.terms as terms_module
from conftest import GENERIC_SIG, random_finite_term, random_rational_term, rng_for, store_nodes
from coinductive_match import bisimilar
import flat_terms
from flat_terms import children_of, iter_positions, subterm_at_node
import hand_walks
from named_spec_parse import named_spec_parse
from refined_parse import lazy_parse, refined_from_nodes


# --- a naive finite-term oracle ---------------------------------------------------
# ("var", name) or (symbol, (children...)) as plain nested tuples.


def naive_of(t):
    if t.is_var:
        return ("var", t.nodes[0][1])
    return (t.root_symbol, tuple(naive_of(subterm(t, (i,))) for i in
                                 range(1, len(t.nodes[0][2]) + 1)))


def naive_positions(n, prefix=()):
    out = {prefix}
    if n[0] != "var":
        for i, child in enumerate(n[1], start=1):
            out |= naive_positions(child, prefix + (i,))
    return out


def naive_subterm(n, p):
    for i in p:
        n = n[1][i - 1]
    return n


def naive_depth(n):
    if n[0] == "var" or not n[1]:
        return 0
    return 1 + max(naive_depth(c) for c in n[1])


@pytest.mark.parametrize("seed", range(20))
def test_finite_oracle_agreement(seed):
    rng = rng_for(f"terms-oracle-{seed}")
    t = random_finite_term(rng, GENERIC_SIG, max_depth=4)
    n = naive_of(t)
    assert positions(t, 10) == naive_positions(n)
    assert term_depth(t) == naive_depth(n)
    for p in sorted(naive_positions(n)):
        assert naive_of(subterm(t, p)) == naive_subterm(n, p)


def test_term_depth_of_a_chain_deeper_than_the_recursion_limit():
    n = 5000
    assert sys.getrecursionlimit() < n
    spec = {f"n{i}": (f"S{i}", [f"n{i + 1}"]) for i in range(n)}
    spec[f"n{n}"] = ("var", "x")
    t = graph_term(spec, "n0")
    assert t.is_finite
    assert term_depth(t) == n
    with pytest.raises(TermError):
        term_depth(parse("F(mu X. G(X), c)"))


# --- canonical forms and bisimilarity ----------------------------------------------


def test_hash_consing_identity():
    a = app("F", [var("x"), app("c")])
    b = app("F", [var("x"), app("c")])
    assert a is b


def test_bisimilar_presentations_are_equal():
    one = parse("mu X. S(X)")
    two = parse("mu X. S(S(X))")
    three = graph_term({"a": ("S", ["b"]), "b": ("S", ["a"])}, "a")
    assert one == two == three
    assert bisimilar(one, two)


def test_distinct_infinite_trees_differ():
    spine = parse("mu X. F(X, c)")
    other = parse("mu X. F(c, X)")
    assert spine != other
    assert not bisimilar(spine, other)


def test_canonical_equality_matches_bisimilarity_randomized():
    rng = rng_for("terms-bisim")
    sig = GENERIC_SIG
    for _ in range(200):
        t = random_rational_term(rng, sig, n_nodes=4)
        u = random_rational_term(rng, sig, n_nodes=4)
        assert bisimilar(t, u) == (t == u)
        assert bisimilar(t, t)


# --- the canonicaliser against naive refinement ------------------------------------


def naive_canonical_nodes(nodes, root):
    """RationalTerm.nodes of from_nodes(nodes, root) by naive partition
    refinement: one full sweep per refinement level, so O(n^2) on a chain."""
    seen = {root: 0}
    queue = [root]
    while queue:
        entry = nodes[queue.pop()]
        if entry[0] == APP:
            for child in entry[2]:
                if child not in seen:
                    seen[child] = len(seen)
                    queue.append(child)
    live = sorted(seen, key=seen.get)

    block, labels = {}, {}
    for idx in live:
        entry = nodes[idx]
        label = (VAR, entry[1]) if entry[0] == VAR else (APP, entry[1], len(entry[2]))
        block[idx] = labels.setdefault(label, len(labels))
    while True:
        sigs, new_block = {}, {}
        for idx in live:
            entry = nodes[idx]
            children = entry[2] if entry[0] == APP else ()
            sig = (block[idx], tuple(block[c] for c in children))
            new_block[idx] = sigs.setdefault(sig, len(sigs))
        stable = len(sigs) == len(set(block.values()))
        block = new_block
        if stable:
            break

    rep = {}
    for idx in live:
        rep.setdefault(block[idx], idx)
    order = {block[root]: 0}
    out = [None]
    stack = [block[root]]
    while stack:
        b = stack.pop()
        entry = nodes[rep[b]]
        if entry[0] == VAR:
            out[order[b]] = (VAR, entry[1])
            continue
        child_blocks = [block[c] for c in entry[2]]
        pending = []
        for cb in child_blocks:
            if cb not in order:
                order[cb] = len(out)
                out.append(None)
                pending.append(cb)
        out[order[b]] = (APP, entry[1], tuple(order[cb] for cb in child_blocks))
        stack.extend(reversed(pending))
    return tuple(out)


def random_raw_nodes(rng, max_nodes=24):
    """A raw node list and a root, in one of five shapes, with its indices
    shuffled; nodes the root does not reach are kept."""
    shape = rng.randrange(5)
    n = rng.randint(1, max_nodes)
    nodes = []
    if shape == 0:  # any graph, with variables
        for _ in range(n):
            if rng.random() < 0.2:
                nodes.append((VAR, rng.choice("xy")))
            else:
                arity = rng.randint(0, 3)
                kids = tuple(rng.randrange(n) for _ in range(arity))
                nodes.append((APP, rng.choice("FGH"[: rng.randint(1, 3)]), kids))
    elif shape == 1:  # a chain into a leaf or back into itself
        nodes = [(APP, "S" if rng.random() < 0.8 else "B", (i + 1,)) for i in range(n)]
        if rng.random() < 0.5:
            nodes.append((APP, "0", ()))
        else:
            nodes.append((APP, "S", (rng.randrange(n + 1),)))
    elif shape == 2:  # marker rings, and binary nodes over them
        for _ in range(rng.randint(1, 3)):
            base, m = len(nodes), rng.randint(1, max_nodes // 2)
            marks = {rng.randrange(m) for _ in range(rng.randint(0, 2))}
            nodes += [(APP, "M" if i in marks else "F", (base + (i + 1) % m,)) for i in range(m)]
        for _ in range(rng.randint(0, 3)):
            nodes.append((APP, "G", (rng.randrange(len(nodes)), rng.randrange(len(nodes)))))
    elif shape == 3:  # two copies of one cycle, and F(mu X. F(X)) above them
        m = rng.randint(1, 5)
        for base in (0, m):
            nodes += [(APP, "F", (base + (i + 1) % m,)) for i in range(m)]
        nodes.append((APP, "F", (rng.randrange(len(nodes)),)))
        nodes.append((APP, "G", (len(nodes) - 1, 0)))
    else:  # binary sharing
        for _ in range(n):
            arity = rng.choice([0, 2, 2])
            kids = tuple(rng.randrange(n) for _ in range(arity))
            nodes.append((APP, rng.choice("FG") if arity else rng.choice("ab"), kids))
    perm = list(range(len(nodes)))
    rng.shuffle(perm)
    raw = [None] * len(nodes)
    for i, entry in enumerate(nodes):
        if entry[0] == APP:
            entry = (APP, entry[1], tuple(perm[c] for c in entry[2]))
        raw[perm[i]] = entry
    return raw, rng.randrange(len(raw))


def test_from_nodes_matches_naive_refinement():
    rng = rng_for("terms-canonical")
    merged = 0
    for _ in range(2000):
        nodes, root = random_raw_nodes(rng)
        got = from_nodes(nodes, root).nodes
        assert got == naive_canonical_nodes(nodes, root), (nodes, root)
        live = sccs([root], lambda i: nodes[i][2] if nodes[i][0] == APP else ())
        merged += len(got) < sum(map(len, live))
    assert merged > 500


def test_from_nodes_folds_and_merges_cycles():
    loop = parse("mu X. F(X)")
    # an acyclic node bisimilar to a cyclic one
    assert graph_term({"a": ("F", ["b"]), "b": ("F", ["b"])}, "a") is loop
    # two disjoint copies of one cycle
    two = graph_term(
        {"g": ("G", ["a", "c"]), "a": ("F", ["b"]), "b": ("F", ["a"]), "c": ("F", ["c"])}, "g"
    )
    assert two.nodes == ((APP, "G", (1, 1)), (APP, "F", (1,)))


def test_from_nodes_is_fast_on_chains_and_rings():
    """Refinement that sweeps every node once per level takes minutes here."""
    n = 20000
    chain = from_nodes([(APP, "S", (i + 1,)) for i in range(n)] + [(APP, "0", ())], 0)
    assert len(chain.nodes) == n + 1
    ring = from_nodes([(APP, "M" if i == 0 else "F", ((i + 1) % n,)) for i in range(n)], 0)
    assert len(ring.nodes) == n


def test_canonical_nodes_are_pairwise_not_bisimilar():
    rng = rng_for("terms-distinct-nodes")
    for _ in range(150):
        t = from_nodes(*random_raw_nodes(rng, max_nodes=16))
        subs = [subterm_at_node(t, i) for i in range(len(t.nodes))]
        for a, b in combinations(subs, 2):
            assert not bisimilar(a, b), t


def random_mixed_nodes(rng, max_nodes=30):
    """A raw node list and a root that mix finite and cyclic parts: a
    finite shared part, rings whose nodes may point into it (finite
    subterms below cycles), and spines of F and G over the rings (cycles
    below finite spines).  A part is often copied, or a ring unrolled a
    few steps, so that finite copies, cyclic copies and acyclic paths
    into a cycle must each merge.  Indices shuffled, unreachable nodes kept."""
    nodes: list = []
    for _ in range(rng.randint(1, max_nodes // 3)):
        if not nodes or rng.random() < 0.35:
            nodes.append((VAR, "x") if rng.random() < 0.3 else (APP, rng.choice("ab"), ()))
        elif rng.random() < 0.5:
            nodes.append((APP, "F", (rng.randrange(len(nodes)),)))
        else:
            nodes.append((APP, "G", (rng.randrange(len(nodes)), rng.randrange(len(nodes)))))
    finite = len(nodes)
    if rng.random() < 0.4:  # a copy of the finite part
        nodes += [e if e[0] == VAR else (APP, e[1], tuple(c + finite for c in e[2]))
                  for e in nodes[:finite]]
    rings = []
    for _ in range(rng.randint(0, 2)):
        base, m = len(nodes), rng.randint(1, 5)
        for i in range(m):
            nxt = base + (i + 1) % m
            if rng.random() < 0.4:
                nodes.append((APP, "G", (nxt, rng.randrange(finite))))
            else:
                nodes.append((APP, "F", (nxt,)))
        rings.append(base)
        if rng.random() < 0.4:  # a copy of the ring, or of one turn of it
            turn = rng.random() < 0.5
            nodes += [(APP, e[1], (base if turn and j == m - 1 else e[2][0] + m,) + e[2][1:])
                      for j, e in enumerate(nodes[base:base + m])]
    for _ in range(rng.randint(0, 3)):  # a spine over a ring or a finite node
        below = rng.choice(rings) if rings and rng.random() < 0.8 else rng.randrange(finite)
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                nodes.append((APP, "F", (below,)))
            else:
                other = rng.randrange(len(nodes))
                nodes.append((APP, "G", (below, other) if rng.random() < 0.5 else (other, below)))
            below = len(nodes) - 1
    perm = list(range(len(nodes)))
    rng.shuffle(perm)
    raw = [None] * len(nodes)
    for i, entry in enumerate(nodes):
        if entry[0] == APP:
            entry = (APP, entry[1], tuple(perm[c] for c in entry[2]))
        raw[perm[i]] = entry
    return raw, perm[len(nodes) - 1] if rng.random() < 0.7 else rng.randrange(len(raw))


def test_from_nodes_equals_the_refined_canonicaliser():
    """from_nodes hash-conses what reaches no cycle and refines only the
    rest; the whole-graph refinement it replaced interns the very same
    term on finite, cyclic, shared, partly unreachable and mixed graphs."""
    rng = rng_for("terms-hash-consed-canonical")
    shapes = Counter()
    for k in range(3000):
        nodes, root = random_raw_nodes(rng) if k % 2 else random_mixed_nodes(rng)
        got = from_nodes(nodes, root)
        assert got is refined_from_nodes(nodes, root), (nodes, root)
        live = [i for comp in sccs([root], lambda i: nodes[i][2] if nodes[i][0] == APP else ())
                for i in comp]
        shapes["merged"] += len(got.nodes) < len(live)
        shapes["unreachable"] += len(live) < len(nodes)
        if got.is_finite:
            shapes["finite"] += 1
            continue
        shapes["cyclic"] += 1
        finite_below = any(subterm_at_node(got, i).is_finite for i in range(len(got.nodes)))
        top = sccs([0], lambda k: children_of(got, k))[-1]  # the root's component comes last
        spine_above = len(top) == 1 and 0 not in children_of(got, 0)
        shapes["finite below a cycle"] += finite_below
        shapes["cycle below a spine"] += spine_above
        shapes["both"] += finite_below and spine_above
    assert min(shapes.values()) >= 200, shapes


def test_mu_free_parse_runs_no_refinement(monkeypatch):
    """A finite graph is hash-consed children first: no refinement runs,
    whatever its sharing; a cyclic one with two nodes of one label does."""
    calls = []
    refine = terms_module._refine

    def counting(labels, preds):
        calls.append(len(labels))
        return refine(labels, preds)

    monkeypatch.setattr(terms_module, "_refine", counting)
    rng = rng_for("terms-no-refinement")
    for _ in range(200):
        t = random_finite_term(rng, GENERIC_SIG, 5)
        assert parse(to_text(t), GENERIC_SIG) is t
    chain = parse("S(" * 3000 + "0" + ")" * 3000, Signature({"S": 1, "0": 0}))
    assert len(chain.nodes) == 3001
    shared = [(APP, "F", (i + 1, i + 1)) for i in range(40)] + [(APP, "a", ())]
    assert len(from_nodes(shared + shared, 0).nodes) == 41
    assert calls == []
    gc.collect()  # an earlier test's dead G-loop, still stored, would be met and refined
    assert len(parse("F(mu X. G(G(X)), x)", GENERIC_SIG).nodes) == 3
    assert calls == [2]


@pytest.mark.parametrize("n", [1, 7, 300])
def test_parse_places_each_loop_as_its_binder_closes(monkeypatch, n):
    """A fresh n-node ring under a lasso prefix: parse runs no from_nodes,
    places the ring once and refines it once, on its n nodes, and
    hash-conses the prefix like finite text."""
    calls = Counter()
    refined = []
    place, refine = terms_module._place_loop, terms_module._refine

    def placing(symbols, kids):
        calls["_place_loop"] += 1
        return place(symbols, kids)

    def refining(labels, preds):
        refined.append(len(labels))
        return refine(labels, preds)

    monkeypatch.setattr(terms_module, "from_nodes", lambda *a: calls.update(["from_nodes"]))
    monkeypatch.setattr(terms_module, "_place_loop", placing)
    monkeypatch.setattr(terms_module, "_refine", refining)
    ring = "mu X. " + "".join(f"Ring{n}_{k}(" for k in range(n)) + "X" + ")" * n
    t = parse(f"Lasso{n}(Prefix{n}(c, {ring}))")
    assert calls == Counter({"_place_loop": 1}) and refined == [n]
    assert len(t.nodes) == n + 3 and not t.is_finite
    for node in (t, t.args[0]):
        assert terms_module._TABLE[(node.symbol, node.args)]() is node
    assert t.args[0].args[1]._loop is not None


def test_intern_table_is_weak():
    text = "F(Interned, mu X. G(Interned(X)))"
    t = parse(text)
    assert parse(text) is t
    key = ("Interned", ())
    assert terms_module._TABLE[key]() is subterm(t, (1,))
    loop = subterm(t, (2,))._loop  # the nodes of the G-loop, which one node stands for
    fingerprints = {f for f, refs in terms_module._LOOPS.items()
                    if any(ref()._loop is loop for ref in refs)}
    assert len(fingerprints) == 1
    del t, loop
    gc.collect()
    assert key not in terms_module._TABLE
    assert fingerprints.isdisjoint(terms_module._LOOPS)


def test_copy_and_pickle_return_the_interned_term():
    text = "F(Copied, mu X. G(X))"
    t = parse(text)
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert copy.deepcopy({t: [t]}) == {t: [t]}
    assert pickle.loads(pickle.dumps(t)) is t
    data = pickle.dumps(t)
    del t
    gc.collect()
    assert pickle.loads(data) is parse(text)


def presentations(rng, t):
    """t built again by other routes: printed and parsed, unrolled once
    through graph_term, re-applied to its arguments, and a subterm put
    back in place; plus t with a subterm replaced by a random one."""
    spec = {}
    for i, entry in enumerate(t.nodes):
        for me, other in (("a", "b"), ("b", "a")):
            spec[f"{me}{i}"] = entry if entry[0] == VAR else (
                entry[1], [f"{other}{c}" for c in entry[2]])
    out = [parse(to_text(t)), graph_term(spec, "a0")]
    if not t.is_var:
        out.append(app(t.root_symbol, [subterm(t, (i,)) for i in range(1, len(t.nodes[0][2]) + 1)]))
    p = rng.choice(sorted(positions(t, 3)))
    out.append(replace(t, p, subterm(t, p)))
    out.append(replace(t, p, random_finite_term(rng, GENERIC_SIG, 2)))
    return out


def test_equality_is_bisimilarity_across_construction_routes():
    """Terms are equal, which is identity, iff bisimilar, however built."""
    rng = rng_for("terms-routes")
    seen = Counter()
    previous: list = []
    for _ in range(60):
        if rng.random() < 0.7:
            t = random_rational_term(rng, GENERIC_SIG, rng.randint(1, 5))
        else:
            t = random_finite_term(rng, GENERIC_SIG, 3)
        group = [t] + presentations(rng, t)
        for a in group:
            for b in group + previous:
                assert (a == b) == bisimilar(a, b), (a, b)
                seen[a == b] += 1
        previous = group
    assert seen[True] > 300 and seen[False] > 300


# --- positions, subterms, replacement -----------------------------------------------


def test_positions_of_cyclic_term_bounded():
    t = parse("mu X. S(X)")
    assert positions(t, 3) == {(), (1,), (1, 1), (1, 1, 1)}


def test_subterm_of_spine_is_itself():
    t = parse("mu X. S(X)")
    assert subterm(t, (1, 1, 1)) == t


def test_replace_then_read_back():
    rng = rng_for("terms-replace")
    for _ in range(100):
        t = random_finite_term(rng, GENERIC_SIG, 4)
        u = random_finite_term(rng, GENERIC_SIG, 2)
        ps = sorted(positions(t, 6))
        p = rng.choice(ps)
        assert subterm(replace(t, p, u), p) == u


def test_replace_identity():
    rng = rng_for("terms-replace-id")
    for _ in range(100):
        t = random_rational_term(rng, GENERIC_SIG, 4)
        p = rng.choice(sorted(positions(t, 3)))
        assert replace(t, p, subterm(t, p)) == t


def test_replace_invalid_position_is_noop():
    t = app("c")
    assert replace(t, (1, 2), var("x")) == t


def refined_replace(t, p, u, binding):
    """replace by full refinement: t's nodes, a copy of u and a fresh
    spine along p in one raw node list, canonicalised by from_nodes."""
    nodes = list(t.nodes)
    new = flat_terms.append_nodes(nodes, u.nodes, binding)
    spine = [0]
    for i in p[:-1]:
        spine.append(nodes[spine[-1]][2][i - 1])
    for idx, i in zip(reversed(spine), reversed(p)):
        entry = nodes[idx]
        children = list(entry[2])
        children[i - 1] = new
        nodes.append((APP, entry[1], tuple(children)))
        new = len(nodes) - 1
    return from_nodes(nodes, new)


def test_hash_consed_replace_is_the_refined_term():
    """replace and subterm_at_node return the very object that full
    refinement interns, on cyclic and acyclic terms and right-hand sides,
    with variables bound to nodes of t, two of them to one node."""
    rng = rng_for("terms-hash-consed-replace")
    rhs_vars = ("x", "y", "z")
    shapes = Counter()
    for _ in range(600):
        if rng.random() < 0.5:
            t = random_rational_term(rng, GENERIC_SIG, rng.randint(1, 7))
        else:
            t = random_finite_term(rng, GENERIC_SIG, 4)
        if rng.random() < 0.3:
            u = random_rational_term(rng, GENERIC_SIG, rng.randint(1, 4))
        else:
            u = random_finite_term(rng, GENERIC_SIG, 3)
        nodes = range(len(t.nodes))
        binding = {x: rng.choice(nodes) for x in rhs_vars if rng.random() < 0.7}
        p, idx = rng.choice(list(iter_positions(t, 5)))
        got = replace(t, p, u, {x: subterm_at_node(t, i) for x, i in binding.items()})
        assert got is refined_replace(t, p, u, binding), (t, p, u, binding)
        assert subterm_at_node(t, idx) is from_nodes(t.nodes, idx)
        comps = sccs([0], lambda k: children_of(t, k))
        on_cycle = any(idx in comp and len(comp) > 1 for comp in comps)
        shapes["cyclic t" if not t.is_finite else "finite t"] += 1
        shapes["cyclic u" if not u.is_finite else "finite u"] += 1
        shapes["p on a cycle"] += on_cycle
        shapes["shared binding"] += len(set(binding.values())) < len(binding)
        shapes["repeated variable"] += u.is_finite and len(positions(u, 3)) > len(u.nodes)
    assert min(shapes.values()) >= 20, shapes


def test_replace_folds_into_the_term_and_keeps_it_when_unchanged():
    loop = parse("mu X. F(X)")
    t = parse("H(c, mu X. F(X))")
    # F(x) with x bound to the loop is the loop again: F(mu X. F(X)) folds
    got = replace(t, (1,), parse("F(x)"), {"x": node_at(t, (2,))})
    assert got is parse("H(mu X. F(X), mu X. F(X))")
    assert got.nodes == ((APP, "H", (1, 1)), (APP, "F", (1,)))
    assert replace(loop, (), parse("F(x)"), {"x": loop}) is loop
    # a cyclic rhs folds too, through refinement
    assert replace(t, (1,), parse("F(mu X. F(X))")) is got
    # an rhs equal to the replaced subterm gives t itself
    s = parse("F(G(c), H(mu X. G(X)))")
    for p, idx in iter_positions(s, 4):
        assert replace(s, p, subterm_at_node(s, idx)) is s
        assert replace(s, p, parse("x"), {"x": subterm_at_node(s, idx)}) is s
        assert subterm_at_node(s, idx) is subterm(s, p)


def test_topequ():
    t = parse("F(G(c), d)")
    u = parse("F(G(d), c)")
    assert topequ(t, (1,), u)
    # only symbols strictly above the position are compared, so the
    # differing leaves at (1,1) do not matter
    assert topequ(t, (1, 1), u)
    assert not topequ(t, (2, 1), u)


# --- substitution -------------------------------------------------------------------


def test_substitute_homomorphic():
    t = parse("F(x, G(y))")
    sigma = {"x": parse("mu X. S(X)"), "y": app("c")}
    got = substitute(sigma, t)
    assert subterm(got, (1,)) == sigma["x"]
    assert subterm(got, (2, 1)) == app("c")
    assert variables(got) == set()


def test_substitute_untouched_variables():
    t = parse("F(x, z)")
    got = substitute({"x": app("c")}, t)
    assert variables(got) == {"z"}


def test_substitute_into_cycle():
    t = parse("mu X. F(X, y)")
    got = substitute({"y": app("c")}, t)
    assert got == parse("mu X. F(X, c)", GENERIC_SIG)


def test_open_lists_the_nodes_below_the_root_that_reach_a_variable():
    """What substitute rebuilds of a finite term: each node strictly below
    the root that reaches a variable, once, after its children."""
    rng = rng_for("terms-open")
    for _ in range(300):
        s = random_finite_term(rng, GENERIC_SIG, 3)
        t = app("F", [s, app("F", [app("G", [s]), random_finite_term(rng, GENERIC_SIG, 4)])])
        got = t._open
        assert len(set(got)) == len(got)
        assert set(got) == {n for n in store_nodes(t) - {t} if variables(n)}
        place = {n: k for k, n in enumerate(got)}
        assert all(place[c] < place[n] for n in got for c in n.args or () if c in place)


def test_open_of_a_chain_deeper_than_the_recursion_limit():
    n = 5000
    assert sys.getrecursionlimit() < n
    t = var("x")
    for _ in range(n):
        t = app("G", [t])
    got = t._open
    assert len(got) == n and got[0] is var("x") and got[-1] is t.args[0]
    assert substitute({"x": app("c")}, t) is parse("G(" * n + "c" + ")" * n, GENERIC_SIG)


# --- parser and printer --------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["x", "c", "F(x, y)", "F(G(H(c)), d)", "mu X. F(X, c)", "F(mu X. G(X), x)",
     "F(G(c), G(c))", "mu X. F(X, G(X))"],
)
def test_parse_print_round_trip(text):
    t = parse(text, GENERIC_SIG)
    assert to_text(t) == text


def test_parse_round_trip_randomized():
    rng = rng_for("terms-print")
    for _ in range(200):
        t = random_rational_term(rng, GENERIC_SIG, 5)
        assert parse(to_text(t), GENERIC_SIG) == t


@pytest.mark.parametrize("ring", [True, False], ids=["ring", "chain"])
def test_print_deeper_than_the_recursion_limit(ring):
    """Distinct symbols, so canonicalisation settles in one round."""
    n = 2000
    assert sys.getrecursionlimit() < n
    spec = {f"n{i}": (f"S{i}", [f"n{(i + 1) % n if ring else i + 1}"]) for i in range(n)}
    if not ring:
        spec[f"n{n}"] = ("var", "x")
    t = graph_term(spec, "n0")
    text = to_text(t)
    assert parse(text) == t


def _shared_term(rng, n):
    """The spec of an acyclic graph of n F-nodes, each pointing at two
    random later nodes or leaves, so that nodes are shared."""
    spec = {f"n{n}": ("c", []), f"n{n + 1}": ("var", "x")}
    for i in range(n):
        spec[f"n{i}"] = ("F", [f"n{rng.randint(i + 1, n + 1)}" for _ in range(2)])
    return spec


def test_one_walk_equals_the_two_hand_walks():
    """term_depth is the depth over the Tarjan postorder of a finite term,
    the walk for to_text's binders finds the re-entered nodes of a cyclic
    one (read through node_numbers), the walk of the flat view gives both,
    and to_text prints what the printers over the second walk and over
    the flat view printed, on seeded finite, cyclic and shared terms."""
    rng = rng_for("terms-one-walk")
    seen = Counter()
    for k in range(300):
        kind = ("finite", "rational", "shared", "shared-cyclic")[k % 4]
        if kind == "finite":
            t = random_finite_term(rng, GENERIC_SIG, 4)
        elif kind == "rational":
            t = random_rational_term(rng, GENERIC_SIG, rng.randint(1, 8))
        else:
            spec = _shared_term(rng, rng.randint(1, 8))
            if kind == "shared-cyclic":
                i = rng.randrange(len(spec) - 2)
                spec[f"n{i}"][1][rng.randrange(2)] = f"n{rng.randrange(i + 1)}"
            t = graph_term(spec, "n0")
        order = hand_walks.postorder(t)
        assert t.is_finite == (order is not None), t
        loops = terms_module._binders(t)
        if order is not None:
            assert order == flat_terms.walk(t)
            depth = {}
            for idx in order:
                depth[idx] = max((depth[c] + 1 for c in children_of(t, idx)), default=0)
            assert term_depth(t) == depth[0]
        else:
            number = node_numbers(t)
            assert {number[node] for node in loops} == hand_walks.loop_nodes(t)
            assert hand_walks.loop_nodes(t) == flat_terms.walk(t)
        assert not t.is_finite or not hand_walks.loop_nodes(t) and not loops
        assert to_text(t) == hand_walks.to_text(t) == flat_terms.to_text(t)
        seen[t.is_finite] += 1
    assert seen[True] > 100 and seen[False] > 60, seen


def test_parse_deeper_than_the_recursion_limit():
    n = 5000
    assert sys.getrecursionlimit() < n
    t = parse("mu X. " + "S(" * n + "F(X, x)" + ")" * n, Signature({"S": 1, "F": 2}))
    assert len(t.nodes) == n + 2
    assert subterm(t, (1,) * (n + 1)) == t
    with pytest.raises(ParseError, match=r"expected '\)', got None"):
        parse("S(" * n + "x", Signature({"S": 1}))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("F(x", GENERIC_SIG)
    with pytest.raises(ParseError):
        parse("Unknown(x)", GENERIC_SIG)
    with pytest.raises(ParseError):
        parse("F(x)", GENERIC_SIG)  # wrong arity
    with pytest.raises(ParseError):
        parse("mu X.", GENERIC_SIG)


@pytest.mark.parametrize("text, message, line, column", [
    ("F(x,\n   $)", "unexpected character '$'", 2, 4),
    ("F(c, d)  G", "trailing input 'G'", 1, 10),
    ("F(c,\n  d", "expected ')', got None", 2, 4),
    ("G(c)\n\n  , ", "trailing input ','", 3, 3),
    ("F(mu X. X, c)", "mu binder with no body", 1, 3),
    ("mu X. X", "mu binder with no body", 1, 1),
    ("mu X. mu Y. X", "mu binder with no body", 1, 1),
    ("mu Z.\n  mu X. X", "mu binder with no body", 2, 3),
    ("F(mu X. mu Y. X, mu Z. Z)", "mu binder with no body", 1, 3),
    # a binder with no body is reported only when nothing else is wrong
    ("F(mu X. X, c", "expected ')', got None", 1, 13),
    ("F(mu X. X, K(c))", "unknown symbol K", 1, 16),
    ("mu X. X c", "trailing input 'c'", 1, 9),
    ("mu X. X\n $", "unexpected character '$'", 2, 2),
])
def test_parse_error_locations(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text, GENERIC_SIG)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{line}:{column}: {message}", line, column)


def _mu_tokens(rng, budget: int, bound: tuple = (), shapes: Optional[Counter] = None,
               body: bool = False) -> list[str]:
    """Tokens of a random mu-term over GENERIC_SIG's names: binders nest
    and shadow (three names only), and a bound name may be used under
    several binders, or be a binder's whole body.  Inside a loop it also
    draws binders whose head fills no slot (a leaf, an outer name, or the
    binder's own name: no body) and sibling loops under one binder; out
    of one, loops under a lasso prefix.  A binder's body is mostly an
    application.  shapes, when given, counts the shapes drawn."""
    roll = rng.random()
    if body and rng.random() < 0.6:
        roll = 0.52 + 0.48 * roll
    if budget > 0 and roll < 0.22:
        name = rng.choice("XYZ")
        if shapes is not None and bound:
            shapes["nested binder"] += 1
        return ["mu", name, "."] + _mu_tokens(rng, budget - 1, bound + (name,), shapes, True)
    if bound and roll < 0.28:
        name = rng.choice("XYZ")
        head = name if rng.random() < 0.15 else rng.choice(["c", "x", rng.choice(bound)])
        if shapes is not None:
            shapes["bodiless" if head == name else "alias head" if head in bound else "leaf head"] += 1
        return ["mu", name, ".", head]
    if bound and roll < 0.38:
        name = rng.choice(bound + bound[:1])
        if shapes is not None and name != bound[-1]:
            shapes["outer reference"] += 1
        return [name]
    if budget > 0 and roll < 0.45:
        if shapes is not None:
            shapes["sibling loops" if bound else "lasso prefix"] += 1
        out = ["F", "("]
        for k in range(2):
            name = rng.choice("XYZ")
            out += ([","] if k else []) + ["mu", name, "."]
            out += _mu_tokens(rng, budget - 1, bound + (name,), shapes, True)
        return out + [")"]
    if budget <= 0 or roll < 0.52:
        return [rng.choice(["c", "d", "x", "y"])]
    symbol = rng.choice("FGH")
    out = [symbol, "("]
    for k in range(GENERIC_SIG.arity(symbol)):
        out += ([","] if k else []) + _mu_tokens(rng, budget - 1, bound, shapes)
    return out + [")"]


def _spaced(rng, tokens: list[str]) -> str:
    """tokens joined by random blanks and newlines; two name tokens in a
    row are kept apart."""
    out = [tokens[0]] if tokens else []
    for prev, tok in zip(tokens, tokens[1:]):
        gap = rng.choice(["", "", " ", "  ", "\n", " \n  "])
        if not gap and (prev[0].isalnum() or prev[0] in "_'") and (tok[0].isalnum() or tok[0] in "_'"):
            gap = " "
        out += [gap, tok]
    return "".join(out)


def _parse_outcome(parser, text, sig):
    try:
        return parser(text, sig)
    except ParseError as err:
        return (str(err), err.line, err.column)


def _assert_same_parse(text, sig):
    new, old = _parse_outcome(parse, text, sig), _parse_outcome(named_spec_parse, text, sig)
    if isinstance(old, tuple) and old[0].endswith("mu binder with no body"):
        # the one difference: the new parser reports the binder's own place
        assert isinstance(new, tuple) and new[0].endswith(": mu binder with no body")
        assert new[0] == f"{new[1]}:{new[2]}: mu binder with no body"
        return "bodiless"
    assert new is old if not isinstance(old, tuple) else new == old, text
    return "term" if not isinstance(old, tuple) else "error"


def test_parse_equals_the_named_spec_parser():
    rng = rng_for("terms-parse-oracle")
    seen = Counter()
    for k in range(600):
        sig = GENERIC_SIG if k % 2 else None
        shapes = Counter()
        tokens = _mu_tokens(rng, rng.randrange(1, 8), shapes=shapes)
        outcome = _assert_same_parse(_spaced(rng, tokens), sig)
        seen[outcome] += 1
        for shape in shapes:
            seen[f"{outcome} with {shape}"] += 1
        # malformed: drop, repeat, swap or insert a token, or cut the text
        bad = list(tokens)
        i = rng.randrange(len(bad))
        move = rng.randrange(5)
        if move == 0:
            del bad[i]
        elif move == 1:
            bad.insert(i, bad[i])
        elif move == 2 and i + 1 < len(bad):
            bad[i], bad[i + 1] = bad[i + 1], bad[i]
        elif move == 3:
            bad.insert(i, rng.choice(["(", ")", ",", ".", "mu", "$", "F", "c", "X", "G("]))
        else:
            bad = bad[:i]
        seen["malformed " + _assert_same_parse(_spaced(rng, bad), sig)] += 1
    assert seen["term"] > 200 and seen["bodiless"] > 10, seen
    for shape in ("nested binder", "outer reference", "sibling loops", "lasso prefix",
                  "leaf head", "alias head"):
        assert seen[f"term with {shape}"] > 20, (shape, seen)
    assert seen["bodiless with bodiless"] > 10, seen
    assert seen["malformed error"] > 300, seen
    deep = 5000
    assert sys.getrecursionlimit() < deep
    for text in [
        "mu X. " + "G(" * deep + "F(X, mu Y. H(Y))" + ")" * deep,
        "mu X. mu Y. " * (deep // 2) + "F(X, Y)",
        "mu X. mu Y. " * (deep // 2) + "X",
        "F(" * deep + "c, d" + ")" * deep,
        "F(" * deep + "c, d" + ")" * (deep - 1),
        "G(" * deep + "mu X. F(x, X)" + ")" * deep + ")",
    ]:
        _assert_same_parse(text, GENERIC_SIG)


def test_parse_equals_the_lazy_token_parser():
    """The one-scan tokenizer gives the very term, or the same error text,
    line and column, as the lazy token stream it replaced, on seeded
    valid texts and on malformed ones: tokens dropped, repeated, swapped
    or inserted, bad characters anywhere, texts cut short."""
    rng = rng_for("terms-token-oracle")
    seen = Counter()
    for k in range(800):
        sig = GENERIC_SIG if k % 2 else None
        tokens = _mu_tokens(rng, rng.randrange(1, 8))
        texts = [_spaced(rng, tokens)]
        bad = list(tokens)
        i = rng.randrange(len(bad))
        move = rng.randrange(7)
        if move == 0:
            del bad[i]
        elif move == 1:
            bad.insert(i, bad[i])
        elif move == 2 and i + 1 < len(bad):
            bad[i], bad[i + 1] = bad[i + 1], bad[i]
        elif move == 3:
            bad.insert(i, rng.choice(["(", ")", ",", ".", "mu", "F", "c", "X", "G(", "K(", "?"]))
        elif move == 4:
            bad.insert(i, rng.choice(["$", "-", "@ ", "\u00e9", ";", "F$"]))
        elif move == 5 and bad[i] in ("F", "G", "H"):
            bad[i] = "K"
        else:
            bad = bad[:i]
        texts.append(_spaced(rng, bad))
        if rng.random() < 0.3:
            texts.append(texts[0] + rng.choice([" ", "\n", "\n  "]) + rng.choice(["$", ")", "c", ""]))
        for text in texts:
            seen[_assert_same_as_lazy(text, sig)] += 1
    assert seen["term"] > 500, seen
    for kind in ("trailing input", "unexpected character", "unexpected end", "unexpected token",
                 "mu binder", "expected ')',", "expected '.',", "expected a"):
        assert seen[kind] > 20, seen
    assert sum(n for kind, n in seen.items() if kind.endswith((" is", " expects"))) > 20, seen
    assert seen["unknown symbol"] > 2, seen
    deep = 3000
    for text in ["mu X. " + "G(" * deep + "F(X, mu Y. H(Y))" + ")" * deep,
                 "F(" * deep + "c, d" + ")" * (deep - 1),
                 "G(" * deep + "c" + ")" * deep + "\n $"]:
        _assert_same_as_lazy(text, GENERIC_SIG)


def _assert_same_as_lazy(text, sig) -> str:
    """Assert that parse and lazy_parse agree on text; the kind of outcome."""
    new, old = _parse_outcome(parse, text, sig), _parse_outcome(lazy_parse, text, sig)
    if isinstance(old, tuple):
        assert new == old, text
        return " ".join(old[0].split()[1:3])
    assert new is old, text
    return "term"


def test_signature_rejects_bad_symbols():
    with pytest.raises(TermError):
        Signature({"F": -1})
    with pytest.raises(TermError):
        Signature({"": 1})


# --- position algebra ------------------------------------------------------------------


@given(
    st.lists(st.integers(1, 3), max_size=5),
    st.lists(st.integers(1, 3), max_size=5),
)
@settings(max_examples=200)
def test_prefix_parallel_trichotomy(p, q):
    p, q = tuple(p), tuple(q)
    assert parallel(p, q) == (not prefix_of(p, q) and not prefix_of(q, p))
    assert prefix_of(p, p)
    assert parallel(p, q) == parallel(q, p)
