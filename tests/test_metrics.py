"""Metric layer: distances against naive recursive oracles on finite
terms, epsilon-positions, membership, variable depths, and the
component algebra."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from itrsbench import (
    Cap,
    Compose,
    GuardExceeded,
    HALVE,
    IDENTITY,
    Pow,
    Scale,
    Signature,
    TermError,
    TermMetric,
    app,
    compose,
    distance,
    epos,
    graph_term,
    is_member,
    metric_granular,
    metric_id,
    metric_infty,
    parse,
    positions,
    rank,
    substitute,
    subterm,
    validate_metric,
    var,
    vdepth,
)
from itrsbench.metrics import (
    TOL,
    SignatureMismatch,
    _exponent_map,
    _fixpoint,
    _positive_limit,
    component_problems,
    cycle_component,
    is_granular_component,
    lazy_weight,
    position_umm,
    shared_distance,
    simple_cycles,
)
from itrsbench.corpus import diverge_exa_trace, load, load_union
from itrsbench.itrsfile import parse_itrs
from itrsbench.layers import step_fn
from coinductive_match import bisimilar
from fixpoint_sweep import sweep_fixpoint
from flat_terms import children_of, subterm_at_node
from flat_terms import product as flat_product
from fraction_member import at_tol_edge, fraction_member
from conftest import (
    GENERIC_SIG,
    mutate,
    random_finite_term,
    random_rational_term,
    rng_for,
    store_nodes,
)

HALF = Fraction(1, 2)


# --- naive distance oracles on finite terms --------------------------------------


def naive_d_infty(t, u):
    if t == u:
        return Fraction(0)
    if t.is_var or u.is_var or t.root_symbol != u.root_symbol:
        return Fraction(1)
    kids_t = [t.nodes[0][2][i] for i in range(len(t.nodes[0][2]))]
    from itrsbench import subterm

    n = len(t.nodes[0][2])
    return HALF * max(
        naive_d_infty(subterm(t, (i,)), subterm(u, (i,))) for i in range(1, n + 1)
    )


def naive_d_id(t, u):
    return Fraction(0) if t == u else Fraction(1)


def naive_d_ltree(t, u):
    """The introduction example: Bin is lazy in its first argument only."""
    from itrsbench import subterm

    if t == u:
        return Fraction(0)
    if t.is_var or u.is_var or t.root_symbol != u.root_symbol:
        return Fraction(1)
    if t.root_symbol != "Bin":
        return Fraction(1) if t != u else Fraction(0)
    return max(
        HALF * naive_d_ltree(subterm(t, (1,)), subterm(u, (1,))),
        naive_d_ltree(subterm(t, (2,)), subterm(u, (2,))),
        naive_d_ltree(subterm(t, (3,)), subterm(u, (3,))),
    )


@pytest.mark.parametrize("seed", range(10))
def test_distance_infty_matches_oracle(seed):
    rng = rng_for(f"metrics-dinfty-{seed}")
    m = metric_infty(GENERIC_SIG)
    for _ in range(30):
        t = random_finite_term(rng, GENERIC_SIG, 4)
        u = mutate(rng, t, GENERIC_SIG) if rng.random() < 0.7 else random_finite_term(
            rng, GENERIC_SIG, 4
        )
        assert distance(m, t, u) == naive_d_infty(t, u)


@pytest.mark.parametrize("seed", range(5))
def test_distance_id_matches_oracle(seed):
    rng = rng_for(f"metrics-did-{seed}")
    m = metric_id(GENERIC_SIG)
    for _ in range(30):
        t = random_finite_term(rng, GENERIC_SIG, 3)
        u = mutate(rng, t, GENERIC_SIG)
        assert distance(m, t, u) == naive_d_id(t, u)


@pytest.mark.parametrize("seed", range(10))
def test_distance_ltree_matches_oracle(seed, ltree_metric):
    rng = rng_for(f"metrics-ltree-{seed}")
    sig = ltree_metric.sig
    for _ in range(30):
        t = random_finite_term(rng, sig, 4)
        u = mutate(rng, t, sig)
        assert distance(ltree_metric, t, u) == naive_d_ltree(t, u)


def test_ltree_right_spine_distance_one(ltree_metric):
    """The two infinite right spines differ at every strict position."""
    sig = ltree_metric.sig
    spine_null = parse("mu X. Bin(N, Null, X)", sig)
    spine_n = parse("mu X. Bin(N, N, X)", sig)
    assert distance(ltree_metric, spine_null, spine_n) == 1


def test_granularity_is_decided_once_per_metric(ltree_metric, monkeypatch):
    """distance reads is_granular on every call; the components are
    scanned for it once, when the metric is first asked."""
    from itrsbench import metrics

    scanned = []
    real = metrics.is_granular_component
    monkeypatch.setattr(metrics, "is_granular_component", lambda c: scanned.append(c) or real(c))
    m = TermMetric(ltree_metric.sig, dict(ltree_metric.components))
    t = parse("mu X. Bin(N, Null, X)", m.sig)
    u = parse("mu X. Bin(N, N, X)", m.sig)
    for _ in range(5):
        assert distance(m, t, u) == 1
    assert 0 < len(scanned) <= sum(map(len, m.components.values()))


class CountingArities(dict):
    """A signature's symbol table that counts its arity lookups."""

    looked = 0

    def get(self, name, default=None):
        self.looked += 1
        return super().get(name, default)


def test_check_term_walks_only_unchecked_nodes():
    """A node found covered is marked with the signature and not walked
    again; a foreign symbol, or a known one at another arity, beside an
    already-checked argument still raises, and marks nothing."""
    arities = CountingArities(GENERIC_SIG.symbols)
    m = metric_infty(Signature(arities))
    wider = Signature({**GENERIC_SIG.symbols, "K": 1, "J": 2})
    s = parse("F(G(H(c)), mu X. F(X, G(d)))", GENERIC_SIG)
    m.check_term(s)
    assert arities.looked == 7  # one per application node
    m.check_term(s)
    t = parse("F(F(G(H(c)), mu X. F(X, G(d))), c)", GENERIC_SIG)
    m.check_term(t)
    assert arities.looked == 8
    assert distance(m, s, t) == HALF and arities.looked == 8
    for text in ["F(F(G(H(c)), mu X. F(X, G(d))), H(K(c)))",
                 "F(H(J(c, c)), F(G(H(c)), mu X. F(X, G(d))))",
                 "mu Y. F(Y, F(G(H(c)), mu X. F(X, K(G(d)))))"]:
        foreign = parse(text, wider)
        for _ in range(2):
            with pytest.raises(SignatureMismatch):
                m.check_term(foreign)
            assert not m.covers(foreign)
        assert {n for n in store_nodes(foreign) if n._checked} <= store_nodes(t)
    c, d = parse("c", GENERIC_SIG), parse("d", GENERIC_SIG)
    with pytest.raises(SignatureMismatch):
        m.check_term(app("F", [t, app("G", [c, d])]))


def test_a_term_checked_under_a_union_is_walked_again_under_a_constituent():
    """The mark names the signature it was found under: a term covered by
    the exa-layers union is walked again under each constituent, which
    rejects the other constituent's symbol."""
    union, _ = load_union("exa-layers-r", "exa-layers-s")
    left, right = load("exa-layers-r").system.metric, load("exa-layers-s").system.metric
    mixed = parse("mu X. F(F(H(X)))", union.sig)
    plain = parse("F(G(F(x)))", union.sig)
    for t in (mixed, plain):
        union.metric.check_term(t)
        assert t._checked is union.sig
    for m in (left, right):
        with pytest.raises(SignatureMismatch):
            m.check_term(mixed)
        assert mixed._checked is union.sig
    with pytest.raises(SignatureMismatch):
        right.check_term(plain)
    left.check_term(plain)
    assert plain._checked is left.sig and plain.args[0]._checked is left.sig
    union.metric.check_term(plain)
    assert plain._checked is union.sig


def test_ltree_left_spine_contracts(ltree_metric):
    sig = ltree_metric.sig
    a = parse("Bin(Bin(N, Null, Null), Null, Null)", sig)
    b = parse("Bin(Bin(Null, Null, Null), Null, Null)", sig)
    assert distance(ltree_metric, a, b) == Fraction(1, 4)


def non_granular_metric(name: str) -> TermMetric:
    """The exa-layers and exa-layers2 unions; "binary", with a branching
    symbol, so that unequal terms share subterms; "non-dyadic", whose
    constants are not powers of two; and "pow-half", whose square roots
    give floats."""
    if name == "pow-half":
        return TermMetric(GENERIC_SIG, {"F": (Pow(HALF), Scale(Fraction(1, 4))),
                                        "G": (Compose((Pow(HALF), HALVE)),),
                                        "H": (Cap(Fraction(1, 8)),), "c": (), "d": ()})
    if name == "binary":
        return TermMetric(GENERIC_SIG, {"F": (Pow(Fraction(2)), Cap(HALF)),
                                        "G": (Scale(Fraction(2)),), "H": (HALVE,),
                                        "c": (), "d": ()})
    if name == "non-dyadic":
        return TermMetric(GENERIC_SIG, {"F": (Scale(Fraction(3, 2)), Pow(HALF)),
                                        "G": (Scale(Fraction(1, 3)),),
                                        "H": (Cap(Fraction(1, 4)),), "c": (), "d": ()})
    system, _ = load_union(f"{name}-r", f"{name}-s")
    return system.metric


def entered_pairs(monkeypatch) -> list:
    """The pairs whose edges distance asks for from now on, in order."""
    from itrsbench import metrics

    entered = []
    real = metrics._product

    def recording(table):
        edges = real(table)

        def record(pair):
            entered.append(pair)
            return edges(pair)

        return record

    monkeypatch.setattr(metrics, "_product", recording)
    return entered


@pytest.mark.parametrize("name", ["exa-layers", "exa-layers2", "binary"])
def test_distance_pins_exactly_the_bisimilar_pairs(name, monkeypatch):
    """Cyclic pairs under non-granular metrics: d = 0 iff the terms are
    bisimilar, every pair of store nodes the solver enters is a pair of
    non-bisimilar terms, and on the flat product graph (tests/flat_terms.py)
    the pairs the solver fixes at 0 are the bisimilar ones."""
    m = non_granular_metric(name)
    sig = m.sig
    assert not m.is_granular
    rng = rng_for(f"metrics-pinning-{name}")
    entered = entered_pairs(monkeypatch)
    for _ in range(60):
        t = random_rational_term(rng, sig, rng.randint(2, 6))
        u = mutate(rng, t, sig) if rng.random() < 0.5 else random_rational_term(rng, sig, 4)
        entered.clear()
        assert (distance(m, t, u) == 0) == bisimilar(t, u)
        assert bool(entered) == (t != u)
        assert not any(bisimilar(a, b) for a, b in entered)
        clash, edges = flat_product(m, t.nodes, u.nodes)
        pairs, stack = {(0, 0)}, [(0, 0)]
        while stack:
            for _comp, pair in edges(stack.pop()):
                if pair not in pairs:
                    pairs.add(pair)
                    stack.append(pair)
        zero = {
            pair for pair in pairs
            if _fixpoint(pair, edges, lambda q: Fraction(clash(q))) == 0
        }
        assert zero == {
            (a, b) for a, b in pairs
            if bisimilar(subterm_at_node(t, a), subterm_at_node(u, b))
        }


@pytest.mark.parametrize("name", ["exa-layers", "exa-layers2", "binary", "non-dyadic", "pow-half"])
def test_fixpoint_matches_the_whole_graph_sweep(name):
    """Distances, from distance on pairs of store nodes and from the solver
    on the flat product graph (tests/flat_terms.py), and variable depths,
    solved one component at a time, against the whole-graph sweep over the
    flat graphs (tests/fixpoint_sweep.py).  Power-of-two constants and
    integer pows: the same value of the same type.  Other constants and
    square roots: the same Fraction wherever the sweep gives one, and
    within TOL of each float it gives."""
    m = non_granular_metric(name)
    rng = rng_for(f"metrics-fixpoint-oracle-{name}")
    exact = name in ("exa-layers", "exa-layers2", "binary")
    floats = 0
    for _ in range(600):
        if rng.random() < 0.8:
            t = random_rational_term(rng, m.sig, rng.randint(1, 8))
        else:
            t = random_finite_term(rng, m.sig, 5)
        u = mutate(rng, t, m.sig) if rng.random() < 0.5 else random_rational_term(rng, m.sig, 4)
        y = rng.choice([Fraction(1), HALF, Fraction(1, 3)])
        clash, edges = flat_product(m, t.nodes, u.nodes)
        at_clash = lambda q: Fraction(clash(q))
        at_x = lambda node: y if node.args is None and node.symbol == "x" else Fraction(0)
        below = vdepth(m, t, "x")._edges(m.components)
        d = sweep_fixpoint((0, 0), edges, at_clash)
        for got, want in [
            (distance(m, t, u), d),
            (_fixpoint((0, 0), edges, at_clash), d),
            (_fixpoint(t, below, at_x), sweep_fixpoint(t, below, at_x)),
        ]:
            if exact or isinstance(want, Fraction):
                assert (type(got), got) == (type(want), want), (t, u)
            else:
                floats += 1
                assert abs(got - want) <= TOL, (t, u)
    assert (floats > 0) == (not exact)


def test_a_node_on_no_cycle_takes_one_step():
    """A 200-node identity chain above a 2-node cycle that halves once per
    turn and exits through scale(1/1024): the cycle settles in 12 sweeps,
    and each chain node's component is applied once, where the whole-graph
    sweep applies it once per sweep."""

    class Counting:
        def __init__(self):
            self.calls = 0

        def __call__(self, x):
            self.calls += 1
            return x

    n = 200
    chain = Counting()
    graph = {i: [(chain, i + 1)] for i in range(n)}
    graph[n] = [(HALVE, n + 1), (Scale(Fraction(1, 1024)), "exit")]
    graph[n + 1] = [(IDENTITY, n)]
    graph["exit"] = []
    assert _fixpoint(0, graph.__getitem__, lambda node: Fraction(1)) == Fraction(1, 1024)
    assert chain.calls == n
    chain.calls = 0
    assert sweep_fixpoint(0, graph.__getitem__, lambda node: Fraction(1)) == Fraction(1, 1024)
    assert chain.calls == 12 * n


def test_a_cycle_that_reaches_a_nonzero_leaf_is_swept_though_its_exit_underflows():
    """pow(3/2) of 2^-800 underflows a float to 0.0, but the node still
    reaches a nonzero leaf, so the cycle above it is swept, and it keeps
    its greatest solution 1 (v_a = sqrt(v_b), v_b = v_a^2)."""
    graph = {"root": [(IDENTITY, "a")], "a": [(Pow(HALF), "b"), (IDENTITY, "e")],
             "b": [(Pow(Fraction(2)), "a")], "e": [(Pow(Fraction(3, 2)), "x")], "x": []}
    leaf = {"x": Fraction(1, 2**800)}.__getitem__
    assert Pow(Fraction(3, 2))(leaf("x")) == 0
    assert _fixpoint("root", graph.__getitem__, leaf) == 1
    assert sweep_fixpoint("root", graph.__getitem__, leaf) == 1


# --- epsilon-positions -----------------------------------------------------------


def test_epos_example():
    sig = Signature({"S": 1, "0": 0})
    m = metric_infty(sig)
    assert epos(m, parse("S(S(0))", sig), HALF) == {(), (1,)}


def test_epos_guard_exceeded_under_id():
    sig = Signature({"S": 1, "0": 0})
    m = metric_id(sig)
    with pytest.raises(GuardExceeded):
        epos(m, parse("mu X. S(X)", sig), HALF)


def test_epos_whole_term_at_tiny_epsilon():
    sig = GENERIC_SIG
    m = metric_infty(sig)
    t = parse("F(G(c), d)", sig)
    from itrsbench import positions

    assert epos(m, t, Fraction(1, 64)) == positions(t, 10)


@pytest.mark.parametrize("name", ["exa-layers", "exa-layers2", "binary"])
def test_epos_matches_position_umm(name):
    """Non-commuting components: epos is the set of positions p with
    position_umm(p)(1) >= epsilon, read off every position up to one past
    the guard; a member that long means the guard must trip."""
    m = non_granular_metric(name)
    rng = rng_for(f"metrics-epos-umm-{name}")
    guard = 6
    tripped = 0
    for _ in range(300):
        t = random_rational_term(rng, m.sig, rng.randint(1, 5))
        eps = rng.choice([Fraction(1), Fraction(3, 4), HALF, Fraction(1, 3), Fraction(1, 4),
                          Fraction(3, 16), Fraction(1, 16)])
        want = {p for p in positions(t, guard + 1) if position_umm(m, t, p)(Fraction(1)) >= eps}
        if any(len(p) > guard for p in want):
            tripped += 1
            with pytest.raises(GuardExceeded):
                epos(m, t, eps, depth_guard=guard)
        else:
            assert epos(m, t, eps, depth_guard=guard) == want, (t, eps)
    assert 0 < tripped < 300


def test_epos_applies_components_outermost_first():
    """Under exa-layers H doubles and F halves: every position of
    mu X. H(F(X)) has position_umm value 1, so the set is infinite."""
    system, _ = load_union("exa-layers-r", "exa-layers-s")
    t = parse("mu X. H(F(X))", system.sig)
    assert position_umm(system.metric, t, (1, 1))(Fraction(1)) == 1
    with pytest.raises(GuardExceeded):
        epos(system.metric, t, Fraction(3, 4))


# --- membership -----------------------------------------------------------------


def test_member_id_iff_acyclic():
    rng = rng_for("metrics-member-id")
    m = metric_id(GENERIC_SIG)
    for _ in range(100):
        t = random_rational_term(rng, GENERIC_SIG, 4)
        assert (is_member(m, t).kind == "member") == t.is_finite


def test_member_infty_always():
    rng = rng_for("metrics-member-infty")
    m = metric_infty(GENERIC_SIG)
    for _ in range(100):
        t = random_rational_term(rng, GENERIC_SIG, 4)
        assert is_member(m, t).kind == "member"


def test_member_granular_needs_lazy_cycle_edge(ltree_metric):
    sig = ltree_metric.sig
    lazy_spine = parse("mu X. Bin(X, Null, Null)", sig)
    strict_spine = parse("mu X. Bin(Null, Null, X)", sig)
    assert is_member(ltree_metric, lazy_spine).kind == "member"
    verdict = is_member(ltree_metric, strict_spine)
    assert verdict.kind == "non_member"
    assert verdict.witness_cycle


def assert_strict_cycle(m, t, cycle):
    """cycle is a closed walk of (node, arg index) edges, each of lazy weight 0."""
    assert cycle
    for (node, i), (nxt, _j) in zip(cycle, cycle[1:] + cycle[:1]):
        assert children_of(t, node)[i - 1] == nxt
        assert lazy_weight(m.component(t.nodes[node][1], i)) == 0


def granular_metrics(ltree_metric):
    """infty, id, ltree and a mixed metric over the generic signature."""
    mixed = metric_granular(
        GENERIC_SIG, {"F": ("lazy", "strict"), "G": ("strict",), "H": ("lazy",), "c": (), "d": ()}
    )
    return [metric_infty(GENERIC_SIG), metric_id(GENERIC_SIG), ltree_metric, mixed]


def test_granular_member_matches_cycle_enumeration(ltree_metric):
    """Non-member iff some enumerated simple cycle is all strict; the
    witness is always a closed all-strict cycle."""
    rng = rng_for("metrics-member-granular-oracle")
    kinds = set()
    for m in granular_metrics(ltree_metric):
        for _ in range(120):
            t = random_rational_term(rng, m.sig, rng.randint(2, 7))
            verdict = is_member(m, t)
            strict = any(
                all(lazy_weight(m.component(node.symbol, i)) == 0 for node, i in cycle)
                for cycle in simple_cycles(t)
            )
            assert verdict.kind == ("non_member" if strict else "member"), t
            if strict:
                assert_strict_cycle(m, t, list(verdict.witness_cycle))
            kinds.add(verdict.kind)
    assert kinds == {"member", "non_member"}


def test_member_cycle_cap_is_unknown():
    """Node i points at i+1 and i+2: too many simple cycles to enumerate.

    Only non-granular membership enumerates them; granular membership and
    rank answer from the strongly connected components.
    """
    n = 20
    sig = Signature({f"S{i}": 2 for i in range(n)})
    spec = {f"n{i}": (f"S{i}", [f"n{(i + 1) % n}", f"n{(i + 2) % n}"]) for i in range(n)}
    t = graph_term(spec, "n0")
    expanding = TermMetric(sig, {s: (Scale(Fraction(2)),) * 2 for s in sig.symbols})
    verdict = is_member(expanding, t)
    assert verdict.kind == "unknown"
    assert "cycle enumeration cap" in verdict.detail
    assert is_member(metric_infty(sig), t).kind == "member"
    verdict = is_member(metric_id(sig), t)
    assert verdict.kind == "non_member"
    assert_strict_cycle(metric_id(sig), t, list(verdict.witness_cycle))
    assert rank(t, {f"S{i}": i % 2 for i in range(n)}) == math.inf
    assert rank(t, {s: 0 for s in sig.symbols}) == 0


TOL_EDGES: dict = {"exa-layers": [], "exa-layers2": [], "binary": [], "non-dyadic": []}


@pytest.mark.parametrize("name", ["exa-layers", "exa-layers2", "binary", "non-dyadic"])
def test_member_matches_fraction_iteration(name):
    """Non-granular membership agrees with the per-cycle iteration on the
    values, verdict and witness cycle alike.  The oracle is skipped only
    where its verdict rests on its own tolerance (at_tol_edge); no input
    of these draws does, so TOL_EDGES, the skipped ones, is empty."""
    m = non_granular_metric(name)
    rng = rng_for(f"metrics-member-oracle-{name}")
    skipped, kinds = [], set()
    for _ in range(1000):
        t = random_rational_term(rng, m.sig, rng.randint(2, 7))
        got, want = is_member(m, t), fraction_member(m, t)
        kinds.add(got.kind)
        if (got.kind, got.witness_cycle) != (want.kind, want.witness_cycle):
            assert at_tol_edge(m, t), (t, got, want)
            skipped.append(str(t))
    assert skipped == TOL_EDGES[name]
    assert kinds == {"member", "non_member"}


@pytest.mark.parametrize("comp, limit, at_edge", [
    (Cap(Fraction(1, 2**40)), "stall at 2^-40", True),
    (Compose((Pow(HALF), Scale(Fraction(1, 4)))), "tend to 2^-2", False),
])
def test_member_cycle_with_a_positive_limit(comp, limit, at_edge):
    """mu X. C(X) is no member when the iterates of C's component stop
    short of 0: cap(2^-40) stalls at 2^-40, though that is below TOL,
    where the iteration on values called the cycle contracting; under
    scale(1/4) then pow(1/2), e -> (e + 2) / 2 tends to 2."""
    sig = Signature({"C": 1})
    m = TermMetric(sig, {"C": (comp,)})
    t = parse("mu X. C(X)", sig)
    verdict = is_member(m, t)
    assert verdict.kind == "non_member"
    assert verdict.witness_cycle == ((0, 1),)
    assert verdict.detail.endswith(limit)
    assert at_tol_edge(m, t) == at_edge
    assert fraction_member(m, t).kind == ("member" if at_edge else "non_member")


@pytest.mark.parametrize("n", [32, 40, 64])
def test_member_exa_layers2_ring_needs_no_big_numbers(n):
    """mu X. F^(n-1)(H(X)) under the exa-layers2 union (F pow(2), H
    cap(1/2)): the iterates on values carry 2^(n-1)-bit denominators, the
    exponents (n-1)-bit integers."""
    m = non_granular_metric("exa-layers2")
    ring = parse("mu X. " + "F(" * (n - 1) + "H(X)" + ")" * (n - 1), m.sig)
    assert is_member(m, ring).kind == "member"


def test_exponent_map_matches_values():
    """x = 2^-e goes to 2^-e' under every dyadic component, e' its
    on_exponent image; where no clamp binds (slope not 0), none binds
    further up and the map goes on with that slope."""
    rng = rng_for("metrics-on-exponent")
    dyadic = [Scale(Fraction(2) ** k) for k in range(-3, 4)]
    dyadic += [Cap(Fraction(1, 2**k)) for k in range(4)] + [Pow(Fraction(k)) for k in (1, 2, 3)]
    for _ in range(300):
        comp = compose(*rng.sample(dyadic, rng.randint(1, 4)))
        e = Fraction(rng.randrange(6))
        image, slope = comp.on_exponent(e)
        assert comp(Fraction(1, 2**e)) == Fraction(1, 2**image)
        as_int = _exponent_map(comp)(int(e))
        assert type(as_int) is int and as_int == image
        if slope:
            assert comp.on_exponent(e + 1) == (image + slope, slope)
    for inexact in [Pow(HALF), Scale(Fraction(3, 2)), Cap(Fraction(1, 3)),
                    compose(HALVE, Pow(Fraction(3, 2)))]:
        assert _exponent_map(inexact) is None


def test_the_affine_triple_matches_the_value_maps():
    """The exponent side, read off each component's (floor, slope, shift)
    triple, against the value maps: exponent_below(b) bounds exactly the
    e with comp(2^-e) >= 2^-b, and _positive_limit reports a stall exactly
    where the iterates of comp from 1 repeat, at the value they repeat."""
    rng = rng_for("metrics-affine-triple")
    dyadic = [Scale(Fraction(2) ** k) for k in range(-3, 4)]
    dyadic += [Cap(Fraction(1, 2**k)) for k in range(4)] + [Pow(Fraction(k)) for k in (1, 2, 3)]
    for _ in range(300):
        comp = compose(*rng.sample(dyadic, rng.randint(1, 4)))
        for b in range(9):
            below = comp.exponent_below(b)
            assert below is None or below < 20
            for e in range(20):
                reached = comp(Fraction(1, 2**e)) >= Fraction(1, 2**b)
                assert reached == (below is not None and e <= below), (comp, b, e)
        x, stall = Fraction(1), ""
        while x.denominator.bit_length() <= 64:
            x, last = comp(x), x
            if x == last:
                stall = f"cycle iterates stall at 2^-{x.denominator.bit_length() - 1}"
                break
        assert _positive_limit(comp) == stall, comp


def test_lazy_weight_counts_the_halvings_of_a_pure_scale():
    """lazy_weight of a composition of contracting power-of-two scales and
    identities is log2(1/comp(1)), composed by compose or kept as one
    Compose; it raises once a pow(k > 1) joins, or a cap(c < 1) that binds
    at 1 (c below the image of 1 under the parts applied before it)."""
    rng = rng_for("metrics-lazy-weight")
    scales = [IDENTITY, HALVE, Scale(Fraction(1, 4)), Scale(Fraction(1, 8))]
    for _ in range(200):
        parts = [rng.choice(scales) for _ in range(rng.randint(1, 4))]
        for comp in (compose(*parts), Compose(tuple(parts))):
            assert 2 ** lazy_weight(comp) == 1 / comp(Fraction(1)), comp
        i = rng.randrange(len(parts) + 1)
        joined = rng.choice([Pow(Fraction(rng.randint(2, 3))), Cap(Fraction(1, 2**rng.randint(1, 5)))])
        comp = Compose(tuple(parts[:i] + [joined] + parts[i:]))
        if isinstance(joined, Cap) and joined.bound >= compose(*parts[i:])(Fraction(1)):
            assert 2 ** lazy_weight(comp) == 1 / comp(Fraction(1)), comp
        else:
            with pytest.raises(TermError):
                lazy_weight(comp)


def test_the_exponent_sweep_gives_way_where_values_move_to_floats():
    """On exponents the sweeps are exact, within the limit the sweeps on
    values have: a halving cycle whose exit is 2^-60 settles at exponent
    60 within the 68 sweeps of a one-node component, as the values do; an
    exit at 2^-100 takes more, the solve on exponents answers None, and
    the values move to floats.  The limit counts the component alone, so
    its answer does not depend on how much graph lies above it, which a
    table of solved pairs cuts away: behind a chain of 30 nodes each cycle
    does as it does alone."""
    chain = {f"c{i}": [(IDENTITY, f"c{i + 1}")] for i in range(30)}
    chain["c30"] = [(IDENTITY, "a")]
    for k in (60, 100):
        cycle = {"a": [(HALVE, "a"), (Scale(Fraction(1, 2**k)), "x")], "x": []}
        for root, graph in (("a", cycle), ("c0", {**cycle, **chain})):
            maps = {n: [(_exponent_map(c), m) for c, m in out] for n, out in graph.items()}
            got = _fixpoint(root, maps.__getitem__, lambda n: 0, on_exponents=True)
            want = _fixpoint(root, graph.__getitem__, lambda n: Fraction(1))
            if k == 60:
                assert (got, want) == (60, Fraction(1, 2**60))
            else:
                assert got is None and type(want) is float


def test_a_known_pair_is_a_leaf_with_its_value():
    """A node in the table of solved values is a leaf with its value, its
    edges not asked for; an exact solve adds every value it found, and a
    solve that read the table gives way (None) where it would move to
    floats, while one that read nothing from it moves to floats."""
    graph = {"r": [(HALVE, "a")], "a": [(HALVE, "a"), (IDENTITY, "b")],
             "b": [(Scale(Fraction(1, 2**100)), "x")], "x": []}
    asked = []

    def edges(n):
        asked.append(n)
        return graph[n]

    one = lambda n: Fraction(1)
    solved = {"a": Fraction(1, 8)}
    assert _fixpoint("r", edges, one, solved=solved) == Fraction(1, 16)
    assert asked == ["r"] and solved == {"a": Fraction(1, 8), "r": Fraction(1, 16)}
    asked.clear()
    solved = {"b": Fraction(1, 2**100)}
    assert _fixpoint("r", edges, one, solved=solved) is None
    assert "b" not in asked and solved == {"b": Fraction(1, 2**100)}
    solved = {}
    assert type(_fixpoint("r", edges, one, solved=solved)) is float and not solved


def test_the_diverge_exa_steps_share_their_pairs(monkeypatch):
    """The 20 step distances of the diverge-exa head reduction, through one
    table of solved pairs, enter 40 pairs of the product graph, each once:
    every d(t_i, t_i+1) reaches the pair of the step before and reads it
    from the table.  A fresh table per distance enters 420.  The answers
    are distance's, in type and value."""
    system, _coloring, tr = diverge_exa_trace()
    m = system.metric
    terms = tr.all_terms()
    steps = list(zip(terms, terms[1:]))
    assert len(steps) == 20
    entered = entered_pairs(monkeypatch)
    solved: dict = {}
    got = [shared_distance(m, a, b, solved) for a, b in steps]
    assert len(entered) == len(set(entered)) == 40
    entered.clear()
    want = [distance(m, a, b) for a, b in steps]
    assert len(entered) == 420
    assert [(type(d), d) for d in got] == [(type(d), d) for d in want]


SHARED_METRICS = ["infty", "lazy-first", "exa-layers", "exa-layers2", "binary", "non-dyadic",
                  "pow-half"]


@pytest.mark.parametrize("name", SHARED_METRICS)
def test_a_shared_table_changes_no_distance(name, monkeypatch):
    """Seeded runs of terms, each the last one mutated or wrapped in a new
    root, measured within windows of 4 through one table per run: every
    answer is a fresh distance's, in type and value, floats included, and
    the table saves pairs."""
    if name == "infty":
        m = metric_infty(GENERIC_SIG)
    elif name == "lazy-first":
        m = metric_granular(GENERIC_SIG, {"F": ["lazy", "strict"], "G": ["strict"],
                                          "H": ["lazy"], "c": [], "d": []})
    else:
        m = non_granular_metric(name)
    sig = m.sig
    unary = sorted(s for s in sig.symbols if sig.arity(s) == 1)
    rng = rng_for(f"metrics-shared-{name}")
    entered = entered_pairs(monkeypatch)
    saved = kinds = 0
    for _ in range(12):
        run = [random_rational_term(rng, sig, rng.randint(2, 6))]
        for _ in range(8):
            last = run[-1]
            run.append(mutate(rng, last, sig) if rng.random() < 0.5
                       else app(rng.choice(unary), [last]))
        pairs = [(a, b) for j, a in enumerate(run) for b in run[j + 1 : j + 4]]
        entered.clear()
        solved: dict = {}
        got = [shared_distance(m, a, b, solved) for a, b in pairs]
        shared = len(entered)
        entered.clear()
        want = [distance(m, a, b) for a, b in pairs]
        assert [(type(d), d) for d in got] == [(type(d), d) for d in want]
        saved += len(entered) - shared
        kinds |= {float: 1, Fraction: 2}[type(max(want))]
    assert saved > 0
    assert kinds == (3 if name == "pow-half" else 2)


# --- variable depth --------------------------------------------------------------


def test_vdepth_substitution_law(ltree_metric):
    """d(t[s/x], t[s'/x]) = vdepth(x, t)(d(s, s')) for granular metrics."""
    rng = rng_for("metrics-vdepth")
    sig = ltree_metric.sig
    for _ in range(60):
        t = random_finite_term(rng, sig, 3)
        s = random_finite_term(rng, sig, 2)
        s2 = random_finite_term(rng, sig, 2)
        depth = vdepth(ltree_metric, t, "x")
        lhs = distance(ltree_metric, substitute({"x": s}, t), substitute({"x": s2}, t))
        assert lhs == depth(distance(ltree_metric, s, s2))


def test_vdepth_absent_variable_is_zero(ltree_metric):
    t = parse("Bin(Null, Null, N)", ltree_metric.sig)
    assert vdepth(ltree_metric, t, "x")(Fraction(1)) == 0


def test_vdepth_lazy_occurrence(ltree_metric):
    t = parse("Bin(x, Null, Null)", ltree_metric.sig)
    assert vdepth(ltree_metric, t, "x")(Fraction(1)) == HALF


@pytest.mark.parametrize("name", ["ltree", "pow-half"])
def test_vdepth_is_defined_on_the_unit_interval_only(name, ltree_metric):
    """Off [0, 1] the map has no meaning: a granular metric would scale the
    point, and pow(1/2) would take the square root of a negative number."""
    m = ltree_metric if name == "ltree" else non_granular_metric(name)
    t = parse("Bin(x, Null, Null)" if name == "ltree" else "F(x, c)", m.sig)
    depth = vdepth(m, t, "x")
    assert depth(Fraction(0)) == 0 and depth(Fraction(1)) > 0
    for y in (Fraction(3), Fraction(-1), Fraction(101, 100)):
        with pytest.raises(TermError, match="defined on"):
            depth(y)


def vdepth_by_positions(m, t, x, y):
    """vdepth's definition read naively: the largest (t,p)_m(y) over the
    positions p of an occurrence of x, 0 without one.  A lightest path
    visits no node twice, so positions shorter than the graph suffice."""
    return max(
        (position_umm(m, t, p)(y) for p in positions(t, len(t.nodes) - 1)
         if subterm(t, p) == var(x)),
        default=Fraction(0),
    )


@pytest.mark.parametrize("name", ["id", "infty", "ltree"])
def test_vdepth_is_two_to_minus_the_granular_level(name, ltree_metric):
    """On rational terms under a granular metric, vdepth(x)(y) is y*2^-level,
    level the fewest lazy edges above an occurrence of x, and 0 without one:
    the largest positional value over the occurrences of x, on members of
    the completion and non-members alike."""
    m = {"id": metric_id(GENERIC_SIG), "infty": metric_infty(GENERIC_SIG),
         "ltree": ltree_metric}[name]
    rng = rng_for(f"metrics-vdepth-level-{name}")
    kinds = set()
    for _ in range(60):
        t = random_rational_term(rng, m.sig, rng.randint(1, 6))
        kinds.add(is_member(m, t).kind)
        depth = vdepth(m, t, "x")
        for y in (Fraction(1), HALF, Fraction(1, 3)):
            got = depth(y)
            assert (type(got), got) == (Fraction, vdepth_by_positions(m, t, "x", y)), t
    assert kinds == ({"member"} if name == "infty" else {"member", "non_member"})


def test_vdepth_off_the_completion_is_the_lightest_path(ltree_metric):
    """A strict cycle above x: the lazy edge to x halves its depth, where
    the greatest solution of the depth equations is 1."""
    t = parse("mu X. Bin(x, Null, X)", ltree_metric.sig)
    assert not is_member(ltree_metric, t)
    assert vdepth(ltree_metric, t, "x")(Fraction(1)) == HALF


@pytest.mark.parametrize("name", ["exa-layers", "exa-layers2"])
@pytest.mark.parametrize("text", [
    "mu X. F(H(X))", "mu X. F(X)", "mu X. G(X)", "mu X. H(X)", "mu X. F(G(H(X)))",
    "F(mu X. H(F(X)))",
])
def test_vdepth_is_zero_where_x_is_unreachable(name, text):
    """Cycles that reach no x count for nothing, exactly, whatever their
    components; under exa-layers2, F is pow(2) and H cap(1/2)."""
    system, _ = load_union(f"{name}-r", f"{name}-s")
    depth = vdepth(system.metric, parse(text, system.sig), "x")(Fraction(1))
    assert depth == 0 and isinstance(depth, Fraction)


def test_vdepth_ignores_a_cycle_that_reaches_no_x():
    """The G-cycle (scale 2) would lift the first argument (pow 2) to 1."""
    m = TermMetric(GENERIC_SIG, {"F": (Pow(Fraction(2)), Cap(HALF)), "G": (Scale(Fraction(2)),),
                                 "H": (HALVE,), "c": (), "d": ()})
    t = parse("F(mu X. G(X), H(H(x)))", GENERIC_SIG)
    assert vdepth(m, t, "x")(Fraction(1)) == Fraction(1, 4)


@pytest.mark.parametrize("a, b, c", [(2, 1, 3), (12, 4, 8), (10, 3, 20), (13, 1, 1)])
def test_two_cap_ring_distance_is_the_composition_to_the_first_clash(a, b, c):
    """Rings F^a H F^b H G^c and one more G first clash at depth n, the
    first ring's length; under exa-layers2 the distance is 2^-2^(a+b),
    which underflows a float from a + b = 11 on."""
    system, _ = load_union("exa-layers2-r", "exa-layers2-s")
    m = system.metric
    word = "F" * a + "H" + "F" * b + "H" + "G" * c

    def ring(w):
        return parse("mu X. " + "".join(s + "(" for s in w) + "X" + ")" * len(w), system.sig)

    want = Fraction(1)
    for symbol in reversed(word):
        want = m.component(symbol, 1)(want)
    assert want == Fraction(1, 2 ** 2 ** (a + b))
    got = distance(m, ring(word), ring(word + "G"))
    assert isinstance(got, Fraction) and got == want


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_finite_terms_need_no_recursion():
    """Chains 400 deep, run with room for only 100 more stack frames."""
    n = 400
    exa, _ = load_union("exa-layers-r", "exa-layers-s")  # F halves, H scale(2)

    def chain(symbol, leaf, sig):
        spec = {f"n{i}": (symbol, [f"n{i + 1}"]) for i in range(n)}
        spec[f"n{n}"] = ("var", leaf) if leaf in "xy" else (leaf, [])
        return graph_term(spec, "n0")

    gc, gd = chain("G", "c", GENERIC_SIG), chain("G", "d", GENERIC_SIG)
    fx, fy = chain("F", "x", exa.sig), chain("F", "y", exa.sig)
    assert not exa.metric.is_granular
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        granular = distance(metric_infty(GENERIC_SIG), gc, gd)
        iterated = distance(exa.metric, fx, fy)
        depth = vdepth(exa.metric, fx, "x")(Fraction(1))
    finally:
        sys.setrecursionlimit(limit)
    assert granular == iterated == depth == Fraction(1, 2**n)


# --- cycles and components -------------------------------------------------------


def test_simple_cycles():
    assert simple_cycles(parse("F(c, d)", GENERIC_SIG)) == []
    spine = parse("mu X. S(X)", Signature({"S": 1}))
    assert simple_cycles(spine) == [[(spine, 1)]]


def test_cycle_component_lazy_weight(ltree_metric):
    t = parse("mu X. Bin(X, Null, Null)", ltree_metric.sig)
    (cycle,) = simple_cycles(t)
    assert lazy_weight(cycle_component(ltree_metric, t, cycle)) == 1


def test_position_umm(ltree_metric):
    t = parse("Bin(Bin(N, Null, Null), Null, Null)", ltree_metric.sig)
    assert position_umm(ltree_metric, t, (1, 1))(Fraction(1)) == Fraction(1, 4)
    assert position_umm(ltree_metric, t, (2,))(Fraction(1)) == 1


def test_compose_algebra():
    assert compose() == IDENTITY
    assert compose(HALVE, HALVE) == Scale(Fraction(1, 4))
    assert compose(IDENTITY, HALVE, IDENTITY) == HALVE
    assert lazy_weight(compose(HALVE, HALVE, IDENTITY)) == 2
    c = compose(Pow(Fraction(2)), Cap(HALF))
    assert c(Fraction(1, 2)) == Fraction(1, 4)


def test_component_problems():
    assert component_problems(Scale(Fraction(1, 2))) == []
    assert component_problems(Scale(Fraction(0)))
    assert component_problems(Pow(Fraction(-1)))
    assert component_problems(Cap(Fraction(0)))
    assert component_problems(Cap(Fraction(3, 2)))
    assert component_problems(Compose(()))
    # compose merges contracting scales only: two negative factors stay wrong
    assert component_problems(compose(Scale(Fraction(-1)), Scale(Fraction(-1))))


def test_granularity_is_decided_by_the_map_not_its_spelling():
    """comp(lazy) is lazy: beside G's lazy, F's comp(lazy) keeps the metric
    granular, so mu X. G(X) is decided by the lazy-edge test, not by
    enumerating simple cycles."""
    m = parse_itrs("metric custom\nsig F/1 [comp(lazy)]\nsig G/1 [lazy]\n").system.metric
    assert m.is_granular
    verdict = is_member(m, parse("mu X. G(X)", m.sig))
    assert (verdict.kind, verdict.detail) == ("member", "every cycle has a lazy edge")


def test_a_float_triple_is_never_granular():
    """comp(scale(3), scale(1/3)) is the identity on values, but its shift
    is log2 3 - log2 3 = 0.0, a float: the metric is not granular, so
    distance and is_member answer through the general path (as strict
    would, with the general path's details) and step_fn refuses it."""
    m = parse_itrs("metric custom\nsig F/1 [comp(scale(3), scale(1/3))]\n"
                   "sig G/1 [lazy]\nsig a/0\nsig b/0\n").system.metric
    assert m.components["F"][0]._affine == (0, 1, 0.0)
    assert not is_granular_component(m.components["F"][0]) and not m.is_granular
    with pytest.raises(TermError):
        lazy_weight(m.components["F"][0])
    for s, u, want in [("F(a)", "F(b)", 1), ("G(F(a))", "G(F(b))", Fraction(1, 2)),
                       ("F(G(a))", "F(G(b))", Fraction(1, 2)),
                       ("mu X. F(G(X))", "mu X. G(F(X))", 1)]:
        assert distance(m, parse(s, m.sig), parse(u, m.sig)) == want, (s, u)
    for s, kind in [("mu X. F(X)", "non_member"), ("mu X. F(G(X))", "member"), ("F(a)", "member")]:
        assert is_member(m, parse(s, m.sig)).kind == kind, s
    with pytest.raises(TermError, match="granular metrics"):
        step_fn(m, parse("F(G(a))", m.sig), [(), (1,)], 1)


def test_other_spellings_of_strict_and_lazy_are_the_same_metric():
    """comp(strict, lazy) is lazy, and pow(1) and cap(1) are strict, built
    directly or read from text: each metric is as granular as its
    strict/lazy original, and gives the same membership verdicts and
    details and the same distances on seeded terms."""
    lazy_like = [Compose((IDENTITY, HALVE)), compose(IDENTITY, HALVE)]
    strict_like = [Pow(Fraction(1)), Cap(Fraction(1)), Compose((Pow(Fraction(1)), Cap(Fraction(1))))]
    assert all(map(is_granular_component, lazy_like + strict_like))
    sig = GENERIC_SIG
    original = metric_granular(sig, {"F": ("lazy", "strict"), "G": ("strict",),
                                     "H": ("lazy",), "c": (), "d": ()})
    built = TermMetric(sig, {"F": (lazy_like[0], strict_like[0]), "G": (strict_like[1],),
                             "H": (lazy_like[1],), "c": (), "d": ()})
    read = parse_itrs("metric custom\nsig F/2 [comp(strict, lazy), pow(1)]\n"
                      "sig G/1 [cap(1)]\nsig H/1 [comp(lazy)]\nsig c/0\nsig d/0\n").system.metric
    assert original.is_granular and built.is_granular and read.is_granular
    rng = rng_for("other-spellings")
    terms = [random_rational_term(rng, sig, rng.randint(1, 7)) for _ in range(40)]
    for m in (built, read):
        for t in terms:
            got, want = is_member(m, t), is_member(original, t)
            assert (got.kind, got.detail) == (want.kind, want.detail), t
        for t, u in zip(terms, terms[1:]):
            assert distance(m, t, u) == distance(original, t, u), (t, u)


def test_log2_of_a_non_positive_constant_raises():
    """cap(0) and scale(0) have no exponent triple: an unvalidated metric
    that holds cap(0) raises TermError instead of measuring as cap(1/2)."""
    sig = Signature({"F": 1, "a": 0, "b": 0})
    m = TermMetric(sig, {"F": (Cap(Fraction(0)),), "a": (), "b": ()})
    with pytest.raises(TermError):
        distance(m, parse("F(a)", sig), parse("F(b)", sig))
    for comp in (Cap(Fraction(0)), Cap(Fraction(-1, 2)), Scale(Fraction(0)), Scale(Fraction(-2))):
        with pytest.raises(TermError):
            comp.on_exponent(1)


def test_component_printing_round_trip():
    from itrsbench.itrsfile import _parse_component

    for comp in [IDENTITY, HALVE, Scale(Fraction(2)), Pow(Fraction(2)),
                 Cap(HALF), Compose((Pow(Fraction(2)), Cap(HALF)))]:
        assert _parse_component(str(comp), 0) == comp


def test_validate_metric(ltree_metric):
    assert validate_metric(ltree_metric).ok
