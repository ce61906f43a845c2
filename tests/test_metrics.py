"""Metric layer: distances against naive recursive oracles on finite
terms, epsilon-positions, membership, variable depths, and the
component algebra."""

from __future__ import annotations

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
    TermMetric,
    bisimilar,
    compose,
    distance,
    epos,
    graph_term,
    is_member,
    metric_id,
    metric_infty,
    parse,
    substitute,
    validate_metric,
    var,
    vdepth,
)
from itrsbench.metrics import (
    _product_nodes,
    component_problems,
    cycle_component,
    lazy_weight,
    position_umm,
    simple_cycles,
)
from itrsbench.corpus import load, load_union
from itrsbench.terms import subterm_at_node
from conftest import (
    GENERIC_SIG,
    mutate,
    random_finite_term,
    random_rational_term,
    rng_for,
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


def test_ltree_left_spine_contracts(ltree_metric):
    sig = ltree_metric.sig
    a = parse("Bin(Bin(N, Null, Null), Null, Null)", sig)
    b = parse("Bin(Bin(Null, Null, Null), Null, Null)", sig)
    assert distance(ltree_metric, a, b) == Fraction(1, 4)


@pytest.mark.parametrize("name", ["exa-layers", "exa-layers2", "binary"])
def test_distance_pins_exactly_the_bisimilar_pairs(name):
    """Cyclic pairs under non-granular metrics: the product pairs pinned
    at 0 are the bisimilar ones, and d = 0 iff the terms are bisimilar."""
    if name == "binary":  # a branching symbol, so unequal terms share subterms
        sig = GENERIC_SIG
        m = TermMetric(sig, {"F": (Pow(Fraction(2)), Cap(HALF)), "G": (Scale(Fraction(2)),),
                             "H": (HALVE,), "c": (), "d": ()})
    else:
        system, _ = load_union(f"{name}-r", f"{name}-s")
        sig, m = system.sig, system.metric
    assert not m.is_granular
    rng = rng_for(f"metrics-pinning-{name}")
    for _ in range(60):
        t = random_rational_term(rng, sig, rng.randint(2, 6))
        u = mutate(rng, t, sig) if rng.random() < 0.5 else random_rational_term(rng, sig, 4)
        assert (distance(m, t, u) == 0) == bisimilar(t, u)
        matched, _clashes, equal = _product_nodes(t, u)
        assert equal == {
            (a, b) for a, b in matched
            if bisimilar(subterm_at_node(t, a), subterm_at_node(u, b))
        }


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


def test_member_cycle_cap_is_unknown():
    """Node i points at i+1 and i+2: too many simple cycles to enumerate."""
    n = 20
    sig = Signature({f"S{i}": 2 for i in range(n)})
    spec = {f"n{i}": (f"S{i}", [f"n{(i + 1) % n}", f"n{(i + 2) % n}"]) for i in range(n)}
    verdict = is_member(metric_infty(sig), graph_term(spec, "n0"))
    assert verdict.kind == "unknown"
    assert "cycle enumeration cap" in verdict.detail


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


# --- cycles and components -------------------------------------------------------


def test_simple_cycles():
    assert simple_cycles(parse("F(c, d)", GENERIC_SIG)) == []
    spine = parse("mu X. S(X)", Signature({"S": 1}))
    assert simple_cycles(spine) == [[(0, 1)]]


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


def test_component_printing_round_trip():
    from itrsbench.itrsfile import _parse_component

    for comp in [IDENTITY, HALVE, Scale(Fraction(2)), Pow(Fraction(2)),
                 Cap(HALF), Compose((Pow(Fraction(2)), Cap(HALF)))]:
        assert _parse_component(str(comp), 0) == comp


def test_validate_metric(ltree_metric):
    assert validate_metric(ltree_metric).ok
