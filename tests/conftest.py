"""Shared fixtures: seeded random term generators over a few signatures,
plus the metrics the property suites quantify over."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from itrsbench import (
    Signature,
    TermMetric,
    app,
    graph_term,
    metric_id,
    metric_infty,
    var,
)
from itrsbench.corpus import load, load_union
from itrsbench.terms import positions as term_positions

VAR_NAMES = ("x", "y", "z")


def random_finite_term(rng: random.Random, sig: Signature, max_depth: int = 4):
    """A random acyclic term; leaves are constants or variables."""
    constants = [s for s in sig.symbols if sig.arity(s) == 0]
    leaves = [var(v) for v in VAR_NAMES] + [app(c) for c in constants]
    if max_depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    symbol = rng.choice(sorted(sig.symbols))
    return app(
        symbol,
        [
            random_finite_term(rng, sig, max_depth - 1)
            for _ in range(sig.arity(symbol))
        ],
    )


def random_rational_term(rng: random.Random, sig: Signature, n_nodes: int = 6):
    """A random cyclic term graph: n application nodes with back edges
    allowed, unused argument slots pointing at fresh leaves."""
    names = [f"n{i}" for i in range(n_nodes)]
    spec: dict = {}
    symbols = sorted(s for s in sig.symbols if sig.arity(s) > 0)
    constants = [s for s in sig.symbols if sig.arity(s) == 0]
    for i, name in enumerate(names):
        symbol = rng.choice(symbols)
        children = []
        for a in range(sig.arity(symbol)):
            roll = rng.random()
            if roll < 0.6 and i + 1 < n_nodes:
                children.append(names[rng.randrange(i + 1, n_nodes)])
            elif roll < 0.85:
                children.append(names[rng.randrange(n_nodes)])
            else:
                leaf = f"{name}_leaf{a}"
                if constants and rng.random() < 0.5:
                    spec[leaf] = (rng.choice(constants), [])
                else:
                    spec[leaf] = ("var", rng.choice(VAR_NAMES))
                children.append(leaf)
        spec[name] = (symbol, children)
    return graph_term(spec, names[0])


def mutate(rng: random.Random, t, sig: Signature, max_depth: int = 3):
    """A nearby term: one random position replaced by a fresh subterm."""
    ps = sorted(term_positions(t, 4))
    p = rng.choice(ps)
    from itrsbench import replace

    return replace(t, p, random_finite_term(rng, sig, max_depth))


def store_nodes(t) -> set:
    """Every store node below t, t included."""
    seen, stack = {t}, [t]
    while stack:
        for c in stack.pop().args or ():
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def common_position(rng: random.Random, t, u, bound: int = 4):
    ps = sorted(term_positions(t, bound) & term_positions(u, bound))
    return rng.choice(ps)


# --- the signatures and metrics the suites quantify over -------------------------

GENERIC_SIG = Signature({"F": 2, "G": 1, "H": 1, "c": 0, "d": 0})


@pytest.fixture(scope="session")
def ltree_metric() -> TermMetric:
    return load("ltree").system.metric


@pytest.fixture(scope="session")
def exa_layers2_metric() -> TermMetric:
    from itrsbench import disjoint_union
    from itrsbench.corpus import load_union

    system, _ = load_union("exa-layers2-r", "exa-layers2-s")
    return system.metric


@pytest.fixture(scope="session")
def property_metrics(ltree_metric, exa_layers2_metric):
    """(name, metric, exact) triples for the metric-law suites."""
    return [
        ("infty", metric_infty(GENERIC_SIG), True),
        ("id", metric_id(GENERIC_SIG), True),
        ("ltree", ltree_metric, True),
        ("exa-layers2", exa_layers2_metric, False),
    ]


def rng_for(name: str) -> random.Random:
    return random.Random(f"itrsbench:{name}")


DYADICS = [Fraction(k, 16) for k in range(1, 17)]


CORPUS_UNIONS = ("collapsing", "exa-layers", "exa-layers2", "exnonlin", "rearrange", "toyama")


def seeded_union_terms(union: str, count: int):
    """The corpus union of union-r and union-s, its coloring, and count
    seeded terms over it: alternately finite (depth up to 5) and cyclic."""
    system, coloring = load_union(f"{union}-r", f"{union}-s")
    rng = rng_for(f"union-terms:{union}")
    terms = [
        random_finite_term(rng, system.sig, 5) if k % 2 else
        random_rational_term(rng, system.sig, rng.randint(1, 6))
        for k in range(count)
    ]
    return system, coloring, terms
