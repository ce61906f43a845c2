"""Coinductive product searches over pairs of nodes, from the root pair,
skipping pairs already checked, so cycles are followed instead of looping:
the matcher that itrsbench.rewriting's compiled one replaced, and the
bisimilarity check that `==` on canonical terms replaced, each kept as
its test oracle."""

from __future__ import annotations

from typing import Optional

from itrsbench.terms import APP, VAR, RationalTerm


def coinductive_match(lhs: RationalTerm, t: RationalTerm, root: int) -> Optional[dict[str, int]]:
    """Binding of lhs's variables to nodes of t when lhs matches the
    subterm of t rooted at graph node root, else None."""
    binding: dict[str, int] = {}
    seen = set()
    stack = [(0, root)]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        pat_idx, idx = pair
        entry = lhs.nodes[pat_idx]
        if entry[0] == VAR:
            if binding.setdefault(entry[1], idx) != idx:
                return None
            continue
        sub_entry = t.nodes[idx]
        if sub_entry[0] != APP or sub_entry[1] != entry[1]:
            return None
        if len(sub_entry[2]) != len(entry[2]):
            return None
        stack.extend(zip(entry[2], sub_entry[2]))
    return binding


def bisimilar(t: RationalTerm, u: RationalTerm) -> bool:
    """Do t and u denote the same infinite tree?

    Decided by a coinductive search over pairs of nodes.  The store makes
    `t == u` equivalent: this is the oracle `==` is checked against.
    """
    assumed: set = set()
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        if (a, b) in assumed:
            continue
        if a.label != b.label:
            return False
        assumed.add((a, b))
        stack.extend(zip(a.args or (), b.args or ()))
    return True
