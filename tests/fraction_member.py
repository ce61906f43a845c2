"""The per-cycle Fraction iteration that itrsbench.metrics.is_member used
for non-granular metrics, kept as the test oracle for its exact test on
exponents: iterate each simple cycle's composed component from 1 on the
values themselves, and call a cycle contracting once an iterate is below
tol, stalled once two iterates are closer than tol / 1000.  Exact
Fractions for scale, cap and integer pow; floats for the other pows.  An
iterate of pow(2) doubles its bits each step, which is why is_member no
longer works this way.  Cycles are numbered as in RationalTerm.nodes
(tests/flat_terms.py), as is_member's witnesses are."""

from __future__ import annotations

from fractions import Fraction

from itrsbench.metrics import ITER_BUDGET, TOL, MemberVerdict, Number
from flat_terms import cycle_component, simple_cycles


def fraction_member(m, t, tol: float = TOL) -> MemberVerdict:
    """is_member of a non-granular metric, by iterating on the values."""
    if t.is_finite:
        return MemberVerdict("member", detail="finite term")
    cycles = simple_cycles(t)
    if cycles.truncated:
        return MemberVerdict("unknown", detail=cycles.truncated)
    for cycle in cycles:
        comp = cycle_component(m, t, cycle)
        x: Number = Fraction(1)
        verdict = None
        for _ in range(ITER_BUDGET):
            nxt = comp(x)
            if nxt < tol:
                verdict = "contracts"
                break
            if nxt == x or abs(float(nxt) - float(x)) < tol * 1e-3:
                verdict = "fixed"
                break
            x = nxt
        if verdict == "fixed" and float(x) > tol:
            return MemberVerdict(
                "non_member", tuple(cycle), f"cycle iterates stall at {float(comp(x)):.6g}"
            )
        if verdict is None:
            return MemberVerdict("unknown", tuple(cycle), "iteration budget exhausted")
    return MemberVerdict("member", detail=f"{len(cycles)} contracting cycles")


def at_tol_edge(m, t) -> bool:
    """Does the oracle's verdict rest on its tolerance, that is, change
    when the tolerance shrinks a millionfold?"""
    loose, tight = fraction_member(m, t), fraction_member(m, t, TOL * 1e-6)
    return (loose.kind, loose.witness_cycle) != (tight.kind, tight.witness_cycle)
