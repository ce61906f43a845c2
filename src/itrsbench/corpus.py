"""The example corpus: every fixture builds its systems, runs its expected
checks, and reports pass/fail.  Test suites and the CLI both drive these.

Reading the sources (`ITRS_SOURCES`, `load`, `load_union`) loads neither
`convergence` nor `layers`: the trace builders and fixtures that run
convergence code import it where they run, so a process that only reads
the sources does not pay for it at start-up."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .itrsfile import ItrsFile, parse_itrs
from .metrics import TOL, distance, is_member
from .rewriting import (
    RedexOccurrence,
    disjoint_union,
    match,
    rewrite_step,
    weak_reach_path,
)
from .terms import app, parse, record, var


@record
class Check:
    label: str
    passed: bool
    detail: str = ""


@record
class FixtureReport:
    name: str
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


# --- fixture sources ----------------------------------------------------------

ITRS_SOURCES = {
    "ltree": """\
metric custom
sig Bin/3 [lazy, strict, strict]
sig Null/0
sig N/0
""",
    "toyama-r": """\
metric id
sig F/3
sig 0/0
sig 1/0
rule top: F(0, 1, x) -> F(x, x, x)
term start = F(0, 1, x)
""",
    "toyama-s": """\
metric id
sig G/2
rule left: G(x, y) -> x
rule right: G(x, y) -> y
""",
    "exnonlin-r": """\
metric infty
sig F/3
rule swap: F(x, x, y) -> F(x, y, x)
""",
    "exnonlin-s": """\
metric infty
sig 0/0
sig S/1
rule succ: 0 -> S(0)
""",
    "string": """\
metric infty
sig A/1
sig B/1
sig C/1
sig S/1
sig E/1
sig nil/0
rule be: B(E(x)) -> C(S(E(x)))
rule ac: A(C(x)) -> A(B(x))
rule bs: B(S(x)) -> S(B(x))
rule sc: S(C(x)) -> C(S(x))
term start = A(B(E(nil)))
""",
    "zantema": """\
metric infty
sig E/0
sig F/0
sig G/2
sig S/1
rule e: E -> S(E)
rule f: F -> S(F)
rule g: G(x, x) -> G(E, F)
term start = G(E, F)
""",
    "rearrange-r": """\
metric infty
sig E/0
sig Z/0
sig H/1
sig S/1
rule ez: E -> Z
rule eh: E -> H(E)
rule hz: H(Z) -> S(Z)
rule hs: H(S(x)) -> S(S(x))
""",
    "rearrange-s": """\
metric infty
sig J/1
sig K/2
rule jk: J(K(x, y)) -> J(y)
""",
    "collapsing-r": """\
metric infty
sig G/1
sig H/1
rule gh: G(H(x)) -> G(x)
""",
    "collapsing-s": """\
metric infty
sig F/1
rule collapse: F(x) -> x
""",
    "exa-layers-r": """\
metric infty
sig F/1
sig G/1
rule ffg: F(F(x)) -> G(x)
""",
    "exa-layers-s": """\
metric custom
sig H/1 [scale(2)]
""",
    "exa-layers2-r": """\
metric custom
sig F/1 [pow(2)]
sig G/1 [strict]
rule ffg: F(F(x)) -> G(x)
""",
    "exa-layers2-s": """\
metric custom
sig H/1 [cap(1/2)]
""",
}


def load(name: str) -> ItrsFile:
    return parse_itrs(ITRS_SOURCES[name])


def load_union(left: str, right: str):
    """Union of two fixture systems, returning (system, coloring)."""
    result = disjoint_union(load(left).system, load(right).system)
    return result.system, result.coloring


# --- trace builders (shared with the test suites) ------------------------------


def exnonlin_trace():
    from .convergence import simulate

    system, coloring = load_union("exnonlin-r", "exnonlin-s")
    start = parse("F(0, 0, 0)", system.sig)
    script = [
        ((3,), "succ"),
        ((), "swap"),
        ((1,), "succ"),
        ((), "swap"),
        ((2,), "succ"),
    ]
    tr = simulate(system, start, "script", script=script)
    return system, coloring, tr


def rearrange_trace():
    """The two-segment rearrangement run: pump successor values into the
    infinite spine, then strip it from the root."""
    from .convergence import Trace, simulate

    system, coloring = load_union("rearrange-r", "rearrange-s")
    t0 = parse("J(mu X. K(E, X))", system.sig)
    script1 = [
        ((1, 1), "ez"),
        ((1, 2, 1), "eh"),
        ((1, 2, 1, 1), "ez"),
        ((1, 2, 1), "hz"),
        ((1, 2, 2, 1), "eh"),
        ((1, 2, 2, 1, 1), "eh"),
        ((1, 2, 2, 1, 1, 1), "ez"),
        ((1, 2, 2, 1, 1), "hz"),
        ((1, 2, 2, 1), "hs"),
    ]
    seg1 = simulate(system, t0, "script", script=script1).segments[0]
    seg1.limit = seg1.terms[-1]
    script2 = [((), "jk")] * 3
    seg2 = simulate(system, seg1.terms[-1], "script", script=script2).segments[0]
    return system, coloring, Trace([seg1, seg2])


def diverge_exa_trace(steps: int = 20):
    """Head reduction of t = H(F(F(t))) in the exa-layers union."""
    from .convergence import simulate

    system, coloring = load_union("exa-layers-r", "exa-layers-s")
    t0 = parse("mu X. H(F(F(X)))", system.sig)
    tr = simulate(system, t0, "leftmost-outermost", max_steps=steps, depth_bound=3 * steps + 4)
    return system, coloring, tr


def string_trace(steps: int = 18):
    from .convergence import simulate

    f = load("string")
    return f.system, simulate(
        f.system, f.terms["start"], "leftmost-outermost", max_steps=steps, depth_bound=steps + 6
    )


def union_traces():
    """The recorded union traces of non-collapsing fixtures (the cutoff
    lemma presupposes non-collapsing constituents)."""
    out = []
    s, c, tr = exnonlin_trace()
    out.append(("exnonlin", s, c, tr, parse("0", s.sig)))
    s, c, tr = rearrange_trace()
    out.append(("rearrange", s, c, tr, parse("Z", s.sig)))
    s, c, tr = diverge_exa_trace()
    out.append(("diverge-exa", s, c, tr, var("x")))
    return out


# --- fixtures -------------------------------------------------------------------


def fixture_ltree() -> FixtureReport:
    f = load("ltree")
    m = f.system.metric
    sig = f.system.sig
    leaf = parse("Bin(Null, N, Null)", sig)
    taller = parse("Bin(Null, N, Bin(Null, N, Null))", sig)
    d = distance(m, leaf, taller)
    right_spine = parse("mu X. Bin(Null, N, X)", sig)
    left_spine = parse("mu X. Bin(X, N, Null)", sig)
    return FixtureReport(
        "ltree",
        [
            Check("right-spine length difference at distance 1", d == 1, f"d={d}"),
            Check(
                "infinite right spine rejected",
                is_member(m, right_spine).kind == "non_member",
            ),
            Check(
                "infinite left (lazy) spine accepted",
                is_member(m, left_spine).kind == "member",
            ),
        ],
    )


def fixture_toyama() -> FixtureReport:
    from .convergence import classify_convergence, find_loop, replay_loop

    system, _ = load_union("toyama-r", "toyama-s")
    start = parse("F(0, 1, G(0, 1))", system.sig)
    w = find_loop(system, start, budget=5_000)
    verdict = classify_convergence(system, start)
    checks = [
        Check("3-step loop from the start term", w is not None and len(w.cycle) == 3,
              f"cycle length {len(w.cycle) if w else None}"),
        Check("loop replays", w is not None and replay_loop(system, w)),
        Check("classified diverging via loop", verdict.kind == "diverging"),
    ]
    return FixtureReport("toyama", checks)


def fixture_exnonlin() -> FixtureReport:
    from .convergence import focussed_probe

    system, _coloring, tr = exnonlin_trace()
    terms = tr.all_terms()
    one = parse("S(0)", system.sig)
    final = app("F", [one, one, one])
    checks = [
        Check("5-step chain ends F(1,1,1)", len(terms) == 6 and terms[-1] == final),
        Check(
            "weak reach F(0,0,0) ->* F(1,1,1)",
            weak_reach_path(system, terms[0], final, budget=10_000) is not None,
        ),
    ]
    for p in [(1,), (2,), (3,)]:
        rep = focussed_probe(system, tr, p, budget=200)
        checks.append(
            Check(f"focussed at position {p}", rep.ok, f"beta={rep.beta}")
        )
    return FixtureReport("exnonlin", checks)


def fixture_string() -> FixtureReport:
    from .convergence import Budgets, classify_convergence, sliding_diameter

    system, tr = string_trace()
    verdict = classify_convergence(
        system,
        tr.all_terms()[0],
        budgets=Budgets(loop_states=2_000, max_steps=18, depth_bound=24),
    )
    diams = sliding_diameter(system.metric, tr, 4)
    floor = min(float(d) for d in diams)
    return FixtureReport(
        "string",
        [
            Check(
                "sliding diameter keeps a positive floor",
                floor > TOL,
                f"floor={floor}",
            ),
            Check(
                "classified diverging by diameter floor",
                verdict.kind == "diverging"
                and type(verdict.witness).__name__ == "DiameterFloorWitness",
                verdict.kind,
            ),
        ],
    )


def fixture_zantema() -> FixtureReport:
    from .convergence import extrapolate_limit, simulate

    f = load("zantema")
    system = f.system
    sig = system.sig
    trE = simulate(system, parse("E", sig), max_steps=6, depth_bound=10)
    trF = simulate(system, parse("F", sig), max_steps=6, depth_bound=10)
    limE = extrapolate_limit(trE.segments[0])
    limF = extrapolate_limit(trF.segments[0])
    s_inf = parse("mu X. S(X)", sig)
    checks = [
        Check("E-pumping extrapolates to the successor spine", limE == s_inf),
        Check("F-pumping extrapolates to the successor spine", limF == s_inf),
    ]
    omega_term = app("G", [s_inf, s_inf])
    sigma = match(system.rule("g").lhs, omega_term, ())
    fired = (
        sigma is not None
        and rewrite_step(
            system, omega_term, RedexOccurrence((), system.rule("g"), sigma)
        )
        == f.terms["start"]
    )
    checks.append(
        Check(
            "non-linear rule closes the omega-level cycle G(E,F) ->> G(S^inf,S^inf) -> G(E,F)",
            fired,
        )
    )
    return FixtureReport("zantema", checks)


def fixture_rearrange() -> FixtureReport:
    from .convergence import Fp, xi_trace

    system, coloring, tr = rearrange_trace()
    rule = system.rule("jk")
    s = Fp((1, 1), tr, system, coloring, budget=400)
    rep = xi_trace(system, tr, rule, s, coloring)
    sig = system.sig
    a0 = parse("mu X. K(J(K(x, y)), X)", sig)
    j_a0 = app("J", [a0])
    j_kr = app("J", [app("K", [parse("J(y)", sig), a0])])
    second = rep.trace.segments[1].terms
    alternates = all(
        t == (j_a0 if i % 2 == 0 else j_kr) for i, t in enumerate(second[:-1])
    )
    return FixtureReport(
        "rearrange",
        [
            Check("first segment simulates to a constant skeleton",
                  set(rep.trace.segments[0].terms) == {j_a0}),
            Check("second segment alternates J(a0) / J(K(r,a0))", alternates),
            Check("no stage violations", not rep.violations, str(rep.violations)),
            Check("flagged non-Cauchy", not rep.cauchy),
        ],
    )


def fixture_collapsing() -> FixtureReport:
    from .convergence import find_loop, replay_loop

    system, _ = load_union("collapsing-r", "collapsing-s")
    t = parse("mu X. F(H(X))", system.sig)
    start = app("G", [t])
    w = find_loop(system, start, budget=1_000)
    return FixtureReport(
        "collapsing",
        [
            Check("2-step loop G(t) -> G(H(t)) -> G(t)", w is not None and len(w.cycle) == 2,
                  f"cycle length {len(w.cycle) if w else None}"),
            Check("loop replays", w is not None and replay_loop(system, w)),
        ],
    )


def fixture_exa_layers() -> FixtureReport:
    from .convergence import classify_convergence, sliding_diameter

    system, coloring = load_union("exa-layers-r", "exa-layers-s")
    sig = system.sig
    t0 = parse("mu X. F(F(H(X)))", sig)
    u = parse("mu X. G(H(X))", sig)
    verdict = classify_convergence(system, t0)
    _, _, tr = diverge_exa_trace()
    dists = sliding_diameter(system.metric, tr, 2)  # d(t_i, t_i+1) for each step
    return FixtureReport(
        "exa-layers",
        [
            Check("t = F(F(H(t))) exists", is_member(system.metric, t0).kind == "member"),
            Check("u = G(H(u)) does not exist", is_member(system.metric, u).kind == "non_member"),
            Check(
                "diverging towards the non-member limit",
                verdict.kind == "diverging"
                and type(verdict.witness).__name__ == "NonMemberLimitWitness"
                and verdict.witness.limit == u,
            ),
            Check(
                "head-reduction distances stay exactly 1",
                all(d == Fraction(1) for d in dists),
                f"{len(dists)} steps",
            ),
        ],
    )


def fixture_exa_layers2() -> FixtureReport:
    left = load("exa-layers2-r").system
    right = load("exa-layers2-s").system
    union = disjoint_union(left, right).system
    sig = union.sig
    checks = []
    for name, system, cycle_term in (
        ("F", left, parse("mu X. F(X)", left.sig)),
        ("G", left, parse("mu X. G(X)", left.sig)),
        ("H", right, parse("mu X. H(X)", right.sig)),
    ):
        checks.append(
            Check(
                f"constituent cycle mu X.{name}(X) non-contracting alone",
                is_member(system.metric, cycle_term).kind == "non_member",
            )
        )
    checks.append(
        Check(
            "union admits mu X. F(F(H(X)))",
            is_member(union.metric, parse("mu X. F(F(H(X)))", sig)).kind == "member",
        )
    )
    checks.append(
        Check(
            "union rejects mu X. G(H(X))",
            is_member(union.metric, parse("mu X. G(H(X))", sig)).kind == "non_member",
        )
    )
    return FixtureReport("exa-layers2", checks)


def fixture_diverge_exa() -> FixtureReport:
    from .convergence import cutoff_trace, sliding_diameter

    system, coloring, tr = diverge_exa_trace()
    u = var("x")
    rep = cutoff_trace(system, tr, 2, u, coloring)
    cut_terms = rep.trace.all_terms()
    tail_constant = len(set(cut_terms[1:])) == 1
    diams = sliding_diameter(system.metric, tr, 2)
    return FixtureReport(
        "diverge-exa",
        [
            Check("original trace has diameter floor 1",
                  all(d == Fraction(1) for d in diams)),
            Check("cutoff at 2 layers validates", not rep.violations, str(rep.violations)),
            Check("cut trace converges (eventually constant)", tail_constant),
        ],
    )


FIXTURES: dict[str, Callable[[], FixtureReport]] = {
    "ltree": fixture_ltree,
    "toyama": fixture_toyama,
    "exnonlin": fixture_exnonlin,
    "string": fixture_string,
    "zantema": fixture_zantema,
    "rearrange": fixture_rearrange,
    "collapsing": fixture_collapsing,
    "exa-layers": fixture_exa_layers,
    "exa-layers2": fixture_exa_layers2,
    "diverge-exa": fixture_diverge_exa,
}


def corpus(names: Optional[list[str]] = None) -> list[FixtureReport]:
    selected = names or sorted(FIXTURES)
    return [FIXTURES[name]() for name in selected]
