"""The two seeded workloads: analyze (with the corpus) and metric.

A workload is a list of rounds.  Every round holds the same slots (one
operation each) in a shuffled order; the round's random generator fills
in each slot's parameters.  Since each round has the same mix, the
failure and decided shares of whole rounds do not depend on the seed.

Every itrsbench call goes through the `api` namespace given to the
workload, so that the traced run can wrap the benchmark's own calls.
Expected answers come from the hand-written tables below or from
`oracle`, never from itrsbench.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle
from oracle import Graph, Word

# Known defects of the seed that some slots expose.  A failure in a slot
# tagged with one of these counts in failed_share but not as an
# unexpected failure.
DEFECTS = {
    "string-verdict": (
        "ROADMAP 3a",
        "extrapolate_limit accepts a period-1 pattern of the last four steps, "
        "so the string run is called converging at max_steps 8, 24 and 32",
    ),
    "inexact-distance": (
        "ROADMAP 3b",
        "the exact sweep of _distance_iterate compares float images, so it "
        "stops early once the changing values underflow a float",
    ),
    "member-blowup": (
        "ROADMAP 3b",
        "is_member iterates pow(2) on exact Fractions; an F-ring of >= 32 "
        "nodes needs 2^31-bit integers and runs past the deadline",
    ),
    "deep-recursion": (
        "ROADMAP 3 (valid input never crashes)",
        "parse recurses once per nesting level and to_text three times, so "
        "nesting past ~1000 (parse) or ~330 (to_text) raises RecursionError",
    ),
}

# Hand-written expected verdicts for the analyze workload.
VERDICTS = {
    "collapsing": ("diverging", "LoopWitness",
                   "G(H^k(t)) -> G(H^(k-1)(t)) ... reaches G(t) -> G(H(t)) -> G(t), a 2-step loop"),
    "toyama-loop": ("diverging", "LoopWitness",
                    "C holds both 0 and 1, so F(0,1,C) -> F(C,C,C) ->> F(0,1,C)"),
    "toyama-nf": ("converging", None,
                  "F(1,0,_) is never a redex and G-steps terminate; leftmost-outermost "
                  "keeps C's leftmost leaf"),
    "exa-layers": ("diverging", "NonMemberLimitWitness",
                   "F(F(x)) -> G(x) pumps down an F/H spine; the limit's G-H cycle has "
                   "factor 1/2 * 2 = 1, so it is not a member"),
    "rearrange": ("diverging", "LoopWitness",
                  "J(K(E,a)) -> J(K(H(E),a)) -> J(a) = J(K(E,a)) is a 2-step loop"),
    "string": ("diverging", None,
               "the symbol below A keeps cycling through B, C and S, so the run is "
               "never Cauchy (ROADMAP 3a)"),
}
# Left out: zantema.  Whether its verdict should be converging (the chosen
# strategy's run) or diverging (the omega-level cycle) is unsettled
# (ROADMAP 3a, verdict scope).

# Number of checks each corpus fixture runs; all must pass.
CORPUS_CHECKS = {
    "ltree": 3, "toyama": 3, "exnonlin": 5, "string": 2, "zantema": 3,
    "rearrange": 4, "collapsing": 2, "exa-layers": 4, "exa-layers2": 5,
    "diverge-exa": 3,
}

TOL = 1e-9
GOLDEN = 0.6180339887498949
GUARD_SECONDS = 1.0  # deadline of a guarded child
GUARD_BYTES = 512 << 20  # address-space limit of a guarded child


@dataclass
class Op:
    family: str
    run: Callable[[], object]  # the timed call into itrsbench
    check: Callable[[object], bool]  # compare the answer with the expected one
    decided: Callable[[object], bool] = lambda answer: True
    defect: Optional[str] = None  # known defect this slot exposes at seed
    child: bool = False  # runs in a guarded child process


class Workload:
    """Seeded parameters (sizes, budgets, depths) follow one golden-ratio
    sequence per parameter, started at a seeded point: any number of rounds
    covers the parameter's range evenly, so that the mix of a run hardly
    depends on the seed.  Symbols and positions come from the round's own
    generator."""

    def __init__(self, api, seed: int):
        self.api = api
        self._seed = seed
        self._next: dict = {}

    def _point(self, key: str) -> float:
        if key not in self._next:
            self._next[key] = random.Random(f"itrsbench/{self._seed}/{key}").random()
        x = self._next[key]
        self._next[key] = (x + GOLDEN) % 1.0
        return x

    def draw(self, key: str, values):
        values = list(values)
        return values[int(self._point(key) * len(values))]

    def size(self, key: str, lo: int, hi: int, log: bool = False) -> int:
        x = self._point(key)
        return round(lo * (hi / lo) ** x) if log else lo + int(x * (hi - lo + 1))


def _primitive(word) -> bool:
    doubled = tuple(word) * 2
    n = len(word)
    return not any(doubled[i : i + n] == tuple(word) for i in range(1, n))


def random_cycle(rng, alphabet, n) -> tuple:
    while True:
        word = tuple(rng.choices(alphabet, k=n))
        if len(set(word)) > 1 and _primitive(word):
            return word


def marker_cycle(rng, n) -> tuple:
    """A run of n-1 S with one other symbol.  The long run makes
    canonicalisation refine for about n rounds, as on S^n(0); random words
    would settle in a few, and would vary more in cost."""
    word = ["S"] * n
    word[rng.randrange(n)] = rng.choice("ABCE")
    return tuple(word)


def marker_lasso(rng, n) -> Word:
    k = rng.randint(0, 3)
    cycle = marker_cycle(rng, n - k)
    prefix = list(rng.choices("ABCSE", k=k))
    if prefix and prefix[-1] == cycle[-1]:
        prefix[-1] = "A" if cycle[-1] != "A" else "B"
    return Word(tuple(prefix), cycle)


def random_lasso(rng, alphabet, n) -> Word:
    """A lasso of n symbols in canonical shape: primitive cycle, and the
    prefix does not end with the cycle's last symbol (which would fold)."""
    k = rng.randint(0, min(3, n - 2))
    cycle = random_cycle(rng, alphabet, n - k)
    prefix = list(rng.choices(alphabet, k=k))
    if prefix and prefix[-1] == cycle[-1]:
        prefix[-1] = next(s for s in alphabet if s != cycle[-1])
    return Word(tuple(prefix), cycle)


def mutate(rng, w: Word, alphabet) -> Word:
    """Insert or substitute one symbol of the cycle."""
    j = rng.randrange(len(w.cycle))
    cycle = list(w.cycle)
    if rng.random() < 0.5:
        cycle.insert(j, rng.choice(alphabet))
    else:
        cycle[j] = rng.choice([s for s in alphabet if s != cycle[j]])
    return Word(w.prefix, tuple(cycle))


def random_graph(rng, leaves=("Null", "N"), back_refs=True) -> Graph:
    """A Bin/3 term graph of depth <= 3, built as a tree whose extra edges
    point back to ancestors, so that it prints directly in mu-syntax."""
    nodes: list = []

    def node(depth: int, ancestors: list) -> int:
        idx = len(nodes)
        nodes.append(None)
        children = []
        for _ in range(3):
            roll = rng.random()
            if depth < 3 and roll < 0.4:
                children.append(node(depth + 1, ancestors + [idx]))
            elif back_refs and roll < 0.55:
                children.append(rng.choice(ancestors + [idx]))
            else:
                children.append(len(nodes))
                nodes.append((rng.choice(leaves), ()))
        nodes[idx] = ("Bin", tuple(children))
        return idx

    node(0, [])
    return Graph(tuple(nodes))


def graph_near(rng, size: int, **kwargs) -> Graph:
    """A random graph of size +- 2 nodes."""
    while True:
        g = random_graph(rng, **kwargs)
        if abs(len(g.nodes) - size) <= 2:
            return g


def flip_leaf(rng, g: Graph) -> Graph:
    leaves = [i for i, (label, children) in enumerate(g.nodes) if not children]
    i = rng.choice(leaves)
    nodes = list(g.nodes)
    nodes[i] = ("N" if nodes[i][0] == "Null" else "Null", ())
    return Graph(tuple(nodes))


def exact_or_close(got, e) -> bool:
    if isinstance(got, Fraction):
        return oracle.matches_exact(got, e)
    return isinstance(got, float) and oracle.close(got, e, TOL)


# --- corpus ---------------------------------------------------------------------


class Corpus:
    """The ten bundled fixtures, plus three .itrs files with a deeply
    nested rule or term (valid input that crashes at seed)."""

    def __init__(self, workload: Workload):
        self.api, self.size = workload.api, workload.size
        self.string_source = self.api.ITRS_SOURCES["string"]
        self.api.parse_itrs(self.string_source)

    def ops(self, rng: random.Random) -> list:
        api = self.api
        ops = [
            Op(f"fixture:{name}", (lambda f=fixture: f()),
               (lambda r, n=name: r.ok and len(r.checks) == CORPUS_CHECKS[n]))
            for name, fixture in sorted(api.FIXTURES.items())
        ]
        n = self.size("deep-term", 1000, 1500)
        chain = Word(("S",) * n, (), "nil")
        source = self.string_source + f"term deep = {chain.text()}\n"
        ops.append(Op("itrs-deep-term", lambda source=source: api.parse_itrs(source),
                      lambda f, chain=chain: oracle.as_word(f.terms["deep"].nodes) == chain,
                      defect="deep-recursion"))
        n = self.size("deep-rule", 1000, 1500)
        lhs = Word(("S",) * n, (), "x")
        source = self.string_source + f"rule deep: {lhs.text()} -> x\n"
        ops.append(Op("itrs-deep-rule", lambda source=source: api.parse_itrs(source),
                      lambda f, lhs=lhs: oracle.as_word(f.system.rules[-1].lhs.nodes) == lhs,
                      defect="deep-recursion"))
        ring = Word((), marker_cycle(rng, self.size("ring", 550, 650)))
        source = self.string_source + f"term ring = {ring.text()}\n"
        ops.append(Op("itrs-print-ring",
                      lambda source=source: api.print_itrs(api.parse_itrs(source)),
                      lambda text, ring=ring: f"term ring = {ring.text()}" in text.splitlines(),
                      defect="deep-recursion"))
        return ops


# --- analyze --------------------------------------------------------------------


def g_spine(rng, depth: int, need_both: bool) -> str:
    """A G-context shaped as a spine: every G has a leaf on one side."""
    while True:
        text = rng.choice("01")
        for _ in range(depth):
            leaf = rng.choice("01")
            text = f"G({leaf}, {text})" if rng.random() < 0.5 else f"G({text}, {leaf})"
        if not need_both or ("0" in text and "1" in text):
            return text


EXA_STARTS = (
    "mu X. F(F(H(X)))", "mu X. H(F(F(X)))", "mu X. F(H(F(X)))",
    "H(mu X. F(F(H(X))))", "F(mu X. F(H(F(X))))", "G(mu X. F(F(H(X))))",
)
STRING_STEPS = (8, 12, 16, 20, 24, 32)
STRING_DEFECT_STEPS = (8, 24, 32)  # converging at seed (ROADMAP 3a)


class Analyze(Workload):
    """The corpus, and classify_convergence queries on fixture families
    with known verdicts."""

    def __init__(self, api, seed: int):
        super().__init__(api, seed)
        self.corpus = Corpus(self)
        load = lambda name: api.parse_itrs(api.ITRS_SOURCES[name])
        union = lambda a, b: api.disjoint_union(load(a).system, load(b).system).system
        self.collapsing = union("collapsing-r", "collapsing-s")
        self.toyama = union("toyama-r", "toyama-s")
        self.exa = union("exa-layers-r", "exa-layers-s")
        self.rearrange = union("rearrange-r", "rearrange-s")
        string = load("string")
        self.string, self.string_start = string.system, string.terms["start"]

    def _query(self, family, system, start, budgets, check_more=None, defect=None):
        api = self.api
        want_kind, want_witness, _reason = VERDICTS[family]

        def check(v):
            if v.kind != want_kind:
                return False
            w = v.witness
            if want_witness and type(w).__name__ != want_witness:
                return False
            if type(w).__name__ == "LoopWitness" and not api.replay_loop(system, w):
                return False
            return check_more is None or check_more(v)

        return Op(family, lambda: api.classify_convergence(system, start, budgets), check,
                  decided=lambda v: v.kind != "unknown", defect=defect)

    def round(self, rng: random.Random) -> list:
        api = self.api
        B = api.Budgets
        ops = []
        for depths in (range(8, 11), range(11, 15)):  # one shallow, one deep
            k = rng.randint(0, 3)
            text = "G(" + "H(" * k + "mu X. F(H(X))" + ")" * k + ")"
            ops.append(self._query(
                "collapsing", self.collapsing, api.parse(text, self.collapsing.sig),
                B(loop_states=300, depth_bound=self.draw(f"collapsing-{depths[0]}", depths))))
        for _ in range(2):
            c = g_spine(rng, self.draw("toyama-loop", (1, 2, 3)), need_both=True)
            ops.append(self._query(
                "toyama-loop", self.toyama, api.parse(f"F(0, 1, {c})", self.toyama.sig),
                B(loop_states=300)))
        for _ in range(2):
            c = g_spine(rng, self.draw("toyama-nf", (1, 2, 3)), need_both=False)
            leftmost = c.replace("G(", "")[0]
            want = ("F", ("1",), ("0",), (leftmost,))
            ops.append(self._query(
                "toyama-nf", self.toyama, api.parse(f"F(1, 0, {c})", self.toyama.sig),
                B(loop_states=300),
                check_more=lambda v, want=want: oracle.unfold(v.limit.nodes, 3) == want))

        def limit_outside(v):
            word = oracle.as_word(v.witness.limit.nodes)
            return word is not None and not oracle.word_member(oracle.EXA, word)

        for _ in range(2):
            start = api.parse(self.draw("exa-start", EXA_STARTS), self.exa.sig)
            ops.append(self._query("exa-layers", self.exa, start,
                                   B(depth_bound=self.draw("exa-depth", range(6, 11))),
                                   check_more=limit_outside))
        for states in (range(200, 351, 50), range(350, 501, 50)):  # one small, one large
            ops.append(self._query(
                "rearrange", self.rearrange, api.parse("J(mu X. K(E, X))", self.rearrange.sig),
                B(loop_states=self.draw(f"rearrange-{states[0]}", states))))
        for steps in STRING_STEPS:
            ops.append(self._query(
                "string", self.string, self.string_start, B(max_steps=steps),
                defect="string-verdict" if steps in STRING_DEFECT_STEPS else None))
        ops.extend(self.corpus.ops(rng))
        rng.shuffle(ops)
        return ops


# --- metric ---------------------------------------------------------------------


SIZE_BANDS = ((16, 64), (64, 256), (256, 512), (512, 900))


def guarded_member_ring(n: int) -> str:
    """Run is_member on the exa-layers2 ring mu X. F^(n-1)(H(X)) in a child
    process with an address-space limit and a deadline.  Returns the
    verdict kind, or why the child gave no answer."""
    here = os.path.dirname(os.path.abspath(__file__))

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (GUARD_BYTES, GUARD_BYTES))

    try:
        done = subprocess.run(
            [sys.executable, os.path.join(here, "guard_child.py"), str(n)],
            capture_output=True, text=True, timeout=GUARD_SECONDS, preexec_fn=limit,
        )
    except subprocess.TimeoutExpired:
        return "deadline"
    if done.returncode != 0:
        return f"exit {done.returncode}"
    return done.stdout.strip()


class Metric(Workload):
    """Parse rational terms from mu-syntax text and answer one query."""

    def __init__(self, api, seed: int):
        super().__init__(api, seed)
        load = lambda name: api.parse_itrs(api.ITRS_SOURCES[name])
        self.infty = load("string").system
        self.ltree = load("ltree").system
        exa = api.disjoint_union(load("exa-layers-r").system, load("exa-layers-s").system)
        exa2 = api.disjoint_union(load("exa-layers2-r").system, load("exa-layers2-s").system)
        self.exa, self.exa2 = exa.system, exa2.system
        self.colouring = {"exa": exa.coloring, "exa2": exa2.coloring}

    def _terms(self, system, *terms):
        api = self.api
        return [api.parse(t.text(), system.sig) for t in terms]

    def distance(self, family, system, t, u, e, defect=None):
        api = self.api

        def run():
            a, b = self._terms(system, t, u)
            return api.distance(system.metric, a, b)

        return Op(family, run, lambda d: exact_or_close(d, e), defect=defect)

    def member(self, family, system, t, want: bool):
        api = self.api

        def run():
            (a,) = self._terms(system, t)
            return api.is_member(system.metric, a).kind

        return Op(family, run, lambda kind: kind == ("member" if want else "non_member"),
                  decided=lambda kind: kind != "unknown")

    def epos(self, family, system, t, k, want):
        api = self.api

        def run():
            (a,) = self._terms(system, t)
            try:
                return len(api.epos(system.metric, a, 2.0 ** -k))
            except api.GuardExceeded:
                return None

        return Op(family, run, lambda count: count == want)

    def vdepth(self, family, system, t, e):
        api = self.api

        def run():
            (a,) = self._terms(system, t)
            return api.vdepth(system.metric, a, "x")(Fraction(1))

        return Op(family, run, lambda d: exact_or_close(d, e))

    def rank(self, family, system, colouring, t, want):
        api = self.api

        def run():
            (a,) = self._terms(system, t)
            return api.rank(a, colouring)

        return Op(family, run, lambda r: r == want)

    def round(self, rng: random.Random) -> list:
        ops = []
        for lo, hi in SIZE_BANDS:
            t = marker_lasso(rng, self.size(f"distance-infty-{lo}", lo, hi))
            u = mutate(rng, t, "ABCSE")
            ops.append(self.distance("distance-infty", self.infty, t, u,
                                     oracle.word_distance(oracle.INFTY, t, u)))
        t = random_lasso(rng, "FGH", self.size("distance-exa", 16, 64))
        u = mutate(rng, t, "FGH")
        ops.append(self.distance("distance-exa", self.exa, t, u,
                                 oracle.word_distance(oracle.EXA, t, u)))
        n = self.size("distance-exa2", 16, 48)
        while True:  # a pair whose exact distance a float can hold
            t = random_lasso(rng, "FGH", n)
            u = mutate(rng, t, "FGH")
            e = oracle.word_distance(oracle.EXA2, t, u)
            if e is not None and e <= 1000:
                break
        ops.append(self.distance("distance-exa2", self.exa2, t, u, e))
        # two caps below a tower of F: the exact value underflows a float
        a, b = self.draw("underflow-a", range(12, 21)), rng.randint(1, 3)
        n = self.size("underflow-n", 26, 48)
        w = ("F",) * a + ("H",) + ("F",) * b + ("H",) + ("G",) * max(1, n - a - b - 2)
        t, u = Word((), w), Word((), w + ("G",))
        ops.append(self.distance("distance-exa2-underflow", self.exa2, t, u,
                                 oracle.word_distance(oracle.EXA2, t, u),
                                 defect="inexact-distance"))
        for _ in range(2):
            n = self.size("distance-ltree", 4, 20)
            while True:
                g = graph_near(rng, n)
                if any(not children for _label, children in g.nodes):
                    h = flip_leaf(rng, g)
                    e = oracle.graph_distance(oracle.LTREE, g, h)
                    if e is not None:
                        break
            ops.append(self.distance("distance-ltree", self.ltree, g, h, e))

        t = marker_lasso(rng, self.size("member-infty", 16, 900, log=True))
        ops.append(self.member("member-infty", self.infty, t, oracle.word_member(oracle.INFTY, t)))
        t = random_lasso(rng, "FGH", self.size("member-exa", 16, 64))
        ops.append(self.member("member-exa", self.exa, t, oracle.word_member(oracle.EXA, t)))
        t = random_lasso(rng, "FGH", self.draw("member-exa2", range(16, 25)))
        ops.append(self.member("member-exa2", self.exa2, t, oracle.word_member(oracle.EXA2, t)))
        g = graph_near(rng, self.size("member-ltree", 4, 20))
        ops.append(self.member("member-ltree", self.ltree, g, oracle.graph_member(oracle.LTREE, g)))

        t = marker_lasso(rng, self.size("epos-infty", 16, 900, log=True))
        k = rng.randint(4, 40)
        ops.append(self.epos("epos-infty", self.infty, t, k, oracle.word_epos(oracle.INFTY, t, k)))
        n, k = self.size("epos-ltree", 4, 20), self.draw("epos-ltree-k", (1, 2, 3))
        while True:
            g = graph_near(rng, n)
            want = oracle.graph_epos(oracle.LTREE, g, k)
            if want is None or want <= 5000:
                break
        ops.append(self.epos("epos-ltree", self.ltree, g, k, want))

        name = self.draw("vdepth", ("infty", "exa", "exa2"))
        if name == "infty":
            symbols = marker_cycle(rng, self.size("vdepth-infty", 16, 400))
        else:  # under exa2 the value doubles its exponent at every F
            symbols = rng.choices("FGH", k=self.size(f"vdepth-{name}", 16,
                                                     24 if name == "exa2" else 400))
        system, table = {"infty": (self.infty, oracle.INFTY), "exa": (self.exa, oracle.EXA),
                         "exa2": (self.exa2, oracle.EXA2)}[name]
        t = Word(tuple(symbols), (), rng.choice("xxy"))
        ops.append(self.vdepth(f"vdepth-{name}", system, t, oracle.word_vdepth(table, t, "x")))
        g = graph_near(rng, self.size("vdepth-ltree", 4, 20), leaves=("Null", "N", "x", "y"),
                       back_refs=False)
        ops.append(self.vdepth("vdepth-ltree", self.ltree, g, oracle.graph_vdepth(oracle.LTREE, g, "x")))

        for name, system in (("exa", self.exa), ("exa2", self.exa2)):
            prefix = tuple(rng.choices("FGH", k=self.size(f"rank-{name}", 8, 48)))
            shape = self.draw(f"rank-{name}-cycle", ("mixed", "mixed", "FG", "H"))
            if shape == "mixed":  # usually mixes colours: rank is infinite
                cycle = random_cycle(rng, "FGH", rng.randint(2, 16))
            elif shape == "FG":
                cycle = random_cycle(rng, "FG", rng.randint(2, 8))
            else:
                cycle = ("H",)
            t = Word(prefix, cycle)
            ops.append(self.rank(f"rank-{name}", system, self.colouring[name], t, oracle.word_rank(t)))

        ops.extend(self._text_ops(rng))
        n = self.size("guarded", 32, 40)
        ops.append(Op("member-exa2-guarded", lambda n=n: guarded_member_ring(n),
                      lambda kind: kind == "member",
                      decided=lambda kind: kind in ("member", "non_member"),
                      defect="member-blowup", child=True))
        rng.shuffle(ops)
        return ops

    def _text_ops(self, rng) -> list:
        api, sig = self.api, self.infty.sig
        ops = []
        for family, lo, hi, defect in (("text-small", 16, 250, None),
                                        ("text-large", 600, 900, "deep-recursion")):
            ring = Word((), marker_cycle(rng, self.size(family, lo, hi)))
            ops.append(Op(family, lambda ring=ring: api.to_text(api.parse(ring.text(), sig)),
                          lambda text, ring=ring: text == ring.text(), defect=defect))
        chain = Word(("S",) * self.size("parse-deep", 1000, 1500), (), "nil")
        ops.append(Op("parse-deep", lambda: api.parse(chain.text(), sig),
                      lambda t: oracle.as_word(t.nodes) == chain, defect="deep-recursion"))
        return ops


WORKLOADS = {"analyze": Analyze, "metric": Metric}
