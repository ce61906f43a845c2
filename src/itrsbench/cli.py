"""Command-line workbench: parse .itrs files, measure distances, check
membership, analyze convergence, and run the example corpus.

Exit codes: 0 all-pass, 1 verdict/fixture mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from . import corpus as corpus_mod
from .convergence import (
    DEFAULT_BUDGETS,
    Budgets,
    LoopWitness,
    RedexOccurrence,
    Segment,
    Trace,
    classify_convergence,
    cutoff_trace,
    replay_loop,
    simulate,
    strong_convergence_probe,
    xi_trace,
    Fp,
    Kt,
)
from .itrsfile import ItrsFile, parse_itrs, print_itrs
from .layers import ppos, principal_cycles, rank, step_fn
from .metrics import (
    DEFAULT_DEPTH_GUARD,
    GuardExceeded,
    distance,
    epos,
    is_member,
    validate_metric,
    vdepth,
)
from .rewriting import (
    DEFAULT_WEAK_BUDGET,
    classify_itrs,
    disjoint_union,
    indirect,
    match,
)
from .terms import ParseError, TermError, node_numbers, parse, replace, to_text


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")


def _itrs(text: str, name: str) -> ItrsFile:
    try:
        return parse_itrs(text)
    except ParseError as e:
        raise InputError(f"{name}: {e}")


def _load_file(path: str) -> ItrsFile:
    return _itrs(_read(path), path)


def _load_system(texts: list[str], names: list[str]):
    """One .itrs text gives a plain system; two give their disjoint union
    plus the constituent coloring."""
    if len(texts) not in (1, 2):
        raise InputError("a system is one .itrs file, or two for their union")
    files = [_itrs(text, name) for text, name in zip(texts, names)]
    if len(files) == 1:
        return files[0], files[0].system, None
    union = disjoint_union(files[0].system, files[1].system)
    return ItrsFile("custom", union.system, {}), union.system, union.coloring


def _load_metric_arg(paths: list[str]):
    return _load_system([_read(p) for p in paths], paths)


def _term(f: ItrsFile, text: str):
    if text in f.terms:
        return f.terms[text]
    try:
        return parse(text, f.system.sig)
    except ParseError as e:
        raise InputError(f"bad term {text!r}: {e}")


def _fraction(text: str) -> Fraction:
    """argparse type of the rational-number options."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _count(text: str) -> int:
    """argparse type of the count options (budgets, steps, depths): an
    integer, 0 or more; argparse names the option in the error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
    return n


def _field(data, key: str, kind):
    """data[key] of decoded JSON; InputError unless data is an object
    whose key holds a kind (a type or a tuple of types)."""
    if not isinstance(data, dict) or not isinstance(data.get(key), kind):
        raise InputError(f"missing or mistyped field {key!r}")
    return data[key]


def _num(value) -> object:
    if isinstance(value, Fraction):
        return str(value)
    return value


def _occ_json(occ: RedexOccurrence) -> dict:
    return {"position": list(occ.position), "rule": occ.rule.name}


def _occ_from_json(system, t, data) -> RedexOccurrence:
    rule = system.rule(_field(data, "rule", str))
    p = tuple(_field(data, "position", list))
    if not all(type(i) is int for i in p):
        raise InputError(f"position {list(p)} is not a list of integers")
    sigma = match(rule.lhs, t, p)
    if sigma is None:
        raise InputError(f"recorded step {data} does not apply")
    return RedexOccurrence(p, rule, sigma)


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def write_trace(path: str, tr: Trace):
    with open(path, "w") as fh:
        for seg in tr.segments:
            for i, t in enumerate(seg.terms):
                fh.write(json.dumps({"term": to_text(t)}) + "\n")
                if i < len(seg.steps) and seg.steps[i] is not None:  # simulated: None
                    fh.write(json.dumps({"step": _occ_json(seg.steps[i])}) + "\n")
            fh.write(
                json.dumps(
                    {"omega": to_text(seg.limit) if seg.limit is not None else None}
                )
                + "\n"
            )


def read_trace(path: str, system) -> Trace:
    """The trace of a JSON-lines file; a segment without step lines is
    simulated, as xi --out writes it."""
    segments = []
    terms: list = []
    steps: list = []
    pending_step: Optional[dict] = None
    try:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}")
    for entry in lines:
        if not isinstance(entry, dict):
            raise InputError(f"{path}: a line is not a JSON object")
        if pending_step is not None and "term" not in entry:
            raise InputError(f"{path}: a step that no term follows")
        if "term" in entry:
            t = parse(_field(entry, "term", str), system.sig)
            if pending_step is not None:
                occ = _occ_from_json(system, terms[-1], pending_step)
                if replace(terms[-1], occ.position, occ.rule.rhs, occ.binding) != t:
                    raise InputError(f"{path}: step {pending_step} does not give the next term")
                steps.append(occ)
                pending_step = None
            terms.append(t)
        elif "step" in entry:
            if not terms:
                raise InputError(f"{path}: a step before the first term of its segment")
            pending_step = entry["step"]
        elif "omega" in entry:
            omega = _field(entry, "omega", (str, type(None)))
            limit = parse(omega, system.sig) if omega else None
            segments.append(Segment(terms, steps or None, limit))
            terms, steps = [], []
    if pending_step is not None:
        raise InputError(f"{path}: a step that no term follows")
    if terms:
        segments.append(Segment(terms, steps or None))
    if not segments:
        raise InputError(f"{path}: empty trace")
    return Trace(segments)


def _witness_json(witness) -> dict:
    name = type(witness).__name__
    if isinstance(witness, LoopWitness):
        return {
            "type": "loop",
            "start": to_text(witness.start),
            "prefix": [_occ_json(o) for o in witness.prefix],
            "cycle": [_occ_json(o) for o in witness.cycle],
            "base": to_text(witness.base),
            "distinct": to_text(witness.distinct),
            "separation": _num(witness.separation),
        }
    if name == "NonMemberLimitWitness":
        return {
            "type": "non-member-limit",
            "limit": to_text(witness.limit),
            "membership": witness.membership.kind,
            "cycle": witness.membership.witness_cycle,
        }
    return {
        "type": "diameter-floor",
        "epsilon": witness.epsilon,
        "window": witness.window,
        "diameters": [_num(d) for d in witness.diameters],
    }


def _verdict_json(verdict) -> dict:
    out = {"verdict": verdict.kind}
    if verdict.limit is not None:
        out["limit"] = to_text(verdict.limit)
    if verdict.witness is not None:
        out["witness"] = _witness_json(verdict.witness)
    if verdict.note:
        out["note"] = verdict.note
    return out


def _budgets(args) -> Budgets:
    return Budgets(loop_states=args.budget, max_steps=args.max_steps)


# --- subcommand bodies ----------------------------------------------------------


def cmd_check(args) -> int:
    f = _load_file(args.file)
    report = validate_metric(f.system.metric)
    _emit(
        {
            "file": args.file,
            "symbols": len(f.system.sig.symbols),
            "rules": len(f.system.rules),
            "terms": len(f.terms),
            "metric_ok": report.ok,
            "problems": list(report.problems),
        },
        args.json,
    )
    return 0 if report.ok else 1


def cmd_distance(args) -> int:
    f, system, _ = _load_metric_arg(args.metric)
    t = _term(f, args.term)
    u = _term(f, args.term2)
    d = distance(system.metric, t, u)
    _emit({"distance": _num(d)}, args.json)
    return 0


def cmd_member(args) -> int:
    f, system, _ = _load_metric_arg(args.metric)
    verdict = is_member(system.metric, _term(f, args.term))
    _emit(
        {
            "kind": verdict.kind,
            "witness_cycle": verdict.witness_cycle,
            "detail": verdict.detail,
        },
        args.json,
    )
    return 0


def cmd_epos(args) -> int:
    f, system, _ = _load_metric_arg(args.metric)
    try:
        result = epos(
            system.metric,
            _term(f, args.term),
            args.epsilon,
            depth_guard=args.depth_guard,
        )
    except GuardExceeded as e:
        _emit({"error": "depth guard exceeded", "frontier": list(e.position)}, args.json)
        return 1
    _emit({"positions": sorted(list(p) for p in result)}, args.json)
    return 0


def cmd_vdepth(args) -> int:
    f, system, _ = _load_metric_arg(args.metric)
    depth = vdepth(system.metric, _term(f, args.term), args.var)
    at = args.at
    _emit({"variable": args.var, "at": _num(at), "value": _num(depth(at))}, args.json)
    return 0


def cmd_classify(args) -> int:
    f, system, _ = _load_metric_arg(args.metric)
    report = classify_itrs(system)
    _emit(
        {
            "rules": {name: list(flags) for name, flags in report.per_rule.items()},
            "rhs_membership": dict(report.rhs_membership),
        },
        args.json,
    )
    return 0


def cmd_union(args) -> int:
    left, right = _load_file(args.files[0]), _load_file(args.files[1])
    result = disjoint_union(left.system, right.system)
    merged = ItrsFile("custom", result.system, {})
    with open(args.out, "w") as fh:
        fh.write(print_itrs(merged))
    report = {
        "left": dict(result.rename_left),
        "right": dict(result.rename_right),
        "coloring": dict(result.coloring),
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=2)
    _emit({"out": args.out, "report": args.report}, args.json)
    return 0


def cmd_indirect(args) -> int:
    f = _load_file(args.file)
    result = indirect(f.system)
    out = ItrsFile("custom", result.system, dict(f.terms))
    text = print_itrs(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    _emit({"symbol": result.symbol, "renamed": result.renamed}, args.json)
    return 0


def cmd_layers(args) -> int:
    f, system, coloring = _load_metric_arg(args.metric)
    if coloring is None:
        raise InputError("layers needs two .itrs files (a union)")
    t = _term(f, args.term)
    cut = ppos(t, coloring)
    cycles = principal_cycles(t, coloring, system.metric)
    number = node_numbers(t)
    report = {
        "cut_edges": sorted([number[node], arg] for node, arg in cut.edges),
        "principal_positions": sorted(list(p) for p in cut.positions(8)),
        "rank": str(rank(t, coloring)),
        "cycles": [
            {"length": c["length"], "component": str(c.get("component"))}
            for c in cycles
        ],
        "cycles_truncated": cycles.truncated or None,
    }
    if system.metric.is_granular:
        path = []
        node = t
        while len(path) < 8 and node.args:
            path.append(tuple(path[-1]) + (1,) if path else (1,))
            node = node.args[0]
        chain = [()] + path
        report["step_table"] = [
            step_fn(system.metric, t, chain, n) for n in range(len(chain) - 1)
        ]
    _emit(report, args.json)
    return 0


def cmd_simulate(args) -> int:
    f, system, _ = _load_metric_arg(args.metric)
    tr = simulate(
        system,
        _term(f, args.term),
        strategy=args.strategy,
        max_steps=args.max_steps,
        depth_bound=args.depth_bound,
    )
    if args.out:
        write_trace(args.out, tr)
    _emit(
        {
            "steps": sum(len(s.steps) for s in tr.segments),
            "stuck": tr.stuck,
            "final": to_text(tr.all_terms()[-1]),
            "out": args.out,
        },
        args.json,
    )
    return 0


def cmd_analyze(args) -> int:
    sources = [_read(p) for p in args.metric]
    f, system, _ = _load_system(sources, args.metric)
    verdict = classify_convergence(system, _term(f, args.term), budgets=_budgets(args))
    report = _verdict_json(verdict)
    if args.out:
        payload = dict(report)
        payload["sources"] = sources
        payload["start"] = args.term
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    _emit(report, args.json)
    return 0


def cmd_strong(args) -> int:
    f, system, _ = _load_metric_arg(args.metric)
    rep = strong_convergence_probe(system, _term(f, args.term), budgets=_budgets(args))
    _emit(
        {
            "indirected": _verdict_json(rep.indirected),
            "root_recurrence": (
                _witness_json(rep.root_recurrence) if rep.root_recurrence else None
            ),
            "violated": rep.violated,
        },
        args.json,
    )
    return 0


def cmd_xi(args) -> int:
    f, system, coloring = _load_metric_arg(args.metric)
    if coloring is None:
        raise InputError("xi needs two .itrs files (a union)")
    tr = read_trace(args.trace, system)
    rule = system.rule(args.rule)
    if args.predicate.startswith("fp:"):
        try:
            p = tuple(int(x) for x in args.predicate[3:].split(".") if x)
            if min(p, default=1) < 1:
                raise ValueError
        except ValueError:
            raise InputError(f"fp:<position> takes positive integers, not {args.predicate!r}")
        s = Fp(p, tr, system, coloring, budget=args.budget)
    elif args.predicate.startswith("kt:"):
        s = Kt(_term(f, args.predicate[3:]), system, budget=args.budget)
    else:
        raise InputError("predicate must be fp:<position> or kt:<term>")
    rep = xi_trace(system, tr, rule, s, coloring)
    if args.out:
        write_trace(args.out, rep.trace)
    _emit(
        {
            "terms": [to_text(t) for t in rep.trace.all_terms()],
            "flips": rep.flip_counts,
            "violations": rep.violations,
            "cauchy": rep.cauchy,
            "diameters": [_num(d) for d in rep.diameters],
        },
        args.json,
    )
    return 0 if not rep.violations else 1


def cmd_cutoff(args) -> int:
    f, system, coloring = _load_metric_arg(args.metric)
    if coloring is None:
        raise InputError("cutoff needs two .itrs files (a union)")
    tr = read_trace(args.trace, system)
    rep = cutoff_trace(system, tr, args.layers, _term(f, args.fill), coloring)
    _emit(
        {
            "terms": [to_text(t) for t in rep.trace.all_terms()],
            "stutters": rep.stutters,
            "violations": rep.violations,
            "root_only": rep.root_only,
        },
        args.json,
    )
    return 0 if not rep.violations else 1


def cmd_replay(args) -> int:
    try:
        with open(args.witness) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read witness: {e}")
    w = _field(payload, "witness", dict)
    if w.get("type") != "loop":
        raise InputError("only loop witnesses are replayable scripts")
    sources = _field(payload, "sources", list)
    if not all(isinstance(src, str) for src in sources):
        raise InputError("sources must be .itrs texts")
    _, system, _ = _load_system(sources, [f"source {k}" for k in (1, 2)])
    start = parse(_field(w, "start", str), system.sig)
    t = start
    script = {"prefix": [], "cycle": []}
    for part, occs in script.items():
        for data in _field(w, part, list):
            occ = _occ_from_json(system, t, data)
            occs.append(occ)
            t = replace(t, occ.position, occ.rule.rhs, occ.binding)
    witness = LoopWitness(
        start,
        tuple(script["prefix"]),
        tuple(script["cycle"]),
        parse(_field(w, "base", str), system.sig),
        parse(_field(w, "distinct", str), system.sig),
        w.get("separation"),
    )
    ok = replay_loop(system, witness)
    _emit({"replayed": ok}, args.json)
    return 0 if ok else 1


def cmd_corpus(args) -> int:
    unknown = sorted(set(args.names) - set(corpus_mod.FIXTURES))
    if unknown:
        raise InputError(
            f"unknown fixture(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(corpus_mod.FIXTURES))}"
        )
    t0 = time.time()
    reports = corpus_mod.corpus(args.names or None)
    payload = {
        "fixtures": [
            {
                "name": r.name,
                "ok": r.ok,
                "checks": [
                    {"label": c.label, "passed": c.passed, "detail": c.detail}
                    for c in r.checks
                ],
            }
            for r in reports
        ],
        "elapsed_seconds": round(time.time() - t0, 3),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            for c in r.checks:
                mark = "PASS" if c.passed else "FAIL"
                detail = f" ({c.detail})" if c.detail else ""
                print(f"{mark} {r.name}: {c.label}{detail}")
    return 0 if all(r.ok for r in reports) else 1


# --- dispatcher -------------------------------------------------------------------

KNOBS = {
    "budget": dict(type=_count, default=DEFAULT_BUDGETS.loop_states),
    "max-steps": dict(type=_count, default=DEFAULT_BUDGETS.max_steps),
    "depth-bound": dict(type=_count, default=DEFAULT_BUDGETS.depth_bound),
    "depth-guard": dict(type=_count, default=DEFAULT_DEPTH_GUARD),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="itrsbench",
        description="workbench for infinitary rewriting under ultra-metric term metrics",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, metric=True, term=False, knobs=()):
        """--json everywhere, plus the knobs (of KNOBS) the command reads."""
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for name in knobs:
            p.add_argument(f"--{name}", **KNOBS[name])
        if metric:
            p.add_argument(
                "--metric",
                nargs="+",
                required=True,
                help=".itrs file, or two files for their disjoint union",
            )
        if term:
            p.add_argument("--term", required=True)

    p = sub.add_parser("check", help="parse and validate an .itrs file")
    p.add_argument("file")
    common(p, metric=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("distance", help="distance between two terms")
    common(p, term=True)
    p.add_argument("--term2", required=True)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("member", help="membership in the metric completion")
    common(p, term=True)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("epos", help="epsilon-positions of a term")
    common(p, term=True, knobs=("depth-guard",))
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.set_defaults(fn=cmd_epos)

    p = sub.add_parser("vdepth", help="variable depth map evaluated at a point")
    common(p, term=True)
    p.add_argument("--var", required=True)
    p.add_argument("--at", type=_fraction, default="1")
    p.set_defaults(fn=cmd_vdepth)

    p = sub.add_parser("classify", help="per-rule classification flags")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("union", help="disjoint union of two files")
    p.add_argument("files", nargs=2)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    common(p, metric=False)
    p.set_defaults(fn=cmd_union)

    p = sub.add_parser("indirect", help="indirected version of a system")
    p.add_argument("file")
    p.add_argument("--out")
    common(p, metric=False)
    p.set_defaults(fn=cmd_indirect)

    p = sub.add_parser("layers", help="principal cut, rank, cycles, step table")
    common(p, term=True)
    p.set_defaults(fn=cmd_layers)

    p = sub.add_parser("simulate", help="run a reduction and record the trace")
    common(p, term=True, knobs=("max-steps", "depth-bound"))
    p.add_argument(
        "--strategy",
        default="leftmost-outermost",
        choices=["leftmost-outermost", "leftmost-innermost"],
    )
    p.add_argument("--out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="convergence verdict with witness")
    common(p, term=True, knobs=("budget", "max-steps"))
    p.add_argument("--out", help="write a replayable witness script")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("strong", help="strong-convergence probe")
    common(p, term=True, knobs=("budget", "max-steps"))
    p.set_defaults(fn=cmd_strong)

    p = sub.add_parser("xi", help="predicate-guided top-layer simulation")
    common(p)
    p.add_argument("--budget", type=_count, default=DEFAULT_WEAK_BUDGET,
                   help="states per weak-reachability search of the predicate")
    p.add_argument("--trace", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--predicate", required=True, help="fp:<p.q.r> or kt:<term>")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_xi)

    p = sub.add_parser("cutoff", help="pointwise cutoff of a recorded trace")
    common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--layers", type=_count, required=True)
    p.add_argument("--fill", required=True)
    p.set_defaults(fn=cmd_cutoff)

    p = sub.add_parser("replay", help="replay a witness script")
    p.add_argument("witness")
    common(p, metric=False)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("corpus", help="run the example corpus")
    p.add_argument("names", nargs="*")
    common(p, metric=False)
    p.set_defaults(fn=cmd_corpus)

    return top


def run_command(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, TermError) as e:  # ParseError is a TermError
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
