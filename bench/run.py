"""The itrsbench benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze|metric --seed N --seconds S --trace 0|1

A closed loop with one client: a single thread issues one operation,
waits for its answer, checks it, and issues the next.  Operations come in
rounds (see workloads.py); the run ends with the first round that
finishes after --seconds.  The program under test is the itrsbench
package in ../src, imported from source.

--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
once untraced and once traced, prints per-layer metrics and the tracing
overhead, and writes the spans to bench/out/.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  `failed`
counts failures outside the known defects of workloads.DEFECTS; failed_share
counts every failure.
"""

import time

STARTED = time.process_time()  # set-up is timed in CPU time, as operations are

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 7

from workloads import DEFECTS, WORKLOADS  # noqa: E402


def load_itrsbench():
    """Import itrsbench from this checkout's src/, or exit with code 2."""
    sys.path.insert(0, SRC)
    try:
        import itrsbench
        import itrsbench.corpus
    except ImportError as exc:
        sys.exit(f"run.py: cannot import itrsbench from {SRC}: {exc}")
    if not os.path.abspath(itrsbench.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: itrsbench resolved outside {SRC}: {itrsbench.__file__}")
    return itrsbench


def make_api(itrsbench):
    """The itrsbench names the benchmark calls, in one patchable namespace."""
    names = ("parse", "to_text", "distance", "is_member", "epos", "vdepth", "rank",
             "classify_convergence", "replay_loop", "parse_itrs", "print_itrs",
             "disjoint_union", "Budgets", "GuardExceeded")
    api = types.SimpleNamespace(**{name: getattr(itrsbench, name) for name in names})
    api.FIXTURES = dict(itrsbench.corpus.FIXTURES)
    api.ITRS_SOURCES = itrsbench.corpus.ITRS_SOURCES
    return api


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(f"itrsbench/{seed}/{r}")


def setup(workload: str, seed: int, api):
    """Fixture loading and the first round's inputs."""
    wl = WORKLOADS[workload](api, seed)
    return wl, wl.round(round_rng(seed, 0))


def measure_setup(args) -> float:
    """Median CPU time of SETUP_PROBES fresh processes that each import
    itrsbench, load the fixtures and generate the first round."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def execute(op):
    """Run one operation; returns (seconds, answer, raised).

    In-process operations are timed in thread CPU time: the program is
    single-threaded and CPU-bound, and CPU time keeps other processes'
    load on the machine out of the figures.  An operation run in a child
    process is timed by the wall clock."""
    clock = time.perf_counter if op.child else time.thread_time
    start = clock()
    try:
        answer, raised = op.run(), False
    except Exception as exc:  # a crash is a failed operation, not a bench error
        answer, raised = exc, True
    return clock() - start, answer, raised


def judge(op, answer, raised):
    """(ok, decided) for one answer."""
    if raised:
        return False, False
    try:
        return bool(op.check(answer)), bool(op.decided(answer))
    except Exception:  # an answer of the wrong shape fails its check
        return False, False


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    itrsbench = load_itrsbench()
    api = make_api(itrsbench)
    if args.setup_probe:
        setup(args.workload, args.seed, api)
        print(time.process_time() - STARTED)
        return

    setup_s = None if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(api)
        tracer.active = True
    wl, ops = setup(args.workload, args.seed, api)
    setup_spans = 0
    if tracer:
        tracer.active = False
        setup_spans = len(tracer.spans)
        setup_self = tracer.self_times()
        setup_counts = tracer.counts.copy()
        plain_s = traced_s = 0.0

    log = []  # (family, seconds, ok, decided, defect)
    start = time.perf_counter()
    r = 0
    while True:
        for i, op in enumerate(ops):
            if tracer and not op.child:
                # alternate which copy runs first; only the traced answer is judged
                if i % 2:
                    plain = execute(op)[0]
                tracer.active = True
                seconds, answer, raised = execute(op)
                tracer.active = False
                if not i % 2:
                    plain = execute(op)[0]
                plain_s += plain
                traced_s += seconds
            else:
                seconds, answer, raised = execute(op)
            ok, decided = judge(op, answer, raised)
            log.append((op.family, seconds, ok, decided, op.defect))
        r += 1
        if time.perf_counter() - start >= args.seconds:
            break
        ops = wl.round(round_rng(args.seed, r))

    n = len(log)
    failures = [entry for entry in log if not entry[2]]
    unexpected = [entry for entry in failures if entry[4] is None]
    by_defect = Counter(entry[4] for entry in failures if entry[4])
    print(f"workload {args.workload} seed {args.seed}: {r} rounds, {n} operations, "
          f"{time.perf_counter() - start:.1f} s")
    for defect, count in sorted(by_defect.items()):
        item, _cause = DEFECTS[defect]
        print(f"  known defect {defect} ({item}): {count} failed, share {count / n:.4f}")
    for family, *_ in unexpected:
        print(f"  UNEXPECTED failure: {family}")

    if tracer:
        metrics = layer_metrics(tracer, n, setup_spans, setup_self, setup_counts,
                                traced_s / plain_s - 1 if plain_s else 0.0)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
        tracer.uninstall()
    else:
        ms = sorted(entry[1] * 1000 for entry in log)
        p90 = statistics.quantiles(ms, n=10)[-1]
        print(f"  {sum(1 for x in ms if x > p90)} samples beyond p90")
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(n / sum(entry[1] for entry in log), "1/s"),
            "op_p50_ms": metric(statistics.median(ms), "ms"),
            "op_p90_ms": metric(p90, "ms"),
            "failed_share": metric(len(failures) / n, "ratio"),
            "decided_share": metric(sum(entry[3] for entry in log) / n, "ratio"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": n,
                      "failed": len(unexpected), "metrics": metrics}))


def layer_metrics(tracer, n, setup_spans, setup_self, setup_counts, overhead):
    """Per-operation means over the timed operations, plus the traced set-up."""
    self_s = tracer.self_times(setup_spans)
    calls = tracer.layer_calls(setup_spans)
    c = tracer.counts - setup_counts

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    out = {f"{layer}.self_s": metric(self_s[layer] / n, "s/op")
           for layer in ("terms", "rewriting", "metrics", "convergence", "layers",
                         "itrsfile", "corpus")}
    out.update({
        "terms.calls": metric(c["terms.calls"] / n, "count/op"),
        "terms.nodes_out": metric(c["terms.nodes_out"] / n, "count/op"),
        "rewriting.match.calls": metric(c["rewriting.match.calls"] / n, "count/op"),
        "rewriting.match.hit_ratio": metric(ratio("rewriting.match.hits",
                                                  "rewriting.match.calls"), "ratio"),
        "rewriting.redexes.found": metric(c["rewriting.redexes.found"] / n, "count/op"),
        "rewriting.successors.calls": metric(c["rewriting.successors.calls"] / n, "count/op"),
        "metrics.distance.calls": metric(c["metrics.distance.calls"] / n, "count/op"),
        "metrics.distance.iterate_share": metric(ratio("metrics.distance.iterate",
                                                       "metrics.distance.calls"), "ratio"),
        "metrics.distance.float_share": metric(ratio("metrics.distance.float",
                                                     "metrics.distance.calls"), "ratio"),
        "metrics.is_member.calls": metric(c["metrics.is_member.calls"] / n, "count/op"),
        "convergence.states_explored": metric(c["convergence.states_explored"] / n, "count/op"),
        "convergence.graph_exhausted_share": metric(ratio("convergence.graphs_exhausted",
                                                          "convergence.graphs"), "ratio"),
        "layers.calls": metric(calls["layers"] / n, "count/op"),
        "trace.overhead_share": metric(overhead, "ratio"),
    })
    for layer in ("terms", "rewriting", "metrics", "itrsfile"):
        out[f"setup.{layer}.self_s"] = metric(setup_self[layer], "s")
    return out


if __name__ == "__main__":
    main()
