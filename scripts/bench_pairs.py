#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on this tree, in alternating
pairs, and write the before/after row as BENCH_<n>.json.

    python3 scripts/bench_pairs.py N [--parent REV] [--holdout SEED]

The parent's committed files are exported with `git archive` into a
temporary directory, so the repository's own metadata is left as it was.
The change side is the working tree this script sits in.  For each
workload of BENCHMARK.json, pair k (seed k, k = 1..10) runs
`bench/run.py --trace 0` for the contract's run_seconds once on each
side, one run at a time; odd seeds run the parent first, even seeds the
change.
Each run's last output line (its JSON record) is kept, and every
end-to-end metric of BENCHMARK.json is summarised: each side's quartiles,
the number of pairs the change wins (ties count for neither), the ratio
of the medians and the parent's interquartile distance.  Two rules are
evaluated per metric and printed as a table on standard error: gain, the
change wins at least nine tenths of the pairs and its median beats the
parent's by more than the parent's interquartile distance; and bound,
which reads "worse" when the change's median is worse than the parent's
by more than the metric's bound in BENCHMARK.json (relative to the
parent's median, absolute where that median is 0), else "unresolved"
when the parent's interquartile distance is wider than that bound and
some change run is no better than some parent run, else "within".
--holdout SEED runs one more pair at a seed outside 1..10, recorded
apart from the summary.  The row also records src_lines, the `wc -l`
total of src/itrsbench/*.py on each side.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def export(rev: str, into: str) -> str:
    """The committed files of rev, unpacked into the directory into."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def src_lines(tree: str) -> int:
    """Newlines in src/itrsbench/*.py under tree: the total of `wc -l`."""
    pkg = os.path.join(tree, "src", "itrsbench")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                total += f.read().count(b"\n")
    return total


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(pairs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        name, better = m["name"], m["better"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better == "higher" else -1
        pq = statistics.quantiles(parent, n=4, method="inclusive")
        cq = statistics.quantiles(change, n=4, method="inclusive")
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gain = sign * (cq[1] - pq[1])  # how far the change's median is better
        bound = m["bound"] * (abs(pq[1]) or 1)
        if -gain > bound:
            verdict = "worse"
        elif pq[2] - pq[0] > bound and not min(sign * c for c in change) > max(
            sign * p for p in parent
        ):
            verdict = "unresolved"  # too spread to tell, and not a clean sweep
        else:
            verdict = "within"
        out[name] = {
            "better": better,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_ratio": cq[1] / pq[1] if pq[1] else None,
            "parent_iqr": pq[2] - pq[0],
            "gain": wins >= math.ceil(0.9 * len(pairs)) and gain > pq[2] - pq[0],
            "bound": verdict,
        }
    return out


def print_rules(workloads: dict):
    """The summary's medians and both rules, one line per workload and metric."""
    print(f"{'workload':9} {'metric':14} {'parent':>10} {'change':>10} {'ratio':>6} "
          f"{'wins':>5} {'gain':>5} {'bound':>10}", file=sys.stderr)
    for workload, row in workloads.items():
        for name, s in row["summary"].items():
            ratio = "-" if s["median_ratio"] is None else f"{s['median_ratio']:.3f}"
            print(f"{workload:9} {name:14} {s['parent_q1_median_q3'][1]:10.4g} "
                  f"{s['change_q1_median_q3'][1]:10.4g} {ratio:>6} "
                  f"{s['change_wins']:>2}/{s['pairs']:<2} {'yes' if s['gain'] else 'no':>5} "
                  f"{s['bound']:>10}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="the number in the output name BENCH_<n>.json")
    ap.add_argument("--parent", default="HEAD", help="the parent revision (default HEAD)")
    ap.add_argument("--holdout", type=int, help="one more pair at this seed, kept apart")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = contract["run_seconds"]
    parent_sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", args.parent], capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    seeds = list(range(1, PAIRS + 1))
    if args.holdout in seeds:
        ap.error(f"--holdout must lie outside {seeds[0]}..{seeds[-1]}")
    report = {
        "what": f"bench/run.py --trace 0 --seconds {seconds:g}, {PAIRS} alternating "
                "parent/change pairs per workload (odd seeds run the parent first, even "
                "seeds the change first), one run at a time",
        "parent": parent_sha,
        "change": "this commit",
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        trees = {"parent": export(parent_sha, scratch), "change": ROOT}
        report["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        for workload in (w["name"] for w in contract["workloads"]):
            pairs = []
            for seed in seeds + ([args.holdout] if args.holdout is not None else []):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, seconds)
                    ops = pair[side]["metrics"]["ops_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: {ops:.3f} ops/s", file=sys.stderr)
                pairs.append(pair)
            row = report["workloads"][workload] = {
                "summary": summarise(pairs[:PAIRS], contract["end_to_end"]),
                "pairs": pairs[:PAIRS],
            }
            if args.holdout is not None:
                row["holdout"] = pairs[PAIRS]
    print_rules(report["workloads"])
    out = os.path.join(ROOT, f"BENCH_{args.n}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(out)


if __name__ == "__main__":
    main()
