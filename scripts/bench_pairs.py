#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on this tree, in alternating
pairs, and write the before/after row as BENCH_<n>.json.

    python3 scripts/bench_pairs.py N [--parent REV]

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
of the medians and the parent's interquartile distance.  The row also
records src_lines, the `wc -l` total of src/itrsbench/*.py on each side.
"""

from __future__ import annotations

import argparse
import json
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
        out[name] = {
            "better": better,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "median_ratio": cq[1] / pq[1] if pq[1] else None,
            "parent_iqr": pq[2] - pq[0],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="the number in the output name BENCH_<n>.json")
    ap.add_argument("--parent", default="HEAD", help="the parent revision (default HEAD)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = contract["run_seconds"]
    parent_sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", args.parent], capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    seeds = list(range(1, PAIRS + 1))
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
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, seconds)
                    ops = pair[side]["metrics"]["ops_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: {ops:.3f} ops/s", file=sys.stderr)
                pairs.append(pair)
            report["workloads"][workload] = {
                "summary": summarise(pairs, contract["end_to_end"]),
                "pairs": pairs,
            }
    out = os.path.join(ROOT, f"BENCH_{args.n}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(out)


if __name__ == "__main__":
    main()
