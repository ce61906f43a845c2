#!/usr/bin/env python3
"""Median CPU time of fresh Python processes that import itrsbench.

    python3 scripts/cold_start.py [-n RUNS] [--src DIR]

Each row is one import, run in RUNS fresh interpreters (`python -c`),
one process at a time and the rows taken in turn; a process's CPU time
(user + system) is read from getrusage(RUSAGE_CHILDREN) around it, so it
includes the interpreter's own start-up, which the first row measures
alone.  The rows:

- interpreter alone: `pass`;
- bare import: `import itrsbench`;
- guard child: the import lines of bench/guard_child.py;
- guard child, whole: those lines and the child's body at n = 36, the
  two parse_itrs, the union, the ring and is_member;
- cli: `import itrsbench.cli`, which loads every module.

The package is imported from DIR (default: this checkout's src/), so a
second checkout can be measured with --src.  The environment is passed on
as it is: with PYTHONDONTWRITEBYTECODE set every process compiles the
package from source, without it the first writes __pycache__ and the rest
read it.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GUARD_IMPORTS = ("from itrsbench import disjoint_union, is_member, parse, parse_itrs\n"
                 "from itrsbench.corpus import ITRS_SOURCES\n")
GUARD_BODY = (  # bench/guard_child.py's body at n = 36, without its print
    "left = parse_itrs(ITRS_SOURCES['exa-layers2-r']).system\n"
    "right = parse_itrs(ITRS_SOURCES['exa-layers2-s']).system\n"
    "system = disjoint_union(left, right).system\n"
    "ring = parse('mu X. ' + 'F(' * 35 + 'H(X)' + ')' * 35, system.sig)\n"
    "is_member(system.metric, ring)\n"
)
ROWS = {
    "interpreter alone": "pass",
    "import itrsbench": "import itrsbench",
    "guard child": GUARD_IMPORTS,
    "guard child, whole": GUARD_IMPORTS + GUARD_BODY,
    "import itrsbench.cli": "import itrsbench.cli",
}


def cpu_ms(code: str, env: dict) -> float:
    """CPU milliseconds of one fresh `python -c code`."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return 1000 * (after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", "--runs", type=int, default=25, help="processes per row, at least 2 (default 25)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the itrsbench package (default: ./src)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (the quartiles need two)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))

    times: dict = {row: [] for row in ROWS}
    for _ in range(args.runs):
        for row, code in ROWS.items():
            times[row].append(cpu_ms(code, env))
    print(f"python {sys.version.split()[0]}, {args.runs} runs per row, "
          f"PYTHONDONTWRITEBYTECODE={'set' if env.get('PYTHONDONTWRITEBYTECODE') else 'unset'}, "
          f"package from {args.src}")
    print(f"{'import':22} {'median ms':>10} {'q1':>7} {'q3':>7}")
    for row in ROWS:
        q1, median, q3 = statistics.quantiles(times[row], n=4, method="inclusive")
        print(f"{row:22} {median:10.1f} {q1:7.1f} {q3:7.1f}")


if __name__ == "__main__":
    main()
