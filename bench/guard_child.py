"""Child process of the metric workload's guarded operation.

Prints the kind of is_member on the exa-layers2 ring mu X. F^(n-1)(H(X)).
Started by workloads.guarded_member_ring, which limits its memory and
time:

    python3 bench/guard_child.py 32
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from itrsbench import disjoint_union, is_member, parse, parse_itrs  # noqa: E402
from itrsbench.corpus import ITRS_SOURCES  # noqa: E402

if __name__ == "__main__":
    n = int(sys.argv[1])
    left = parse_itrs(ITRS_SOURCES["exa-layers2-r"]).system
    right = parse_itrs(ITRS_SOURCES["exa-layers2-s"]).system
    system = disjoint_union(left, right).system
    ring = parse("mu X. " + "F(" * (n - 1) + "H(X)" + ")" * (n - 1), system.sig)
    print(is_member(system.metric, ring).kind)
