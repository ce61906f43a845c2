#!/usr/bin/env python3
"""Regenerate the checked-in fixtures/ directory from the bundled sources.

Writes every example system as a .itrs file, plus the two precomputed
disjoint unions together with their symbol-renaming reports.

Usage:  python3 scripts/export_fixtures.py [outdir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from itrsbench import disjoint_union
from itrsbench.corpus import ITRS_SOURCES, load
from itrsbench.itrsfile import ItrsFile, print_itrs

UNIONS = {
    "exa-layers": ("exa-layers-r", "exa-layers-s"),
    "exa-layers2": ("exa-layers2-r", "exa-layers2-s"),
}


def main(argv: list[str]) -> int:
    outdir = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "fixtures"
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(ITRS_SOURCES.items()):
        (outdir / f"{name}.itrs").write_text(text.strip() + "\n")
        print(f"wrote {outdir / f'{name}.itrs'}")
    for name, (left, right) in UNIONS.items():
        result = disjoint_union(load(left).system, load(right).system)
        (outdir / f"{name}.itrs").write_text(print_itrs(ItrsFile("custom", result.system, {})))
        report = {
            "left": dict(result.rename_left),
            "right": dict(result.rename_right),
            "coloring": dict(result.coloring),
        }
        (outdir / f"{name}-renaming.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {outdir / f'{name}.itrs'} (+ renaming report)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
