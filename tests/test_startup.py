"""Cold start: `import itrsbench` loads no submodule, each exported name
is loaded from its home module on first use, reading the corpus
sources loads neither the convergence engine nor the layer code, and no
import loads dataclasses or inspect.

The import checks run in fresh interpreters, since this process has
long since loaded every module.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import itrsbench

SRC = str(Path(itrsbench.__file__).resolve().parent.parent)

# the package's exports, by home module
EXPORTS = {
    "terms": [
        "ParseError", "Position", "RationalTerm", "Signature", "TermError", "app",
        "graph_term", "parallel", "parse", "positions", "prefix_of", "replace",
        "substitute", "subterm", "term_depth", "to_text", "topequ", "var", "variables",
    ],
    "metrics": [
        "Cap", "Compose", "GuardExceeded", "HALVE", "IDENTITY", "MemberVerdict", "Pow",
        "Scale", "TermMetric", "VariableDepth", "compose", "distance", "epos",
        "is_member", "metric_granular", "metric_id", "metric_infty", "validate_metric",
        "vdepth",
    ],
    "rewriting": [
        "ITRS", "ClassificationReport", "DepthVerdict", "IndirectResult",
        "RedexOccurrence", "Rule", "StaleOccurrence", "UnionResult", "classify_itrs",
        "disjoint_union", "erase_indirection", "indirect", "is_depth_preserving",
        "is_pseudo_collapsing", "match", "redexes", "rewrite_step", "successors",
        "weak_reach_path",
    ],
    "layers": [
        "Coloring", "PrincipalCut", "cut_positions", "cutoff", "ppos",
        "principal_cycles", "rank", "step_fn", "toplayer_distance", "toplayer_fill",
        "trace_ppos",
    ],
    "convergence": [
        "Budgets", "CutoffReport", "DiameterFloorWitness", "FocussedReport", "Fp", "Kt",
        "LoopWitness", "NonMemberLimitWitness", "Segment", "StrongReport", "Trace",
        "Verdict", "XiReport", "classify_convergence", "cutoff_trace",
        "extrapolate_limit", "find_loop", "find_root_recurrence", "focussed_probe",
        "replay_loop", "simulate", "sliding_diameter", "strong_convergence_probe",
        "xi_trace",
    ],
    "itrsfile": ["ItrsFile", "parse_itrs", "print_itrs"],
}
SUBMODULES = [*EXPORTS, "corpus", "cli"]
GUARD_CHILD = (
    "from itrsbench import disjoint_union, is_member, parse, parse_itrs\n"
    "from itrsbench.corpus import ITRS_SOURCES\n"
)
SOURCES_ONLY = {
    "itrsbench", "itrsbench.corpus", "itrsbench.itrsfile", "itrsbench.metrics",
    "itrsbench.rewriting", "itrsbench.terms",
}


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    probe = code + "\nimport sys\nprint(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def loaded_after(code: str) -> set[str]:
    """The itrsbench modules a fresh interpreter holds after running code."""
    return {m for m in modules_after(code) if "itrsbench" in m}


def test_the_export_list_is_the_one_of_before():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 95
    assert sorted(itrsbench.__all__) == sorted(names)


def test_bare_import_loads_no_submodule():
    assert loaded_after("import itrsbench") == {"itrsbench"}


@pytest.mark.parametrize("code", [
    GUARD_CHILD,
    "from itrsbench.corpus import ITRS_SOURCES",
    "from itrsbench.corpus import load, load_union\n"
    "load('string')\nload_union('exa-layers-r', 'exa-layers-s')",
], ids=["guard-child", "sources", "load"])
def test_reading_the_sources_loads_no_convergence_or_layers(code):
    assert loaded_after(code) == SOURCES_ONLY


@pytest.mark.parametrize("code", [GUARD_CHILD, "import itrsbench.cli"], ids=["guard-child", "cli"])
def test_no_import_loads_dataclasses_or_inspect(code):
    """The records are made by terms.record: neither module is loaded,
    beyond what the interpreter's own start-up (site) loads."""
    added = modules_after(code) - modules_after("pass")
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_a_submodule_name_loads_its_module():
    assert loaded_after("import itrsbench\nitrsbench.terms") == {"itrsbench", "itrsbench.terms"}
    assert loaded_after("import itrsbench\nitrsbench.cli") == {
        "itrsbench", *(f"itrsbench.{m}" for m in SUBMODULES)
    }


@pytest.mark.parametrize("home", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_home_module(home):
    module = importlib.import_module(f"itrsbench.{home}")
    for name in EXPORTS[home]:
        obj = getattr(itrsbench, name)
        assert obj is getattr(module, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name


def test_submodule_names_resolve_to_the_modules():
    for name in SUBMODULES:
        assert getattr(itrsbench, name) is importlib.import_module(f"itrsbench.{name}")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from itrsbench import *", namespace)
    assert {name: namespace[name] for name in itrsbench.__all__} == {
        name: getattr(itrsbench, name) for name in itrsbench.__all__
    }


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(itrsbench, "nope")
    with pytest.raises(AttributeError, match="nope"):
        itrsbench.nope  # noqa: B018
    assert {*itrsbench.__all__, *SUBMODULES, "__version__"} <= set(dir(itrsbench))
