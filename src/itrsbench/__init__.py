"""itrsbench: a workbench for infinitary term rewriting under
configurable ultra-metric term metrics.

Terms are rational (finitely representable, possibly infinite) and kept
as canonical hash-consed graphs.  Metrics assign each argument position
an ultra-metric map; distances, epsilon-positions, membership in the
metric completion, and variable depths are all computable.  Rewriting,
layer analysis over disjoint unions, and convergence probes build on
that base; the `itrsbench` command exposes everything on files in the
.itrs format.

`import itrsbench` loads no submodule.  Each public name below, and each
submodule name, is imported when it is first read (PEP 562) and then
kept in this module, so a process pays only for the modules it uses:
`from itrsbench import parse` loads `terms` alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name, under the submodule that defines it.
_EXPORTS = {
    "terms": (
        "ParseError", "Position", "RationalTerm", "Signature", "TermError", "app",
        "graph_term", "parallel", "parse", "positions", "prefix_of", "replace",
        "substitute", "subterm", "term_depth", "to_text", "topequ", "var", "variables",
    ),
    "metrics": (
        "Cap", "Compose", "GuardExceeded", "HALVE", "IDENTITY", "MemberVerdict", "Pow",
        "Scale", "TermMetric", "VariableDepth", "compose", "distance", "epos",
        "is_member", "metric_granular", "metric_id", "metric_infty", "validate_metric",
        "vdepth",
    ),
    "rewriting": (
        "ITRS", "ClassificationReport", "DepthVerdict", "IndirectResult",
        "RedexOccurrence", "Rule", "StaleOccurrence", "UnionResult", "classify_itrs",
        "disjoint_union", "erase_indirection", "indirect", "is_depth_preserving",
        "is_pseudo_collapsing", "match", "redexes", "rewrite_step", "successors",
        "weak_reach_path",
    ),
    "layers": (
        "Coloring", "PrincipalCut", "cut_positions", "cutoff", "ppos",
        "principal_cycles", "rank", "step_fn", "toplayer_distance", "toplayer_fill",
        "trace_ppos",
    ),
    "convergence": (
        "Budgets", "CutoffReport", "DiameterFloorWitness", "FocussedReport", "Fp", "Kt",
        "LoopWitness", "NonMemberLimitWitness", "Segment", "StrongReport", "Trace",
        "Verdict", "XiReport", "classify_convergence", "cutoff_trace",
        "extrapolate_limit", "find_loop", "find_root_recurrence", "focussed_probe",
        "replay_loop", "simulate", "sliding_diameter", "strong_convergence_probe",
        "xi_trace",
    ),
    "itrsfile": ("ItrsFile", "parse_itrs", "print_itrs"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "corpus", "cli")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
