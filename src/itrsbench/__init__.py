"""itrsbench: a workbench for infinitary term rewriting under
configurable ultra-metric term metrics.

Terms are rational (finitely representable, possibly infinite) and kept
as canonical hash-consed graphs.  Metrics assign each argument position
an ultra-metric map; distances, epsilon-positions, membership in the
metric completion, and variable depths are all computable.  Rewriting,
layer analysis over disjoint unions, and convergence probes build on
that base; the `itrsbench` command exposes everything on files in the
.itrs format.
"""

from .terms import (
    ParseError,
    Position,
    RationalTerm,
    Signature,
    TermError,
    app,
    bisimilar,
    graph_term,
    parallel,
    parse,
    positions,
    prefix_of,
    replace,
    substitute,
    subterm,
    term_depth,
    to_text,
    topequ,
    var,
    variables,
)
from .metrics import (
    Cap,
    Compose,
    GuardExceeded,
    HALVE,
    IDENTITY,
    MemberVerdict,
    Pow,
    Scale,
    TermMetric,
    VariableDepth,
    compose,
    distance,
    epos,
    is_member,
    metric_granular,
    metric_id,
    metric_infty,
    validate_metric,
    vdepth,
)
from .rewriting import (
    ITRS,
    ClassificationReport,
    DepthVerdict,
    IndirectResult,
    RedexOccurrence,
    Rule,
    StaleOccurrence,
    UnionResult,
    classify_itrs,
    disjoint_union,
    erase_indirection,
    indirect,
    is_depth_preserving,
    is_pseudo_collapsing,
    match,
    redexes,
    rewrite_step,
    successors,
    weak_reach,
    weak_reach_path,
)
from .layers import (
    Coloring,
    PrincipalCut,
    cut_positions,
    cutoff,
    ppos,
    principal_cycles,
    rank,
    step_fn,
    toplayer_distance,
    toplayer_fill,
    trace_ppos,
)
from .convergence import (
    Budgets,
    CutoffReport,
    DiameterFloorWitness,
    FocussedReport,
    Fp,
    Kt,
    LoopWitness,
    NonMemberLimitWitness,
    Segment,
    StrongReport,
    Trace,
    Verdict,
    XiReport,
    classify_convergence,
    cutoff_trace,
    extrapolate_limit,
    find_loop,
    find_root_recurrence,
    focussed_probe,
    replay_loop,
    simulate,
    sliding_diameter,
    strong_convergence_probe,
    xi_trace,
)
from .itrsfile import ItrsFile, parse_itrs, print_itrs

__version__ = "0.1.0"
