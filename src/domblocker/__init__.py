"""domblocker: exact domination numbers, minimum-dominating-set enumeration,
edge-contraction blocker deciders, and the gadget constructions that tie them
to formula satisfiability, all with independent brute-force oracles."""

from .graphs import (
    BudgetExceeded,
    GraphError,
    LabeledGraph,
    PLAIN,
    VertexLabel,
    complete_graph,
    cycle_graph,
    find_claw,
    find_induced_path,
    path_graph,
    prism_graph,
    star_graph,
)
from .graphio import (
    FormatError,
    emit_dot,
    emit_edge_list_json,
    emit_graph6,
    parse_edge_list_json,
    parse_graph6,
)
from .domination import (
    BlockerReport,
    CT_IMPOSSIBLE,
    Decision,
    GammaResult,
    GammaTable,
    all_efficient_md,
    all_independent_md,
    blocker_report,
    ct_definitional,
    ct_gamma,
    domination_number,
    enumerate_minimum_dominating_sets,
    is_dominating,
    is_efficient,
    is_independent,
    one_contraction_decision,
    visit_minimum_dominating_sets,
)
from .cnf import (
    Assignment,
    CnfError,
    Formula1in3,
    Formula3Sat,
    emit_dimacs_cnf,
    gen_1in3,
    gen_3sat,
    parse_dimacs_cnf,
    satisfiable_fixture,
    solve_1in3_brute,
    solve_3sat_brute,
    unsatisfiable_fixture,
    validate_1in3,
    validate_3sat,
)
from .reductions import (
    ClawfreeReductionMap,
    P7ReductionMap,
    ReductionError,
    SubcubicReductionMap,
    assignment_to_mds_p7,
    assignment_to_mds_subcubic,
    build_clawfree,
    build_p7free,
    build_subcubic,
    lift_dominating_set,
    mds_to_assignment_p7,
    mds_to_assignment_subcubic,
    project_dominating_set,
)
from .verify import ClaimVerdict, run_suite

__version__ = "0.1.0"
