"""Safety-probability upper bounds for stochastic linear systems with ReLU controllers.

The pipeline: load or generate a :class:`Scenario`, build its transition
graph with :func:`build_graph`, propagate horizon bounds with
:func:`verify`, optionally tighten with :func:`refine_cell`, and falsify
against :func:`estimate_true_pk`.
"""

from .geometry import (Hyperplane, Polytope, augmented_set, box_pairs,
                       cell_unsafe_overlap, chebyshev_center, gaussian_cdf,
                       gaussian_quantile, is_empty_intersection, split)
# The package version is the tool version every saved graph records.
from .graph import TOOL_VERSION as __version__
from .graph import (UNSAFE, CellReach, Edge, NodeId, TransitionGraph,
                    build_graph, cell_node, estimate_bound, estimate_edge,
                    load_graph, merged_node, prune_test, save_graph, sink_edge,
                    source_row)
from .linprog import LinearProgram, check_certificate
from .montecarlo import (McEstimate, MonteCarloError, Trajectory,
                         estimate_transition, estimate_true_pk,
                         estimate_true_pk_curve, simulate)
from .refine import (RefinementPlan, RefinementResult, find_witness,
                     propose_hyperplane, refine_cell, select_target)
from .render import render_heatmap
from .scenario import (PartitionCell, ReluNetwork, Scenario, SystemDynamics,
                       Workspace, closed_loop_mean_step, dump_scenario,
                       load_scenario, make_demo_scenario, nn_forward,
                       scenario_sha256)
from .smc import SmcOutcome, SmcProblem, build_encoding, check_pattern
from .smc import solve as solve_smc
from .verifier import (MergeRecord, SafetyBounds, bounds_from_csv,
                       bounds_to_csv, init_p0, merge_pass, naive_step,
                       tpn_step, verify)
