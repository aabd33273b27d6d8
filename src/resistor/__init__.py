"""Single-pair resistance distance on undirected graphs.

Estimators: dense exact solve, truncated power method, truncated random
walks, global Lanczos, and a local Lanczos push variant whose cost tracks
the neighborhood of the query pair instead of the graph.  On top of the
Lanczos potential solver sits an electric-flow alternate-route extractor.
"""

from .baselines import (
    RDEstimate,
    exact_rd,
    power_method_iteration_bound,
    power_method_rd,
    random_walk_rd,
)
from .errors import (
    EmptyGraphError,
    GraphFormatError,
    NumericalError,
    SingularSystemError,
    UnsupportedInputError,
)
from .graph import (
    Graph,
    edge_arrays,
    generate_ba,
    generate_er,
    load_cache,
    load_edge_list,
    save_cache,
    save_edge_list,
)
from .kernels import (
    SparseVector,
    TridiagonalMatrix,
    apply_lazy_walk,
    apply_normalized_adjacency,
    apply_transition,
    chebyshev_walk_norms,
    tridiag_eigen_range,
    tridiag_solve_e1,
)
from .lanczos import (
    LanczosRun,
    lanczos_iteration_bound,
    lanczos_potential,
    lanczos_rd,
)
from .push import (
    AssumptionReport,
    PushConfig,
    check_assumption,
    lanczos_push_rd,
    locality_statistics,
    subset_recurrence_trace,
)
from .routing import (
    FlowMap,
    Route,
    RouteExtraction,
    RouteMetrics,
    electric_flow,
    extract_routes,
    flow_iteration_bound,
    kirchhoff_residuals,
    max_bottleneck_path,
    route_metrics,
)
from .spectral import SpectralEstimate, estimate_spectrum

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "load_edge_list",
    "save_edge_list",
    "load_cache",
    "save_cache",
    "edge_arrays",
    "generate_er",
    "generate_ba",
    "SparseVector",
    "TridiagonalMatrix",
    "apply_normalized_adjacency",
    "apply_transition",
    "apply_lazy_walk",
    "tridiag_solve_e1",
    "tridiag_eigen_range",
    "chebyshev_walk_norms",
    "RDEstimate",
    "exact_rd",
    "power_method_rd",
    "power_method_iteration_bound",
    "random_walk_rd",
    "LanczosRun",
    "lanczos_rd",
    "lanczos_potential",
    "lanczos_iteration_bound",
    "PushConfig",
    "AssumptionReport",
    "lanczos_push_rd",
    "subset_recurrence_trace",
    "check_assumption",
    "locality_statistics",
    "SpectralEstimate",
    "estimate_spectrum",
    "FlowMap",
    "Route",
    "RouteExtraction",
    "RouteMetrics",
    "electric_flow",
    "kirchhoff_residuals",
    "max_bottleneck_path",
    "extract_routes",
    "route_metrics",
    "flow_iteration_bound",
    "GraphFormatError",
    "EmptyGraphError",
    "UnsupportedInputError",
    "NumericalError",
    "SingularSystemError",
]
