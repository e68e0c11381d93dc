"""Low-hop emulators, distance oracles, and approximate min-cost flow.

The pipeline: truncated-ball subemulators stack into a low-hop emulator
whose bounded-hop distances approximate the input metric; a Bourgain-style
l1 embedding plus a shifted-grid preconditioner turn uncapacitated
min-cost flow into a multiplicative-weights feasibility problem; a
sample-and-contract recursion extracts explicit approximate shortest
paths from the resulting flows.
"""

__version__ = "0.1.0"

from .graphs import (Graph, GraphError, MalformedLine, NegativeWeight,
                     NotConnected, SelfLoop, WeightTooLarge, contract_zero_edges,
                     dijkstra, distance_rows, load_graph)
from .balls import BallData, compute_balls
from .subemulator import Subemulator, build_subemulator
from .emulator import (Emulator, LevelStack, approx_sssp, build_emulator,
                       default_k, load_emulator, oracle_query, preprocess,
                       save_emulator, set_distance)
from .metric import (Decomposition, Embedding, bourgain_embed,
                     low_diameter_decomposition)
from .precond import (CompressedMatrix, CompressedVector, build_preconditioner,
                      matrix_vec, vector_mat)
from .flow import FlowSolution, min_cost_flow, mst_routing
from .paths import (Path, StuckVertex, WalkBudgetExceeded, approx_shortest_path,
                    contract, find_path, random_walk_length_check,
                    sample_pointers, shortcut_cycles)

__all__ = [
    "Graph", "GraphError", "MalformedLine", "NegativeWeight", "NotConnected",
    "SelfLoop", "WeightTooLarge", "contract_zero_edges", "dijkstra",
    "distance_rows", "load_graph", "BallData", "compute_balls", "Subemulator",
    "build_subemulator", "Emulator", "LevelStack", "approx_sssp",
    "build_emulator", "default_k", "load_emulator", "oracle_query",
    "preprocess", "save_emulator", "set_distance", "Decomposition",
    "Embedding", "bourgain_embed", "low_diameter_decomposition",
    "CompressedMatrix", "CompressedVector", "build_preconditioner",
    "matrix_vec", "vector_mat", "FlowSolution", "min_cost_flow",
    "mst_routing", "Path", "StuckVertex",
    "WalkBudgetExceeded", "approx_shortest_path", "contract", "find_path",
    "random_walk_length_check", "sample_pointers", "shortcut_cycles",
    "__version__",
]
