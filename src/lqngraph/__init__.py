"""Colored-graph toolkit for linear quantum networks.

Maps N-particle, N-detector linear networks to colored weighted graphs,
enumerates the perfect matchings that carry the post-selected no-bunching
state, classifies the entanglement of that state both structurally (from
the PM diagram) and numerically (Schmidt ranks), and constructs networks
for standard entangled target states.
"""

from .designers import (
    design_cluster4,
    design_dicke2,
    design_ghz,
    design_w,
    preset_beamsplitter,
    preset_tritter,
)
from .entanglement import (
    Bipartition,
    SeparabilityReport,
    Verdict,
    build_report,
    finest_partition,
    lemma1_separable_vertices,
    lemma2_partition,
    schmidt_rank,
    theorem1_check,
    theorem2_w_optimal_check,
)
from .errors import LQNError
from .graphs import PMDiagram, diagram_of_network, walk_matchings
from .io import DotRenderOptions, View, export_dot, parse_network, serialize_network, serialize_state
from .model import (
    Color,
    NetworkSpec,
    NormalizationMode,
    Statistics,
    validate_network,
)
from .states import (
    NoBunchState,
    assemble_network_state,
    max_amplitude_difference,
    normalize,
    oracle_state,
)

__version__ = "0.1.0"
