"""Gap-tracking reduction toolkit with exact exponential-time oracles.

Reduction chains: SAT variants to MaxCut to linear arrangements to
chordal-family completion problems; bisection to bounded-degree arrangements
via expanders; SAT to feedback vertex/arc sets to tournaments. Every
transformation carries its exact gap arithmetic and is checkable against
brute-force oracles at desk scale.
"""

from .errors import (
    CapExceededError,
    ConstructionError,
    DimensionError,
    DomainError,
    GapChainError,
    ParseError,
)
from .model import (
    Assignment,
    BipartiteGraph,
    CnfFormula,
    Digraph,
    GapInstance,
    GapParams,
    MultiGraph,
    Ordering,
    VertexPartition,
    complement,
    cost_of_ordering,
    count_nae_satisfied,
    count_satisfied,
    cut_size,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BipartiteGraph",
    "CapExceededError",
    "CnfFormula",
    "ConstructionError",
    "Digraph",
    "DimensionError",
    "DomainError",
    "GapChainError",
    "GapInstance",
    "GapParams",
    "MultiGraph",
    "Ordering",
    "ParseError",
    "VertexPartition",
    "complement",
    "cost_of_ordering",
    "count_nae_satisfied",
    "count_satisfied",
    "cut_size",
    "__version__",
]
