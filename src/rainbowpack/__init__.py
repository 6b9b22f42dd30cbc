"""Edge-disjoint graph packings with no rainbow subgraph.

A packing places edge-disjoint copies of a pattern graph into a host and
colors each copy with its own color.  A rainbow copy of a forbidden graph
is one whose edges all come from distinct copies.  This package builds
large rainbow-free packings, certifies progression-free difference sets,
audits pentagon packings against counting bounds, solves small instances
exactly, and optimizes the blowup weight triples behind the lower-bound
constructions.
"""

from .constructions import (UnbalancedBlowupShape, c5_blowup_packing,
                            k5_double_pentagon, kt_packing,
                            perfect_decomposition_check, unbalanced_blowup,
                            unbalanced_edge_count)
from .errors import AuditError, BudgetError, GuardError, PackingError
from .gadgets import (QFreeSet, behrend_q_free, is_q_limited_triple,
                      max_q_free_bruteforce, verify_q_free)
from .graphs import (BlowupSpec, ColoredPacking, SimpleGraph, blow_up,
                     canonical_json, union_graph)
from .lp import FractionalPackingProblem, lp_fractional_packing
from .optimizer import (WeightTriple, c5_decomposition_coeff, class_ratios,
                        density, maximize_density, reference_triple,
                        solve_abg, upper_bound_coeff)
from .solver import (SearchConfig, SearchResult, enumerate_copies,
                     max_rainbow_free_packing)
from .verifier import (PentagonAudit, RainbowWitness, find_rainbow,
                       pentagon_audit)

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "BlowupSpec",
    "BudgetError",
    "ColoredPacking",
    "FractionalPackingProblem",
    "GuardError",
    "PackingError",
    "PentagonAudit",
    "QFreeSet",
    "RainbowWitness",
    "SearchConfig",
    "SearchResult",
    "SimpleGraph",
    "UnbalancedBlowupShape",
    "WeightTriple",
    "behrend_q_free",
    "blow_up",
    "c5_blowup_packing",
    "c5_decomposition_coeff",
    "canonical_json",
    "class_ratios",
    "density",
    "enumerate_copies",
    "find_rainbow",
    "is_q_limited_triple",
    "k5_double_pentagon",
    "kt_packing",
    "lp_fractional_packing",
    "max_q_free_bruteforce",
    "max_rainbow_free_packing",
    "maximize_density",
    "pentagon_audit",
    "perfect_decomposition_check",
    "reference_triple",
    "solve_abg",
    "unbalanced_blowup",
    "unbalanced_edge_count",
    "union_graph",
    "upper_bound_coeff",
    "verify_q_free",
]
