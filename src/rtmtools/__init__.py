"""Rooted tree modules over zero-relation algebras.

Combinatorial indecomposability decisions, Hom-space spanning sets from
generalized graph maps, and explicit decompositions into indecomposable
summands, cross-checked by exact linear algebra over GF(p).
"""

from .algebra import (
    BoundQuiver,
    LocallyBoundReport,
    Path,
    Quiver,
    StructureError,
    check_locally_bound,
)
from .trees import (
    SINK,
    SOURCE,
    BranchMorphism,
    ModuleHom,
    ModuleRep,
    RootedTree,
    TreeOverQ,
    push_down,
    validate_tree_over_q,
)
from .network import (
    PullbackNetwork,
    Triangle,
    TwoCover,
    maximal_r_free_traversals,
    to_dot,
    triangles,
    two_cover,
)
from .ggm import (
    GeneralizedGraphMap,
    Subnetwork,
    enumerate_ggms,
    ggm_matrix,
    hom_span,
)
from .structure import (
    Cor2Report,
    Decomposition,
    IdempotentEndo,
    cor2_report,
    decompose_fully,
    embeds,
    find_nonidentity_idempotent,
    first_certificate,
    is_indecomposable,
    module_idempotent,
    split,
)
from .oracle import (
    GenerationExhausted,
    HomBasis,
    IdempotentSearch,
    has_nontrivial_idempotent,
    hom_space,
    nullspace,
    random_instance,
    rref,
    verify_iso,
)

__version__ = "0.1.0"
