"""Graded quivers from glued annuli and stacky curves.

The package builds two families of quivers with relations: one from a
surface presented as annuli glued along strips, one from an exceptional
collection on a chain or ring of orbifold rational curves.  It can
predict the topology of the glued surface in closed form, recompute it
from an honest combinatorial map, match the two quivers vertex by
vertex, and chase twisted complexes through exact linear algebra.
Everything is integer or rational arithmetic; nothing is approximate.
"""

from .errors import SpecError, QuiverError, FalsificationError
from .perms import (
    CycleDecomposition,
    Permutation,
    all_permutations,
    from_twist,
    identity,
    random_permutation,
    swap,
    tau,
)
from .gluing import (
    CHAIN,
    CIRCULAR,
    LINEAR,
    RING,
    GluingSpec,
    StackyCurveSpec,
    SurfaceTopology,
    from_curve,
    predicted_topology,
    predicted_topology_curve,
)
from .surface import CombinatorialMap, build_map, surface_topology
from .quiver import (
    GradedQuiver,
    HomTable,
    MatchReport,
    find_isomorphism,
    label_str,
    map_equals,
)
from .aside import build_aside, object_count
from .bside import DEFAULT_BASE, build_bside
from .mirror import (
    Check,
    VerifyReport,
    canonical_correspondence,
    k0_rank,
    search_ring_mirror,
    twisted_gluing,
    verify_theorem_A,
)
from .homology import (
    Cocycle,
    HomComplex,
    LocObject,
    ThinModule,
    TwistedComplex,
    all_localization_objects,
    euler_characteristic,
    ext_product,
    hom_cohomology,
    is_stop_orthogonal,
    localization_object,
    module_of,
    predicted_module,
    projective,
)

__all__ = [
    "SpecError",
    "QuiverError",
    "FalsificationError",
    "CycleDecomposition",
    "Permutation",
    "all_permutations",
    "from_twist",
    "identity",
    "random_permutation",
    "swap",
    "tau",
    "CHAIN",
    "CIRCULAR",
    "LINEAR",
    "RING",
    "GluingSpec",
    "StackyCurveSpec",
    "SurfaceTopology",
    "from_curve",
    "predicted_topology",
    "predicted_topology_curve",
    "CombinatorialMap",
    "build_map",
    "surface_topology",
    "GradedQuiver",
    "HomTable",
    "MatchReport",
    "find_isomorphism",
    "label_str",
    "map_equals",
    "build_aside",
    "object_count",
    "DEFAULT_BASE",
    "build_bside",
    "Check",
    "VerifyReport",
    "canonical_correspondence",
    "k0_rank",
    "search_ring_mirror",
    "twisted_gluing",
    "verify_theorem_A",
    "Cocycle",
    "HomComplex",
    "LocObject",
    "ThinModule",
    "TwistedComplex",
    "all_localization_objects",
    "euler_characteristic",
    "ext_product",
    "hom_cohomology",
    "is_stop_orthogonal",
    "localization_object",
    "module_of",
    "predicted_module",
    "projective",
]

__version__ = "0.1.0"
