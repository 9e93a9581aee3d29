"""The public API: ``quiverglue.__all__`` counts as behaviour, so a name
enters or leaves it only together with this list and a CHANGES.md
entry."""

import quiverglue

PUBLIC = [
    # errors
    "SpecError", "QuiverError", "FalsificationError",
    # perms
    "CycleDecomposition", "Permutation", "all_permutations", "from_twist",
    "identity", "random_permutation", "swap", "tau",
    # gluing
    "CHAIN", "CIRCULAR", "LINEAR", "RING", "GluingSpec", "StackyCurveSpec",
    "SurfaceTopology", "from_curve", "predicted_topology",
    "predicted_topology_curve",
    # surface
    "CombinatorialMap", "build_map", "surface_topology",
    # quiver
    "Arrow", "GradedQuiver", "HomTable", "MatchReport", "find_isomorphism",
    "label_str", "map_equals",
    # aside and bside
    "build_aside", "object_count", "DEFAULT_BASE", "build_bside",
    # mirror
    "Check", "VerifyReport", "canonical_correspondence", "k0_rank",
    "search_ring_mirror", "twisted_gluing", "verify_theorem_A",
    # homology
    "Cocycle", "HomComplex", "LocObject", "ThinModule", "TwistedComplex",
    "all_localization_objects", "euler_characteristic", "ext_product",
    "hom_cohomology", "is_stop_orthogonal", "localization_object",
    "module_of", "predicted_module", "projective",
]


def test_public_names_are_pinned():
    assert quiverglue.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in quiverglue.__all__:
        assert hasattr(quiverglue, name), name
