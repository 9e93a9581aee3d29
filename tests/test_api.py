"""The public API: ``quiverglue.__all__`` and the public attributes of
the two spec classes, of GradedQuiver and of HomTable count as
behaviour, so a name enters or leaves them only together with these
lists and a CHANGES.md entry."""

import quiverglue
from quiverglue.gluing import GluingSpec, StackyCurveSpec
from quiverglue.quiver import GradedQuiver, HomTable

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
    "GradedQuiver", "HomTable", "MatchReport", "find_isomorphism", "label_str",
    "map_equals",
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


# The one shape model: every component's sides from side_ranks(), every
# junction's rank from node_ranks(), junction k joining component k to
# component k % n + 1.  No per-index lookups beside it.
SHAPE = ["closed", "components", "free_ranks", "from_json", "from_obj",
         "n_components", "node_ranks", "rank_count", "ranks", "shape",
         "side_ranks", "to_json"]


def public_attributes(cls):
    return sorted(name for name in dir(cls) if not name.startswith("_"))


def test_spec_attributes_are_pinned():
    assert public_attributes(GluingSpec) == sorted(SHAPE + ["perms"])
    assert public_attributes(StackyCurveSpec) == sorted(SHAPE + ["twists"])


# A quiver is read by index, and its three formats are text, JSON and
# dot; a Hom table is its paths, and their counts.  No view repeats one.
QUIVER = ["arrow_ends", "arrow_index", "arrow_name", "arrows", "compose",
          "from_json_obj", "in_arrows", "is_acyclic", "is_relation",
          "num_arrows", "num_vertices", "path_degree", "path_dims", "path_end",
          "path_names", "paths_between", "paths_into", "primary_label", "to_dot",
          "to_json", "to_text", "topological_order", "vertex_id", "vertex_labels",
          "vertex_shifts"]


def test_quiver_attributes_are_pinned():
    assert public_attributes(GradedQuiver) == QUIVER
    assert public_attributes(HomTable({})) == ["dims", "paths"]  # paths: a field
