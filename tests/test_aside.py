"""Generator quivers of gluings: counts, arrow targets, relations."""

import pytest
from conftest import relation_names

from quiverglue.aside import build_aside, object_count
from quiverglue.errors import FalsificationError
from quiverglue.gluing import GluingSpec
from quiverglue.perms import Permutation, identity, swap
from quiverglue.quiver import GradedQuiver


def test_bare_annulus_quiver():
    q = build_aside(GluingSpec("linear", (1, 1), ()))
    assert q.num_vertices == 2
    assert len(q.arrows) == 2
    assert relation_names(q) == set()
    # both chains run start to sink
    start = q.vertex_id(("P-", 1, 0))
    sink = q.vertex_id(("P-", 1, 1))
    assert set(map(q.arrow_ends, q.arrows)) == {(start, sink)}


def test_chain_endpoints_are_shared():
    q = build_aside(GluingSpec("linear", (2, 3), ()))
    assert q.vertex_id(("P-", 1, 0)) == q.vertex_id(("P+", 1, 0))
    assert q.vertex_id(("P-", 1, 2)) == q.vertex_id(("P+", 1, 3))
    assert q.num_vertices == 2 + 1 + 2  # endpoints + interiors
    table = q.path_dims()
    assert table.dims.get((("P-", 1, 0), ("P-", 1, 2), 0), 0) == 2


def test_vertex_counts_match_closed_form():
    cases = [
        GluingSpec("linear", (1, 3, 3, 1), (swap(0, 1, 3), swap(0, 1, 3))),
        GluingSpec("linear", (1, 1), ()),
        GluingSpec("circular", (2,), (identity(2),)),
        GluingSpec("circular", (2, 3), (identity(2), identity(3))),
    ]
    expected = [20, 2, 6, 15]
    for g, count in zip(cases, expected):
        q = build_aside(g)
        assert q.num_vertices == count
        assert object_count(g) == count


def test_junction_layer_shape():
    g = GluingSpec("linear", (1, 3, 3, 1), (swap(0, 1, 3), swap(0, 1, 3)))
    q = build_aside(g)
    s_ids = [
        vid
        for vid in range(q.num_vertices)
        if q.primary_label(vid)[0] == "S"
    ]
    assert len(s_ids) == 6
    for vid in s_ids:
        out = [a for a in q.arrows if q.arrow_ends(a)[0] == vid]
        assert len(out) == 2
        assert q.in_arrows(vid) == ()
        assert {q.arrow_name(a)[0] for a in out} == {"a", "b"}
    # two relations per strip
    assert len(relation_names(q)) == 2 * 6
    assert q.is_acyclic()


def test_b_arrow_targets_follow_the_permutation():
    # sigma = identity on a circular rank-2 component: b(1,j) lands on
    # the opposite chain at position r-1-j
    q = build_aside(GluingSpec("circular", (2,), (identity(2),)))
    _, b0 = q.arrow_ends(q.arrow_index(("b", 1, 0)))
    _, b1 = q.arrow_ends(q.arrow_index(("b", 1, 1)))
    assert q.primary_label(b0) == ("P-", 1, 1)
    assert q.primary_label(b1) == ("P-", 1, 0)
    relations = relation_names(q)
    assert ((("b", 1, 0), ("x", 1, 1))) in relations
    assert ((("b", 1, 1), ("x", 1, 0))) in relations

    q = build_aside(GluingSpec("circular", (2,), (swap(0, 1, 2),)))
    assert q.primary_label(q.arrow_ends(q.arrow_index(("b", 1, 0)))[1]) == ("P-", 1, 0)


def test_a_arrow_targets_are_position_aligned():
    g = GluingSpec("linear", (1, 2, 1), (identity(2),))
    q = build_aside(g)
    for j in range(2):
        source, target = map(q.primary_label, q.arrow_ends(q.arrow_index(("a", 1, j))))
        assert source == ("S", 1, j)
        assert target in ((("P+", 1, j)), (("P-", 1, 0)))
        assert q.vertex_id(target) == q.vertex_id(("P+", 1, j))
        assert (("a", 1, j), ("y", 1, j)) in relation_names(q)


def test_every_arrow_has_degree_zero():
    g = GluingSpec("circular", (3, 2), (Permutation((1, 2, 0)), identity(2)))
    q = build_aside(g)
    assert all(q.path_degree((a,)) == 0 for a in q.arrows)
    assert all(sh == 0 for sh in q.vertex_shifts)


def test_perm_changes_quiver_but_not_counts():
    base = GluingSpec("linear", (1, 3, 1), (identity(3),))
    other = GluingSpec("linear", (1, 3, 1), (swap(0, 1, 3),))
    q1, q2 = build_aside(base), build_aside(other)
    assert q1.num_vertices == q2.num_vertices
    assert len(q1.arrows) == len(q2.arrows)
    assert set(map(q1.arrow_name, q1.arrows)) == set(map(q2.arrow_name, q2.arrows))
    assert relation_names(q1) != relation_names(q2)


def test_a_cyclic_generator_quiver_is_an_alarm(monkeypatch):
    # generator quivers are acyclic: a cycle means the numbering is wrong
    monkeypatch.setattr(GradedQuiver, "is_acyclic", lambda q: False)
    with pytest.raises(FalsificationError, match="^generator quiver came out cyclic$"):
        build_aside(GluingSpec("linear", (1, 1), ()))
