"""Exceptional-collection quivers: window coordinates, twist classes,
and the literal slot alignment of arrows with relations."""

import pytest
from conftest import relation_names

from quiverglue.bside import build_bside
from quiverglue.errors import FalsificationError, SpecError
from quiverglue.gluing import StackyCurveSpec, from_curve
from quiverglue.aside import object_count
from quiverglue.mirror import canonical_correspondence, twisted_gluing
from quiverglue.quiver import GradedQuiver


def test_minimal_chain():
    # two rank-1 components, one untwisted node
    c = StackyCurveSpec("chain", (1, 1, 1), (0,))
    q = build_bside(c)
    assert q.num_vertices == 5
    s = q.vertex_id(("S", 1, 0))
    assert len([a for a in q.arrows if q.arrow_ends(a)[0] == s]) == 2
    assert q.in_arrows(s) == ()
    assert q.vertex_shifts[s] == -1


def test_default_base_labels_are_absolute():
    c = StackyCurveSpec("chain", (1, 2, 1), (1,))
    q = build_bside(c)
    # component 1: x-row 0..1 at height -1, y-row heights -1..1
    q.vertex_id(("P", 1, 0, -1))
    q.vertex_id(("P", 1, 0, 0))
    assert q.vertex_id(("P", 1, 1, -1)) == q.vertex_id(("P", 1, 0, 1))
    # component 2 has the longer x-row
    q.vertex_id(("P", 2, 1, -1))
    assert q.vertex_id(("P", 2, 2, -1)) == q.vertex_id(("P", 2, 0, 0))
    with pytest.raises(Exception):
        q.vertex_id(("P", 1, 2, -1))


def test_row_arrows_are_slot_labeled():
    c = StackyCurveSpec("chain", (1, 2, 1), (1,))
    q = build_bside(c, bases={2: (3, -2)})
    # slot labels ignore the window origin; coordinates do not
    source, target = q.arrow_ends(q.arrow_index(("x", 2, 0)))
    assert q.primary_label(source) == ("P", 2, 3, -2)
    assert q.primary_label(target) == ("P", 2, 4, -2)


def test_node_classes_and_relations():
    c = StackyCurveSpec("chain", (1, 2, 1), (1,))
    q = build_bside(c)
    # b(1,j) starts at class -j-1 mod 2 and hits x-row slot j next door
    b0 = q.arrow_ends(q.arrow_index(("b", 1, 0)))
    assert tuple(map(q.primary_label, b0)) == (("S", 1, 1), ("P", 2, 0, -1))
    b1 = q.arrow_ends(q.arrow_index(("b", 1, 1)))
    assert q.primary_label(b1[0]) == ("S", 1, 0)
    relations = relation_names(q)
    assert (("b", 1, 0), ("x", 2, 0)) in relations
    assert (("b", 1, 1), ("x", 2, 1)) in relations
    # a(1,m) starts at class -k(m_i+m+1) = -m mod 2
    a0 = q.arrow_ends(q.arrow_index(("a", 1, 0)))
    assert q.primary_label(a0[0]) == ("S", 1, 0)
    assert (("a", 1, 0), ("y", 1, 0)) in relations
    assert (("a", 1, 1), ("y", 1, 1)) in relations
    assert len(relations) == 4


def test_each_class_feeds_one_a_and_one_b():
    c = StackyCurveSpec("ring", (3, 4, 5), (2, 3, 4))
    q = build_bside(c)
    for vid in range(q.num_vertices):
        lab = q.primary_label(vid)
        if lab[0] != "S":
            continue
        out = [a for a in q.arrows if q.arrow_ends(a)[0] == vid]
        assert sorted(q.arrow_name(a)[0] for a in out) == ["a", "b"]
        assert q.in_arrows(vid) == ()
    assert q.is_acyclic()


def test_vertex_count_matches_mirror_closed_form():
    cases = [
        StackyCurveSpec("chain", (1, 2, 1), (1,)),
        StackyCurveSpec("chain", (2, 3, 4, 2), (1, 3)),
        StackyCurveSpec("ring", (1,), (0,)),
        StackyCurveSpec("ring", (2, 2), (1, 1)),
        StackyCurveSpec("ring", (3, 4, 5), (2, 3, 4)),
    ]
    for c in cases:
        assert build_bside(c).num_vertices == object_count(from_curve(c))


def test_unknown_base_component_is_rejected():
    c = StackyCurveSpec("ring", (3,), (1,))
    with pytest.raises(SpecError):
        build_bside(c, bases={2: (0, 0)})
    for build in (twisted_gluing, canonical_correspondence):
        with pytest.raises(SpecError):
            build(c, bases={7: (0, 0)})


def test_ring_single_component_wraps_to_itself():
    c = StackyCurveSpec("ring", (3,), (1,))
    q = build_bside(c)
    # the node feeds the same component's rows
    _, target = q.arrow_ends(q.arrow_index(("b", 1, 0)))
    assert q.primary_label(target)[1] == 1
    assert q.num_vertices == 9


def test_a_cyclic_collection_quiver_is_an_alarm(monkeypatch):
    # collection quivers are acyclic: a cycle means the numbering is wrong
    monkeypatch.setattr(GradedQuiver, "is_acyclic", lambda q: False)
    with pytest.raises(FalsificationError,
                       match="^exceptional-collection quiver came out cyclic$"):
        build_bside(StackyCurveSpec("ring", (3,), (1,)))
