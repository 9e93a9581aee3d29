"""find_isomorphism against networkx's VF2 matcher: on seeded pairs of
quivers, None must come back exactly when VF2 finds no isomorphism.

VF2 sees a quiver with relations as a plain digraph: one node per
vertex, one node per arrow carrying its degree with edges source ->
arrow -> target, and an edge f -> g between arrow nodes for each
relation g∘f = 0."""

import random

import pytest
from conftest import arrow_rows, relation_names

from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.mirror import twisted_gluing
from quiverglue.quiver import GradedQuiver, find_isomorphism, map_equals
from quiverglue.sweeps import DEFAULT_SEED as SEED, random_curve

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import DiGraphMatcher  # noqa: E402


def as_digraph(q: GradedQuiver):
    g = nx.DiGraph()
    for v in range(q.num_vertices):
        g.add_node(("vertex", v), degree=None)
    for name, source, target, degree in arrow_rows(q):
        g.add_node(("arrow", name), degree=degree)
        g.add_edge(("vertex", source), ("arrow", name))
        g.add_edge(("arrow", name), ("vertex", target))
    for f, h in relation_names(q):
        g.add_edge(("arrow", f), ("arrow", h))
    return g


def vf2_isomorphic(q1: GradedQuiver, q2: GradedQuiver) -> bool:
    same = lambda n1, n2: n1["degree"] == n2["degree"]
    return DiGraphMatcher(as_digraph(q1), as_digraph(q2), node_match=same).is_isomorphic()


def rebuilt(q: GradedQuiver, retarget=None, relations=None, shuffle=None) -> GradedQuiver:
    """A copy of q through the constructor, with one arrow optionally sent to
    another target vertex id, the relation set optionally replaced, and
    vertices and arrows optionally added in an order shuffled by
    ``shuffle`` (a random.Random)."""
    vertices = list(zip(q.vertex_labels, q.vertex_shifts))
    arrows = arrow_rows(q)
    if shuffle:
        shuffle.shuffle(vertices)
        shuffle.shuffle(arrows)

    def target(name, t):
        return retarget[1] if retarget and name == retarget[0] else t

    return GradedQuiver(
        vertices,
        [(name, q.primary_label(s), q.primary_label(target(name, t)), degree)
         for name, s, t, degree in arrows],
        sorted(relation_names(q) if relations is None else relations),
    )


def moved_relation(q: GradedQuiver, rng) -> GradedQuiver | None:
    """One relation dropped and a composable pair that was not one added."""
    relations = set(relation_names(q))
    rows = arrow_rows(q)
    free = [
        (f, h)
        for f, _, f_target, _ in rows
        for h, h_source, _, _ in rows
        if h_source == f_target and (f, h) not in relations
    ]
    if not relations or not free:
        return None
    relations.discard(rng.choice(sorted(relations)))
    relations.add(rng.choice(free))
    return rebuilt(q, relations=relations)


def retargeted_arrow(q: GradedQuiver, rng) -> GradedQuiver | None:
    """One arrow that starts no relation sent to another vertex, so every
    relation stays composable."""
    starts = {f for f, _ in relation_names(q)}
    movable = [row for row in arrow_rows(q) if row[0] not in starts]
    if not movable or q.num_vertices < 2:
        return None
    name, _, old, _ = rng.choice(movable)
    target = rng.choice([v for v in range(q.num_vertices) if v != old])
    return rebuilt(q, retarget=(name, target))


def seeded_pairs(count):
    rng = random.Random(SEED)
    curves = [random_curve(rng) for _ in range(count)]
    pairs = []
    for k, c in enumerate(curves):
        bq, aq = build_bside(c), build_aside(twisted_gluing(c))
        pairs.append((bq, aq))
        pairs.append((bq, rebuilt(aq, shuffle=rng)))
        pairs.append((bq, build_aside(twisted_gluing(curves[k - 1]))))
        for perturbed in (moved_relation(aq, rng), retargeted_arrow(aq, rng)):
            if perturbed is not None:
                pairs.append((bq, perturbed))
    return pairs


PAIRS = seeded_pairs(40)


def test_find_isomorphism_agrees_with_vf2():
    isomorphic = hard_no = 0
    for q1, q2 in PAIRS:
        expected = vf2_isomorphic(q1, q2)
        vmap = find_isomorphism(q1, q2)
        assert (vmap is not None) == expected
        if vmap is not None:
            assert map_equals(q1, q2, vmap).ok
        counts = [(q.num_vertices, len(q.arrows), len(relation_names(q))) for q in (q1, q2)]
        isomorphic += expected
        hard_no += not expected and counts[0] == counts[1]
    # both answers come up, and "no" also where the counts agree
    assert isomorphic >= 80
    assert hard_no >= 40
