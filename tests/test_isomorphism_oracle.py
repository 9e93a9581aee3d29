"""find_isomorphism against networkx's VF2 matcher: on seeded pairs of
quivers, None must come back exactly when VF2 finds no isomorphism.

VF2 sees a quiver with relations as a plain digraph: one node per
vertex, one node per arrow carrying its degree with edges source ->
arrow -> target, and an edge f -> g between arrow nodes for each
relation g∘f = 0."""

import random

import pytest

from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.cli import _random_curve
from quiverglue.mirror import twisted_gluing
from quiverglue.quiver import GradedQuiver, find_isomorphism, map_equals

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import DiGraphMatcher  # noqa: E402

SEED = 1729


def as_digraph(q: GradedQuiver):
    g = nx.DiGraph()
    for v in range(q.num_vertices):
        g.add_node(("vertex", v), degree=None)
    for a in q.arrows:
        g.add_node(("arrow", a.name), degree=a.degree)
        g.add_edge(("vertex", a.source), ("arrow", a.name))
        g.add_edge(("arrow", a.name), ("vertex", a.target))
    for f, h in q.relations:
        g.add_edge(("arrow", f), ("arrow", h))
    return g


def vf2_isomorphic(q1: GradedQuiver, q2: GradedQuiver) -> bool:
    same = lambda n1, n2: n1["degree"] == n2["degree"]
    return DiGraphMatcher(as_digraph(q1), as_digraph(q2), node_match=same).is_isomorphic()


def rebuilt(q: GradedQuiver, retarget=None, relations=None, shuffle=None) -> GradedQuiver:
    """A copy of q through the builder, with one arrow optionally sent to
    another target vertex id, the relation set optionally replaced, and
    vertices and arrows optionally added in an order shuffled by
    ``shuffle`` (a random.Random)."""
    vertices = list(zip(q.vertex_labels, q.vertex_shifts))
    arrows = list(q.arrows)
    if shuffle:
        shuffle.shuffle(vertices)
        shuffle.shuffle(arrows)
    out = GradedQuiver()
    for labels, shift in vertices:
        out.add_vertex(*labels, shift=shift)
    for a in arrows:
        target = retarget[1] if retarget and a.name == retarget[0] else a.target
        out.add_arrow(a.name, q.primary_label(a.source), q.primary_label(target), a.degree)
    for f, h in sorted(q.relations if relations is None else relations):
        out.add_relation(f, h)
    return out


def moved_relation(q: GradedQuiver, rng) -> GradedQuiver | None:
    """One relation dropped and a composable pair that was not one added."""
    free = [
        (f.name, h.name)
        for f in q.arrows
        for h in q.arrows_from(f.target)
        if (f.name, h.name) not in q.relations
    ]
    if not q.relations or not free:
        return None
    relations = set(q.relations)
    relations.discard(rng.choice(sorted(relations)))
    relations.add(rng.choice(free))
    return rebuilt(q, relations=relations)


def retargeted_arrow(q: GradedQuiver, rng) -> GradedQuiver | None:
    """One arrow that starts no relation sent to another vertex, so every
    relation stays composable."""
    starts = {f for f, _ in q.relations}
    movable = [a for a in q.arrows if a.name not in starts]
    if not movable or q.num_vertices < 2:
        return None
    a = rng.choice(movable)
    target = rng.choice([v for v in range(q.num_vertices) if v != a.target])
    return rebuilt(q, retarget=(a.name, target))


def seeded_pairs(count):
    rng = random.Random(SEED)
    curves = [_random_curve(rng) for _ in range(count)]
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
        counts = [(q.num_vertices, len(q.arrows), len(q.relations)) for q in (q1, q2)]
        isomorphic += expected
        hard_no += not expected and counts[0] == counts[1]
    # both answers come up, and "no" also where the counts agree
    assert isomorphic >= 80
    assert hard_no >= 40
