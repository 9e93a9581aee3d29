"""The combinatorial-map oracle against hand values and the closed-form
predictor on exhaustive small sweeps, and its vertex count against
connected components of the endpoint-slot graph (networkx)."""

import random

import networkx as nx

from quiverglue.gluing import GluingSpec, predicted_topology
from quiverglue.perms import all_permutations, random_permutation, swap
from quiverglue.surface import CombinatorialMap, build_map, surface_topology
from quiverglue.sweeps import gluing_sweep


def test_bare_annulus():
    g = GluingSpec("linear", (1, 1), ())
    m = build_map(g)
    # one rectangle, short sides glued: a cylinder
    assert len(m.faces) == 1
    assert m.euler_characteristic() == 0
    assert len(m.boundary_components()) == 2
    t = m.topology()
    assert (t.genus, t.boundary_marks) == (0, (1, 1))


def test_annulus_mark_counts():
    t = surface_topology(GluingSpec("linear", (3, 5), ()))
    assert (t.genus, t.boundary_marks, t.euler_characteristic) == (
        0,
        (3, 5),
        0,
    )


def test_rank_two_junction_is_planar():
    # S_2 is abelian, so every rank-2 commutator is trivial
    from quiverglue.perms import identity

    for sigma in (identity(2), swap(0, 1, 2)):
        t = surface_topology(GluingSpec("linear", (1, 2, 1), (sigma,)))
        assert (t.genus, t.boundary_marks) == (0, (1, 1, 2, 2))


def test_rank_three_swap_adds_genus():
    # [swap(0,1), tau_3] is a 3-cycle: one boundary circle of 6 marks
    t = surface_topology(GluingSpec("linear", (1, 3, 1), (swap(0, 1, 3),)))
    assert (t.genus, t.boundary_marks, t.euler_characteristic) == (
        1,
        (1, 1, 6),
        -3,
    )


def test_figure_case_both_routes():
    g = GluingSpec("linear", (1, 3, 3, 1), (swap(0, 1, 3), swap(0, 1, 3)))
    oracle = surface_topology(g)
    assert oracle.genus == 2
    assert oracle.boundary_marks == (1, 1, 6, 6)
    assert oracle.euler_characteristic == -6
    assert predicted_topology(g) == oracle


def test_circular_rank_one_torus():
    from quiverglue.perms import identity

    t = surface_topology(GluingSpec("circular", (1,), (identity(1),)))
    assert (t.genus, t.boundary_marks, t.euler_characteristic) == (
        1,
        (2,),
        -1,
    )


def test_euler_identity_and_boundary_partition():
    rng = random.Random(5)
    for _ in range(25):
        if rng.random() < 0.5:
            ranks = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 4)))
            perms = tuple(
                random_permutation(ranks[i + 1], rng)
                for i in range(len(ranks) - 2)
            )
            g = GluingSpec("linear", ranks, perms)
        else:
            ranks = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            g = GluingSpec(
                "circular",
                ranks,
                tuple(random_permutation(r, rng) for r in ranks),
            )
        m = build_map(g)
        assert m.euler_characteristic() == (
            m.num_vertices() - m.num_edges() + len(m.faces)
        )
        walks = m.boundary_components()
        free = [d for d in range(m.num_darts) if m.pair[d] < 0]
        assert sorted(d for walk in walks for d in walk) == free


def test_small_exhaustive_agreement():
    # every junction permutation exhausted at small rank
    for r in (1, 2, 3):
        for sigma in all_permutations(r):
            g = GluingSpec("linear", (2, r, 1), (sigma,))
            assert predicted_topology(g) == surface_topology(g)
            c = GluingSpec("circular", (r,), (sigma,))
            assert predicted_topology(c) == surface_topology(c)


def test_two_circular_components_exhaustive():
    for r1 in (1, 2):
        for r2 in (1, 2):
            for s1 in all_permutations(r1):
                for s2 in all_permutations(r2):
                    g = GluingSpec("circular", (r1, r2), (s1, s2))
                    assert predicted_topology(g) == surface_topology(g)


def slot_components(m: CombinatorialMap) -> int:
    """Vertices as connected components of the endpoint-slot graph:
    the head of each dart meets the tail of the next dart in its face,
    and paired darts meet head to tail."""
    graph = nx.Graph()
    graph.add_nodes_from(range(2 * m.num_darts))
    for d in range(m.num_darts):
        graph.add_edge(2 * d + 1, 2 * m.next_in_face[d])
        e = m.pair[d]
        if e >= 0:
            graph.add_edge(2 * d, 2 * e + 1)
            graph.add_edge(2 * d + 1, 2 * e)
    return nx.number_connected_components(graph)


def test_vertex_count_matches_slot_components():
    torus = CombinatorialMap([1, 2, 3, 0], [2, 3, 0, 1], [False] * 4, [[0, 1, 2, 3]])
    disk = CombinatorialMap([1, 2, 0], [-1, -1, -1], [True] * 3, [[0, 1, 2]])
    # Only closed corner orbits, then only open ones.
    assert torus.num_vertices() == slot_components(torus) == 1
    assert disk.num_vertices() == slot_components(disk) == 3
    assert torus.topology().genus == 1
    for g in gluing_sweep(2, 4):
        m = build_map(g)
        assert m.num_vertices() == slot_components(m), g
