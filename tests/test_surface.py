"""The combinatorial-map oracle against hand values and the closed-form
predictor on exhaustive small sweeps, and its vertex count against
connected components of the endpoint-slot graph (networkx)."""

import hashlib
import json
import random

import networkx as nx

from quiverglue.gluing import GluingSpec, SurfaceTopology, predicted_topology, twisted_gluing
from quiverglue.perms import all_permutations, random_permutation, swap
from quiverglue.surface import CombinatorialMap, build_map, surface_topology
from quiverglue.sweeps import curve_sweep, gluing_sweep


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


# One square with opposite sides glued, then a triangle with all sides free.
TORUS = CombinatorialMap([1, 2, 3, 0], [2, 3, 0, 1], [False] * 4, [[0, 1, 2, 3]])
DISK = CombinatorialMap([1, 2, 0], [-1, -1, -1], [True] * 3, [[0, 1, 2]])


def test_vertex_count_matches_slot_components():
    torus, disk = TORUS, DISK
    # Only closed corner orbits, then only open ones.
    assert torus.num_vertices() == slot_components(torus) == 1
    assert disk.num_vertices() == slot_components(disk) == 3
    assert torus.topology().genus == 1
    for g in gluing_sweep(2, 4):
        m = build_map(g)
        assert m.num_vertices() == slot_components(m), g


def test_topology_agrees_with_the_public_methods():
    # topology() counts from one boundary walk; the public methods each
    # scan the darts themselves
    maps = [TORUS, DISK] + [build_map(g) for g in gluing_sweep(2, 4)]
    for m in maps:
        t = m.topology()
        walks = m.boundary_components()
        assert t.euler_characteristic == m.euler_characteristic()
        assert t.num_boundary == len(walks)
        marks = sorted(sum(m.marked[d] for d in walk) for walk in walks)
        assert list(t.boundary_marks) == marks
    assert (TORUS.topology().num_boundary, DISK.topology()) == (
        0, SurfaceTopology(0, (3,), 1))


def random_map(rng: random.Random) -> CombinatorialMap:
    """A connected map of random faces, some darts left free, its dart
    ids shuffled so that no face need be a run of ids."""
    sizes = [rng.randint(2, 5)] + [rng.randint(1, 5) for _ in range(rng.randint(0, 7))]
    faces, open_darts, pairs, n = [], [], [], 0
    for size in sizes:
        face = list(range(n, n + size))
        if faces:  # glue one dart to an unglued dart of an earlier face
            if not open_darts:
                break
            other = open_darts.pop(rng.randrange(len(open_darts)))
            pairs.append((face[0], other))
        faces.append(face)
        open_darts += face[1:] if len(faces) > 1 else face
        n += size
    rng.shuffle(open_darts)
    while len(open_darts) >= 2 and rng.random() < 0.7:
        pairs.append((open_darts.pop(), open_darts.pop()))
    ids = list(range(n))
    rng.shuffle(ids)
    nxt, pair = [0] * n, [-1] * n
    for face in faces:
        for d, e in zip(face, face[1:] + face[:1]):
            nxt[ids[d]] = ids[e]
    for d, e in pairs:
        pair[ids[d]], pair[ids[e]] = ids[e], ids[d]
    marked = [rng.random() < 0.5 for _ in range(n)]
    return CombinatorialMap(nxt, pair, marked, [[ids[d] for d in face] for face in faces])


def test_topology_on_random_maps_with_shuffled_ids():
    # topology() walks the boundary once and then only the closed corner
    # orbits; it must not lean on build_map's layout of one run per face
    rng = random.Random(38)
    scattered = free = closed = 0
    for _ in range(400):
        m = random_map(rng)
        t, walks = m.topology(), m.boundary_components()
        assert m.num_vertices() == slot_components(m)
        assert t.euler_characteristic == m.euler_characteristic() == (
            slot_components(m) - m.num_edges() + len(m.faces))
        marks = sorted(sum(m.marked[d] for d in walk) for walk in walks)
        assert list(t.boundary_marks) == marks
        scattered += any(sorted(f) != list(range(min(f), max(f) + 1)) for f in m.faces)
        free += bool(walks)
        closed += not walks
    # the sample holds scattered faces, open maps and closed ones
    assert scattered > 300 and free > 300 and closed > 0


def map_digest(gluings) -> str:
    """sha256 of build_map's four arrays, one JSON line per gluing."""
    h = hashlib.sha256()
    for g in gluings:
        m = build_map(g)
        line = json.dumps([m.next_in_face, m.pair, m.marked, [list(f) for f in m.faces]])
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_build_map_arrays_are_pinned():
    # recorded before build_map read the side ranks in one pass; the
    # arrays, not only the topology, must come out byte for byte the same
    assert map_digest(gluing_sweep(2, 4)) == (
        "10dd85a1def599d650e14c587d1fd2515b5633f4abd79df14c603959a8d8e81e")
    assert map_digest(map(twisted_gluing, curve_sweep(2, 4))) == (
        "58f77a0bed35835ded72c6dd0287c9e0759c9dba586a6d92a7f04a4e795bbc26")


def test_face_runs_pairing_and_dart_count():
    # The layout build_map documents: each face one run of ids in face
    # order, the annuli by component, then four ids per strip by junction.
    for g in gluing_sweep(2, 4):
        m = build_map(g)
        ids = [d for face in m.faces for d in face]
        assert ids == list(range(m.num_darts)), g
        for face in m.faces:
            walk, d = [], face[0]
            while d not in walk:
                walk.append(d)
                d = m.next_in_face[d]
            assert walk == list(face) and d == face[0], g
        for d, e in enumerate(m.pair):
            assert e != d and (e < 0 or m.pair[e] == d), g

        # the closed count: both sides and two seams per annulus, then strips
        sides = [
            ((1 + (g.junction_after(i) is not None)) * g.plus_rank(i),
             (1 + (g.junction_before(i) is not None)) * g.minus_rank(i))
            for i in g.components()
        ]
        annuli = sum(bottom + top + 2 for bottom, top in sides)
        assert m.num_darts == annuli + 4 * sum(g.node_ranks()), g

        # each glue slot, read off the annulus runs, meets one strip dart
        slots = []
        for i, face, (bottom, top) in zip(g.components(), m.faces, sides):
            if g.junction_after(i) is not None:
                slots += face[0:bottom:2]
            if g.junction_before(i) is not None:
                slots += face[bottom + 2 : bottom + 1 + top : 2]
            seam_r, seam_l = face[bottom], face[-1]
            assert m.pair[seam_r] == seam_l, g
        strips = m.faces[len(sides):]
        glued = sorted(m.pair[q] for face in strips for q in face[0::2])
        assert glued == sorted(slots), g
        assert all(m.pair[q] < 0 for face in strips for q in face[1::2]), g


def test_oracle_on_a_6000_strip_circular_gluing():
    rng = random.Random(2024)
    g = GluingSpec("circular", (6000,), (random_permutation(6000, rng),))
    m = build_map(g)
    assert m.num_darts == 2 * 6000 + 2 * 6000 + 2 + 4 * 6000
    assert m.topology() == predicted_topology(g)
