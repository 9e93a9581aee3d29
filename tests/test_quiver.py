"""Path-space dimensions, the isomorphism checker, and the searcher."""

import pytest

from quiverglue.errors import QuiverError
from quiverglue.quiver import (
    GradedQuiver,
    find_isomorphism,
    label_str,
    map_equals,
)


def plain(*labels):
    """Vertex parts: one unshifted vertex per label."""
    return [((lab,), 0) for lab in labels]


def chain_quiver(n, relations=()):
    """Linear A_n quiver 1 -> 2 -> ... -> n with optional zero composites
    given as positions i, meaning arrow i+1 after arrow i dies."""
    return GradedQuiver(
        plain(*(("v", v) for v in range(1, n + 1))),
        [(("f", v), ("v", v), ("v", v + 1), 0) for v in range(1, n)],
        [(("f", i), ("f", i + 1)) for i in relations],
    )


DOUBLE_ARROWS = [
    (("a",), ("v", 1), ("v", 2), 0),
    (("b",), ("v", 1), ("v", 2), 0),
    (("x",), ("v", 2), ("v", 3), 0),
    (("y",), ("v", 2), ("v", 3), 0),
]


def three_vertex_double(relations=((("a",), ("y",)), (("b",), ("x",)))):
    return GradedQuiver(plain(("v", 1), ("v", 2), ("v", 3)), DOUBLE_ARROWS, relations)


def test_label_str():
    assert label_str(("P-", 1, 0)) == "P-(1,0)"
    assert label_str(("S",)) == "S"


def test_construction_guards():
    vertices = [((("v", 1), ("alias", 1)), 0), ((("v", 2),), 0)]
    f = (("f",), ("alias", 1), ("v", 2), 0)
    q = GradedQuiver(vertices, [f], [])
    assert q.arrow(("f",)).source == q.vertex_id(("v", 1))
    with pytest.raises(QuiverError, match="at least one label"):
        GradedQuiver([((), 0)], [], [])
    with pytest.raises(QuiverError, match="duplicate vertex"):
        GradedQuiver(vertices + plain(("v", 1)), [], [])
    with pytest.raises(QuiverError, match="unknown vertex"):
        GradedQuiver(vertices, [(("f",), ("v", 1), ("missing",), 0)], [])
    with pytest.raises(QuiverError, match="duplicate arrow"):
        GradedQuiver(vertices, [f, (("f",), ("v", 1), ("v", 2), 0)], [])
    with pytest.raises(QuiverError, match="unknown arrow"):
        GradedQuiver(vertices, [f], [(("f",), ("g",))])
    with pytest.raises(QuiverError, match="not composable"):
        GradedQuiver(vertices, [f], [(("f",), ("f",))])  # 2 != 1


def test_construction_reads_each_part_once():
    # generators are consumed exactly once: a relation checked from a
    # generator is still there afterwards
    q = GradedQuiver(
        (v for v in plain(("v", 1), ("v", 2), ("v", 3))),
        (a for a in DOUBLE_ARROWS),
        (r for r in [(("a",), ("y",))]),
    )
    assert q.relations == frozenset({(("a",), ("y",))})
    assert q.num_vertices == 3 and len(q.arrows) == 4
    assert q.paths_between(("v", 1), ("v", 3)) == (
        (("a",), ("x",)), (("b",), ("x",)), (("b",), ("y",))
    )


def test_path_dims_chain():
    table = chain_quiver(3).path_dims()
    assert table.dim(("v", 1), ("v", 2)) == 1
    assert table.dim(("v", 1), ("v", 3)) == 1
    assert table.dim(("v", 1), ("v", 1)) == 1  # identity path
    assert table.dim(("v", 3), ("v", 1)) == 0
    # the zero composite removes exactly the long path
    rel = chain_quiver(3, relations=(1,)).path_dims()
    assert rel.dim(("v", 1), ("v", 3)) == 0
    assert rel.dim(("v", 1), ("v", 2)) == 1


def test_path_dims_double_arrows_with_relations():
    table = three_vertex_double().path_dims()
    # four length-2 composites, two killed by relations
    assert table.dim(("v", 1), ("v", 3)) == 2
    assert sorted(table.paths[(("v", 1), ("v", 3), 0)]) == [
        (("a",), ("x",)),
        (("b",), ("y",)),
    ]


def test_path_dims_matches_matrix_powers():
    # without relations the degree-0 dims are adjacency matrix powers
    free = three_vertex_double(relations=())
    table = free.path_dims()
    n = 3
    adj = [[0] * n for _ in range(n)]
    for a in free.arrows:
        adj[a.source][a.target] += 1
    total = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    power = total
    for _ in range(n):
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        total = [
            [total[i][j] + power[i][j] for j in range(n)] for i in range(n)
        ]
    for i in range(n):
        for j in range(n):
            assert table.dim(("v", i + 1), ("v", j + 1)) == total[i][j]


def test_relation_deletion_is_monotone():
    full = three_vertex_double()
    full_dims = full.path_dims().dims
    for dropped in full.relations:
        q = three_vertex_double(relations=full.relations - {dropped})
        bigger = q.path_dims().dims
        for key, count in full_dims.items():
            assert bigger.get(key, 0) >= count


def test_path_dims_rejects_cycles():
    q = GradedQuiver(
        plain(("v", 1), ("v", 2)),
        [(("f",), ("v", 1), ("v", 2), 0), (("g",), ("v", 2), ("v", 1), 0)],
        [],
    )
    assert not q.is_acyclic()
    with pytest.raises(QuiverError):
        q.path_dims()


def test_paths_between_respects_relations():
    q = three_vertex_double()
    assert sorted(q.paths_between(("v", 1), ("v", 3))) == [
        (("a",), ("x",)),
        (("b",), ("y",)),
    ]
    assert q.paths_between(("v", 3), ("v", 1)) == ()
    assert q.path_is_zero((("a",), ("y",)))
    assert not q.path_is_zero((("a",), ("x",)))


def test_arrow_degrees_show_up_in_path_degrees():
    q = GradedQuiver(
        plain(("v", 1), ("v", 2), ("v", 3)),
        [(("f",), ("v", 1), ("v", 2), 1), (("g",), ("v", 2), ("v", 3), 2)],
        [],
    )
    table = q.path_dims()
    assert table.between(("v", 1), ("v", 3)) == {3: 1}
    assert table.dim(("v", 1), ("v", 2), degree=1) == 1
    assert table.dim(("v", 1), ("v", 2), degree=0) == 0


def test_json_round_trip_preserves_everything():
    q = three_vertex_double()
    clone = GradedQuiver.from_json_obj(q.to_json_obj())
    assert clone.to_json_obj() == q.to_json_obj()
    report = map_equals(
        q, clone, {q.primary_label(v): q.primary_label(v) for v in range(3)}
    )
    assert report.ok


def test_to_dot_is_deterministic():
    assert three_vertex_double().to_dot() == three_vertex_double().to_dot()
    assert '"v(1)" -> "v(2)"' in three_vertex_double().to_dot()


def test_map_equals_identity_and_perturbation():
    q = three_vertex_double()
    ident = {("v", v): ("v", v) for v in (1, 2, 3)}
    assert map_equals(q, q, ident).ok

    # retarget one arrow: the arrow multisets stop matching
    arrows = [(("b",), ("v", 1), ("v", 3), 0) if a[0] == ("b",) else a
              for a in DOUBLE_ARROWS]
    crooked = GradedQuiver(plain(("v", 1), ("v", 2), ("v", 3)), arrows,
                           [(("a",), ("y",))])
    report = map_equals(q, crooked, ident)
    assert not report.ok
    assert any("arrows" in d for d in report.diffs)


def test_map_equals_relation_mismatch_is_reported():
    q = three_vertex_double()
    stripped = three_vertex_double(
        relations=((("b",), ("x",)), (("a",), ("x",)))
    )
    ident = {("v", v): ("v", v) for v in (1, 2, 3)}
    report = map_equals(q, stripped, ident)
    assert not report.ok
    assert report.diffs


def test_map_equals_needs_a_bijection():
    q = chain_quiver(2)
    report = map_equals(q, q, {("v", 1): ("v", 1)})
    assert not report.ok
    report = map_equals(q, q, {("v", 1): ("v", 1), ("v", 2): ("v", 1)})
    assert not report.ok


def test_map_equals_finds_the_right_arrow_matching():
    # swapping parallel arrow names still matches: x pairs with y
    q1 = three_vertex_double()
    q2 = three_vertex_double(relations=((("a",), ("x",)), (("b",), ("y",))))
    ident = {("v", v): ("v", v) for v in (1, 2, 3)}
    assert map_equals(q1, q2, ident).ok


def test_find_isomorphism_on_relabeled_quiver():
    q1 = three_vertex_double()
    q2 = GradedQuiver(
        plain(("w", "c"), ("w", "a"), ("w", "b")),  # scrambled order, new names
        [
            (("p",), ("w", "a"), ("w", "b"), 0),
            (("q",), ("w", "a"), ("w", "b"), 0),
            (("r",), ("w", "b"), ("w", "c"), 0),
            (("s",), ("w", "b"), ("w", "c"), 0),
        ],
        [(("p",), ("r",)), (("q",), ("s",))],
    )
    vmap = find_isomorphism(q1, q2)
    assert vmap is not None
    assert map_equals(q1, q2, vmap).ok
    assert vmap[("v", 2)] == ("w", "b")  # the middle vertex is forced


def test_reversed_chain_is_isomorphic_by_relabeling():
    q1 = chain_quiver(3)
    q2 = GradedQuiver(
        plain(("v", 1), ("v", 2), ("v", 3)),
        [(("f", 1), ("v", 3), ("v", 2), 0), (("f", 2), ("v", 2), ("v", 1), 0)],
        [],
    )
    vmap = find_isomorphism(q1, q2)
    assert vmap is not None
    assert vmap[("v", 1)] == ("v", 3)


def test_find_isomorphism_honest_negatives():
    # different relation sets on identical underlying graphs
    assert find_isomorphism(chain_quiver(3), chain_quiver(3, (1,))) is None
    # different arrow multiplicities
    q = chain_quiver(3)
    doubled = GradedQuiver(
        plain(("v", 1), ("v", 2), ("v", 3)),
        [
            (("f", 1), ("v", 1), ("v", 2), 0),
            (("f", 2), ("v", 2), ("v", 3), 0),
            (("extra",), ("v", 1), ("v", 2), 0),
        ],
        [],
    )
    assert find_isomorphism(q, doubled) is None
    # both relations on the same composite vs one on each
    q1 = three_vertex_double()
    q2 = three_vertex_double(relations=((("a",), ("y",)), (("a",), ("x",))))
    assert find_isomorphism(q1, q2) is None


def test_find_isomorphism_respects_degrees():
    vertices = plain(("v", 1), ("v", 2))
    q1 = GradedQuiver(vertices, [(("f",), ("v", 1), ("v", 2), 1)], [])
    q2 = GradedQuiver(vertices, [(("f",), ("v", 1), ("v", 2), 0)], [])
    assert find_isomorphism(q1, q2) is None
