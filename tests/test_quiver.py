"""Path-space dimensions, the isomorphism checker, and the searcher."""

import ast
import copy
import gc
import hashlib
import json
import math
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest
from conftest import arrow_rows, relation_names

import quiverglue
from quiverglue import quiver
from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.errors import QuiverError
from quiverglue.gluing import GluingSpec, StackyCurveSpec
from quiverglue.homology import hom_cohomology, localization_object, module_of
from quiverglue.mirror import twisted_gluing
from quiverglue.perms import Permutation, random_permutation
from quiverglue.quiver import (
    GradedQuiver,
    find_isomorphism,
    label_str,
    map_equals,
)
from quiverglue.sweeps import curve_sweep, gluing_sweep


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
    assert q.arrow_ends(q.arrow_index(("f",)))[0] == q.vertex_id(("v", 1))
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
    assert relation_names(q) == frozenset({(("a",), ("y",))})
    assert q.num_vertices == 3 and len(q.arrows) == 4
    assert tuple(map(q.path_names, q.paths_between(("v", 1), ("v", 3)))) == (
        (("a",), ("x",)), (("b",), ("x",)), (("b",), ("y",))
    )


# Aliases, nonzero shifts and degrees, a vertex with no arrows, and two
# parallel arrows.
VIEW_ARROWS = [
    (("c", 1), ("v", 2), ("u",), -3),
    (("a",), ("w", 1, 0), ("v", 2), 1),
    (("b", 2), ("v", 1), ("u",), 0),
    (("d",), ("u",), ("v", 1), 2),
    (("e",), ("v", 1), ("u",), 0),
]


def view_quiver():
    return GradedQuiver(
        [((("v", 1), ("w", 1, 0)), 0), ((("v", 2),), -2), ((("u",),), 5),
         ((("lone",),), 0)],
        VIEW_ARROWS,
        [(("a",), ("c", 1)), (("c", 1), ("d",)), (("d",), ("e",)),
         (("d",), ("b", 2))],
    )


def test_arrow_views_keep_insertion_order():
    q = view_quiver()
    expected = [
        (name, q.vertex_id(s), q.vertex_id(t), d) for name, s, t, d in VIEW_ARROWS
    ]
    assert q.arrows == range(len(VIEW_ARROWS))
    assert arrow_rows(q) == expected
    for v in range(q.num_vertices):
        assert q.in_arrows(v) == tuple(i for i, a in enumerate(expected) if a[2] == v)
    for i, (name, s, t, _) in enumerate(expected):
        assert q.arrow_index(name) == i
        assert (q.arrow_name(i), q.arrow_ends(i)) == (name, (s, t))
    assert relation_names(q) == {
        (("a",), ("c", 1)), (("c", 1), ("d",)), (("d",), ("e",)), (("d",), ("b", 2))
    }
    with pytest.raises(QuiverError, match="unknown arrow"):
        q.arrow_index(("zz",))


RETIRED_VIEWS = ("arrow", "arrows_from", "arrows_into", "relations", "shift_of")
SRC = Path(__file__).resolve().parent.parent / "src" / "quiverglue"


def test_name_level_views_are_retired():
    for name in RETIRED_VIEWS:
        assert not hasattr(GradedQuiver, name), name
        assert not hasattr(view_quiver(), name), name
    assert not hasattr(quiver, "Arrow")
    assert "Arrow" not in quiverglue.__all__


def _arrow_view_references(tree):
    """Each name, attribute, import or string ``arrows`` or ``Arrow`` in
    a module's syntax tree, as (node type, line)."""
    names = {"arrows", "Arrow"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.alias) and node.name in names
                or isinstance(node, ast.Constant) and node.value in names
                or isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in names):
            found.append((type(node).__name__, node.lineno))
    return found


def test_arrow_view_is_read_in_quiver_py_alone():
    # the arrows range stays for callers outside the package, which
    # reads its arrows by index alone: past quiver.py, nothing names it
    users = {}
    for path in sorted(SRC.glob("*.py")):
        found = _arrow_view_references(ast.parse(path.read_text()))
        if found:
            users[path.name] = found
    assert set(users) == {"quiver.py"}, users


def test_quivers_and_arrows_are_read_only():
    q = view_quiver()
    paths = q.paths_into(("u",))
    rows = arrow_rows(q)
    for name in ("arrows", "vertex_labels", "_rel", "_paths", "junk"):
        with pytest.raises(AttributeError):
            setattr(q, name, frozenset())
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert q.arrows == range(5)
    assert arrow_rows(q) == rows
    assert rows[0] == (("c", 1), 1, 2, -3)
    assert q.paths_into(("u",)) is paths


def test_callers_cannot_change_the_path_memo():
    # paths_into hands out its memo as a read-only mapping: clearing the
    # paths into E's summands once emptied E's module and Hom table on
    # every later call on the quiver
    q = build_aside(GluingSpec("linear", (1, 2, 1), (Permutation((1, 0)),)))
    E = localization_object(q, "E-", 1, 0)
    dims, homs = module_of(E).dims, hom_cohomology(E, E)
    assert (len(dims), homs) == (3, {0: 1, 1: 1})
    for lab, _ in E.summands:
        paths = q.paths_into(lab)
        with pytest.raises(AttributeError):
            paths.clear()
        with pytest.raises(TypeError):
            paths[0] = ()
    assert (module_of(E).dims, hom_cohomology(E, E)) == (dims, homs)


def copy_cases():
    """(quiver, a vertex label, the identity vertex map) for a quiver from
    the public constructor and for builders' quivers, each built fresh:
    a builder's quiver has read none of its names yet."""
    g = GluingSpec("circular", (3, 2), (Permutation((2, 0, 1)), Permutation((1, 0))))
    c = StackyCurveSpec("ring", (3, 2), (1, 1))
    for build, label in ((view_quiver, ("u",)), (lambda: build_aside(g), ("P-", 1, 2)),
                         (lambda: build_bside(c, {2: (1, -2)}), ("P", 2, 1, -1))):
        q = build()
        yield q, label, {labs[0]: labs[0] for labs in build().vertex_labels}


def test_quivers_copy_and_pickle():
    # before the arrow lists and names are first read, after a walk has
    # read only the arrow lists, and after the reports, a path memo and a
    # lookup have read them
    for state in "fresh", "walked", "reported":
        for q, label, identity in copy_cases():
            if state == "walked":
                q.in_arrows(0)
            elif state == "reported":
                q.to_text()
                q.paths_into(label)
            twins = copy.deepcopy(q), pickle.loads(pickle.dumps(q))
            unread = state != "reported" and q._numbering is not None
            assert [t._labels is None for t in (q, *twins)] == [unread] * 3
            # both arrow lists or neither, in the quiver and in each copy
            assert [t._adjacency is None for t in (q, *twins)] == [state == "fresh"] * 3
            for twin in twins:
                assert twin._out == q._out and twin._in == q._in
                assert twin.num_vertices == q.num_vertices
                assert twin.is_acyclic() == q.is_acyclic()
                assert twin._paths == {}  # a copy leaves the memo, a cache, behind
                assert twin.to_text() == q.to_text() and twin.to_dot() == q.to_dot()
                assert twin.to_json_obj() == q.to_json_obj()
                assert twin.arrows == q.arrows == range(q.num_arrows)
                assert arrow_rows(twin) == arrow_rows(q)
                assert relation_names(twin) == relation_names(q)
                assert twin.paths_into(label) == q.paths_into(label)
                assert map_equals(twin, q, identity) and map_equals(q, twin, identity)
                with pytest.raises(AttributeError):
                    twin._rel = frozenset()


def test_aside_quiver_memory_on_a_long_ring():
    # The 6,000-strip ring's generator quiver: 18,000 vertices, 24,000
    # arrows and 12,000 relations.  The builder fills only the int
    # arrays and makes no label, name or lookup dict, so it may retain
    # at most 7 MiB and peak at 9 MiB while it builds.
    g = twisted_gluing(StackyCurveSpec("ring", (6000,), (1,)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        q = build_aside(g)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(q._src) == 4 * 6000
    assert (retained - base) / 2**20 <= 7
    assert (peak - base) / 2**20 <= 9


# sha256 of the text, json and dot reports of both quivers (aside only
# for the gluings), and of every blind witness, over gluing_sweep(2, 3)
# and every eighth curve of curve_sweep(3, 5); recorded while each arrow
# was stored as an object of its own.
QUIVER_DIGESTS = {
    "text": "44c56217988f9b3056fc3e1c427655bba7d18a915b650d3fd12fd3ea6df2a1d8",
    "json": "9b1f36b4351168cea476110fbaeda16d3ca32bd4658290c48c501fe70f2583ed",
    "dot": "8e69db75e8f46c710bdfd275f6eee0d0b048c30baae680e0b5056f06513b0352",
    "witness": "48f8b3df6e0cd0ecd7ceb70f483ed8ba55344e3d1284e49343f21961cbcf5c15",
}


def test_quiver_reports_and_witnesses_are_pinned():
    pairs = [(build_bside(c), build_aside(twisted_gluing(c)))
             for c in curve_sweep(3, 5)[::8]]
    quivers = [build_aside(g) for g in gluing_sweep(2, 3)]
    quivers += [q for pair in pairs for q in pair]
    reports = {
        "text": GradedQuiver.to_text,
        "json": lambda q: json.dumps(q.to_json_obj()),
        "dot": GradedQuiver.to_dot,
    }
    digests = {}
    for key, report in reports.items():
        h = hashlib.sha256()
        for q in quivers:
            h.update(report(q).encode() + b"\n")
        digests[key] = h.hexdigest()
    h = hashlib.sha256()
    for bq, aq in pairs:
        witness = find_isomorphism(bq, aq)
        h.update(repr(None if witness is None else list(witness.items())).encode() + b"\n")
    digests["witness"] = h.hexdigest()
    assert len(quivers) == 180 + 2 * 486
    assert digests == QUIVER_DIGESTS


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
        s, t = free.arrow_ends(a)
        adj[s][t] += 1
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
    for dropped in relation_names(full):
        q = three_vertex_double(relations=relation_names(full) - {dropped})
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


def test_path_dims_takes_a_cycle_that_relations_cut():
    # u <-> v with both composites zero has a cycle but five paths: the
    # two empty ones and the two arrows; path_dims answers like
    # paths_between, and only infinitely many paths are refused
    f, g = ("f",), ("g",)
    u, v = ("v", 1), ("v", 2)
    arrows = [(f, u, v, 0), (g, v, u, 1)]
    q = GradedQuiver(plain(u, v), arrows, [(f, g), (g, f)])
    assert not q.is_acyclic()
    table = q.path_dims()
    assert table.paths == {(u, u, 0): [()], (v, u, 1): [(g,)],
                           (u, v, 0): [(f,)], (v, v, 0): [()]}
    for s in u, v:
        for t in u, v:
            paths = [p for (s2, t2, _), ps in table.paths.items()
                     if (s2, t2) == (s, t) for p in ps]
            assert paths == list(map(q.path_names, q.paths_between(s, t)))
    with pytest.raises(QuiverError, match="^path space is infinite$"):
        GradedQuiver(plain(u, v), arrows, []).path_dims()


def test_paths_between_respects_relations():
    q = three_vertex_double()
    assert sorted(map(q.path_names, q.paths_between(("v", 1), ("v", 3)))) == [
        (("a",), ("x",)),
        (("b",), ("y",)),
    ]
    assert q.paths_between(("v", 3), ("v", 1)) == ()
    a, x, y = map(q.arrow_index, [("a",), ("x",), ("y",)])
    assert q.is_relation(a, y)
    assert not q.is_relation(a, x)


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


def test_json_round_trip_reads_nested_labels_as_tuples():
    # JSON has no tuples, so a label or name holding one writes it as a
    # list; from_json_obj reads every list inside it back as a tuple
    n, m, k = ("n", (1, 2)), ("m", ((3,), ()), "x"), ("k",)
    q = GradedQuiver(
        [((n,), 0), ((m, ("alias", ((),))), 1), ((k,), -1)],
        [(("a", (1, (2,))), n, m, 0), (("b", ()), m, k, 1)],
        [(("a", (1, (2,))), ("b", ()))],
    )
    clone = GradedQuiver.from_json_obj(q.to_json_obj())
    assert clone.vertex_labels == q.vertex_labels
    assert [clone.arrow_name(a) for a in clone.arrows] == [("a", (1, (2,))), ("b", ())]
    assert relation_names(clone) == relation_names(q)
    assert clone.to_json() == q.to_json()
    assert map_equals(q, clone, {lab: lab for lab in (n, m, k)}).ok


def json_reference(q):
    """The JSON object of q, built from the index API alone: labels and
    shifts by vertex id, arrow rows in arrow order, and the relations
    sorted by their arrows' names."""
    return {
        "vertices": [{"labels": [list(l) for l in labs], "shift": shift}
                     for labs, shift in zip(q.vertex_labels, q.vertex_shifts)],
        "arrows": [{"name": list(name), "source": list(s), "target": list(t),
                    "degree": degree}
                   for name, s, t, degree in arrow_rows(q, labels=True)],
        "relations": [[list(f), list(g)] for f, g in sorted(relation_names(q))],
    }


def seeded_256_strip_quivers():
    """The aside quiver of a seeded 256-strip circular gluing and the
    bside quiver of a seeded 256-strip ring."""
    rng = random.Random(2030)
    ranks = (86, 85, 85)
    perms = tuple(random_permutation(r, rng) for r in ranks)
    twists = tuple(rng.choice([k for k in range(r) if math.gcd(k, r) == 1])
                   for r in ranks)
    return [build_aside(GluingSpec("circular", ranks, perms)),
            build_bside(StackyCurveSpec("ring", ranks, twists))]


def odd_atom_quiver(nested=False):
    """A raw quiver whose labels hold a non-ASCII string, a quote, a
    newline, True, None, a float and an empty label; with ``nested``,
    also a tuple inside a label."""
    odd = ("x", True, None, 1.5)
    deep = ("n", (1, ("a", 2.5)), ()) if nested else ("n",)
    return GradedQuiver(
        [((("é", 'q"uo\nte', ""),), 0), ((odd,), 3), (((),), -1),
         ((deep, ("tab\t", -7)), 0)],
        [(("é",), ("é", 'q"uo\nte', ""), odd, 0), ((), odd, (), -4),
         (("z", None), (), deep, 2)],
        [(("é",), ()), ((), ("z", None))],
    )


def test_to_json_matches_a_reference_built_from_the_index_api():
    quivers = [build_aside(g) for g in gluing_sweep(2, 3)]
    quivers += [build_bside(c) for c in curve_sweep(2, 4)]
    quivers += seeded_256_strip_quivers()
    quivers += [odd_atom_quiver(), GradedQuiver([], [], []), three_vertex_double()]
    for q in quivers + [odd_atom_quiver(nested=True)]:
        assert q.to_json() == json.dumps(json_reference(q), indent=2)
    # JSON has no tuples, so a label with a tuple inside reads back with
    # a list there, which cannot name a vertex: it is left out here.
    for q in quivers:
        assert GradedQuiver.from_json_obj(q.to_json_obj()).to_json() == q.to_json()


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
