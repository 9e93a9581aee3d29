"""Twisted complexes, hom-complex cohomology, products, and the modules
cut out by the localization objects.

The three-vertex fixture is the full worked example: two double arrows
with crossed zero composites, the two standard two-term complexes over
it, and every graded dimension and product computed by hand.
"""

from fractions import Fraction

import pytest

from quiverglue.aside import build_aside
from quiverglue.errors import FalsificationError, SpecError
from quiverglue.gluing import GluingSpec
from quiverglue.homology import (
    HomComplex,
    TwistedComplex,
    all_localization_objects,
    euler_characteristic,
    ext_product,
    hom_cohomology,
    is_stop_orthogonal,
    localization_object,
    module_of,
    predicted_module,
    projective,
)
from quiverglue.perms import Permutation, identity, tau
from quiverglue.quiver import GradedQuiver
from test_acceptance import gluing_sweep

ONE = Fraction(1)


def plain(*labels):
    """Vertex parts: one unshifted vertex per label."""
    return [((lab,), 0) for lab in labels]


def double_quiver():
    return GradedQuiver(
        plain(("v", 1), ("v", 2), ("v", 3)),
        [
            (("a",), ("v", 1), ("v", 2), 0),
            (("b",), ("v", 1), ("v", 2), 0),
            (("x",), ("v", 2), ("v", 3), 0),
            (("y",), ("v", 2), ("v", 3), 0),
        ],
        [(("a",), ("y",)), (("b",), ("x",))],
    )


def standard_pair(q):
    m1 = TwistedComplex(
        q, ((("v", 2), 1), (("v", 3), 0)), {(1, 0): [(ONE, (("y",),))]}
    )
    m2 = TwistedComplex(
        q, ((("v", 1), 1), (("v", 2), 0)), {(1, 0): [(ONE, (("b",),))]}
    )
    return m1, m2


def unit_cocycle(h, degree, element):
    idxs = h.degrees[degree]
    vec = [Fraction(0)] * len(idxs)
    vec[idxs.index(h._index[element])] = ONE
    return h.cocycle(vec, degree)


# -- twisted complex validation ----------------------------------------


def test_backward_entries_are_rejected():
    q = double_quiver()
    with pytest.raises(SpecError):
        TwistedComplex(
            q, ((("v", 2), 1), (("v", 3), 0)), {(0, 1): [(ONE, (("y",),))]}
        )


def test_path_must_connect_the_summands():
    q = double_quiver()
    with pytest.raises(SpecError):
        TwistedComplex(
            q, ((("v", 1), 1), (("v", 3), 0)), {(1, 0): [(ONE, (("y",),))]}
        )


def test_entry_degree_must_be_one():
    q = double_quiver()
    # a length-2 path has degree 0, which needs a shift gap of 1
    TwistedComplex(
        q,
        ((("v", 1), 1), (("v", 3), 0)),
        {(1, 0): [(ONE, (("a",), ("x",)))]},
    )
    with pytest.raises(SpecError):
        TwistedComplex(
            q,
            ((("v", 1), 2), (("v", 3), 0)),
            {(1, 0): [(ONE, (("a",), ("x",)))]},
        )


def test_zero_paths_are_rejected():
    q = double_quiver()
    with pytest.raises(SpecError):
        TwistedComplex(
            q,
            ((("v", 1), 1), (("v", 3), 0)),
            {(1, 0): [(ONE, (("a",), ("y",)))]},
        )


def test_delta_squared_is_enforced():
    vertices = plain(("v", 1), ("v", 2), ("v", 3))
    arrows = [(("f",), ("v", 1), ("v", 2), 0), (("g",), ("v", 2), ("v", 3), 0)]
    q = GradedQuiver(vertices, arrows, [])
    with pytest.raises(SpecError):
        TwistedComplex(
            q,
            ((("v", 1), 2), (("v", 2), 1), (("v", 3), 0)),
            {
                (1, 0): [(ONE, (("f",),))],
                (2, 1): [(ONE, (("g",),))],
            },
        )
    # with the composite killed, the same shape is a valid complex
    TwistedComplex(
        GradedQuiver(vertices, arrows, [(("f",), ("g",))]),
        ((("v", 1), 2), (("v", 2), 1), (("v", 3), 0)),
        {
            (1, 0): [(ONE, (("f",),))],
            (2, 1): [(ONE, (("g",),))],
        },
    )


# -- the worked example ------------------------------------------------


def test_worked_example_dimensions():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    assert hom_cohomology(m1, m1) == {0: 1, 1: 1}
    assert hom_cohomology(m2, m2) == {0: 1, 1: 1}
    assert hom_cohomology(m2, m1) == {0: 2, 1: 1}
    assert hom_cohomology(m1, m2) == {1: 1}


def test_worked_example_convention_independence():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    for X in (m1, m2):
        for Y in (m1, m2):
            std = HomComplex(X, Y, "standard")
            flip = HomComplex(X, Y, "flipped")
            assert std.d_squared_vanishes()
            assert flip.d_squared_vanishes()
            assert std.cohomology() == flip.cohomology()


def test_worked_example_euler_cross_check():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    for X in (m1, m2):
        for Y in (m1, m2):
            dims = hom_cohomology(X, Y)
            alt = sum((-1) ** d * n for d, n in dims.items())
            assert euler_characteristic(X, Y) == alt


def test_worked_example_products():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    h21 = HomComplex(m2, m1)
    h12 = HomComplex(m1, m2)
    cls_a = unit_cocycle(h21, 0, (0, 0, (("a",),)))
    cls_x = unit_cocycle(h21, 0, (1, 1, (("x",),)))
    cls_b = unit_cocycle(h12, 1, (0, 1, ()))

    # the two crossed composites die in cohomology
    p = ext_product(cls_a, cls_b)
    assert p.hom.is_coboundary(p)
    p = ext_product(cls_b, cls_x)
    assert p.hom.is_coboundary(p)
    # the other order survives in each endomorphism algebra
    ba = ext_product(cls_b, cls_a)
    assert not ba.hom.is_coboundary(ba)
    assert ba.degree == 1
    xb = ext_product(cls_x, cls_b)
    assert not xb.hom.is_coboundary(xb)
    # and extends to the nonzero triple product
    triple = ext_product(cls_x, ba)
    assert not triple.hom.is_coboundary(triple)
    assert triple.degree == 1


def test_worked_example_identity_laws():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    h21 = HomComplex(m2, m1)
    cls_a = unit_cocycle(h21, 0, (0, 0, (("a",),)))
    id1 = HomComplex(m1, m1).identity_cocycle()
    id2 = HomComplex(m2, m2).identity_cocycle()
    assert ext_product(id1, cls_a).vector == cls_a.vector
    assert ext_product(cls_a, id2).vector == cls_a.vector


def test_worked_example_matches_two_vertex_presentation():
    # the total Ext algebra is 8-dimensional: two idempotents, two
    # degree-0 arrows one way, a degree-1 arrow back, and the three
    # nonzero composites ba, xb, xba
    q = double_quiver()
    m1, m2 = standard_pair(q)
    tables = {
        (1, 1): hom_cohomology(m1, m1),
        (2, 2): hom_cohomology(m2, m2),
        (2, 1): hom_cohomology(m2, m1),
        (1, 2): hom_cohomology(m1, m2),
    }
    assert sum(sum(t.values()) for t in tables.values()) == 8
    by_degree = {}
    for t in tables.values():
        for d, n in t.items():
            by_degree[d] = by_degree.get(d, 0) + n
    assert by_degree == {0: 4, 1: 4}


def test_scalar_against_recognizes_multiples():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    h = HomComplex(m2, m1)
    cls_a = unit_cocycle(h, 0, (0, 0, (("a",),)))
    doubled = h.cocycle([2 * c for c in cls_a.vector], 0)
    assert h.scalar_against(doubled, cls_a) == 2
    cls_x = unit_cocycle(h, 0, (1, 1, (("x",),)))
    with pytest.raises(FalsificationError):
        h.scalar_against(cls_x, cls_a)


def test_cocycle_validation():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    h = HomComplex(m1, m1)
    with pytest.raises(SpecError):
        h.cocycle([ONE], 0)  # wrong length
    # the identity is closed; e.g. the projection to one summand is not
    idxs = h.degrees[0]
    for pos, i in enumerate(idxs):
        si, ti, p = h.basis[i]
        if si == ti == 0 and not p:
            vec = [Fraction(0)] * len(idxs)
            vec[pos] = ONE
            with pytest.raises(SpecError):
                h.cocycle(vec, 0)
            break


def test_ext_product_needs_matching_middle():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    h21 = HomComplex(m2, m1)
    cls_a = unit_cocycle(h21, 0, (0, 0, (("a",),)))
    with pytest.raises(SpecError):
        ext_product(cls_a, cls_a)


# -- projectives and cones ---------------------------------------------


def test_cone_kills_the_source_projective():
    q = GradedQuiver(plain(("v", 1), ("v", 2)), [(("f",), ("v", 1), ("v", 2), 0)], [])
    cone = TwistedComplex(
        q, ((("v", 1), 1), (("v", 2), 0)), {(1, 0): [(ONE, (("f",),))]}
    )
    assert hom_cohomology(projective(q, ("v", 1)), cone) == {}
    assert hom_cohomology(projective(q, ("v", 2)), cone) == {0: 1}
    assert euler_characteristic(projective(q, ("v", 1)), cone) == 0


def test_hom_between_projectives_is_path_space():
    q = double_quiver()
    p1 = projective(q, ("v", 1))
    p3 = projective(q, ("v", 3))
    assert hom_cohomology(p1, p3) == {0: 2}
    assert hom_cohomology(p3, p1) == {}


# -- localization objects ----------------------------------------------

SMOKE_GLUINGS = [
    GluingSpec("linear", (2, 1), ()),
    GluingSpec("linear", (1, 2, 1), (identity(2),)),
    GluingSpec("linear", (1, 2, 1), (tau(2),)),
    GluingSpec("circular", (3,), (Permutation((1, 2, 0)),)),
    GluingSpec("circular", (2, 2), (identity(2), Permutation((1, 0)))),
]


def line_quiver(relations):
    """v1 -x-> v2 -a-> v3 with the given relations."""
    arrows = [(("x",), ("v1",), ("v2",), 0), (("a",), ("v2",), ("v3",), 0)]
    return GradedQuiver(plain(("v1",), ("v2",), ("v3",)), arrows, relations)


def test_rebuilt_quiver_with_a_relation_loses_the_path():
    q = line_quiver([])
    P1, P3 = projective(q, ("v1",)), projective(q, ("v3",))
    assert hom_cohomology(P1, P3) == {0: 1}  # fills the path memo
    killed = line_quiver([(("x",), ("a",))])
    assert killed.path_dims().between(("v1",), ("v3",)) == {}
    assert hom_cohomology(projective(killed, ("v1",)), projective(killed, ("v3",))) == {}
    assert hom_cohomology(P1, P3) == {0: 1}


def test_quiver_takes_no_new_attributes():
    q = build_aside(GluingSpec("linear", (1, 2, 1), (identity(2),)))
    with pytest.raises(AttributeError):
        q.gluing = GluingSpec("linear", (1, 2, 1), (identity(2),))


def test_quiver_relations_are_frozen():
    q = line_quiver([(("x",), ("a",))])
    assert isinstance(q.relations, frozenset)
    with pytest.raises(AttributeError):
        q.relations.discard((("x",), ("a",)))


def test_localization_objects_are_valid_complexes():
    for g in SMOKE_GLUINGS:
        aq = build_aside(g)
        for obj in all_localization_objects(aq):
            assert obj.cx.quiver is aq
            shifts = [n for _, n in obj.cx.summands]
            assert shifts == sorted(shifts, reverse=True)
            h = HomComplex(obj.cx, obj.cx)
            assert h.d_squared_vanishes()


def test_localization_term_counts():
    g = GluingSpec("linear", (1, 2, 1), (identity(2),))
    aq = build_aside(g)
    # free minus side of component 1: no junction feeds it
    assert len(localization_object(aq, "E-", 1, 0).summands) == 2
    # junction 1 feeds the plus side of component 1
    assert len(localization_object(aq, "E+", 1, 0).summands) == 3
    assert len(localization_object(aq, "E-", 2, 0).summands) == 3
    # free plus side of the last component
    assert len(localization_object(aq, "E+", 2, 0).summands) == 2
    with pytest.raises(SpecError, match=r"no position E-\(1,1\).*no arrow x\(1,1\)"):
        localization_object(aq, "E-", 1, 1)
    with pytest.raises(SpecError, match=r"no position E\+\(9,0\)"):
        localization_object(aq, "E+", 9, 0)
    with pytest.raises(SpecError):
        localization_object(aq, "E?", 1, 0)


def test_three_term_object_structure():
    g = GluingSpec("linear", (1, 2, 1), (identity(2),))
    aq = build_aside(g)
    cx = localization_object(aq, "E+", 1, 0)
    labels = [lab for lab, _ in cx.summands]
    shifts = [n for _, n in cx.summands]
    assert shifts == [3, 2, 1]
    assert labels[0][0] == "S"
    assert aq.vertex_id(labels[1]) == aq.vertex_id(("P+", 1, 0))
    assert aq.vertex_id(labels[2]) == aq.vertex_id(("P+", 1, 1))


def test_cones_follow_the_feed_arithmetic():
    # Reference for reading the cones off the quiver: the S summand is
    # the S whose b-arrow lands on P-(i,j), namely S(junction,
    # sigma^-1(r-1-j)), or whose a-arrow lands on P+(i,j), namely S(i,j);
    # objects come per component, E- then E+, positions ascending.
    for g in gluing_sweep(2, 3):
        aq = build_aside(g)
        expected_order = []
        for i in g.components():
            expected_order += [("E-", i, j) for j in range(g.minus_rank(i))]
            expected_order += [("E+", i, j) for j in range(g.plus_rank(i))]
        objs = all_localization_objects(aq)
        assert [(o.kind, o.component, o.position) for o in objs] == expected_order
        for obj in objs:
            i, j = obj.component, obj.position
            if obj.kind == "E-":
                junction = g.junction_before(i)
                if junction is not None:
                    r = g.minus_rank(i)
                    s_vertex = ("S", junction, g.perm(junction).inverse()(r - 1 - j))
            else:
                junction = g.junction_after(i)
                s_vertex = ("S", i, j)
            summands = [lab for lab, _ in obj.cx.summands]
            if junction is None:
                assert len(summands) == 2, (g.to_json(), obj.kind, i, j)
            else:
                assert summands[0] == s_vertex, (g.to_json(), obj.kind, i, j)


def test_modules_match_the_combinatorial_prediction():
    for g in SMOKE_GLUINGS:
        aq = build_aside(g)
        for obj in all_localization_objects(aq):
            computed = module_of(obj.cx)
            predicted = predicted_module(aq, obj.kind, obj.component, obj.position)
            assert computed.degree == -1
            assert computed.same_pattern(predicted)
            computed.validate(aq)
            predicted.validate(aq)


def test_module_support_patterns():
    g = GluingSpec("linear", (1, 2, 1), (identity(2),))
    aq = build_aside(g)

    def support(kind, i, j):
        return module_of(localization_object(aq, kind, i, j)).support

    # generic interior position: the far endpoint plus the class feeding it
    assert support("E+", 1, 0) == {("P+", 1, 1), ("S", 1, 1)}
    assert support("E-", 2, 0) == {("P-", 2, 1), ("S", 1, 0)}
    # final position: the whole opposite chain, plus any class that
    # reaches its end through that chain
    assert support("E+", 1, 1) == {("P-", 1, 0), ("P-", 1, 1), ("S", 1, 0)}
    assert support("E+", 2, 0) == {
        ("P-", 2, 0),
        ("P-", 2, 1),
        ("P-", 2, 2),
    }
    # free side of component 1: the opposite chain is the plus chain
    assert support("E-", 1, 0) == {
        ("P-", 1, 0),
        ("P+", 1, 1),
        ("P-", 1, 1),
    }


def test_stop_orthogonality():
    g = GluingSpec("linear", (1, 2, 1), (identity(2),))
    aq = build_aside(g)
    objs = all_localization_objects(aq)
    # every projective sees some localization object
    for vid in range(aq.num_vertices):
        x = projective(aq, aq.primary_label(vid))
        assert not is_stop_orthogonal(x, objs)
    assert is_stop_orthogonal(projective(aq, ("S", 1, 0)), [])


def test_localization_hom_conventions_agree():
    g = GluingSpec("circular", (3,), (Permutation((1, 2, 0)),))
    aq = build_aside(g)
    objs = all_localization_objects(aq)
    a, b = objs[0].cx, objs[1].cx
    assert hom_cohomology(a, b) == hom_cohomology(a, b, "flipped")
    assert HomComplex(a, b, "flipped").d_squared_vanishes()
