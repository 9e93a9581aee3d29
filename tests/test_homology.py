"""Twisted complexes, hom-complex cohomology, products, and the modules
cut out by the localization objects.

The three-vertex fixture is the full worked example: two double arrows
with crossed zero composites, the two standard two-term complexes over
it, and every graded dimension and product computed by hand.
"""

import copy
import hashlib
import json
import pickle
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from quiverglue import cli, homology
from quiverglue.aside import build_aside
from quiverglue.errors import FalsificationError, QuiverError, SpecError
from quiverglue.gluing import GluingSpec
from quiverglue.linalg import kernel_basis, rank, solve
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
from quiverglue.sweeps import gluing_sweep
from conftest import arrow_rows, count_hom_complexes, relation_names
from test_paths import walk_out

DATA = Path(__file__).resolve().parent / "data"
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
    """The cocycle of one basis element (source summand, target summand,
    path), its path given in arrow names."""
    si, ti, names = element
    path = tuple(map(h.quiver.arrow_index, names))
    idxs = h.degrees[degree]
    vec = [Fraction(0)] * len(idxs)
    vec[idxs.index(h._index[si, ti, path])] = ONE
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


@pytest.mark.parametrize(
    "summands, path, error, message",
    [
        ((("v", 2), 1), (("zz",),), QuiverError, "unknown arrow zz"),
        ((("v", 2), 1), (("a",),), SpecError, "path breaks at ('a',)"),
        ((("v", 1), 1), (("a",),), SpecError,
         "entry 1<-0: path does not connect"),
        ((("v", 1), 1), (("a",), ("y",)), SpecError,
         "entry 1<-0: path is zero in the algebra"),
        ((("v", 1), 0), (("a",), ("x",)), SpecError,
         "entry 1<-0: path degree 0 != 1"),
    ],
    ids=["unknown_arrow", "breaks", "does_not_connect", "zero", "degree"],
)
def test_path_entries_are_checked(summands, path, error, message):
    # each entry path from the first summand into (v3, 0), in arrow names
    with pytest.raises(error) as info:
        TwistedComplex(
            double_quiver(), (summands, (("v", 3), 0)), {(1, 0): [(ONE, path)]}
        )
    assert type(info.value) is error and str(info.value) == message


def test_delta_squared_is_enforced():
    vertices = plain(("v", 1), ("v", 2), ("v", 3))
    arrows = [(("f",), ("v", 1), ("v", 2), 0), (("g",), ("v", 2), ("v", 3), 0)]
    q = GradedQuiver(vertices, arrows, [])
    with pytest.raises(SpecError, match="square to zero at 2<-0"):
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
    # with g f and h g both nonzero, the smallest source index is named
    names = [("v", k) for k in range(4)]
    q = GradedQuiver(
        plain(*names),
        [((a,), s, t, 0) for a, s, t in zip("fgh", names, names[1:])],
        [],
    )
    with pytest.raises(SpecError, match="square to zero at 2<-0$"):
        TwistedComplex(
            q,
            tuple((lab, 3 - k) for k, lab in enumerate(names)),
            {(k + 1, k): [(ONE, ((a,),))] for k, a in enumerate("fgh")},
        )


def test_delta_squared_check_walks_entry_pairs():
    # with no differential there is nothing to compose; summing over
    # every summand triple took about 1.3e9 steps at 2,000 summands
    q = GradedQuiver(plain(("v", 1)), [], [])
    start = time.process_time()
    F = TwistedComplex(q, ((("v", 1), 0),) * 2000)
    assert time.process_time() - start < 0.5
    assert len(F.summands) == 2000


@pytest.mark.parametrize("shift", [1.5, True, "2"], ids=["float", "bool", "str"])
def test_shifts_must_be_ints(shift):
    q = double_quiver()
    with pytest.raises(SpecError, match=r"summand 0: shift .* is not an integer"):
        TwistedComplex(
            q, ((("v", 2), shift), (("v", 3), 0)), {(1, 0): [(ONE, (("y",),))]}
        )


@pytest.mark.parametrize("coeff", [0.5, True, "1"], ids=["float", "bool", "str"])
def test_coefficients_must_be_ints_or_fractions(coeff):
    q = double_quiver()
    with pytest.raises(SpecError, match=r"entry 1<-0: coefficient .* is not an"):
        TwistedComplex(
            q, ((("v", 2), 1), (("v", 3), 0)), {(1, 0): [(coeff, (("y",),))]}
        )


@pytest.mark.parametrize(
    "key", [(1.0, 0), (True, 0), ("1", 0)], ids=["float", "bool", "str"]
)
def test_differential_indices_must_be_ints(key):
    q = double_quiver()
    with pytest.raises(SpecError, match=r"indices are not integers"):
        TwistedComplex(q, ((("v", 2), 1), (("v", 3), 0)), {key: [(ONE, (("y",),))]})


def test_float_coefficients_cannot_reach_the_exact_arithmetic():
    # v1 ⇉ v2 ⇉ v3 without relations; float halves in these cones would
    # give hom_cohomology {0: -1}, a negative dimension
    arrows = [
        (("a",), ("v1",), ("v2",), 0),
        (("b",), ("v1",), ("v2",), 0),
        (("c",), ("v2",), ("v3",), 0),
        (("d",), ("v2",), ("v3",), 0),
    ]
    q = GradedQuiver(plain(("v1",), ("v2",), ("v3",)), arrows, [])

    def cones(half):
        X = TwistedComplex(
            q,
            ((("v1",), 1), (("v2",), 0)),
            {(1, 0): [(half, (("a",),)), (half, (("b",),))]},
        )
        Y = TwistedComplex(
            q,
            ((("v2",), 1), (("v3",), 0)),
            {(1, 0): [(half, (("c",),)), (3, (("d",),))]},
        )
        return X, Y

    assert hom_cohomology(*cones(Fraction(1, 2))) == {1: 1}
    with pytest.raises(SpecError, match="coefficient 0.5"):
        cones(0.5)


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


def test_scalar_against_a_zero_generator_is_zero():
    # A zero class on the zero line: solve sets the generator's free
    # column to 0 where the degree has basis elements, and a degree with
    # none gives the same answer.
    q = double_quiver()
    m1, m2 = standard_pair(q)
    h = HomComplex(m2, m1)
    assert h.degrees[0] and 5 not in h.degrees
    for degree in 0, 5:
        zero = h.cocycle([0] * len(h.degrees.get(degree, [])), degree)
        scalar = h.scalar_against(zero, zero)
        assert scalar == 0 and type(scalar) is Fraction


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


def test_hom_complex_refusals():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    with pytest.raises(SpecError, match="^complexes live over different quivers$"):
        HomComplex(m1, standard_pair(double_quiver())[0])
    with pytest.raises(SpecError, match="^unknown sign convention 'sideways'$"):
        HomComplex(m1, m1, "sideways")
    with pytest.raises(SpecError, match="^identity lives in an endomorphism complex$"):
        HomComplex(m1, m2).identity_cocycle()
    h = HomComplex(m2, m1)
    cls_a = unit_cocycle(h, 0, (0, 0, (("a",),)))
    with pytest.raises(SpecError, match="^degree mismatch$"):
        h.scalar_against(h.cocycle([0] * len(h.degrees[1]), 1), cls_a)


def test_d_squared_check_sees_a_broken_complex(monkeypatch):
    # v1 -a-> v2 -b-> v3 with no relation: the chain a, b squares to the
    # nonzero path ab, which the complex check would refuse
    q = GradedQuiver(plain(("v1",), ("v2",), ("v3",)),
                     [(("a",), ("v1",), ("v2",), 0), (("b",), ("v2",), ("v3",), 0)], [])
    with monkeypatch.context() as m:
        m.setattr(TwistedComplex, "_check_delta_squared", lambda self: None)
        X = TwistedComplex(q, ((("v1",), 2), (("v2",), 1), (("v3",), 0)),
                           {(1, 0): [(1, (("a",),))], (2, 1): [(1, (("b",),))]})
    assert not HomComplex(X, X).d_squared_vanishes()
    m1, _ = standard_pair(double_quiver())
    assert HomComplex(m1, m1).d_squared_vanishes()


def test_ext_product_refuses_a_product_off_its_degree(monkeypatch):
    # a path grading that drifts by one per arrow moves the product of
    # b and a out of the degree the two factors add up to
    q = double_quiver()
    m1, m2 = standard_pair(q)
    cls_a = unit_cocycle(HomComplex(m2, m1), 0, (0, 0, (("a",),)))
    cls_b = unit_cocycle(HomComplex(m1, m2), 1, (0, 1, ()))
    degree = GradedQuiver.path_degree
    monkeypatch.setattr(GradedQuiver, "path_degree", lambda q, p: degree(q, p) + len(p))
    with pytest.raises(FalsificationError, match="^product left its expected degree$"):
        ext_product(cls_b, cls_a)


def test_ext_product_needs_matching_middle():
    q = double_quiver()
    m1, m2 = standard_pair(q)
    h21 = HomComplex(m2, m1)
    cls_a = unit_cocycle(h21, 0, (0, 0, (("a",),)))
    with pytest.raises(SpecError):
        ext_product(cls_a, cls_a)


def test_ext_product_drops_composites_a_relation_kills():
    # v1 =a,b=> v2 =x,y=> v3 with y o a = x o b = 0: Hom(P(v1), P(v3))
    # has the basis ax, by, so y after a is zero and y after b is by
    q = GradedQuiver.from_json_obj(
        json.loads((DATA / "three_vertex_quiver.json").read_text()))
    p1, p2, p3 = (projective(q, ("v", v)) for v in (1, 2, 3))
    f = unit_cocycle(HomComplex(p2, p3), 0, (0, 0, (("y",),)))
    products = {}
    for name in "ab":
        g = unit_cocycle(HomComplex(p1, p2), 0, (0, 0, ((name,),)))
        fg = ext_product(f, g)
        assert fg.degree == 0
        assert [q.path_names(p) for _, _, p in fg.hom.basis] == [
            (("a",), ("x",)), (("b",), ("y",))]
        products[name] = fg.vector
    assert products == {"a": (0, 0), "b": (0, 1)}


def first_kernel_cocycle(h, degree):
    return h.cocycle(kernel_basis(h.matrix(degree), len(h.degrees[degree]))[0], degree)


def test_ext_product_refuses_mixed_sign_conventions():
    # E-(1,0) on the linear gluing of ranks (1, 1): the two conventions
    # give different degree-0 cocycles, so a product taken in one
    # convention of a factor made in the other means nothing
    E = localization_object(build_aside(GluingSpec("linear", (1, 1), ())), "E-", 1, 0)
    homs = {conv: HomComplex(E, E, conv) for conv in ("standard", "flipped")}
    for fd in (0, 1):
        for gd in (0, 1):
            for fc, gc in (("flipped", "standard"), ("standard", "flipped")):
                f = first_kernel_cocycle(homs[fc], fd)
                g = first_kernel_cocycle(homs[gc], gd)
                with pytest.raises(SpecError, match="^cocycles under different sign "
                                   f"conventions: '{fc}' and '{gc}'$"):
                    ext_product(f, g)
            h = homs["standard"]
            fg = ext_product(first_kernel_cocycle(h, fd), first_kernel_cocycle(h, gd))
            assert (fg.hom.convention, fg.degree) == ("standard", fd + gd)


def test_flipped_complexes_refuse_identities_and_products():
    # under the flipped sign D(id) = 2 delta, so the identity is no
    # cocycle there and composition is no chain map
    E = localization_object(build_aside(GluingSpec("linear", (1, 1), ())), "E-", 1, 0)
    flipped = HomComplex(E, E, "flipped")
    refused = "^identities and products are defined only under the standard sign convention$"
    with pytest.raises(SpecError, match=refused):
        flipped.identity_cocycle()
    for fd in (0, 1):
        for gd in (0, 1):
            f = first_kernel_cocycle(flipped, fd)
            g = first_kernel_cocycle(flipped, gd)
            with pytest.raises(SpecError, match=refused):
                ext_product(f, g)
    standard = HomComplex(E, E)
    one = standard.identity_cocycle()
    assert ext_product(one, one).vector == one.vector


def test_class_questions_refuse_a_cocycle_of_another_complex():
    # a cocycle of Hom(P0, P1) has as many entries as Hom(E, E) has in
    # degree 0, and one of Hom(P0, P0) fewer; neither may be read there
    aq = build_aside(GluingSpec("linear", (1, 1), ()))
    E = localization_object(aq, "E-", 1, 0)
    P0, P1 = (projective(aq, ("P-", 1, j)) for j in (0, 1))
    h = HomComplex(E, E)
    own = first_kernel_cocycle(h, 0)
    for foreign in (HomComplex(P0, P1).cocycle([1, 1], 0),
                    HomComplex(P0, P0).identity_cocycle(),
                    HomComplex(E, E).identity_cocycle(),
                    first_kernel_cocycle(HomComplex(E, E, "flipped"), 0)):
        for call in (lambda: h.is_coboundary(foreign),
                     lambda: h.scalar_against(foreign, own),
                     lambda: h.scalar_against(own, foreign)):
            with pytest.raises(SpecError, match="^cocycle lives in another Hom complex$"):
                call()
    assert not h.is_coboundary(own)
    assert h.scalar_against(own, own) == 1


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


def test_twisted_complexes_are_read_only():
    # a hom complex caches its matrices, so the complexes it reads must
    # not change under it
    aq = build_aside(GluingSpec("linear", (1, 2, 1), (identity(2),)))
    E = localization_object(aq, "E-", 1, 0)
    assert hom_cohomology(E, E) == {0: 1, 1: 1}
    with pytest.raises(AttributeError):
        E.summands = E.summands[:1]
    with pytest.raises(AttributeError):
        E.junk = 1
    with pytest.raises(AttributeError):
        del E.junk
    with pytest.raises(AttributeError):
        object.__setattr__(E, "junk", 1)
    with pytest.raises(TypeError):
        E.diff[(1, 0)] = ()
    assert list(E.diff.items()) == [((1, 0), ((1, (("x", 1, 0),)),))]
    assert E.diff.get((2, 1)) is None
    assert hom_cohomology(E, E) == {0: 1, 1: 1}


def test_thin_modules_are_frozen():
    aq = build_aside(GluingSpec("linear", (1, 2, 1), (identity(2),)))
    module = module_of(localization_object(aq, "E-", 1, 0))
    with pytest.raises(AttributeError):
        module.junk = 1
    with pytest.raises(AttributeError):
        module.degree = None
    assert module == module_of(localization_object(aq, "E-", 1, 0))


def test_twisted_complexes_copy_and_pickle(monkeypatch):
    aq = build_aside(GluingSpec("linear", (3, 1), ()))
    E = localization_object(aq, "E-", 1, 1)
    assert copy.copy(E) == E
    for twin in copy.deepcopy(E), pickle.loads(pickle.dumps(E)):
        assert twin.quiver is not aq
        assert twin == TwistedComplex(twin.quiver, E.summands, E.diff)
        assert module_of(twin) == module_of(E)
        with pytest.raises(TypeError):
            twin.diff[(1, 0)] = ()
    # a copy is rebuilt through the constructor, so it is checked again
    checked = []
    monkeypatch.setattr(TwistedComplex, "_check_delta_squared",
                        lambda self: checked.append(self))
    pickle.loads(pickle.dumps(E))
    assert len(checked) == 1


def test_the_callers_lists_do_not_reach_a_complex():
    # the differential is stored once, so changing the term and path
    # lists it was read from changes neither diff nor a copy's Hom table
    q = GradedQuiver(plain(("v",), ("w",)), [(("a",), ("v",), ("w",), 0)], [])
    for change in (lambda term: term.__setitem__(0, 0),
                   lambda term: term[1].append(("a",))):
        term = [1, [("a",)]]
        cx = TwistedComplex(q, [(("v",), 1), (("w",), 0)], {(1, 0): [term]})
        change(term)
        assert dict(cx.diff) == {(1, 0): ((1, (("a",),)),)}
        assert hom_cohomology(cx, cx) == {0: 1}
        for twin in copy.deepcopy(cx), pickle.loads(pickle.dumps(cx)):
            assert twin == TwistedComplex(twin.quiver, cx.summands, cx.diff)
            assert hom_cohomology(twin, twin) == {0: 1}


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


# -- negative controls: the alarms of module_of and ThinModule fire ----


def test_module_of_refuses_a_value_that_is_not_thin():
    # Hom(P(v1), P(v2) + P(v2)) holds the paths a and b twice over
    q = double_quiver()
    E = TwistedComplex(q, ((("v", 2), 0), (("v", 2), 0)))
    with pytest.raises(FalsificationError,
                       match=r"^value at \('v', 1\) is not thin: \{0: 4\}$"):
        module_of(E)


def test_module_of_refuses_values_in_two_degrees():
    # P(u) + P(w)[1] on two vertices with no arrow between them
    q = GradedQuiver(plain(("u",), ("w",)), [], [])
    E = TwistedComplex(q, ((("u",), 0), (("w",), 1)))
    with pytest.raises(FalsificationError,
                       match="^values spread over degrees 0 and -1$"):
        module_of(E)


def test_module_of_refuses_an_image_that_is_not_a_cocycle(monkeypatch):
    # u0 -a-> u, u -q-> w of degree 1, u -p-> z and w -c-> z; E is the
    # cone P(w)[1] -> P(z) along c.  u's value, p, sits in degree 0 with
    # q (D(q) = qc) beside it.  A kernel basis that offered q as u's
    # generator would break precomposition by a as a chain map.
    q = GradedQuiver(
        plain(("u0",), ("u",), ("w",), ("z",)),
        [(("a",), ("u0",), ("u",), 0), (("q",), ("u",), ("w",), 1),
         (("p",), ("u",), ("z",), 0), (("c",), ("w",), ("z",), 0)],
        [],
    )
    E = TwistedComplex(q, ((("w",), 1), (("z",), 0)), {(1, 0): [(1, (("c",),))]})
    assert module_of(E).actions == {("a",): ONE, ("p",): ONE}
    monkeypatch.setattr(homology, "kernel_basis", lambda m, n: [[1] + [0] * (n - 1)])
    with pytest.raises(FalsificationError, match="^image under a is not a cocycle$"):
        module_of(E)


def _small_objects():
    aq = build_aside(GluingSpec("linear", (1, 2, 2, 1),
                                (Permutation((1, 0)), Permutation((1, 0)))))
    return aq, all_localization_objects(aq)


def test_module_of_needs_a_generating_cocycle(monkeypatch):
    # a solve that calls every vector a coboundary leaves no generator
    _, objects = _small_objects()
    monkeypatch.setattr(homology, "solve", lambda matrix, vector: [0] * len(vector))
    with pytest.raises(FalsificationError,
                       match=r"^no generating cocycle at \('P-', 1, 0\)$"):
        module_of(objects[0].cx)


def test_module_of_refuses_a_class_off_the_generator_line(monkeypatch):
    # a solve that finds no solution puts every arrow's image off the
    # line of the generator at its source
    _, objects = _small_objects()
    monkeypatch.setattr(homology, "solve", lambda matrix, vector: None)
    with pytest.raises(FalsificationError, match="^class off the generator line$"):
        module_of(objects[0].cx)


def test_predicted_module_refuses_an_unknown_kind():
    aq, _ = _small_objects()
    with pytest.raises(SpecError, match="^unknown localization kind 'E0'$"):
        predicted_module(aq, "E0", 1, 0)


def test_predicted_module_needs_one_admissible_path():
    # u reaches the tip P-(1,1) by two parallel arrows
    q = GradedQuiver(
        plain(("P-", 1, 0), ("P-", 1, 1), ("u",)),
        [(("x", 1, 0), ("P-", 1, 0), ("P-", 1, 1), 0),
         (("f",), ("u",), ("P-", 1, 1), 0), (("g",), ("u",), ("P-", 1, 1), 0)],
        [],
    )
    with pytest.raises(FalsificationError, match=r"^2 admissible paths at \('u',\)$"):
        predicted_module(q, "E-", 1, 0)


def test_predicted_module_refuses_an_inconsistent_action(monkeypatch):
    # a composition that appends a stray arrow breaks a·p = chosen path
    aq, objects = _small_objects()
    monkeypatch.setattr(GradedQuiver, "compose", lambda q, p, p2: p + p2 + p2[-1:])
    with pytest.raises(FalsificationError, match="^thin action is not consistent$"):
        predicted_module(aq, objects[0].kind, objects[0].component, objects[0].position)


@pytest.mark.parametrize("dims, actions, message", [
    ({("v", 1): 2}, {}, r"^dimension 2 at \('v', 1\) is not thin$"),
    ({("v", 1): 1}, {("a",): ONE}, r"^action of \('a',\) off the support$"),
    ({("v", 1): 1, ("v", 2): 1, ("v", 3): 1}, {("a",): ONE, ("y",): ONE},
     r"^relation pair \('a',\), \('y',\) both act nonzero$"),
], ids=["not_thin", "off_support", "relation_acts"])
def test_thin_module_validation_alarms(dims, actions, message):
    with pytest.raises(SpecError, match=message):
        homology.ThinModule(dims, actions).validate(double_quiver())


def test_stop_orthogonality():
    g = GluingSpec("linear", (1, 2, 1), (identity(2),))
    aq = build_aside(g)
    objs = all_localization_objects(aq)
    # every projective sees some localization object
    for vid in range(aq.num_vertices):
        x = projective(aq, aq.primary_label(vid))
        assert not is_stop_orthogonal(x, objs)
    assert is_stop_orthogonal(projective(aq, ("S", 1, 0)), [])


def core_band(aq, i, lam):
    """The band of component i with parameter lam: P-(i,0) shifted by
    one, mapped to the chains' shared end by the whole x chain plus lam
    times the whole y chain."""
    xs = [aq.arrow_name(a) for a in aq.arrows if aq.arrow_name(a)[:2] == ("x", i)]
    ys = [aq.arrow_name(a) for a in aq.arrows if aq.arrow_name(a)[:2] == ("y", i)]
    return TwistedComplex(
        aq, ((("P-", i, 0), 1), (("P-", i, len(xs)), 0)),
        {(1, 0): [(1, tuple(xs)), (lam, tuple(ys))]},
    )


def test_core_bands_are_stop_orthogonal():
    # each band sees no localization object, its endomorphisms are a
    # scalar and one extension, and distinct bands see nothing of each
    # other
    bands = pairs = 0
    for g in gluing_sweep(2, 3):
        aq = build_aside(g)
        objs = all_localization_objects(aq)
        family = [core_band(aq, i, lam) for i in g.components()
                  for lam in (1, 2, Fraction(-1, 3))]
        for B in family:
            assert is_stop_orthogonal(B, objs), g.to_json()
            assert hom_cohomology(B, B) == {0: 1, 1: 1}
            for other in family:
                if other is not B:
                    assert hom_cohomology(B, other) == {}, g.to_json()
                    pairs += 1
            bands += 1
    assert (bands, pairs) == (1026, 4968)


def test_localization_hom_conventions_agree():
    g = GluingSpec("circular", (3,), (Permutation((1, 2, 0)),))
    aq = build_aside(g)
    objs = all_localization_objects(aq)
    a, b = objs[0].cx, objs[1].cx
    assert hom_cohomology(a, b) == hom_cohomology(a, b, "flipped")
    assert HomComplex(a, b, "flipped").d_squared_vanishes()


# -- each differential against the per-element route -------------------


def sparse_image(h, index, i, degree):
    """D of basis element i (of the given degree) as sparse coefficients,
    by scanning every differential entry of both complexes in arrow
    names: a per-element route, the reference for HomComplex.matrix.
    ``index`` maps each basis element to its position."""
    q = h.quiver
    si, ti, p = h.basis[i]
    sign = (1 if h.convention == "flipped" else -1) * (-1 if degree % 2 else 1)
    out = {}
    for (ta, tb), entry in h.Y.diff.items():
        for c, names in entry:
            comp = q.compose(p, tuple(map(q.arrow_index, names)))
            if tb == ti and comp is not None:
                j = index[si, ta, comp]
                out[j] = out.get(j, 0) + c
    for (sa, sb), entry in h.X.diff.items():
        for c, names in entry:
            comp = q.compose(tuple(map(q.arrow_index, names)), p)
            if sa == si and comp is not None:
                j = index[sb, ti, comp]
                out[j] = out.get(j, 0) + sign * c
    return {j: c for j, c in out.items() if c}


def assert_matrices_match_sparse_images(X, Y):
    """Every slice's matrix of Hom(X, Y), in both conventions, column by
    column against sparse_image; returns the number of matrices."""
    matrices = 0
    for conv in ("standard", "flipped"):
        h = HomComplex(X, Y, conv)
        index = {elt: j for j, elt in enumerate(h.basis)}
        for d, cols in h.degrees.items():
            rows = {j: r for r, j in enumerate(h.degrees.get(d + 1, []))}
            expected = [[0] * len(cols) for _ in rows]
            for col, i in enumerate(cols):
                for j, c in sparse_image(h, index, i, d).items():
                    expected[rows[j]][col] = c
            assert h.matrix(d) == expected, (X, Y, conv, d)
            matrices += 1
    return matrices


def test_matrices_match_the_per_element_route_on_localization_objects():
    complexes = matrices = 0
    for g in gluing_sweep(2, 3):
        objs = [obj.cx for obj in all_localization_objects(build_aside(g))]
        for X in objs:
            for Y in objs:
                matrices += assert_matrices_match_sparse_images(X, Y)
                complexes += 2
    assert (complexes, matrices) == (32320, 44352)


def test_matrices_match_the_per_element_route_with_fraction_coefficients():
    # the bands of tests/data, as written (integer coefficients), with
    # every coefficient scaled by a Fraction, and with every term split
    # into two Fraction terms on one path, whose images must add up
    q = GradedQuiver.from_json_obj(
        json.loads((DATA / "three_vertex_quiver.json").read_text()))
    bands = [cx for _, cx in cli._load_complexes(DATA / "bands_complexes.json", q)]

    def rescaled(cx, scales):
        return TwistedComplex(q, cx.summands, {
            ab: [(c * k, names) for c, names in entry for k in scales]
            for ab, entry in cx.diff.items()})

    scaled = [rescaled(cx, scales) for cx in bands for scales in (
        (Fraction(1, 2),), (Fraction(-2, 3),), (Fraction(1, 3), Fraction(2, 3)))]
    complexes = bands + scaled
    matrices = sum(assert_matrices_match_sparse_images(X, Y)
                   for X in complexes for Y in complexes)
    assert (len(complexes), matrices) == (8, 256)


# -- module_of against a third route -------------------------------------


def reference_module(E):
    """The module of E by the all-vertex route: every vertex v gets
    Hom(P(v), E), with its basis read off the reference walk out of v
    (test_paths.walk_out) and its differential, generating cocycle and
    action scalars worked out here from linalg alone, with neither
    paths_between nor HomComplex.
    Returns (degree, dims, actions) as module_of orders them."""
    q = E.quiver
    relations = relation_names(q)
    summand_ids = [q.vertex_id(lab) for lab, _ in E.summands]
    shifts = [n for _, n in E.summands]
    spaces = {}
    for v in range(q.num_vertices):
        ends = {}
        for end, p in walk_out(q, v):
            ends.setdefault(end, []).append(p)
        basis = [(t, p) for t, sid in enumerate(summand_ids) for p in ends.get(sid, [])]
        if not basis:
            continue
        index = {elt: i for i, elt in enumerate(basis)}
        slices = {}
        for i, (t, p) in enumerate(basis):
            grade = q.path_degree(tuple(map(q.arrow_index, p)))
            slices.setdefault(grade - shifts[t], []).append(i)

        def matrix(d, basis=basis, index=index, slices=slices):
            # P(v) has no differential, so D(f) = delta_E after f
            cols, rows = slices.get(d, []), slices.get(d + 1, [])
            pos = {i: r for r, i in enumerate(rows)}
            mat = [[Fraction(0)] * len(cols) for _ in rows]
            for col, i in enumerate(cols):
                t, p = basis[i]
                for (a, b), entry in E.diff.items():
                    if b != t:
                        continue
                    for c, step in entry:
                        if p and step and (p[-1], step[0]) in relations:
                            continue
                        mat[pos[index[(a, p + step)]]][col] += c
            return mat

        coh = {
            d: len(idxs) - rank(matrix(d)) - rank(matrix(d - 1))
            for d, idxs in slices.items()
        }
        spaces[v] = (basis, index, slices, matrix, {d: h for d, h in coh.items() if h})

    degree, dims, gens = None, {}, {}
    for v, (basis, index, slices, matrix, coh) in spaces.items():
        if not coh:
            continue
        assert sum(coh.values()) == 1, (v, coh)
        (d,) = coh
        assert degree in (None, d)
        degree = d
        dims[q.primary_label(v)] = 1
        for vec in kernel_basis(matrix(d), len(slices[d])):
            if any(vec) and (
                d - 1 not in slices or solve(matrix(d - 1), vec) is None
            ):
                gens[v] = vec
                break
        else:
            raise AssertionError(f"no generating cocycle at {v}")

    actions = {}
    for name, u, w, _ in arrow_rows(q):
        if u not in gens or w not in gens:
            continue
        basis_u, index_u, slices_u, matrix_u, _ = spaces[u]
        basis_w, _, slices_w, _, _ = spaces[w]
        image = {}
        for c, i in zip(gens[w], slices_w[degree]):
            t, p = basis_w[i]
            if c and not (p and (name, p[0]) in relations):
                image[index_u[(t, (name,) + p)]] = c
        vec = [image.get(i, Fraction(0)) for i in slices_u[degree]]
        below = matrix_u(degree - 1) if degree - 1 in slices_u else []
        rows = [row + [g] for row, g in zip(below or [[]] * len(vec), gens[u])]
        lam = solve(rows, vec)[-1]
        if lam:
            actions[name] = lam
    return degree, dims, actions


def test_module_of_agrees_with_the_all_vertex_route():
    objects = 0
    for g in gluing_sweep(2, 3):
        aq = build_aside(g)
        for obj in all_localization_objects(aq):
            mod = module_of(obj.cx)
            degree, dims, actions = reference_module(obj.cx)
            assert mod.degree == degree, (g.to_json(), obj.kind)
            assert list(mod.dims.items()) == list(dims.items())
            assert list(mod.actions.items()) == list(actions.items())
            objects += 1
    assert objects > 1000


# -- work counts: one complex Hom(P(v), E) per vertex reaching E ------


def reaching(q, targets):
    """Vertex ids with a nonzero path into one of ``targets``, by a
    search backwards over (vertex, first arrow of the path so far)
    states: an arrow f may be put in front of a path starting with g
    unless g after f is a relation, and each state is visited once."""
    relations = relation_names(q)
    found = set(targets)
    stack = [(t, None) for t in targets]
    seen = set(stack)
    while stack:
        v, first = stack.pop()
        for i in q.in_arrows(v):
            state = source, name = q.arrow_ends(i)[0], q.arrow_name(i)
            if state in seen or (name, first) in relations:
                continue
            seen.add(state)
            stack.append(state)
            found.add(source)
    return found


def test_module_of_agrees_with_hom_from_each_projective(monkeypatch):
    # module_of builds each Hom(P(v), E) from the paths into E and no
    # HomComplex, so the generic complex Hom(P(v), E) checks every value
    counts = count_hom_complexes(monkeypatch)
    objects = pairs = 0
    for g in gluing_sweep(2, 3):
        aq = build_aside(g)
        for obj in all_localization_objects(aq):
            E = obj.cx
            built = counts["built"]
            mod = module_of(E)
            assert counts["built"] == built
            for vid in range(aq.num_vertices):
                v = aq.primary_label(vid)
                expected = {mod.degree: 1} if v in mod.dims else {}
                assert hom_cohomology(projective(aq, v), E) == expected, (g.to_json(), v)
                pairs += 1
            objects += 1
    assert counts["built"] == pairs
    assert (objects, pairs) == (1648, 22632)


def test_long_chain_localization_ranks_only_the_vertices_reaching_E(monkeypatch):
    # module_of ranks D only for the few vertices a nonzero path leads
    # from into a summand of E; at 6,000 strips work per vertex of the
    # quiver made localize quadratic in the chain length
    aq = build_aside(GluingSpec("linear", (6000, 1), ()))
    E = localization_object(aq, "E-", 1, 0)
    counts = count_hom_complexes(monkeypatch)
    ranked = []

    def counted(rows):
        ranked.append(rows)
        return rank(rows)

    monkeypatch.setattr(homology, "rank", counted)
    mod = module_of(E)
    assert (mod.degree, mod.dims, mod.actions) == (-1, {("P-", 1, 1): 1}, {})
    reached = reaching(aq, [aq.vertex_id(lab) for lab, _ in E.summands])
    assert counts["built"] == 0
    assert 0 < len(ranked) <= len(reached) < 10
    assert aq.num_vertices > 6000


def test_far_end_of_a_long_chain_ranks_one_block_at_a_time(monkeypatch):
    # E-(1,749) is reached from every vertex of the 750-strip chain's
    # minus side, so module_of builds hundreds of blocks Hom(P(v), E);
    # each ranked matrix stays within one, at most 3 columns wide
    aq = build_aside(GluingSpec("linear", (750, 1), ()))
    E = localization_object(aq, "E-", 1, 749)
    counts = count_hom_complexes(monkeypatch)
    widths = []

    def counted(rows):
        widths.append(len(rows[0]))
        return rank(rows)

    monkeypatch.setattr(homology, "rank", counted)
    mod = module_of(E)
    assert mod.degree == -1
    assert mod.dims == {("P-", 1, 0): 1, ("P-", 1, 750): 1}
    assert mod.actions == {("y", 1, 0): 1}
    sizes = Counter()
    for lab, _ in E.summands:
        for vid, paths in aq.paths_into(lab).items():
            sizes[vid] += len(paths)
    assert counts["built"] == 0 and len(sizes) > 700
    assert widths and max(widths) <= max(sizes.values()) == 3


def test_module_of_looks_up_no_names_per_path_arrow(monkeypatch):
    # E-(1,749) spans about 1,500 paths of up to 750 arrows each, read
    # as arrow indices; module_of looks names up only to check the
    # actions it found, so the count stays the same for any chain length
    aq = build_aside(GluingSpec("linear", (750, 1), ()))
    E = localization_object(aq, "E-", 1, 749)
    calls = []
    lookup = GradedQuiver.arrow_index

    def counted(self, name):
        calls.append(name)
        return lookup(self, name)

    monkeypatch.setattr(GradedQuiver, "arrow_index", counted)
    assert module_of(E).actions == {("y", 1, 0): 1}
    assert len(calls) <= 2


def test_localization_grid_hom_complex_counts(localization_grid):
    # over the 17,610 objects of the restricted grid module_of builds no
    # HomComplex: its 104,690 complexes Hom(P(v), E), one per vertex
    # reaching E, span 173,658 pairs (summand, path), read off paths_into
    _, modules, counts = localization_grid
    vertices = pairs = 0
    for _, aq, obj, _ in modules:
        into = [aq.paths_into(lab) for lab, _ in obj.cx.summands]
        vertices += len(set().union(*into))
        pairs += sum(len(paths) for found in into for paths in found.values())
    assert len(modules) == 17610
    assert (counts["built"], vertices, pairs) == (0, 104690, 173658)


def test_localization_builds_no_arrow_objects(tmp_path, capsys):
    # homology reads arrows by index, and a quiver has no arrow objects
    # to build: localize on the 6,000-strip chain, and both routes over
    # the objects of a grid gluing
    spec = tmp_path / "chain.json"
    spec.write_text(GluingSpec("linear", (6000, 1), ()).to_json())
    assert cli.main(["localize", "--spec", str(spec), "E-:1:0"]) == 0
    assert "M(P-(1,1)) = k" in capsys.readouterr().out
    g = GluingSpec("circular", (2, 2), (Permutation((1, 0)), identity(2)))
    assert g in list(gluing_sweep(2, 4))
    aq = build_aside(g)
    objects = all_localization_objects(aq)
    for obj in objects:
        module = module_of(obj.cx)
        assert module.same_pattern(
            predicted_module(aq, obj.kind, obj.component, obj.position)
        )
    assert len(objects) == 8


# -- cohomology over the integers: one rank per differential -----------


def test_cohomology_ranks_each_differential_once(monkeypatch):
    # only a slice with a slice above it has a differential to rank, and
    # none is ranked twice; ranking every slice both ways gives the same
    ranked = []

    def counted(rows):
        ranked.append(rows)
        return rank(rows)

    monkeypatch.setattr(homology, "rank", counted)
    complexes = slices = ranks = 0
    for g in gluing_sweep(1, 3):
        aq = build_aside(g)
        objs = [obj.cx for obj in all_localization_objects(aq)]
        sources = objs + [
            projective(aq, aq.primary_label(v)) for v in range(aq.num_vertices)
        ]
        for X in sources:
            for Y in objs:
                h = HomComplex(X, Y)
                ranked.clear()
                dims = h.cohomology()
                steps = [d for d in h.degrees if d + 1 in h.degrees]
                assert len(ranked) <= len(steps)
                assert len({id(m) for m in ranked}) == len(ranked)
                assert all(m and m[0] for m in ranked)
                expected = {
                    d: len(idxs) - rank(h.matrix(d)) - rank(h.matrix(d - 1))
                    for d, idxs in h.degrees.items()
                }
                assert dims == {d: n for d, n in expected.items() if n}
                complexes += 1
                slices += len(h.degrees)
                ranks += len(ranked)
    # ranking each slice's maps in and out took 2 * 1,460 calls
    assert (complexes, slices, ranks) == (942, 1460, 724)


def test_integer_complexes_give_integer_matrices():
    # a localization object's coefficients are ints, so are its Hom
    # complexes' differentials; a Fraction coefficient still works
    aq = build_aside(GluingSpec("linear", (1, 2, 1), (identity(2),)))
    objs = [obj.cx for obj in all_localization_objects(aq)]
    for X in objs:
        for Y in objs:
            h = HomComplex(X, Y)
            for d in h.degrees:
                assert all(type(c) is int for row in h.matrix(d) for c in row)
    m1, m2 = standard_pair(double_quiver())
    halved = TwistedComplex(
        m1.quiver, m1.summands, {(1, 0): [(Fraction(1, 2), (("y",),))]}
    )
    assert hom_cohomology(halved, halved) == hom_cohomology(m1, m1) == {0: 1, 1: 1}
    assert hom_cohomology(m2, halved) == {0: 2, 1: 1}


# sha256 of module_of (degree, dims, action scalars as text) over every
# localization object of gluing_sweep(2, 3), recorded with the Fraction
# arithmetic that integer cohomology replaced
MODULE_DIGEST = "e034bf4c25129a7a6a243ba0d9bc1efc23ac0068a11de3e7ac0823b03ab13427"


def module_digest(gluings):
    h = hashlib.sha256()
    for g in gluings:
        for obj in all_localization_objects(build_aside(g)):
            m = module_of(obj.cx)
            actions = [(a, str(c)) for a, c in m.actions.items()]
            h.update(
                repr(
                    (obj.kind, obj.component, obj.position, m.degree,
                     list(m.dims.items()), actions)
                ).encode()
            )
    return h.hexdigest()


def test_modules_are_unchanged():
    assert module_digest(gluing_sweep(2, 3)) == MODULE_DIGEST
