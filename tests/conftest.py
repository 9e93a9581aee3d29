"""Helpers and fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from quiverglue.aside import build_aside
from quiverglue.homology import (
    HomComplex,
    TwistedComplex,
    all_localization_objects,
    module_of,
)
from quiverglue.quiver import GradedQuiver
from quiverglue.sweeps import gluing_sweep

ONE = Fraction(1)


def plain(*labels):
    """Vertex parts: one unshifted vertex per label."""
    return [((lab,), 0) for lab in labels]


# The worked example: two double arrows v1 -> v2 -> v3 with crossed zero
# composites, and the two standard two-term complexes over it.
DOUBLE_ARROWS = [
    (("a",), ("v", 1), ("v", 2), 0),
    (("b",), ("v", 1), ("v", 2), 0),
    (("x",), ("v", 2), ("v", 3), 0),
    (("y",), ("v", 2), ("v", 3), 0),
]
CROSSED = frozenset({(("a",), ("y",)), (("b",), ("x",))})


def crossed_doubles(relations=CROSSED):
    return GradedQuiver(plain(("v", 1), ("v", 2), ("v", 3)), DOUBLE_ARROWS, relations)


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


def count_hom_complexes(monkeypatch):
    """Patch HomComplex to count its builds and their basis sizes; the
    last one built is kept under "last"."""
    counts = {"built": 0, "basis": 0, "last": None}
    init = HomComplex.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["built"] += 1
        counts["basis"] += len(self.basis)
        counts["last"] = self

    monkeypatch.setattr(HomComplex, "__init__", counted)
    return counts


def arrow_rows(q, labels=False):
    """Each arrow of q as a row (name, source, target, degree), in arrow
    order, read through arrows, arrow_name, arrow_ends and path_degree:
    the ends as vertex ids, or as primary labels when ``labels``."""
    rows = []
    for a in q.arrows:
        s, t = q.arrow_ends(a)
        if labels:
            s, t = q.primary_label(s), q.primary_label(t)
        rows.append((q.arrow_name(a), s, t, q.path_degree((a,))))
    return rows


def relation_names(q):
    """The relations of q as arrow-name pairs (f, g), meaning g∘f = 0:
    each arrow g paired with the arrows into its source that it kills,
    read through in_arrows, arrow_ends and is_relation."""
    return frozenset(
        (q.arrow_name(f), q.arrow_name(g))
        for g in q.arrows
        for f in q.in_arrows(q.arrow_ends(g)[0])
        if q.is_relation(f, g)
    )


@pytest.fixture(scope="session")
def localization_grid():
    """module_of over every localization object of the restricted grid
    gluing_sweep(2, 4), run once per session: the grid's specs, one
    (spec, aside quiver, object, module) per object, and the HomComplex
    builds and basis elements the pass made."""
    specs = gluing_sweep(2, 4)
    modules = []
    with pytest.MonkeyPatch.context() as mp:
        counts = count_hom_complexes(mp)
        for g in specs:
            aq = build_aside(g)
            for obj in all_localization_objects(aq):
                modules.append((g, aq, obj, module_of(obj.cx)))
    return specs, modules, counts
