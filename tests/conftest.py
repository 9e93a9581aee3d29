"""Helpers and fixtures shared by the test modules."""

import pytest

from quiverglue.aside import build_aside
from quiverglue.homology import HomComplex, all_localization_objects, module_of
from quiverglue.sweeps import gluing_sweep


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
