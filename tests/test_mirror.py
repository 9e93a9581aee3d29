"""The canonical correspondence, the verification pipeline, its negative
controls, and the genus-targeted search."""

import math
import tracemalloc
from dataclasses import fields

import pytest
from conftest import arrow_rows, relation_names

from quiverglue import mirror
from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.errors import FalsificationError, SpecError
from quiverglue.gluing import (
    GluingSpec,
    StackyCurveSpec,
    SurfaceTopology,
    from_curve,
    window_origins,
)
from quiverglue.mirror import (
    Check,
    VerifyReport,
    canonical_correspondence,
    k0_rank,
    search_ring_mirror,
    twisted_gluing,
    verify_theorem_A,
)
from quiverglue.perms import Permutation, from_twist
from quiverglue.quiver import GradedQuiver, find_isomorphism, map_equals
from quiverglue.surface import build_map, surface_topology
from quiverglue.sweeps import curve_sweep

SMOKE_CURVES = [
    StackyCurveSpec("ring", (1,), (0,)),
    StackyCurveSpec("ring", (3,), (1,)),
    StackyCurveSpec("chain", (1, 2, 1), (1,)),
    StackyCurveSpec("chain", (1, 5, 1), (2,)),
    StackyCurveSpec("chain", (2, 3, 4, 2), (1, 3)),
    StackyCurveSpec("ring", (2, 2), (1, 1)),
    StackyCurveSpec("ring", (3, 4, 5), (2, 3, 4)),
]


def test_twisted_gluing_default_matches_plain_mirror():
    for c in SMOKE_CURVES:
        assert twisted_gluing(c) == from_curve(c)


def test_twisted_gluing_rotates_with_the_window():
    c = StackyCurveSpec("ring", (3,), (1,))
    assert twisted_gluing(c).perms[0] == from_twist(1, 3)
    # origin (0,0): sigma(x) = -x - 1 mod 3
    assert twisted_gluing(c, bases={1: (0, 0)}).perms[0] == Permutation(
        (2, 1, 0)
    )
    # rotations share the commutator with tau, so topology is unchanged
    for m in range(-2, 3):
        g = twisted_gluing(c, bases={1: (0, m)})
        assert surface_topology(g) == surface_topology(from_curve(c))


def test_correspondence_rows_by_position():
    c = StackyCurveSpec("chain", (1, 2, 1), (1,))
    vmap = canonical_correspondence(c)
    aq = build_aside(twisted_gluing(c))
    # aliases are interchangeable, so compare the underlying vertices
    assert aq.vertex_id(vmap[("P", 1, 0, -1)]) == aq.vertex_id(("P-", 1, 0))
    assert vmap[("P", 1, 1, -1)] == ("P-", 1, 1)
    assert aq.vertex_id(vmap[("P", 1, 0, 1)]) == aq.vertex_id(("P+", 1, 2))
    assert aq.vertex_id(vmap[("P", 2, 0, 0)]) == aq.vertex_id(("P+", 2, 1))


def test_correspondence_twist_classes():
    c = StackyCurveSpec("chain", (1, 5, 1), (2,))
    vmap = canonical_correspondence(c)
    images = {cls: vmap[("S", 1, cls)][2] for cls in range(5)}
    assert images == {0: 0, 1: 2, 2: 4, 3: 1, 4: 3}


def moved_origins(c):
    """Two choices of window origins for every component of ``c`` besides
    the default."""
    return ({i: (i, -i - 2) for i in c.components()},
            {i: (-2 * i, 3) for i in c.components()})


def test_id_correspondence_is_the_label_correspondence():
    # verify matches builder quivers by the ids of _correspondence_ids;
    # canonical_correspondence, resolved through each quiver's labels,
    # must give the same ids, alias by alias
    compared = 0
    for c in curve_sweep(2, 4):
        for bases in (None, *moved_origins(c)):
            g = twisted_gluing(c, bases)
            bq, aq = build_bside(c, bases), build_aside(g)
            resolved = {}
            for l1, l2 in canonical_correspondence(c, bases).items():
                v, w = bq.vertex_id(l1), aq.vertex_id(l2)
                assert resolved.setdefault(v, w) == w, (c, l1)
            ids = mirror._correspondence_ids(c, window_origins(c, bases), g)
            assert ids == [resolved[v] for v in range(bq.num_vertices)], (c, bases)
            compared += 1
    assert compared == 3 * 154


def test_verify_matches_builder_quivers_without_labels():
    c = StackyCurveSpec("ring", (5, 3), (2, 1))
    for bases in (None, *moved_origins(c)):
        bq, aq = build_bside(c, bases), build_aside(twisted_gluing(c, bases))
        assert verify_theorem_A(c, bases, aside_quiver=aq, bside_quiver=bq).ok
        for q in bq, aq:
            assert q._naming is None and q._label_to_id is None


def test_verify_stays_small_at_the_cli_limit():
    # The 1,500-strip ring, matched by vertex id, peaks at about 4 MiB;
    # making both quivers' labels and label lookups for the match would
    # take it past 7 MiB.
    c = StackyCurveSpec("ring", (1500,), (1,))
    tracemalloc.start()
    try:
        assert verify_theorem_A(c).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_verify_passes_on_smoke_curves():
    for c in SMOKE_CURVES:
        report = verify_theorem_A(c)
        assert report.ok, report.summary()
        names = [check.name for check in report.checks]
        assert names == ["quiver", "topology", "k0"]
        assert "RESULT: PASS" in report.summary()


def test_verify_builds_one_gluing(monkeypatch):
    # the correspondence reuses the gluing verify built for the oracle
    calls = []

    def counted(c, bases=None):
        calls.append(c)
        return twisted_gluing(c, bases)

    monkeypatch.setattr(mirror, "twisted_gluing", counted)
    for k, c in enumerate(SMOKE_CURVES, 1):
        assert verify_theorem_A(c).ok
        assert len(calls) == k
    assert verify_theorem_A(SMOKE_CURVES[1], bases={1: (0, 0)}).ok
    assert len(calls) == len(SMOKE_CURVES) + 1


def test_result_classes_are_frozen():
    c = SMOKE_CURVES[2]
    report = verify_theorem_A(c)
    bq, aq = build_bside(c), build_aside(twisted_gluing(c))
    results = (report, report.checks[0], map_equals(bq, aq, canonical_correspondence(c)),
               aq.path_dims(), build_map(twisted_gluing(c)))
    assert [type(r).__name__ for r in results] == [
        "VerifyReport", "Check", "MatchReport", "HomTable", "CombinatorialMap"]
    for result in results:
        field = fields(result)[0].name
        with pytest.raises(AttributeError):
            result.junk = 1
        with pytest.raises(AttributeError):
            setattr(result, field, None)
        with pytest.raises(AttributeError):
            delattr(result, field)


def test_verify_report_serializes():
    obj = verify_theorem_A(SMOKE_CURVES[2]).to_json_obj()
    assert obj["pass"] is True
    assert {c["name"] for c in obj["checks"]} == {"quiver", "topology", "k0"}


def tampered_aside(c, dropped=None, retargeted=None):
    """The generator quiver of ``c`` rebuilt through the constructor with
    the relation ``dropped`` left out, or with the arrow named first in
    ``retargeted`` sent to the vertex labelled second."""
    aq = build_aside(twisted_gluing(c))
    arrows = arrow_rows(aq, labels=True)
    if retargeted:
        k = aq.arrow_index(retargeted[0])
        name, source, _, degree = arrows[k]
        arrows[k] = (name, source, retargeted[1], degree)
    return GradedQuiver(
        zip(aq.vertex_labels, aq.vertex_shifts),
        arrows,
        relation_names(aq) - {dropped},
    )


def test_negative_control_missing_relation():
    c = StackyCurveSpec("chain", (1, 2, 1), (1,))
    tampered = tampered_aside(c, dropped=(("a", 1, 0), ("y", 1, 0)))
    report = verify_theorem_A(c, aside_quiver=tampered)
    assert not report.ok
    quiver_check = report.checks[0]
    assert not quiver_check.ok
    assert any("relation" in d for d in quiver_check.details)


def test_negative_control_retargeted_arrow():
    c = StackyCurveSpec("chain", (1, 2, 1), (1,))
    # b(1,0) moves from P-(2,1) to P-(2,0); its relation with x(2,1) no
    # longer composes, so it goes too
    tampered = tampered_aside(
        c, dropped=(("b", 1, 0), ("x", 2, 1)), retargeted=(("b", 1, 0), ("P-", 2, 0))
    )
    # the arrow and the per-vertex arrow lists agree on the new target
    moved = tampered.arrow_index(("b", 1, 0))
    target = tampered.vertex_id(("P-", 2, 0))
    assert tampered.arrow_ends(moved)[1] == target
    assert moved in tampered.in_arrows(target)
    report = verify_theorem_A(c, aside_quiver=tampered)
    assert not report.ok
    assert any("arrows" in d for d in report.checks[0].details)


def reversed_vertices(q):
    """``q`` rebuilt through the constructor with its vertices in reverse
    order and its arrows and relations as they were, so every vertex id
    changes and no builder numbering applies."""
    return GradedQuiver(
        list(zip(q.vertex_labels, q.vertex_shifts))[::-1],
        arrow_rows(q, labels=True),
        relation_names(q),
    )


@pytest.mark.parametrize("c, tampering, details", [
    (StackyCurveSpec("chain", (1, 2, 1), (1,)),
     {"dropped": (("a", 1, 0), ("y", 1, 0))},
     ["relation counts differ: 4 vs 3",
      "relation y(1,0) o a(1,0) = 0 has no image on the right"]),
    (StackyCurveSpec("chain", (1, 2, 1), (1,)),
     {"dropped": (("b", 1, 0), ("x", 2, 1)), "retargeted": (("b", 1, 0), ("P-", 2, 0))},
     ["1 vs 0 arrows S(1,0) -> P-(2,1) at degree 0 (left: b(1,1))",
      "extra arrows b(1,0) on right at degree 0"]),
    (StackyCurveSpec("ring", (3, 2), (2, 1)),
     {"dropped": (("a", 2, 1), ("y", 2, 1)), "retargeted": (("x", 1, 0), ("P+", 1, 1))},
     ["1 vs 0 arrows P-(1,0) -> P-(1,1) at degree 0 (left: x(1,0))",
      "1 vs 2 arrows P-(1,0) -> P+(1,1) at degree 0 (left: y(1,0))"]),
], ids=["dropped", "retargeted", "ring"])
def test_verify_reads_a_reordered_quiver_by_its_labels(c, tampering, details):
    # Injected copies in another vertex order are matched through the
    # labels of the canonical correspondence: a faithful copy passes on
    # either side, and a tampered one fails with the details of the same
    # tampering in the builder's vertex order.
    bq, aq = build_bside(c), build_aside(twisted_gluing(c))
    for q, side in ((aq, "aside_quiver"), (bq, "bside_quiver")):
        copy = reversed_vertices(q)
        assert copy.vertex_id(q.primary_label(0)) == q.num_vertices - 1
        assert verify_theorem_A(c, **{side: copy}).ok
    tampered = tampered_aside(c, **tampering)
    for q in tampered, reversed_vertices(tampered):
        report = verify_theorem_A(c, aside_quiver=q)
        assert (report.ok, report.checks[0].details) == (False, details)


def test_verify_quiver_isomorphism_independent_witness():
    for c in SMOKE_CURVES[:4]:
        bq = build_bside(c)
        aq = build_aside(twisted_gluing(c))
        vmap = find_isomorphism(bq, aq)
        assert vmap is not None
        assert map_equals(bq, aq, vmap).ok


def test_window_origin_can_change_the_quiver():
    # moving the origin may produce a non-isomorphic collection quiver,
    # yet the correspondence to its own twisted gluing always holds
    c = StackyCurveSpec("ring", (3,), (1,))
    default = build_bside(c)
    moved = build_bside(c, bases={1: (0, 0)})
    assert find_isomorphism(default, moved) is None
    assert find_isomorphism(default, build_bside(c, bases={1: (1, -1)}))
    for base in [(0, 0), (1, -1), (2, 1), (-1, -2)]:
        report = verify_theorem_A(c, bases={1: base})
        assert report.ok, report.summary()


def test_verify_all_bases_small_ring():
    c = StackyCurveSpec("ring", (3,), (1,))
    for j in range(-2, 3):
        for m in range(-2, 3):
            assert verify_theorem_A(c, bases={1: (j, m)}).ok


def test_k0_rank_equals_object_count():
    from quiverglue.aside import object_count

    for c in SMOKE_CURVES:
        g = from_curve(c)
        assert k0_rank(g) == object_count(g)


def test_search_known_answers():
    assert search_ring_mirror(2) == [1]
    assert search_ring_mirror(2, 2) == [1]
    assert search_ring_mirror(3, 2) == [1, 2, 3]
    assert search_ring_mirror(4) == [1, 2, 3, 4, 5]


def test_search_filter_drops_exactly_the_twists_the_oracle_refuses():
    # a second route for the twists search drops: for every unit twist k
    # mod m = 2g - 1, the arithmetic filter gcd(k + 1, m) = 1 against the
    # surface oracle's genus and marks (2m, 2, ..., 2) of the twisted ring
    checked = 0
    for genus in range(2, 41):
        m = 2 * genus - 1
        for n in 1, 2, 3:
            marks = tuple(sorted([2 * m] + [2] * (n - 1)))
            kept = []
            for k in range(1, m):
                if math.gcd(k, m) != 1:
                    continue
                c = StackyCurveSpec("ring", (m,) + (1,) * (n - 1), (k,) + (0,) * (n - 1))
                topo = surface_topology(twisted_gluing(c))
                oracle = topo.genus == genus and topo.boundary_marks == marks
                assert (math.gcd(k + 1, m) == 1) == oracle, (genus, n, k, topo)
                if oracle:
                    kept.append(k)
                checked += 1
            if genus <= 12:
                assert search_ring_mirror(genus, n) == kept, (genus, n)
    assert checked == 3906


def test_search_a_187_strip_ring():
    # genus 94, one boundary circle: a ring of rank 187 = 11 * 17,
    # verified in full for every hit
    hits = search_ring_mirror(94, 1)
    assert hits == [
        k for k in range(1, 187) if math.gcd(k, 187) == math.gcd(k + 1, 187) == 1
    ]
    assert len(hits) == 135


def test_search_rejects_degenerate_requests():
    with pytest.raises(SpecError):
        search_ring_mirror(1)
    with pytest.raises(SpecError):
        search_ring_mirror(2, 0)


# -- negative controls: the alarms of verify, k0_rank and the search fire


def test_negative_control_topology_mismatch(monkeypatch):
    # an oracle that disagrees with the closed form is reported by name
    wrong = SurfaceTopology(0, (2, 2, 2), -1)
    monkeypatch.setattr(mirror, "surface_topology", lambda g: wrong)
    c = StackyCurveSpec("ring", (3,), (1,))
    report = verify_theorem_A(c)
    topology = report.checks[1]
    assert topology.name == "topology" and not topology.ok
    assert topology.details == [
        f"closed form {mirror.predicted_topology_curve(c)} vs oracle {wrong}"]


def test_k0_rank_needs_a_marked_point(monkeypatch):
    # every gluing has marks; an unmarked annulus from the oracle must
    # not pass as rank 0
    unmarked = SurfaceTopology(0, (0, 0), 0)
    monkeypatch.setattr(mirror, "surface_topology", lambda g: unmarked)
    with pytest.raises(SpecError, match="^rank formula needs at least one marked point$"):
        k0_rank(from_curve(SMOKE_CURVES[1]))


def test_search_refuses_a_hit_that_fails_verification(monkeypatch):
    failing = VerifyReport([Check("quiver", False, ["tampered"])])
    monkeypatch.setattr(mirror, "verify_theorem_A", lambda c: failing)
    with pytest.raises(FalsificationError,
                       match="^k=1 passed the arithmetic filter but failed"):
        search_ring_mirror(2)


def test_search_refuses_an_empty_answer(monkeypatch):
    # no twist passes a filter that finds every twist a non-unit
    class NoUnits:
        @staticmethod
        def gcd(a, b):
            return 2

    monkeypatch.setattr(mirror, "math", NoUnits)
    with pytest.raises(FalsificationError,
                       match="^no valid twist mod 3: existence of a genus-2 ring"):
        search_ring_mirror(2)
