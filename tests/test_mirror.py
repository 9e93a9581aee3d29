"""The canonical correspondence, the verification pipeline, its negative
controls, and the genus-targeted search."""

import math

import pytest

from quiverglue import mirror
from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.errors import FalsificationError, SpecError
from quiverglue.gluing import GluingSpec, StackyCurveSpec, from_curve
from quiverglue.mirror import (
    canonical_correspondence,
    k0_rank,
    search_ring_mirror,
    twisted_gluing,
    verify_theorem_A,
)
from quiverglue.perms import Permutation, from_twist
from quiverglue.quiver import GradedQuiver, find_isomorphism, map_equals
from quiverglue.surface import surface_topology

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


def test_verify_report_serializes():
    obj = verify_theorem_A(SMOKE_CURVES[2]).to_json_obj()
    assert obj["pass"] is True
    assert {c["name"] for c in obj["checks"]} == {"quiver", "topology", "k0"}


def tampered_aside(c, dropped=None, retargeted=None):
    """The generator quiver of ``c`` rebuilt through the constructor with
    the relation ``dropped`` left out, or with the arrow named first in
    ``retargeted`` sent to the vertex labelled second."""
    aq = build_aside(twisted_gluing(c))

    def target(a):
        if retargeted and a.name == retargeted[0]:
            return retargeted[1]
        return aq.primary_label(a.target)

    return GradedQuiver(
        zip(aq.vertex_labels, aq.vertex_shifts),
        [(a.name, aq.primary_label(a.source), target(a), a.degree) for a in aq.arrows],
        aq.relations - {dropped},
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
    moved = tampered.arrow(("b", 1, 0))
    assert moved in tampered.arrows_into(tampered.vertex_id(("P-", 2, 0)))
    report = verify_theorem_A(c, aside_quiver=tampered)
    assert not report.ok
    assert any("arrows" in d for d in report.checks[0].details)


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
