"""Spec validation, serialization, and the closed-form topology
predictors on both sides."""

import pytest

from quiverglue import gluing
from quiverglue.errors import FalsificationError, SpecError
from quiverglue.gluing import (
    GluingSpec,
    StackyCurveSpec,
    SurfaceTopology,
    from_curve,
    predicted_topology,
    predicted_topology_curve,
)
from quiverglue.perms import from_twist, identity, swap, tau


FIG_GLUING = GluingSpec(
    "linear", (1, 3, 3, 1), (swap(0, 1, 3), swap(0, 1, 3))
)


def test_linear_bookkeeping():
    g = FIG_GLUING
    assert g.n_components == 3
    assert list(g.components()) == [1, 2, 3]
    assert list(g.junctions()) == [1, 2]
    assert (g.minus_rank(1), g.plus_rank(1)) == (1, 3)
    assert (g.minus_rank(2), g.plus_rank(2)) == (3, 3)
    assert (g.minus_rank(3), g.plus_rank(3)) == (3, 1)
    assert g.junction_rank(1) == 3
    assert g.next_component(1) == 2


def test_circular_bookkeeping():
    g = GluingSpec("circular", (2, 3), (identity(2), identity(3)))
    assert g.n_components == 2
    assert list(g.junctions()) == [1, 2]
    # junction i glues the plus side of component i, whose rank is ranks[i-1]
    assert g.junction_rank(1) == 2
    assert g.junction_rank(2) == 3
    assert (g.minus_rank(1), g.plus_rank(1)) == (3, 2)
    assert (g.minus_rank(2), g.plus_rank(2)) == (2, 3)
    assert g.next_component(2) == 1


def test_gluing_validation():
    with pytest.raises(SpecError):
        GluingSpec("linear", (), ())
    with pytest.raises(SpecError):
        GluingSpec("linear", (1,), ())
    with pytest.raises(SpecError):
        GluingSpec("linear", (1, 2, 1), ())  # missing junction permutation
    with pytest.raises(SpecError):
        GluingSpec("linear", (1, 2, 1), (identity(3),))  # degree mismatch
    with pytest.raises(SpecError):
        GluingSpec("circular", (2, 2), (identity(2),))
    with pytest.raises(SpecError):
        GluingSpec("mobius", (2,), (identity(2),))
    with pytest.raises(SpecError):
        GluingSpec("linear", (1, 0), ())


def test_curve_validation():
    with pytest.raises(SpecError):
        StackyCurveSpec("chain", (2, 3, 4, 2), (1, 2))  # 2 not a unit mod 4
    StackyCurveSpec("chain", (2, 3, 4, 2), (1, 3))
    with pytest.raises(SpecError):
        StackyCurveSpec("ring", (3,), ())
    with pytest.raises(SpecError):
        StackyCurveSpec("chain", (1,), ())
    assert StackyCurveSpec("chain", (1, 5, 1), (2,)).node_ranks() == (5,)
    assert StackyCurveSpec("ring", (2, 3), (1, 2)).node_ranks() == (2, 3)


def test_json_round_trips():
    g = FIG_GLUING
    assert GluingSpec.from_json(g.to_json()) == g
    c = StackyCurveSpec("ring", (3, 4, 5), (2, 3, 4))
    assert StackyCurveSpec.from_json(c.to_json()) == c
    with pytest.raises(SpecError):
        GluingSpec.from_json('{"shape": "linear"}')


def test_from_curve_uses_twist_permutations():
    c = StackyCurveSpec("chain", (1, 5, 1), (2,))
    g = from_curve(c)
    assert g.shape == "linear"
    assert g.ranks == (1, 5, 1)
    assert g.perms == (from_twist(2, 5),)
    r = from_curve(StackyCurveSpec("ring", (2, 2), (1, 1)))
    assert r.shape == "circular"
    assert r.perms == (from_twist(1, 2), from_twist(1, 2))


def test_surface_topology_consistency_guard():
    SurfaceTopology(2, (1, 1, 6, 6), -6)
    with pytest.raises(SpecError):
        SurfaceTopology(2, (1, 1, 6, 6), -5)


def test_measured_topology_takes_the_genus_from_chi():
    for t in (SurfaceTopology(2, (1, 1, 6, 6), -6), SurfaceTopology(0, (1, 1), 0),
              SurfaceTopology(1, (2,), -1), SurfaceTopology(3, (4, 2), -6)):
        assert SurfaceTopology.measured(t.boundary_marks, t.euler_characteristic, "t") == t
    assert SurfaceTopology.measured([6, 1, 6, 1], -6, "t") == SurfaceTopology(2, (1, 1, 6, 6), -6)
    for marks, chi in (((1, 1, 6), -6), ((2,), 0), ((), -1)):
        with pytest.raises(FalsificationError, match="^odd 2g = -?[0-9]+ for t: "):
            SurfaceTopology.measured(marks, chi, "t")


def test_surface_topology_derived_quantities():
    t = SurfaceTopology(2, (1, 1, 6, 6), -6)
    assert t.num_boundary == 4
    assert t.num_marks == 14
    assert t.k0_rank == 20
    assert t.boundary_marks == (1, 1, 6, 6)  # stored sorted


def test_predicted_topology_annulus():
    t = predicted_topology(GluingSpec("linear", (1, 1), ()))
    assert t == SurfaceTopology(0, (1, 1), 0)


def test_predicted_topology_figure_case():
    t = predicted_topology(FIG_GLUING)
    assert t.genus == 2
    assert t.boundary_marks == (1, 1, 6, 6)
    assert t.euler_characteristic == -6


def test_predicted_topology_identity_junction():
    # identity commutator: r circles of 2 marks each, genus 0
    t = predicted_topology(GluingSpec("linear", (1, 2, 1), (identity(2),)))
    assert t == SurfaceTopology(0, (1, 1, 2, 2), -2)


def test_predicted_topology_circular_rank_one():
    t = predicted_topology(GluingSpec("circular", (1,), (identity(1),)))
    assert t == SurfaceTopology(1, (2,), -1)


def test_curve_predictor_matches_gluing_predictor():
    cases = [
        StackyCurveSpec("chain", (1, 2, 1), (1,)),
        StackyCurveSpec("chain", (1, 5, 1), (2,)),
        StackyCurveSpec("chain", (2, 3, 4, 2), (1, 3)),
        StackyCurveSpec("ring", (3,), (1,)),
        StackyCurveSpec("ring", (2, 2), (1, 1)),
        StackyCurveSpec("ring", (3, 4, 5), (2, 3, 4)),
    ]
    for c in cases:
        assert predicted_topology_curve(c) == predicted_topology(from_curve(c))


def test_curve_predictor_ring_genus():
    # one node of rank 2g-1 with twist 1: gcd(2, 2g-1) = 1, one boundary
    for genus in (2, 3, 4):
        m = 2 * genus - 1
        c = StackyCurveSpec("ring", (m,), (1,))
        t = predicted_topology_curve(c)
        assert t.genus == genus
        assert t.boundary_marks == (2 * m,)


@pytest.mark.parametrize("curve, wrong_gcd", [
    # p = 1 at the rank-2 node: an odd rank defect, so an odd 2g
    (StackyCurveSpec("chain", (1, 2, 1), (1,)), lambda a, b: 1),
    # p = -1 at both nodes: no circles, so the closed-form genus 3
    # differs from the genus 2 of the boundary and chi
    (StackyCurveSpec("chain", (1, 2, 2, 1), (1, 1)), lambda a, b: -1),
])
def test_curve_predictor_falsifies_a_wrong_closed_form(curve, wrong_gcd):
    # A closed form that disagrees with itself is a mathematical
    # mismatch, not bad input.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gluing.math, "gcd", wrong_gcd)
        with pytest.raises(FalsificationError) as info:
            predicted_topology_curve(curve)
    # the CLI's "falsified:" line names the curve
    assert curve.to_json() in str(info.value)


def test_commutator_cycle_count_via_gcd():
    # cycles of [from_twist(k,r), tau] match the gcd(k+1, r) closed form
    import math

    for r in range(1, 10):
        for k in range(r):
            if math.gcd(k, r) != 1:
                continue
            comm = from_twist(k, r).commutator(tau(r))
            p = math.gcd(k + 1, r)
            assert len(comm.cycle_decomposition()) == p
            assert comm.cycle_decomposition().lengths == (r // p,) * p
