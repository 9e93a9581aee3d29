"""Spec validation, serialization, and the closed-form topology
predictors on both sides."""

import copy
import pickle
from dataclasses import fields

import pytest

from quiverglue import gluing, perms
from quiverglue.errors import FalsificationError, SpecError
from quiverglue.gluing import (
    GluingSpec,
    StackyCurveSpec,
    SurfaceTopology,
    from_curve,
    predicted_topology,
    predicted_topology_curve,
)
from quiverglue.perms import Permutation, all_permutations, from_twist, identity, swap, tau
from quiverglue.surface import surface_topology
from quiverglue.sweeps import curve_sweep, gluing_sweep


FIG_GLUING = GluingSpec(
    "linear", (1, 3, 3, 1), (swap(0, 1, 3), swap(0, 1, 3))
)


def test_linear_bookkeeping():
    g = FIG_GLUING
    assert g.n_components == 3
    assert list(g.components()) == [1, 2, 3]
    # (minus, plus) of components 1..3, then the ranks of junctions 1, 2
    assert g.side_ranks() == [(1, 3), (3, 3), (3, 1)]
    assert g.node_ranks() == (3, 3)
    assert g.free_ranks == (1, 1)
    assert GluingSpec("linear", (2, 5), ()).free_ranks == (2, 5)
    assert StackyCurveSpec("chain", (4, 2, 3), (1,)).free_ranks == (4, 3)


def test_circular_bookkeeping():
    g = GluingSpec("circular", (2, 3), (identity(2), identity(3)))
    assert g.n_components == 2
    # junction i glues the plus side of component i, whose rank is ranks[i-1],
    # to the minus side of component i % 2 + 1
    assert g.side_ranks() == [(3, 2), (2, 3)]
    assert g.node_ranks() == (2, 3)
    assert g.free_ranks == ()
    assert StackyCurveSpec("ring", (3,), (1,)).free_ranks == ()


# one component with both sides free, and one glued to itself
ONE_COMPONENT = [
    GluingSpec("linear", (2, 3), ()),
    StackyCurveSpec("chain", (1, 4), ()),
    GluingSpec("circular", (3,), (swap(0, 2, 3),)),
    StackyCurveSpec("ring", (5,), (2,)),
]


def test_side_and_node_ranks_follow_the_ranks():
    # A closed shape with ranks r_1..r_n: component i has sides
    # (r_{i-1}, r_i), cyclically, and junction k has rank r_k.  An open one
    # with ranks r_0..r_n: component i has sides (r_{i-1}, r_i), junctions
    # 1..n-1 have ranks r_1..r_{n-1}, and r_0 and r_n are free.
    specs = ONE_COMPONENT + gluing_sweep(2, 4) + curve_sweep(2, 4)
    assert {(s.shape, s.n_components) for s in specs} == {
        (shape, n) for shape in ("linear", "circular", "chain", "ring") for n in (1, 2)}
    for s in specs:
        r, n = s.ranks, s.n_components
        if s.closed:
            sides, nodes, free = [(r[i - 1], r[i]) for i in range(n)], r, ()
        else:
            sides, nodes, free = [(r[i], r[i + 1]) for i in range(n)], r[1:-1], (r[0], r[-1])
        assert s.side_ranks() == sides, s
        assert s.node_ranks() == nodes, s
        assert s.free_ranks == free, s
        # junction k joins the plus side of component k to the minus side
        # of component k % n + 1, and has the rank of both
        for k, rank in enumerate(nodes, 1):
            assert sides[k - 1][1] == rank == sides[k % n][0], s


SLOTTED = [
    FIG_GLUING,
    StackyCurveSpec("ring", (3, 4, 5), (2, 3, 4)),
    Permutation((2, 0, 1)),
]


@pytest.mark.parametrize("spec", SLOTTED, ids=lambda s: type(s).__name__)
def test_specs_are_slotted_and_read_only(spec):
    # a frozen dataclass with slots=True raised TypeError (not
    # AttributeError) for a name that is not a field on CPython 3.11
    assert not hasattr(spec, "__dict__")
    name = fields(spec)[0].name
    before = getattr(spec, name)
    for change in (lambda: setattr(spec, name, before),
                   lambda: delattr(spec, name),
                   lambda: setattr(spec, "junk", 1),
                   lambda: delattr(spec, "junk")):
        with pytest.raises(AttributeError):
            change()
    with pytest.raises(AttributeError):
        object.__setattr__(spec, "junk", 1)
    assert getattr(spec, name) is before


@pytest.mark.parametrize("spec", SLOTTED, ids=lambda s: type(s).__name__)
def test_specs_copy_and_pickle(spec):
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert type(twin) is type(spec)
        assert twin == spec and hash(twin) == hash(spec)
        assert not hasattr(twin, "__dict__")
        assert str(twin) == str(spec)
    if isinstance(spec, GluingSpec):
        assert surface_topology(pickle.loads(pickle.dumps(spec))) == surface_topology(spec)


def test_no_spec_of_the_sweeps_has_a_dict():
    specs = ONE_COMPONENT + gluing_sweep(2, 4) + curve_sweep(2, 4)
    assert not any(hasattr(s, "__dict__") for s in specs)
    assert not any(hasattr(p, "__dict__") for s in specs for p in getattr(s, "perms", ()))
    assert not hasattr(gluing.Shape("ring", (2, 3)), "__dict__")


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


def test_surface_topology_refuses_negative_counts():
    for genus, marks, chi in ((-1, (), 4), (0, (-3, 1), 0), (-2, (2,), 5)):
        with pytest.raises(SpecError, match="^no surface has genus -?[0-9]+ and boundary "):
            SurfaceTopology(genus, marks, chi)
    assert SurfaceTopology(0, (0, 2), 0).boundary_marks == (0, 2)


def test_measured_topology_refuses_a_negative_genus():
    for marks, chi, genus2 in (((2,), 3, -2), ((), 4, -2), ((1, 1, 1, 1), 0, -2)):
        with pytest.raises(FalsificationError,
                           match=f"^negative 2g = {genus2} for t: {len(marks)} boundary "
                                 f"components and chi = {chi}$"):
            SurfaceTopology.measured(marks, chi, "t")


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


def test_predicted_topology_walks_the_commutator_cycles_exhaustively():
    # every sigma of degree 1 to 7 against the commutator built and
    # decomposed through the public permutation API
    count = 0
    for r in range(1, 8):
        for sigma in all_permutations(r):
            t = predicted_topology(GluingSpec("circular", (r,), (sigma,)))
            lengths = sigma.commutator(tau(r)).cycle_decomposition().lengths
            assert t.boundary_marks == tuple(sorted(2 * l for l in lengths)), sigma
            assert t.euler_characteristic == -r
            count += 1
    assert count == 5913


def test_predicted_topology_builds_no_permutation(monkeypatch):
    specs = gluing_sweep(2, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a permutation was built or composed")

    monkeypatch.setattr(perms.Permutation, "__post_init__", refuse)
    monkeypatch.setattr(perms.Permutation, "commutator", refuse)
    monkeypatch.setattr(perms.Permutation, "cycle_decomposition", refuse)
    monkeypatch.setattr(perms, "tau", refuse)
    monkeypatch.setattr(gluing, "tau", refuse, raising=False)
    with pytest.raises(AssertionError):
        Permutation((0,))
    for g in specs:
        # the oracle reads the images too, and builds no permutation either
        assert predicted_topology(g) == surface_topology(g), g


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
