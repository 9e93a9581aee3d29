"""Frozen tables and algebraic laws for the permutation layer."""

import itertools
import random
import re

import pytest

from quiverglue.errors import SpecError
from quiverglue.perms import (
    Permutation,
    all_permutations,
    from_twist,
    identity,
    random_permutation,
    swap,
    tau,
)


def translation(s, r):
    return Permutation(tuple((x + s) % r for x in range(r)))


def test_tau_table():
    assert tau(3).image == (2, 0, 1)
    assert tau(5).image == (4, 0, 1, 2, 3)
    assert tau(1).is_identity()


def test_compose_is_right_to_left():
    # (p * q)(x) = p(q(x))
    p, q = swap(0, 1, 3), tau(3)
    assert (p * q).image == (2, 1, 0)
    assert (q * p).image == (0, 2, 1)
    for x in range(3):
        assert (p * q)(x) == p(q(x))


def test_commutator_table():
    assert swap(0, 1, 3).commutator(tau(3)).image == (2, 0, 1)


def test_from_twist_tables():
    assert from_twist(1, 5).image == (0, 4, 3, 2, 1)
    assert from_twist(2, 5).image == (0, 3, 1, 4, 2)
    assert from_twist(3, 5).image == (0, 2, 4, 1, 3)
    assert from_twist(0, 1).is_identity()


def test_from_twist_needs_a_unit():
    with pytest.raises(ValueError):
        from_twist(2, 4)
    with pytest.raises(ValueError):
        from_twist(0, 3)
    from_twist(3, 4)


def test_cycle_decomposition_tables():
    dec = from_twist(1, 5).cycle_decomposition()
    assert dec.cycles == ((0,), (1, 4), (2, 3))
    assert dec.lengths == (2, 2, 1)
    assert len(dec) == 3
    assert translation(3, 5).cycle_decomposition().lengths == (5,)
    assert translation(2, 6).cycle_decomposition().lengths == (3, 3)
    assert identity(4).cycle_decomposition().lengths == (1, 1, 1, 1)


def test_cycle_decomposition_reconstructs():
    rng = random.Random(7)
    for r in range(1, 9):
        p = random_permutation(r, rng)
        image = [None] * r
        for cycle in p.cycle_decomposition().cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a] = b
        assert tuple(image) == p.image


def test_inverse_and_power_laws():
    rng = random.Random(11)
    for r in range(1, 9):
        p = random_permutation(r, rng)
        q = random_permutation(r, rng)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()
        assert ((p * q).inverse()).image == (q.inverse() * p.inverse()).image
        assert (p ** 0).is_identity()
        assert (p ** 3).image == (p * p * p).image
        assert (p ** -1).image == p.inverse().image
        order = 1
        acc = p
        while not acc.is_identity():
            acc = acc * p
            order += 1
        assert (p ** order).is_identity()


def test_validation_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        swap(0, 1, 3) * tau(4)


def test_commutator_ignores_tau_powers_on_the_right():
    # [sigma tau^m, tau] = [sigma, tau] since tau commutes with itself
    t = tau(4)
    for sigma in all_permutations(4):
        base = sigma.commutator(t)
        for m in range(4):
            assert (sigma * t ** m).commutator(t).image == base.image


def test_commutator_conjugates_under_left_tau_powers():
    t = tau(4)
    for sigma in all_permutations(4):
        base = sigma.commutator(t)
        for s in range(4):
            expected = t ** s * base * t ** -s
            assert (t ** s * sigma).commutator(t).image == expected.image


def test_commutators_are_even():
    rng = random.Random(23)
    for _ in range(60):
        r = rng.randint(1, 10)
        p, q = random_permutation(r, rng), random_permutation(r, rng)
        comm = p.commutator(q)
        transpositions = r - len(comm.cycle_decomposition())
        assert transpositions % 2 == 0


def test_all_permutations_counts():
    assert sum(1 for _ in all_permutations(4)) == 24
    assert {p.image for p in all_permutations(3)} == set(
        itertools.permutations(range(3))
    )


def test_commutator_is_the_product_of_four():
    # composed in one pass, it equals p q p^-1 q^-1 built as products
    for r in range(1, 5):
        perms = list(all_permutations(r))
        for p, q in itertools.product(perms, perms):
            assert p.commutator(q) == p * q * p.inverse() * q.inverse()
    with pytest.raises(ValueError, match="degree mismatch"):
        identity(2).commutator(identity(3))


@pytest.mark.parametrize("make", [lambda: tau(0), lambda: from_twist(1, 0)],
                         ids=["tau", "from_twist"])
def test_degree_zero_is_refused(make):
    with pytest.raises(ValueError, match="^degree must be positive$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: swap(-1, 0, 3), "swap indices -1, 0 are not in 0..2"),
    (lambda: swap(0, 3, 3), "swap indices 0, 3 are not in 0..2"),
    (lambda: swap(0.0, 1, 3), "swap indices must be integers, got 0.0"),
    (lambda: swap(True, 0, 2), "swap indices must be integers, got True"),
    (lambda: swap(0, 1, 2.0), "degree must be an integer, got 2.0"),
    (lambda: from_twist(1.0, 3), "twist must be an integer, got 1.0"),
    (lambda: identity(2.0), "degree must be an integer, got 2.0"),
    (lambda: identity(0), "degree must be positive"),
    (lambda: tau("3"), "degree must be an integer, got '3'"),
    (lambda: tau(3) ** 1.5, "power must be an integer, got 1.5"),
    (lambda: tau(3) ** True, "power must be an integer, got True"),
], ids=["negative", "too_large", "float_index", "bool_index", "float_degree",
        "float_twist", "float_identity", "zero_identity", "str_degree", "float_power",
        "bool_power"])
def test_helpers_refuse_what_is_not_an_index(make, message):
    # swap(-1, 0, 3) was Permutation([2, 1, 0]); the others leaked
    # IndexError or TypeError, or took True for 1
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        make()
