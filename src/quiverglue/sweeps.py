"""Spec generators for checking the family on many gluings and curves.

Two grids, the acceptance sweeps, walk every shape with up to
``max_components`` components and ranks up to ``max_rank``, in one
fixed order.  The gluing grid lists every junction permutation while
all junction ranks stay at most three and ``RANDOM_TUPLES`` seeded
random tuples per rank combination beyond; the curve grid lists every
valid twist.  The samplers draw one spec of one to three components
and ranks one to four from a ``random.Random``; ``quiverglue sweep``
draws from them.  Every rank question goes to :class:`gluing.Shape`.
"""

from __future__ import annotations

import itertools
import math
import random

from .gluing import CHAIN, CIRCULAR, LINEAR, RING, GluingSpec, Shape, StackyCurveSpec
from .perms import all_permutations, random_permutation

# Fixed so that sweeps are reproducible without any flags.
DEFAULT_SEED = 1729
RANDOM_TUPLES = 50  # per rank combination whenever a junction rank > 3


def _unit_twists(r: int) -> list[int]:
    """The twists a node of rank r admits: the units mod r."""
    return [k for k in range(r) if math.gcd(k, r) == 1]


def _grid(shapes, max_components: int, max_rank: int):
    """Every shape of the given kinds with 1..max_components components
    and ranks 1..max_rank: kinds in the given order, then component
    count, then rank tuples in lexicographic order."""
    for shape in shapes:
        for n in range(1, max_components + 1):
            count = Shape.rank_count(shape, n)
            for ranks in itertools.product(range(1, max_rank + 1), repeat=count):
                yield Shape(shape, ranks)


def gluing_sweep(max_components: int, max_rank: int) -> list:
    """Every linear and circular gluing in the grid: junction
    permutations exhaustive while every junction rank is at most three,
    ``RANDOM_TUPLES`` seeded random tuples per rank combination
    otherwise, drawn at ``DEFAULT_SEED``."""
    rng = random.Random(DEFAULT_SEED)
    out = []
    for s in _grid((LINEAR, CIRCULAR), max_components, max_rank):
        jr = s.node_ranks()
        if not jr or max(jr) <= 3:
            tuples = itertools.product(*(all_permutations(r) for r in jr))
        else:
            tuples = (
                tuple(random_permutation(r, rng) for r in jr)
                for _ in range(RANDOM_TUPLES)
            )
        out.extend(GluingSpec(s.shape, s.ranks, ps) for ps in tuples)
    return out


def curve_sweep(max_components: int, max_rank: int) -> list:
    """Every chain and ring in the grid with every valid twist."""
    out = []
    for s in _grid((CHAIN, RING), max_components, max_rank):
        pools = (_unit_twists(r) for r in s.node_ranks())
        out.extend(
            StackyCurveSpec(s.shape, s.ranks, tw) for tw in itertools.product(*pools)
        )
    return out


def _random_shape(rng: random.Random, shapes) -> Shape:
    shape = rng.choice(shapes)
    count = Shape.rank_count(shape, rng.randint(1, 3))
    return Shape(shape, tuple(rng.randint(1, 4) for _ in range(count)))


def random_gluing(rng: random.Random) -> GluingSpec:
    """A linear or circular gluing with uniform random permutations."""
    s = _random_shape(rng, [LINEAR, CIRCULAR])
    perms = tuple(random_permutation(r, rng) for r in s.node_ranks())
    return GluingSpec(s.shape, s.ranks, perms)


def random_curve(rng: random.Random) -> StackyCurveSpec:
    """A chain or ring with a uniform random valid twist at each node."""
    s = _random_shape(rng, [CHAIN, RING])
    twists = tuple(rng.choice(_unit_twists(r)) for r in s.node_ranks())
    return StackyCurveSpec(s.shape, s.ranks, twists)
