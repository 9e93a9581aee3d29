"""Generator quivers of the glued surfaces.

One component of rank pair (r_minus, r_plus) contributes two arrow
chains P-(i,0) -> ... -> P-(i,r_minus) and P+(i,0) -> ... ->
P+(i,r_plus) sharing their first and last vertices.  Each junction
layer adds source vertices S(i,j) with two outgoing arrows: a(i,j) into
the plus chain of component i at position j, and b(i,j) into the minus
chain of the next component at position r_i - 1 - sigma_i(j).  The only
relations kill the composites y∘a and x∘b.  All arrows sit in degree 0.
"""

from __future__ import annotations

from .errors import FalsificationError
from .gluing import GluingSpec
from .quiver import GradedQuiver


def build_aside(g: GluingSpec) -> GradedQuiver:
    """The generator quiver of a gluing."""
    relations = []
    q = GradedQuiver(_vertices(g), _arrows(g, relations), relations)
    if not q.is_acyclic():
        raise FalsificationError("generator quiver came out cyclic")
    return q


def _vertices(g: GluingSpec):
    for i in g.components():
        rm, rp = g.minus_rank(i), g.plus_rank(i)
        yield (("P-", i, 0), ("P+", i, 0)), 0
        yield from (((("P-", i, j),), 0) for j in range(1, rm))
        yield from (((("P+", i, j),), 0) for j in range(1, rp))
        yield (("P-", i, rm), ("P+", i, rp)), 0
    for i in g.junctions():
        for j in range(g.junction_rank(i)):
            yield (("S", i, j),), 0


def _arrows(g: GluingSpec, relations: list):
    """Chain arrows, then the a- and b-arrows of each junction; each
    of those appends (itself, the chain arrow it kills) to ``relations``."""
    for i in g.components():
        for j in range(g.minus_rank(i)):
            yield ("x", i, j), ("P-", i, j), ("P-", i, j + 1), 0
        for j in range(g.plus_rank(i)):
            yield ("y", i, j), ("P+", i, j), ("P+", i, j + 1), 0
    for i in g.junctions():
        r = g.junction_rank(i)
        sigma = g.perm(i)
        nxt = g.next_component(i)
        for j in range(r):
            k = r - 1 - sigma(j)
            a, b = ("a", i, j), ("b", i, j)
            relations += (a, ("y", i, j)), (b, ("x", nxt, k))
            yield a, ("S", i, j), ("P+", i, j), 0
            yield b, ("S", i, j), ("P-", nxt, k), 0


def object_count(g: GluingSpec) -> int:
    """Closed-form generator count: three per strip of each junction,
    plus the end ranks r_0 + r_n of an open gluing."""
    if g.closed:
        return 3 * sum(g.node_ranks())
    return g.ranks[0] + 3 * sum(g.node_ranks()) + g.ranks[-1]
