"""Exceptional-collection quivers of stacky chains and rings.

Component i carries the collection based at a window origin (j_i, m_i):
an x-row P(i, j_i .. j_i+r_minus, m_i) and a y-row P(i, j_i, m_i ..
m_i+r_plus) that share their first vertex, with the far endpoints
identified into a single sink.  Node i contributes twist classes
S(i, c), c mod r_i, at shift -1, each with exactly two outgoing arrows:

    b(i, j): S(i, -j_{i+1} - j - 1) -> x-row slot j of component i+1
    a(i, m): S(i, -k_i (m_i + m + 1)) -> y-row slot m of component i

Relations are x∘b = 0 and y∘a = 0 at the matching slots.  Row arrows
are labeled by slot, so x(i, t) leaves x-row slot t regardless of the
window origin; with the default base (0, -1) slots and absolute
coordinates coincide.
"""

from __future__ import annotations

from .errors import FalsificationError
from .gluing import DEFAULT_BASE  # noqa: F401  (a public name of this module)
from .gluing import StackyCurveSpec, window_origins
from .quiver import GradedQuiver


def build_bside(
    c: StackyCurveSpec,
    bases: dict[int, tuple[int, int]] | None = None,
) -> GradedQuiver:
    """Quiver of the exceptional collection of a chain or ring, over a
    per-component choice of window origin (default (0, -1) for all).
    """
    base = window_origins(c, bases)
    q = GradedQuiver()
    for i in c.components():
        rm, rp = c.minus_rank(i), c.plus_rank(i)
        ji, mi = base[i]
        q.add_vertex(("P", i, ji, mi))
        for t in range(1, rm):
            q.add_vertex(("P", i, ji + t, mi))
        for s in range(1, rp):
            q.add_vertex(("P", i, ji, mi + s))
        q.add_vertex(("P", i, ji + rm, mi), ("P", i, ji, mi + rp))
        for t in range(rm):
            q.add_arrow(("x", i, t), ("P", i, ji + t, mi), ("P", i, ji + t + 1, mi))
        for s in range(rp):
            q.add_arrow(("y", i, s), ("P", i, ji, mi + s), ("P", i, ji, mi + s + 1))

    for i, k in zip(c.junctions(), c.twists):
        r = c.junction_rank(i)
        nxt = c.next_component(i)
        jn, mn = base[nxt]
        ji, mi = base[i]
        for cls in range(r):
            q.add_vertex(("S", i, cls), shift=-1)
        for j in range(r):
            q.add_arrow(
                ("b", i, j), ("S", i, (-jn - j - 1) % r), ("P", nxt, jn + j, mn)
            )
            q.add_relation(("b", i, j), ("x", nxt, j))
        for m in range(r):
            q.add_arrow(
                ("a", i, m), ("S", i, (-k * (mi + m + 1)) % r), ("P", i, ji, mi + m)
            )
            q.add_relation(("a", i, m), ("y", i, m))
    if not q.is_acyclic():
        raise FalsificationError("exceptional-collection quiver came out cyclic")
    q.curve = c
    return q
