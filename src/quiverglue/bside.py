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

Every vertex id and arrow index follows from the curve and the window
origins by index arithmetic, which _Numbering holds: build_bside fills
the quiver's int arrays from it, and the quiver asks it for labels,
shifts and names only when something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    q = GradedQuiver._numbered(_Numbering(c, window_origins(c, bases)))
    if not q.is_acyclic():
        raise FalsificationError("exceptional-collection quiver came out cyclic")
    return q


@dataclass(frozen=True)
class _Numbering:
    """The vertex ids and arrow indices of a curve's collection quiver at
    the window origins ``base``.

    Component i takes a block of r_minus + r_plus vertex ids: x-row
    slot 0 (which is y-row slot 0), x-row slots 1..r_minus-1, y-row
    slots 1..r_plus-1, then the sink that ends both rows.  Its arrows
    x(i,0..r_minus-1), then y(i,0..r_plus-1), are as many, so the block
    starts at the same number among the vertex ids and the arrow
    indices.  After the components, node i gives its classes S(i,0..r-1)
    the next vertex ids, and its arrows b(i,0..r-1), then a(i,0..r-1),
    the next arrow indices.  The rows are numbered as aside numbers
    its chains, but written out apart: verify_theorem_A matches the two
    quivers as independent constructions, by the vertex ids of
    mirror._correspondence_ids, which a test checks against the labels.
    """

    c: StackyCurveSpec
    base: dict

    def arrays(self):
        """The vertex count, and each arrow's source, target and degree,
        and the relations as arrow-index pairs, in this numbering."""
        c, base = self.c, self.base
        src, tgt, rows = [], [], []
        for rm, rp in c.side_ranks():
            v = len(src)  # the block's first vertex id and first arrow index
            sink = v + rm + rp - 1
            xs = [v, *range(v + 1, v + rm), sink]  # x-row slots 0..rm
            ys = [v, *range(v + rm, sink), sink]  # y-row slots 0..rp
            src += xs[:-1]
            tgt += xs[1:]
            src += ys[:-1]
            tgt += ys[1:]
            rows.append((xs, ys, v, v + rm))  # and the indices of x(i,0), y(i,0)
        n, relations = len(src), []
        for i, (k, r) in enumerate(zip(c.twists, c.node_ranks())):
            nxt = (i + 1) % len(rows)  # node i + 1 joins rows[i] to the next
            jn, mi = base[nxt + 1][0], base[i + 1][1]
            xs, _, x0, _ = rows[nxt]
            _, ys, _, y0 = rows[i]
            b = len(src)
            src += [n + (-jn - j - 1) % r for j in range(r)]
            src += [n + (-k * (mi + m + 1)) % r for m in range(r)]
            tgt += xs[:r]
            tgt += ys[:r]
            relations += zip(range(b, b + r), range(x0, x0 + r))
            relations += zip(range(b + r, b + 2 * r), range(y0, y0 + r))
            n += r
        return n, src, tgt, (0,) * len(src), relations

    def vertex_labels(self) -> tuple:
        c, labels = self.c, []
        for i in c.components():
            rm, rp = c.minus_rank(i), c.plus_rank(i)
            ji, mi = self.base[i]
            labels.append((("P", i, ji, mi),))
            labels += [(("P", i, ji + t, mi),) for t in range(1, rm)]
            labels += [(("P", i, ji, mi + s),) for s in range(1, rp)]
            labels.append((("P", i, ji + rm, mi), ("P", i, ji, mi + rp)))
        for i in c.junctions():
            labels += [(("S", i, cls),) for cls in range(c.junction_rank(i))]
        return tuple(labels)

    def vertex_shifts(self) -> tuple:
        c = self.c
        rows = sum(c.minus_rank(i) + c.plus_rank(i) for i in c.components())
        return (0,) * rows + (-1,) * sum(c.node_ranks())

    def arrow_names(self) -> tuple:
        c, names = self.c, []
        for i in c.components():
            names += [("x", i, t) for t in range(c.minus_rank(i))]
            names += [("y", i, s) for s in range(c.plus_rank(i))]
        for i in c.junctions():
            r = c.junction_rank(i)
            names += [("b", i, j) for j in range(r)]
            names += [("a", i, m) for m in range(r)]
        return tuple(names)
