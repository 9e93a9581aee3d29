"""Generator quivers of the glued surfaces.

One component of rank pair (r_minus, r_plus) contributes two arrow
chains P-(i,0) -> ... -> P-(i,r_minus) and P+(i,0) -> ... ->
P+(i,r_plus) sharing their first and last vertices.  Each junction
layer adds source vertices S(i,j) with two outgoing arrows: a(i,j) into
the plus chain of component i at position j, and b(i,j) into the minus
chain of the next component at position r_i - 1 - sigma_i(j).  The only
relations kill the composites y∘a and x∘b.  All arrows sit in degree 0.

Every vertex id and arrow index follows from the gluing by index
arithmetic, which _Numbering holds: build_aside fills the quiver's int
arrays from it, and the quiver asks it for labels and names only when
something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FalsificationError
from .gluing import GluingSpec
from .quiver import GradedQuiver


def build_aside(g: GluingSpec) -> GradedQuiver:
    """The generator quiver of a gluing."""
    q = GradedQuiver._numbered(_Numbering(g))
    if not q.is_acyclic():
        raise FalsificationError("generator quiver came out cyclic")
    return q


@dataclass(frozen=True)
class _Numbering:
    """The vertex ids and arrow indices of a gluing's generator quiver.

    Component i takes a block of r_minus + r_plus vertex ids: P±(i,0),
    then P-(i,1..r_minus-1), then P+(i,1..r_plus-1), then the shared end
    P-(i,r_minus) = P+(i,r_plus).  Its arrows x(i,0..r_minus-1), then
    y(i,0..r_plus-1), are as many, so the block starts at the same
    number among the vertex ids and the arrow indices.  After the
    components, junction i gives strip j the vertex id of S(i,j), in
    turn, and the arrow indices of a(i,j) and b(i,j), in turn.
    """

    g: GluingSpec

    def arrays(self):
        """The vertex count, and each arrow's source, target and degree,
        and the relations as arrow-index pairs, in this numbering."""
        src, tgt, rows = [], [], []
        for rm, rp in self.g.side_ranks():
            v = len(src)  # the block's first vertex id and first arrow index
            end = v + rm + rp - 1
            xs = [v, *range(v + 1, v + rm), end]  # P-(i,0..rm)
            ys = [v, *range(v + rm, end), end]  # P+(i,0..rp)
            src += xs[:-1]
            tgt += xs[1:]
            src += ys[:-1]
            tgt += ys[1:]
            rows.append((xs, ys, v, v + rm))  # and the indices of x(i,0), y(i,0)
        n, relations = len(src), []
        for i, p in enumerate(self.g.perms):  # junction i + 1 joins rows[i] to the next
            sigma = p.image
            r = len(sigma)
            _, ys, _, y0 = rows[i]
            xs, _, x0, _ = rows[(i + 1) % len(rows)]
            for j, s in enumerate(range(n, n + r)):
                k = r - 1 - sigma[j]
                a = len(src)
                src += s, s
                tgt += ys[j], xs[k]
                relations += (a, y0 + j), (a + 1, x0 + k)
            n += r
        return n, src, tgt, (0,) * len(src), relations

    def vertex_labels(self) -> tuple:
        g, labels = self.g, []
        for i in g.components():
            rm, rp = g.minus_rank(i), g.plus_rank(i)
            labels.append((("P-", i, 0), ("P+", i, 0)))
            labels += [(("P-", i, j),) for j in range(1, rm)]
            labels += [(("P+", i, j),) for j in range(1, rp)]
            labels.append((("P-", i, rm), ("P+", i, rp)))
        for i in g.junctions():
            labels += [(("S", i, j),) for j in range(g.junction_rank(i))]
        return tuple(labels)

    def vertex_shifts(self) -> tuple:
        g = self.g
        rows = sum(g.minus_rank(i) + g.plus_rank(i) for i in g.components())
        return (0,) * (rows + sum(g.node_ranks()))

    def arrow_names(self) -> tuple:
        g, names = self.g, []
        for i in g.components():
            names += [("x", i, j) for j in range(g.minus_rank(i))]
            names += [("y", i, j) for j in range(g.plus_rank(i))]
        for i in g.junctions():
            for j in range(g.junction_rank(i)):
                names += ("a", i, j), ("b", i, j)
        return tuple(names)


def object_count(g: GluingSpec) -> int:
    """Closed-form generator count: three per strip of each junction,
    plus the free end ranks r_0 + r_n of an open gluing."""
    return 3 * sum(g.node_ranks()) + sum(g.free_ranks)
