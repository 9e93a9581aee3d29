"""An explicit cell-complex model of the glued surface, used as an
independent oracle for genus and boundary data.

The surface is assembled exactly as described by a :class:`GluingSpec`:
one rectangular face per annulus, its two long sides carrying the
boundary arcs (alternating glue slots and marked gap arcs when that side
meets a junction, plain marked arcs when it stays free) and its short
sides glued to each other to close the annulus; plus one quadrilateral
face per strip of each junction, glued slot-to-slot.  The darts of each
face are one run of consecutive ids in face order: an annulus reads its
bottom arcs left to right, the right seam, its top arcs right to left
and the left seam; the annuli come first, by component, then the strips,
by junction.  Everything downstream (vertex count, Euler characteristic,
boundary walks) is pure combinatorics on the resulting darts, with no
input from the predicted formulas it is meant to check.  Vertices are
counted as the orbits of the corner turn (see
:meth:`CombinatorialMap.num_vertices`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .gluing import GluingSpec, SurfaceTopology


@dataclass(frozen=True)
class CombinatorialMap:
    """Faces as cyclic dart sequences plus a partial gluing involution.

    Dart d runs from endpoint slot 2d (tail) to 2d+1 (head); paired
    darts are identified with opposite orientations, and a free dart has
    ``pair[d] < 0``.  Each slot meets one slot of its face (the head of
    d is the tail of the next dart) and at most one across an edge, so a
    vertex is a chain or a cycle of corners, counted as one orbit of the
    corner turn.  The methods read any numbering of the darts; a map from
    :func:`build_map` numbers each face as one run, so there
    ``next_in_face[d]`` is d + 1 except at the last dart of a face.
    """

    next_in_face: list[int]
    pair: list[int]
    marked: list[bool]
    faces: list[Sequence[int]]

    @property
    def num_darts(self) -> int:
        return len(self.next_in_face)

    def num_vertices(self) -> int:
        """Orbits of the corner turn d -> pair[next_in_face[d]].

        The corner after dart d crosses the edge next(d) to the corner
        after that edge's partner.  The turn is injective, undefined
        exactly where next(d) is free, and lands only on paired darts;
        so each free dart starts one open orbit, and every dart that
        those orbits miss lies on a closed cycle.
        """
        return self._vertices([d for d, e in enumerate(self.pair) if e < 0])

    def _vertices(self, free) -> int:
        """The orbit count of :meth:`num_vertices`, given the free darts."""
        nxt, pair = self.next_in_face, self.pair
        seen = bytearray(len(nxt))
        for d in free:  # each open orbit, walked from its start
            while d >= 0 and not seen[d]:
                seen[d] = 1
                d = pair[nxt[d]]
        orbits = len(free)
        d = seen.find(0)
        while d >= 0:  # each closed cycle, from its least dart
            orbits += 1
            while d >= 0 and not seen[d]:
                seen[d] = 1
                d = pair[nxt[d]]
            d = seen.find(0, d)
        return orbits

    def num_edges(self) -> int:
        return self._edges(sum(1 for e in self.pair if e < 0))

    def _edges(self, free: int) -> int:
        """Each free dart is an edge of its own; the rest pair up."""
        return free + (self.num_darts - free) // 2

    def euler_characteristic(self) -> int:
        return self.num_vertices() - self.num_edges() + len(self.faces)

    def boundary_components(self) -> list[list[int]]:
        """Free darts grouped into boundary walks: after a free dart
        comes the next free dart met by turning through its face, and
        through the partner's face at each paired dart."""
        nxt, pair = self.next_in_face, self.pair
        seen = bytearray(len(pair))
        walks = []
        for d, e in enumerate(pair):
            if e >= 0 or seen[d]:
                continue
            walk = []
            while not seen[d]:
                seen[d] = 1
                walk.append(d)
                d = nxt[d]
                while pair[d] >= 0:
                    d = nxt[pair[d]]
            walks.append(walk)
        return walks

    def topology(self) -> SurfaceTopology:
        """Boundary marks and Euler characteristic from one boundary walk:
        its darts are exactly the free darts, which give the edge count
        and start the open vertex orbits."""
        walks = self.boundary_components()
        free = [d for walk in walks for d in walk]
        chi = self._vertices(free) - self._edges(len(free)) + len(self.faces)
        mark = self.marked.__getitem__
        marks = [sum(map(mark, walk)) for walk in walks]
        return SurfaceTopology.measured(marks, chi, "the oracle")


def build_map(g: GluingSpec) -> CombinatorialMap:
    """The cell complex of ``g``, each face's darts one run of ids.

    A glued side has 2r arcs, slot k at offset 2k with its marked gap
    after it, and a free side r marked arcs.  An annulus reads its top
    arcs right to left, so minus slot k of a side of rank r sits at
    offset 2r - 1 - 2k from its first top arc.  Strip j of a junction of
    rank r glues its first dart to plus slot r - 1 - j and its third to
    minus slot r - 1 - sigma(j) of the next component.
    """
    nxt: list[int] = []
    marked: list[bool] = []
    faces: list[Sequence[int]] = []
    sides: dict[int, tuple[int, int]] = {}  # component -> first bottom, top arc
    for i in g.components():
        b = len(nxt)
        r = g.plus_rank(i)
        marked += [False, True] * r if g.junction_after(i) is not None else [True] * r
        marked.append(False)  # right seam
        sides[i] = b, len(marked)
        r = g.minus_rank(i)
        marked += [True, False] * r if g.junction_before(i) is not None else [True] * r
        marked.append(False)  # left seam
        nxt += range(b + 1, len(marked))
        nxt.append(b)
        faces.append(range(b, len(marked)))

    strips = len(nxt)
    n = strips + 4 * sum(g.node_ranks())
    nxt += range(strips + 1, n + 1)
    nxt[strips + 3 :: 4] = range(strips, n, 4)
    faces += map(range, range(strips, n, 4), range(strips + 4, n + 4, 4))
    marked += [False] * (n - strips)
    pair = [-1] * n
    for (_, t0), face in zip(sides.values(), faces):  # right seam to left seam
        pair[t0 - 1], pair[face[-1]] = face[-1], t0 - 1
    q0 = strips
    for i in g.junctions():
        sigma = g.perm(i).image
        r, b, t0 = len(sigma), sides[i][0], sides[g.next_component(i)][1]
        q1 = q0 + 4 * r
        # plus slot r-1-j at b + 2(r-1-j); minus slot r-1-s at t0 + 2s + 1
        pair[q0:q1:4] = range(b + 2 * r - 2, b - 2, -2)
        pair[b : b + 2 * r : 2] = range(q1 - 4, q0 - 4, -4)
        for q, s in zip(range(q0 + 2, q1, 4), sigma):
            pair[q], pair[t0 + 2 * s + 1] = t0 + 2 * s + 1, q
        q0 = q1
    return CombinatorialMap(nxt, pair, marked, faces)


def surface_topology(g: GluingSpec) -> SurfaceTopology:
    """Oracle topology: build the cell complex and measure it."""
    return build_map(g).topology()
