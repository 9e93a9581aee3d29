"""An explicit cell-complex model of the glued surface, used as an
independent oracle for genus and boundary data.

The surface is assembled exactly as described by a :class:`GluingSpec`:
one rectangular face per annulus, its two long sides carrying the
boundary arcs (alternating glue slots and marked gap arcs when that side
meets a junction, plain marked arcs when it stays free) and its short
sides glued to each other to close the annulus; plus one quadrilateral
face per strip of each junction, glued slot-to-slot.  Everything
downstream (vertex count, Euler characteristic, boundary walks) is pure
combinatorics on the resulting darts, with no input from the predicted
formulas it is meant to check.  Vertices are counted as the orbits of
the corner turn (see :meth:`CombinatorialMap.num_vertices`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .gluing import GluingSpec, SurfaceTopology


@dataclass
class CombinatorialMap:
    """Faces as cyclic dart sequences plus a partial gluing involution.

    Dart d runs from endpoint slot 2d (tail) to 2d+1 (head); paired
    darts are identified with opposite orientations.  Each slot meets
    one slot of its face (the head of d is the tail of the next dart)
    and at most one across an edge, so a vertex is a chain or a cycle
    of corners, counted as one orbit of the corner turn.
    """

    next_in_face: list[int]
    pair: list[int]
    marked: list[bool]
    faces: list[list[int]]

    @property
    def num_darts(self) -> int:
        return len(self.next_in_face)

    def num_vertices(self) -> int:
        """Orbits of the corner turn d -> pair[next_in_face[d]].

        The corner after dart d crosses the edge next(d) to the corner
        after that edge's partner.  The turn is injective, undefined
        exactly where next(d) is free, and lands only on paired darts;
        so each free dart starts one open orbit, and every other dart
        lies on one open orbit or on a closed cycle.
        """
        nxt, pair = self.next_in_face, self.pair
        seen = [False] * self.num_darts
        orbits = 0
        # Free darts first, so that each open orbit is walked from its start.
        free = [d for d, e in enumerate(pair) if e < 0]
        for d in free + list(range(self.num_darts)):
            if seen[d]:
                continue
            orbits += 1
            while d >= 0 and not seen[d]:
                seen[d] = True
                d = pair[nxt[d]]
        return orbits

    def num_edges(self) -> int:
        free = sum(1 for e in self.pair if e < 0)
        return free + (self.num_darts - free) // 2

    def euler_characteristic(self) -> int:
        return self.num_vertices() - self.num_edges() + len(self.faces)

    def _next_boundary(self, d: int) -> int:
        e = self.next_in_face[d]
        while self.pair[e] >= 0:
            e = self.next_in_face[self.pair[e]]
        return e

    def boundary_components(self) -> list[list[int]]:
        """Free darts grouped into boundary walks."""
        seen = set()
        walks = []
        for d in range(self.num_darts):
            if self.pair[d] >= 0 or d in seen:
                continue
            walk = []
            e = d
            while e not in seen:
                seen.add(e)
                walk.append(e)
                e = self._next_boundary(e)
            walks.append(walk)
        return walks

    def topology(self) -> SurfaceTopology:
        marks = tuple(
            sum(1 for d in walk if self.marked[d])
            for walk in self.boundary_components()
        )
        return SurfaceTopology.measured(marks, self.euler_characteristic(), "the oracle")


def build_map(g: GluingSpec) -> CombinatorialMap:
    next_in_face: list[int] = []
    pair: list[int] = []
    marked: list[bool] = []
    faces: list[list[int]] = []

    def dart(mark: bool = False) -> int:
        next_in_face.append(-1)
        pair.append(-1)
        marked.append(mark)
        return len(pair) - 1

    def face(darts: list[int]) -> None:
        for d, e in zip(darts, darts[1:] + darts[:1]):
            next_in_face[d] = e
        faces.append(darts)

    def glue(d: int, e: int) -> None:
        pair[d] = e
        pair[e] = d

    def side(r: int, glued: bool, store: list[int]) -> list[int]:
        # Arcs left to right; glued sides alternate slot, marked gap.
        arcs = []
        for _ in range(r):
            if glued:
                slot = dart()
                store.append(slot)
                arcs.append(slot)
            arcs.append(dart(mark=True))
        return arcs

    plus_slots: dict[int, list[int]] = {}
    minus_slots: dict[int, list[int]] = {}
    for i in g.components():
        plus_slots[i] = []
        minus_slots[i] = []
        bottom = side(g.plus_rank(i), g.junction_after(i) is not None, plus_slots[i])
        top = side(g.minus_rank(i), g.junction_before(i) is not None, minus_slots[i])
        seam_r = dart()
        seam_l = dart()
        face(bottom + [seam_r] + top[::-1] + [seam_l])
        glue(seam_r, seam_l)

    for i in g.junctions():
        r = g.junction_rank(i)
        sigma = g.perm(i)
        nxt = g.next_component(i)
        for j in range(r):
            a, f1, bb, f2 = dart(), dart(), dart(), dart()
            face([a, f1, bb, f2])
            glue(a, plus_slots[i][r - 1 - j])
            glue(bb, minus_slots[nxt][r - 1 - sigma(j)])
    return CombinatorialMap(next_in_face, pair, marked, faces)


def surface_topology(g: GluingSpec) -> SurfaceTopology:
    """Oracle topology: build the cell complex and measure it."""
    return build_map(g).topology()
