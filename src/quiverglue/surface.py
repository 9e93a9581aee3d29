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
formulas it is meant to check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FalsificationError
from .gluing import GluingSpec, SurfaceTopology


class _DisjointSet:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


@dataclass
class CombinatorialMap:
    """Faces as cyclic dart sequences plus a partial gluing involution.

    Dart d runs from endpoint slot 2d (tail) to 2d+1 (head); paired
    darts are identified with opposite orientations.
    """

    next_in_face: list[int]
    pair: list[int]
    marked: list[bool]
    faces: list[list[int]]

    @property
    def num_darts(self) -> int:
        return len(self.next_in_face)

    def num_vertices(self) -> int:
        ds = _DisjointSet(2 * self.num_darts)
        for face in self.faces:
            for d, e in zip(face, face[1:] + face[:1]):
                ds.union(2 * d + 1, 2 * e)
        for d, e in enumerate(self.pair):
            if e >= 0:
                ds.union(2 * d, 2 * e + 1)
                ds.union(2 * d + 1, 2 * e)
        return len({ds.find(x) for x in range(2 * self.num_darts)})

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
        chi = self.euler_characteristic()
        marks = tuple(
            sum(1 for d in walk if self.marked[d])
            for walk in self.boundary_components()
        )
        genus2 = 2 - len(marks) - chi
        if genus2 % 2:
            raise FalsificationError("non-orientable or broken complex")
        return SurfaceTopology(
            genus=genus2 // 2,
            boundary_marks=marks,
            euler_characteristic=chi,
        )


class _Builder:
    def __init__(self) -> None:
        self.next_in_face: list[int] = []
        self.pair: list[int] = []
        self.marked: list[bool] = []
        self.faces: list[list[int]] = []

    def dart(self, marked: bool = False) -> int:
        d = len(self.pair)
        self.next_in_face.append(-1)
        self.pair.append(-1)
        self.marked.append(marked)
        return d

    def face(self, darts: list[int]) -> None:
        for d, e in zip(darts, darts[1:] + darts[:1]):
            self.next_in_face[d] = e
        self.faces.append(darts)

    def glue(self, d: int, e: int) -> None:
        self.pair[d] = e
        self.pair[e] = d

    def done(self) -> CombinatorialMap:
        return CombinatorialMap(
            self.next_in_face, self.pair, self.marked, self.faces
        )


def build_map(g: GluingSpec) -> CombinatorialMap:
    b = _Builder()
    plus_slots: dict[int, list[int]] = {}
    minus_slots: dict[int, list[int]] = {}

    def side(r: int, glued: bool, store: list[int]) -> list[int]:
        # Arcs left to right; glued sides alternate slot, marked gap.
        arcs = []
        for _ in range(r):
            if glued:
                slot = b.dart()
                store.append(slot)
                arcs.append(slot)
            arcs.append(b.dart(marked=True))
        return arcs

    for i in g.components():
        plus_slots[i] = []
        minus_slots[i] = []
        bottom = side(g.plus_rank(i), g.junction_after(i) is not None, plus_slots[i])
        top = side(g.minus_rank(i), g.junction_before(i) is not None, minus_slots[i])
        seam_r = b.dart()
        seam_l = b.dart()
        b.face(bottom + [seam_r] + top[::-1] + [seam_l])
        b.glue(seam_r, seam_l)

    for i in g.junctions():
        r = g.junction_rank(i)
        sigma = g.perm(i)
        nxt = g.next_component(i)
        for j in range(r):
            a, f1, bb, f2 = b.dart(), b.dart(), b.dart(), b.dart()
            b.face([a, f1, bb, f2])
            b.glue(a, plus_slots[i][r - 1 - j])
            b.glue(bb, minus_slots[nxt][r - 1 - sigma(j)])
    return b.done()


def surface_topology(g: GluingSpec) -> SurfaceTopology:
    """Oracle topology: build the cell complex and measure it."""
    return build_map(g).topology()
