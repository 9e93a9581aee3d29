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
:meth:`CombinatorialMap.num_vertices`); :meth:`CombinatorialMap.topology`
counts them, the edges and the boundary marks in one walk of the
boundary plus one of the closed orbits, on any numbering of the darts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import SpecError, exact_ints, exact_items
from .gluing import GluingSpec, SurfaceTopology


@dataclass(frozen=True)
class CombinatorialMap:
    """Faces as cyclic dart sequences plus a partial gluing involution.

    Dart d runs from endpoint slot 2d (tail) to 2d+1 (head); paired
    darts are identified with opposite orientations, and a free dart has
    ``pair[d] == -1``.  Each slot meets one slot of its face (the head of
    d is the tail of the next dart) and at most one across an edge, so a
    vertex is a chain or a cycle of corners, counted as one orbit of the
    corner turn.  The methods read any numbering of the darts; a map from
    :func:`build_map` numbers each face as one run, so there
    ``next_in_face[d]`` is d + 1 except at the last dart of a face.

    The constructor raises SpecError unless ``next_in_face`` is a
    permutation of the darts, ``pair`` a fixed-point-free involution on
    the paired darts, ``marked`` one flag per dart and ``faces`` each
    cycle of ``next_in_face`` once, in order; then every walk of the
    methods ends, and the map keeps copies of the lists it checked.
    """

    next_in_face: list[int]
    pair: list[int]
    marked: list[bool]
    faces: list[Sequence[int]]

    def __post_init__(self) -> None:
        message = "{name} must hold integer dart ids, got {value!r}"
        nxt = exact_ints(self.next_in_face, message, name="next_in_face")
        pair = exact_ints(self.pair, message, name="pair")
        n = len(nxt)
        if sorted(nxt) != list(range(n)):
            raise SpecError(f"next_in_face is not a permutation of the {n} darts")
        if len(pair) != n:
            raise SpecError(f"pair has {len(pair)} entries for {n} darts")
        for d, e in enumerate(pair):
            if e != -1 and not (0 <= e < n and e != d and pair[e] == d):
                raise SpecError(f"pair sends dart {d} to {e}: not a fixed-point-free "
                                f"involution on the paired darts (-1 marks a free dart)")
        if len(self.marked) != n:
            raise SpecError(f"marked has {len(self.marked)} flags for {n} darts")
        given = exact_items(self.faces, "faces must be a sequence, got {value!r}")
        faces = [exact_ints(face, message, name="faces") for face in given]
        if sorted(d for face in faces for d in face) != list(range(n)) or not all(
                face and list(map(nxt.__getitem__, face)) == [*face[1:], face[0]]
                for face in faces):
            raise SpecError("faces must list each cycle of next_in_face once, in order")
        # its own lists; a face that is a range, as build_map's are, cannot change
        vars(self).update(next_in_face=list(nxt), pair=list(pair), marked=list(self.marked),
                          faces=[f if type(f) is range else list(ints)
                                 for f, ints in zip(given, faces)])

    @classmethod
    def _built(cls, next_in_face, pair, marked, faces) -> "CombinatorialMap":
        """A map that build_map made, which holds by construction and
        owns its lists: the constructor's checks and copies are skipped."""
        m = object.__new__(cls)
        vars(m).update(next_in_face=next_in_face, pair=pair, marked=marked, faces=faces)
        return m

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
        nxt, pair = self.next_in_face, self.pair
        free = [d for d, e in enumerate(pair) if e < 0]
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
        """Each free dart is an edge of its own; the rest pair up."""
        free = sum(1 for e in self.pair if e < 0)
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
        """Boundary marks and Euler characteristic from one walk of the
        boundary.  After a free dart f the walk turns through the corners
        of f's open vertex orbit, f, pair[next(f)], ..., until it meets
        the next free dart; so marking each dart it turns through marks
        every open orbit, the free darts it counts give the edges and the
        open orbits, and only the darts left unmarked, which lie on
        closed orbits, are walked again."""
        nxt, pair, marked = self.next_in_face, self.pair, self.marked
        seen = bytearray(len(pair))
        marks, free = [], 0
        for d, e in enumerate(pair):
            if e >= 0 or seen[d]:
                continue
            count = 0
            while not seen[d]:  # d is free; turn through its open orbit
                seen[d] = 1
                free += 1
                count += marked[d]
                d = nxt[d]
                e = pair[d]
                while e >= 0:
                    seen[e] = 1
                    d = nxt[e]
                    e = pair[d]
            marks.append(count)
        closed = 0
        d = seen.find(0)
        while d >= 0:  # each closed orbit, from its least dart
            closed += 1
            while not seen[d]:
                seen[d] = 1
                d = pair[nxt[d]]
            d = seen.find(0, d)
        # vertices free + closed, edges free + (darts - free) / 2
        chi = closed - (len(pair) - free) // 2 + len(self.faces)
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
    sides: list[tuple[int, int]] = []  # each annulus's first bottom, top arc
    closed, last = g.closed, g.n_components - 1
    for k, (rm, rp) in enumerate(g.side_ranks()):
        b = len(nxt)
        marked += [False, True] * rp if closed or k < last else [True] * rp
        marked.append(False)  # right seam
        sides.append((b, len(marked)))
        marked += [True, False] * rm if closed or k else [True] * rm
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
    for (_, t0), face in zip(sides, faces):  # right seam to left seam
        pair[t0 - 1], pair[face[-1]] = face[-1], t0 - 1
    q0 = strips
    for i, p in enumerate(g.perms):  # junction i + 1 joins sides[i] to the next
        sigma = p.image
        r, b, t0 = len(sigma), sides[i][0], sides[(i + 1) % len(sides)][1]
        q1 = q0 + 4 * r
        # plus slot r-1-j at b + 2(r-1-j); minus slot r-1-s at t0 + 2s + 1
        pair[q0:q1:4] = range(b + 2 * r - 2, b - 2, -2)
        pair[b : b + 2 * r : 2] = range(q1 - 4, q0 - 4, -4)
        for q, s in zip(range(q0 + 2, q1, 4), sigma):
            pair[q], pair[t0 + 2 * s + 1] = t0 + 2 * s + 1, q
        q0 = q1
    return CombinatorialMap._built(nxt, pair, marked, faces)


def surface_topology(g: GluingSpec) -> SurfaceTopology:
    """Oracle topology: build the cell complex and measure it."""
    return build_map(g).topology()
