"""Graded quivers with quadratic monomial relations.

This is the shared representation for every endomorphism algebra in the
package: vertices (with optional alias labels and a shift tag), arrows
carrying integer degrees, and relations that are always of the form
"g after f is zero" for a composable arrow pair (f, g).  Vertex and
arrow names are structured tuples like ``("P-", 1, 0)`` or
``("x", 1, 2)``; :func:`label_str` renders them for reports.

A quiver is built once from its vertices, arrows and relations and is
immutable afterwards; aside and bside hand it their vertices and
arrows as generators, and a relations list that the arrows fill.
Each vertex keeps its out- and in-arrows.  A path is a tuple of arrow
names, and this module alone reads one: it composes paths, grades
them and traces their endpoints for the rest of the package.  One
depth-first walk along the in-arrows finds every nonzero path into a
vertex, and knows exactly when they are infinite; paths_into and
paths_between read its memo per target vertex, and path_dims (the Hom
spaces of the algebra) regroups it over every target.

The module also checks whether a given vertex bijection is an
isomorphism of quivers with relations, and searches for one.  Neither
search recurses: each backtracks in a loop over an explicit stack of
iterators, and each step costs only the arrows and relations it
touches.  map_equals maps the arrows of every singleton group in one
pass, reads each relation between two of them once, and backtracks
only over groups of parallel arrows, checking each other relation at
the one step that fixes both its arrows; find_isomorphism places one
vertex per step and compares a candidate's arrows to placed vertices
only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import QuiverError, SpecError

Label = tuple
ArrowName = tuple
Path = tuple  # of ArrowName


def label_str(label) -> str:
    if isinstance(label, tuple):
        head, *rest = label
        return f"{head}({','.join(map(str, rest))})" if rest else str(head)
    return str(label)


@dataclass(frozen=True, slots=True)
class Arrow:
    name: ArrowName
    source: int
    target: int
    degree: int = 0


class GradedQuiver:
    """A graded quiver with quadratic monomial relations, built once from
    its parts.

    ``vertices`` yields ``(labels, shift)``, where ``labels`` names one
    vertex by one or more aliases (the first is primary); ``arrows``
    yields ``(name, source, target, degree)`` with endpoints named by
    any alias; ``relations`` yields composable pairs ``(f, g)``, meaning
    g∘f = 0.  Each is read once, in that order, so generators will do.
    The parts are kept as tuples and a frozenset in slots, so nothing
    can be added later and the path memo cannot go stale.
    """

    __slots__ = ("_label_to_id", "vertex_labels", "vertex_shifts", "arrows",
                 "_arrow_by_name", "relations", "_out", "_in", "_paths")

    def __init__(self, vertices, arrows, relations) -> None:
        self._label_to_id: dict[Label, int] = {}
        all_labels, shifts = [], []
        for labels, shift in vertices:
            labels = tuple(labels)
            if not labels:
                raise QuiverError("vertex needs at least one label")
            for lab in labels:
                if lab in self._label_to_id:
                    raise QuiverError(f"duplicate vertex label {label_str(lab)}")
                self._label_to_id[lab] = len(all_labels)
            all_labels.append(labels)
            shifts.append(shift)
        self.vertex_labels = tuple(all_labels)
        self.vertex_shifts = tuple(shifts)

        # Out- and in-arrows per vertex id, in the order they came.
        out = [[] for _ in all_labels]
        into = [[] for _ in all_labels]
        self._arrow_by_name: dict[ArrowName, Arrow] = {}
        for name, source, target, degree in arrows:
            if name in self._arrow_by_name:
                raise QuiverError(f"duplicate arrow {label_str(name)}")
            ar = Arrow(name, self.vertex_id(source), self.vertex_id(target), degree)
            self._arrow_by_name[name] = ar
            out[ar.source].append(ar)
            into[ar.target].append(ar)
        self.arrows = tuple(self._arrow_by_name.values())
        # From lists, so each tuple is made at its final size: CPython
        # resizes a tuple drawn from an iterator of unknown length, and
        # frees it onto the spare list of the new size, where such tuples
        # pile up between full garbage collections.
        self._out = tuple([tuple(a) for a in out])
        self._in = tuple([tuple(a) for a in into])

        pairs = set()
        for f, g in relations:
            fa, ga = self.arrow(f), self.arrow(g)
            if fa.target != ga.source:
                raise QuiverError(
                    f"relation pair not composable: {label_str(f)} ends at "
                    f"{label_str(self.primary_label(fa.target))}, {label_str(g)} "
                    f"starts at {label_str(self.primary_label(ga.source))}"
                )
            pairs.add((f, g))
        self.relations = frozenset(pairs)
        # Nonzero paths into each target id, per source id, filled by
        # paths_into.
        self._paths: dict[int, dict[int, tuple]] = {}

    def vertex_id(self, label: Label) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise QuiverError(f"unknown vertex {label_str(label)}") from None

    def primary_label(self, vid: int) -> Label:
        return self.vertex_labels[vid][0]

    def shift_of(self, label: Label) -> int:
        return self.vertex_shifts[self.vertex_id(label)]

    def arrow(self, name: ArrowName) -> Arrow:
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {label_str(name)}") from None

    # -- structure ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    def arrows_from(self, vid: int) -> tuple[Arrow, ...]:
        return self._out[vid]

    def arrows_into(self, vid: int) -> tuple[Arrow, ...]:
        return self._in[vid]

    def topological_order(self) -> list[int]:
        """Vertex ids in topological order; raises on a directed cycle."""
        indeg = [len(arrows) for arrows in self._in]
        queue = [v for v in range(self.num_vertices) if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for a in self._out[v]:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
        if len(order) != self.num_vertices:
            raise QuiverError("quiver has a directed cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except QuiverError:
            return False

    # -- paths ----------------------------------------------------------

    def path_is_zero(self, names: Path) -> bool:
        """True when a composable arrow sequence dies in the algebra,
        i.e. some adjacent pair is a declared relation."""
        return any(pair in self.relations for pair in zip(names, names[1:]))

    def compose(self, p: Path, p2: Path) -> Path | None:
        """The path p then p2, or None when the two meet at a relation."""
        if p and p2 and (p[-1], p2[0]) in self.relations:
            return None
        return p + p2

    def path_degree(self, p: Path) -> int:
        """The sum of the degrees of p's arrows."""
        return sum(self.arrow(name).degree for name in p)

    def path_end(self, start: int, p: Path) -> int:
        """The vertex id where the arrows of p, read from vertex id
        ``start``, end; raises SpecError where an arrow does not start
        at the end of the one before."""
        v = start
        for name in p:
            ar = self.arrow(name)
            if ar.source != v:
                raise SpecError(f"path breaks at {name}")
            v = ar.target
        return v

    def path_dims(self) -> "HomTable":
        """All nonzero paths between all vertex pairs, organized by
        degree, regrouped from paths_into every vertex.  Rejects cyclic
        quivers."""
        self.topological_order()
        paths: dict[tuple[Label, Label, int], list[Path]] = {}
        for t in range(self.num_vertices):
            t_lab = self.primary_label(t)
            for s, found in self.paths_into(t_lab).items():
                s_lab = self.primary_label(s)
                for p in found:
                    key = (s_lab, t_lab, self.path_degree(p))
                    paths.setdefault(key, []).append(p)
        return HomTable(paths)

    def paths_into(self, target: Label) -> dict[int, tuple[Path, ...]]:
        """Nonzero paths into ``target``, keyed by source vertex id in
        ascending order, from one depth-first walk along the in-arrows
        that is remembered per target.  Each source's paths come in
        forward depth-first preorder: the lexicographic order of their
        arrows' insertion indices.  A nonzero path with more arrows than
        the quiver repeats one, so it runs round a cycle no relation
        kills: the walk then raises QuiverError, as the paths into
        target are infinite in number."""
        t = self.vertex_id(target)
        into = self._paths.get(t)
        if into is None:
            found: dict[int, list] = {t: [()]}
            limit = len(self.arrows)
            back: list[ArrowName] = []  # the path's names from t backwards
            stack = [iter(self._in[t])]
            while stack:
                for ar in stack[-1]:
                    if back and (ar.name, back[-1]) in self.relations:
                        continue
                    if len(back) == limit:
                        raise QuiverError("path space is infinite")
                    back.append(ar.name)
                    found.setdefault(ar.source, []).append(tuple(reversed(back)))
                    stack.append(iter(self._in[ar.source]))
                    break
                else:
                    stack.pop()
                    if back:
                        back.pop()
            index = None
            for paths in found.values():
                if len(paths) > 1:
                    index = index or {n: i for i, n in enumerate(self._arrow_by_name)}
                    paths.sort(key=lambda p: [index[n] for n in p])
            into = {s: tuple(found[s]) for s in sorted(found)}
            self._paths[t] = into
        return into

    def paths_between(self, source: Label, target: Label) -> tuple[Path, ...]:
        """Nonzero paths source -> target in forward depth-first
        preorder: a lookup in the target's memo of paths_into, so it
        raises QuiverError when the nonzero paths into target are
        infinite in number."""
        return self.paths_into(target).get(self.vertex_id(source), ())

    # -- export ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "vertices": [
                {"labels": [list(l) for l in labs], "shift": sh}
                for labs, sh in zip(self.vertex_labels, self.vertex_shifts)
            ],
            "arrows": [
                {
                    "name": list(a.name),
                    "source": list(self.primary_label(a.source)),
                    "target": list(self.primary_label(a.target)),
                    "degree": a.degree,
                }
                for a in self.arrows
            ],
            "relations": sorted(
                [list(f), list(g)] for f, g in self.relations
            ),
        }

    @classmethod
    def from_json_obj(cls, data: dict) -> "GradedQuiver":
        """Inverse of to_json_obj; ``shift`` and ``degree`` default to
        0.  Malformed data raises SpecError naming the field."""

        def listed(key):
            if not isinstance(data.get(key), list):
                raise SpecError(f"bad quiver data: {key!r} must be a list")
            return data[key]

        def integer(obj, key):
            value = obj.get(key, 0)
            if type(value) is not int:
                raise SpecError(
                    f"bad quiver data: {key!r} must be an integer, got {value!r}"
                )
            return value

        def relation(rel):
            if not isinstance(rel, list) or len(rel) != 2:
                raise SpecError(f"bad quiver data: relation {rel!r} is not a pair")
            return tuple(rel[0]), tuple(rel[1])

        try:
            return cls(
                ((tuple(map(tuple, v["labels"])), integer(v, "shift"))
                 for v in listed("vertices")),
                ((tuple(a["name"]), tuple(a["source"]), tuple(a["target"]),
                  integer(a, "degree")) for a in listed("arrows")),
                map(relation, listed("relations")),
            )
        except KeyError as exc:
            raise SpecError(f"bad quiver data: missing field {exc}") from exc
        except TypeError as exc:
            raise SpecError(f"bad quiver data: {exc}") from exc

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        names = [label_str(labs[0]) for labs in self.vertex_labels]
        for name, labs, sh in zip(names, self.vertex_labels, self.vertex_shifts):
            extra = "".join(" = " + label_str(l) for l in labs[1:])
            tag = f"{name}{extra}" + (f" [{sh}]" if sh else "")
            lines.append(f'  "{name}" [label="{tag}"];')
        for a in self.arrows:
            s, t = names[a.source], names[a.target]
            deg = f" ({a.degree})" if a.degree else ""
            lines.append(
                f'  "{s}" -> "{t}" [label="{label_str(a.name)}{deg}"];'
            )
        for f, g in sorted(self.relations):
            lines.append(
                f"  // relation: {label_str(g)} o {label_str(f)} = 0"
            )
        lines.append("}")
        return "\n".join(lines)


@dataclass
class HomTable:
    """Path bases keyed by (source label, target label, degree)."""

    paths: dict[tuple[Label, Label, int], list[Path]]

    @property
    def dims(self) -> dict[tuple[Label, Label, int], int]:
        return {k: len(v) for k, v in self.paths.items()}

    def dim(self, source: Label, target: Label, degree: int = 0) -> int:
        return len(self.paths.get((source, target, degree), []))

    def between(self, source: Label, target: Label) -> dict[int, int]:
        out = {}
        for (s, t, d), plist in self.paths.items():
            if s == source and t == target and plist:
                out[d] = len(plist)
        return out


@dataclass
class MatchReport:
    ok: bool
    diffs: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _resolve_vmap(
    q1: GradedQuiver, q2: GradedQuiver, vmap: dict
) -> tuple[dict[int, int] | None, list[str]]:
    diffs = []
    id_map: dict[int, int] = {}
    for l1, l2 in vmap.items():
        v1, v2 = q1.vertex_id(l1), q2.vertex_id(l2)
        if id_map.get(v1, v2) != v2:
            diffs.append(
                f"vertex {label_str(l1)} mapped to two distinct targets"
            )
        id_map[v1] = v2
    if len(id_map) != q1.num_vertices:
        diffs.append(
            f"map covers {len(id_map)} of {q1.num_vertices} vertices"
        )
    if len(set(id_map.values())) != len(id_map):
        diffs.append("map is not injective on vertices")
    if q1.num_vertices != q2.num_vertices:
        diffs.append(
            f"vertex counts differ: {q1.num_vertices} vs {q2.num_vertices}"
        )
    return (None, diffs) if diffs else (id_map, [])


def _transports_relations(
    q1: GradedQuiver, q2: GradedQuiver, groups1: dict, groups2: dict
) -> bool:
    """Whether some bijection of the arrows within each group (the keys
    and sizes of ``groups1`` and ``groups2`` agree) carries the relations
    of q1 exactly onto those of q2."""
    arrow_map: dict[ArrowName, ArrowName] = {}
    inv: dict[ArrowName, ArrowName] = {}
    parallel = []
    for key, g1 in groups1.items():
        if len(g1) == 1:
            arrow_map[g1[0].name] = groups2[key][0].name
            inv[groups2[key][0].name] = g1[0].name
        else:
            parallel.append(key)

    # A relation is read at the step that fixes the later parallel group
    # of its two arrows, or once here when both arrows are forced.
    # Step k overwrites its group's entries in both arrow maps; entries
    # of later groups left by an abandoned branch are never read before
    # their own step overwrites them.
    def due(q, other, image, groups):
        step = {a.name: k for k, key in enumerate(parallel) for a in groups[key]}
        filed = [[] for _ in parallel]
        for f, g in q.relations:
            k = max(step.get(f, -1), step.get(g, -1))
            if k >= 0:
                filed[k].append((f, g))
            elif (image[f], image[g]) not in other.relations:
                return None
        return filed

    due1 = due(q1, q2, arrow_map, groups1)
    due2 = None if due1 is None else due(q2, q1, inv, groups2)
    if due2 is None:
        return False
    if not parallel:
        return True

    stack = [itertools.permutations(groups2[parallel[0]])]
    while stack:
        k = len(stack) - 1
        for perm in stack[k]:
            for a1, a2 in zip(groups1[parallel[k]], perm):
                arrow_map[a1.name] = a2.name
                inv[a2.name] = a1.name
            if all(
                (arrow_map[f], arrow_map[g]) in q2.relations for f, g in due1[k]
            ) and all((inv[f], inv[g]) in q1.relations for f, g in due2[k]):
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(parallel):
            return True
        stack.append(itertools.permutations(groups2[parallel[len(stack)]]))
    return False


def map_equals(q1: GradedQuiver, q2: GradedQuiver, vmap: dict) -> MatchReport:
    """Check that a vertex bijection is an isomorphism of quivers with
    relations: arrows must match as multisets per (source, target,
    degree), and some arrow matching within those multisets must carry
    the relation set of one side exactly onto the other.

    ``vmap`` maps q1 vertex labels (any alias) to q2 vertex labels.  The
    report lists the first structural mismatches found.

    A group with one arrow on each side forces its image, so those
    arrows are mapped in one pass and every relation between two of
    them is read once.  The rest is a backtracking over the groups of
    parallel arrows, in a loop over an explicit stack of permutation
    iterators, not a recursion.  Each other relation is filed under the
    later parallel group of its two arrows and read only at that
    group's step, so a step costs its group's size plus the relations
    filed there; with no parallel arrows the whole check reads each
    relation exactly once.
    """
    id_map, diffs = _resolve_vmap(q1, q2, vmap)
    if id_map is None:
        return MatchReport(False, diffs)

    groups1: dict[tuple[int, int, int], list[Arrow]] = {}
    for a in q1.arrows:
        key = (id_map[a.source], id_map[a.target], a.degree)
        groups1.setdefault(key, []).append(a)
    groups2: dict[tuple[int, int, int], list[Arrow]] = {}
    for a in q2.arrows:
        groups2.setdefault((a.source, a.target, a.degree), []).append(a)

    for key, g1 in groups1.items():
        g2 = groups2.get(key, [])
        if len(g1) != len(g2):
            src, tgt, deg = key
            diffs.append(
                f"{len(g1)} vs {len(g2)} arrows "
                f"{label_str(q2.primary_label(src))} -> "
                f"{label_str(q2.primary_label(tgt))} at degree {deg} "
                f"(left: {', '.join(label_str(a.name) for a in g1)})"
            )
    for key, g2 in groups2.items():
        if key not in groups1:
            src, tgt, deg = key
            diffs.append(
                f"extra arrows {', '.join(label_str(a.name) for a in g2)} "
                f"on right at degree {deg}"
            )
    if diffs:
        return MatchReport(False, diffs)
    if len(q1.relations) != len(q2.relations):
        diffs.append(
            f"relation counts differ: {len(q1.relations)} vs "
            f"{len(q2.relations)}"
        )

    if not diffs and _transports_relations(q1, q2, groups1, groups2):
        return MatchReport(True)

    # No arrow matching carries the relations across.  Report against
    # the order-preserving matching so the diff names concrete pairs.
    canonical = {
        a1.name: a2.name
        for key in groups1
        for a1, a2 in zip(groups1[key], groups2[key])
    }
    inv = {v: k for k, v in canonical.items()}
    for f, g in sorted(q1.relations):
        if (canonical[f], canonical[g]) not in q2.relations:
            diffs.append(
                f"relation {label_str(g)} o {label_str(f)} = 0 has no "
                f"image on the right"
            )
    for f, g in sorted(q2.relations):
        if (inv[f], inv[g]) not in q1.relations:
            diffs.append(
                f"right relation {label_str(g)} o {label_str(f)} = 0 has "
                f"no preimage"
            )
    if not diffs:
        diffs.append("no arrow matching transports the relation set")
    return MatchReport(False, diffs)


def _refine_colors(q: GradedQuiver) -> list[int]:
    colors = [0] * q.num_vertices
    outs = [[(a.degree, a.target) for a in arrows] for arrows in q._out]
    ins = [[(a.degree, a.source) for a in arrows] for arrows in q._in]
    while True:
        sigs = []
        for v in range(q.num_vertices):
            sigs.append(
                (
                    colors[v],
                    tuple(sorted((d, colors[t]) for d, t in outs[v])),
                    tuple(sorted((d, colors[s]) for d, s in ins[v])),
                )
            )
        canon = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [canon[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def find_isomorphism(q1: GradedQuiver, q2: GradedQuiver) -> dict | None:
    """Search for a vertex bijection under which map_equals holds.

    Color refinement narrows the candidates to the q2 vertices of the
    same color, then a backtracking places one vertex per step, in a
    loop over an explicit stack of candidate iterators, not a recursion.
    A candidate w for v survives when v's arrows to placed vertices, as
    (direction, image of the neighbour, degree), equal w's arrows to used
    vertices as a multiset, so a step costs the degrees of v and of its
    candidates, not the number placed.  The witness is validated by
    map_equals before being returned.  Exhaustive at the sizes this
    package sweeps, so None means non-isomorphic.
    """
    if (
        q1.num_vertices != q2.num_vertices
        or len(q1.arrows) != len(q2.arrows)
        or len(q1.relations) != len(q2.relations)
    ):
        return None
    c1, c2 = _refine_colors(q1), _refine_colors(q2)
    if sorted(c1) != sorted(c2):
        return None
    by_color: dict[int, list[int]] = {}
    for w, color in enumerate(c2):
        by_color.setdefault(color, []).append(w)
    candidates = [by_color[color] for color in c1]
    order = sorted(range(q1.num_vertices), key=lambda v: len(candidates[v]))

    # assignment maps the placed q1 vertices into q2; used maps each q2
    # vertex taken to itself, so both sides read their links alike.
    assignment: dict[int, int] = {}
    used: dict[int, int] = {}

    def links(q: GradedQuiver, v: int, image: dict) -> list:
        # v's arrows to the vertices image maps, as (direction, image of
        # the neighbour, degree).
        return sorted(
            [(0, image[a.target], a.degree) for a in q._out[v] if a.target in image]
            + [(1, image[a.source], a.degree) for a in q._in[v] if a.source in image]
        )

    # One frame per open step: the vertex it places, its links to the
    # vertices placed before it, and the iterator over its candidates.
    frames: list[tuple[int, list, object]] = []
    while True:
        if len(frames) == len(order):
            # Vertex-level match; confirm arrows and relations transport.
            vmap = {
                q1.primary_label(v): q2.primary_label(w)
                for v, w in assignment.items()
            }
            if map_equals(q1, q2, vmap):
                return vmap
        else:
            v = order[len(frames)]
            frames.append((v, links(q1, v, assignment), iter(candidates[v])))
        # Move the innermost step to its next surviving candidate, closing
        # the steps whose candidates run out.
        while frames:
            v, placed, untried = frames[-1]
            if v in assignment:
                del used[assignment.pop(v)]
            w = next((w for w in untried
                      if w not in used and links(q2, w, used) == placed), None)
            if w is not None:
                assignment[v] = used[w] = w
                break
            frames.pop()
        else:
            return None
