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
Each vertex keeps its out- and in-arrows.  One depth-first enumerator
yields the nonzero paths out of a vertex and knows exactly
when they are infinite; path_dims (the Hom spaces of the algebra) and
paths_between are views of it, and paths_between remembers its answer
per vertex pair.  The module also checks whether a given vertex
bijection is an isomorphism of quivers with relations, and
searches for one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import QuiverError, SpecError

Label = tuple
ArrowName = tuple


def label_str(label) -> str:
    if isinstance(label, tuple):
        head, *rest = label
        return f"{head}({','.join(str(x) for x in rest)})" if rest else str(head)
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
        self._out, self._in = tuple(map(tuple, out)), tuple(map(tuple, into))

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
        # Nonzero paths per vertex-id pair, filled by paths_between.
        self._paths: dict[tuple[int, int], tuple] = {}

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

    def path_is_zero(self, names: tuple[ArrowName, ...]) -> bool:
        """True when a composable arrow sequence dies in the algebra,
        i.e. some adjacent pair is a declared relation."""
        return any(pair in self.relations for pair in zip(names, names[1:]))

    def _paths_from(self, s: int):
        """(end vertex id, arrow names) for every nonzero path out of
        ``s``, in depth-first preorder; the names list is reused, so
        copy what you keep.  A nonzero path with more arrows than the
        quiver repeats one, and the stretch between the repeats is a
        cycle no relation kills: the path space is then infinite."""
        limit = len(self.arrows)
        names: list[ArrowName] = []
        yield s, names
        stack = [iter(self._out[s])]
        while stack:
            for ar in stack[-1]:
                if names and (names[-1], ar.name) in self.relations:
                    continue
                if len(names) == limit:
                    raise QuiverError("path space is infinite")
                names.append(ar.name)
                yield ar.target, names
                stack.append(iter(self._out[ar.target]))
                break
            else:
                stack.pop()
                if names:
                    names.pop()

    def path_dims(self) -> "HomTable":
        """All nonzero paths between all vertex pairs, organized by
        degree.  Rejects cyclic quivers."""
        self.topological_order()
        paths: dict[tuple[Label, Label, int], list[tuple[ArrowName, ...]]] = {}
        for s in range(self.num_vertices):
            s_lab = self.primary_label(s)
            for t, p in self._paths_from(s):
                deg = sum(self.arrow(n).degree for n in p)
                key = (s_lab, self.primary_label(t), deg)
                paths.setdefault(key, []).append(tuple(p))
        return HomTable(paths)

    def paths_between(
        self, source: Label, target: Label
    ) -> tuple[tuple[ArrowName, ...], ...]:
        """Nonzero paths source -> target, remembered per vertex pair;
        raises QuiverError when the nonzero paths out of source are
        infinite in number."""
        key = s, t = self.vertex_id(source), self.vertex_id(target)
        paths = self._paths.get(key)
        if paths is None:
            paths = tuple(tuple(p) for v, p in self._paths_from(s) if v == t)
            self._paths[key] = paths
        return paths

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
        for labs, sh in zip(self.vertex_labels, self.vertex_shifts):
            name = label_str(labs[0])
            extra = "".join(" = " + label_str(l) for l in labs[1:])
            tag = f"{name}{extra}" + (f" [{sh}]" if sh else "")
            lines.append(f'  "{name}" [label="{tag}"];')
        for a in self.arrows:
            s = label_str(self.primary_label(a.source))
            t = label_str(self.primary_label(a.target))
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

    paths: dict[tuple[Label, Label, int], list[tuple[ArrowName, ...]]]

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


def map_equals(q1: GradedQuiver, q2: GradedQuiver, vmap: dict) -> MatchReport:
    """Check that a vertex bijection is an isomorphism of quivers with
    relations: arrows must match as multisets per (source, target,
    degree), and some arrow matching within those multisets must carry
    the relation set of one side exactly onto the other.

    ``vmap`` maps q1 vertex labels (any alias) to q2 vertex labels.  The
    report lists the first structural mismatches found.
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

    keys = list(groups1)
    group_of1 = {a.name: i for i, key in enumerate(keys) for a in groups1[key]}
    group_of2 = {a.name: i for i, key in enumerate(keys) for a in groups2[key]}

    def relations_match(arrow_map: dict, done: set[int]) -> bool:
        inv = {v: k for k, v in arrow_map.items()}
        for f, g in q1.relations:
            if group_of1[f] in done and group_of1[g] in done:
                if (arrow_map[f], arrow_map[g]) not in q2.relations:
                    return False
        for f, g in q2.relations:
            if group_of2.get(f) in done and group_of2.get(g) in done:
                if (inv[f], inv[g]) not in q1.relations:
                    return False
        return True

    def search(k: int, arrow_map: dict, done: set[int]) -> dict | None:
        if k == len(keys):
            return dict(arrow_map)
        g1, g2 = groups1[keys[k]], groups2[keys[k]]
        for perm in itertools.permutations(g2):
            for a1, a2 in zip(g1, perm):
                arrow_map[a1.name] = a2.name
            done.add(k)
            if relations_match(arrow_map, done):
                result = search(k + 1, arrow_map, done)
                if result is not None:
                    return result
            done.discard(k)
            for a1 in g1:
                del arrow_map[a1.name]
        return None

    if not diffs and search(0, {}, set()) is not None:
        return MatchReport(True)

    # No arrow matching carries the relations across.  Report against
    # the order-preserving matching so the diff names concrete pairs.
    canonical = {
        a1.name: a2.name
        for key in keys
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

    Color refinement narrows the candidates, then backtracking with
    pairwise arrow-multiset pruning; the witness is validated by
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
    candidates = {
        v: [w for w in range(q2.num_vertices) if c2[w] == c1[v]]
        for v in range(q1.num_vertices)
    }
    order = sorted(range(q1.num_vertices), key=lambda v: len(candidates[v]))

    def profile(q: GradedQuiver, u: int, v: int) -> tuple:
        return tuple(sorted(a.degree for a in q._out[u] if a.target == v))

    assignment: dict[int, int] = {}
    used: set[int] = set()
    found: list[dict] = []

    def place(k: int) -> bool:
        if k == len(order):
            # Vertex-level match; confirm arrows and relations transport.
            vmap = {
                q1.primary_label(v): q2.primary_label(w)
                for v, w in assignment.items()
            }
            if map_equals(q1, q2, vmap):
                found.append(vmap)
                return True
            return False
        v = order[k]
        for w in candidates[v]:
            if w in used:
                continue
            if all(
                profile(q1, u, v) == profile(q2, assignment[u], w)
                and profile(q1, v, u) == profile(q2, w, assignment[u])
                for u in assignment
            ):
                assignment[v] = w
                used.add(w)
                if place(k + 1):
                    return True
                del assignment[v]
                used.discard(w)
        return False

    return found[0] if place(0) else None
