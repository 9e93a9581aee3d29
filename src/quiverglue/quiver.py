"""Graded quivers with quadratic monomial relations.

This is the shared representation for every endomorphism algebra in the
package: vertices (with optional alias labels and a shift tag), arrows
carrying integer degrees, and relations that are always of the form
"g after f is zero" for a composable arrow pair (f, g).  Vertex and
arrow names are structured tuples like ``("P-", 1, 0)`` or
``("x", 1, 2)``; :func:`label_str` renders them for reports.

A quiver is built once and refuses every attribute assignment
afterwards.  Arrows are stored as parallel int tuples indexed by
insertion order: source and target vertex ids and degrees.  The
relations are a set of arrow-index pairs, and each vertex's out- and
in-arrow indices are built from the arrays when something first walks
them.  The public constructor reads vertices, arrows and relations by
name, in one pass, for JSON input and for
tests: it reads each container through exact_items (never a string as
a sequence), numbers them with a label and a name dict, resolves every
endpoint and relation arrow through vertex_id and arrow_index, and
refuses a shift or a degree that is not exactly an int.  The aside and
bside builders fill the arrays from their spec by index arithmetic
instead, and hand the quiver a numbering that makes the vertex labels,
shifts and arrow names from the same spec: the quiver asks for each
only when something first reads it, and builds its label and name
lookups from them on the first lookup, so a quiver that is only walked
never makes a name.  Matching runs on vertex ids: map_equals resolves
its label-keyed vertex map to ids once, in front of the id-level
_match_ids, which verify_theorem_A calls directly on builder quivers.
So labels are made only for reports and for label-keyed callers
(map_equals, and find_isomorphism's answer).  Every walk, search and
report in this module reads the arrays: to_text, to_json and to_dot
render a quiver's three formats, each from one rendering of every
vertex label and arrow name, and each lists its relations sorted by
arrow names; to_json_obj reads to_json back, so the JSON content has
one renderer.  Homology reads them by arrow index through ``arrow_index``,
``arrow_name``, ``arrow_ends``, ``in_arrows`` and ``is_relation``, and
``arrows`` is the range of arrow indices for callers that count or walk
every arrow; a quiver has no name-level view of its arrows.

A path is a tuple of arrow indices.  This module composes paths,
grades them and traces their endpoints for the rest of the package, and
path_names renders one in arrow names for reports; homology also reads
a path's first and last arrows and builds the one-arrow path (a,).
One depth-first walk along the in-arrows finds every nonzero path into
a vertex, and knows exactly when they are infinite; paths_into and
paths_between read its memo per target vertex, and path_dims (the Hom
spaces of the algebra) regroups it over every target.  When the paths
into a target are infinite, paths_between walks into it again through
only the arrows on nonzero paths from its source, so it refuses a pair
only when that pair's own paths are infinite.

The module also checks whether a given vertex bijection is an
isomorphism of quivers with relations, and searches for one.  Neither
search recurses: each backtracks in a loop over an explicit stack of
iterators, and each step costs only the arrows and relations it
touches.  The arrow matching groups arrows by one int key each, from
(image of source, image of target, degree), in one stable sort per
side.  It reads each relation of the left quiver once: it builds the
order-preserving arrow matching once, reads each relation between two
arrows of singleton groups against it, and backtracks from it only
over groups of parallel arrows, reading each other relation at the one
step that fixes both its arrows; find_isomorphism places one
vertex per step and compares a candidate's arrows to placed vertices
only.  Its candidates come from one colour refinement of both quivers
at once, driven by a worklist of splitter classes, in O((V + A) log V)
for V vertices and A arrows.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from .errors import QuiverError, SpecError, exact_ints, exact_items, read_only

Label = tuple
ArrowName = tuple
Path = tuple  # of arrow indices


def label_str(label) -> str:
    if isinstance(label, tuple) and label:
        head, *rest = label
        return f"{head}({','.join(map(str, rest))})" if rest else str(head)
    return str(label)


def json_tuple(value, message: str, **where) -> tuple:
    """exact_items, with every list inside read as a tuple, so that JSON
    labels hash; a loop, so no nesting json.loads reads is too deep."""
    stack = [(iter(exact_items(value, message, **where)), [])]
    while True:
        items, done = stack[-1]
        for item in items:
            if type(item) is list:
                stack.append((iter(item), []))
                break
            done.append(item)
        else:
            stack.pop()
            if not stack:
                return tuple(done)
            stack[-1][1].append(tuple(done))


# json's own encoders of the atoms builder labels hold
_JSON_ATOMS = {str: encode_basestring_ascii, int: int.__repr__}


def _json_list(items, level: int) -> str:
    """``json.dumps(list(items), indent=2)`` as it reads ``level`` deep
    in an indented document: each str or int atom by json's own encoder,
    any other by ``json.dumps(atom, indent=2)``, indented into place."""
    pad = "\n" + "  " * (level + 1)
    parts = []
    for atom in items:
        encode = _JSON_ATOMS.get(type(atom))
        parts.append(encode(atom) if encode else
                     json.dumps(atom, indent=2).replace("\n", pad))
    return _json_join(parts, level)


def _json_join(parts: list[str], level: int) -> str:
    """A JSON list of the encoded ``parts``, indented as at ``level``."""
    if not parts:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return f"[{pad}{(',' + pad).join(parts)}\n{'  ' * level}]"


class GradedQuiver:
    """A graded quiver with quadratic monomial relations, built once from
    its parts.

    ``vertices`` yields ``(labels, shift)``, where ``labels`` names one
    vertex by one or more aliases (the first is primary); ``arrows``
    yields ``(name, source, target, degree)`` with endpoints named by
    any alias; ``relations`` yields composable pairs ``(f, g)``, meaning
    g∘f = 0.  Each is read once, in that order, so generators will do.

    The arrow of index i is entry i of the int tuples ``_src``, ``_tgt``
    and ``_deg``, ``_rel`` holds the relations as index pairs, and
    ``_num_vertices`` the vertex count.  ``_out`` and ``_in``, each
    vertex's arrow indices, are derived from those arrays on first read
    and then kept, so a quiver that is only built, reported or matched
    never makes them.  The aside and bside builders hand ``_numbered`` a
    numbering instead, a picklable object that holds their spec: its
    ``arrays()`` fills those arrays by index arithmetic, and its
    ``vertex_labels()``, ``vertex_shifts()`` and ``arrow_names()`` make
    the labels, shifts and arrow names in the same order.  The quiver asks
    for each of those on first use, and builds its label and name lookups
    from them on first lookup.  Every attribute is read-only after
    construction, so neither those caches, the arrow lists nor the path
    memo can go stale.
    """

    __slots__ = ("_src", "_tgt", "_deg", "_num_vertices", "_adjacency", "_rel",
                 "_numbering", "_labels", "_shifts", "_arrow_names", "_label_to_id",
                 "_index", "_paths")

    __setattr__ = __delattr__ = read_only

    def __init__(self, vertices, arrows, relations) -> None:
        init = object.__setattr__
        ids: dict[Label, int] = {}
        init(self, "_label_to_id", ids)
        all_labels, shifts = [], []
        for vertex in exact_items(vertices, "vertices must be a sequence, got "
                                  "{value!r}", None, QuiverError):
            labels, shift = exact_items(vertex, "a vertex must be (labels, shift), "
                                        "got {value!r}", 2, QuiverError)
            labels = exact_items(labels, "vertex labels must be a sequence, got "
                                 "{value!r}", None, QuiverError)
            if not labels:
                raise QuiverError("vertex needs at least one label")
            for lab in labels:
                ids[_new_key(lab, ids, "vertex label")] = len(all_labels)
            all_labels.append(labels)
            shifts.append(shift)
        init(self, "_labels", tuple(all_labels))
        init(self, "_shifts", exact_ints(
            shifts, "vertex 'shift' must be an integer, got {value!r}"))

        index: dict[ArrowName, int] = {}
        init(self, "_index", index)
        src, tgt, deg = [], [], []
        for arrow in exact_items(arrows, "arrows must be a sequence, got {value!r}",
                                 None, QuiverError):
            name, source, target, degree = exact_items(
                arrow, "an arrow must be (name, source, target, degree), got "
                "{value!r}", 4, QuiverError)
            _new_key(name, index, "arrow")
            src.append(self.vertex_id(source))
            tgt.append(self.vertex_id(target))
            deg.append(degree)
            index[name] = len(index)
        init(self, "_arrow_names", tuple(index))
        deg = exact_ints(deg, "arrow 'degree' must be an integer, got {value!r}")

        init(self, "_numbering", None)
        # Resolved as _set_arrays checks them, so of an unknown arrow and
        # a pair that is not composable, the one that comes first is named.
        pairs = (exact_items(pair, "a relation must be a pair of arrows, got "
                             "{value!r}", 2, QuiverError)
                 for pair in exact_items(relations, "relations must be a sequence, "
                                         "got {value!r}", None, QuiverError))
        self._set_arrays(len(all_labels), src, tgt, deg, (
            (self.arrow_index(f), self.arrow_index(g)) for f, g in pairs))

    @classmethod
    def _numbered(cls, numbering) -> "GradedQuiver":
        """A builder's quiver: its arrays from ``numbering.arrays()``, the
        vertex count, each arrow's source, target and degree, and the
        relations as arrow-index pairs; its labels and names left to
        ``numbering`` until read."""
        q = object.__new__(cls)
        for name in ("_labels", "_shifts", "_arrow_names", "_label_to_id", "_index"):
            object.__setattr__(q, name, None)
        object.__setattr__(q, "_numbering", numbering)
        q._set_arrays(*numbering.arrays())
        return q

    def _set_arrays(self, num_vertices: int, src, tgt, deg, relations) -> None:
        """Store the vertex count, the arrow arrays and the relations, each
        checked composable; each vertex's arrow lists wait for a reader."""
        init = object.__setattr__
        init(self, "_num_vertices", num_vertices)
        init(self, "_src", tuple(src))
        init(self, "_tgt", tuple(tgt))
        init(self, "_deg", tuple(deg))
        init(self, "_adjacency", None)
        src, tgt = self._src, self._tgt
        pairs = []
        for pair in relations:
            f, g = pair
            if tgt[f] != src[g]:
                raise QuiverError(
                    f"relation pair not composable: {label_str(self.arrow_name(f))} "
                    f"ends at {label_str(self.primary_label(tgt[f]))}, "
                    f"{label_str(self.arrow_name(g))} starts at "
                    f"{label_str(self.primary_label(src[g]))}"
                )
            pairs.append(pair)
        init(self, "_rel", frozenset(pairs))
        # Nonzero paths into each target id, per source id, filled by
        # paths_into.
        init(self, "_paths", {})

    def __getstate__(self):
        # a copy leaves the path memo, a cache of unpicklable views, behind
        return None, {n: getattr(self, n) for n in self.__slots__ if n != "_paths"}

    def __setstate__(self, state) -> None:
        # copy and pickle restore the slots past the read-only __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_paths", {})

    # -- adjacency --------------------------------------------------------

    @property
    def _out(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's out-arrow indices, in arrow order."""
        return (self._adjacency or self._adjacent())[0]

    @property
    def _in(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's in-arrow indices, in arrow order."""
        return (self._adjacency or self._adjacent())[1]

    def _adjacent(self) -> tuple:
        """Build both arrow lists from the arrow arrays, on first read, and
        keep them as one value, so no copy holds one without the other."""
        out = [[] for _ in range(self._num_vertices)]
        into = [[] for _ in range(self._num_vertices)]
        for i, s, t in zip(range(len(self._src)), self._src, self._tgt):
            out[s].append(i)
            into[t].append(i)
        # From lists, so each tuple is made at its final size: CPython
        # resizes a tuple drawn from an iterator of unknown length, and
        # frees it onto the spare list of the new size, where such tuples
        # pile up between full garbage collections.  Each list gives way
        # to its tuple in place, so the build never holds all of both.
        for lists in out, into:
            for v, a in enumerate(lists):
                lists[v] = tuple(a)
        adjacency = tuple(out), tuple(into)
        object.__setattr__(self, "_adjacency", adjacency)
        return adjacency

    # -- labels and names -----------------------------------------------

    @property
    def vertex_labels(self) -> tuple[tuple[Label, ...], ...]:
        """Each vertex's labels, primary first, by vertex id."""
        if self._labels is None:
            object.__setattr__(self, "_labels", self._numbering.vertex_labels())
        return self._labels

    @property
    def vertex_shifts(self) -> tuple[int, ...]:
        """Each vertex's shift, by vertex id."""
        if self._shifts is None:
            object.__setattr__(self, "_shifts", self._numbering.vertex_shifts())
        return self._shifts

    @property
    def _names(self) -> tuple[ArrowName, ...]:
        """Each arrow's name, by arrow index."""
        if self._arrow_names is None:
            object.__setattr__(self, "_arrow_names", self._numbering.arrow_names())
        return self._arrow_names

    def vertex_id(self, label: Label) -> int:
        ids = self._label_to_id
        if ids is None:
            ids = {lab: v for v, labels in enumerate(self.vertex_labels)
                   for lab in labels}
            object.__setattr__(self, "_label_to_id", ids)
        try:
            return ids[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise QuiverError(f"unknown vertex {label_str(label)}") from None

    def primary_label(self, vid: int) -> Label:
        return (self._labels or self.vertex_labels)[vid][0]

    # -- structure ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_arrows(self) -> int:
        return len(self._src)

    def arrow_index(self, name: ArrowName) -> int:
        """The index of the arrow named ``name``, its place in the order
        the arrows came."""
        index = self._index
        if index is None:
            index = {name: i for i, name in enumerate(self._names)}
            object.__setattr__(self, "_index", index)
        try:
            return index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise QuiverError(f"unknown arrow {label_str(name)}") from None

    def arrow_name(self, i: int) -> ArrowName:
        return (self._arrow_names or self._names)[i]

    def arrow_ends(self, i: int) -> tuple[int, int]:
        """The source and target vertex ids of arrow i."""
        return self._src[i], self._tgt[i]

    def in_arrows(self, vid: int) -> tuple[int, ...]:
        """The indices of the arrows into vertex id ``vid``."""
        return self._in[vid]

    def is_relation(self, f: int, g: int) -> bool:
        """Whether arrow g after arrow f is zero, by arrow index."""
        return (f, g) in self._rel

    @property
    def arrows(self) -> range:
        """The arrow indices, in the order the arrows came."""
        return range(len(self._src))

    def topological_order(self) -> list[int]:
        """Vertex ids in topological order; raises on a directed cycle."""
        tgt, outs = self._tgt, self._out
        indeg = [len(arrows) for arrows in self._in]
        queue = [v for v, d in enumerate(indeg) if d == 0]
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for i in outs[v]:
                w = tgt[i]
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != self.num_vertices:
            raise QuiverError("quiver has a directed cycle")
        return order

    def is_acyclic(self) -> bool:
        """Whether the quiver has no directed cycle.

        First one pass over the arrows, which builds no arrow lists:
        when every arrow raises the vertex id or leaves a vertex that no
        arrow enters, the quiver is acyclic, since every vertex on a
        cycle is entered, so each arrow of a cycle would raise the id all
        the way round.  The builders' numberings pass it (their S
        vertices are sources, and their chain arrows raise the id).  Only
        a quiver that fails it is answered by topological_order."""
        entered = set(self._tgt)
        for s, t in zip(self._src, self._tgt):
            if s >= t and s in entered:
                break
        else:
            return True
        try:
            self.topological_order()
            return True
        except QuiverError:
            return False

    # -- paths ----------------------------------------------------------

    def compose(self, p: Path, p2: Path) -> Path | None:
        """The path p then p2, or None when the two meet at a relation."""
        if p and p2 and (p[-1], p2[0]) in self._rel:
            return None
        return p + p2

    def path_degree(self, p: Path) -> int:
        """The sum of the degrees of p's arrows."""
        return sum(map(self._deg.__getitem__, p))

    def path_end(self, start: int, p: Path) -> int:
        """The vertex id where the arrows of p, read from vertex id
        ``start``, end; raises SpecError where an arrow does not start
        at the end of the one before."""
        v = start
        for i in p:
            if self._src[i] != v:
                raise SpecError(f"path breaks at {self._names[i]}")
            v = self._tgt[i]
        return v

    def path_names(self, p: Path) -> tuple[ArrowName, ...]:
        """The names of p's arrows, for reports."""
        return tuple(map(self._names.__getitem__, p))

    def path_dims(self) -> "HomTable":
        """All nonzero paths between all vertex pairs in arrow names, by
        degree: paths_into every vertex, regrouped (QuiverError if infinite)."""
        paths: dict[tuple[Label, Label, int], list] = {}
        for t in range(self.num_vertices):
            t_lab = self.primary_label(t)
            for s, found in self.paths_into(t_lab).items():
                s_lab = self.primary_label(s)
                for p in found:
                    key = (s_lab, t_lab, self.path_degree(p))
                    paths.setdefault(key, []).append(self.path_names(p))
        return HomTable(paths)

    def paths_into(self, target: Label) -> MappingProxyType:
        """Nonzero paths into ``target`` as arrow-index tuples, keyed by
        source vertex id in ascending order, from one depth-first walk
        along the in-arrows that is remembered per target and handed
        out as the same read-only mapping on every call.  Each
        source's paths come sorted, which is forward depth-first
        preorder.  A nonzero path with more arrows than the quiver
        repeats one, so it runs round a cycle no relation kills: the
        walk then raises QuiverError, as the paths into target are
        infinite in number."""
        t = self.vertex_id(target)
        into = self._paths.get(t)
        if into is None:
            into = self._paths[t] = MappingProxyType(self._walk_into(t, self._in))
        return into

    def _walk_into(self, t: int, ins) -> dict[int, tuple[Path, ...]]:
        """paths_into vertex id t, walking from each vertex only along
        the arrow indices ``ins`` lists for it."""
        src, rel = self._src, self._rel
        found: dict[int, list] = {t: [()]}
        limit = len(src)
        back: list[int] = []  # the path's arrows from t backwards
        # One frame per arrow on the path: its index (None at t) and an
        # iterator over the arrows that may come before it.
        stack = [(None, iter(ins[t]))]
        while stack:
            after, before = stack[-1]
            for i in before:
                if (i, after) in rel:
                    continue
                if len(back) == limit:
                    raise QuiverError("path space is infinite")
                back.append(i)
                found.setdefault(src[i], []).append(tuple(reversed(back)))
                stack.append((i, iter(ins[src[i]])))
                break
            else:
                stack.pop()
                if back:
                    back.pop()
        for paths in found.values():
            paths.sort()
        return {s: tuple(found[s]) for s in sorted(found)}

    def paths_between(self, source: Label, target: Label) -> tuple[Path, ...]:
        """Nonzero paths source -> target as arrow-index tuples, in
        forward depth-first preorder: a lookup in the target's memo of
        paths_into.

        When the paths into target are infinite, those from source may
        not be.  Then the walk into target runs again through only the
        arrows that end some nonzero path from source, which every path
        source -> target is made of, and QuiverError is raised only if
        that walk is infinite too: a cycle no relation kills, on a
        nonzero path from source, ahead of a nonzero path into target.
        """
        s = self.vertex_id(source)
        try:
            into = self.paths_into(target)
        except QuiverError:  # infinitely many; an unknown target raises again
            return self._walk_from(s, self.vertex_id(target))
        return into.get(s, ())

    def _walk_from(self, s: int, t: int) -> tuple[Path, ...]:
        """paths_between vertex ids s and t, walking into t only along
        the arrows that end some nonzero path from s."""
        tgt, outs, rel = self._tgt, self._out, self._rel
        reach = set(outs[s])
        todo = list(reach)
        while todo:
            f = todo.pop()
            for g in outs[tgt[f]]:
                if g not in reach and (f, g) not in rel:
                    reach.add(g)
                    todo.append(g)
        ins = [[i for i in arrows if i in reach] for arrows in self._in]
        return self._walk_into(t, ins).get(s, ())

    # -- export ---------------------------------------------------------

    def to_json(self) -> str:
        """The quiver as JSON, byte for byte as ``json.dumps(obj,
        indent=2)`` writes its object: "vertices" (each vertex's "labels"
        and "shift"), "arrows" ("name", "source", "target", "degree") and
        "relations" (pairs of arrow names, sorted), every label and name
        a list.  Each primary label is encoded once, at the depth of an
        arrow's ends, and each arrow name once, for its arrow and its
        relations."""
        labels = [_json_list(labs[0], 3) for labs in self.vertex_labels]
        vertices = []
        for primary, labs, sh in zip(labels, self.vertex_labels, self.vertex_shifts):
            # a vertex's labels sit one level deeper than an arrow's ends
            own = [primary.replace("\n", "\n  ")]
            own += [_json_list(l, 4) for l in labs[1:]]
            vertices.append(f'{{\n      "labels": {_json_join(own, 3)},\n'
                            f'      "shift": {sh}\n    }}')
        names = [_json_list(name, 3) for name in self._names]
        arrows = [
            f'{{\n      "name": {name},\n      "source": {labels[s]},\n'
            f'      "target": {labels[t]},\n      "degree": {d}\n    }}'
            for name, s, t, d in zip(names, self._src, self._tgt, self._deg)
        ]
        relations = [f"[\n      {names[f]},\n      {names[g]}\n    ]"
                     for f, g in self._rel_by_names()]
        return (f'{{\n  "vertices": {_json_join(vertices, 1)},\n'
                f'  "arrows": {_json_join(arrows, 1)},\n'
                f'  "relations": {_json_join(relations, 1)}\n}}')

    def to_json_obj(self) -> dict:
        """The quiver as a JSON object: every label and arrow name a list."""
        return json.loads(self.to_json())

    @classmethod
    def from_json_obj(cls, data: dict) -> "GradedQuiver":
        """Inverse of to_json_obj: each label and arrow name, a list in JSON,
        reads back as a tuple all the way down; ``shift`` and ``degree``
        default to 0.  Malformed data raises SpecError naming the field, or QuiverError."""
        if not isinstance(data, dict):
            raise SpecError(f"bad quiver data: must be an object, got {data!r}")

        def items(value, what="a name", read=json_tuple):
            return read(value, "bad quiver data: {what} must be a list, got "
                        "{value!r}", what=what)

        def objects(field, what):
            found = items(data.get(field), repr(field), exact_items)
            for obj in found:
                if not isinstance(obj, dict):
                    raise SpecError(f"bad quiver data: {what} must be an object, "
                                    f"got {obj!r}")
            return found

        try:
            return cls(
                ((tuple(map(items, items(v["labels"], "'labels'"))), v.get("shift", 0))
                 for v in objects("vertices", "a vertex")),
                ((items(a["name"], "'name'"), items(a["source"], "'source'"),
                  items(a["target"], "'target'"), a.get("degree", 0))
                 for a in objects("arrows", "an arrow")),
                (tuple(map(items, items(r, "a relation")))
                 for r in items(data.get("relations"), "'relations'")),
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
        arrow_names = [label_str(name) for name in self._names]
        for name, s, t, d in zip(arrow_names, self._src, self._tgt, self._deg):
            deg = f" ({d})" if d else ""
            lines.append(f'  "{names[s]}" -> "{names[t]}" [label="{name}{deg}"];')
        lines += self._relation_lines("  // relation: ", arrow_names)
        lines.append("}")
        return "\n".join(lines)

    def to_text(self) -> str:
        names = [label_str(labs[0]) for labs in self.vertex_labels]
        lines = [f"{self.num_vertices} vertices, {self.num_arrows} arrows, "
                 f"{len(self._rel)} relations"]
        for name, labs, sh in zip(names, self.vertex_labels, self.vertex_shifts):
            extra = "".join(", " + label_str(l) for l in labs[1:])
            lines.append(f"  vertex {name}{extra}" + (f"  [shift {sh}]" if sh else ""))
        arrow_names = [label_str(name) for name in self._names]
        for name, s, t, d in zip(arrow_names, self._src, self._tgt, self._deg):
            deg = f" (degree {d})" if d else ""
            lines.append(f"  {name}: {names[s]} -> {names[t]}{deg}")
        lines += self._relation_lines("  relation: ", arrow_names)
        return "\n".join(lines)

    def _rel_by_names(self) -> list[tuple[int, int]]:
        """The relations as arrow-index pairs, sorted by their arrows'
        names: the order every report lists them in."""
        names = self._names
        return sorted(self._rel, key=lambda fg: (names[fg[0]], names[fg[1]]))

    def _relation_lines(self, prefix: str, arrow_names: list[str]) -> list[str]:
        """Each relation as a report line, sorted by arrow names, from the
        arrow names the report has rendered already."""
        return [f"{prefix}{arrow_names[g]} o {arrow_names[f]} = 0"
                for f, g in self._rel_by_names()]

    def _relation_str(self, f: int, g: int) -> str:
        return f"{label_str(self._names[g])} o {label_str(self._names[f])} = 0"


def _new_key(key, keys: dict, what: str):
    """``key``; QuiverError when ``keys`` holds it or it cannot be hashed."""
    try:
        known = key in keys
    except TypeError:
        raise QuiverError(f"{what} {label_str(key)} is not hashable") from None
    if known:
        raise QuiverError(f"duplicate {what} {label_str(key)}")
    return key


@dataclass(frozen=True)
class HomTable:
    """Paths in arrow names, keyed by (source label, target label, degree)."""

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


@dataclass(frozen=True)
class MatchReport:
    ok: bool
    diffs: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _resolve_vmap(
    q1: GradedQuiver, q2: GradedQuiver, vmap: dict
) -> tuple[list[int] | None, list[str]]:
    """``vmap``, from q1 labels to q2 labels, as the q2 vertex id of each
    q1 vertex id; or None and the diffs when it is not a bijection."""
    diffs = []
    image = [-1] * q1.num_vertices
    for l1, l2 in vmap.items():
        v1, v2 = q1.vertex_id(l1), q2.vertex_id(l2)
        if image[v1] not in (-1, v2):
            diffs.append(
                f"vertex {label_str(l1)} mapped to two distinct targets"
            )
        image[v1] = v2
    mapped = [v for v in image if v >= 0]
    if len(mapped) != q1.num_vertices:
        diffs.append(
            f"map covers {len(mapped)} of {q1.num_vertices} vertices"
        )
    if len(set(mapped)) != len(mapped):
        diffs.append("map is not injective on vertices")
    if q1.num_vertices != q2.num_vertices:
        diffs.append(
            f"vertex counts differ: {q1.num_vertices} vs {q2.num_vertices}"
        )
    return (None, diffs) if diffs else (image, [])


def _transports_rel(
    q1: GradedQuiver, q2: GradedQuiver, canonical: list[int], parallel: list
) -> bool:
    """Whether some arrow matching that changes ``canonical`` only
    within the groups of ``parallel`` carries the relations of q1
    exactly onto those of q2.  ``canonical`` maps each arrow index of q1
    to one of q2 and is left as it came; ``parallel`` lists each group
    of parallel arrows as a pair of equally long lists of arrow indices,
    the group's arrows in q1 and in q2.

    Only the relations of q1 are read.  The caller has checked that both
    quivers have equally many, and an arrow bijection maps relation
    pairs injectively, so a matching that carries each relation of q1
    into those of q2 carries them onto them."""
    # A relation is read at the step that fixes the later parallel group
    # of its two arrows, or once here when both arrows are forced.
    # Step k overwrites its group's entries in the arrow map; entries of
    # later groups left by an abandoned branch are never read before
    # their own step overwrites them.
    step = [-1] * len(q1._src)
    for k, (g1, _) in enumerate(parallel):
        for a in g1:
            step[a] = k
    due = [[] for _ in parallel]
    rel2 = q2._rel
    for f, g in q1._rel:
        k = max(step[f], step[g])
        if k >= 0:
            due[k].append((f, g))
        elif (canonical[f], canonical[g]) not in rel2:
            return False
    if not parallel:
        return True

    arrow_map = canonical[:]
    stack = [itertools.permutations(parallel[0][1])]
    while stack:
        k = len(stack) - 1
        for perm in stack[k]:
            for a1, a2 in zip(parallel[k][0], perm):
                arrow_map[a1] = a2
            if all((arrow_map[f], arrow_map[g]) in rel2 for f, g in due[k]):
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(parallel):
            return True
        stack.append(itertools.permutations(parallel[len(stack)][1]))
    return False


def map_equals(q1: GradedQuiver, q2: GradedQuiver, vmap: dict) -> MatchReport:
    """Check that a vertex bijection is an isomorphism of quivers with
    relations: arrows must match as multisets per (source, target,
    degree), and some arrow matching within those multisets must carry
    the relation set of one side exactly onto the other.

    ``vmap`` maps q1 vertex labels (any alias) to q2 vertex labels.  The
    report lists the first structural mismatches found.  The labels are
    resolved to vertex ids once, and _match_ids checks the rest.
    """
    image, diffs = _resolve_vmap(q1, q2, vmap)
    if image is None:
        return MatchReport(False, diffs)
    return _match_ids(q1, q2, image)


def _match_ids(q1: GradedQuiver, q2: GradedQuiver, image: list[int]) -> MatchReport:
    """map_equals for a vertex bijection given by id: ``image[v]`` is the
    q2 vertex id of q1 vertex id v.

    Each arrow gets one int key from (image of its source, image of its
    target, degree), the degree offset by the least of both quivers so
    that every key is a distinct natural number.  Zipping the two
    sides' arrow indices, each stably sorted by key, together is the
    order-preserving arrow matching; the arrows are grouped by key only
    when the sorted keys differ or some key repeats.

    Each relation of q1, the left quiver, is read once, and those of q2
    are only looked up (_transports_rel says why).  The
    order-preserving arrow matching forces the image of every group with
    one arrow on each side, so every relation between two such arrows is
    read against it in one pass; the backtracking starts from it, and a
    failure is reported against it.  The rest is a backtracking over the
    groups of parallel arrows, in a loop over an explicit stack of
    permutation iterators, not a recursion.  Each other relation is
    filed under the later parallel group of its two arrows and read only
    at that group's step, so a step costs its group's size plus the
    relations filed there; with no parallel arrows the whole check reads
    each relation of q1 exactly once.
    """
    n, deg1, deg2 = q2.num_vertices, q1._deg, q2._deg
    low = min(min(deg1, default=0), min(deg2, default=0))
    span = max(max(deg1, default=0), max(deg2, default=0)) - low + 1
    keys1 = [(image[s] * n + image[t]) * span + d - low
             for s, t, d in zip(q1._src, q1._tgt, deg1)]
    keys2 = [(s * n + t) * span + d - low for s, t, d in zip(q2._src, q2._tgt, deg2)]
    order1 = sorted(range(len(keys1)), key=keys1.__getitem__)
    order2 = sorted(range(len(keys2)), key=keys2.__getitem__)
    sorted1 = [keys1[a] for a in order1]
    if sorted1 != [keys2[a] for a in order2]:
        return MatchReport(False, _arrow_diffs(q1, q2, image, _groups(keys1),
                                               _groups(keys2)))
    diffs = []
    if len(q1._rel) != len(q2._rel):
        diffs.append(
            f"relation counts differ: {len(q1._rel)} vs {len(q2._rel)}"
        )

    # The order-preserving arrow matching: the backtracking starts from
    # it, and a failure is reported against it.  The groups of parallel
    # arrows are listed only when some key repeats.
    canonical = [0] * len(order1)
    for a1, a2 in zip(order1, order2):
        canonical[a1] = a2
    parallel = []
    if any(map(operator.eq, sorted1, itertools.islice(sorted1, 1, None))):
        groups2 = _groups(keys2)
        parallel = [(g1, groups2[key]) for key, g1 in _groups(keys1).items()
                    if len(g1) > 1]
    if not diffs and _transports_rel(q1, q2, canonical, parallel):
        return MatchReport(True)

    # No arrow matching carries the relations across.  The backtracking
    # tries the canonical matching first, so unless the counts differ it
    # leaves some left relation without an image, a named pair.
    inv = [0] * len(canonical)
    for a1, a2 in enumerate(canonical):
        inv[a2] = a1
    for f, g in q1._rel_by_names():
        if (canonical[f], canonical[g]) not in q2._rel:
            diffs.append(
                f"relation {q1._relation_str(f, g)} has no image on the right"
            )
    for f, g in q2._rel_by_names():
        if (inv[f], inv[g]) not in q1._rel:
            diffs.append(f"right relation {q2._relation_str(f, g)} has no preimage")
    return MatchReport(False, diffs)


def _groups(keys: list[int]) -> dict[int, list[int]]:
    """The arrow indices of each key, ascending, with the keys in the
    order of their first arrows."""
    groups: dict[int, list[int]] = {}
    for a, key in enumerate(keys):
        groups.setdefault(key, []).append(a)
    return groups


def _arrow_diffs(q1: GradedQuiver, q2: GradedQuiver, image: list[int],
                 groups1: dict, groups2: dict) -> list[str]:
    """The arrow groups that differ: each group of q1 whose count
    differs on q2, then each group only q2 has, each side's groups in
    the order of their first arrows."""

    def names(q, group):
        return ", ".join(label_str(q._names[i]) for i in group)

    diffs = []
    for key, g1 in groups1.items():
        g2 = groups2.get(key, ())
        if len(g1) != len(g2):
            a = g1[0]
            diffs.append(
                f"{len(g1)} vs {len(g2)} arrows "
                f"{label_str(q2.primary_label(image[q1._src[a]]))} -> "
                f"{label_str(q2.primary_label(image[q1._tgt[a]]))} at degree {q1._deg[a]} "
                f"(left: {names(q1, g1)})"
            )
    for key, g2 in groups2.items():
        if key not in groups1:
            diffs.append(f"extra arrows {names(q2, g2)} on right at degree {q2._deg[g2[0]]}")
    return diffs


def _refine_colors(q1: GradedQuiver, q2: GradedQuiver) -> list[int]:
    """The coarsest partition of the vertices of q1 and q2 together in
    which the vertices of a class have equally many arrows, per
    direction and degree, into each class: a class id per vertex, those
    of q1 first, then those of q2.

    The partition is unique, and neither quiver has arrows into the
    other, so it restricts to each quiver's own and any isomorphism maps
    each vertex into its class.  It starts from one class and keeps a
    worklist of splitter classes.  A popped splitter S is scanned once:
    each vertex with arrows into or out of S gets the multiset of their
    (direction, degree) keys.  Only the classes of those vertices split,
    by that multiset; the vertices are moved out, so the untouched rest
    keeps its id without being read.  Every part is queued when the
    class was; otherwise every part but the largest is, since the counts
    into the largest follow from those into the class before it split
    and into the other parts.  So each time a vertex is in a scanned
    splitter, its class is at most half what it was the time before,
    and the whole refinement costs O((V + A) log V) for V vertices and
    A arrows.
    """
    n1 = q1.num_vertices
    sides = ((q1._src, q1._tgt, q1._deg, q1._in, q1._out, 0),
             (q2._src, q2._tgt, q2._deg, q2._in, q2._out, n1))
    colors = [0] * (n1 + q2.num_vertices)
    members = [set(range(len(colors)))]
    queued = [True]
    work = [0]
    while work:
        s = work.pop()
        queued[s] = False
        # key 2d: an arrow of degree d into S; 2d + 1: one out of S
        keys: dict[int, list[int]] = {}
        for u in members[s]:
            src, tgt, deg, ins, outs, base = sides[u >= n1]
            u -= base
            for i in ins[u]:
                keys.setdefault(src[i] + base, []).append(2 * deg[i])
            for i in outs[u]:
                keys.setdefault(tgt[i] + base, []).append(2 * deg[i] + 1)
        splits: dict[int, dict[tuple, list[int]]] = {}
        for v, ks in keys.items():
            ks.sort()
            splits.setdefault(colors[v], {}).setdefault(tuple(ks), []).append(v)
        for c, parts in splits.items():
            parts = list(parts.values())
            rest = members[c]
            if len(parts[0]) == len(rest):  # all of the class, alike
                continue
            for part in parts:
                rest.difference_update(part)
            if not rest:  # every vertex was touched: one part keeps the id
                rest.update(parts.pop())
            ids = [c]
            for part in parts:
                k = len(members)
                members.append(set(part))
                queued.append(False)
                for v in part:
                    colors[v] = k
                ids.append(k)
            if queued[c]:
                ids.pop(0)
            else:
                ids.remove(max(ids, key=lambda k: len(members[k])))
            for k in ids:
                queued[k] = True
                work.append(k)
    return colors


def find_isomorphism(q1: GradedQuiver, q2: GradedQuiver) -> dict | None:
    """Search for a vertex bijection under which map_equals holds.

    One colour refinement of both quivers at once (_refine_colors, in
    O((V + A) log V)) narrows the candidates to the q2 vertices of the
    same class, and answers None when some class holds unequally many
    vertices of q1 and q2.  Then a backtracking places one vertex per
    step, in a loop over an explicit stack of candidate iterators, not a
    recursion.  A candidate w for v survives when v's arrows to placed
    vertices, as (direction, image of the neighbour, degree), equal w's
    arrows to used vertices as a multiset, so a step costs the degrees
    of v and of its candidates, not the number placed.  The witness is
    validated by map_equals before being returned.  Exhaustive at the
    sizes this package sweeps, so None means non-isomorphic.
    """
    if (
        q1.num_vertices != q2.num_vertices
        or len(q1._src) != len(q2._src)
        or len(q1._rel) != len(q2._rel)
    ):
        return None
    colors = _refine_colors(q1, q2)
    n = q1.num_vertices
    c1, c2 = colors[:n], colors[n:]
    if Counter(c1) != Counter(c2):
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
        src, tgt, deg = q._src, q._tgt, q._deg
        return sorted(
            [(0, image[tgt[i]], deg[i]) for i in q._out[v] if tgt[i] in image]
            + [(1, image[src[i]], deg[i]) for i in q._in[v] if src[i] in image]
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
