"""The two quiver-matching searches against the full-rescan searches they
replaced, kept here as references: map_equals once rescanned every
relation of both sides at each arrow group, and find_isomorphism
refined each quiver's colours round by round and compared each
candidate against every placed vertex.  Reports, witnesses and colour
classes must not change; map_equals must read each relation exactly
once when no arrows are parallel; the colour refinement must read
O((V + A) log V) arrows; neither search may recurse per arrow or per
vertex; and find_isomorphism must confirm its witness through the
module-level map_equals, which the benchmark's tracer counts."""

import itertools
import math
import random
import sys
from contextlib import contextmanager

from conftest import arrow_rows, relation_names

from quiverglue import quiver
from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.gluing import StackyCurveSpec
from quiverglue.mirror import canonical_correspondence, twisted_gluing, verify_theorem_A
from quiverglue.quiver import (
    GradedQuiver,
    MatchReport,
    _refine_colors,
    _resolve_vmap,
    find_isomorphism,
    label_str,
    map_equals,
)
from quiverglue.sweeps import curve_sweep


def rescan_map_equals(q1, q2, vmap):
    """map_equals as it was: every step rescans all relations of both
    sides and rebuilds the inverse arrow map."""
    id_map, diffs = _resolve_vmap(q1, q2, vmap)
    if id_map is None:
        return MatchReport(False, diffs)
    rel1, rel2 = relation_names(q1), relation_names(q2)
    groups1, groups2 = {}, {}
    for name, s, t, d in arrow_rows(q1):
        groups1.setdefault((id_map[s], id_map[t], d), []).append(name)
    for name, s, t, d in arrow_rows(q2):
        groups2.setdefault((s, t, d), []).append(name)
    for key, g1 in groups1.items():
        g2 = groups2.get(key, [])
        if len(g1) != len(g2):
            src, tgt, deg = key
            diffs.append(
                f"{len(g1)} vs {len(g2)} arrows "
                f"{label_str(q2.primary_label(src))} -> "
                f"{label_str(q2.primary_label(tgt))} at degree {deg} "
                f"(left: {', '.join(map(label_str, g1))})"
            )
    for key, g2 in groups2.items():
        if key not in groups1:
            diffs.append(
                f"extra arrows {', '.join(map(label_str, g2))} "
                f"on right at degree {key[2]}"
            )
    if diffs:
        return MatchReport(False, diffs)
    if len(rel1) != len(rel2):
        diffs.append(f"relation counts differ: {len(rel1)} vs {len(rel2)}")
    keys = list(groups1)
    group_of1 = {a: i for i, key in enumerate(keys) for a in groups1[key]}
    group_of2 = {a: i for i, key in enumerate(keys) for a in groups2[key]}

    def relations_match(arrow_map, done):
        inv = {v: k for k, v in arrow_map.items()}
        for f, g in rel1:
            if group_of1[f] in done and group_of1[g] in done:
                if (arrow_map[f], arrow_map[g]) not in rel2:
                    return False
        for f, g in rel2:
            if group_of2.get(f) in done and group_of2.get(g) in done:
                if (inv[f], inv[g]) not in rel1:
                    return False
        return True

    def search(k, arrow_map, done):
        if k == len(keys):
            return dict(arrow_map)
        g1, g2 = groups1[keys[k]], groups2[keys[k]]
        for perm in itertools.permutations(g2):
            for a1, a2 in zip(g1, perm):
                arrow_map[a1] = a2
            done.add(k)
            if relations_match(arrow_map, done):
                result = search(k + 1, arrow_map, done)
                if result is not None:
                    return result
            done.discard(k)
            for a1 in g1:
                del arrow_map[a1]
        return None

    if not diffs and search(0, {}, set()) is not None:
        return MatchReport(True)
    canonical = {
        a1: a2 for key in keys for a1, a2 in zip(groups1[key], groups2[key])
    }
    inv = {v: k for k, v in canonical.items()}
    for f, g in sorted(rel1):
        if (canonical[f], canonical[g]) not in rel2:
            diffs.append(
                f"relation {label_str(g)} o {label_str(f)} = 0 has no image on the right"
            )
    for f, g in sorted(rel2):
        if (inv[f], inv[g]) not in rel1:
            diffs.append(
                f"right relation {label_str(g)} o {label_str(f)} = 0 has no preimage"
            )
    if not diffs:
        diffs.append("no arrow matching transports the relation set")
    return MatchReport(False, diffs)


def refine_by_rounds(q):
    """Colour refinement of one quiver as it was: every round recomputes
    and sorts every vertex's signature (its colour and its arrows'
    degrees and far-end colours), and colours are named by their
    signatures' rank, so equal names on two quivers mean equal classes."""
    colors = [0] * q.num_vertices
    src, tgt, deg = q._src, q._tgt, q._deg
    outs = [[(deg[i], tgt[i]) for i in arrows] for arrows in q._out]
    ins = [[(deg[i], src[i]) for i in arrows] for arrows in q._in]
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


def profile_find_isomorphism(q1, q2):
    """find_isomorphism as it was: each quiver refined on its own, round
    by round, each vertex scans all of q2 for its color, and each
    candidate is compared pairwise against every placed vertex."""
    if (
        q1.num_vertices != q2.num_vertices
        or len(q1.arrows) != len(q2.arrows)
        or len(relation_names(q1)) != len(relation_names(q2))
    ):
        return None
    c1, c2 = refine_by_rounds(q1), refine_by_rounds(q2)
    if sorted(c1) != sorted(c2):
        return None
    candidates = {
        v: [w for w in range(q2.num_vertices) if c2[w] == c1[v]]
        for v in range(q1.num_vertices)
    }
    order = sorted(range(q1.num_vertices), key=lambda v: len(candidates[v]))

    def profile(q, u, v):
        return tuple(sorted(q.path_degree((i,)) for i in q.in_arrows(v)
                            if q.arrow_ends(i)[0] == u))

    assignment, used, found = {}, set(), []

    def place(k):
        if k == len(order):
            vmap = {
                q1.primary_label(v): q2.primary_label(w) for v, w in assignment.items()
            }
            if rescan_map_equals(q1, q2, vmap):
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


def rebuilt(q, retarget=None, relations=None):
    """``q`` rebuilt through the constructor, with the arrow named first
    in ``retarget`` sent to the vertex id second (its relations that no
    longer compose dropped), or with ``relations`` in place of its own."""
    rows = arrow_rows(q)
    target = {name: t for name, _, t, _ in rows}
    if retarget:
        target[retarget[0]] = retarget[1]
    if relations is None:
        relations = relation_names(q)
    return GradedQuiver(
        zip(q.vertex_labels, q.vertex_shifts),
        [(name, q.primary_label(s), q.primary_label(target[name]), d)
         for name, s, _, d in rows],
        [(f, g) for f, g in relations
         if target[f] == q.arrow_ends(q.arrow_index(g))[0]],
    )


def controls(aq):
    """The generator quiver and its negative controls: a relation
    dropped, b(1,0) retargeted, and a relation moved onto a composable
    pair that was not one (so the relation counts still agree)."""
    out = [aq]
    names = relation_names(aq)
    relations = sorted(names)
    if relations:
        out.append(rebuilt(aq, relations=relations[1:]))
        rows = arrow_rows(aq)
        free = sorted(
            (f, g)
            for f, _, f_target, _ in rows
            for g, g_source, _, _ in rows
            if g_source == f_target and (f, g) not in names
        )
        if free:
            out.append(rebuilt(aq, relations=relations[1:] + free[:1]))
    if ("b", 1, 0) in set(map(aq.arrow_name, aq.arrows)):
        moved = (aq.arrow_ends(aq.arrow_index(("b", 1, 0)))[1] + 1) % aq.num_vertices
        out.append(rebuilt(aq, retarget=(("b", 1, 0), moved)))
    return out


def sweep_cases():
    for c in curve_sweep(2, 4):
        bq = build_bside(c)
        for q in controls(build_aside(twisted_gluing(c))):
            yield c, bq, q


def test_sweep_has_the_expected_curves_and_controls():
    cases = list(sweep_cases())
    assert len({c for c, _, _ in cases}) == 154
    assert len(cases) > 3 * 154


def test_map_equals_agrees_with_the_rescan_reference():
    seen = set()
    for c, bq, q in sweep_cases():
        vmap = canonical_correspondence(c)
        new, old = map_equals(bq, q, vmap), rescan_map_equals(bq, q, vmap)
        assert (new.ok, new.diffs) == (old.ok, old.diffs), c
        seen.add(new.ok)
    assert seen == {True, False}


def random_graded_pair(rng):
    """Two random quivers on the vertices 0..2 with arrows of degrees -3
    to 3 (negative ones too, and loops), the second often a copy of the
    first with one arrow or relation changed, each with relations on
    random composable pairs."""

    def make(arrows, relations):
        return GradedQuiver(
            [(((v,),), 0) for v in range(3)],
            [((f"f{i}",), (s,), (t,), d) for i, (s, t, d) in enumerate(arrows)],
            [((f"f{a}",), (f"f{b}",)) for a, b in relations
             if arrows[a][1] == arrows[b][0]],
        )

    def arrow():
        return rng.randrange(3), rng.randrange(3), rng.randint(-3, 3)

    arrows = [arrow() for _ in range(rng.randint(0, 6))]
    pairs = [(a, b) for a in range(len(arrows)) for b in range(len(arrows))]
    relations = rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
    other, other_relations = list(arrows), list(relations)
    if arrows and rng.random() < 0.5:
        other[rng.randrange(len(other))] = arrow()
    elif pairs and rng.random() < 0.5:
        other_relations = rng.sample(pairs, len(relations))
    return make(arrows, relations), make(other, other_relations)


def test_map_equals_agrees_with_the_rescan_reference_at_any_degree():
    # Keys offset by the least degree of both quivers: negative degrees
    # and loops must neither collide nor reorder the groups.
    rng = random.Random(2017)
    identity = {(v,): (v,) for v in range(3)}
    seen = set()
    for _ in range(600):
        q1, q2 = random_graded_pair(rng)
        for vmap in identity, {(v,): ((v + 1) % 3,) for v in range(3)}:
            new, old = map_equals(q1, q2, vmap), rescan_map_equals(q1, q2, vmap)
            assert (new.ok, new.diffs) == (old.ok, old.diffs)
            seen.add(new.ok)
    assert seen == {True, False}


def test_find_isomorphism_agrees_with_the_profile_reference():
    found = missed = 0
    for c, bq, q in sweep_cases():
        witness, old = find_isomorphism(bq, q), profile_find_isomorphism(bq, q)
        # the same dict, built in the same placement order
        assert witness == old and (witness is None or list(witness) == list(old)), c
        if witness is None:
            missed += 1
        else:
            found += 1
    assert found >= 154 and missed > 0


def same_classes(a, b):
    """Whether two colourings of the same vertices have the same classes."""
    return len(set(a)) == len(set(zip(a, b))) == len(set(b))


def test_union_refinement_has_the_reference_classes():
    # On an isomorphic pair, the classes of the refinement of both
    # quivers at once are the reference's classes of each quiver, the
    # class of a name on the left joined to the class of that name on
    # the right.
    pairs = [(bq, q) for _, bq, q in sweep_cases()]
    pairs += [(build_bside(c), build_aside(twisted_gluing(c)))
              for c in curve_sweep(3, 5)[::8]]
    compared = 0
    for q1, q2 in pairs:
        if find_isomorphism(q1, q2) is None:
            continue
        reference = refine_by_rounds(q1) + refine_by_rounds(q2)
        assert same_classes(_refine_colors(q1, q2), reference), q1.vertex_labels
        compared += 1
    assert compared >= 154 + 486


class CountingArrowLists(tuple):
    """Per-vertex arrow lists that count the arrows they hand out."""

    reads = 0

    def __getitem__(self, v):
        arrows = tuple.__getitem__(self, v)
        type(self).reads += len(arrows)
        return arrows


def test_refinement_reads_arrows_near_linearly(monkeypatch):
    # Each splitter scan reads the in- and out-arrows of the splitter's
    # vertices, and a vertex is in about log2 V scanned splitters, so the
    # reads stay within a small multiple of (V + A) log2 V; the
    # round-by-round refinement read every arrow in each of the about
    # n / 2 rounds a ring of n strips needs.  The counting lists go into
    # the quivers' one adjacency slot, out-lists then in-lists, past their
    # read-only __setattr__; _out and _in read that slot.
    c = StackyCurveSpec("ring", (6000,), (1,))
    bq, aq = build_bside(c), build_aside(twisted_gluing(c))
    monkeypatch.setattr(CountingArrowLists, "reads", 0)
    for q in bq, aq:
        object.__setattr__(q, "_adjacency", (CountingArrowLists(q._out),
                                             CountingArrowLists(q._in)))
    colors = _refine_colors(bq, aq)
    v = bq.num_vertices + aq.num_vertices
    a = bq.num_arrows + aq.num_arrows
    assert len(colors) == v
    # the first splitter is every vertex: each arrow is read at both ends
    assert 2 * a <= CountingArrowLists.reads <= 2 * (v + a) * math.log2(v)


class CountingRelations(frozenset):
    """A relation set that counts its membership lookups."""

    lookups = 0

    def __contains__(self, pair):
        type(self).lookups += 1
        return frozenset.__contains__(self, pair)


def test_map_equals_reads_each_relation_once(monkeypatch):
    # The 6,000-strip ring, through the library's verify: every arrow
    # group is a singleton, so each relation of the left side is looked
    # up once on the right, and the right side's are never read.
    # The quiver refuses assignment, so the counting set goes into the
    # slot of index-pair relations past its __setattr__.
    c = StackyCurveSpec("ring", (6000,), (1,))
    bq, aq = build_bside(c), build_aside(twisted_gluing(c))
    # counted before the counting sets go in: relation_names reads _rel
    relations = len(relation_names(aq)), len(relation_names(bq))
    monkeypatch.setattr(CountingRelations, "lookups", 0)
    for q in bq, aq:
        object.__setattr__(q, "_rel", CountingRelations(q._rel))
    assert verify_theorem_A(c, aside_quiver=aq, bside_quiver=bq).ok
    groups = len({(s, t, d) for _, s, t, d in arrow_rows(aq)})
    # two relations and four singleton arrow groups per strip
    assert groups == len(aq.arrows) == 4 * 6000
    assert relations == (2 * 6000, 2 * 6000)
    assert CountingRelations.lookups == relations[1]


def test_matching_builds_no_arrow_objects():
    # A quiver has no arrow objects to build: verify and the blind
    # search read the int arrays alone.
    c = StackyCurveSpec("ring", (3, 2), (1, 1))
    assert verify_theorem_A(c).ok
    bq, aq = build_bside(c), build_aside(twisted_gluing(c))
    witness = find_isomorphism(bq, aq)
    assert witness is not None and map_equals(bq, aq, witness).ok


def stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@contextmanager
def recursion_headroom(frames=60):
    """Cap the recursion limit a few dozen frames above the caller, so a
    search that recurses per arrow or per vertex raises RecursionError."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_matching_does_not_recurse():
    c = StackyCurveSpec("ring", (6000,), (1,))
    with recursion_headroom():
        assert verify_theorem_A(c).ok
    bq, aq = build_bside(c), build_aside(twisted_gluing(c))
    with recursion_headroom():
        witness = find_isomorphism(bq, aq)
        assert witness is not None and map_equals(bq, aq, witness).ok


def two_parallel_pairs(relations):
    """a => b => c with two parallel arrows x1, x2 and then y1, y2 (two
    groups of parallel arrows, x's first), and the given relations."""
    return GradedQuiver(
        [((("v", v),), 0) for v in "abc"],
        [((head, i), ("v", s), ("v", t), 0)
         for head, s, t in (("x", "a", "b"), ("y", "b", "c")) for i in (1, 2)],
        relations,
    )


IDENTITY = {("v", v): ("v", v) for v in "abc"}
X1, X2, Y1, Y2 = ("x", 1), ("x", 2), ("y", 1), ("y", 2)


def test_map_equals_undoes_a_choice_refuted_at_a_later_group(monkeypatch):
    # The x group's first choice, x1 -> x1, leaves no image for the
    # relation y1 o x1 = 0, but that relation is filed under the later y
    # group: both y choices fail there, and the search must go back and
    # take x1 -> x2 (with y1 -> y1).
    q1, q2 = two_parallel_pairs([(X1, Y1)]), two_parallel_pairs([(X2, Y1)])
    opened = []
    permutations = itertools.permutations

    def counted(group):
        # a group lists q2's arrow indices
        opened.append(q2._names[group[0]][0])
        return permutations(group)

    monkeypatch.setattr(quiver.itertools, "permutations", counted)
    report = map_equals(q1, q2, IDENTITY)
    assert report.ok and report.diffs == []
    assert opened == ["x", "y", "y"]
    monkeypatch.undo()  # the reference permutes groups of arrow names
    old = rescan_map_equals(q1, q2, IDENTITY)
    assert (report.ok, report.diffs) == (old.ok, old.diffs)


def test_map_equals_with_no_matching_over_parallel_groups():
    # Two relations sharing their y against two sharing their x: no
    # matching of either group carries one set onto the other.
    q1 = two_parallel_pairs([(X1, Y1), (X2, Y1)])
    q2 = two_parallel_pairs([(X1, Y1), (X1, Y2)])
    for a, b in ((q1, q2), (q2, q1)):
        new, old = map_equals(a, b, IDENTITY), rescan_map_equals(a, b, IDENTITY)
        assert not new.ok and new.diffs
        assert (new.ok, new.diffs) == (old.ok, old.diffs)


def test_map_equals_diffs_read_no_views():
    # The diffs name relations by reading the arrays: a quiver has no
    # other view of its arrows.
    q1 = two_parallel_pairs([(X1, Y1), (X2, Y1)])
    q2 = two_parallel_pairs([(X1, Y1), (X1, Y2)])
    for a, b in ((q1, q2), (q2, q1)):
        report = map_equals(a, b, IDENTITY)
        assert any("has no image on the right" in d for d in report.diffs)
        assert any("has no preimage" in d for d in report.diffs)


def test_blind_search_confirms_its_witness_once(monkeypatch):
    # bench/tracing.py counts witness_checks as calls of quiver.map_equals
    # made from find_isomorphism, so the witness must go through that name.
    calls = []

    def counted(q1, q2, vmap):
        calls.append(vmap)
        return map_equals(q1, q2, vmap)

    monkeypatch.setattr(quiver, "map_equals", counted)
    for c in (StackyCurveSpec("ring", (3, 4, 5), (2, 3, 4)),
              StackyCurveSpec("chain", (2, 3, 4, 2), (1, 3))):
        calls.clear()
        witness = find_isomorphism(build_bside(c), build_aside(twisted_gluing(c)))
        assert witness is not None
        assert calls == [witness]


def test_blind_search_answers_no_before_any_witness(monkeypatch):
    # The degree of the one arrow tells the two quivers' vertices apart,
    # so the refinement of both at once leaves no class with vertices of
    # both, and the search ends before it places a vertex.
    calls = []
    monkeypatch.setattr(quiver, "map_equals", lambda *args: calls.append(args))
    vertices = [((("v", 1),), 0), ((("v", 2),), 0)]
    q1 = GradedQuiver(vertices, [(("f",), ("v", 1), ("v", 2), 1)], [])
    q2 = GradedQuiver(vertices, [(("f",), ("v", 1), ("v", 2), 0)], [])
    colors = _refine_colors(q1, q2)
    assert not set(colors[:2]) & set(colors[2:])
    assert find_isomorphism(q1, q2) is None
    assert calls == []


# -- negative controls: the vertex-map alarms fire ---------------------


def test_map_equals_reports_aliases_sent_apart():
    # u and u2 name one vertex of the left quiver
    q1 = GradedQuiver([((("u",), ("u2",)), 0), ((("w",),), 0)], [], [])
    q2 = GradedQuiver([((("u",),), 0), ((("w",),), 0)], [], [])
    report = map_equals(q1, q2, {("u",): ("u",), ("u2",): ("w",), ("w",): ("w",)})
    assert not report
    assert "vertex u2 mapped to two distinct targets" in report.diffs


def test_map_equals_reports_differing_vertex_counts():
    q1 = GradedQuiver([((("u",),), 0), ((("w",),), 0)], [], [])
    q2 = GradedQuiver([((("u",),), 0), ((("w",),), 0), ((("z",),), 0)], [], [])
    report = map_equals(q1, q2, {("u",): ("u",), ("w",): ("w",)})
    assert (report.ok, report.diffs) == (False, ["vertex counts differ: 2 vs 3"])
