"""The one path enumerator: per-vertex arrow lists, one backward walk
into each target that lists every pair's paths in forward depth-first
preorder, checked against a forward reference walk, and the exact test
for an infinite path space."""

import hashlib
import itertools
import random

import pytest

from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.errors import QuiverError
from quiverglue.homology import hom_cohomology, projective
from quiverglue.quiver import GradedQuiver
from quiverglue.sweeps import DEFAULT_SEED as SEED, random_curve, random_gluing


def cycle_quiver(n, killed=()):
    """Directed n-cycle v0 -> v1 -> ... -> v0 of arrows f0..f(n-1); each
    i in ``killed`` declares f(i+1) after f(i) zero."""
    return GradedQuiver(
        [((("v", i),), 0) for i in range(n)],
        [(("f", i), ("v", i), ("v", (i + 1) % n), 0) for i in range(n)],
        [(("f", i), ("f", (i + 1) % n)) for i in killed],
    )


def test_long_chain_has_one_path_end_to_end():
    n = 1500
    q = GradedQuiver(
        [((("v", v),), 0) for v in range(1, n + 1)],
        [(("f", v), ("v", v), ("v", v + 1), 0) for v in range(1, n)],
        [],
    )
    (path,) = q.paths_between(("v", 1), ("v", n))
    assert q.path_names(path) == tuple(("f", v) for v in range(1, n))


def test_cycle_without_relations_is_infinite():
    q = cycle_quiver(3)
    with pytest.raises(QuiverError, match="path space is infinite"):
        q.paths_between(("v", 0), ("v", 0))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_longest_finite_path_may_use_every_arrow(n):
    # one relation cuts the cycle (n = 2: v0 <-> v1 with only one
    # composite killed): the longest nonzero path runs once round it,
    # exactly len(arrows) arrows, and must be accepted
    q = cycle_quiver(n, killed=(n - 1,))
    loops = q.paths_between(("v", 0), ("v", 0))
    assert loops == ((), tuple(range(n)))
    assert max(len(p) for p in loops) == len(q.arrows)
    assert hom_cohomology(projective(q, ("v", 0)), projective(q, ("v", 0))) == {0: 2}


def test_arrow_lists_keep_insertion_order():
    q = GradedQuiver(
        [((("v", v),), 0) for v in (1, 2)],
        [
            (("b",), ("v", 1), ("v", 2), 0),
            (("a",), ("v", 1), ("v", 2), 0),
            (("l",), ("v", 2), ("v", 2), 0),
        ],
        [],
    )
    b, a, loop = q.arrows
    assert q.arrows_from(0) == (b, a)
    assert q.arrows_into(1) == (b, a, loop)
    assert q.arrows_from(1) == (loop,)
    assert q.arrows_into(0) == ()


def test_paths_come_in_depth_first_preorder():
    q = GradedQuiver(
        [((("v", v),), 0) for v in (1, 2, 3)],
        [
            (("b",), ("v", 1), ("v", 2), 0),
            (("a",), ("v", 1), ("v", 2), 0),
            (("y",), ("v", 2), ("v", 3), 0),
            (("x",), ("v", 2), ("v", 3), 0),
            (("z",), ("v", 1), ("v", 3), 0),
        ],
        [(("a",), ("x",))],
    )
    expected = [
        (("b",), ("y",)),
        (("b",), ("x",)),
        (("a",), ("y",)),
        (("z",),),
    ]
    assert list(map(q.path_names, q.paths_between(("v", 1), ("v", 3)))) == expected
    assert q.path_dims().paths[(("v", 1), ("v", 3), 0)] == expected


def walk_out(q, s):
    """(end vertex id, path) for every nonzero path out of vertex id s,
    in depth-first preorder along the out-arrows: the reference walk
    for paths_into, which walks the in-arrows instead.  Raises
    QuiverError once a nonzero path has more arrows than the quiver."""
    names = []
    yield s, ()
    stack = [iter(q.arrows_from(s))]
    while stack:
        for ar in stack[-1]:
            if names and (names[-1], ar.name) in q.relations:
                continue
            if len(names) == len(q.arrows):
                raise QuiverError("path space is infinite")
            names.append(ar.name)
            yield ar.target, tuple(names)
            stack.append(iter(q.arrows_from(ar.target)))
            break
        else:
            stack.pop()
            if names:
                names.pop()


def forward_paths(q, s, t):
    """The nonzero paths s -> t from the reference walk out of s."""
    return [p for v, p in walk_out(q, s) if v == t]


def shuffled(q, rng):
    """q rebuilt with its arrows inserted in a shuffled order."""
    arrows = [
        (a.name, q.primary_label(a.source), q.primary_label(a.target), a.degree)
        for a in q.arrows
    ]
    rng.shuffle(arrows)
    return GradedQuiver(zip(q.vertex_labels, q.vertex_shifts), arrows, q.relations)


def test_backward_walk_keeps_the_forward_preorder():
    # the memo of paths into t is filled by one backward walk and then
    # sorted; it must list every pair's paths exactly as the forward walk
    # out of s (and so path_dims) does, also after the arrows are
    # inserted in another order
    rng = random.Random(SEED)
    several = 0
    for _ in range(40):
        for q in (build_aside(random_gluing(rng)), build_bside(random_curve(rng))):
            for q in (q, shuffled(q, rng)):
                assert {a.degree for a in q.arrows} == {0}
                table = q.path_dims().paths
                for s, t in itertools.product(range(q.num_vertices), repeat=2):
                    s_lab, t_lab = q.primary_label(s), q.primary_label(t)
                    got = list(map(q.path_names, q.paths_between(s_lab, t_lab)))
                    assert got == table.get((s_lab, t_lab, 0), [])
                    assert got == forward_paths(q, s, t)
                    several += len(got) > 1
    assert several > 100


@pytest.mark.parametrize(
    "n, killed", [(2, (1,)), (3, (2,)), (5, (4,)), (3, (0, 2)), (4, (0, 1, 2, 3))]
)
def test_backward_walk_keeps_the_forward_preorder_on_cycles(n, killed):
    q = cycle_quiver(n, killed)
    for s, t in itertools.product(range(n), repeat=2):
        got = q.paths_between(q.primary_label(s), q.primary_label(t))
        assert list(map(q.path_names, got)) == forward_paths(q, s, t)


def test_infinite_paths_into_a_vertex_are_refused():
    # v0 <-> v1 with no relation, g: v1 -> w and h: u -> w; no path
    # leaves w, and only one leaves u, but infinitely many nonzero paths
    # arrive at w: paths_into refuses them all, and paths_between refuses
    # only the pairs whose own paths run round the cycle
    q = GradedQuiver(
        [((("v", 0),), 0), ((("v", 1),), 0), ((("w",),), 0), ((("u",),), 0)],
        [
            (("f", 0), ("v", 0), ("v", 1), 0),
            (("f", 1), ("v", 1), ("v", 0), 0),
            (("g",), ("v", 1), ("w",), 0),
            (("h",), ("u",), ("w",), 0),
        ],
        [],
    )
    assert forward_paths(q, 2, 2) == [()]
    assert q.paths_between(("w",), ("w",)) == ((),)
    assert q.paths_between(("u",), ("w",)) == ((3,),)
    assert q.paths_between(("w",), ("u",)) == ()
    for s in ("v", 0), ("v", 1):
        with pytest.raises(QuiverError, match="path space is infinite"):
            q.paths_between(s, ("w",))
    with pytest.raises(QuiverError, match="path space is infinite"):
        q.paths_into(("w",))
    w = projective(q, ("w",))
    assert hom_cohomology(w, w) == {0: 1}


def bounded_paths(q, s):
    """Every nonzero path out of vertex id s with at most 3 * len(arrows)
    arrows, as (end vertex id, path): long enough to hold a repeated
    arrow whenever some path s -> t, for any t, is one of infinitely
    many."""
    limit = 3 * len(q.arrows)
    stack = [(s, ())]
    while stack:
        v, path = stack.pop()
        yield v, path
        if len(path) < limit:
            for ar in q.arrows_from(v):
                i = q.arrow_index(ar.name)
                if not path or (q.arrow_name(path[-1]), ar.name) not in q.relations:
                    stack.append((ar.target, path + (i,)))


def test_paths_between_is_exact_about_infinity():
    # small random quivers with cycles: paths_between answers exactly the
    # finite path sets, sorted, and refuses exactly the infinite ones
    rng = random.Random(SEED)
    answered = refused = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        arrows = [(("f", i), ("v", rng.randrange(n)), ("v", rng.randrange(n)), 0)
                  for i in range(rng.randint(1, 3))]
        relations = [(f[0], g[0]) for f in arrows for g in arrows
                     if f[2] == g[1] and rng.random() < 0.4]
        q = GradedQuiver([((("v", v),), 0) for v in range(n)], arrows, relations)
        for s in range(n):
            ends = {}
            for v, path in bounded_paths(q, s):
                ends.setdefault(v, []).append(path)
            for t in range(n):
                paths = ends.get(t, [])
                infinite = any(len(set(p)) < len(p) for p in paths)
                try:
                    got = q.paths_between(("v", s), ("v", t))
                except QuiverError:
                    assert infinite, (arrows, relations, s, t)
                    refused += 1
                    continue
                assert not infinite and got == tuple(sorted(paths))
                answered += 1
    assert answered > 200 and refused > 50


# sha256 of path_dims().paths, compared as a mapping (items sorted by
# key, each key's paths in their listed order), recorded when path_dims
# still ran the forward walk out of every vertex: 75 seeded aside and
# bside quivers each, every one also rebuilt with its arrows shuffled
PATH_DIMS_DIGEST = "d516abdf05efee32e1549a0095e9a7e413be0c1dfca96a5280ae26895613afe2"


def test_path_dims_are_unchanged():
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    for _ in range(75):
        for q in (build_aside(random_gluing(rng)), build_bside(random_curve(rng))):
            for q in (q, shuffled(q, rng)):
                table = q.path_dims().paths
                digest.update(repr(sorted(table.items())).encode())
    assert digest.hexdigest() == PATH_DIMS_DIGEST
