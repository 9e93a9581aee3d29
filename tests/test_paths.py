"""The one path enumerator: per-vertex arrow lists, depth-first preorder,
and the exact test for an infinite path space."""

import pytest

from quiverglue.errors import QuiverError
from quiverglue.homology import hom_cohomology, projective
from quiverglue.quiver import GradedQuiver


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
    assert path == tuple(("f", v) for v in range(1, n))


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
    assert loops == ((), tuple(("f", i) for i in range(n)))
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
    assert list(q.paths_between(("v", 1), ("v", 3))) == expected
    assert q.path_dims().paths[(("v", 1), ("v", 3), 0)] == expected
