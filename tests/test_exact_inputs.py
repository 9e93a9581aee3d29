"""Every library constructor refuses a number that is not exactly an
int (or, for a coefficient or a cocycle entry, a Fraction), and an
unknown or unhashable name, with SpecError or QuiverError: a float, a
bool, a string or None never slips into the exact arithmetic, and no
bare TypeError or IndexError leaks out.  A container of the wrong shape
(not iterable, a string or a dict, or with too few or too many items)
is refused the same way: a string is never read as a sequence of its
characters."""

import copy
import random
import re
from fractions import Fraction

import pytest

from quiverglue.bside import build_bside
from quiverglue.errors import (QuiverError, SpecError, exact_ints, exact_items,
                               exact_scalars)
from quiverglue.gluing import GluingSpec, StackyCurveSpec, SurfaceTopology
from quiverglue.homology import HomComplex, TwistedComplex, hom_cohomology
from quiverglue.mirror import search_ring_mirror
from quiverglue.perms import Permutation, from_twist, swap, tau
from quiverglue.quiver import GradedQuiver

BAD = [1.0, 1.5, True, "1", None, [1]]
HASHABLE_BAD = [bad for bad in BAD if not isinstance(bad, list)]


def test_exact_ints_takes_the_callers_words():
    assert exact_ints([3, -1], "{value!r}") == (3, -1)
    assert exact_scalars((3, Fraction(1, 2)), "{value!r}") == (3, Fraction(1, 2))
    with pytest.raises(SpecError, match=r"^item 1 of x: True$"):
        exact_ints((0, True), "item {index} of {where}: {value!r}", where="x")
    with pytest.raises(SpecError, match=r"^None at None$"):
        exact_ints(None, "{value!r} at {index}")
    for refused in (1.0, True, "1", Fraction(1)):
        with pytest.raises(SpecError):
            exact_ints((refused,), "{value!r}")
    for refused in (0.5, False, "1/3"):
        with pytest.raises(SpecError):
            exact_scalars((refused,), "{value!r}")


def test_exact_items_takes_the_callers_words():
    assert exact_items([3, "a"], "{value!r}") == (3, "a")
    assert exact_items((x for x in "ab"), "{value!r}", 2) == ("a", "b")
    with pytest.raises(SpecError, match=r"^'ab' in x$"):
        exact_items("ab", "{value!r} in {where}", where="x")
    with pytest.raises(QuiverError, match=r"^\[1\] is short$"):
        exact_items([1], "{value!r} is short", 2, QuiverError)
    for refused in ("ab", b"ab", {"a": 1, "b": 2}, 5, None, (1, 2, 3)):
        with pytest.raises(SpecError):
            exact_items(refused, "{value!r}", 2)


def test_an_iterables_own_type_error_propagates():
    # only iter() is asked whether a value is a container: a TypeError
    # raised while its items are made is the caller's fault to report
    def items():
        yield 1
        raise TypeError("raised partway")

    for read in exact_items, exact_ints:
        with pytest.raises(TypeError, match="^raised partway$"):
            read(items(), "{value!r} is not a sequence")


def test_containers_of_the_wrong_shape_are_refused():
    with pytest.raises(SpecError, match=r"permutations must be Permutations, got \(1, 0\)"):
        GluingSpec("circular", (2,), ((1, 0),))
    with pytest.raises(SpecError, match=r"not a permutation of 0\.\.1"):
        Permutation((1, 1))
    with pytest.raises(QuiverError, match=r"vertex labels must be a sequence, got 5"):
        GradedQuiver([(5, 0)], [], [])
    with pytest.raises(QuiverError, match=r"an arrow must be \(name, source, target, "
                       r"degree\), got \('f', \('u',\), \('v',\)\)"):
        GradedQuiver([(("u",), 0), (("v",), 0)], [("f", ("u",), ("v",))], [])
    with pytest.raises(QuiverError, match=r"a relation must be a pair of arrows"):
        GradedQuiver([(("u",), 0)], [], [("f", "g", "h")])
    with pytest.raises(SpecError, match=r"entry 1<-0: path 5 is not a sequence of arrows"):
        TwistedComplex(QUIVER, ((("v", 2), 1), (("v", 3), 0)), {(1, 0): [(1, 5)]})
    with pytest.raises(SpecError, match=r"differential key 5 is not a pair"):
        TwistedComplex(QUIVER, ((("v", 2), 1), (("v", 3), 0)), {5: []})


STRINGS = GradedQuiver([(("p",), 0), (("q",), 0), (("r",), 0)],
                       [("a", "p", "q", 0), ("b", "q", "r", 0)], [])


@pytest.mark.parametrize("call, error, message", [
    (lambda: GradedQuiver([("uv", 0), (("w",), 0)], [("fg", "u", "w", 0)], []),
     QuiverError, "vertex labels must be a sequence, got 'uv'"),
    (lambda: GradedQuiver(zip(STRINGS.vertex_labels, STRINGS.vertex_shifts),
                          [("a", "p", "q", 0), ("b", "q", "r", 0)], ["ab"]),
     QuiverError, "a relation must be a pair of arrows, got 'ab'"),
    (lambda: TwistedComplex(STRINGS, (("p", 1), ("q", 0)), {(1, 0): [(1, "a")]}),
     SpecError, "entry 1<-0: path 'a' is not a sequence of arrows"),
    (lambda: TwistedComplex(STRINGS, (("p", 1), ("q", 0)), {(1, 0): "a"}),
     SpecError, "differential entry (1, 0) must be a sequence of terms, got 'a'"),
    (lambda: TwistedComplex(STRINGS, ("p1",)),
     SpecError, "summand 'p1' is not a (label, shift) pair"),
    (lambda: TwistedComplex(STRINGS, {("p",): 0}),
     SpecError, "summands must be a sequence of (label, shift) pairs, got {('p',): 0}"),
    (lambda: GradedQuiver.from_json_obj(
        {"vertices": [{"labels": "uv"}], "arrows": [], "relations": []}),
     SpecError, "bad quiver data: 'labels' must be a list, got 'uv'"),
    (lambda: GradedQuiver.from_json_obj(
        {"vertices": [{"labels": [["a"], ["b"]]}],
         "arrows": [{"name": "ab", "source": ["a"], "target": ["b"]}],
         "relations": []}),
     SpecError, "bad quiver data: 'name' must be a list, got 'ab'"),
], ids=["vertex_labels", "relation", "path", "entry", "summand", "summands_dict",
        "json_labels", "json_name"])
def test_a_string_or_a_dict_is_never_a_sequence(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_permutation_images_must_be_ints():
    with pytest.raises(SpecError, match=r"permutation images must be integers, got 1\.0"):
        Permutation((1.0, 0.0))
    with pytest.raises(SpecError, match="got True"):
        Permutation((True, False))
    assert Permutation([1, 0]).image == (1, 0)  # stored as a tuple


def test_topology_counts_must_be_ints():
    with pytest.raises(SpecError, match=r"topology counts must be integers, got 1\.0"):
        SurfaceTopology(1.0, (2,), -1.0)
    with pytest.raises(SpecError, match="got True"):
        SurfaceTopology(0, (True, 2), 0)
    assert SurfaceTopology(1, [4, 2], -2).boundary_marks == (2, 4)


@pytest.mark.parametrize("bases, message", [
    ({1: (0.5, 0)}, r"window origin 1: 0\.5 is not an integer"),
    ({1: (True, 0)}, "window origin 1: True is not an integer"),
    ({1: (0,)}, r"window origin 1: \(0,\) is not a pair"),
    ({1: (0, 0, 0)}, "is not a pair"),
    ({1: None}, "window origin 1: None is not an integer"),
    ({1.0: (0, 0)}, r"component 1\.0 is not an integer"),
    ({"1": (0, 0)}, "component '1' is not an integer"),
    ({2: (0, 0)}, r"no components \[2\]"),
], ids=["float", "bool", "short", "long", "none", "float_key", "str_key", "unknown"])
def test_window_origins_are_pairs_of_ints(bases, message):
    with pytest.raises(SpecError, match=message):
        build_bside(StackyCurveSpec("ring", (3,), (1,)), bases)


def test_window_origins_given_as_lists_are_read_as_pairs():
    c = StackyCurveSpec("ring", (3,), (1,))
    assert build_bside(c, {1: [1, 2]}).to_text() == build_bside(c, {1: (1, 2)}).to_text()


@pytest.mark.parametrize("args", [(2.0,), (True,), ("3",), (3, 1.0)])
def test_search_takes_int_genus_and_count(args):
    with pytest.raises(SpecError, match="search needs integers"):
        search_ring_mirror(*args)


def test_quiver_shift_and_degree_must_be_ints():
    # a vertex shift 0.5 and arrow degree 1.5 once gave hom_cohomology
    # {1.5: 1}
    with pytest.raises(SpecError, match=r"vertex 'shift' must be an integer, got 0\.5"):
        GradedQuiver([((("u",),), 0.5), ((("v",),), 0)],
                     [(("f",), ("u",), ("v",), 1)], [])
    with pytest.raises(SpecError, match=r"arrow 'degree' must be an integer, got 1\.5"):
        GradedQuiver([((("u",),), 0), ((("v",),), 0)],
                     [(("f",), ("u",), ("v",), 1.5)], [])
    q = GradedQuiver([((("u",),), 0), ((("v",),), 0)], [(("f",), ("u",), ("v",), 1)], [])
    P = TwistedComplex(q, ((("v",), 0),))
    assert hom_cohomology(TwistedComplex(q, ((("u",), 0),)), P) == {1: 1}


@pytest.mark.parametrize("parts, message", [
    (([(([["u"]]), 0)], [], []), r"vertex label \['u'\] is not hashable"),
    (([((("u",),), 0)], [(["f"], ("u",), ("u",), 0)], []),
     r"arrow \['f'\] is not hashable"),
    (([((("u",),), 0)], [(("f",), ["u"], ("u",), 0)], []), r"unknown vertex \['u'\]"),
    (([((("u",),), 0)], [(("f",), ("u",), ["u"], 0)], []), r"unknown vertex \['u'\]"),
    (([((("u",),), 0)], [(("f",), ("u",), ("u",), 0)], [(("f",), ["f"])]),
     r"unknown arrow \['f'\]"),
], ids=["vertex_label", "arrow_name", "source", "target", "relation_arrow"])
def test_unhashable_names_are_quiver_errors(parts, message):
    with pytest.raises(QuiverError, match=message):
        GradedQuiver(*parts)


def test_cocycle_entries_must_be_ints_or_fractions():
    # 0.1 once became 3602879701896397/36028797018963968, '1/3' became
    # 1/3 and True became 1
    q = GradedQuiver([((("v",),), 0)], [], [])
    P = TwistedComplex(q, ((("v",), 0),))
    h = HomComplex(P, P)
    assert h.cocycle([Fraction(1, 3)], 0).vector == (Fraction(1, 3),)
    assert h.cocycle([2], 0).vector == (Fraction(2),)
    for entry in (0.1, "1/3", True, None):
        with pytest.raises(SpecError,
                           match="cocycle entry .* is not an integer or a Fraction"):
            h.cocycle([entry], 0)
    for degree in (0.0, False, "0"):
        with pytest.raises(SpecError, match="cocycle degree .* is not an integer"):
            h.cocycle([1], degree)


# -- the seeded sweep ---------------------------------------------------

QUIVER = GradedQuiver(
    [((("v", 1),), 0), ((("v", 2),), 0), ((("v", 3),), 0)],
    [(("a",), ("v", 1), ("v", 2), 0), (("y",), ("v", 2), ("v", 3), 0)],
    [(("a",), ("y",))],
)
CONE = TwistedComplex(QUIVER, ((("v", 2), 1), (("v", 3), 0)), {(1, 0): [(1, (("y",),))]})
ENDS = HomComplex(CONE, CONE)
RING = StackyCurveSpec("ring", (3,), (1,))


def _gluing(shape, ranks, images):
    # images that are not a list reach GluingSpec as they are
    if isinstance(images, list):
        images = tuple(map(Permutation, images))
    return GluingSpec(shape, ranks, images)


# Each case: a name, a call, and its arguments as lists (so that a leaf
# can be replaced) around the numbers and names it takes.  A tuple or
# a string is a name, an int or a Fraction is a number, and so is each
# part of a dict's key.
CASES = [
    ("Permutation", Permutation, [[2, 0, 1]]),
    ("GluingSpec", _gluing, ["circular", [2, 3], [[1, 0], [2, 0, 1]]]),
    ("GluingSpec", _gluing, ["linear", [1, 2, 1], [[0, 1]]]),
    ("GluingSpec", GluingSpec, ["circular", [2], [Permutation((1, 0))]]),
    ("StackyCurveSpec", StackyCurveSpec, ["ring", [3, 2], [2, 1]]),
    ("StackyCurveSpec", StackyCurveSpec, ["chain", [1, 5, 1], [2]]),
    ("SurfaceTopology", SurfaceTopology, [1, [2, 4], -2]),
    ("GradedQuiver", GradedQuiver, [
        [[[("u",), ("u", 0)], 0], [[("v",)], -1], [[("w",)], 1]],
        [[("f",), ("u",), ("v",), 0], [("g",), ("v",), ("w",), 2]],
        [[("f",), ("g",)]],
    ]),
    # one-letter names, so that a list of them spelled as a string would
    # read as the same names if a string were taken as a sequence
    ("GradedQuiver", GradedQuiver, [
        [[["u", "t"], 0], [["v"], -1], [["w"], 1]],
        [["f", "u", "v", 0], ["g", "v", "w", 2]],
        [["f", "g"]],
    ]),
    ("TwistedComplex", lambda summands, diff: TwistedComplex(QUIVER, summands, diff), [
        [[("v", 1), 2], [("v", 2), 1], [("v", 3), 0]],
        {(1, 0): [[1, [("a",)]]], (2, 1): [[Fraction(1, 2), [("y",)]]]},
    ]),
    ("TwistedComplex", lambda summands, diff: TwistedComplex(STRINGS, summands, diff), [
        [["p", 1], ["q", 0]],
        {(1, 0): [[1, ["a"]]]},
    ]),
    ("HomComplex.cocycle", ENDS.cocycle, [list(ENDS.identity_cocycle().vector), 0]),
    ("build_bside", lambda bases: build_bside(RING, bases), [{1: [0, -1]}]),
    ("search_ring_mirror", search_ring_mirror, [2, 1]),
    ("swap", swap, [0, 2, 3]),
    ("tau", tau, [3]),
    ("from_twist", from_twist, [2, 5]),
]


def _leaves(obj, path=()):
    """(path, kind) of every leaf of obj, kind one of "name", "number"
    and "key"; a last path step ("key", k, j) is part j of dict key k."""
    if isinstance(obj, list):
        for i, x in enumerate(obj):
            yield from _leaves(x, path + (i,))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            for j in range(len(k) if isinstance(k, tuple) else 1):
                yield path + (("key", k, j),), "key"
            yield from _leaves(v, path + (k,))
    else:
        yield path, "name" if isinstance(obj, (tuple, str)) else "number"


def _spelled(items) -> str:
    """A string as long as ``items``: each one-letter string item as
    itself, so that read as a sequence the string would give those items
    back, and every other item as "?"."""
    return "".join(x if isinstance(x, str) and len(x) == 1 else "?" for x in items)


def _reshapes(obj, path=()):
    """(path, kind, new) for every container below obj, reshaped: each
    list and dict replaced by 5, each list by its items spelled as a
    string, and each Permutation by 5 and by its image tuple (kind
    "shape", to be refused), and each list cut by its last item or given
    it twice (kind "length", which may be taken)."""
    if isinstance(obj, Permutation):
        yield path, "shape", 5
        yield path, "shape", obj.image
    elif isinstance(obj, (list, dict)):
        if path:
            yield path, "shape", 5
        if isinstance(obj, list):
            if path:
                yield path, "shape", _spelled(obj)
                yield path, "length", obj[:-1]
                yield path, "length", obj + obj[-1:]
            items = enumerate(obj)
        else:
            items = obj.items()
        for i, x in items:
            yield from _reshapes(x, path + (i,))


def _replace(obj, path, new):
    *head, last = path
    for step in head:
        obj = obj[step]
    if isinstance(last, tuple) and last[:1] == ("key",):  # ("key", k, j)
        _, k, j = last
        key = k[:j] + (new,) + k[j + 1:] if isinstance(k, tuple) else new
        items = [(key if old == k else old, v) for old, v in obj.items()]
        obj.clear()
        obj.update(items)
    else:
        obj[last] = new


def test_every_case_accepts_its_arguments():
    for name, call, args in CASES:
        call(*copy.deepcopy(args))


def test_library_survives_a_seeded_mutation_sweep():
    # Every single replacement of a leaf by a bad value (a hashable one
    # in a dict key), then seeded runs of two or three at once.  A
    # number replaced must be refused; a name replaced may be taken as a
    # new name.  Either way only SpecError or QuiverError may come out.
    def bad_values(kind):
        return HASHABLE_BAD if kind == "key" else BAD

    def trials():
        for name, call, args in CASES:
            for path, kind in _leaves(args):
                for bad in bad_values(kind):
                    yield name, call, args, [(path, kind, bad)]
        rng = random.Random(2017)
        for _ in range(600):
            name, call, args = rng.choice(CASES)
            leaves = list(_leaves(args))
            picked = rng.sample(leaves, min(len(leaves), rng.randint(2, 3)))
            yield name, call, args, [(path, kind, rng.choice(bad_values(kind)))
                                     for path, kind in picked]
        for name, call, args in CASES:
            for change in _reshapes(args):
                yield name, call, args, [change]
        # A reshaped container with one or two bad leaves outside it; the
        # reshape is listed first, so it is made before a key above it.
        reshaped = [case for case in CASES if any(_reshapes(case[2]))]
        for _ in range(300):
            name, call, args = rng.choice(reshaped)
            change = rng.choice(list(_reshapes(args)))
            leaves = [(path, kind) for path, kind in _leaves(args)
                      if path[:len(change[0])] != change[0]]
            picked = rng.sample(leaves, min(len(leaves), rng.randint(1, 2)))
            yield name, call, args, [change] + [
                (path, kind, rng.choice(bad_values(kind))) for path, kind in picked]

    for name, call, args, changes in trials():
        args = copy.deepcopy(args)
        # values before the keys above them, so each path still holds
        for path, _, bad in sorted(changes, key=lambda c: -len(c[0])):
            _replace(args, path, bad)
        try:
            call(*args)
        except (SpecError, QuiverError):
            continue
        except Exception as exc:
            pytest.fail(f"{name} {changes}: {type(exc).__name__}: {exc}")
        assert all(kind in ("name", "length") for _, kind, _ in changes), (name, changes)
