"""The aside and bside builders against reference builders.

The reference builders are the vertex and arrow generators that the
builders once handed to GradedQuiver's public constructor, which checks
and numbers them with its dicts.  A builder fills the same arrays by
index arithmetic and makes labels and names only when they are read, so
every array, label, shift and name must agree with the reference
quiver's, and every lookup must answer exactly as its dicts do.
"""

import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from quiverglue import cli
from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.errors import QuiverError
from quiverglue.gluing import GluingSpec, StackyCurveSpec, window_origins
from quiverglue.perms import Permutation
from quiverglue.quiver import GradedQuiver
from quiverglue.sweeps import DEFAULT_SEED, curve_sweep, gluing_sweep


# -- the reference builders ---------------------------------------------


def aside_vertices(g):
    for i, (rm, rp) in enumerate(g.side_ranks(), 1):
        yield (("P-", i, 0), ("P+", i, 0)), 0
        yield from (((("P-", i, j),), 0) for j in range(1, rm))
        yield from (((("P+", i, j),), 0) for j in range(1, rp))
        yield (("P-", i, rm), ("P+", i, rp)), 0
    for i, r in enumerate(g.node_ranks(), 1):
        for j in range(r):
            yield (("S", i, j),), 0


def aside_arrows(g, relations):
    """Chain arrows, then the a- and b-arrows of each junction; each
    of those appends (itself, the chain arrow it kills) to ``relations``."""
    n = g.n_components
    for i, (rm, rp) in enumerate(g.side_ranks(), 1):
        for j in range(rm):
            yield ("x", i, j), ("P-", i, j), ("P-", i, j + 1), 0
        for j in range(rp):
            yield ("y", i, j), ("P+", i, j), ("P+", i, j + 1), 0
    for i, (r, sigma) in enumerate(zip(g.node_ranks(), g.perms), 1):
        nxt = i % n + 1  # junction i joins component i to the next
        for j in range(r):
            k = r - 1 - sigma(j)
            a, b = ("a", i, j), ("b", i, j)
            relations += (a, ("y", i, j)), (b, ("x", nxt, k))
            yield a, ("S", i, j), ("P+", i, j), 0
            yield b, ("S", i, j), ("P-", nxt, k), 0


def bside_vertices(c, base):
    for i, (rm, rp) in enumerate(c.side_ranks(), 1):
        ji, mi = base[i]
        yield (("P", i, ji, mi),), 0
        yield from (((("P", i, ji + t, mi),), 0) for t in range(1, rm))
        yield from (((("P", i, ji, mi + s),), 0) for s in range(1, rp))
        yield (("P", i, ji + rm, mi), ("P", i, ji, mi + rp)), 0
    for i, r in enumerate(c.node_ranks(), 1):
        for cls in range(r):
            yield (("S", i, cls),), -1


def bside_arrows(c, base, relations):
    """Row arrows, then the b- and a-arrows of each node; each of those
    appends (itself, the row arrow it kills) to ``relations``."""
    n = c.n_components
    for i, (rm, rp) in enumerate(c.side_ranks(), 1):
        ji, mi = base[i]
        for t in range(rm):
            yield ("x", i, t), ("P", i, ji + t, mi), ("P", i, ji + t + 1, mi), 0
        for s in range(rp):
            yield ("y", i, s), ("P", i, ji, mi + s), ("P", i, ji, mi + s + 1), 0
    for i, (r, k) in enumerate(zip(c.node_ranks(), c.twists), 1):
        nxt = i % n + 1  # node i joins component i to the next
        jn, mn = base[nxt]
        ji, mi = base[i]
        for j in range(r):
            b = ("b", i, j)
            relations.append((b, ("x", nxt, j)))
            yield b, ("S", i, (-jn - j - 1) % r), ("P", nxt, jn + j, mn), 0
        for m in range(r):
            a = ("a", i, m)
            relations.append((a, ("y", i, m)))
            yield a, ("S", i, (-k * (mi + m + 1)) % r), ("P", i, ji, mi + m), 0


def reference_aside(g):
    relations = []
    return GradedQuiver(aside_vertices(g), aside_arrows(g, relations), relations)


def reference_bside(c, bases=None):
    base = window_origins(c, bases)
    relations = []
    return GradedQuiver(bside_vertices(c, base), bside_arrows(c, base, relations),
                        relations)


ARRAYS = ("_src", "_tgt", "_deg", "_out", "_in", "_rel")


def assert_same(q, ref):
    # the arrays first, while q has made no label or name
    assert q._naming is None
    for name in ARRAYS:
        assert getattr(q, name) == getattr(ref, name), name
    assert q.num_vertices == ref.num_vertices
    assert q.vertex_labels == ref.vertex_labels
    assert q.vertex_shifts == ref.vertex_shifts
    assert q._names == ref._names


def random_bases(rng, c):
    return {i: (rng.randint(-3, 3), rng.randint(-3, 3))
            for i in c.components() if rng.random() < 0.5}


def test_builders_fill_the_reference_arrays():
    gluings = gluing_sweep(2, 4)
    for g in gluings:
        assert_same(build_aside(g), reference_aside(g))
    rng = random.Random(DEFAULT_SEED)
    curves = curve_sweep(3, 5)[::4]
    for c in curves:
        assert_same(build_bside(c), reference_bside(c))
        bases = random_bases(rng, c)
        assert_same(build_bside(c, bases), reference_bside(c, bases))
    assert (len(gluings), len(curves)) == (1450, 972)


# -- lookups ---------------------------------------------------------------


def outcome(lookup, key):
    try:
        return lookup(key)
    except QuiverError:
        return "refused"


# Stand-ins for a label or name entry: ints out of every range, values
# equal to ints (which a dict finds), and values no int equals.
ENTRIES = (-2, -1, 0, 1, 2, 3, 7, 10**6, 1.0, 2.0, 0.5, -0.0, True, False,
           Fraction(1), Fraction(1, 2), Decimal(2), complex(1, 0), "1", "P-",
           None, (), (1,), [1], {})


def malformed(rng, key):
    """``key`` with one entry replaced, one dropped, one added, or the
    whole key made a list."""
    entries = list(key)
    move = rng.randrange(5)
    if move == 0:
        return entries
    if move == 1 and entries:
        del entries[rng.randrange(len(entries))]
    elif move == 2:
        entries.insert(rng.randrange(len(entries) + 1), rng.choice(ENTRIES))
    else:
        entries[rng.randrange(len(entries))] = rng.choice(ENTRIES)
    return tuple(entries)


def sample_quivers():
    rng = random.Random(DEFAULT_SEED)
    gluings = [
        GluingSpec("linear", (1, 3, 2), (Permutation((2, 0, 1)),)),
        GluingSpec("circular", (2,), (Permutation((1, 0)),)),
        GluingSpec("circular", (3, 1, 2), tuple(
            Permutation(p) for p in ((1, 2, 0), (0,), (1, 0)))),
    ]
    curves = [StackyCurveSpec("chain", (1, 2, 1), (1,)),
              StackyCurveSpec("ring", (3,), (1,)),
              StackyCurveSpec("ring", (2, 3), (1, 2))]
    for g in gluings:
        yield build_aside(g), reference_aside(g)
    for c in curves:
        bases = random_bases(rng, c) or {1: (2, -3)}
        yield build_bside(c, bases), reference_bside(c, bases)


def test_lookups_answer_as_the_reference_dicts():
    rng = random.Random(DEFAULT_SEED)
    checked = refused = 0
    for q, ref in sample_quivers():
        labels = [lab for labs in ref.vertex_labels for lab in labs]
        names = list(ref._names)
        # every alias, and every name, finds its own vertex or arrow
        for lab in labels:
            assert q.vertex_id(lab) == ref._label_to_id[lab]
        for name in names:
            assert q.arrow_index(name) == ref._index[name]
        for _ in range(400):
            for lookup, ref_lookup, keys in ((q.vertex_id, ref.vertex_id, labels),
                                             (q.arrow_index, ref.arrow_index, names)):
                key = malformed(rng, rng.choice(keys))
                got = outcome(lookup, key)
                assert got == outcome(ref_lookup, key), key
                checked += 1
                refused += got == "refused"
    assert checked == 4800 and 2000 < refused < 4800


def test_lookup_edges():
    q = build_aside(GluingSpec("linear", (1, 3, 2), (Permutation((2, 0, 1)),)))
    # aliases of a merged vertex, and entries equal to ints
    assert q.vertex_id(("P+", 1, 0)) == q.vertex_id(("P-", 1, 0)) == 0
    assert q.vertex_id(("P-", 1.0, True)) == q.vertex_id(("P-", 1, 1))
    assert q.arrow_index(("x", True, 0.0)) == q.arrow_index(("x", 1, 0))
    for label in [("P-", 1, -1), ("P-", 1, 2), ("P+", 1, 4), ("S", 1, 3),
                  ("S", 0, 0), ("Q", 1, 0), ("P-", 1), ("P-", 1, 0, 0),
                  ("P-", "1", 0), ("P-", 1, 0.5), ["P-", 1, 0], ("P-", [1], 0),
                  "P-", None]:
        with pytest.raises(QuiverError, match="unknown vertex"):
            q.vertex_id(label)
    for name in [("x", 1, -1), ("b", 1, 3), ("z", 1, 0), ("x", 1), ["x", 1, 0]]:
        with pytest.raises(QuiverError, match="unknown arrow"):
            q.arrow_index(name)


def test_cli_refuses_what_a_lookup_refuses(capsys, tmp_path):
    # A summand label or a path's arrow name in an ext complexes file
    # over a gluing: exit 2 exactly where the reference dicts refuse it.
    spec = tmp_path / "gluing.json"
    spec.write_text(json.dumps({"shape": "linear", "ranks": [1, 3, 2],
                                "perms": [[2, 0, 1]]}))
    ref = reference_aside(GluingSpec("linear", (1, 3, 2), (Permutation((2, 0, 1)),)))
    complexes = tmp_path / "complexes.json"
    cases = [
        (["P-", 1, 1], ["x", 1, 0]), (["P-", 1.0, True], ["x", True, 0.0]),
        (["P-", 1, -1], ["x", 1, 0]), (["P-", 1, 1], ["x", 1, -1]),
        (["Q", 1, 1], ["x", 1, 0]), (["P-", 1], ["x", 1, 0, 0]),
        (["P-", "1", 1], ["x", "1", 0]), (["P-", [1], 1], ["x", [1], 0]),
    ]
    for label, name in cases:
        refused = "refused" in (outcome(ref.vertex_id, tuple(label)),
                                outcome(ref.arrow_index, tuple(name)))
        complexes.write_text(json.dumps({"complexes": [{
            "name": "C",
            "summands": [[["P-", 1, 0], 1], [label, 0]],
            "differential": [[1, 0, [[1, [name]]]]],
        }]}))
        code = cli.main(["ext", "--spec", str(spec), str(complexes)])
        err = capsys.readouterr().err
        assert code == (2 if refused else 0), (label, name, err)
    for selector in ("E-:1:-1", "E+:1:-1", "E-:0:0", "E-:1:3"):
        assert cli.main(["localize", "--spec", str(spec), selector]) == 2
        assert capsys.readouterr().err.startswith("error:")
