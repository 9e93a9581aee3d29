"""Seeded inputs for the benchmark workloads.

The three grids reproduce the acceptance sweeps exactly: gluings with
at most three components and ranks at most five (31,394 specs), the
chains and rings over the same bounds with every valid twist (3,885
curves), and the restricted gluing grid with at most two components
and ranks at most four (1,450 gluings, 17,610 localization objects).
Junction permutations are exhaustive while every junction rank stays
at most three, and fifty random tuples per rank combination beyond;
only those tuples depend on the seed, and at seed 1729 they are the
ones the acceptance tests draw.  The CLI workload gets spec files whose
sizes and shapes are fixed and whose permutations and twists come from
the seed.

A time-bounded run covers a prefix of its grid, so every grid is
visited in a low-discrepancy order: each prefix samples the grid's
natural order evenly, and the mix of small and large items does not
depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import random

DEFAULT_SEED = 1729
RANDOM_TUPLES = 50  # per rank combination whenever a junction rank > 3

GLUE_GRID_SIZE = 31394
CURVE_GRID_SIZE = 3885
LOC_GRID_GLUINGS = 1450
LOC_GRID_OBJECTS = 17610

_GOLDEN = (math.sqrt(5) - 1) / 2


def visit_order(items: list, seed: int) -> list:
    """The items reordered so that every prefix spreads evenly over the
    original order: item k is keyed by frac(offset + k * golden ratio),
    a Beatty-type sequence, with the offset drawn from the seed."""
    offset = random.Random(seed).random()
    keys = [((offset + k * _GOLDEN) % 1.0, k) for k in range(len(items))]
    keys.sort()
    return [items[k] for _, k in keys]


def _random_image(r: int, rng: random.Random) -> tuple[int, ...]:
    image = list(range(r))
    rng.shuffle(image)
    return tuple(image)


def gluing_sweep(qg, max_components: int, max_rank: int, seed: int) -> list:
    """Every linear and circular gluing in the grid, in the acceptance
    tests' order.  ``qg`` is the imported ``quiverglue`` package."""
    Permutation, GluingSpec = qg.Permutation, qg.GluingSpec
    rng = random.Random(seed)
    out = []
    for shape in ("linear", "circular"):
        for n in range(1, max_components + 1):
            length = n + 1 if shape == "linear" else n
            for ranks in itertools.product(range(1, max_rank + 1), repeat=length):
                jr = ranks[1:-1] if shape == "linear" else ranks
                if not jr:
                    out.append(GluingSpec(shape, ranks, ()))
                elif max(jr) <= 3:
                    pools = [
                        [Permutation(im) for im in itertools.permutations(range(r))]
                        for r in jr
                    ]
                    for ps in itertools.product(*pools):
                        out.append(GluingSpec(shape, ranks, ps))
                else:
                    for _ in range(RANDOM_TUPLES):
                        ps = tuple(Permutation(_random_image(r, rng)) for r in jr)
                        out.append(GluingSpec(shape, ranks, ps))
    return out


def curve_sweep(qg, max_components: int, max_rank: int) -> list:
    """Every chain and ring in the grid with all valid twists."""
    out = []
    for shape in ("chain", "ring"):
        for n in range(1, max_components + 1):
            length = n + 1 if shape == "chain" else n
            for ranks in itertools.product(range(1, max_rank + 1), repeat=length):
                nodes = ranks[1:-1] if shape == "chain" else ranks
                pools = [
                    [k for k in range(r) if math.gcd(k, r) == 1] for r in nodes
                ]
                for tw in itertools.product(*pools):
                    out.append(qg.StackyCurveSpec(shape, ranks, tw))
    return out


def _components(shape: str, ranks: tuple) -> range:
    return range(1, len(ranks) if shape == "linear" else len(ranks) + 1)


def _side_ranks(shape: str, ranks: tuple, i: int) -> tuple[int, int]:
    """(minus rank, plus rank) of component i."""
    if shape == "linear":
        return ranks[i - 1], ranks[i]
    return ranks[(i - 2) % len(ranks)], ranks[i - 1]


def localization_selectors(g) -> list[tuple[str, int, int]]:
    """(kind, component, position) of every localization object of a
    gluing, in the order the package enumerates them."""
    out = []
    for i in _components(g.shape, g.ranks):
        rm, rp = _side_ranks(g.shape, g.ranks, i)
        out.extend(("E-", i, j) for j in range(rm))
        out.extend(("E+", i, j) for j in range(rp))
    return out


def glue_grid(qg, seed: int) -> list:
    specs = gluing_sweep(qg, 3, 5, seed)
    if len(specs) != GLUE_GRID_SIZE:
        raise AssertionError(f"glue grid has {len(specs)} gluings")
    return visit_order(specs, seed)


def mirror_grid(qg, seed: int) -> list:
    curves = curve_sweep(qg, 3, 5)
    if len(curves) != CURVE_GRID_SIZE:
        raise AssertionError(f"curve grid has {len(curves)} curves")
    return visit_order(curves, seed)


def loc_grid(qg, seed: int) -> list:
    """(gluing, selectors) pairs; the items are the selectors."""
    specs = gluing_sweep(qg, 2, 4, seed)
    if len(specs) != LOC_GRID_GLUINGS:
        raise AssertionError(f"localization grid has {len(specs)} gluings")
    pairs = [(g, localization_selectors(g)) for g in specs]
    objects = sum(len(sel) for _, sel in pairs)
    if objects != LOC_GRID_OBJECTS:
        raise AssertionError(f"localization grid has {objects} objects")
    return visit_order(pairs, seed)


# -- CLI specs ---------------------------------------------------------

# Strip counts per size class: the tests/data examples sit at the bottom,
# the largest gluings and curves have hundreds of strips.  Localization
# and ext grow faster than linearly in the strip count, so they stop
# lower.  verify overflows the recursion limit near 250 strips and is
# the slowest subcommand well before that, so its items stop at 64 and
# the capacity ladder carries the larger sizes.
STRIP_LADDER = (2, 4, 8, 16, 32, 64, 128, 256)
VERIFY_MAX = 64
LOCALIZE_LADDER = (2, 4, 8, 16, 32, 48)
EXT_LADDER = (2, 4, 8, 12)
SEARCHES = ((2, 1), (3, 2), (4, 3))
SWEEP_SAMPLES = 15
SWEEP_SEED = 7

# The examples shipped with the package's tests, inlined so the
# benchmark does not depend on the test tree.
EXAMPLES = {
    "genus2_linear": {"shape": "linear", "ranks": [1, 3, 3, 1],
                      "perms": [[1, 0, 2], [1, 0, 2]]},
    "balanced_ring": {"shape": "ring", "ranks": [2, 2], "twists": [1, 1]},
    "chain_121": {"shape": "chain", "ranks": [1, 2, 1], "twists": [1]},
    "three_vertex_quiver": {
        "vertices": [{"labels": [["v", k]], "shift": 0} for k in (1, 2, 3)],
        "arrows": [
            {"name": [a], "source": ["v", s], "target": ["v", t], "degree": 0}
            for a, s, t in (("a", 1, 2), ("b", 1, 2), ("x", 2, 3), ("y", 2, 3))
        ],
        "relations": [[["a"], ["y"]], [["b"], ["x"]]],
    },
}
EXAMPLE_COMPLEXES = {
    "complexes": [
        {"name": "M1", "summands": [[["v", 2], 1], [["v", 3], 0]],
         "differential": [[1, 0, [[1, [["y"]]]]]]},
        {"name": "M2", "summands": [[["v", 1], 1], [["v", 2], 0]],
         "differential": [[1, 0, [[1, [["b"]]]]]]},
    ]
}


def balanced_ranks(strips: int, parts: int) -> list[int]:
    """``strips`` split into ``min(parts, strips)`` near-equal ranks."""
    parts = min(parts, strips)
    return [strips // parts + (k < strips % parts) for k in range(parts)]


def gluing_obj(shape: str, strips: int, rng: random.Random) -> dict:
    """A gluing of the given shape and total rank (four ranks when
    linear, three components when circular) with seeded permutations,
    as a spec-file object."""
    ranks = balanced_ranks(strips, 4 if shape == "linear" else 3)
    junction = ranks[1:-1] if shape == "linear" else ranks
    perms = [list(_random_image(r, rng)) for r in junction]
    return {"shape": shape, "ranks": ranks, "perms": perms}


def curve_obj(shape: str, strips: int, rng: random.Random) -> dict:
    """A chain or ring shaped like ``gluing_obj``, with seeded twists."""
    ranks = balanced_ranks(strips, 4 if shape == "chain" else 3)
    nodes = ranks[1:-1] if shape == "chain" else ranks
    twists = [
        rng.choice([k for k in range(r) if math.gcd(k, r) == 1]) for r in nodes
    ]
    return {"shape": shape, "ranks": ranks, "twists": twists}


def closed_form_count(spec: dict) -> int:
    """Vertex count of either quiver of a gluing or curve spec: r_0 +
    3*sum(interior) + r_n for linear and chain, 3*sum(ranks) otherwise."""
    ranks = spec["ranks"]
    if spec["shape"] in ("linear", "chain"):
        return ranks[0] + 3 * sum(ranks[1:-1]) + ranks[-1]
    return 3 * sum(ranks)


def localization_complexes(gluing: dict, count: int) -> dict:
    """The first ``count`` E+ localization objects of a gluing, written
    as twisted complexes for ``quiverglue ext``: the cone over y(i,j),
    with S(i,j) stacked on top through a(i,j) when a junction follows
    component i."""
    shape, ranks = gluing["shape"], tuple(gluing["ranks"])
    choices = [
        (i, j)
        for i in _components(shape, ranks)
        for j in range(_side_ranks(shape, ranks, i)[1])
    ]
    out = []
    for i, j in choices[:count]:
        chain = [[["P+", i, j], 2], [["P+", i, j + 1], 1]]
        junction_after = shape == "circular" or i < len(ranks) - 1
        if junction_after:
            summands = [[["S", i, j], 3], *chain]
            diff = [[1, 0, [[1, [["a", i, j]]]]], [2, 1, [[1, [["y", i, j]]]]]]
        else:
            summands = chain
            diff = [[1, 0, [[1, [["y", i, j]]]]]]
        out.append({"name": f"E+({i},{j})", "summands": summands,
                    "differential": diff})
    return {"complexes": out}


def cli_items(seed: int) -> list[dict]:
    """One pass of CLI invocations.  Each item names its subcommand, the
    spec objects to write, the arguments (with ``{name}`` standing for a
    written spec file), and what the benchmark checks in the output.

    Shapes, sizes, formats and selectors are fixed, so the cost of a
    pass hardly depends on the seed; the seed draws the permutations
    and twists."""
    rng = random.Random(seed)
    items = []

    def add(cmd, args, files=None, fmt="text", check=None, strips=0):
        items.append({"cmd": cmd, "args": args, "files": files or {},
                      "format": fmt, "check": check or {}, "strips": strips})

    ex = EXAMPLES
    add("topology", ["--spec", "{g}"], {"g": ex["genus2_linear"]}, strips=8)
    add("verify", ["--spec", "{c}"], {"c": ex["balanced_ring"]}, "json", strips=4)
    add("localize", ["--spec", "{c}", "E-:1:0"], {"c": ex["chain_121"]}, "json",
        strips=4)
    add("ext", ["--spec", "{q}", "{x}"],
        {"q": ex["three_vertex_quiver"], "x": EXAMPLE_COMPLEXES}, "json",
        {"pairs": 4})

    formats = ("text", "json", "dot")
    for k, s in enumerate(STRIP_LADDER):
        for m, (gshape, cshape) in enumerate((("linear", "chain"), ("circular", "ring"))):
            g, c = gluing_obj(gshape, s, rng), curve_obj(cshape, s, rng)
            add("topology", ["--spec", "{g}"], {"g": g}, formats[m], strips=s)
            add("topology", ["--spec", "{c}"], {"c": c}, formats[1 - m], strips=s)
            add("aside", ["--spec", "{g}"], {"g": g}, formats[(k + m) % 3],
                {"vertices": closed_form_count(g)}, s)
            add("bside", ["--spec", "{c}"], {"c": c}, formats[(k + m + 1) % 3],
                {"vertices": closed_form_count(c)}, s)
            if s <= VERIFY_MAX:
                add("verify", ["--spec", "{c}"], {"c": c}, formats[m], strips=s)
    for s in LOCALIZE_LADDER:
        for m, shape in enumerate(("linear", "circular")):
            g = gluing_obj(shape, s, rng)
            for selector in ("E-:1:0", "E+:1:0"):
                add("localize", ["--spec", "{g}", selector], {"g": g}, formats[m],
                    strips=s)
    for s in EXT_LADDER:
        for m, shape in enumerate(("linear", "circular")):
            g = gluing_obj(shape, s, rng)
            cx = localization_complexes(g, 3)
            add("ext", ["--spec", "{g}", "{x}"], {"g": g, "x": cx}, formats[m],
                {"pairs": len(cx["complexes"]) ** 2}, s)
    for m, (genus, n) in enumerate(SEARCHES):
        add("search", [str(genus), str(n)], fmt=formats[m % 2],
            check={"genus": genus, "components": n})
    add("sweep", ["--samples", str(SWEEP_SAMPLES), "--seed", str(SWEEP_SEED)])
    return items


# Capacity ladder: strip counts that (roughly) double, through 1500.
LADDER = (47, 94, 188, 375, 750, 1500, 3000, 6000)


def ladder_probes(strips: int) -> dict[str, tuple[dict, list[str]]]:
    """Spec and extra arguments per laddered subcommand: ``localize
    E-:1:0`` on a single annulus with ``strips`` marks on its minus side
    (a linear chain), and ``verify`` on a one-component ring of rank
    ``strips`` and twist 1."""
    return {
        "localize": ({"shape": "linear", "ranks": [strips, 1], "perms": []},
                     ["E-:1:0"]),
        "verify": ({"shape": "ring", "ranks": [strips], "twists": [1]}, []),
    }
