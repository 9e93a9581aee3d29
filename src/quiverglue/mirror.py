"""The bridge between the two sides: canonical vertex correspondence,
the full verification report, Grothendieck-rank bookkeeping, and the
existence search for ring mirrors of a prescribed genus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .aside import _Numbering as _AsideNumbering
from .aside import build_aside, object_count
from .bside import _Numbering as _BsideNumbering
from .bside import build_bside
from .errors import FalsificationError, SpecError, exact_ints
from .gluing import (
    RING,
    GluingSpec,
    StackyCurveSpec,
    predicted_topology_curve,
    twisted_gluing,
    window_origins,
)
from .quiver import GradedQuiver, _match_ids, map_equals
from .surface import surface_topology


def canonical_correspondence(
    c: StackyCurveSpec,
    bases: dict[int, tuple[int, int]] | None = None,
) -> dict:
    """The vertex bijection from the collection quiver of ``c`` onto the
    generator quiver of ``twisted_gluing(c, bases)``.

    Row slots map by position (x-row slot j to P-(i,j), y-row slot m to
    P+(i,m)); the twist class S(i,c) maps to the S(i,j) whose b-arrow
    lands on the same slot on the other side.
    """
    base, g = window_origins(c, bases), twisted_gluing(c, bases)
    vmap = {}
    for i in c.components():
        ji, mi = base[i]
        for t in range(c.minus_rank(i) + 1):
            vmap[("P", i, ji + t, mi)] = ("P-", i, t)
        for s in range(c.plus_rank(i) + 1):
            vmap[("P", i, ji, mi + s)] = ("P+", i, s)
    for i in c.junctions():
        r = c.junction_rank(i)
        sigma_inv = g.perm(i).inverse()
        jn = base[c.next_component(i)][0]
        for cls in range(r):
            j_slot = (-jn - cls - 1) % r
            vmap[("S", i, cls)] = ("S", i, sigma_inv((r - 1 - j_slot) % r))
    return vmap


def _correspondence_ids(
    c: StackyCurveSpec, base: dict[int, tuple[int, int]], g: GluingSpec
) -> list[int]:
    """``canonical_correspondence`` as vertex ids, given the window
    origins ``base`` and the twisted gluing ``g`` they produce: entry v
    is the id, in ``build_aside(g)``, of the image of vertex id v of
    ``build_bside`` at ``base``.

    Both builders number each component's row block alike, slot by
    slot, so the map is the identity there.  Node i numbers its classes
    S(i,c) and strips S(i,j) in one block on each side, and
    S(i,c) goes to S(i, sigma_i^-1((j_{i+1} + c) mod r)): the inverse
    permutation's images, rotated by the next component's j origin.
    """
    image = list(range(sum(c.minus_rank(i) + c.plus_rank(i) for i in c.components())))
    for i in c.junctions():
        inv = g.perm(i).inverse().image
        s = base[c.next_component(i)][0] % len(inv)
        n = len(image)
        image += [n + j for j in inv[s:] + inv[:s]]
    return image


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    details: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class VerifyReport:
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "pass": self.ok,
            "checks": [
                {"name": c.name, "pass": c.ok, "details": c.details}
                for c in self.checks
            ],
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}")
            lines.extend(f"    {d}" for d in c.details)
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def verify_theorem_A(
    c: StackyCurveSpec,
    bases: dict[int, tuple[int, int]] | None = None,
    aside_quiver: GradedQuiver | None = None,
    bside_quiver: GradedQuiver | None = None,
) -> VerifyReport:
    """Cross-check everything finitely checkable about a mirror pair:
    the two quivers match under the canonical correspondence, the
    closed-form topology agrees with the surface oracle, and the object
    count equals the Grothendieck rank #marks - chi.

    The optional quiver arguments let negative-control tests inject
    perturbed structures; by default both are built from ``c``.  The
    quivers are matched by vertex id (_correspondence_ids) when both are
    numbered as their builders number them for ``c``, and otherwise
    through the labels of the canonical correspondence once, so an
    injected quiver in another vertex order is judged by its labels.
    """
    base = window_origins(c, bases)
    g = twisted_gluing(c, bases)
    aq = aside_quiver if aside_quiver is not None else build_aside(g)
    bq = bside_quiver if bside_quiver is not None else build_bside(c, bases)
    checks = []

    if bq._numbering == _BsideNumbering(c, base) and aq._numbering == _AsideNumbering(g):
        report = _match_ids(bq, aq, _correspondence_ids(c, base, g))
    else:
        report = map_equals(bq, aq, canonical_correspondence(c, bases))
    checks.append(Check("quiver", report.ok, report.diffs))

    predicted = predicted_topology_curve(c)
    oracle = surface_topology(g)
    details = []
    if predicted != oracle:
        details.append(f"closed form {predicted} vs oracle {oracle}")
    checks.append(Check("topology", predicted == oracle, details))

    k0 = oracle.k0_rank
    counts = {
        "collection": bq.num_vertices,
        "generators": aq.num_vertices,
        "closed form": object_count(g),
    }
    details = [
        f"{name} count {value} != K0 rank {k0}"
        for name, value in counts.items()
        if value != k0
    ]
    checks.append(Check("k0", not details, details))
    return VerifyReport(checks)


def k0_rank(g: GluingSpec) -> int:
    """#marked points - Euler characteristic, from the surface oracle."""
    topo = surface_topology(g)
    if topo.num_marks == 0:
        raise SpecError("rank formula needs at least one marked point")
    return topo.k0_rank


# The most strips (rank sum) a curve may have for `quiverglue verify`, and
# (2g + n - 2) a ring for search_ring_mirror.  Matching no longer recurses,
# so this is a memory limit: the largest capacity-ladder rung whose quivers
# keep the CLI's peak RSS near that of its other subcommands.  Matched by
# vertex id, verify_theorem_A on the 1,500-strip ring (twist 1) peaks at
# about 4 MiB under tracemalloc, and a fresh process verifying it at
# 20.5 MB RSS; the next rung, 3,000 strips, reads about 8.4 MiB and 25.3 MB.
MAX_STRIPS = 1500


def search_ring_mirror(genus: int, n: int = 1) -> list[int]:
    """All twists k making the one-stacky-point ring of ranks
    (2g-1, 1, ..., 1) mirror to a genus-g surface with n boundary
    circles; every hit is re-verified through the full pipeline.

    Nonempty for every genus >= 2 (k = 1 always qualifies since 2g-1
    is odd); an empty result would falsify the existence theorem.
    Rings of more than MAX_STRIPS strips are rejected.
    """
    exact_ints((genus, n), "search needs integers, got {value!r}")
    if genus < 2:
        raise SpecError("search needs genus >= 2")
    if n < 1:
        raise SpecError("need at least one boundary circle")
    strips = 2 * genus + n - 2
    if strips > MAX_STRIPS:
        raise SpecError(f"ring of {strips} strips exceeds the search limit "
                        f"{MAX_STRIPS}")
    m = 2 * genus - 1
    hits = []
    for k in range(1, m):
        if math.gcd(k, m) != 1 or math.gcd(k + 1, m) != 1:
            continue
        c = StackyCurveSpec(
            shape=RING,
            ranks=(m,) + (1,) * (n - 1),
            twists=(k,) + (0,) * (n - 1),
        )
        report = verify_theorem_A(c)
        # A passing report has shown the closed form equal to the oracle.
        topo = predicted_topology_curve(c)
        expected_boundary = tuple(sorted([2 * m] + [2] * (n - 1)))
        if (
            not report.ok
            or topo.genus != genus
            or topo.boundary_marks != expected_boundary
        ):
            raise FalsificationError(
                f"k={k} passed the arithmetic filter but failed "
                f"verification: {report.summary()}"
            )
        hits.append(k)
    if not hits:
        raise FalsificationError(
            f"no valid twist mod {m}: existence of a genus-{genus} ring "
            f"mirror is falsified"
        )
    return hits
