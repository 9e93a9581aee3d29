"""Gluing data for surfaces built from marked annuli, the matching
curve-side data (chains and rings of stacky rational curves), and the
closed-form topology predictions that the surface oracle is checked
against.

Two shapes exist on each side.  A *linear* gluing has components
1..n with ranks ``r_0..r_n``; component i is an annulus whose two
boundary circles carry ``r_{i-1}`` and ``r_i`` marked points, and
junction i (for 1 <= i <= n-1) glues the plus side of component i to
the minus side of component i+1 through a permutation of its r_i
strips.  A *circular* gluing has ranks ``r_1..r_n``, every component
glued to the next cyclically, with n junctions.  On the curve side the
same numbers appear as a chain or ring of rational curves with stacky
points of the given orders and a twist k_i at each node, gcd(k_i, r_i)
= 1; the node permutation is x |-> -k_i * x.  :class:`Shape` holds the
index arithmetic of all four shapes, and both spec classes build on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import FalsificationError, SpecError, exact_ints, exact_items
from .perms import Permutation

LINEAR = "linear"
CIRCULAR = "circular"
CHAIN = "chain"
RING = "ring"

# Window origin (j, m) of a component's exceptional collection unless a
# caller moves it; see bside.
DEFAULT_BASE = (0, -1)


@dataclass(frozen=True)
class SurfaceTopology:
    """Genus, Euler characteristic, and the multiset of boundary mark
    counts of a compact oriented surface with marked boundary; neither
    the genus nor any mark count is negative."""

    genus: int
    boundary_marks: tuple[int, ...]
    euler_characteristic: int

    def __post_init__(self) -> None:
        message = "topology counts must be integers, got {value!r}"
        marks = tuple(sorted(exact_ints(self.boundary_marks, message)))
        object.__setattr__(self, "boundary_marks", marks)
        exact_ints((self.genus, self.euler_characteristic), message)
        if self.genus < 0 or marks and marks[0] < 0:
            raise SpecError(f"no surface has genus {self.genus} and boundary "
                            f"marks {marks}")
        expected = 2 - 2 * self.genus - len(self.boundary_marks)
        if expected != self.euler_characteristic:
            raise SpecError(
                f"inconsistent topology: genus {self.genus} with "
                f"{len(self.boundary_marks)} boundary components forces "
                f"chi = {expected}, got {self.euler_characteristic}"
            )

    @classmethod
    def measured(cls, boundary_marks, euler_characteristic: int, of) -> "SurfaceTopology":
        """The surface of ``of`` with these boundary marks and Euler
        characteristic, its genus taken from 2g = 2 - b - chi; an odd or
        negative 2g, which no oriented surface has, raises
        FalsificationError."""
        genus2 = 2 - len(boundary_marks) - euler_characteristic
        if genus2 % 2 or genus2 < 0:
            raise FalsificationError(
                f"{'odd' if genus2 % 2 else 'negative'} 2g = {genus2} for {of}: "
                f"{len(boundary_marks)} boundary components and chi = "
                f"{euler_characteristic}"
            )
        return cls(genus2 // 2, boundary_marks, euler_characteristic)

    @property
    def num_boundary(self) -> int:
        return len(self.boundary_marks)

    @property
    def num_marks(self) -> int:
        return sum(self.boundary_marks)

    @property
    def k0_rank(self) -> int:
        """Rank of the expected Grothendieck group: one generator per
        mark minus the Euler characteristic."""
        return self.num_marks - self.euler_characteristic


@dataclass(frozen=True)
class Shape:
    """A shape with its ranks, and the index arithmetic that a gluing and
    its mirror curve share.

    Component i has a minus and a plus side.  Junction (or node) i glues
    the plus side of component i to the minus side of component
    ``next_component(i)`` and has the plus rank of component i.  An open
    shape (linear, chain) with ranks ``r_0..r_n`` has n components,
    junctions 1..n-1 and two free end sides; a closed one (circular,
    ring) with ranks ``r_1..r_n`` has n components and n junctions.
    """

    shape: str
    ranks: tuple[int, ...]

    _SHAPES = (LINEAR, CIRCULAR, CHAIN, RING)
    _CLOSED = (CIRCULAR, RING)

    def __post_init__(self) -> None:
        if self.shape not in self._SHAPES:
            raise SpecError(f"unknown shape {self.shape!r}")
        ranks = exact_ints(self.ranks, "ranks must be integers, got {value!r}")
        object.__setattr__(self, "ranks", ranks)
        least = self.rank_count(self.shape, 1)
        if len(ranks) < least:
            raise SpecError(f"a {self.shape} shape needs {least} or more ranks")
        if min(ranks) < 1:
            raise SpecError("ranks must be positive")

    @staticmethod
    def rank_count(shape: str, n_components: int) -> int:
        """How many ranks a shape with n components has: an open one
        carries a free end rank on each side."""
        return n_components if shape in Shape._CLOSED else n_components + 1

    @property
    def closed(self) -> bool:
        return self.shape in self._CLOSED

    @property
    def free_ranks(self) -> tuple[int, ...]:
        """The mark counts of the two free end sides: r_0 and r_n for an
        open shape, none for a closed one."""
        return () if self.closed else (self.ranks[0], self.ranks[-1])

    @property
    def n_components(self) -> int:
        return len(self.ranks) if self.closed else len(self.ranks) - 1

    def components(self) -> range:
        return range(1, self.n_components + 1)

    def junctions(self) -> range:
        n = len(self.ranks)
        return range(1, n + 1) if self.closed else range(1, n - 1)

    def minus_rank(self, i: int) -> int:
        """Mark count on the minus boundary circle of component i."""
        if self.closed:
            return self.ranks[(i - 2) % len(self.ranks)]
        return self.ranks[i - 1]

    def plus_rank(self, i: int) -> int:
        return self.ranks[i - 1] if self.closed else self.ranks[i]

    junction_rank = plus_rank

    def node_ranks(self) -> tuple[int, ...]:
        """The rank of every junction, in order."""
        return self.ranks if self.closed else self.ranks[1:-1]

    def next_component(self, i: int) -> int:
        return i % len(self.ranks) + 1 if self.closed else i + 1

    def junction_before(self, i: int) -> int | None:
        """The junction feeding the minus side of component i, or None
        when that side is free."""
        if self.closed:
            return (i - 2) % len(self.ranks) + 1
        return i - 1 if i > 1 else None

    def junction_after(self, i: int) -> int | None:
        """The junction leaving the plus side of component i, or None
        when that side is free."""
        return i if self.closed or i < len(self.ranks) - 1 else None

    # -- spec plumbing: each subclass names its per-junction field in _ITEMS

    def _per_junction(self, items: tuple, noun: str):
        """(junction, rank, item) for every junction, after checking that
        there is one item per junction."""
        node_ranks = self.node_ranks()
        if len(items) != len(node_ranks):
            raise SpecError(
                f"{self.shape} with ranks {self.ranks} needs "
                f"{len(node_ranks)} {noun}, got {len(items)}"
            )
        return zip(range(1, len(items) + 1), node_ranks, items)

    @classmethod
    def from_obj(cls, data: dict):
        """Build a spec from parsed JSON: an object with "shape", "ranks"
        and the items of the spec class.  Every number must be an
        integer; bools and floats are rejected."""
        if not isinstance(data, dict):
            raise SpecError(f"bad {cls.__name__} data: must be an object, got {data!r}")
        try:
            items = cls._items_from_obj(exact_items(
                data[cls._ITEMS], "{key!r} must be a list, got {value!r}", key=cls._ITEMS))
            return cls(data["shape"], data["ranks"], items)
        except KeyError as exc:
            raise SpecError(f"bad {cls.__name__} data: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad {cls.__name__} data: {exc}") from exc

    @staticmethod
    def _items_from_obj(items):
        return items

    @classmethod
    def from_json(cls, text: str):
        return cls.from_obj(json.loads(text))

    def to_json(self) -> str:
        items = getattr(self, self._ITEMS)
        return json.dumps(
            {"shape": self.shape, "ranks": self.ranks, self._ITEMS: items},
            default=lambda perm: perm.image,
        )

    def __str__(self) -> str:
        """A spec's JSON, so a message that names a spec renders it only
        when the message is built; a bare shape keeps its repr."""
        return self.to_json() if hasattr(self, "_ITEMS") else repr(self)


@dataclass(frozen=True)
class GluingSpec(Shape):
    """Combinatorial gluing data for a surface assembled from annuli.

    ``perms[i]`` is the strip permutation at junction i+1 and must have
    degree equal to the rank of that junction.
    """

    perms: tuple[Permutation, ...] = field(default_factory=tuple)

    _SHAPES = (LINEAR, CIRCULAR)
    _ITEMS = "perms"

    def __post_init__(self) -> None:
        super().__post_init__()
        perms = exact_ints(self.perms, "permutations must be Permutations, got "
                           "{value!r}", (Permutation,))
        object.__setattr__(self, "perms", perms)
        for i, r, p in self._per_junction(perms, "permutations"):
            if p.degree != r:
                raise SpecError(
                    f"junction {i} has rank {r} but its permutation has "
                    f"degree {p.degree}"
                )

    @staticmethod
    def _items_from_obj(images) -> tuple[Permutation, ...]:
        return tuple(map(Permutation, images))

    def perm(self, i: int) -> Permutation:
        return self.perms[i - 1]


@dataclass(frozen=True)
class StackyCurveSpec(Shape):
    """A chain or ring of rational curves with one stacky point of order
    ``ranks[i]`` per component and twist ``twists[i]`` at node i.

    A chain with ranks ``r_0..r_n`` has n-1 nodes (the two end ranks are
    untwisted); a ring with ranks ``r_1..r_n`` has n nodes.  Every twist
    must be a unit modulo the rank of its node.
    """

    twists: tuple[int, ...] = field(default_factory=tuple)

    _SHAPES = (CHAIN, RING)
    _ITEMS = "twists"

    def __post_init__(self) -> None:
        super().__post_init__()
        twists = exact_ints(self.twists, "twists must be integers, got {value!r}")
        object.__setattr__(self, "twists", twists)
        for i, r, k in self._per_junction(twists, "twists"):
            if math.gcd(k, r) != 1:
                raise SpecError(f"twist {k} at node {i} is not a unit mod {r}")


def window_origins(
    curve: StackyCurveSpec, bases: dict[int, tuple[int, int]] | None = None
) -> dict[int, tuple[int, int]]:
    """The window origin (j_i, m_i) of every component of ``curve``:
    ``DEFAULT_BASE`` unless ``bases``, a dict by component, moves it.
    Rejects components the curve does not have, and an origin that is
    not a pair of integers."""
    base = dict.fromkeys(curve.components(), DEFAULT_BASE)
    if bases:
        if not isinstance(bases, dict):
            raise SpecError(f"window origins must be a dict by component, got {bases!r}")
        unknown = set(exact_ints(bases.keys(), "component {value!r} is not an integer"))
        unknown -= set(base)
        if unknown:
            raise SpecError(f"no components {sorted(unknown)}")
        for i, origin in bases.items():
            base[i] = exact_items(exact_ints(origin, "window origin {i}: {value!r} is "
                                             "not an integer", i=i),
                                  "window origin {i}: {value!r} is not a pair", 2, i=i)
    return base


def twisted_gluing(
    curve: StackyCurveSpec,
    bases: dict[int, tuple[int, int]] | None = None,
) -> GluingSpec:
    """Gluing whose generator quiver matches the collection built at the
    given window origins.

    Moving the origin of component i by (j_i, m_i) composes the node
    permutation with a rotation: sigma(x) = -k_i x - k_i (m_i + 1) +
    j_{i+1}, which is the plain twist permutation when all origins are
    default.  Rotated permutations have the same commutator with tau,
    so the surface never notices the origin.
    """
    base = window_origins(curve, bases)
    perms = []
    for i, k in zip(curve.junctions(), curve.twists):
        r = curve.junction_rank(i)
        shift = -k * (base[i][1] + 1) + base[curve.next_component(i)][0]
        perms.append(Permutation(tuple((-k * x + shift) % r for x in range(r))))
    return GluingSpec(CIRCULAR if curve.closed else LINEAR, curve.ranks, tuple(perms))


def from_curve(curve: StackyCurveSpec) -> GluingSpec:
    """The gluing mirror to a stacky curve: twist k at a node of rank r
    becomes the strip permutation x |-> -k*x mod r.  This is
    ``twisted_gluing`` at the default window origins."""
    return twisted_gluing(curve)


def predicted_topology(g: GluingSpec) -> SurfaceTopology:
    """Topology of the glued surface, read off from commutators.

    Each junction contributes -r_i to the Euler characteristic.  Its
    boundary circles correspond to the cycles of [sigma_i, tau]; a cycle
    of length l yields a circle with 2l marks.  With tau(x) = x - 1 mod
    r, the commutator sends x to sigma(sigma^-1(x + 1) - 1), so its
    cycles are walked in one pass over sigma and its inverse, with no
    commutator built.  A linear gluing keeps two unglued circles with
    r_0 and r_n marks.
    """
    boundary: list[int] = []
    chi = 0
    for p in g.perms:
        sigma = p.image
        r = len(sigma)
        chi -= r
        inv = [0] * r
        for x, y in enumerate(sigma):
            inv[y] = x
        seen = bytearray(r)
        x = 0
        while x >= 0:  # each cycle from its least point; sigma[-1] is sigma(r - 1)
            length = 0
            while not seen[x]:
                seen[x] = 1
                length += 1
                x = sigma[inv[(x + 1) % r] - 1]
            boundary.append(2 * length)
            x = seen.find(0, x)
    boundary.extend(g.free_ranks)
    # Commutators are even permutations, so 2g is never odd here.
    return SurfaceTopology.measured(boundary, chi, g)


def predicted_topology_curve(curve: StackyCurveSpec) -> SurfaceTopology:
    """Topology of the mirror surface of a stacky curve, in closed form.

    Node i of rank r with twist k splits into p = gcd(k+1, r) boundary
    circles of 2r/p marks each; the genus is half the total rank defect
    sum(r_i - p_i), plus one for a ring.  A genus that differs from the
    one the boundary and chi give raises FalsificationError.
    """
    boundary: list[int] = []
    defect = 0
    for k, r in zip(curve.twists, curve.node_ranks()):
        p = math.gcd(k + 1, r)
        defect += r - p
        boundary.extend([2 * (r // p)] * p)
    boundary.extend(curve.free_ranks)
    genus = defect // 2 + (1 if curve.closed else 0)
    topology = SurfaceTopology.measured(boundary, -sum(curve.node_ranks()), curve)
    if topology.genus != genus:
        raise FalsificationError(
            f"closed-form genus {genus} of {curve} differs from "
            f"the genus {topology.genus} of its boundary and chi"
        )
    return topology
