"""Twisted complexes over the constructed path algebras, Hom-complex
cohomology by exact rational linear algebra, the localization objects
that delete a marked point, and their identification as thin modules.

Conventions, fixed once and used everywhere:

* A twisted complex lists summands (vertex, shift) with the shift
  decreasing along the differential; the entry from list position b to
  position a (b < a) is a rational combination of quiver paths of
  degree 1 + shift_a - shift_b, so with degree-0 arrows a path entry
  drops the shift by exactly one.  delta^2 must vanish modulo the
  quiver's relations.
* Coefficients and cocycle entries are rationals, each of type exactly
  ``int`` or ``Fraction``, and shifts, differential indices and cocycle
  degrees are of type exactly ``int``; a float, bool or string is
  refused rather than rounded or truncated.  The summands, each entry,
  term and path are read by ``exact_items``, so a string is never a
  path of its characters.  The differential is stored once, by the
  summand each entry leaves and in arrow indices, and ``diff`` is
  rendered from it.  The localization objects, made by the package,
  skip the reads: the private ``TwistedComplex._made`` takes that
  stored form and still checks delta^2.  Integer
  coefficients (as in every localization object) give integer
  differential matrices, and a cohomology that never builds a Fraction.
* A Hom-complex basis element is (source summand, target summand,
  nonzero path); its degree is the path degree plus shift(source) minus
  shift(target).  The differential is D(f) = delta_Y∘f - (-1)^|f|
  f∘delta_X.  The mirrored sign choice (available as
  convention="flipped") also squares to zero and yields the same
  dimensions; tests exercise both.  Composition is a chain map only
  for the standard sign, so identity cocycles and ext products are
  defined only there, and a flipped complex refuses both.
* Hom(P(v), E) for a projective P(v) is the module value at v; arrows
  act by precomposition, so the action of an arrow u -> w carries the
  value at w to the value at u.  module_of builds each Hom(P(v), E) from
  the paths into E's summands, with no HomComplex, so the generic
  hom_cohomology(projective(q, v), E) is a second route to each value.
* Paths are tuples of arrow indices, named only in ``diff`` and output.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .errors import (FalsificationError, QuiverError, SpecError, exact_ints,
                     exact_items, exact_scalars, read_only)
from .linalg import kernel_basis, rank, solve
from .quiver import ArrowName, GradedQuiver, Label, Path, label_str

GradedDims = dict[int, int]

Scalar = int | Fraction
Entry = tuple[tuple[Scalar, Path], ...]


@dataclass(frozen=True, slots=True)
class TwistedComplex:
    """A formal shifted sum of quiver vertices with a strictly
    triangular differential; validated on construction and read-only
    after it, so nothing built from it goes stale.  ``_leaving[b]`` lists
    the (a, terms) of each entry a<-b, paths in arrow indices: the one
    stored form, from which ``diff`` is rendered in tuples of names."""

    quiver: GradedQuiver
    summands: tuple[tuple[Label, int], ...]
    diff: Mapping[tuple[int, int], Entry] = field(default_factory=dict)
    _leaving: list[list[tuple[int, list]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        summands = tuple([
            exact_items(s, "summand {value!r} is not a (label, shift) pair", 2)
            for s in exact_items(self.summands, "summands must be a sequence of "
                                 "(label, shift) pairs, got {value!r}")])
        if not isinstance(self.diff, Mapping):
            raise SpecError(f"differential must be a mapping, got {self.diff!r}")
        q, leaving = self.quiver, [[] for _ in summands]
        vids = [q.vertex_id(lab) for lab, _ in summands]
        shifts = exact_ints([n for _, n in summands],
                            "summand {index}: shift {value!r} is not an integer")
        for ab, entry in self.diff.items():
            entry = exact_items(entry, "differential entry {ab!r} must be a "
                                "sequence of terms, got {value!r}", ab=ab)
            a, b = exact_items(ab, "differential key {value!r} is not a pair (a, b)", 2)
            exact_ints((a, b), "differential entry {a!r}<-{b!r}: indices are not "
                       "integers", a=a, b=b)
            if not 0 <= b < a < len(summands):
                raise SpecError(f"differential entry {a}<-{b} is not forward")
            degree = 1 + shifts[a] - shifts[b]
            terms = []
            for term in entry:
                c, names = exact_items(term, "entry {a}<-{b}: term {value!r} is not "
                                       "(coefficient, path)", 2, a=a, b=b)
                exact_scalars((c,), "entry {a}<-{b}: coefficient {value!r} is not "
                              "an integer or a Fraction", a=a, b=b)
                p = tuple(map(q.arrow_index, exact_items(
                    names, "entry {a}<-{b}: path {value!r} is not a sequence of "
                    "arrows", a=a, b=b)))
                if q.path_end(vids[b], p) != vids[a]:
                    raise SpecError(f"entry {a}<-{b}: path does not connect")
                if any(map(q.is_relation, p, p[1:])):
                    raise SpecError(f"entry {a}<-{b}: path is zero in the algebra")
                if q.path_degree(p) != degree:
                    raise SpecError(f"entry {a}<-{b}: path degree "
                                    f"{q.path_degree(p)} != {degree}")
                terms.append((c, p))
            leaving[b].append((a, terms))
        self._store(summands, leaving)

    @classmethod
    def _made(cls, q: GradedQuiver, summands, leaving) -> "TwistedComplex":
        """A complex whose parts the package made, already in the stored
        form: ``summands`` a tuple of (label, shift) pairs and
        ``leaving`` as ``_leaving``.  None of it is read again; delta^2
        is still checked."""
        cx = object.__new__(cls)
        object.__setattr__(cx, "quiver", q)
        cx._store(summands, leaving)
        return cx

    def _store(self, summands, leaving) -> None:
        # the one step both constructors end in: diff is rendered from
        # the stored form, so the two cannot disagree
        names = self.quiver.path_names
        diff = {(a, b): tuple([(c, names(p)) for c, p in terms])
                for b, out in enumerate(leaving) for a, terms in out}
        for name, value in (("summands", summands), ("_leaving", leaving),
                            ("diff", MappingProxyType(diff))):
            object.__setattr__(self, name, value)
        self._check_delta_squared()

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which checks
        # the complex again and makes diff read-only again
        return TwistedComplex, (self.quiver, self.summands, dict(self.diff))

    def _check_delta_squared(self) -> None:
        # delta^2 from b to c sums the composites of the entry pairs
        # a<-b, c<-a, so only pairs of entries are walked; the first
        # failure reported is at the smallest b, then the smallest c.
        compose, leaving = self.quiver.compose, self._leaving
        for b, out in enumerate(leaving):
            squares: dict[int, dict[Path, Scalar]] = {}
            for a, first in out:
                for c, second in leaving[a]:
                    acc = squares.setdefault(c, {})
                    for c1, p1 in first:
                        for c2, p2 in second:
                            comp = compose(p1, p2)
                            if comp is not None:
                                acc[comp] = acc.get(comp, 0) + c1 * c2
            for c in sorted(squares):
                if any(squares[c].values()):
                    raise SpecError(
                        f"differential does not square to zero at {c}<-{b}"
                    )


# slots=True replaces the class that frozen=True wrote __setattr__ for,
# so on CPython 3.11 a name that is not a field raised TypeError.
TwistedComplex.__setattr__ = TwistedComplex.__delattr__ = read_only


def projective(q: GradedQuiver, v: Label) -> TwistedComplex:
    return TwistedComplex(q, ((q.primary_label(q.vertex_id(v)), 0),))


@dataclass(frozen=True)
class Cocycle:
    hom: "HomComplex"
    degree: int
    vector: tuple[Fraction, ...]


class HomComplex:
    """The graded Hom space between two twisted complexes over one
    quiver, with its differential realized as dense matrices (lists of
    rows) between degree slices, each filled in one pass over its
    columns; entries are ints unless a coefficient is a ``Fraction``."""

    def __init__(
        self,
        X: TwistedComplex,
        Y: TwistedComplex,
        convention: str = "standard",
    ) -> None:
        if X.quiver is not Y.quiver:
            raise SpecError("complexes live over different quivers")
        if convention not in ("standard", "flipped"):
            raise SpecError(f"unknown sign convention {convention!r}")
        self.X, self.Y, self.quiver = X, Y, X.quiver
        self.convention = convention
        q = self.quiver

        self.basis: list[tuple[int, int, Path]] = []
        self.degrees: dict[int, list[int]] = {}
        for si, (vs, ns) in enumerate(X.summands):
            for ti, (vt, nt) in enumerate(Y.summands):
                for p in q.paths_between(vs, vt):
                    d = q.path_degree(p) + ns - nt
                    self.degrees.setdefault(d, []).append(len(self.basis))
                    self.basis.append((si, ti, p))
        self._index = {elt: i for i, elt in enumerate(self.basis)}
        # X's differential by the summand each entry enters
        self._entering = [[(b, e) for b, out in enumerate(X._leaving) for a, e in out
                           if a == s] for s in range(len(X.summands))]

    def matrix(self, d: int) -> list[list[Scalar]]:
        """D on degree d: one row per degree-(d+1) basis element, one
        column per degree-d element."""
        cols, rows = self.degrees.get(d, []), self.degrees.get(d + 1, [])
        pos = {j: r for r, j in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        compose, index = self.quiver.compose, self._index
        sign = (1 if self.convention == "flipped" else -1) * (-1 if d % 2 else 1)
        for col, i in enumerate(cols):
            si, ti, p = self.basis[i]
            for ta, entry in self.Y._leaving[ti]:
                for c, step in entry:
                    comp = compose(p, step)
                    if comp is not None:
                        mat[pos[index[si, ta, comp]]][col] += c
            for sb, entry in self._entering[si]:
                for c, step in entry:
                    comp = compose(step, p)
                    if comp is not None:
                        mat[pos[index[sb, ti, comp]]][col] += sign * c
        return mat

    def cohomology(self) -> GradedDims:
        return _cohomology(self.degrees, self.matrix)

    def d_squared_vanishes(self) -> bool:
        for d in self.degrees:
            first, then = self.matrix(d), self.matrix(d + 1)
            if any(sum(a * b for a, b in zip(row, col))
                   for row in then for col in zip(*first)):
                return False
        return True

    # -- cocycles and classes ------------------------------------------

    def cocycle(self, vector, degree: int) -> Cocycle:
        exact_ints((degree,), "cocycle degree {value!r} is not an integer")
        vec = tuple(map(Fraction, exact_scalars(
            vector, "cocycle entry {value!r} is not an integer or a Fraction")))
        if len(vec) != len(self.degrees.get(degree, [])):
            raise SpecError("vector length does not match the degree slice")
        if any(sum(m * x for m, x in zip(row, vec)) for row in self.matrix(degree)):
            raise SpecError("not a cocycle")
        return Cocycle(self, degree, vec)

    def identity_cocycle(self) -> Cocycle:
        if self.X != self.Y:
            raise SpecError("identity lives in an endomorphism complex")
        if self.convention != "standard":
            raise SpecError(_STANDARD_ONLY)
        vec = [0] * len(self.degrees.get(0, []))
        for pos, i in enumerate(self.degrees.get(0, [])):
            si, ti, p = self.basis[i]
            if si == ti and not p:
                vec[pos] = 1
        return self.cocycle(vec, 0)

    def is_coboundary(self, cocycle: Cocycle) -> bool:
        if cocycle.hom is not self:
            raise SpecError("cocycle lives in another Hom complex")
        # With nothing below, D into the slice has one empty row per
        # element, and only the zero vector solves it.
        return solve(self.matrix(cocycle.degree - 1), list(cocycle.vector)) is not None

    def scalar_against(self, cocycle: Cocycle, generator: Cocycle) -> Fraction:
        """The lambda with cocycle = lambda * generator in cohomology;
        requires the class to lie on the line the generator spans.  A
        zero class on a zero generator gives 0, the free variable's
        value, also in a degree with no basis elements."""
        if cocycle.hom is not self or generator.hom is not self:
            raise SpecError("cocycle lives in another Hom complex")
        if cocycle.degree != generator.degree:
            raise SpecError("degree mismatch")
        if not generator.vector:  # no rows, so solve would see no columns
            return Fraction(0)
        return _on_line(self.matrix(cocycle.degree - 1), generator.vector,
                        cocycle.vector)


def _on_line(below: list[list[Scalar]], generator, vector) -> Scalar:
    """The lambda with vector = lambda * generator modulo the image of
    ``below``, D into their degree slice; a class off the generator's
    line raises FalsificationError."""
    x = solve([[*row, g] for row, g in zip(below, generator)], list(vector))
    if x is None:
        raise FalsificationError("class off the generator line")
    return x[-1]


def _cohomology(slices: dict[int, list[int]], matrix) -> GradedDims:
    """The cohomology dimensions of degree slices closed under D, with
    matrix(d) giving D out of slice d: the rank of D out of each degree
    is taken once, and D is zero out of a slice with no slice above it."""
    out = {d: rank(matrix(d)) for d in slices if d + 1 in slices}
    dims: GradedDims = {}
    for d, idxs in slices.items():
        h = len(idxs) - out.get(d, 0) - out.get(d - 1, 0)
        if h:
            dims[d] = h
    return dims


# Under the flipped sign, D(id) = 2 delta and f∘g of cocycles need not
# be one, so the questions that compose are asked only in the standard.
_STANDARD_ONLY = ("identities and products are defined only under the standard "
                  "sign convention")


def hom_cohomology(
    X: TwistedComplex, Y: TwistedComplex, convention: str = "standard"
) -> GradedDims:
    return HomComplex(X, Y, convention).cohomology()


def euler_characteristic(X: TwistedComplex, Y: TwistedComplex) -> int:
    """Alternating sum of the sizes of the hom complex's degree slices;
    no linear algebra, so it cross-checks the cohomology computation."""
    return sum(
        -len(idxs) if d % 2 else len(idxs)
        for d, idxs in HomComplex(X, Y).degrees.items()
    )


def ext_product(f: Cocycle, g: Cocycle) -> Cocycle:
    """Composition f∘g of cocycle classes, with g: X -> Y applied first
    and f: Y -> Z; returns a cocycle in Hom(X, Z)."""
    hg, hf = g.hom, f.hom
    if hg.Y != hf.X:
        raise SpecError("cocycles do not share the middle complex")
    if hg.convention != hf.convention:
        raise SpecError(f"cocycles under different sign conventions: "
                        f"{hf.convention!r} and {hg.convention!r}")
    if hg.convention != "standard":
        raise SpecError(_STANDARD_ONLY)
    target = HomComplex(hg.X, hf.Y, hg.convention)
    acc: dict[int, Scalar] = {}
    g_idxs = hg.degrees.get(g.degree, [])
    f_idxs = hf.degrees.get(f.degree, [])
    for cg, ig in zip(g.vector, g_idxs):
        if not cg:
            continue
        si, ti, p = hg.basis[ig]
        for cf, jf in zip(f.vector, f_idxs):
            if not cf:
                continue
            sj, tj, p2 = hf.basis[jf]
            if sj != ti:
                continue
            comp = target.quiver.compose(p, p2)
            if comp is None:
                continue
            idx = target._index[(si, tj, comp)]
            acc[idx] = acc.get(idx, 0) + cg * cf
    degree = f.degree + g.degree
    idxs = target.degrees.get(degree, [])
    vec = [acc.get(i, 0) for i in idxs]
    leftovers = set(acc) - set(idxs)
    if any(acc[i] for i in leftovers):
        raise FalsificationError("product left its expected degree")
    return target.cocycle(vec, degree)


# -- localization objects ----------------------------------------------


@dataclass(frozen=True)
class LocObject:
    kind: str
    component: int
    position: int
    cx: TwistedComplex


# Per kind: the name heads of its chain vertices, its chain arrows, and
# the junction arrows that feed a chain vertex.
_CHAINS = {"E-": ("P-", "x", "b"), "E+": ("P+", "y", "a")}


def localization_object(
    aq: GradedQuiver, kind: str, i: int, j: int
) -> TwistedComplex:
    """The object whose quotient deletes one marked point: a two-term
    cone over the chain arrow x(i,j) (E-) or y(i,j) (E+) of a generator
    quiver, topped by the S generator whose b- or a-arrow feeds the
    cone's source wherever a junction meets the chain."""
    try:
        vertex, step, feed_kind = _CHAINS[kind]
    except KeyError:
        raise SpecError(f"unknown localization kind {kind!r}") from None
    name = (step, i, j)
    try:
        arrow = aq.arrow_index(name)
    except QuiverError:
        raise SpecError(
            f"no position {kind}({i},{j}): the quiver has no arrow "
            f"{label_str(name)}"
        ) from None
    chain = (((vertex, i, j), 2), ((vertex, i, j + 1), 1))
    for feed in aq.in_arrows(aq.arrow_ends(arrow)[0]):
        if aq.arrow_name(feed)[0] == feed_kind:
            return TwistedComplex._made(
                aq, ((aq.primary_label(aq.arrow_ends(feed)[0]), 3), *chain),
                [[(1, [(1, (feed,))])], [(2, [(1, (arrow,))])], []])
    return TwistedComplex._made(aq, chain, [[(1, [(1, (arrow,))])], []])


def all_localization_objects(aq: GradedQuiver) -> list[LocObject]:
    """The localization object of every chain arrow, in the generator
    quiver's arrow order: per component, E- along x, then E+ along y."""
    kinds = {step: kind for kind, (_, step, _) in _CHAINS.items()}
    out = []
    for arrow in range(aq.num_arrows):
        name = aq.arrow_name(arrow)
        kind = kinds.get(name[0])
        if kind is not None:
            _, i, j = name
            out.append(LocObject(kind, i, j, localization_object(aq, kind, i, j)))
    return out


def _arrows_among(q: GradedQuiver, vids) -> list[int]:
    """The indices of the arrows between vertex ids in ``vids``, in
    arrow order."""
    return sorted(
        a for w in vids for a in q.in_arrows(w) if q.arrow_ends(a)[0] in vids
    )


# -- thin modules ------------------------------------------------------


@dataclass(frozen=True)
class ThinModule:
    """A representation with every vertex space of dimension 0 or 1,
    recorded as its support plus one scalar per arrow (the map induced
    between the endpoint values; absent means zero).  ``degree`` is the
    cohomological degree the values sit in, when known."""

    dims: dict[Label, int]
    actions: dict[ArrowName, Fraction]
    degree: int | None = None

    @property
    def support(self) -> frozenset:
        return frozenset(v for v, d in self.dims.items() if d)

    @property
    def nonzero_actions(self) -> frozenset:
        return frozenset(a for a, c in self.actions.items() if c)

    def same_pattern(self, other: "ThinModule") -> bool:
        """Isomorphism test for thin modules: dimensions and the
        zero/nonzero pattern of the actions determine the module."""
        return (
            self.support == other.support
            and self.nonzero_actions == other.nonzero_actions
        )

    def validate(self, q: GradedQuiver) -> None:
        for v, d in self.dims.items():
            if d not in (0, 1):
                raise SpecError(f"dimension {d} at {v} is not thin")
        sup = self.support
        acting: dict[int, int] = {}  # source vertex id per acting arrow
        for name, c in self.actions.items():
            a = q.arrow_index(name)
            source, target = q.arrow_ends(a)
            if c:
                if not (
                    q.primary_label(source) in sup and q.primary_label(target) in sup
                ):
                    raise SpecError(f"action of {name} off the support")
                acting[a] = source
        # a relation f, g with g acting has f among the arrows into g's
        # source
        for g, source in acting.items():
            for f in q.in_arrows(source):
                if f in acting and q.is_relation(f, g):
                    raise SpecError(
                        f"relation pair {q.arrow_name(f)}, {q.arrow_name(g)} "
                        "both act nonzero"
                    )


def module_of(E: TwistedComplex) -> ThinModule:
    """Hom(P(v), E) at every vertex v, assembled into a thin module.

    Only the vertices with a nonzero path into a summand of E have a
    nonzero Hom(P(v), E).  One backward walk into each summand finds
    them and lists v's basis: (t, p) for each summand t of E and nonzero
    path p from v into t's vertex, in degree path_degree(p) - shift(t).
    P(v) has no differential, so D is postcomposition with E's alone.

    Raises a falsification alarm unless every value space has dimension
    at most one and all of them sit in one cohomological degree; both
    facts are theorems for localization objects.
    """
    q, compose = E.quiver, E.quiver.compose
    into = [q.paths_into(lab) for lab, _ in E.summands]

    dims: dict[Label, int] = {}
    degree: int | None = None
    # per supported vertex id: each basis element's place in its slice,
    # the slice in the module's degree, D, and the generating cocycle
    values = {}
    for vid in sorted(set().union(*into)):
        slices: dict[int, list[tuple[int, Path]]] = {}
        for t, (paths, (_, shift)) in enumerate(zip(into, E.summands)):
            for p in paths.get(vid, ()):
                slices.setdefault(q.path_degree(p) - shift, []).append((t, p))
        index = {elt: i for run in slices.values() for i, elt in enumerate(run)}
        mats: dict[int, list[list[Scalar]]] = {}

        def matrix(d, slices=slices, index=index, mats=mats):
            if d not in mats:
                cols = slices.get(d, [])
                mat = mats[d] = [[0] * len(cols) for _ in slices.get(d + 1, ())]
                for col, (t, p) in enumerate(cols):
                    for a, entry in E._leaving[t]:
                        for c, step in entry:
                            comp = compose(p, step)
                            if comp is not None:
                                mat[index[a, comp]][col] += c
            return mats[d]

        coh = _cohomology(slices, matrix)
        if not coh:
            continue
        v = q.primary_label(vid)
        if sum(coh.values()) > 1:
            raise FalsificationError(f"value at {v} is not thin: {coh}")
        (d,) = coh
        if degree is None:
            degree = d
        elif degree != d:
            raise FalsificationError(
                f"values spread over degrees {degree} and {d}"
            )
        dims[v] = 1
        # the first kernel vector off the image of D: the kernel basis is
        # killed by D already, and none of its vectors is zero
        for gen in kernel_basis(matrix(d), len(slices[d])):
            if d - 1 not in slices or solve(matrix(d - 1), gen) is None:
                break
        else:
            raise FalsificationError(f"no generating cocycle at {v}")
        values[vid] = (index, slices[d], matrix, gen)

    # An arrow a: u -> w acts by precomposition: the basis element (t, p)
    # of w's complex goes to (t, a p) of u's, or to zero when (a, p[0])
    # is a relation.  Its scalar solves the image against u's generator
    # modulo the image of D.
    actions: dict[ArrowName, Fraction] = {}
    for a in _arrows_among(q, values):
        u, w = q.arrow_ends(a)
        index, run, matrix, gen = values[u]
        _, run_w, _, gen_w = values[w]
        vec = [0] * len(run)
        for c, (t, p) in zip(gen_w, run_w):
            comp = compose((a,), p)
            if c and comp is not None:
                vec[index[t, comp]] = c
        # precomposition is a chain map, so the image is a cocycle
        if any(sum(m * x for m, x in zip(row, vec)) for row in matrix(degree)):
            raise FalsificationError(
                f"image under {label_str(q.arrow_name(a))} is not a cocycle")
        x = _on_line(matrix(degree - 1), gen, vec)
        if x:
            actions[q.arrow_name(a)] = x
    module = ThinModule(dims, actions, degree)
    module.validate(q)
    return module


def predicted_module(aq: GradedQuiver, kind: str, i: int, j: int) -> ThinModule:
    """The transported presentation of a localization object, computed
    combinatorially: one basis path per supported vertex, namely the
    unique nonzero path into the cone tip that does not route through
    the collapsed chain arrow, read off the one backward walk into the
    tip.  Independent of all linear algebra."""
    if kind not in _CHAINS:
        raise SpecError(f"unknown localization kind {kind!r}")
    vertex, step, _ = _CHAINS[kind]
    collapsed = aq.arrow_index((step, i, j))

    chosen: dict[int, Path] = {}
    for vid, paths in aq.paths_into((vertex, i, j + 1)).items():
        allowed = [p for p in paths if not (p and p[-1] == collapsed)]
        if len(allowed) > 1:
            raise FalsificationError(
                f"{len(allowed)} admissible paths at {aq.primary_label(vid)}"
            )
        if allowed:
            chosen[vid] = allowed[0]

    actions: dict[ArrowName, Fraction] = {}
    one = Fraction(1)
    for a in _arrows_among(aq, chosen):
        u, w = aq.arrow_ends(a)
        composite = aq.compose((a,), chosen[w])
        if composite is None or composite[-1] == collapsed:
            continue
        if composite != chosen[u]:
            raise FalsificationError("thin action is not consistent")
        actions[aq.arrow_name(a)] = one
    module = ThinModule({aq.primary_label(v): 1 for v in chosen}, actions)
    module.validate(aq)
    return module


def is_stop_orthogonal(X: TwistedComplex, objects) -> bool:
    """True when X sees none of the given localization objects from
    either side; operationally, membership in the compact part."""
    for obj in objects:
        E = obj.cx if isinstance(obj, LocObject) else obj
        if hom_cohomology(X, E) or hom_cohomology(E, X):
            return False
    return True
