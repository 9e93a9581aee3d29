"""Command line front end.

Every subcommand reads JSON from ``--spec`` and writes its report to
stdout or ``--out``.  Spec files come in three kinds, told apart by
their keys: a gluing ({"shape", "ranks", "perms"}), a curve ({"shape",
"ranks", "twists"}), or a raw quiver ({"vertices", "arrows", ...}).

``main`` builds its argument parser once per process and dispatches by
command name: subcommand ``x`` runs the module's ``cmd_x``, looked up at
call time, so the cached parser holds no functions.

Exit codes: 0 when every check agrees, 1 on a mathematical mismatch,
2 on a usage or input error, 3 on an internal error (a bug).
"""

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import gcd

from .aside import build_aside
from .bside import build_bside
from .errors import FalsificationError, QuiverError, SpecError
from .gluing import (
    CHAIN,
    CIRCULAR,
    LINEAR,
    RING,
    GluingSpec,
    Shape,
    StackyCurveSpec,
    from_curve,
    predicted_topology,
    predicted_topology_curve,
)
from .homology import HomComplex, TwistedComplex, localization_object, module_of
from .mirror import MAX_STRIPS, search_ring_mirror, twisted_gluing, verify_theorem_A
from .perms import Permutation, random_permutation
from .quiver import GradedQuiver, label_str
from .surface import surface_topology

# Fixed so that sweep reports are reproducible without any flags.
DEFAULT_SEED = 1729


# -- input plumbing ----------------------------------------------------


def _read_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: bad JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_spec(path):
    """Parse a spec file and return ("gluing"|"curve"|"quiver", object)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise SpecError(f"{path}: top level must be a JSON object")
    if "perms" in data:
        return "gluing", GluingSpec.from_obj(data)
    if "twists" in data:
        return "curve", StackyCurveSpec.from_obj(data)
    if "vertices" in data:
        return "quiver", GradedQuiver.from_json_obj(data)
    raise SpecError(
        f"{path}: expected a gluing (perms), curve (twists), or quiver (vertices)"
    )


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _topology_json(t):
    return {
        "genus": t.genus,
        "euler_characteristic": t.euler_characteristic,
        "boundary_marks": list(t.boundary_marks),
    }


def _quiver_text(q):
    lines = [f"{q.num_vertices} vertices, {len(q.arrows)} arrows, "
             f"{len(q.relations)} relations"]
    names = [label_str(labs[0]) for labs in q.vertex_labels]
    for name, labs, sh in zip(names, q.vertex_labels, q.vertex_shifts):
        extra = "".join(", " + label_str(l) for l in labs[1:])
        lines.append(f"  vertex {name}{extra}" + (f"  [shift {sh}]" if sh else ""))
    for a in q.arrows:
        deg = f" (degree {a.degree})" if a.degree else ""
        lines.append(f"  {label_str(a.name)}: {names[a.source]}"
                     f" -> {names[a.target]}{deg}")
    for f, g in sorted(q.relations):
        lines.append(f"  relation: {label_str(g)} o {label_str(f)} = 0")
    return "\n".join(lines)


def _format_quiver(q, fmt):
    if fmt == "dot":
        return q.to_dot()
    if fmt == "json":
        return json.dumps(q.to_json_obj(), indent=2)
    return _quiver_text(q)


# -- subcommands -------------------------------------------------------


def cmd_topology(args):
    kind, spec = load_spec(args.spec)
    if kind == "gluing":
        predicted = predicted_topology(spec)
        oracle = surface_topology(spec)
    elif kind == "curve":
        predicted = predicted_topology_curve(spec)
        oracle = surface_topology(from_curve(spec))
    else:
        raise SpecError("topology needs a gluing or curve spec")
    agree = predicted == oracle
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "predicted": _topology_json(predicted),
                    "oracle": _topology_json(oracle),
                    "agree": agree,
                },
                indent=2,
            ),
            args.out,
        )
    else:
        lines = [
            f"predicted: genus {predicted.genus}, chi "
            f"{predicted.euler_characteristic}, "
            f"boundaries {list(predicted.boundary_marks)}",
            f"oracle:    genus {oracle.genus}, chi "
            f"{oracle.euler_characteristic}, "
            f"boundaries {list(oracle.boundary_marks)}",
            "AGREE" if agree else "DISAGREE",
        ]
        _emit("\n".join(lines), args.out)
    return 0 if agree else 1


def cmd_aside(args):
    kind, spec = load_spec(args.spec)
    if kind == "curve":
        spec = from_curve(spec)
    elif kind != "gluing":
        raise SpecError("aside needs a gluing or curve spec")
    _emit(_format_quiver(build_aside(spec), args.format), args.out)
    return 0


def cmd_bside(args):
    kind, spec = load_spec(args.spec)
    if kind != "curve":
        raise SpecError("bside needs a curve spec")
    _emit(_format_quiver(build_bside(spec), args.format), args.out)
    return 0


def cmd_verify(args):
    kind, spec = load_spec(args.spec)
    if kind != "curve":
        raise SpecError("verify needs a curve spec")
    strips = sum(spec.ranks)
    if strips > MAX_STRIPS:
        raise SpecError(f"curve of {strips} strips exceeds the verify limit "
                        f"{MAX_STRIPS}")
    report = verify_theorem_A(spec)
    if args.format == "json":
        _emit(json.dumps(report.to_json_obj(), indent=2), args.out)
    else:
        _emit(report.summary(), args.out)
    return 0 if report.ok else 1


def cmd_search(args):
    twists = search_ring_mirror(args.genus, args.components)
    if args.format == "json":
        _emit(json.dumps(twists), args.out)
    else:
        _emit(
            f"genus {args.genus}, {args.components} component(s): "
            f"twists {twists}",
            args.out,
        )
    return 0


def _parse_selector(sel):
    parts = sel.split(":")
    if len(parts) != 3 or parts[0] not in ("E-", "E+"):
        raise SpecError(f"selector {sel!r} is not KIND:COMPONENT:POSITION "
                        f"with KIND one of E-, E+")
    try:
        return parts[0], int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SpecError(f"selector {sel!r}: {exc}") from exc


def cmd_localize(args):
    kind, spec = load_spec(args.spec)
    if kind == "curve":
        spec = twisted_gluing(spec)
    elif kind != "gluing":
        raise SpecError("localize needs a gluing or curve spec")
    which, i, j = _parse_selector(args.selector)
    aq = build_aside(spec)
    mod = module_of(localization_object(aq, which, i, j))
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "object": {"kind": which, "component": i, "position": j},
                    "degree": mod.degree,
                    "dims": {
                        label_str(v): d for v, d in sorted(mod.dims.items())
                        if d
                    },
                    "actions": {
                        label_str(a): str(c)
                        for a, c in sorted(mod.actions.items()) if c
                    },
                },
                indent=2,
            ),
            args.out,
        )
    else:
        lines = [f"module of {which}({i},{j}), degree {mod.degree}"]
        for v in sorted(mod.support):
            lines.append(f"  M({label_str(v)}) = k")
        for a in sorted(mod.nonzero_actions):
            lines.append(f"  {label_str(a)} acts by {mod.actions[a]}")
        _emit("\n".join(lines), args.out)
    return 0


def _integer(key, value):
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {json.dumps(value)}")
    return value


def _coeff(c):
    """A differential coefficient: an integer, or an [integer, nonzero
    integer] pair read as a fraction."""
    if type(c) is int:
        return c
    if (isinstance(c, list) and len(c) == 2
            and all(type(x) is int for x in c) and c[1]):
        return Fraction(*c)
    raise ValueError(
        "'coefficient' must be an integer or an [integer, nonzero integer] "
        f"pair, got {json.dumps(c)}"
    )


def _load_complexes(path, q):
    data = _read_json(path)
    entries = data.get("complexes") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise SpecError(f"{path}: expected a top-level 'complexes' list")
    if not entries:
        raise SpecError(f"{path}: the 'complexes' list is empty")
    out = []
    for entry in entries:
        try:
            name = entry["name"]
            summands = tuple(
                (tuple(lab), _integer("shift", sh))
                for lab, sh in entry["summands"]
            )
            diff = {}
            for a, b, terms in entry.get("differential", []):
                a, b = (_integer("differential index", i) for i in (a, b))
                if (a, b) in diff:
                    raise ValueError(f"differential entry {a}<-{b} is given twice")
                diff[(a, b)] = [
                    (_coeff(c), tuple(tuple(n) for n in path))
                    for c, path in terms
                ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"{path}: bad complex entry: {exc}") from exc
        # Report rows are keyed by the rendered names.
        if str(name) in (str(n) for n, _ in out):
            raise SpecError(f"{path}: two complexes are named {name}")
        out.append((name, TwistedComplex(q, summands, diff)))
    return out


def cmd_ext(args):
    kind, spec = load_spec(args.spec)
    if kind == "gluing":
        q = build_aside(spec)
    elif kind == "curve":
        q = build_bside(spec)
    else:
        q = spec
    complexes = _load_complexes(args.complexes, q)
    report = {}
    for sname, X in complexes:
        for tname, Y in complexes:
            dims = HomComplex(X, Y).cohomology()
            report[f"{sname} -> {tname}"] = dims
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    pair: {str(d): n for d, n in sorted(dims.items())}
                    for pair, dims in report.items()
                },
                indent=2,
            ),
            args.out,
        )
    else:
        lines = [
            f"hom({pair}): " + (
                "{" + ", ".join(
                    f"{d}: {n}" for d, n in sorted(dims.items())
                ) + "}"
                if dims else "0"
            )
            for pair, dims in report.items()
        ]
        _emit("\n".join(lines), args.out)
    return 0


# How many ranks a sampled spec of each shape has (one to three components).
_SAMPLED_RANK_COUNTS = {
    LINEAR: (2, 4), CHAIN: (2, 4), CIRCULAR: (1, 3), RING: (1, 3)
}


def _random_shape(rng, shapes):
    shape = rng.choice(shapes)
    count = rng.randint(*_SAMPLED_RANK_COUNTS[shape])
    return Shape(shape, tuple(rng.randint(1, 4) for _ in range(count)))


def _random_gluing(rng):
    s = _random_shape(rng, [LINEAR, CIRCULAR])
    perms = tuple(random_permutation(r, rng) for r in s.node_ranks())
    return GluingSpec(s.shape, s.ranks, perms)


def _random_curve(rng):
    s = _random_shape(rng, [CHAIN, RING])
    twists = tuple(
        rng.choice([k for k in range(r) if gcd(k, r) == 1]) for r in s.node_ranks()
    )
    return StackyCurveSpec(s.shape, s.ranks, twists)


def cmd_sweep(args):
    import random

    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.samples):
        g = _random_gluing(rng)
        if predicted_topology(g) != surface_topology(g):
            failures.append(f"topology mismatch on {g.to_json()}")
    for _ in range(max(1, args.samples // 3)):
        c = _random_curve(rng)
        report = verify_theorem_A(c)
        if not report.ok:
            failures.append(f"verify failed on {c.to_json()}")
    lines = [
        f"seed {args.seed}: {args.samples} topology samples, "
        f"{max(1, args.samples // 3)} mirror samples"
    ]
    lines.extend(failures)
    lines.append("RESULT: " + ("PASS" if not failures else "FAIL"))
    _emit("\n".join(lines), args.out)
    return 0 if not failures else 1


# -- driver ------------------------------------------------------------


def _count(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quiverglue",
        description="Build, compare, and probe quivers from glued annuli "
        "and stacky curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand accepts only the formats it prints.
    quiver_formats, report_formats = ["text", "json", "dot"], ["text", "json"]

    def common(p, formats, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="JSON spec file")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("topology", help="predicted vs recomputed topology")
    common(p, report_formats)

    p = sub.add_parser("aside", help="quiver of a gluing")
    common(p, quiver_formats)

    p = sub.add_parser("bside", help="quiver of a curve collection")
    common(p, quiver_formats)

    p = sub.add_parser("verify", help="full curve-to-gluing comparison")
    common(p, report_formats)

    p = sub.add_parser("search", help="ring twists matching a genus")
    p.add_argument("genus", type=int)
    p.add_argument("components", type=int, nargs="?", default=1)
    common(p, report_formats, spec=False)

    p = sub.add_parser("localize", help="module of one localization object")
    common(p, report_formats)
    p.add_argument("selector", help="KIND:COMPONENT:POSITION, e.g. E-:1:0")

    p = sub.add_parser("ext", help="graded hom dimensions between complexes")
    common(p, report_formats)
    p.add_argument("complexes", help="JSON file listing twisted complexes")

    p = sub.add_parser("sweep", help="randomized predictor-vs-oracle sweep")
    common(p, ["text"], spec=False)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=_count, default=25)

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (SpecError, QuiverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
