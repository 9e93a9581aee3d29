"""Command line front end.

Every subcommand reads JSON from ``--spec`` and writes its report to
stdout or ``--out``.  Spec files come in three kinds, told apart by
their keys: a gluing ({"shape", "ranks", "perms"}), a curve ({"shape",
"ranks", "twists"}), or a raw quiver ({"vertices", "arrows", ...}).

``main`` builds its argument parser once per process and dispatches by
command name: subcommand ``x`` runs the module's ``cmd_x``, looked up at
call time, so the cached parser holds no functions.

Each ``cmd_x`` reads its spec through one gate, ``_spec``, which refuses
the kinds it cannot use, and writes through one writer, ``_emit``;
reports printed as text or indented JSON go through ``_report``.  A
quiver's text, JSON and dot formats are its own methods in quiver.py,
``to_text``, ``to_json`` and ``to_dot``, and ``_format_quiver`` only
picks one by the format's name.  A write that fails, to
``--out`` or to stdout (a closed pipe, a full disk), is a usage error;
``run``, the program's entry point, then sends stdout to the null device
so that interpreter exit does not write what the stream still holds.

Exit codes: 0 when every check agrees, 1 on a mathematical mismatch,
2 on a usage or input error, 3 on an internal error (a bug).
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import sweeps
from .aside import build_aside
from .bside import build_bside
from .errors import FalsificationError, QuiverError, SpecError, exact_ints, exact_items
from .gluing import (
    GluingSpec,
    StackyCurveSpec,
    from_curve,
    predicted_topology,
    predicted_topology_curve,
)
from .homology import HomComplex, TwistedComplex, localization_object, module_of
from .mirror import MAX_STRIPS, search_ring_mirror, verify_theorem_A
from .quiver import GradedQuiver, json_tuple, label_str
from .surface import surface_topology


# -- input plumbing ----------------------------------------------------


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: bad JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise SpecError(f"{path}: JSON nested too deeply") from None


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


def _spec(args, *kinds):
    """The ``--spec`` object, refused unless it is one of ``kinds``."""
    kind, spec = load_spec(args.spec)
    if kind not in kinds:
        raise SpecError(f"{args.command} needs a {' or '.join(kinds)} spec")
    return spec


def _gluing(spec):
    """A gluing spec itself, or the gluing mirror to a curve spec."""
    return from_curve(spec) if isinstance(spec, StackyCurveSpec) else spec


# -- output plumbing ---------------------------------------------------


def _emit(text, out):
    try:
        if not out:
            print(text, flush=True)
            return
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise SpecError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _report(args, obj, text, code=0):
    """Write ``obj`` as indented JSON under ``--format json``, else
    ``text``, and return the exit code."""
    _emit(json.dumps(obj, indent=2) if args.format == "json" else text, args.out)
    return code


def _format_quiver(q, fmt):
    return getattr(q, f"to_{fmt}")()


# -- subcommands -------------------------------------------------------


def cmd_topology(args):
    spec = _spec(args, "gluing", "curve")
    if isinstance(spec, StackyCurveSpec):
        predicted = predicted_topology_curve(spec)
    else:
        predicted = predicted_topology(spec)
    oracle = surface_topology(_gluing(spec))
    report = {
        name: {
            "genus": t.genus,
            "euler_characteristic": t.euler_characteristic,
            "boundary_marks": list(t.boundary_marks),
        }
        for name, t in (("predicted", predicted), ("oracle", oracle))
    }
    lines = [f"{name + ':':11}genus {t['genus']}, chi {t['euler_characteristic']}, "
             f"boundaries {t['boundary_marks']}" for name, t in report.items()]
    report["agree"] = agree = report["predicted"] == report["oracle"]
    lines.append("AGREE" if agree else "DISAGREE")
    return _report(args, report, "\n".join(lines), 0 if agree else 1)


def cmd_aside(args):
    spec = _gluing(_spec(args, "gluing", "curve"))
    _emit(_format_quiver(build_aside(spec), args.format), args.out)
    return 0


def cmd_bside(args):
    _emit(_format_quiver(build_bside(_spec(args, "curve")), args.format), args.out)
    return 0


def cmd_verify(args):
    spec = _spec(args, "curve")
    strips = sum(spec.ranks)
    if strips > MAX_STRIPS:
        raise SpecError(f"curve of {strips} strips exceeds the verify limit "
                        f"{MAX_STRIPS}")
    report = verify_theorem_A(spec)
    curve = spec.to_json()
    return _report(args, {"curve": json.loads(curve), **report.to_json_obj()},
                   f"curve: {curve}\n{report.summary()}", 0 if report.ok else 1)


def cmd_search(args):
    twists = search_ring_mirror(args.genus, args.components)
    _emit(json.dumps(twists) if args.format == "json" else
          f"genus {args.genus}, {args.components} component(s): twists {twists}",
          args.out)
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
    spec = _spec(args, "gluing", "curve")
    which, i, j = _parse_selector(args.selector)
    mod = module_of(localization_object(build_aside(_gluing(spec)), which, i, j))
    dims = {label_str(v): d for v, d in sorted(mod.dims.items()) if d}
    actions = {label_str(a): str(c) for a, c in sorted(mod.actions.items()) if c}
    lines = [f"module of {which}({i},{j}), degree {mod.degree}"]
    lines.extend(f"  M({v}) = k" for v in dims)
    lines.extend(f"  {a} acts by {c}" for a, c in actions.items())
    return _report(
        args,
        {"object": {"kind": which, "component": i, "position": j},
         "degree": mod.degree, "dims": dims, "actions": actions},
        "\n".join(lines),
    )


def _integer(key, value):
    return exact_ints((value,), "{key!r} must be an integer, got {value!r}", key=key)[0]


_COEFF = ("'coefficient' must be an integer or an [integer, nonzero integer] "
          "pair, got {c!r}")


def _coeff(c):
    """A differential coefficient: an integer, or an [integer, nonzero
    integer] pair read as a fraction."""
    pair = isinstance(c, list) and len(c) == 2
    # anything but a pair is checked as the fraction c/1
    num, den = exact_ints(c if pair else (c, 1), _COEFF, c=c)
    if not den:
        raise SpecError(_COEFF.format(c=c))
    return Fraction(num, den) if pair else num


def _load_complexes(path, q):
    data = _read_json(path)
    entries = exact_items(data.get("complexes") if isinstance(data, dict) else None,
                          "{path}: expected a top-level 'complexes' list", path=path)
    if not entries:
        raise SpecError(f"{path}: the 'complexes' list is empty")
    out = []
    for entry in entries:
        try:
            if not isinstance(entry, dict):
                raise SpecError(f"a complex must be an object, got {entry!r}")
            name = entry["name"]
            summands = []
            for s in exact_items(entry["summands"], "'summands' must be a list of "
                                 "[label, shift] pairs, got {value!r}"):
                lab, sh = exact_items(s, "a summand must be a [label, shift] pair, "
                                      "got {value!r}", 2)
                summands.append((json_tuple(lab, "a label must be a list, got {value!r}"),
                                 _integer("shift", sh)))
            diff = {}
            for e in exact_items(entry.get("differential", []), "'differential' must be "
                                 "a list of [a, b, terms] entries, got {value!r}"):
                a, b, terms = exact_items(e, "a differential entry must be [a, b, terms], "
                                          "got {value!r}", 3)
                a, b = (_integer("differential index", i) for i in (a, b))
                if (a, b) in diff:
                    raise ValueError(f"differential entry {a}<-{b} is given twice")
                diff[(a, b)] = read = []
                for t in exact_items(terms, "differential entry {a}<-{b}: 'terms' must "
                                     "be a list of [coefficient, path] pairs, got "
                                     "{value!r}", a=a, b=b):
                    c, p = exact_items(t, "differential entry {a}<-{b}: a term must be "
                                       "a [coefficient, path] pair, got {value!r}", 2,
                                       a=a, b=b)
                    read.append((_coeff(c), [
                        json_tuple(n, "an arrow name must be a list, got {value!r}")
                        for n in exact_items(p, "a path must be a list, got {value!r}")]))
        except KeyError as exc:
            raise SpecError(f"{path}: bad complex entry: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{path}: bad complex entry: {exc}") from exc
        # Report rows are keyed by the rendered names.
        if str(name) in (str(n) for n, _ in out):
            raise SpecError(f"{path}: two complexes are named {name}")
        out.append((name, TwistedComplex(q, summands, diff)))
    return out


def cmd_ext(args):
    kind, spec = load_spec(args.spec)
    build = {"gluing": build_aside, "curve": build_bside}.get(kind)
    complexes = _load_complexes(args.complexes, build(spec) if build else spec)
    report = {
        f"{sname} -> {tname}": {
            str(d): n for d, n in sorted(HomComplex(X, Y).cohomology().items())
        }
        for sname, X in complexes
        for tname, Y in complexes
    }
    text = "\n".join(
        f"hom({pair}): " + ("{" + ", ".join(
            f"{d}: {n}" for d, n in dims.items()) + "}" if dims else "0")
        for pair, dims in report.items()
    )
    return _report(args, report, text)


def cmd_sweep(args):
    import random

    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.samples):
        g = sweeps.random_gluing(rng)
        if predicted_topology(g) != surface_topology(g):
            failures.append(f"topology mismatch on {g.to_json()}")
    for _ in range(max(1, args.samples // 3)):
        c = sweeps.random_curve(rng)
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
    p.add_argument("--seed", type=int, default=sweeps.DEFAULT_SEED)
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


def run():
    """``main`` as a program.  Once stdout has failed, a stream that
    keeps the bytes it could not write would fail again at interpreter
    exit, so stdout goes to the null device instead."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(run())
