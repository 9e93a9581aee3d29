"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced function at every name its
callers look it up by: a module-level function is swapped in every
``quiverglue`` module that holds it (``homology`` imports ``rank`` from
``linalg`` by name, so ``quiverglue.homology.rank`` is patched as well
as ``quiverglue.linalg.rank``), and a method is swapped on its class.
``uninstall`` puts the originals back, so untraced passes run the
package exactly as shipped.

Each call records one span (name, start, end, parent) in flat arrays
that are written out at the end.  Self time is a span's duration minus
the durations of its direct child spans.  Work counts are taken from
arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

PACKAGE = "quiverglue"

# (module, class or None, attribute, span name)
TARGETS = (
    ("perms", "Permutation", "commutator", "perms.commutator"),
    ("gluing", None, "predicted_topology", "gluing.predicted_topology"),
    ("gluing", None, "predicted_topology_curve", "gluing.predicted_topology_curve"),
    ("gluing", None, "from_curve", "gluing.from_curve"),
    ("surface", None, "surface_topology", "surface.surface_topology"),
    ("surface", None, "build_map", "surface.build_map"),
    ("surface", "CombinatorialMap", "topology", "surface.topology"),
    ("quiver", "GradedQuiver", "topological_order", "quiver.topological_order"),
    ("quiver", "GradedQuiver", "path_dims", "quiver.path_dims"),
    ("quiver", "GradedQuiver", "paths_between", "quiver.paths_between"),
    ("quiver", None, "map_equals", "quiver.map_equals"),
    ("quiver", None, "find_isomorphism", "quiver.find_isomorphism"),
    ("aside", None, "build_aside", "aside.build_aside"),
    ("bside", None, "build_bside", "bside.build_bside"),
    ("mirror", None, "twisted_gluing", "mirror.twisted_gluing"),
    ("mirror", None, "canonical_correspondence", "mirror.canonical_correspondence"),
    ("mirror", None, "verify_theorem_A", "mirror.verify_theorem_A"),
    ("mirror", None, "search_ring_mirror", "mirror.search_ring_mirror"),
    ("homology", None, "module_of", "homology.module_of"),
    ("homology", None, "predicted_module", "homology.predicted_module"),
    ("homology", None, "ext_product", "homology.ext_product"),
    ("homology", None, "hom_cohomology", "homology.hom_cohomology"),
    ("homology", None, "localization_object", "homology.localization_object"),
    ("homology", "HomComplex", "__init__", "homology.HomComplex"),
    ("homology", "HomComplex", "cohomology", "homology.cohomology"),
    ("homology", "HomComplex", "scalar_against", "homology.scalar_against"),
    ("homology", "TwistedComplex", "__init__", "homology.TwistedComplex"),
    ("linalg", None, "rank", "linalg.rank"),
    ("linalg", None, "solve", "linalg.solve"),
    ("linalg", None, "kernel_basis", "linalg.kernel_basis"),
    ("cli", None, "load_spec", "cli.load_spec"),
    ("cli", None, "main", "cli.main"),
)

# Work counts that must repeat exactly between two passes over one input.
WORK_COUNTS = (
    "surface.darts",
    "aside.vertices",
    "aside.arrows",
    "homology.hom_basis",
    "quiver.paths",
    "linalg.rank.entries",
    "linalg.solve.entries",
    "quiver.find_isomorphism.witness_checks",
)


def _matrix_entries(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


class Tracer:
    def __init__(self) -> None:
        self.names = [name for *_, name in TARGETS]
        self._nid = {name: i for i, name in enumerate(self.names)}
        # spans of the current pass, one entry each; the first pass is
        # kept for writing out at the end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.kept: tuple[array, ...] | None = None
        # aggregates of the current pass
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(WORK_COUNTS, 0)
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def _modules(self) -> list:
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module, cls, attr, name in TARGETS:
            owner = by_name[module]
            if cls is not None:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                self._saved.append((klass, attr, original))
                setattr(klass, attr, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- passes --------------------------------------------------------

    def begin_pass(self) -> None:
        """Reset the aggregates and spans for a new pass, keeping the
        spans of the first pass."""
        columns = (self.span_name, self.span_parent, self.span_start, self.span_end)
        if self.kept is None and len(self.span_name):
            self.kept = tuple(array(c.typecode, c) for c in columns)
        for column in columns:
            del column[:]
        self.calls[:] = [0] * len(self.names)
        self.self_s[:] = [0.0] * len(self.names)
        for key in self.counts:
            self.counts[key] = 0

    def snapshot(self) -> dict:
        """Aggregates of the current pass: calls and self seconds per
        span name, plus the work counts."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counts": dict(self.counts),
        }

    # -- the wrapper ---------------------------------------------------

    def _counter(self, name: str):
        counts = self.counts
        if name == "surface.build_map":
            def count(args, result, parent):
                counts["surface.darts"] += result.num_darts
        elif name == "aside.build_aside":
            def count(args, result, parent):
                counts["aside.vertices"] += result.num_vertices
                counts["aside.arrows"] += len(result.arrows)
        elif name == "homology.HomComplex":
            def count(args, result, parent):
                counts["homology.hom_basis"] += len(args[0].basis)
        elif name == "quiver.paths_between":
            def count(args, result, parent):
                counts["quiver.paths"] += len(result)
        elif name == "quiver.path_dims":
            def count(args, result, parent):
                counts["quiver.paths"] += sum(len(p) for p in result.paths.values())
        elif name in ("linalg.rank", "linalg.solve"):
            key = name + ".entries"

            def count(args, result, parent):
                counts[key] += _matrix_entries(args[0])
        elif name == "quiver.map_equals":
            search = self._nid["quiver.find_isomorphism"]

            def count(args, result, parent):
                if parent == search:
                    counts["quiver.find_isomorphism.witness_checks"] += 1
        else:
            count = None
        return count

    def _wrap(self, fn, name: str):
        nid = self._nid[name]
        count = self._counter(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(parent[0] if parent else -1)
            span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[sid] = end
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
            if count is not None:
                count(args, result, span_name[parent[0]] if parent else -1)
            return result

        return traced

    # -- output --------------------------------------------------------

    def write_spans(self, path, origin: float) -> int:
        """Write the first pass's spans as tab-separated lines (id,
        parent, name, start and end in microseconds from ``origin``).
        Returns the span count."""
        columns = self.kept or (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for sid, (nid, parent, start, end) in enumerate(zip(*columns)):
                fh.write(
                    f"{sid}\t{parent}\t{self.names[nid]}\t"
                    f"{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                )
        return len(columns[0])
