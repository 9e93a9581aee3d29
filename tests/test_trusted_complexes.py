"""The trusted constructor ``TwistedComplex._made``: complexes whose
parts the package made skip the reading of caller input, build the same
objects the public constructor builds, keep the delta^2 check, and are
made nowhere that caller input reaches."""

import ast
from pathlib import Path
from types import MappingProxyType

import pytest

from quiverglue import homology
from quiverglue.aside import build_aside
from quiverglue.errors import SpecError
from quiverglue.homology import (TwistedComplex, all_localization_objects,
                                 module_of)
from quiverglue.quiver import GradedQuiver
from quiverglue.sweeps import gluing_sweep

SRC = Path(homology.__file__).resolve().parent

# the one function whose complexes are made from parts the package built
TRUSTED = {"localization_object"}


def test_made_complexes_equal_the_public_ones():
    objects = 0
    for g in gluing_sweep(2, 3):
        aq = build_aside(g)
        for obj in all_localization_objects(aq):
            cx = obj.cx
            twin = TwistedComplex(aq, cx.summands, dict(cx.diff))
            assert cx == twin
            assert cx._diff == twin._diff
            assert type(cx.summands) is tuple
            assert all(type(s) is tuple for s in cx.summands)
            assert type(cx.diff) is MappingProxyType
            assert all(type(e) is tuple for e in cx.diff.values())
            assert all(type(e) is list for e in cx._diff.values())
            with pytest.raises(TypeError):
                cx.diff[(1, 0)] = ()
            assert module_of(cx) == module_of(twin)
            objects += 1
    assert objects == 1648


def test_made_keeps_the_d_squared_check():
    # v1 -a-> v2 -b-> v3 with no relation: the chain a, b squares to the
    # nonzero path ab
    q = GradedQuiver([((("v1",),), 0), ((("v2",),), 0), ((("v3",),), 0)],
                     [(("a",), ("v1",), ("v2",), 0), (("b",), ("v2",), ("v3",), 0)], [])
    a, b = q.arrow_index(("a",)), q.arrow_index(("b",))
    with pytest.raises(SpecError, match=r"^differential does not square to zero at 2<-0$"):
        TwistedComplex._made(
            q, ((("v1",), 2), (("v2",), 1), (("v3",), 0)),
            {(1, 0): [(1, (a,))], (2, 1): [(1, (b,))]})


def _made_references(tree):
    """(enclosing function, line) of every reference to ``_made`` in a
    module's syntax tree, the definition included."""
    found = []

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_made":
                found.append((node.name, node.lineno))
            owner = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "_made"
              or isinstance(node, ast.Name) and node.id == "_made"):
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    walk(tree, None)
    return found


def test_only_package_made_parts_take_the_trusted_path():
    # projective, the CLI's complexes file and every other caller input
    # go through the public constructor
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for owner, line in _made_references(ast.parse(path.read_text())):
            owners.setdefault(owner, []).append(f"{path.name}:{line}")
    assert set(owners) == TRUSTED | {"_made"}, owners
    assert all(p.startswith("homology.py:") for ps in owners.values() for p in ps)
    assert len(owners["_made"]) == 1
