"""Drive the command line front end in-process and check exit codes,
report text, and the machine-readable formats."""

import argparse
import copy
import errno
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from quiverglue import cli
from quiverglue.aside import build_aside
from quiverglue.errors import FalsificationError
from quiverglue.homology import all_localization_objects
from quiverglue.quiver import GradedQuiver

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GLUING = str(DATA / "genus2_linear.json")
RING = str(DATA / "balanced_ring.json")
CHAIN = str(DATA / "chain_121.json")
QUIVER = str(DATA / "three_vertex_quiver.json")
COMPLEXES = str(DATA / "bands_complexes.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_topology_text(capsys):
    code, out, _ = run(capsys, "topology", "--spec", GLUING)
    assert code == 0
    assert "predicted: genus 2" in out
    assert "boundaries [1, 1, 6, 6]" in out
    assert out.strip().endswith("AGREE")


def test_topology_json(capsys):
    code, out, _ = run(capsys, "topology", "--spec", GLUING, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["predicted"] == data["oracle"]
    assert data["predicted"]["genus"] == 2
    assert data["predicted"]["boundary_marks"] == [1, 1, 6, 6]


def test_topology_accepts_curves(capsys):
    code, out, _ = run(capsys, "topology", "--spec", RING, "--format", "json")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--spec", RING)
    assert code == 0
    assert "[PASS] quiver" in out
    assert out.strip().endswith("RESULT: PASS")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--spec", CHAIN, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert {c["name"] for c in data["checks"]} >= {"quiver", "topology", "k0"}


def test_verify_failure_exits_one(capsys, monkeypatch):
    report = SimpleNamespace(
        ok=False, summary=lambda: "RESULT: FAIL", to_json_obj=lambda: {}
    )
    monkeypatch.setattr(cli, "verify_theorem_A", lambda spec: report)
    code, out, _ = run(capsys, "verify", "--spec", RING)
    assert code == 1
    assert "RESULT: FAIL" in out


def test_search_text(capsys):
    code, out, _ = run(capsys, "search", "2")
    assert code == 0
    assert "genus 2, 1 component(s): twists [1]" in out


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "3", "2", "--format", "json")
    assert code == 0
    assert isinstance(json.loads(out), list)


def test_search_degenerate_input(capsys):
    code, _, err = run(capsys, "search", "0")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["2", "1000000000"], ["1000000000"], ["2", "1499"]])
def test_search_rejects_rings_past_the_limit(capsys, argv):
    # 2g + n - 2 strips over MAX_STRIPS (1,500): rejected before any ring
    # is built
    start = time.process_time()
    code, _, err = run(capsys, "search", *argv)
    assert code == 2
    assert "exceeds the search limit 1500" in err
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("genus, n", [(2, 1), (3, 2), (4, 3), (2, 186), (2, 748)])
def test_search_passes_up_to_the_limit(capsys, genus, n):
    # (2, 748) is a ring of 750 strips; no test runs a ring at the limit,
    # since `search 750 2` (1,500 strips) takes tens of CPU seconds
    code, out, _ = run(capsys, "search", str(genus), str(n), "--format", "json")
    assert code == 0
    assert json.loads(out)


def test_localize_text(capsys):
    code, out, _ = run(capsys, "localize", "--spec", GLUING, "E-:1:0")
    assert code == 0
    assert out.startswith("module of E-(1,0), degree -1")
    assert " = k" in out


def test_localize_json(capsys):
    code, out, _ = run(
        capsys, "localize", "--spec", GLUING, "E+:3:0", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["object"] == {"kind": "E+", "component": 3, "position": 0}
    assert data["degree"] == -1
    assert data["dims"] and all(d == 1 for d in data["dims"].values())


def test_localize_accepts_curves(capsys):
    code, out, _ = run(
        capsys, "localize", "--spec", CHAIN, "E-:1:0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["degree"] == -1


def test_localize_rejects_bad_selectors(capsys):
    for sel in ("E-:1:5", "E-:9:0", "P:1:0", "E-:1"):
        code, _, err = run(capsys, "localize", "--spec", GLUING, sel)
        assert code == 2
        assert err.startswith("error:")


def test_ext_text(capsys):
    code, out, _ = run(capsys, "ext", "--spec", QUIVER, COMPLEXES)
    assert code == 0
    assert "hom(M1 -> M1): {0: 1, 1: 1}" in out
    assert "hom(M2 -> M2): {0: 1, 1: 1}" in out
    assert "hom(M2 -> M1): {0: 2, 1: 1}" in out
    assert "hom(M1 -> M2): {1: 1}" in out


def test_ext_json(capsys):
    code, out, _ = run(
        capsys, "ext", "--spec", QUIVER, COMPLEXES, "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["M2 -> M1"] == {"0": 2, "1": 1}
    assert data["M1 -> M2"] == {"1": 1}


def test_loaded_complexes_hold_only_tuples():
    # the file's lists are read into the stored form and diff is
    # rendered from it, so no list of the file's survives in diff
    q = cli.load_spec(QUIVER)[1]
    for _, cx in cli._load_complexes(COMPLEXES, q):
        assert cx.diff
        for entry in cx.diff.values():
            assert type(entry) is tuple
            for term in entry:
                assert type(term) is tuple and type(term[1]) is tuple
                assert all(type(name) is tuple for name in term[1])


def test_aside_text_and_dot(capsys):
    code, out, _ = run(capsys, "aside", "--spec", GLUING)
    assert code == 0
    assert out.startswith("20 vertices")
    code, dot1, _ = run(capsys, "aside", "--spec", GLUING, "--format", "dot")
    code2, dot2, _ = run(capsys, "aside", "--spec", GLUING, "--format", "dot")
    assert code == code2 == 0
    assert dot1 == dot2
    assert "->" in dot1


def test_aside_json_round_trip(capsys):
    code, out, _ = run(capsys, "aside", "--spec", CHAIN, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "vertices" in data and "arrows" in data


# Arguments that let each subcommand run, and the formats it prints.
FORMAT_CASES = {
    "topology": (["--spec", GLUING], ("text", "json")),
    "aside": (["--spec", GLUING], ("text", "json", "dot")),
    "bside": (["--spec", RING], ("text", "json", "dot")),
    "verify": (["--spec", RING], ("text", "json")),
    "search": (["2"], ("text", "json")),
    "localize": (["--spec", CHAIN, "E-:1:0"], ("text", "json")),
    "ext": (["--spec", QUIVER, COMPLEXES], ("text", "json")),
    "sweep": (["--samples", "3"], ("text",)),
}


@pytest.mark.parametrize("command", FORMAT_CASES)
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_each_subcommand_accepts_only_the_formats_it_prints(capsys, command, fmt):
    args, formats = FORMAT_CASES[command]
    argv = [command, *args, "--format", fmt]
    if fmt in formats:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if fmt == "json":
            json.loads(out)
        elif fmt == "dot":
            assert out.startswith("digraph")
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{fmt}'" in capsys.readouterr().err


def test_bside_requires_curve(capsys):
    code, out, _ = run(capsys, "bside", "--spec", RING)
    assert code == 0
    code, _, err = run(capsys, "bside", "--spec", GLUING)
    assert code == 2
    assert "curve" in err


def test_sweep_is_deterministic(capsys):
    code, out1, _ = run(capsys, "sweep", "--samples", "6")
    code2, out2, _ = run(capsys, "sweep", "--samples", "6")
    assert code == code2 == 0
    assert out1 == out2
    assert "seed 1729" in out1
    assert out1.strip().endswith("RESULT: PASS")


def test_sweep_seed_changes_the_stream(capsys):
    code, out, _ = run(capsys, "sweep", "--samples", "4", "--seed", "7")
    assert code == 0
    assert "seed 7" in out


def test_out_writes_a_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "topology", "--spec", GLUING, "--out", str(target)
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.endswith("AGREE\n")


def test_bad_json_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"shape": "linear",')
    code, _, err = run(capsys, "topology", "--spec", str(bad))
    assert code == 2
    assert "bad JSON at line" in err


@pytest.mark.parametrize(
    "content, named",
    [(b'\xff\xfe{"shape": "linear"}', "cannot read {path}: 'utf-8' codec"),
     (b"[" * 100_000 + b"]" * 100_000, "{path}: JSON nested too deeply")],
    ids=["not_utf8", "nested_deep"],
)
@pytest.mark.parametrize("where", ["spec", "complexes"])
def test_unreadable_json_is_a_usage_error(capsys, tmp_path, content, named, where):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = (["topology", "--spec", str(bad)] if where == "spec"
            else ["ext", "--spec", QUIVER, str(bad)])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + named.format(path=bad))


@pytest.mark.parametrize("argv", [
    ("topology", "--spec", GLUING),
    ("aside", "--spec", GLUING, "--format", "dot"),
    ("search", "2", "--format", "json"),
])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    for target in tmp_path / "missing" / "report.txt", tmp_path:
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")


def _errno_text(code):
    return f"[Errno {code}] {os.strerror(code)}"


def test_failed_stdout_write_keeps_the_descriptor(capsys, monkeypatch):
    # In-process callers keep their stdout: a failed write is reported
    # and nothing is redirected.
    class Closed:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def flush(self):
            pass

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", Closed())
    code, _, err = run(capsys, "topology", "--spec", GLUING)
    assert code == 2
    assert err == f"error: cannot write stdout: {_errno_text(errno.EPIPE)}\n"
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def _complexes(shift=1, coeff=1, index=(1, 0), extra=(), label=("v", 2),
               path=(["y"],)):
    """A complexes file holding bands_complexes.json's M1, with its first
    summand's label and shift, its one coefficient, its entry's index
    pair and its entry's path replaced, and the ``extra`` differential
    entries after that one."""
    return json.dumps({"complexes": [{
        "name": "M1",
        "summands": [[list(label), shift], [["v", 3], 0]],
        "differential": [[*index, [[coeff, path]]], *extra],
    }]})


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"shape": "linear", "ranks": [], "perms": []}', "GluingSpec"),
        ('{"shape": "linear", "ranks": [1.5, 2], "perms": []}', "GluingSpec"),
        ('{"shape": "chain", "ranks": [true, 2], "twists": []}', "StackyCurveSpec"),
        ('{"shape": "ring", "ranks": [2], "twists": [true]}', "StackyCurveSpec"),
        ('{"shape": "circular", "ranks": [2], "perms": [[1.0, 0.0]]}', "GluingSpec"),
        ('{"shape": "circular", "ranks": [2], "perms": [[0, 0]]}', "GluingSpec"),
        ('{"vertices": {}, "arrows": [], "relations": []}', "'vertices'"),
        ('{"vertices": [], "relations": []}', "'arrows'"),
        ('{"vertices": [], "arrows": [], "relations": {}}', "'relations'"),
        ('{"vertices": [{"labels": [["a"]], "shift": true}], "arrows": [], '
         '"relations": []}', "'shift'"),
        ('{"vertices": [{"labels": [["a"]]}], "arrows": [{"name": ["f"], '
         '"source": ["a"], "target": ["a"], "degree": 1.0}], "relations": []}',
         "'degree'"),
        ('{"vertices": [{"labels": [["a"]]}], "arrows": [{"name": ["f"], '
         '"source": ["a"], "target": ["a"]}], "relations": [[["f"]]]}',
         "relation"),
        (_complexes(shift=1.5), "'shift'"),
        (_complexes(shift=True), "'shift'"),
        (_complexes(shift="1"), "'shift'"),
        (_complexes(coeff=True), "'coefficient'"),
        (_complexes(coeff=0.5), "'coefficient'"),
        (_complexes(coeff=[1, 0]), "'coefficient'"),
        (_complexes(coeff=[1, True]), "'coefficient'"),
        (_complexes(coeff=[1, 2, 3]), "'coefficient'"),
        (_complexes(index=("x", 0)), "'differential index'"),
        (_complexes(index=(1.5, 0)), "'differential index'"),
        (_complexes(index=(True, False)), "'differential index'"),
        (_complexes(extra=[[1, 0, [[0, [["y"]]]]]]), "entry 1<-0 is given twice"),
        (_complexes(label=[["v"], 2]), "unknown vertex ('v',)(2)"),
        (_complexes(path=[[["y"]]]), "unknown arrow ('y',)"),
        (_complexes(label=[]), "unknown vertex ()"),
        (_complexes(path=[[]]), "unknown arrow ()"),
        ('{"vertices": [{"labels": [["a"]]}], "arrows": [{"name": ["f"], '
         '"source": [], "target": ["a"]}], "relations": []}', "unknown vertex ()"),
        ('{"vertices": [{"labels": [[], []]}], "arrows": [], "relations": []}',
         "duplicate vertex label ()"),
        ('{"complexes": 5}', "'complexes' list"),
        ('{"vertices": [{"labels": ["a"]}], "arrows": [], "relations": []}',
         "must be a list, got 'a'"),
        ('{"vertices": [{"labels": [["a"]]}], "arrows": [{"name": "f", '
         '"source": ["a"], "target": ["a"]}], "relations": []}',
         "'name' must be a list, got 'f'"),
        (_complexes(path="y"), "a path must be a list, got 'y'"),
        ('{"vertices": [["v"]], "arrows": [], "relations": []}',
         "bad quiver data: a vertex must be an object, got ['v']\n"),
        ('{"vertices": [], "arrows": [5], "relations": []}',
         "bad quiver data: an arrow must be an object, got 5\n"),
        ('{"shape": "linear", "perms": []}',
         "bad GluingSpec data: missing field 'ranks'\n"),
        ('{"shape": "linear", "ranks": [1, 1], "perms": 5}',
         "bad GluingSpec data: 'perms' must be a list, got 5\n"),
        ('{"complexes": [5]}', "bad complex entry: a complex must be an object, got 5\n"),
        ('{"complexes": [["M1", []]]}',
         "bad complex entry: a complex must be an object, got ['M1', []]\n"),
        ('{"complexes": [{"summands": []}]}', "bad complex entry: missing field 'name'\n"),
        ('{"complexes": [{"name": "M1"}]}',
         "bad complex entry: missing field 'summands'\n"),
    ],
    ids=[
        "empty_ranks",
        "float_rank",
        "bool_rank",
        "bool_twist",
        "float_image",
        "not_a_permutation",
        "quiver_vertices_not_a_list",
        "quiver_arrows_missing",
        "quiver_relations_not_a_list",
        "quiver_bool_shift",
        "quiver_float_degree",
        "quiver_relation_not_a_pair",
        "complex_float_shift",
        "complex_bool_shift",
        "complex_string_shift",
        "complex_bool_coefficient",
        "complex_float_coefficient",
        "complex_zero_denominator",
        "complex_bool_denominator",
        "complex_coefficient_triple",
        "complex_string_index",
        "complex_float_index",
        "complex_bool_index",
        "complex_repeated_entry",
        "complex_list_in_label",
        "complex_list_in_arrow_name",
        "complex_empty_label",
        "complex_empty_arrow_name",
        "quiver_empty_arrow_source",
        "quiver_empty_vertex_labels",
        "complexes_not_a_list",
        "quiver_string_label",
        "quiver_string_arrow_name",
        "complex_string_path",
        "quiver_vertex_not_an_object",
        "quiver_arrow_not_an_object",
        "spec_missing_ranks",
        "spec_perms_not_a_list",
        "complex_an_int",
        "complex_a_list",
        "complex_missing_name",
        "complex_missing_summands",
    ],
)
def test_invalid_spec_is_a_usage_error(capsys, tmp_path, text, named):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    if '"complexes"' in text:
        code, _, err = run(capsys, "ext", "--spec", QUIVER, str(spec))
    else:
        code, _, err = run(capsys, "topology", "--spec", str(spec))
    assert code == 2
    assert err.startswith("error:")
    assert named in err


@pytest.mark.parametrize(
    "fields, named",
    [({"summands": "ab"},
      "'summands' must be a list of [label, shift] pairs, got 'ab'"),
     ({"differential": "ab"},
      "'differential' must be a list of [a, b, terms] entries, got 'ab'"),
     ({"differential": [[1, 0, "xy"]]}, "differential entry 1<-0: 'terms' must be "
      "a list of [coefficient, path] pairs, got 'xy'"),
     ({"differential": {"a": 1}},
      "'differential' must be a list of [a, b, terms] entries, got {'a': 1}")],
    ids=["string_summands", "string_differential", "string_terms",
         "object_differential"],
)
def test_ext_names_a_complex_container_of_the_wrong_shape(capsys, tmp_path, fields,
                                                          named):
    # a string or an object where a list belongs is refused by its field
    # and its value, not split into characters or keys and unpacked
    data = json.loads(_complexes())
    data["complexes"][0].update(fields)
    path = _write_json(tmp_path / "complexes.json", data)
    code, out, err = run(capsys, "ext", "--spec", QUIVER, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: bad complex entry: {named}\n"
    assert "unpack" not in err


def test_fraction_coefficient_is_accepted(capsys, tmp_path):
    complexes = tmp_path / "complexes.json"
    complexes.write_text(_complexes(coeff=[-3, 2]))
    code, out, _ = run(capsys, "ext", "--spec", QUIVER, str(complexes))
    assert code == 0
    assert out == "hom(M1 -> M1): {0: 1, 1: 1}\n"


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def localization_complexes(spec):
    """Every localization object of the gluing in ``spec``, written as a
    complexes file for ext."""
    aq = build_aside(cli.load_spec(spec)[1])
    return {
        "complexes": [
            {
                "name": f"{obj.kind}({obj.component},{obj.position})",
                "summands": [[list(lab), n] for lab, n in obj.cx.summands],
                "differential": [
                    [a, b, [[c, [list(name) for name in path]] for c, path in entry]]
                    for (a, b), entry in obj.cx.diff.items()
                ],
            }
            for obj in all_localization_objects(aq)
        ]
    }


# sha256 of ext's reports, recorded with the Fraction arithmetic that
# integer cohomology replaced: the example complexes over the example
# quiver, then every localization object of the genus-two example
# gluing against every other
EXT_DIGESTS = {
    "text": [
        "66cf8302d21df6932140b6c7288367704b58f8ac36782b916d696f7ab748d1ea",
        "e807c88f65760c3b3ad419893a9c6d1bea385f2f51b57c3d24e6666a2d424c36",
    ],
    "json": [
        "0389c582a50a5def3b4027c783d80cb91175eabffbf1f186ae685e51da535539",
        "4f9394fb3eb2bd76ca07e12fc5ad3d2887aaac93ca6ad6ea2e673b37b56b5ee3",
    ],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ext_reports_are_unchanged(capsys, tmp_path, fmt):
    loc = _write_json(tmp_path / "loc.json", localization_complexes(GLUING))
    digests = []
    for spec, complexes in ((QUIVER, COMPLEXES), (GLUING, loc)):
        code, out, _ = run(capsys, "ext", "--spec", spec, complexes, "--format", fmt)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == EXT_DIGESTS[fmt]


def _one_projective(tmp_path, label):
    return _write_json(
        tmp_path / "complexes.json",
        {"complexes": [{"name": "P", "summands": [[label, 0]]}]},
    )


def test_quiver_shift_defaults_to_zero(capsys, tmp_path):
    spec = _write_json(
        tmp_path / "quiver.json",
        {"vertices": [{"labels": [["a"]]}], "arrows": [], "relations": []},
    )
    code, out, _ = run(capsys, "ext", "--spec", spec, _one_projective(tmp_path, ["a"]))
    assert code == 0
    assert out == "hom(P -> P): {0: 1}\n"


def test_infinite_path_space_is_a_usage_error(capsys, tmp_path):
    # a directed cycle of 1,200 arrows and no relations; the old
    # recursive enumerator hit the recursion limit here
    n = 1200
    spec = _write_json(
        tmp_path / "cycle.json",
        {
            "vertices": [{"labels": [["v", i]]} for i in range(n)],
            "arrows": [
                {"name": ["f", i], "source": ["v", i], "target": ["v", (i + 1) % n]}
                for i in range(n)
            ],
            "relations": [],
        },
    )
    code, _, err = run(capsys, "ext", "--spec", spec, _one_projective(tmp_path, ["v", 0]))
    assert code == 2
    assert err == "error: path space is infinite\n"


def test_ext_reads_nested_labels_at_every_depth_json_reads(capsys, tmp_path):
    # a label or arrow name holding lists reads as nested tuples, in the
    # spec and in the complexes alike; a label nested as deep as
    # json.loads reads still loads, and a deeper one is a usage error
    codes = {}
    for depth in (1, 2, *range(700, 1000, 5), 100_000):
        inner = "[" * depth + "1" + "]" * depth
        v, a = f'["v", {inner}]', f'["a", {inner}]'
        spec = tmp_path / "quiver.json"
        spec.write_text(f'{{"vertices": [{{"labels": [{v}]}}, {{"labels": [["w"]]}}], '
                        f'"arrows": [{{"name": {a}, "source": {v}, "target": ["w"]}}], '
                        '"relations": []}')
        complexes = tmp_path / "complexes.json"
        complexes.write_text(f'{{"complexes": [{{"name": "P", "summands": [[{v}, 0]]}}, '
                             f'{{"name": "C", "summands": [[{v}, 1], [["w"], 0]], '
                             f'"differential": [[1, 0, [[1, [{a}]]]]]}}]}}')
        code, out, err = run(capsys, "ext", "--spec", str(spec), str(complexes))
        codes[depth] = code
        if code == 0:
            assert out == ("hom(P -> P): {0: 1}\nhom(P -> C): 0\n"
                           "hom(C -> P): {1: 1}\nhom(C -> C): {0: 1}\n")
        else:
            assert (code, out) == (2, "")
            assert err.endswith(": JSON nested too deeply\n")
    assert codes[700] == 0 and codes[100_000] == 2
    assert set(codes.values()) == {0, 2}


@pytest.mark.parametrize("ranks", [[1501], [750, 751]])
def test_verify_rejects_curves_past_the_limit(capsys, tmp_path, ranks):
    # a rank sum over MAX_STRIPS (1,500): rejected before any quiver is
    # built
    spec = _write_json(
        tmp_path / "ring.json",
        {"shape": "ring", "ranks": ranks, "twists": [1] * len(ranks)},
    )
    start = time.process_time()
    code, out, err = run(capsys, "verify", "--spec", spec)
    assert (code, out) == (2, "")
    assert err == "error: curve of 1501 strips exceeds the verify limit 1500\n"
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("command", ["topology", "aside", "bside", "localize", "ext"])
def test_spec_commands_reject_specs_past_the_limit(capsys, tmp_path, command):
    # a rank sum over MAX_SPEC_STRIPS, in a curve, in a curve with a rank
    # of 2**70 that once overflowed a list size (exit 3), and in a gluing:
    # each rejected before anything is built
    limit = cli.MAX_SPEC_STRIPS
    cases = [("curve", {"shape": "chain", "ranks": [limit, 1], "twists": []}),
             ("curve", {"shape": "chain", "ranks": [2**70, 2, 1], "twists": [1]})]
    if command != "bside":
        cases.append(("gluing", {"shape": "linear", "ranks": [limit, 1], "perms": []}))
    for kind, obj in cases:
        spec = _write_json(tmp_path / "spec.json", obj)
        start = time.process_time()
        code, out, err = run(capsys, command, "--spec", spec, *FUZZ_COMMANDS[command])
        assert (code, out) == (2, "")
        assert err == (f"error: {kind} of {sum(obj['ranks'])} strips exceeds the "
                       f"{command} limit {limit}\n")
        assert time.process_time() - start < 1.0


def test_topology_passes_at_the_spec_limit(capsys, tmp_path):
    spec = _write_json(tmp_path / "linear.json",
                       {"shape": "linear", "ranks": [cli.MAX_SPEC_STRIPS - 1, 1],
                        "perms": []})
    code, out, _ = run(capsys, "topology", "--spec", spec)
    assert code == 0
    assert out.strip().endswith("AGREE")


def test_verify_passes_at_the_limit(capsys, tmp_path):
    spec = _write_json(
        tmp_path / "ring.json", {"shape": "ring", "ranks": [1500], "twists": [1]}
    )
    code, out, _ = run(capsys, "verify", "--spec", spec)
    assert code == 0
    assert out.strip().endswith("RESULT: PASS")


def test_localize_is_not_capped_by_recursion(capsys, tmp_path):
    spec = _write_json(
        tmp_path / "long.json", {"shape": "linear", "ranks": [1100, 1], "perms": []}
    )
    code, out, _ = run(capsys, "localize", "--spec", spec, "E-:1:0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["degree"], data["dims"], data["actions"]) == (-1, {"P-(1,1)": 1}, {})


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_theorem_A", broken)
    code, out, err = run(capsys, "verify", "--spec", RING)
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_falsification_exits_one(capsys, monkeypatch):
    def falsified(spec):
        raise FalsificationError("boom")

    monkeypatch.setattr(cli, "predicted_topology", falsified)
    code, out, err = run(capsys, "topology", "--spec", GLUING)
    assert (code, out, err) == (1, "", "falsified: boom\n")


def test_base_exceptions_propagate(monkeypatch):
    class Interrupt(BaseException):
        pass

    def interrupted(spec):
        raise Interrupt

    monkeypatch.setattr(cli, "verify_theorem_A", interrupted)
    with pytest.raises(Interrupt):
        cli.main(["verify", "--spec", RING])


def test_quiver_spec_cannot_feed_topology(capsys):
    code, _, err = run(capsys, "topology", "--spec", QUIVER)
    assert code == 2
    assert "gluing or curve" in err


def test_missing_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        cli.main([])


def test_sweep_rejects_negative_samples(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--samples", "-5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --samples: must not be negative, got -5" in err


def test_sweep_rejects_a_count_that_is_not_an_int(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--samples", "many"])
    assert exc.value.code == 2
    assert "argument --samples: invalid int value: 'many'" in capsys.readouterr().err


def test_sweep_reports_a_topology_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "surface_topology", lambda g: None)
    code, out, _ = run(capsys, "sweep", "--samples", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[1].startswith("topology mismatch on {")
    assert lines[-1] == "RESULT: FAIL"


def test_sweep_reports_a_failed_verification(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_theorem_A", lambda c: SimpleNamespace(ok=False))
    code, out, _ = run(capsys, "sweep", "--samples", "3")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 3 and lines[1].startswith("verify failed on {")
    assert lines[-1] == "RESULT: FAIL"


def test_spec_top_level_must_be_an_object(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("[1, 2]")
    code, out, err = run(capsys, "topology", "--spec", str(spec))
    assert (code, out) == (2, "")
    assert err == f"error: {spec}: top level must be a JSON object\n"


def test_selector_numbers_must_be_ints(capsys):
    code, out, err = run(capsys, "localize", "--spec", GLUING, "E-:one:0")
    assert (code, out) == (2, "")
    assert err.startswith("error: selector 'E-:one:0': invalid literal for int()")


def test_sweep_accepts_zero_samples(capsys):
    code, out, _ = run(capsys, "sweep", "--samples", "0")
    assert code == 0
    assert out.startswith("seed 1729: 0 topology samples, 1 mirror samples\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "entries, named",
    [(["M1", "M1"], "two complexes are named M1"),
     (["M1", "M2", "M1"], "two complexes are named M1"),
     ([], "the 'complexes' list is empty")],
    ids=["duplicate", "duplicate_apart", "empty"],
)
def test_ext_rejects_duplicate_or_missing_complexes(capsys, tmp_path, entries,
                                                    named, fmt):
    by_name = {c["name"]: c for c in json.loads(Path(COMPLEXES).read_text())["complexes"]}
    path = tmp_path / "complexes.json"
    path.write_text(json.dumps({"complexes": [by_name[n] for n in entries]}))
    code, out, err = run(capsys, "ext", "--spec", QUIVER, str(path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert named in err


# Values a mutation puts in a spec: wrong shapes and types, ints small
# enough that no mutated spec builds a large quiver, and one too large
# for any list, which the spec limits refuse.
FUZZ_VALUES = ([], [[]], 1.5, True, None, "x", *range(-2, 6), 2**70)
FUZZ_COMMANDS = {"topology": (), "aside": (), "bside": (), "verify": (),
                 "localize": ("E-:1:0",), "ext": (COMPLEXES,)}


def _mutate(rng, data):
    """Delete, or replace by one of FUZZ_VALUES, a dict value or list
    item drawn from every one in the JSON tree ``data``, if it has any."""
    slots = []

    def walk(node):
        items = (node.items() if isinstance(node, dict) else
                 enumerate(node) if isinstance(node, list) else ())
        for key, child in list(items):
            slots.append((node, key))
            walk(child)

    walk(data)
    if not slots:
        return
    node, key = rng.choice(slots)
    if rng.random() < 0.25:
        del node[key]
    else:
        node[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))


def test_parsers_survive_a_seeded_mutation_sweep(capsys, tmp_path):
    # Every mutated spec is either accepted or refused as bad input:
    # never a mismatch (exit 1) and never an internal error (exit 3).
    # A mutated spec goes through every subcommand that reads a spec; a
    # mutated complexes file goes through ext over the quiver it names.
    rng = random.Random(2017)
    sources = sorted(DATA.glob("*.json"))
    spec = tmp_path / "spec.json"
    for sample in range(1000):
        source = rng.choice(sources)
        data = json.loads(source.read_text())
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, data)
        spec.write_text(json.dumps(data))
        if source.name == Path(COMPLEXES).name:
            runs = [("ext", "--spec", QUIVER, str(spec))]
        else:
            runs = [(command, "--spec", str(spec), *extra)
                    for command, extra in FUZZ_COMMANDS.items()]
        for argv in runs:
            code, _, err = run(capsys, *argv)
            assert code in (0, 2) and "internal error" not in err, (
                sample, argv[0], json.dumps(data), err)


def _module_run(*argv):
    """``python -m quiverglue`` from the repository root, uninstalled."""
    return subprocess.run(
        [sys.executable, "-m", "quiverglue", *argv], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )


def test_python_dash_m_runs_the_cli(capsys):
    proc = _module_run("topology", "--spec", "tests/data/genus2_linear.json")
    assert proc.returncode == 0
    assert proc.stdout == run(capsys, "topology", "--spec", GLUING)[1]


def test_closed_stdout_pipe_is_a_usage_error(tmp_path):
    # The aside report of a 3,000-component chain is far larger than a
    # pipe's buffer, so writing it fails once the reader has gone.
    spec = tmp_path / "chain.json"
    spec.write_text(json.dumps(
        {"shape": "chain", "ranks": [1] * 3001, "twists": [1] * 2999}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quiverglue", "aside", "--spec", str(spec)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert head.startswith(b"8999 vertices, ")
    # nothing follows at interpreter exit either
    assert err == f"error: cannot write stdout: {_errno_text(errno.EPIPE)}\n"


def test_short_report_to_a_closed_pipe_is_a_usage_error():
    # A short report fits in stdout's buffer, so it fails only on flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quiverglue", "topology", "--spec",
             "tests/data/genus2_linear.json"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {_errno_text(errno.EPIPE)}\n"


# A stdout that keeps the bytes it failed to write, as a buffered stream
# may, and writes them to descriptor 1 on every flush.
KEEPING_STDOUT = """
import os, sys
from quiverglue import cli

class Keeping:
    pending = b""
    def write(self, text):
        self.pending += text.encode()
    def flush(self):
        os.write(1, self.pending)
        self.pending = b""
    def fileno(self):
        return 1

sys.stdout = Keeping()
sys.exit(cli.run())
"""


def test_run_drops_what_a_failed_stdout_keeps():
    # Without run's redirect, the exit-time flush fails again, prints
    # "Exception ignored" and exits 120.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", KEEPING_STDOUT, "topology", "--spec",
             "tests/data/genus2_linear.json"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {_errno_text(errno.EPIPE)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_a_usage_error():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "quiverglue", "topology", "--spec",
             "tests/data/genus2_linear.json"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {_errno_text(errno.ENOSPC)}\n"


def test_reports_read_no_quiver_views(capsys, tmp_path):
    # Every quiver format renders from the arrays, the one view of a
    # quiver's arrows.
    for command, (args, formats) in FORMAT_CASES.items():
        for fmt in formats:
            assert run(capsys, command, *args, "--format", fmt)[0] == 0
    for command, specs in (("aside", (GLUING, RING, CHAIN)), ("bside", (RING, CHAIN))):
        for spec in specs:
            for fmt in ("text", "json", "dot"):
                assert run(capsys, command, "--spec", spec, "--format", fmt)[0] == 0
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"shape": "ring", "ranks": [3] * 250, "twists": [1] * 250}))
    out = tmp_path / "ring.txt"
    assert run(capsys, "aside", "--spec", str(ring), "--out", str(out))[0] == 0
    assert out.read_text().startswith("2250 vertices, 3000 arrows, 1500 relations\n")


def test_python_dash_m_reports_bad_input(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text('{"shape": "linear", "ranks": [], "perms": []}')
    proc = _module_run("topology", "--spec", str(spec))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    assert run(capsys, "topology", "--spec", GLUING)[0] == 0
    assert run(capsys, "search", "2")[0] == 0
    assert run(capsys, "bside", "--spec", CHAIN, "--format", "dot")[0] == 0
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()


def test_dispatch_reads_the_module_at_call_time(capsys, monkeypatch):
    assert run(capsys, "topology", "--spec", GLUING)[0] == 0
    monkeypatch.setattr(cli, "cmd_topology", lambda args: 7)
    assert run(capsys, "topology", "--spec", GLUING)[0] == 7
    for command, (args, _) in FORMAT_CASES.items():
        parsed = cli._parser().parse_args([command, *args])
        assert not any(callable(v) for v in vars(parsed).values())


def test_every_subcommand_has_its_function():
    # main finds cmd_<name> by name, so a renamed command or function
    # would only show as a KeyError at run time
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    functions = {name[4:] for name in vars(cli) if name.startswith("cmd_")}
    assert set(sub.choices) == functions


# sha256 of each quiver report, recorded before the reports were changed
# to render each vertex name once.
QUIVER_REPORT_DIGESTS = {
    ("aside", "genus2_linear", "text"):
        "8634eab5a36c3fa0c6e279d9f383ca63ae36133d52d8147e85d127dfe794b307",
    ("aside", "genus2_linear", "json"):
        "d0a6bdfeb18371707d84aa351bec994b9062dc90cb70ecd2753840119db1d224",
    ("aside", "genus2_linear", "dot"):
        "9f193f098fb301d5119882215cfb63075388cfbdbaa0fc69ba1103464e05a85d",
    ("aside", "balanced_ring", "text"):
        "65f039221dd3fb1d4106be4df4c1b2c4d6f2b4bf6b9df9b84a7de61a392e071d",
    ("aside", "balanced_ring", "json"):
        "b5aa3e1cd95ace963f344474f784f4167a5811dfb93c123eed126ed95638e9fa",
    ("aside", "balanced_ring", "dot"):
        "d16352e656cada0e34ad1b89ebca3bbc7b0ca2cdb1f423463a717deeafe48f99",
    ("bside", "balanced_ring", "text"):
        "227f6a072ba26e12dc7ef2e382c071a8b678d20694775ecd5a30ffea82b5ac19",
    ("bside", "balanced_ring", "json"):
        "b67d5f51a2822a28c4b9044e1e81643d9fdb86d9abeea96c4bf50bf4dab1d6d1",
    ("bside", "balanced_ring", "dot"):
        "c569690c44f01ad87afdfaa6340ce5671b45d2bf2520a64d3e158a6a53439195",
    ("bside", "chain_121", "text"):
        "8c291bf18f3d89aac8ee23e74b5ebf1abbc607f72b1e1872d647475bd01430d2",
    ("bside", "chain_121", "json"):
        "bed6f9c31a532978e487f3d56b5ade8ab3418d3d4e0b48ebcd71caf8a73c944c",
    ("bside", "chain_121", "dot"):
        "950b0196f71e69f96438224ce2d1b96f95486853e6a71601509f50a21891e974",
}


@pytest.mark.parametrize("command, spec, fmt", list(QUIVER_REPORT_DIGESTS))
def test_quiver_reports_are_byte_identical(capsys, command, spec, fmt):
    code, out, _ = run(capsys, command, "--spec", str(DATA / f"{spec}.json"),
                       "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == QUIVER_REPORT_DIGESTS[command, spec, fmt]


def test_raw_quiver_reports_are_byte_identical():
    # Aliases, nonzero shifts and nonzero arrow degrees.
    q = GradedQuiver(
        [((("v", 1), ("w", 1, 0)), 0), ((("v", 2),), -2),
         ((("u",), ("P", 3, 1, -1), ("alias", "a", 7)), 5)],
        [(("a",), ("w", 1, 0), ("v", 2), 1), (("b", 2), ("v", 1), ("u",), 0),
         (("c", 1, 1), ("v", 2), ("alias", "a", 7), -3),
         (("d",), ("P", 3, 1, -1), ("v", 1), 2)],
        [(("a",), ("c", 1, 1)), (("c", 1, 1), ("d",))],
    )
    assert hashlib.sha256(q.to_dot().encode()).hexdigest() == (
        "7998a7fd72657e8aaea33c8a095efe87f6f1beedb0515fc215ced31f6846f0d4")
    assert hashlib.sha256(q.to_text().encode()).hexdigest() == (
        "be09483b413cf958a0ba57c45ab0aee17b0a2088cc119809c822432621090858")
    assert hashlib.sha256(q.to_json().encode()).hexdigest() == (
        "1b5091b8d1acc70880862d676b795c1bf79bf6647abc398d24d779adf91df443")


def test_json_quiver_reports_skip_the_pure_python_encoder(capsys, monkeypatch,
                                                          tmp_path):
    # json.dumps with an indent runs json.encoder._make_iterencode, a
    # pure-Python encoder several times slower than to_json on a large
    # quiver; the reports of builder quivers must never reach it.
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    ranks = [86, 85, 85]
    specs = {"aside": {"shape": "circular", "ranks": ranks,
                       "perms": [list(range(r))[::-1] for r in ranks]},
             "bside": {"shape": "ring", "ranks": ranks, "twists": [1, 2, 3]}}
    for command, spec in specs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, command, "--spec", str(path), "--format", "json")
        assert code == 0, err
        assert len(json.loads(out)["vertices"]) == 3 * 256


# sha256 of "<exit code>\n<stdout>\n<stderr>" of every other report on
# the example inputs, in each format the subcommand accepts, plus the
# spec-kind refusals; recorded before the subcommands were folded onto
# one spec gate and one report writer.  The verify entries were recorded
# again when its reports began to name their curve.
REPORT_CASES = {
    "topology_gluing": ("topology", "--spec", GLUING),
    "topology_curve": ("topology", "--spec", RING),
    "verify_ring": ("verify", "--spec", RING),
    "verify_chain": ("verify", "--spec", CHAIN),
    "search_2": ("search", "2"),
    "search_3_2": ("search", "3", "2"),
    "localize_gluing_minus": ("localize", "--spec", GLUING, "E-:1:0"),
    "localize_gluing_plus": ("localize", "--spec", GLUING, "E+:3:0"),
    "localize_chain_minus": ("localize", "--spec", CHAIN, "E-:2:1"),
    "localize_chain_plus": ("localize", "--spec", CHAIN, "E+:1:0"),
    "sweep_6": ("sweep", "--samples", "6"),
    "topology_refuses_quiver": ("topology", "--spec", QUIVER),
    "aside_refuses_quiver": ("aside", "--spec", QUIVER),
    "bside_refuses_gluing": ("bside", "--spec", GLUING),
    "verify_refuses_gluing": ("verify", "--spec", GLUING),
    "localize_refuses_quiver": ("localize", "--spec", QUIVER, "E-:1:0"),
}
REPORT_DIGESTS = {
    ("topology_gluing", "text"):
        "5477f4077d77f30857aa9eace0f07ef8c4fa6bc1a701cbec385bf0dfb9522cf4",
    ("topology_gluing", "json"):
        "3366bde4ced7fe391c7a6c67d8a4bfbacd7807611dd3828c4f28ced5a47d503f",
    ("topology_curve", "text"):
        "5d22fe5490679142d4047a8b8b98903ef0eec80bcd425247fd4dedd80e78bfba",
    ("topology_curve", "json"):
        "7d54ae1ea1de98e71abaebfb0970c51e3444c239e5023129b9dacdfdcdd483d2",
    ("verify_ring", "text"):
        "19615bc5cc9f17af3848d95018ab07ec6bc6bd2885328be134a3ac49a5014def",
    ("verify_ring", "json"):
        "298f609ad8288372675529e854321af45e3fc260d505f67b4bc3a7a0a88390d1",
    ("verify_chain", "text"):
        "b619885ca134bb92fa2623945d2420264bb8e8e63b741854a90711baa0a14435",
    ("verify_chain", "json"):
        "3e769ec43cf121557547066af4f0badc29fde81fab049c484156a268684e691d",
    ("search_2", "text"):
        "aabceae6e4c0faff6e1fbba64c688142c7139652d9429af53207d0e6f7e85c48",
    ("search_2", "json"):
        "6c8f6834dd44b9f5da63c103c0e6f64f9df2bc6107d2d8c51bdedbb627597742",
    ("search_3_2", "text"):
        "4aa6d6d4ffc1ba598a7575849495183c2640506e9d58bf835abc9ec229ab5164",
    ("search_3_2", "json"):
        "dc6a21c6593745e87b6de4dbb2a3cd0d84af0d228daf5711ee1faf9f423610c3",
    ("localize_gluing_minus", "text"):
        "417647126a2d16f8ae17404937585fa49f3c63cc5dcd435d82fcec5c184aaba9",
    ("localize_gluing_minus", "json"):
        "d2cd1d747da924f9a6b08bda65064d08667d55f3dad12dcab22c2f91817da022",
    ("localize_gluing_plus", "text"):
        "2c680bc3e41c9302f3ea4c7e808ed015ca772fb3e43b089d49903989c8bb0ee7",
    ("localize_gluing_plus", "json"):
        "eeb72a1dc0cce74c08d339c7f88bbb63b1a2144cf80612e2bef195f02c46ba8e",
    ("localize_chain_minus", "text"):
        "384f154d918782e658bc9fd0efe81f2cf210d27ebd4c2fe9b4e5a47b81f97b54",
    ("localize_chain_minus", "json"):
        "ab861a4bfcaa1aef2cd3f302270e30474b770da5ffb802a0ffa2507265735350",
    ("localize_chain_plus", "text"):
        "2750b5721de8627c1df7893a641e90b662c215fe4111829a82ff27b01f669e07",
    ("localize_chain_plus", "json"):
        "016de9238f7d5f38ea4a6f288c068c6c975c1b6a44b8aa9de4a32128e5a24aa2",
    ("sweep_6", "text"):
        "210cc09f0ed81bcb01f55e1b6c83696a83743e99b45985ab109a08f22947a10f",
    ("topology_refuses_quiver", "text"):
        "c27886f87857b96d50e64f7f43744093a3070c83c84653e17d1a9b92c8d7d0f2",
    ("aside_refuses_quiver", "text"):
        "7865ecf5663a33330a404d3c65fb3e6bf8a115588a9ce326aa2018ddad1e739a",
    ("bside_refuses_gluing", "text"):
        "07610aa73f35a5155c03515e3538b7edd4bf5e0258e423055a5e9f18c6891e9f",
    ("verify_refuses_gluing", "text"):
        "524f29ca9bdb44a79a60c176b67c456b73f8743ee1d7707f638d80f547cfc897",
    ("localize_refuses_quiver", "text"):
        "48c474d28708fc4b2f32067a4e6c789176c8003991b279126ec25702c75a83bd",
}


@pytest.mark.parametrize("case, fmt", list(REPORT_DIGESTS))
def test_reports_are_byte_identical(capsys, case, fmt):
    code, out, err = run(capsys, *REPORT_CASES[case], "--format", fmt)
    digest = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
    assert digest == REPORT_DIGESTS[case, fmt]
