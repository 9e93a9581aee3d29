"""Drive the command line front end in-process and check exit codes,
report text, and the machine-readable formats."""

import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from quiverglue import cli

DATA = Path(__file__).parent / "data"
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


@pytest.mark.parametrize("argv", [["2", "1000000000"], ["1000000000"], ["2", "187"]])
def test_search_rejects_rings_past_the_limit(capsys, argv):
    # 2g + n - 2 strips over MAX_SEARCH_STRIPS (188): rejected before any
    # ring is built
    start = time.process_time()
    code, _, err = run(capsys, "search", *argv)
    assert code == 2
    assert "exceeds the search limit 188" in err
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("genus, n", [(2, 1), (3, 2), (4, 3), (2, 186)])
def test_search_passes_up_to_the_limit(capsys, genus, n):
    # (2, 186) is a ring of exactly 188 strips
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
    ],
)
def test_invalid_spec_is_a_usage_error(capsys, tmp_path, text, named):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, _, err = run(capsys, "topology", "--spec", str(spec))
    assert code == 2
    assert err.startswith("error:")
    assert named in err


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


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
