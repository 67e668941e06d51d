"""The file format pavekit writes: every report and gen --out file is one
canonical JSON text (sorted keys, no whitespace) and a newline, gen's
object_sha256 hashes that text, and indented files that older versions
wrote still read and verify."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import pavekit
from pavekit.cli import main
from pavekit.reports import canonical_json, load_report, verify

from report_cases import make_reports


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return make_reports(tmp_path_factory.mktemp("reports"))


def _write_indented(path, obj):
    """A file as versions before the compact format wrote it."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_every_report_is_canonical_text(cases):
    for case, path in cases.items():
        text = Path(path).read_text()
        assert text == canonical_json(load_report(str(path))) + "\n", case


@pytest.mark.parametrize("argv", [
    ["--kind", "random-unit", "--n", "3", "--M", "5", "--seed", "2",
     "--field", "complex"],
    ["--kind", "e1-grid", "--N", "360", "--levels", "3"],
])
def test_gen_hashes_the_file_it_writes(tmp_path, argv):
    out, rep = tmp_path / "obj.json", tmp_path / "gen.json"
    assert main(["gen", *argv, "--out", str(out), "--report", str(rep)]) == 0
    data = out.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 1
    assert data.decode() == canonical_json(json.loads(data)) + "\n"
    assert load_report(str(rep))["payload"]["results"]["object_sha256"] == \
        hashlib.sha256(data[:-1]).hexdigest()


def test_indented_files_of_older_versions_verify(tmp_path):
    frame = tmp_path / "frame.json"
    assert main(["gen", "--kind", "harmonic", "--n", "2", "--M", "5",
                 "--out", str(frame)]) == 0
    _write_indented(frame, json.loads(frame.read_text()))
    for argv in (["analyze"], ["ric", "--s", "2"],
                 ["weaver", "--bessel", "3", "--epsilon", "0.5",
                  "--r-max", "3"]):
        rep = tmp_path / "rep.json"
        assert main([*argv, "--input", str(frame), "--report", str(rep)]) == 0
        _write_indented(rep, load_report(str(rep)))
        assert b"\n  " in rep.read_bytes()
        assert verify(str(rep)) == (True, []), argv[0]


def test_no_second_json_writer():
    """Every JSON text the package writes or hashes comes from
    reports.canonical_json: no json.dump to a file, which runs the
    pure-Python encoder, and no indented output."""
    found = []
    for path in sorted(Path(pavekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "dump" or \
                    isinstance(node, ast.ImportFrom) and \
                    "dump" in [a.name for a in node.names] or \
                    isinstance(node, ast.keyword) and node.arg == "indent":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
