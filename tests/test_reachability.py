"""Every function and method in the package is reached from the command
line: the report_cases runs, `pavekit --version` and a verify of each
report, traced with sys.setprofile, call each one that KEPT does not name.
A name that only its own tests call belongs in the tests."""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

import pavekit
from pavekit.cli import main
from pavekit.reports import verify

from report_cases import make_reports

# qualified name -> why it stays although no command line calls it
KEPT = {
    "enumerate_partitions": "perfbench/tracing.py binds it",
    "enumerate_partitions.rec": "enumerate_partitions' own recursion",
    "frame_to_json": "perfbench/tracing.py binds it",
    "mixed_norm": "acceptance criterion 10 probes it",
}


def _definitions():
    """{(file, first line, code name): qualified name} of every function,
    method and lambda in the package.  A decorated function's code starts
    at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] +
                            [child.lineno])
                name = prefix + child.name
                found[(path, first, child.name)] = name
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.Lambda):
                found[(path, child.lineno, "<lambda>")] = \
                    f"{prefix}<lambda>:{child.lineno}"
                walk(child, path, prefix)
            else:
                walk(child, path, prefix)

    for path in sorted(Path(pavekit.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), f"{path.stem}.")
    return found


def test_every_function_is_reached_from_the_command_line(tmp_path):
    defs = _definitions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with pytest.raises(SystemExit):
                main(["--version"])
            reports = make_reports(tmp_path)
            verdicts = {case: verify(str(rep))
                        for case, rep in reports.items()}
    finally:
        sys.setprofile(None)
    assert all(v == (True, []) for v in verdicts.values()), verdicts
    unreached = {name.split(".", 1)[1] for key, name in defs.items()
                 if key not in called}
    assert sorted(unreached - KEPT.keys()) == []
    assert unreached >= KEPT.keys()     # no stale entry in KEPT
