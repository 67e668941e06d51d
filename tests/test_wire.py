"""The file format pavekit writes: every report and gen --out file is one
canonical JSON text (sorted keys, no whitespace) and a newline, gen's
object_sha256 hashes that text, and indented files that older versions
wrote still read and verify.  Matrices and grids travel as base64 of
little-endian float64, and the [re, im] pair form still reads.  Every file
is written by reports._write_text, over its old bytes and then trimmed,
never truncated to zero."""

import ast
import builtins
import collections
import contextlib
import hashlib
import io
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import pavekit
from pavekit import cli, reports
from pavekit.cli import main
from pavekit.core import (
    ContractViolation,
    _pairs_to_complex,
    matrix_from_json,
    matrix_to_json,
)
from pavekit.harmonic import GridFunction
from pavekit.reports import canonical_json, load_report, verify, write_report

from oracles import base64_by_struct
from report_cases import commands, make_reports


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


# ---------------------------------------------------------------------------
# the codec: canonical_json is json.dumps of Python values
# ---------------------------------------------------------------------------

def _pair_list(v):
    """The entries of v in flattened (C) order as the [re, im] rows of a
    pair-form entry list."""
    v = np.ravel(v)
    return np.stack([v.real, v.imag], 1).tolist()


def test_every_report_case_encodes_as_its_plain_form(tmp_path, monkeypatch):
    written = []

    def capture(path, report):
        written.append((path, report))
        write_report(path, report)
    monkeypatch.setattr(cli, "write_report", capture)
    make_reports(tmp_path)
    assert len(written) == len(commands(tmp_path))
    arrays = 0
    for path, report in written:
        text = canonical_json(report)
        assert Path(path).read_text() == text + "\n", path
        arrays += text.count('"base64":')
    assert arrays >= 3       # dilate-operator's and subspace's matrices


SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e22, 1e-7,
                    -1e-7, 0.1, 1 / 3, 2.0 ** 52, 1.7976931348623157e308])


def _values(rng, n):
    """n floats over many magnitudes, with every SPECIAL value among them."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[rng.choice(n, min(n, SPECIAL.size), replace=False)] = \
        SPECIAL[:min(n, SPECIAL.size)]
    return x


def _complex(re, im):
    """re + i im with every bit of both parts, signed zeros included, which
    re + 1j * im would not keep."""
    v = np.empty(re.shape, dtype=np.complex128)
    v.real, v.imag = re, im
    return v


@pytest.mark.parametrize("n", [1, 2, 13, 4096, 4097, 9000])
def test_pair_arrays_encode_as_their_lists(n):
    """Real and complex entries, signed zeros in either part, subnormals,
    huge and tiny values, as [re, im] pair lists, the form inputs may
    still take, and as base64: each reads back bit for bit from its
    canonical_json text."""
    rng = np.random.default_rng(n)
    re, im = _values(rng, n), _values(rng, n)
    negzero_im = np.zeros(n)
    negzero_im[rng.integers(n)] = -0.0
    for v in (re, _complex(re, im), _complex(re, negzero_im),
              _complex(im, -re)):
        field = "complex" if np.iscomplexobj(v) else "real"
        d = {"rows": 1, "cols": n, "field": field, "entries": _pair_list(v)}
        got = matrix_from_json(json.loads(canonical_json(d)))
        assert got.dtype == v.dtype and got.tobytes() == v.tobytes()
    for m in (re.reshape(1, n), _complex(re, negzero_im).reshape(n, 1)):
        d = matrix_to_json(m)
        got = matrix_from_json(d)                 # the in-memory form
        assert got.dtype == m.dtype and got.tobytes() == m.tobytes()
        got = matrix_from_json(json.loads(canonical_json(d)))
        assert got.dtype == m.dtype and got.tobytes() == m.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_raise_as_the_c_encoder_does(tmp_path, bad):
    entries = [[1.0, 0.0], [float(bad), 0.0], [2.0, 0.0]]
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_json({"entries": entries})
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        write_report(str(path), {"payload": {"entries": entries}})
    assert not path.exists()


MALFORMED = {
    "malformed matrix entry: each must be [re, im] with two numbers": (
        [1], None, "x", [[1.0, 0.0]], "12", True, [True, 0.0], [1, 2, 3],
        1.5, [1, None], [], {}, [1.0, "2"]),
    "malformed matrix entry: int too large to convert to float": (
        [10 ** 400, 0],),
}


def test_malformed_entries_keep_their_messages():
    for message, catalogue in MALFORMED.items():
        for entry in catalogue:
            with pytest.raises(ContractViolation) as exc:
                _pairs_to_complex([[1.0, 0.0], entry], 2, "matrix")
            assert str(exc.value) == message, entry
    for entries, n in (([[1.0, 2.0]], 2), ("ab", 2), (None, 1),
                       (np.zeros((2, 2)), 3), (np.zeros((1, 2), int), 1),
                       (np.zeros((1, 3)), 1)):
        with pytest.raises(ContractViolation) as exc:
            _pairs_to_complex(entries, n, "grid")
        assert str(exc.value) == f"grid JSON needs a list of {n} entries"


def test_in_memory_grid_decodes_as_its_text():
    g = GridFunction(np.array([0.5, -0.0, 2.0, 1e-300]))
    for h in (GridFunction.from_json(g.to_json()),
              GridFunction.from_json(json.loads(canonical_json(g.to_json())))):
        assert h.values.dtype == g.values.dtype
        assert h.values.tobytes() == g.values.tobytes()


# ---------------------------------------------------------------------------
# base64 values: every bit kept, either wire form read alike
# ---------------------------------------------------------------------------

EXTREMES = (-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
            -1.7976931348623157e308)


@pytest.mark.parametrize("n", [1, 2, 13, 9000])
def test_base64_round_trips_every_bit(n):
    """1 x n and n x 1 matrices, real and complex, with -0.0, the smallest
    subnormals and the largest finite values in either part, back through
    the JSON text bit for bit; a grid of the same values too."""
    rng = np.random.default_rng(n)
    re, im = _values(rng, n), _values(rng, n)
    vectors = [re, _complex(re, im)]
    for x in EXTREMES:
        vectors += [np.full(n, x), _complex(np.full(n, x), im),
                    _complex(re, np.full(n, x))]
    for v in vectors:
        for m in (v.reshape(1, n), v.reshape(n, 1)):
            text = canonical_json(matrix_to_json(m))
            got = matrix_from_json(json.loads(text))
            assert got.dtype == m.dtype and got.shape == m.shape
            assert got.tobytes() == m.tobytes()
        if np.iscomplexobj(v) and not v.imag.any():
            continue        # a grid with no nonzero imaginary part is real
        g = GridFunction.from_json(
            json.loads(canonical_json(GridFunction(v).to_json())))
        assert g.values.dtype == v.dtype and g.values.tobytes() == v.tobytes()


def test_base64_matches_a_per_value_struct_encoder():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 5))
    a[0, 0], a[1, 2], a[2, 4] = EXTREMES[:3]
    b = _complex(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    b[0, 0], b[3, 1] = complex(EXTREMES[3], -0.0), complex(0.0, EXTREMES[4])
    for m in (a, b, a.T, b.T, a[:1], b[:, :1]):
        assert matrix_to_json(m)["base64"] == base64_by_struct(m)
    for v in (a[0], b[:, 0]):
        assert GridFunction(v).to_json()["base64"] == \
            base64_by_struct(v.astype(complex).reshape(-1, 1))


def _decoded_by_cli(monkeypatch, tmp_path, doc, argv):
    """The object cli.main decodes from an input file holding doc, caught
    on its way into the builder of the command argv[0]."""
    seen, builder = [], reports._BUILDERS[argv[0]]

    def capture(config, obj):
        seen.append(obj)
        return builder(config, obj)
    monkeypatch.setitem(reports._BUILDERS, argv[0], capture)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 0
    return seen[0]


def test_pair_and_base64_files_decode_alike(tmp_path, monkeypatch):
    """One matrix, and one grid, written in each wire form and read through
    the CLI's input path: the same dtype and the same bits."""
    rng = np.random.default_rng(4)
    re, im = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
    re[0, 0], re[1, 1], im[2, 2] = -0.0, 5e-324, -0.0
    for m in (re, _complex(re, im)):
        field = "complex" if np.iscomplexobj(m) else "real"
        pairs = {"rows": 3, "cols": 5, "field": field,
                 "entries": _pair_list(m.T)}
        got = [_decoded_by_cli(monkeypatch, tmp_path, doc,
                               ["analyze"]).synthesis
               for doc in (pairs, matrix_to_json(m))]
        for a in got:
            assert a.dtype == m.dtype and a.tobytes() == m.tobytes()
    for v in (re.ravel(), _complex(re.ravel(), im.ravel())):
        pairs = {"N": v.size, "values": _pair_list(v)}
        got = [_decoded_by_cli(monkeypatch, tmp_path, doc,
                               ["toeplitz", "--k-list", "3",
                                "--epsilon", "0.5"]).values
               for doc in (pairs, GridFunction(v).to_json())]
        for a in got:
            assert a.dtype == v.dtype and a.tobytes() == v.tobytes()


def test_each_input_is_opened_once_per_command(tmp_path, monkeypatch):
    """A producer and verify each read an input file once, and hash and
    parse those same bytes."""
    real_open = builtins.open
    opened = collections.Counter()

    def counting(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counting)
    seen = 0
    with contextlib.redirect_stdout(io.StringIO()):
        for case, argv in commands(tmp_path).items():
            inputs = [argv[i + 1] for i, a in enumerate(argv)
                      if a == "--input"]
            rep = str(tmp_path / f"{case}.report.json")
            opened.clear()
            assert main(argv + ["--report", rep]) == 0, case
            assert [opened[p] for p in inputs] == [1] * len(inputs), case
            opened.clear()
            assert verify(rep) == (True, []), case
            assert [opened[p] for p in inputs] == [1] * len(inputs), case
            assert opened[rep] == 1, case
            seen += len(inputs)
    assert seen >= 15


# ---------------------------------------------------------------------------
# the write path: reports._write_text writes over a file's old bytes and
# trims what is left of them
# ---------------------------------------------------------------------------

_TEXT = canonical_json({"a": [1, 2, 3], "b": "x" * 40})
_BYTES = (_TEXT + "\n").encode()


def test_write_text_creates_a_new_file_with_the_umasks_mode(tmp_path):
    path = tmp_path / "new.json"
    reports._write_text(str(path), _TEXT)
    mask = os.umask(0o22)
    os.umask(mask)
    assert path.read_bytes() == _BYTES
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask


@pytest.mark.parametrize("old", [b"y" * 500 + b"\n", b"{}\n", b""],
                         ids=["longer", "shorter", "empty"])
def test_write_text_over_an_old_file_leaves_no_stale_tail(tmp_path, old):
    path = tmp_path / "old.json"
    path.write_bytes(old)
    inode = path.stat().st_ino
    reports._write_text(str(path), _TEXT)
    assert path.read_bytes() == _BYTES
    assert path.stat().st_ino == inode


def test_write_text_through_a_symlink_rewrites_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"z" * 500)
    link.symlink_to(target)
    reports._write_text(str(link), _TEXT)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _BYTES


def test_write_text_keeps_the_inode_of_a_hard_linked_file(tmp_path):
    path, other = tmp_path / "a.json", tmp_path / "b.json"
    path.write_bytes(b"z" * 500)
    os.link(path, other)
    inode = path.stat().st_ino
    reports._write_text(str(path), _TEXT)
    assert path.stat().st_ino == other.stat().st_ino == inode
    assert path.stat().st_nlink == 2 and other.read_bytes() == _BYTES


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o664])
def test_write_text_keeps_an_old_files_mode_bits(tmp_path, mode):
    path = tmp_path / "old.json"
    path.write_bytes(b"z" * 500)
    path.chmod(mode)
    reports._write_text(str(path), _TEXT)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == _BYTES


def test_write_text_finishes_short_writes(tmp_path, monkeypatch):
    """os.write may write less than it is given; every byte still lands,
    in order."""
    os_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, b: os_write(fd, b[:7]))
    path = tmp_path / "short.json"
    path.write_bytes(b"z" * 500)
    reports._write_text(str(path), _TEXT)
    assert path.read_bytes() == _BYTES


def test_write_text_trims_only_a_regular_file(tmp_path, monkeypatch):
    """A file that fstat does not call regular (a device, a pipe) is
    written over and never trimmed, whatever size it reports."""
    trims, os_fstat = [], os.fstat

    def as_device(fd):
        st = list(os_fstat(fd))
        st[stat.ST_MODE] = stat.S_IFCHR | 0o666
        return os.stat_result(st)
    monkeypatch.setattr(os, "fstat", as_device)
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: trims.append(n))
    path = tmp_path / "device.json"
    path.write_bytes(b"z" * 500)
    reports._write_text(str(path), _TEXT)
    assert trims == []
    assert path.read_bytes() == _BYTES + b"z" * (500 - len(_BYTES))


def test_write_text_of_a_text_it_cannot_encode_opens_nothing(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_bytes(_BYTES)
    for path in (old, new):
        with pytest.raises(UnicodeEncodeError):
            reports._write_text(str(path), '"\u00e9"')
    assert old.read_bytes() == _BYTES and not new.exists()


def test_reports_and_objects_to_dev_null_exit_0(tmp_path):
    frame = str(tmp_path / "frame.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--kind", "harmonic", "--n", "2", "--M", "4",
                     "--out", frame]) == 0
        assert main(["ric", "--input", frame, "--s", "2",
                     "--report", os.devnull]) == 0
        assert main(["gen", "--kind", "harmonic", "--n", "2", "--M", "4",
                     "--out", os.devnull,
                     "--report", str(tmp_path / "gen.json")]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert verify(str(tmp_path / "gen.json")) == (True, [])


def _opens_for_writing(node):
    """Whether an AST node can open a file for writing: os.open or
    os.fdopen, open() or a Path's open() in a mode that writes or one not
    spelled out, an import of open from os, or a Path write method."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and \
            any(a.name in ("open", "fdopen") for a in node.names)
    if isinstance(node, ast.Attribute) and \
            node.attr in ("write_text", "write_bytes"):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "os":
        return func.attr in ("open", "fdopen")
    if isinstance(func, ast.Name) and func.id == "open":
        at = 1                      # open(file, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        at = 0 if not isinstance(func.value, ast.Name) or \
            func.value.id not in ("io", "builtins") else 1
    else:
        return False
    modes = node.args[at:at + 1] + [k.value for k in node.keywords
                                    if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value)
               for m in modes)


def test_one_write_path():
    """reports._write_text is the one function in the package that opens
    a file to write it, so no other writer can truncate a file to zero."""
    found = set()
    for path in sorted(Path(pavekit.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
            if any(map(_opens_for_writing, ast.walk(stmt))):
                found.add(owner)
    assert found == {"reports._write_text"}


def test_the_write_scan_sees_each_writer():
    for src in ('open(p, "w")', 'open(p, mode="a")', "open(p, m)",
                'open(p, "r+b")', "os.open(p, 1)", "os.fdopen(3, 'w')",
                "from os import open", 'io.open(p, "x")', "Path(p).open('w')",
                "p.write_text(t)", "p.write_bytes(b)"):
        assert any(map(_opens_for_writing, ast.walk(ast.parse(src)))), src
    for src in ("open(p)", 'open(p, "rb")', "Path(p).open()",
                "fh.write(t)", 'io.open(p, mode="r")'):
        assert not any(map(_opens_for_writing, ast.walk(ast.parse(src)))), src


def test_no_write_truncates_a_file_to_zero(tmp_path, monkeypatch):
    """Every report and gen --out file, new or rewritten over a longer old
    one, is opened once by os.open, never with O_TRUNC, and os.ftruncate
    trims only a regular file that was longer; a rewritten report is its
    canonical text and verifies.  A report to /dev/null is trimmed never."""
    opens, trims = [], []
    os_open, ftruncate = os.open, os.ftruncate

    def opening(path, flags, *args, **kwargs):
        opens.append((str(path), flags))
        return os_open(path, flags, *args, **kwargs)

    def trimming(fd, length):
        trims.append(stat.S_ISREG(os.fstat(fd).st_mode))
        return ftruncate(fd, length)
    monkeypatch.setattr(os, "open", opening)
    monkeypatch.setattr(os, "ftruncate", trimming)
    cases = commands(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        for stale in (False, True):
            for case, argv in cases.items():
                rep = str(tmp_path / f"{case}.report.json")
                written = [rep] + [argv[i + 1] for i, a in enumerate(argv)
                                   if a == "--out"]
                if stale:
                    for path in written:
                        with open(path, "ab") as fh:
                            fh.write(b" stale tail" * 50)
                opens.clear()
                trims.clear()
                assert main(argv + ["--report", rep]) == 0, case
                assert sorted(p for p, _ in opens) == sorted(written), case
                assert not [f for _, f in opens if f & os.O_TRUNC], case
                assert trims == [True] * len(written) * stale, case
                assert Path(rep).read_text() == \
                    canonical_json(load_report(rep)) + "\n", case
                assert verify(rep) == (True, []), case
        opens.clear()
        trims.clear()
        assert main(cases["ric"] + ["--report", os.devnull]) == 0
    assert [p for p, _ in opens] == [os.devnull] and trims == []
