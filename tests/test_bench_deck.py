"""The benchmark deck's command lines still run: job 0 of each workload in
perfbench/jobs.py, at seed 1, exits 0 through cli.main and its every report
passes verify, and no call builds an argument parser.  An option the deck
passes cannot be dropped unnoticed, nor the Cholesky certificate that
decides the deck's phase frame.  A second run in the same directory
rewrites every file over the first run's, byte for byte."""

import contextlib
import importlib.util
import io
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from pavekit import cli, erasures, reports
from test_cli_boundary import _count_parsers

_JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


def _jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", _JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["pave-search", "subset-scan",
                                      "wide-frames"])
def test_deck_job_zero_runs_and_verifies(monkeypatch, tmp_path, workload):
    jobs = _jobs()
    assert workload in jobs.WORKLOADS
    monkeypatch.chdir(tmp_path)     # the deck writes under relative paths
    steps = jobs.build_job(workload, 1, 0)
    assert steps
    built = _count_parsers(monkeypatch)
    for argv, report in steps:
        for run in (argv, ["verify", "--report", report]):
            built.clear()
            code, out = _main(run)
            assert code == 0 and len(built) == 0, (run, len(built))
        assert json.loads(out)["verified"] is True, (argv, out)


def test_deck_phase_is_decided_without_the_flat_scan(monkeypatch, tmp_path):
    """Job 0's phase frame, a random unit 4 x 13 frame, is decided by
    core.every_basis_clears, in the run and in its verify: neither reaches
    the flat scan, so a change that falls back to it fails here."""
    scans, scan = [], erasures._complement_witness
    monkeypatch.setattr(erasures, "_complement_witness",
                        lambda t: scans.append(t) or scan(t))
    monkeypatch.chdir(tmp_path)
    steps = [(argv, report) for argv, report
             in _jobs().build_job("subset-scan", 1, 0) if argv[0] == "phase"]
    assert len(steps) == 1
    for argv, report in steps:
        assert _main(argv)[0] == 0, argv
        code, out = _main(["verify", "--report", report])
        assert code == 0 and json.loads(out)["verified"] is True, out
    assert scans == []


def _files(root):
    """{path under root: (bytes, inode)} of every file below root."""
    return {str(path.relative_to(root)): (path.read_bytes(),
                                          path.stat().st_ino)
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


@pytest.mark.parametrize("workload", ["pave-search", "subset-scan",
                                      "wide-frames"])
def test_deck_job_zero_rewrites_its_files_in_place(monkeypatch, tmp_path,
                                                  workload):
    """Job 0 run twice in one directory, as the benchmark runs its jobs:
    the second run writes every report and gen object over the first's.
    With the clocks in meta held still, each file is byte-identical to
    the first run's, on the same inode, and each report verifies."""
    monkeypatch.setattr(reports, "time", SimpleNamespace(time=lambda: 1.5))
    monkeypatch.setattr(cli, "time",
                        SimpleNamespace(perf_counter=lambda: 0.25))
    monkeypatch.chdir(tmp_path)
    jobs = _jobs()
    runs = []
    for _ in range(2):
        steps = jobs.build_job(workload, 1, 0)
        for argv, report in steps:
            assert _main(argv)[0] == 0, argv
            code, out = _main(["verify", "--report", report])
            assert code == 0 and json.loads(out)["verified"] is True, out
        runs.append(_files(tmp_path))
    reports_written = {os.path.normpath(report) for _, report in steps}
    assert reports_written <= set(runs[0]), sorted(runs[0])
    assert runs[1] == runs[0]
