"""pavekit benchmark: seeded solve -> verify jobs, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pave-search --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

A job runs real pavekit subcommands through pavekit.cli.main(argv) in this
one process: each producing subcommand writes a --report, which `verify`
then checks.  The workloads and their inputs are in jobs.py.  A run first
runs job 0 untimed (warm-up and payload repeat check), then times jobs
0, 1, 2, ... until --seconds have passed.

Every time metric is given at a fixed host speed: each timed call's wall
time is divided by the time of a fixed reference task (hostref.py) measured
right before and after it, and multiplied by that task's nominal time.
On a shared 2-vCPU VM the host's speed changes by up to 1.6x within
seconds, which no statistic of raw wall time survives; the raw wall-clock
figures are printed beside the metrics as a diagnostic.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of
--seconds untraced and half with spans around every layer (tracing.py)
and reports the per-layer metrics listed in layers.json, including the
tracing overhead.  The last output line is one JSON object with the keys
correct, attempted, failed and metrics; attempted counts pavekit
invocations and failed/attempted is the run's failed_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from hashlib import sha256  # bound before a traced segment swaps hashlib's
from pathlib import Path

import hostref
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("pave-search", "subset-scan", "wide-frames")
END_TO_END = (("solve_p50_s", "s"), ("solve_tail_s", "s"),
              ("verify_p50_s", "s"), ("verify_tail_s", "s"),
              ("certified_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# BLAS threads are pinned so runs on one machine compare; 1 suits the
# small matrices every workload factors.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_STARTS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import pavekit.cli; "
              "pavekit.cli.build_parser()")
TAIL_BEYOND = 10
# Jobs 0..PREFIX_JOBS-1 run in every segment: the payload digest and the
# exact work counts cover them, so they compare across runs of one seed.
PREFIX_JOBS = 8


def load_layer_metrics():
    with open(HERE / "layers.json") as fh:
        return json.load(fh)["per_layer"]


def canonical_hash(payload):
    return sha256(json.dumps(payload, sort_keys=True,
                             separators=(",", ":")).encode()).hexdigest()


def payload_counts(payload):
    """Work counts a payload records about itself."""
    res = payload.get("results", {})
    if payload.get("command") in ("pave", "weaver"):
        return {"paving.evaluated": res["evaluated"]}
    if payload.get("command") == "erasure":
        return {"erasures.subsets_scanned": res["subsets_scanned"]}
    return {}


def _verified(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]).get("verified") is True
    except (IndexError, ValueError, AttributeError):
        return False


class Runner:
    """Runs one workload's jobs and keeps their timings, hashes and counts."""

    def __init__(self, workload, seed, cli, jobs, tracing):
        self.workload, self.seed = workload, seed
        self.cli, self.jobs, self.tracing = cli, jobs, tracing
        self.errors = []
        self.spans = []

    def invoke(self, argv):
        """(exit code or error text, wall seconds, seconds at the nominal
        host speed, captured stdout).

        A full collection first gives every call the garbage collector
        state of a fresh process, as a command-line user would see."""
        gc.collect()
        out = io.StringIO()
        before = hostref.measure()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)  # looked up per call: traced or not
            except (Exception, SystemExit) as exc:
                code = f"raised {exc!r}"
            took = time.perf_counter() - start
        after = hostref.measure()
        return code, took, hostref.scale(took, before, after), out.getvalue()

    def run_job(self, job):
        rec = {"solve_s": 0.0, "verify_s": 0.0, "solve_wall_s": 0.0,
               "verify_wall_s": 0.0, "attempted": 0, "failed": 0,
               "certified": 0, "hashes": [], "counts": Counter()}
        for argv, report in self.jobs.build_job(self.workload, self.seed, job):
            rec["attempted"] += 1
            code, wall, took, _ = self.invoke(argv)
            rec["solve_wall_s"] += wall
            rec["solve_s"] += took
            if code != 0:
                rec["failed"] += 1
                rec["hashes"].append("failed")
                self.errors.append(f"job {job}: {' '.join(argv)} -> {code}")
                continue
            rec["attempted"] += 1
            code, wall, took, out = self.invoke(
                ["verify", "--report", report])
            rec["verify_wall_s"] += wall
            rec["verify_s"] += took
            if code == 0 and _verified(out):
                rec["certified"] += 1
            else:
                rec["failed"] += 1
                self.errors.append(
                    f"job {job}: verify {report} -> {code} {out.strip()}")
            with open(report) as fh:
                payload = json.load(fh)["payload"]
            rec["hashes"].append(canonical_hash(payload))
            rec["counts"].update(payload_counts(payload))
        return rec

    def job(self, job, tracer, label):
        if tracer is None:
            return self.run_job(job)
        tracer.job = label
        rec = self.run_job(job)
        spans, counts = tracer.drain()
        rec["counts"].update(counts)
        rec["layers"] = {}
        for name, value in self.tracing.summarize(spans).items():
            if name.endswith("_calls"):
                rec["counts"][name] += value
            else:
                rec["layers"][name] = value
        self.spans.extend(spans)
        return rec

    def segment(self, seconds, min_jobs, tracer=None, cold_starts=0):
        """A warm-up run of job 0, then jobs 0, 1, ... for `seconds` and at
        least `min_jobs` jobs, with `cold_starts` set-up timings spread
        evenly between them, so that they see the same host as the jobs.

        The warm-up takes first-call costs such as lazy imports out of the
        timings, and it is the repeat check: job 0's payloads, and its work
        counts when traced, must come out the same both times."""
        warm = self.job(0, tracer, "warm-up")
        recs, setup = [], []
        start = time.perf_counter()

        def busy():  # seconds spent on jobs so far
            return time.perf_counter() - start - sum(setup)
        while len(recs) < min_jobs or busy() < seconds:
            if len(setup) < cold_starts and \
                    busy() >= len(setup) * seconds / cold_starts:
                setup.append(cold_start())
            recs.append(self.job(len(recs), tracer, len(recs)))
        wall = busy()
        setup += [cold_start() for _ in range(cold_starts - len(setup))]
        changed = sum(x != y for x, y in zip(warm["hashes"], recs[0]["hashes"]))
        if changed:
            self.errors.append(
                f"job 0: {changed} payload(s) changed on the repeat")
        if tracer is not None and warm["counts"] != recs[0]["counts"]:
            self.errors.append(
                "benchmark bug: job 0's work counts differ on the repeat")
        return {"warm": warm, "recs": recs, "wall": wall, "changed": changed,
                "setup": setup}


def prefix_counts(seg):
    total = Counter()
    for rec in seg["recs"][:PREFIX_JOBS]:
        total.update(rec["counts"])
    return total


def digest(seg):
    h = sha256()
    for rec in seg["recs"][:PREFIX_JOBS]:
        for x in rec["hashes"]:
            h.update(x.encode())
    return h.hexdigest()


def tally(segments):
    runs = [r for s in segments for r in [s["warm"]] + s["recs"]]
    failed = sum(r["failed"] for r in runs) + sum(s["changed"]
                                                  for s in segments)
    return sum(r["attempted"] for r in runs), failed


def end_to_end(seg):
    recs = seg["recs"]
    solve = [r["solve_s"] for r in recs]
    verify = [r["verify_s"] for r in recs]
    solve_tail, solve_pct = stats.tail(solve, TAIL_BEYOND)
    verify_tail, verify_pct = stats.tail(verify, TAIL_BEYOND)
    # the job loop's wall time at the nominal host speed, scaled by the
    # ratio its timed calls saw
    scaled = sum(r["solve_s"] + r["verify_s"] for r in recs)
    raw = sum(r["solve_wall_s"] + r["verify_wall_s"] for r in recs)
    certified = sum(r["certified"] for r in recs)
    values = {
        "solve_p50_s": statistics.median(solve),
        "solve_tail_s": solve_tail,
        "verify_p50_s": statistics.median(verify),
        "verify_tail_s": verify_tail,
        "certified_per_s": certified / (seg["wall"] * scaled / raw),
        "setup_s": statistics.median(seg["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    n = len(recs)
    notes = {"solve_p50_s": f"median of {n} jobs",
             "solve_tail_s": f"p{solve_pct:.1f} of {n} jobs",
             "verify_p50_s": f"median of {n} jobs",
             "verify_tail_s": f"p{verify_pct:.1f} of {n} jobs",
             "certified_per_s": f"over {seg['wall']:.2f} s",
             "setup_s": f"median of {len(seg['setup'])} cold starts"}
    wall = {"solve_p50_s": statistics.median(r["solve_wall_s"] for r in recs),
            "verify_p50_s": statistics.median(r["verify_wall_s"]
                                              for r in recs),
            "certified_per_s": certified / seg["wall"],
            "host_factor": raw / scaled}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, notes, wall


def per_layer(untraced, traced):
    recs = traced["recs"]
    counts = prefix_counts(traced)
    common = min(len(untraced["recs"]), len(recs))
    overhead = (statistics.median([r["solve_s"] for r in recs[:common]])
                - statistics.median([r["solve_s"] for r in
                                untraced["recs"][:common]]))
    metrics = {}
    for d in load_layer_metrics():
        name, unit = d["name"], d["unit"]
        if name == "trace.overhead_s":
            value = overhead
        elif name == "paving.kernel_calls_per_partition":
            evaluated = counts["paving.evaluated"]
            value = counts["paving.kernel_calls"] / evaluated \
                if evaluated else 0.0
        elif unit == "s/job":
            value = sum(r["layers"].get(name, 0.0) for r in recs) / len(recs)
        else:
            value = counts[name] / PREFIX_JOBS
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def check_counts(key, counts):
    """Compare exact work counts with an earlier run of the same code and
    seed; returns a message on a mismatch, which is a benchmark bug."""
    path = STATE / "counts.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    mine = dict(sorted(counts.items()))
    if key in seen and seen[key] != mine:
        diff = sorted(k for k in set(seen[key]) | set(mine)
                      if seen[key].get(k) != mine.get(k))
        return f"benchmark bug: work counts differ from an earlier run: {diff}"
    seen[key] = mine
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return None


def source_digest():
    h = sha256()
    for base in (ROOT / "src" / "pavekit", HERE):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cold_start():
    """Time, at the nominal host speed, of a fresh interpreter that imports
    pavekit.cli and builds its parser: what every invocation pays before
    any work."""
    before = hostref.measure()
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to
    # 50 ms, which would quantize this time
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    took = time.perf_counter() - start
    return hostref.scale(took, before, hostref.measure())


def host_speed():
    """Median of 25 timings of the reference task: a diagnostic of how fast
    this host runs right now."""
    return statistics.median(hostref.measure() for _ in range(25))


def environment(seed, numpy):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    rev = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_revision": rev, "source_digest": source_digest(),
            "seed": seed}


def write_spans(runner, path):
    """One JSON line per span: name, start, end, parent index within its
    job, job (0, 1, ... or "warm-up")."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for name, _, _, start, end, parent, job in runner.spans:
            fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def run(args):
    os.chdir(ROOT)
    if not (ROOT / "src" / "pavekit" / "__init__.py").is_file():
        print("perfbench: src/pavekit not found; run from a pavekit checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import pavekit
    import pavekit.cli
    import jobs
    import tracing
    if Path(pavekit.__file__).resolve().parent != ROOT / "src" / "pavekit":
        print(f"perfbench: imported pavekit from {pavekit.__file__}",
              file=sys.stderr)
        return 2

    env = environment(args.seed, numpy)
    env["host_ref_before_s"] = host_speed()
    runner = Runner(args.workload, args.seed, pavekit.cli, jobs, tracing)
    if args.trace:
        untraced = runner.segment(args.seconds / 2, PREFIX_JOBS)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, pavekit)
        try:
            traced = runner.segment(args.seconds / 2, PREFIX_JOBS, tracer)
        finally:
            tracing.restore(undo)
        segments = [untraced, traced]
        metrics, notes, wall = per_layer(untraced, traced), {}, {}
        key = (f"{args.workload} seed={args.seed} jobs={PREFIX_JOBS} "
               f"source={env['source_digest']}")
        bug = check_counts(key, prefix_counts(traced))
        if bug:
            runner.errors.append(bug)
        spans_path = STATE / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        write_spans(runner, spans_path)
        notes["spans"] = str(spans_path.relative_to(ROOT))
    else:
        seg = runner.segment(args.seconds, max(PREFIX_JOBS, TAIL_BEYOND + 1),
                             cold_starts=SETUP_STARTS)
        segments = [seg]
        metrics, notes, wall = end_to_end(seg)
    env["host_ref_after_s"] = host_speed()
    shutil.rmtree(Path(jobs.WORK_DIR) / args.workload, ignore_errors=True)

    attempted, failed = tally(segments)
    correct = failed == 0 and not runner.errors
    print("env " + json.dumps(env, sort_keys=True))
    for msg in runner.errors[:20]:
        print(f"error: {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{sum(len(s['recs']) for s in segments)} timed jobs, "
          f"{attempted} invocations, {failed} failed, "
          f"failed_frac {failed / attempted:.6g}")
    print(f"payload digest of jobs 0-{PREFIX_JOBS - 1}: {digest(segments[0])}")
    for name, m in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{extra}")
    if wall:
        print("raw wall clock, a diagnostic: " + ", ".join(
            f"{name} {value:.6g}" for name, value in wall.items()))
    if "spans" in notes:
        print(f"spans written to {notes['spans']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload != "all":
        return run(args)
    code = 0
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
