"""Closed-loop benchmark of the rainbowpack library.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

One client in one single-threaded process runs the workload's job list
(see workloads.py) pass after pass for about ``--seconds`` seconds; each
job starts only after the previous one has finished and its answer has been
checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records provenance.  Details of the run (pass times, sample
counts, failures, and with ``--trace 1`` every span) go to ``.perfbench/``
in the checkout.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import rainbowpack  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # fresh processes timed for setup_s
CALIBRATION_S = 0.0015  # calibrate()'s time at the speed scaled times refer to
WINDOW = 10  # calibrations on each side of a job that set its scale
UNITS = {"batch_s": "s", "job_ms.p50": "ms", "job_ms.p90": "ms", "ok_ratio": "ratio",
         "exact_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def setup(workload: str, seed: int, work_dir: Path):
    """Everything before the first job: reference, job list, host files."""
    reference = checks.load_reference()
    host_dir = work_dir / "hosts"
    host_dir.mkdir(parents=True, exist_ok=True)
    return workloads.build_jobs(workload, seed, reference["pool"], host_dir), reference


def probe_setup_s(workload: str, seed: int) -> list[float]:
    """Time, from spawn until its job list is ready, fresh processes that
    set the workload up and exit; one process cannot re-time its imports.
    Unlike job times these are not scaled: process start-up does not follow
    calibrate()."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed")
    return samples


def calibrate() -> float:
    """Time a fixed piece of plain Python work that uses no rainbowpack code.

    The speed of a shared machine drifts by a quarter and more over tens of
    seconds.  This loop's time follows that drift, so each job's time is
    scaled by CALIBRATION_S over the median of the calibrations around it;
    a change to the program does not move the calibration.
    """
    started = time.perf_counter()
    table: dict = {}
    seen = set()
    x = Fraction(1, 3)
    for i in range(1500):
        key = (i & 127, i % 7)
        table[key] = table.get(key, 0) + i * i
        seen.add((i * 7919) % 2003)
        if i % 50 == 0:
            x = x * Fraction(i + 1, i + 2) + 1
    json.dumps(sorted(table.items()))
    return time.perf_counter() - started


class Run:
    """The closed loop over passes, and what it observed."""

    def __init__(self, jobs, reference, tracer) -> None:
        self.jobs = jobs
        self.reference = reference
        self.tracer = tracer
        self.pass_s: list[float] = []
        self.traced_pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.calibration_s: list[float] = []
        self.job_ms: list[float] = []
        self.attempted = self.failed = self.wrong = self.exact = 0
        self.failures: Counter = Counter()

    def run_job(self, job, tr) -> float:
        """Time one job, then check its answer outside the timed region."""
        gc.collect()  # start every job with the collector in the same state
        tr.begin_job(job)
        started = time.perf_counter()
        try:
            answer = job.run(tr)
        except Exception as exc:  # a failed job is counted; the run goes on
            took = time.perf_counter() - started
            tr.end_job()
            self._fail(job, "raised " + "".join(traceback.format_exception_only(exc)).strip())
            return took
        took = time.perf_counter() - started
        tr.end_job()
        try:
            checks.check(job, answer, self.reference)
        except checks.CheckFailed as exc:
            self.wrong += 1
            self._fail(job, f"wrong answer: {exc}")
            return took
        self.exact += answer.exact
        return took

    def _fail(self, job, reason: str) -> None:
        self.failed += 1
        if not self.failures[job.key]:
            print(f"job {job.key!r} failed: {reason[:300]}", file=sys.stderr)
        self.failures[job.key] += 1

    def run_pass(self, traced: bool) -> None:
        """One pass over the job list; job times are scaled to the machine
        speed at which calibrate() takes CALIBRATION_S."""
        tr = self.tracer if traced else spans.NullTracer()
        if traced:
            self.tracer.begin_pass(len(self.pass_s) + len(self.traced_pass_s))
        took, calibration = [], []
        for job in self.jobs:
            calibration.append(calibrate())
            took.append(self.run_job(job, tr))
            self.attempted += 1
        scaled = [t * CALIBRATION_S
                  / statistics.median(calibration[max(0, k - WINDOW):k + WINDOW + 1])
                  for k, t in enumerate(took)]
        if not traced:
            self.job_ms.extend(t * 1000.0 for t in scaled)
            self.raw_pass_s.append(sum(took))
            self.calibration_s.append(statistics.median(calibration))
        (self.traced_pass_s if traced else self.pass_s).append(sum(scaled))

    def run(self, seconds: float, trace: bool) -> None:
        """Alternate untraced and (with trace) traced passes until the next
        pass would end after ``seconds``; at least one pass of each kind."""
        started = time.perf_counter()
        while True:
            traced = trace and len(self.traced_pass_s) < len(self.pass_s)
            self.run_pass(traced)
            done = self.pass_s and (self.traced_pass_s or not trace)
            elapsed = time.perf_counter() - started
            per_pass = elapsed / (len(self.pass_s) + len(self.traced_pass_s))
            if done and elapsed + per_pass > seconds:
                return


def first_of_each_kind(jobs) -> list:
    """The job with the smallest inputs (lowest id) of every kind."""
    first: dict = {}
    for job in jobs:
        if job.kind not in first or job.id < first[job.kind].id:
            first[job.kind] = job
    return sorted(first.values(), key=lambda job: job.id)


def warm_up(jobs, reference) -> None:
    """One untimed job of each kind, so lazy set-up in the interpreter and
    allocator is paid before timing."""
    scratch = Run(jobs, reference, spans.NullTracer())
    for job in first_of_each_kind(jobs):
        scratch.run_job(job, spans.NullTracer())


def provenance(workload: str, seed: int, jobs) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rainbowpack").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": len(jobs),
        "jobs_per_kind": dict(sorted(Counter(job.kind for job in jobs).items())),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  pick=None, reference=None):
    """Set up, warm up and run the closed loop; returns the result line and
    the run's details.  ``pick`` narrows the job list and ``reference``
    replaces reference.json (both only for the smoke test)."""
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        jobs, own_reference = setup(workload, seed, work_dir)
        own_setup_s = time.perf_counter() - _STARTED
        jobs = pick(jobs) if pick else jobs
        reference = reference or own_reference
        warm_up(jobs, reference)
        setup_samples = [] if trace else probe_setup_s(workload, seed)
        gc.collect()
        gc.freeze()  # setup objects live for the whole run; keep them out of collections
        run = Run(jobs, reference, spans.Tracer())
        run.run(seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    job_ms = sorted(run.job_ms)
    deciles = statistics.quantiles(job_ms, n=10) if len(job_ms) > 1 else job_ms * 9
    details = {
        "provenance": provenance(workload, seed, jobs),
        "passes": len(run.pass_s), "traced_passes": len(run.traced_pass_s),
        "pass_s": run.pass_s, "traced_pass_s": run.traced_pass_s,
        "raw_pass_s": run.raw_pass_s, "calibration_s": run.calibration_s,
        "job_samples": len(job_ms),
        "samples_beyond_p90": sum(1 for x in job_ms if x > deciles[8]),
        "fail_ratio": run.failed / run.attempted,
        "failures": dict(run.failures),
        "own_setup_s": own_setup_s, "setup_samples_s": setup_samples,
    }
    if trace:
        metrics = run.tracer.layer_metrics()
        metrics["trace.overhead_s"] = (statistics.median(run.traced_pass_s)
                                       - statistics.median(run.pass_s))
        units = {name: unit for (name, unit, _) in spans.LAYER_METRICS}
    else:
        metrics = {
            "batch_s": statistics.median(run.pass_s),
            "job_ms.p50": statistics.median(job_ms),
            "job_ms.p90": deciles[8],
            "ok_ratio": (run.attempted - run.failed) / run.attempted,
            "exact_ratio": run.exact / run.attempted,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
    details["metrics"] = metrics
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, details, run.tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time setup_s)")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(rainbowpack.__file__).resolve().parents:
        print(f"error: rainbowpack imported from {rainbowpack.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        work_dir = OUT_DIR / f"work-{os.getpid()}"
        try:
            setup(args.workload, args.seed, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print("ready", flush=True)
        return 0

    result, details, tracer = run_benchmark(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    print(json.dumps({"provenance": details["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
