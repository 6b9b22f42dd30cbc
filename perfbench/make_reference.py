"""Regenerate reference.json: the pool of random LP hosts and the reference
answer of every job that any seed can draw.

    python3 perfbench/make_reference.py

Run it only on a commit whose answers are trusted, and only when answers are
meant to change; the checks in checks.py compare every run against it.
"""

import itertools
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from rainbowpack import SimpleGraph  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def copy_count(host: SimpleGraph, pattern: SimpleGraph) -> int:
    """Distinct edge sets of pattern copies in host: the LP's column count."""
    copies = set()
    for image in itertools.permutations(range(host.n), pattern.n):
        edges = frozenset((min(image[u], image[v]), max(image[u], image[v]))
                          for (u, v) in pattern.edges)
        if edges <= host.edges:
            copies.add(edges)
    return len(copies)


def lp_pool() -> list:
    pool = []
    for i in range(workloads.LP_POOL):
        host, f = workloads.lp_candidate(i)
        cols = copy_count(host, workloads.GRAPHS[f])
        if workloads.LP_BANDS[0][0] <= cols <= workloads.LP_BANDS[-1][1]:
            pool.append([i, f, cols])
    return pool


def main() -> int:
    reference = {"pool": {"lp": lp_pool()}, "answers": {}}
    host_dir = ROOT / ".perfbench" / "make-reference"
    host_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for job in workloads.build_jobs(workload, None, reference["pool"], host_dir):
                try:
                    answer = job.run(spans.NullTracer())
                except RecursionError as exc:
                    # a known solver defect: no answer yet, only a bound
                    p = job.params
                    host = p["host"] or SimpleGraph.complete(p["n"])
                    entry = {"error": type(exc).__name__, "upper": host.edge_count()
                             // workloads.GRAPHS[p["pattern"]].edge_count()}
                    print(f"{job.key}: {entry}", file=sys.stderr)
                else:
                    entry = checks.reference_entry(job, answer)
                    checks.check(job, answer, {"answers": {job.key: entry}})
                reference["answers"][job.key] = entry
    finally:
        shutil.rmtree(host_dir, ignore_errors=True)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference['answers'])} answers, {len(reference['pool']['lp'])} LP hosts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
