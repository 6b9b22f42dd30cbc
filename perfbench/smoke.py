"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one small job of every kind in each workload, untraced and traced,
and checks that every metric named in BENCHMARK.json is emitted; then
tampers with one reference hash and checks that the job it guards fails.
Takes well under a minute; exits non-zero on the first problem.
"""

import copy
import json
import sys

import run
import workloads


def expect(cond: bool, message: str) -> None:
    if not cond:
        sys.exit(f"smoke test failed: {message}")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    def small(jobs):  # for lp_fixed that is K6/C5, not C5[3]/C5
        return run.first_of_each_kind(jobs)

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, _, _ = run.run_benchmark(workload, 1, 0.0, bool(trace), pick=small)
            got = result["metrics"]
            expect(sorted(got) == sorted(names[trace]),
                   f"{workload} trace={trace} emits {sorted(set(got) ^ set(names[trace]))}"
                   " unlike BENCHMARK.json")
            expect(all(isinstance(m["value"], (int, float)) for m in got.values()),
                   f"{workload} trace={trace} emits a non-numeric value")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{workload} trace={trace} reports {result}")
            print(f"{workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} jobs, {result['failed']} failed")

    tampered = copy.deepcopy(run.checks.load_reference())
    for key, entry in tampered["answers"].items():
        if key.startswith("kt "):
            entry["sha"] = "0" * 64
    result, details, _ = run.run_benchmark("certify", 1, 0.0, False, pick=small,
                                           reference=tampered)
    expect(details["fail_ratio"] > 0 and any(k.startswith("kt ") for k in details["failures"]),
           f"a tampered reference hash went unnoticed: {details['failures']}")
    expect(not result["correct"], "a wrong answer left correct=true")
    print(f"tampered hash: fail_ratio {details['fail_ratio']:.3f}, correct=false")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
