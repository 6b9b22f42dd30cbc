"""Committed benchmark results: every BENCH_*.json at the repository root
parses and carries the fields that README.md's "Benchmark results" lists."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def _check_sides(entry: dict, what: str) -> None:
    for side in ("parent", "change"):
        stats = entry[side]
        assert isinstance(stats["median"], (int, float)), (what, side)
        assert all(isinstance(x, (int, float)) for x in stats["runs"]), (what, side)


def test_some_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_fields(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in ("label", "claim", "command", "pairs", "order", "seeds",
                "provenance", "end_to_end", "per_layer"):
        assert key in doc, key
    assert type(doc["pairs"]) is int and doc["pairs"] >= 1
    for side in ("parent", "change"):
        for key in ("git_sha", "src_sha256", "python"):
            assert isinstance(doc["provenance"][side][key], str), (side, key)
            assert doc["provenance"][side][key], (side, key)
    for workload in WORKLOADS:
        seeds = doc["seeds"]["trace0"][workload]
        assert len(seeds) == doc["pairs"] and all(type(s) is int for s in seeds)
        for metric in END_TO_END:
            _check_sides(doc["end_to_end"][workload][metric], f"{workload} {metric}")
    assert doc["per_layer"]
    for workload, table in doc["per_layer"].items():
        assert workload in WORKLOADS and doc["seeds"]["trace1"][workload]
        assert table and set(table) <= PER_LAYER, workload
        for metric, entry in table.items():
            _check_sides(entry, f"{workload} {metric}")
