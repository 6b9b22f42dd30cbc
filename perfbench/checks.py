"""Answer checks, run between jobs and outside the timed region.

A check accepts any answer a correct, faster program may give: it hashes
only what is unique (packing bytes, audit numbers, lex-min optimal
witnesses) and checks the rest by its defining property.  Node counts and
LP weights are never compared, because another search order or pivot rule
may legitimately change them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from rainbowpack import (BlowupSpec, SimpleGraph, blow_up, canonical_json,
                         perfect_decomposition_check)

REFERENCE = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """An answer differs from its reference or breaks its defining property."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(job, answer, reference: dict) -> None:
    """Raise CheckFailed unless ``answer`` is a correct answer to ``job``."""
    entry = reference["answers"].get(job.key)
    if entry is None:
        raise CheckFailed(f"no reference answer for {job.key!r}")
    CHECKS[job.kind](job, answer, entry)


def reference_entry(job, answer) -> dict:
    """The reference record of a checked-by-hand answer (for make_reference)."""
    obj = answer.objects
    if job.kind in ("kt_packing", "k4_scan", "c5_blowup"):
        return {"sha": digest(obj["text"] + "\n" + answer.payload)}
    if job.kind == "gadget":
        return {"sha": digest(answer.payload)}
    if job.kind == "greedy_fail":
        return {"verdict": json.loads(answer.payload)["verdict"]}
    if job.kind == "density_row":
        return {name: _frac(value) if isinstance(value, Fraction) else value
                for name, value in obj.items()}
    if job.kind in ("solve_grid", "solve_host"):
        res, cfg = obj["result"], obj["cfg"]
        host = cfg.host or SimpleGraph.complete(cfg.n)
        upper = res.value if res.optimal else host.edge_count() // cfg.pattern.edge_count()
        return {"value": res.value, "optimal": res.optimal, "upper": upper,
                "witness": digest(canonical_json(res.packing.to_json_dict()))}
    if job.kind in ("lp_fixed", "lp_random"):
        return {"nuStar": _frac(obj["value"])}
    raise ValueError(job.kind)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_construction(job, answer, entry) -> None:
    obj = answer.objects
    packing = obj["packing"]
    if job.kind == "c5_blowup":
        m = obj["m"]
        _require(len(packing) == m * m, f"{len(packing)} pentagons, expected m^2 = {m * m}")
        try:
            perfect_decomposition_check(
                packing, blow_up(BlowupSpec(SimpleGraph.cycle(5), (m,) * 5)))
        except ValueError as exc:
            raise CheckFailed(str(exc)) from exc
    else:
        n, size = job.params["n"], len(obj["qset"])
        _require(len(packing) == n * size,
                 f"{len(packing)} copies, expected n*|A| = {n * size}")
    _require(digest(obj["text"] + "\n" + answer.payload) == entry["sha"],
             "packing bytes or verify payload differ from the reference")


def _check_gadget(job, answer, entry) -> None:
    _require(digest(answer.payload) == entry["sha"],
             "gadget payload differs from the reference")


def _check_greedy(job, answer, entry) -> None:
    obj = answer.objects
    witness = obj["witness"]
    _require(json.loads(answer.payload)["verdict"] == entry["verdict"] == "FAIL",
             "expected a FAIL verdict")
    try:
        witness.check(obj["packing"], obj["forbidden"])
    except ValueError as exc:
        raise CheckFailed(f"witness does not re-verify: {exc}") from exc


def _check_density(job, answer, entry) -> None:
    row = answer.objects
    for name in ("decompositionCoeff", "upperBoundCoeff"):
        _require(_frac(row[name]) == entry[name], f"{name} differs from the reference")
    _require(row["referenceDensity"] == entry["referenceDensity"],
             "referenceDensity differs from the reference")
    # the pattern descent works in floats, so only its first digits are fixed
    best, ref = row["maximizedDensity"], entry["maximizedDensity"]
    _require(abs(best - ref) <= 1e-9 * ref, f"maximizedDensity {best} != {ref}")


def _check_solve(job, answer, entry) -> None:
    res, cfg = answer.objects["result"], answer.objects["cfg"]
    packing = res.packing
    _require(packing.n == cfg.n and packing.pattern == cfg.pattern,
             "witness packing has the wrong ground set or pattern")
    _require(len(packing) == res.value, "value does not count the witness copies")
    host = cfg.host or SimpleGraph.complete(cfg.n)
    color = _edge_colors(packing, host)
    if cfg.forbidden is not None:
        _require(not _has_rainbow(cfg.n, color, cfg.forbidden),
                 "witness packing contains a rainbow copy")
    if res.optimal and entry.get("optimal"):
        _require(res.value == entry["value"],
                 f"optimal value {res.value} != reference {entry['value']}")
        _require(digest(canonical_json(packing.to_json_dict())) == entry["witness"],
                 "optimal witness is not the reference lex-min witness")
    else:
        _require(res.value <= entry["upper"],
                 f"value {res.value} exceeds the best known bound {entry['upper']}")


def _edge_colors(packing, host: SimpleGraph) -> dict:
    """Edge -> copy index, checking each copy independently of the library."""
    color: dict[tuple[int, int], int] = {}
    k = packing.pattern.n
    for ci, copy in enumerate(packing.copies):
        _require(len(set(copy)) == k, f"copy {ci} is not injective")
        for (i, j) in packing.pattern.edges:
            e = (min(copy[i], copy[j]), max(copy[i], copy[j]))
            _require(e in host.edges, f"copy {ci} uses non-host edge {e}")
            _require(e not in color, f"copies {color.get(e)} and {ci} share edge {e}")
            color[e] = ci
    return color


def _has_rainbow(n: int, color: dict, forbidden: SimpleGraph) -> bool:
    """Plain scan over all vertex tuples; no code shared with the library."""
    f_edges = sorted(forbidden.edges)
    for image in itertools.permutations(range(n), forbidden.n):
        colors = []
        for (u, v) in f_edges:
            c = color.get((min(image[u], image[v]), max(image[u], image[v])))
            if c is None:
                break
            colors.append(c)
        else:
            if len(set(colors)) == len(colors):
                return True
    return False


def _check_lp(job, answer, entry) -> None:
    value, problem = answer.objects["value"], answer.objects["problem"]
    _require(value == Fraction(entry["nuStar"]),
             f"nu* = {value} != reference {entry['nuStar']}")
    _require(problem.value() == value, "weights do not sum to nu*")
    try:
        problem.validate()
    except ValueError as exc:
        raise CheckFailed(f"LP weights are infeasible: {exc}") from exc


CHECKS = {
    "kt_packing": _check_construction,
    "k4_scan": _check_construction,
    "c5_blowup": _check_construction,
    "gadget": _check_gadget,
    "greedy_fail": _check_greedy,
    "density_row": _check_density,
    "solve_grid": _check_solve,
    "solve_host": _check_solve,
    "lp_fixed": _check_lp,
    "lp_random": _check_lp,
}
