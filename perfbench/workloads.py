"""Seeded workloads: the job lists and the library calls each job makes.

Every job stands for one ``rainbowpack`` CLI command and makes the same
sequence of library calls as that command's handler in ``cli.py``, each
wrapped in ``tr.call`` so a traced run can put a span around it.  Inputs are
drawn with the run's seed from fixed menus and pools (listed below), so the
same seed gives the same jobs and every job the seed can draw has an entry
in ``reference.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from rainbowpack import (BlowupSpec, ColoredPacking, SearchConfig, SimpleGraph,
                         behrend_q_free, blow_up, c5_blowup_packing,
                         c5_decomposition_coeff, canonical_json, density,
                         find_rainbow, kt_packing, lp_fractional_packing,
                         max_rainbow_free_packing, maximize_density,
                         pentagon_audit, reference_triple, upper_bound_coeff)

WORKLOADS = ("certify", "solve", "lp")

K3 = SimpleGraph.complete(3)
K4 = SimpleGraph.complete(4)
C4 = SimpleGraph.cycle(4)
C5 = SimpleGraph.cycle(5)
GRAPHS = {"k3": K3, "k4": K4, "c4": C4, "c5": C5, "none": None}

# Each draw takes one entry per stratum of a menu or pool sorted by input
# size, so the mix of job sizes changes little from seed to seed.
KT_MENU = range(100, 401, 5)           # n of construct --family kt, t = 3, 4, 5
KT_STRATA = 12
K4_MENU = range(100, 201, 5)           # n of kt t = 3 scanned with --G k4
K4_STRATA = 6
C5_MENU = range(9, 62, 2)              # odd m of construct --family c5blowup
C5_STRATA = 14
GADGET_MENU = range(2000, 20001, 500)  # n of gadget --n, q = 1, 2
GADGET_STRATA = 12
GREEDY_MENU = [(n, i) for n in range(30, 81) for i in range(2)]
GREEDY_STRATA = 16
DENSITY_MENU = range(3, 27)            # k of report --densities
DENSITY_STRATA = 8

# solve: the fixed grid runs under every seed.  Budgets are per job.
TRIANGLE_BUDGET = 300_000
GENERIC_BUDGET = 10_000
RECURSION_BUDGET = 20_000
SOLVE_GRID = (
    [("c5", "k3", n, TRIANGLE_BUDGET, True) for n in range(5, 9)]
    # C5/K3 n = 9 raises RecursionError today (the DFS recurses once per
    # copy and K9 has 1,512 pentagons); it stays in the list so the defect
    # shows as a failed job until the solver is fixed.
    + [("c5", "k3", 9, RECURSION_BUDGET, True)]
    + [("k3", "k3", n, TRIANGLE_BUDGET, True) for n in range(6, 11)]
    + [("k3", "c4", n, GENERIC_BUDGET, True) for n in range(6, 9)]
    + [("k3", "c5", 7, GENERIC_BUDGET, True)]
    + [("c4", "k3", 8, TRIANGLE_BUDGET, True)]
    + [("k3", "none", n, TRIANGLE_BUDGET, True) for n in range(6, 10)]
    + [("k3", "k3", n, TRIANGLE_BUDGET, False) for n in range(5, 8)]
    + [("c5", "k3", 7, TRIANGLE_BUDGET, False)]
)
# Random explicit hosts: (pattern, forbidden, n) -> (pool size, draws).
# C5 hosts stop at n = 8 because denser C5 hosts hit the same recursion
# defect as the grid job above; one visible instance of it is enough.
HOST_BUDGET = 20_000
# The densest hosts of each pool are the same under every seed, for the
# reason given at LP_FIXED_TOP.
SOLVE_FIXED_TOP = 2
SOLVE_POOLS = {("k3", "k3", n): (45, 15) for n in range(7, 11)}
SOLVE_POOLS.update({("c5", "k3", n): (30, 10) for n in (7, 8)})

# lp: random hosts on 6-8 vertices kept when the LP has 5-60 columns,
# banded by column count; the pool is listed in reference.json.  The top
# band is not seeded: job_ms.p90 falls among its LPs, whose times vary by a
# factor of three at equal size, and drawing them per seed moved p90 by
# about 15% from seed to seed.
LP_BANDS = ((5, 14), (15, 29), (30, 60))
LP_DRAWS = (23, 6, 4)  # per band and pattern
LP_FIXED_TOP = (0, 0, 4)
LP_PATTERNS = ("k3", "c4", "c5")
LP_POOL = 1200  # candidates tried when the pool in reference.json is made
LP_FIXED = (  # edge-transitive hosts where nu* = e(H) / e(F)
    ("k6", "c5"), ("k7", "k3"), ("k3[3]", "c4"), ("k4[2]", "c4"), ("c5[3]", "c5"))


@dataclass
class Job:
    """One CLI command's worth of library calls on generated inputs."""

    id: int
    kind: str
    key: str            # reference key, unique per input
    params: dict

    def run(self, tr):
        return RUNNERS[self.kind](tr, **self.params)


@dataclass
class Answer:
    """What a job returns; kept only until its check has run."""

    exact: bool
    payload: str          # canonical bytes the command would print
    objects: dict


# --- input generators (benchmark code; the library only sees the results) ---

def random_host(n: int, salt: int, low: float, high: float) -> SimpleGraph:
    """Erdos-Renyi host with edge probability drawn from [low, high)."""
    rng = random.Random(salt)
    p = low + (high - low) * rng.random()
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def solve_host_salt(pattern: str, n: int, i: int) -> int:
    return 1_000_003 * n + 7919 * i + (0 if pattern == "k3" else 500_009)


def lp_host_salt(i: int) -> int:
    return 2_000_003 + 104_729 * i


def lp_candidate(i: int) -> tuple[SimpleGraph, str]:
    """The i-th candidate LP job; reference.json lists which ones are kept."""
    rng = random.Random(lp_host_salt(i))
    n = 6 + rng.randrange(3)
    pattern = LP_PATTERNS[rng.randrange(3)]
    return random_host(n, rng.randrange(1 << 30), 0.45, 0.9), pattern


def fixed_lp_host(name: str) -> SimpleGraph:
    if name == "k6":
        return SimpleGraph.complete(6)
    if name == "k7":
        return SimpleGraph.complete(7)
    base, size = {"k3[3]": (K3, 3), "k4[2]": (K4, 2), "c5[3]": (C5, 3)}[name]
    return blow_up(BlowupSpec(base, (size,) * base.n))


def greedy_triangle_packing(n: int, i: int) -> dict:
    """Greedy edge-disjoint triangles of K_n from 8n seeded random triples."""
    rng = random.Random(3_000_017 * n + i)
    used: set[tuple[int, int]] = set()
    copies = []
    for _ in range(8 * n):
        a, b, c = sorted(rng.sample(range(n), 3))
        edges = ((a, b), (a, c), (b, c))
        if not any(e in used for e in edges):
            used.update(edges)
            copies.append([a, b, c])
    return {"n": n, "pattern": K3.to_json_dict(), "copies": copies}


def _draw(rng, menu, strata: int, fixed_top: int = 0) -> list:
    """One entry per stratum of the menu: a random one, or the middle one in
    the ``fixed_top`` last strata.  The whole menu when rng is None."""
    menu = list(menu)
    if rng is None:
        return menu
    bounds = [round(i * len(menu) / strata) for i in range(strata + 1)]
    return [rng.choice(menu[lo:hi]) if k < strata - fixed_top else menu[(lo + hi) // 2]
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


# --- job lists ---

def build_jobs(workload: str, seed, pool: dict, host_dir: Path) -> list[Job]:
    """The job list of one pass, drawn with ``seed``, in a seeded order;
    writes the files the commands read into ``host_dir``.  Job ids follow
    menu order, smallest inputs first.  With seed None it lists every job
    any seed can draw."""
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    specs: list[tuple[str, str, dict]] = []
    if workload == "certify":
        for t in (3, 4, 5):
            for n in _draw(rng, KT_MENU, KT_STRATA):
                specs.append(("kt_packing", f"kt n={n} t={t} G=k3",
                              {"n": n, "t": t, "forbidden": "k3"}))
        for n in _draw(rng, K4_MENU, K4_STRATA):
            specs.append(("k4_scan", f"kt n={n} t=3 G=k4",
                          {"n": n, "t": 3, "forbidden": "k4"}))
        for m in _draw(rng, C5_MENU, C5_STRATA):
            specs.append(("c5_blowup", f"c5blowup m={m}", {"m": m}))
        for q in (1, 2):
            for n in _draw(rng, GADGET_MENU, GADGET_STRATA):
                specs.append(("gadget", f"gadget n={n} q={q}", {"n": n, "q": q}))
        for (n, i) in _draw(rng, GREEDY_MENU, GREEDY_STRATA):
            path = host_dir / f"greedy-{n}-{i}.json"
            path.write_text(canonical_json(greedy_triangle_packing(n, i)))
            specs.append(("greedy_fail", f"greedy n={n} i={i}", {"path": str(path)}))
        for k in _draw(rng, DENSITY_MENU, DENSITY_STRATA):
            specs.append(("density_row", f"density k={k}", {"k": k}))
    elif workload == "solve":
        for (f, g, n, budget, sym) in SOLVE_GRID:
            specs.append(("solve_grid", solve_key(f, g, n, budget, sym, None),
                          {"n": n, "pattern": f, "forbidden": g, "budget": budget,
                           "symmetry": sym, "host": None}))
        for (f, g, n), (size, draws) in SOLVE_POOLS.items():
            salts = [solve_host_salt(f, n, i) for i in range(size)]
            hosts = sorted(((random_host(n, salt, 0.3, 0.7), salt) for salt in salts),
                           key=lambda h: (h[0].edge_count(), h[1]))
            for host, salt in _draw(rng, hosts, draws, SOLVE_FIXED_TOP):
                specs.append(("solve_host", solve_key(f, g, n, HOST_BUDGET, False, salt),
                              {"n": n, "pattern": f, "forbidden": g, "budget": HOST_BUDGET,
                               "symmetry": False, "host": host}))
    elif workload == "lp":
        for (host, f) in LP_FIXED:
            specs.append(("lp_fixed", f"lp {host}/{f}",
                          {"path": _write_host(host_dir, host, fixed_lp_host(host)),
                           "pattern": f}))
        for f in LP_PATTERNS:
            for (lo, hi), draws, fixed in zip(LP_BANDS, LP_DRAWS, LP_FIXED_TOP):
                band = sorted((cols, i) for i, pat, cols in pool["lp"]
                              if pat == f and lo <= cols <= hi)
                for _, i in _draw(rng, band, draws, fixed):
                    host, _ = lp_candidate(i)
                    specs.append(("lp_random", f"lp random i={i}",
                                  {"path": _write_host(host_dir, f"r{i}", host),
                                   "pattern": f}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = [Job(i, kind, key, params) for i, (kind, key, params) in enumerate(specs)]
    if rng is not None:
        rng.shuffle(jobs)
    return jobs


def solve_key(f: str, g: str, n: int, budget: int, sym: bool, salt) -> str:
    host = "complete" if salt is None else f"random {salt}"
    return f"solve {f}/{g} n={n} budget={budget} sym={int(sym)} host={host}"


def _write_host(host_dir: Path, name: str, host: SimpleGraph) -> str:
    path = host_dir / f"host-{name}.json"
    path.write_text(host.to_json())
    return str(path)


# --- job bodies: the handler sequences of cli.py ---

def _verify(tr, text: str, forbidden: SimpleGraph, objects: dict) -> Answer:
    """``verify --G <forbidden>`` on a packing's JSON text."""
    tr.count("graphs.bytes", len(text))
    packing = tr.call("graphs.from_json_dict", _decode_packing, text)
    path = "triangle" if forbidden == K3 else "generic"
    witness = tr.call("verifier.find_rainbow", find_rainbow, packing, forbidden, tag=path)
    tr.count(f"verifier.scans.{path}", 1)
    if path == "triangle":
        tr.count("verifier.rainbow_edges", len(packing.edge_color))
    payload: dict = {}
    audit = None
    if witness is None:
        payload["verdict"] = "PASS"
        pattern = packing.pattern
        if (pattern.n == 5 and pattern.edge_count() == 5
                and all(d == 2 for d in pattern.degrees()) and path == "triangle"):
            audit = tr.call("verifier.pentagon_audit", pentagon_audit, packing)
            payload["audit"] = audit.to_json_dict()
    else:
        tr.count("verifier.witnesses", 1)
        payload["verdict"] = "FAIL"
        payload["witness"] = witness.to_json_dict()
    out = tr.call("graphs.canonical_json", canonical_json, payload)
    tr.count("graphs.bytes", len(out))
    objects.update(packing=packing, witness=witness, audit=audit, forbidden=forbidden)
    return Answer(True, out, objects)


def _decode_packing(text: str) -> ColoredPacking:
    return ColoredPacking.from_json_dict(json.loads(text))


def _decode_graph(text: str) -> SimpleGraph:
    return SimpleGraph.from_json_dict(json.loads(text))


def _behrend(tr, n: int, q: int):
    qset = tr.call("gadgets.behrend_q_free", behrend_q_free, n, q)
    size = len(qset)
    tr.count("gadgets.pairs_scanned", size * max(0, size - 1) * q * q)
    return qset


def run_kt(tr, n: int, t: int, forbidden: str) -> Answer:
    """``construct --family kt --n n --t t | verify --G forbidden``."""
    qset = _behrend(tr, n, t - 2)
    packing = tr.call("constructions.kt_packing", kt_packing, n, t, qset)
    tr.count("constructions.copies", len(packing))
    text = tr.call("graphs.to_json", packing.to_json)
    tr.count("graphs.bytes", len(text))
    return _verify(tr, text, GRAPHS[forbidden], {"qset": qset, "text": text})


def run_c5(tr, m: int) -> Answer:
    """``construct --family c5blowup --m m | verify``."""
    packing = tr.call("constructions.c5_blowup_packing", c5_blowup_packing, m)
    tr.count("constructions.copies", len(packing))
    text = tr.call("graphs.to_json", packing.to_json)
    tr.count("graphs.bytes", len(text))
    return _verify(tr, text, K3, {"text": text, "m": m})


def run_gadget(tr, n: int, q: int) -> Answer:
    """``gadget --n n --q q``."""
    qset = _behrend(tr, n, q)
    payload = {"n": n, "q": q, "size": len(qset), "elements": list(qset.elements),
               "certified": True}
    out = tr.call("graphs.canonical_json", canonical_json, payload)
    tr.count("graphs.bytes", len(out))
    return Answer(True, out, {"qset": qset})


def run_greedy(tr, path: str) -> Answer:
    """``verify --G k3 --in path`` on a greedy packing (exits early with a witness)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _verify(tr, text, K3, {"text": text})


def run_density(tr, k: int) -> Answer:
    """One row of ``report --densities``."""
    _, best = tr.call("optimizer.maximize_density", maximize_density, k)
    ref = tr.call("optimizer.density", density, reference_triple(k))
    row = {"k": k, "referenceDensity": ref, "maximizedDensity": best,
           "decompositionCoeff": c5_decomposition_coeff(k),
           "upperBoundCoeff": upper_bound_coeff(k)}
    return Answer(True, "", row)


def run_solve(tr, n: int, pattern: str, forbidden: str, budget: int,
              symmetry: bool, host) -> Answer:
    """``solve --n n --F pattern --G forbidden --budget budget``; a random
    host is passed as ``SearchConfig.host`` (the library-only path)."""
    cfg = SearchConfig(n=n, pattern=GRAPHS[pattern], forbidden=GRAPHS[forbidden],
                       host=host, node_budget=budget, symmetry_breaking=symmetry)
    path = ("packing" if cfg.forbidden is None
            else "triangle" if cfg.forbidden == K3 else "generic")
    res = tr.call("solver.max_rainbow_free_packing", max_rainbow_free_packing, cfg,
                  tag=path)
    tr.count("solver.nodes", res.nodes)
    tr.count(f"solver.nodes.{path}", res.nodes)
    tr.count("solver.optimal", int(res.optimal))
    payload = {"value": res.value, "optimal": res.optimal, "nodes": res.nodes,
               "packing": res.packing.to_json_dict()}
    out = tr.call("graphs.canonical_json", canonical_json, payload)
    tr.count("graphs.bytes", len(out))
    return Answer(res.optimal, out, {"result": res, "cfg": cfg})


def run_lp(tr, path: str, pattern: str) -> Answer:
    """``lp --host json:path --pattern pattern``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    tr.count("graphs.bytes", len(text))
    host = tr.call("graphs.from_json_dict", _decode_graph, text)
    value, problem = tr.call("lp.lp_fractional_packing", lp_fractional_packing,
                             host, GRAPHS[pattern])
    tr.count("lp.columns", len(problem.copy_list))
    tr.count("lp.cells", len(problem.copy_list) * host.edge_count())
    payload = {"nuStar": f"{value.numerator}/{value.denominator}",
               "weights": [f"{w.numerator}/{w.denominator}" for w in problem.weights]}
    out = tr.call("graphs.canonical_json", canonical_json, payload)
    tr.count("graphs.bytes", len(out))
    return Answer(True, out, {"value": value, "problem": problem, "host": host})


RUNNERS = {
    "kt_packing": run_kt,
    "k4_scan": run_kt,
    "c5_blowup": run_c5,
    "gadget": run_gadget,
    "greedy_fail": run_greedy,
    "density_row": run_density,
    "solve_grid": run_solve,
    "solve_host": run_solve,
    "lp_fixed": run_lp,
    "lp_random": run_lp,
}
