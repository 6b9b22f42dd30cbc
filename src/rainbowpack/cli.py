"""Command line interface.

Subcommands: construct, verify, solve, optimize, gadget, lp, report.
JSON payloads are canonical (sorted keys, no whitespace), so identical
argv produces identical stdout bytes.  The optional --cert file carries
the full envelope with tool version, argv echo, and elapsed milliseconds;
timing lives only there, never in the payload.  CSV sweeps are the one
exception: their millis column is wall-clock by design.

Exit codes: 0 success or PASS, 2 verify found a witness, 1 usage or
guard errors, or a search that ran out of stack or memory (printed as
``error: ...``, never as a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .constructions import (UnbalancedBlowupShape, c5_blowup_packing,
                            k5_double_pentagon, kt_packing, unbalanced_blowup)
from .errors import GuardError, PackingError
from .gadgets import behrend_q_free
from .graphs import ColoredPacking, SimpleGraph, canonical_json
from .lp import _LP_EDGE_LIMIT, lp_fractional_packing
from .optimizer import (c5_decomposition_coeff, density, maximize_density,
                        reference_triple, solve_abg, upper_bound_coeff)
from .solver import SearchConfig, max_rainbow_free_packing
from .verifier import find_rainbow, pentagon_audit

_TRIANGLE = SimpleGraph.complete(3)


def parse_graph(spec: str) -> SimpleGraph:
    """Accepts k<N>, c<N>, edge, petersen, or json:<path>.

    k<N> and c<N> with more edges than the LP takes are rejected before
    they are built: no command can use them, and K_N grows with N^2.
    """
    s = spec.strip().lower()
    if s == "edge":
        return SimpleGraph.complete(2)
    if s == "petersen":
        return SimpleGraph.petersen()
    if s.startswith("json:"):
        with open(spec[5:], "r", encoding="utf-8") as fh:
            return SimpleGraph.from_json_dict(json.load(fh))
    if s[:1] in ("k", "c") and s[1:].isdigit():
        n = int(s[1:])
        edges = n * (n - 1) // 2 if s[0] == "k" else n
        if edges > _LP_EDGE_LIMIT:
            raise GuardError(f"graph spec {spec!r} has {edges} edges, "
                             f"more than any command takes ({_LP_EDGE_LIMIT})")
        return SimpleGraph.complete(n) if s[0] == "k" else SimpleGraph.cycle(n)
    raise ValueError(f"cannot parse graph spec {spec!r}")


def _parse_range(text: str) -> tuple[int, int]:
    lo_text, _, hi_text = text.partition("..")
    if not hi_text:
        raise ValueError(f"range must look like 3..10, got {text!r}")
    lo, hi = int(lo_text), int(hi_text)
    if lo > hi:
        raise ValueError(f"range {text!r} is empty: {lo} > {hi}")
    return (lo, hi)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        x = float(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cmd_construct(args) -> tuple[str, str, dict]:
    if args.family == "kt":
        if args.n is None or args.t is None:
            raise ValueError("construct --family kt needs --n and --t")
        q = args.q if args.q is not None else args.t - 2
        built = kt_packing(args.n, args.t, behrend_q_free(args.n, q))
    elif args.family == "c5blowup":
        if args.m is None:
            raise ValueError("construct --family c5blowup needs --m")
        built = c5_blowup_packing(args.m)
    elif args.family == "k5":
        built = k5_double_pentagon()
    elif args.family == "unbalanced":
        if None in (args.alpha, args.beta, args.gamma, args.n):
            raise ValueError(
                "construct --family unbalanced needs --alpha --beta --gamma --n")
        shape = UnbalancedBlowupShape(
            Fraction(args.alpha), Fraction(args.beta), Fraction(args.gamma), args.n)
        built = unbalanced_blowup(shape)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    payload = built.to_json_dict()
    return (canonical_json(payload), "PASS", payload)


def _cmd_verify(args) -> tuple[str, str, dict]:
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = sys.stdin.read()
    packing = ColoredPacking.from_json_dict(json.loads(raw))
    forbidden = parse_graph(args.forbidden)
    witness = find_rainbow(packing, forbidden)
    payload: dict = {}
    if witness is None:
        payload["verdict"] = "PASS"
        if packing.pattern.is_cycle(5) and forbidden.is_cycle(3):
            payload["audit"] = pentagon_audit(packing).to_json_dict()
    else:
        payload["verdict"] = "FAIL"
        payload["witness"] = witness.to_json_dict()
    verdict = payload["verdict"]
    return (canonical_json(payload), verdict, payload)


def _solve_once(n: int, pattern: SimpleGraph, forbidden, args):
    cfg = SearchConfig(
        n=n, pattern=pattern, forbidden=forbidden,
        node_budget=args.budget, symmetry_breaking=not args.no_symmetry)
    return max_rainbow_free_packing(cfg)


def _cmd_solve(args) -> tuple[str, str, dict]:
    pattern = parse_graph(args.pattern)
    forbidden = None if args.forbidden == "none" else parse_graph(args.forbidden)
    if args.sweep:
        lo, hi = _parse_range(args.sweep)
        lines = ["n,value,optimal,nodes,millis"]
        for n in range(lo, hi + 1):
            t0 = time.perf_counter()
            res = _solve_once(n, pattern, forbidden, args)
            millis = (time.perf_counter() - t0) * 1000.0
            lines.append(f"{n},{res.value},{str(res.optimal).lower()},"
                         f"{res.nodes},{millis:.3f}")
        text = "\n".join(lines) + "\n"
        return (text, "PASS", {"rows": len(lines) - 1})
    if args.n is None:
        raise ValueError("solve needs --n or --sweep")
    res = _solve_once(args.n, pattern, forbidden, args)
    payload = {
        "value": res.value,
        "optimal": res.optimal,
        "nodes": res.nodes,
        "packing": res.packing.to_json_dict(),
    }
    return (canonical_json(payload), "PASS" if res.optimal else "LOWER_BOUND", payload)


_OPT_HEADER = ("k,lambda,mu,delta,alpha,beta,gamma,density,"
               "referenceDensity,upperBoundCoeff")


def _optimize_row(k: int) -> str:
    w, best = maximize_density(k)
    shape = solve_abg(w)
    lam, mu, delta = w.exact()
    ref = density(reference_triple(k)) if k >= 3 else ""
    cells = [str(k), _fmt(lam), _fmt(mu), _fmt(delta),
             _fmt(shape.alpha), _fmt(shape.beta), _fmt(shape.gamma),
             _fmt(best), _fmt(ref) if ref != "" else "",
             _fmt(upper_bound_coeff(k))]
    return ",".join(cells)


def _cmd_optimize(args) -> tuple[str, str, dict]:
    if args.sweep:
        lo, hi = _parse_range(args.sweep)
        ks = list(range(lo, hi + 1))
    elif args.k is not None:
        ks = [args.k]
    else:
        raise ValueError("optimize needs --k or --sweep")
    lines = [_OPT_HEADER] + [_optimize_row(k) for k in ks]
    text = "\n".join(lines) + "\n"
    return (text, "PASS", {"rows": len(ks)})


def _cmd_gadget(args) -> tuple[str, str, dict]:
    qset = behrend_q_free(args.n, args.q)
    payload = {
        "n": args.n,
        "q": args.q,
        "size": len(qset),
        "elements": list(qset.elements),
        "certified": True,
    }
    return (canonical_json(payload), "PASS", payload)


def _cmd_lp(args) -> tuple[str, str, dict]:
    host = parse_graph(args.host)
    pattern = parse_graph(args.pattern)
    value, problem = lp_fractional_packing(host, pattern)
    payload = {
        "nuStar": _frac_str(value),
        "weights": [_frac_str(w) for w in problem.weights],
        "duals": [_frac_str(y) for y in problem.duals],
    }
    return (canonical_json(payload), "PASS", payload)


def _cmd_report(args) -> tuple[str, str, dict]:
    lines: list[str]
    if args.densities:
        lo, hi = _parse_range(args.densities)
        lines = ["k,referenceDensity,maximizedDensity,impliedCoeff,"
                 "decompositionCoeff,upperBoundCoeff"]
        for k in range(lo, hi + 1):
            _, best = maximize_density(k)
            ref = density(reference_triple(k)) if k >= 3 else float("nan")
            implied = best / (2 * k + 1)
            lines.append(",".join([
                str(k), _fmt(ref), _fmt(best), _fmt(implied),
                _fmt(c5_decomposition_coeff(k)), _fmt(upper_bound_coeff(k))]))
    elif args.gadget_sizes:
        ns = [int(x) for x in args.gadget_sizes.split(",")]
        lines = ["n,q,size,certified"]
        for n in ns:
            qset = behrend_q_free(n, args.q)
            lines.append(f"{n},{args.q},{len(qset)},true")
    elif args.upper_bounds:
        lo, hi = _parse_range(args.upper_bounds)
        lines = ["k,upperBoundCoeff,upperBoundCoeffFloat"]
        for k in range(lo, hi + 1):
            coeff = upper_bound_coeff(k)
            lines.append(f"{k},{_frac_str(coeff)},{_fmt(coeff)}")
    elif args.pentagon:
        lo, hi = _parse_range(args.pentagon)
        lines = ["n,value,optimal,balancedSquare"]
        for n in range(lo, hi + 1):
            cfg = SearchConfig(n=n, pattern=SimpleGraph.cycle(5), forbidden=_TRIANGLE)
            res = max_rainbow_free_packing(cfg)
            lines.append(f"{n},{res.value},{str(res.optimal).lower()},"
                         f"{_fmt((n / 5.0) ** 2)}")
    else:
        raise ValueError("report needs one of --densities, --gadget-sizes, "
                         "--upper-bounds, --pentagon")
    text = "\n".join(lines) + "\n"
    return (text, "PASS", {"rows": len(lines) - 1})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rainbowpack", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--out", help="write payload here instead of stdout")
        sp.add_argument("--cert", help="write full certificate envelope here")

    sp = sub.add_parser("construct", help="build a packing or host graph")
    sp.add_argument("--family", required=True,
                    choices=["kt", "c5blowup", "k5", "unbalanced"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--alpha")
    sp.add_argument("--beta")
    sp.add_argument("--gamma")
    common(sp)

    sp = sub.add_parser("verify", help="scan a packing for a rainbow copy")
    sp.add_argument("--G", dest="forbidden", default="k3")
    sp.add_argument("--in", dest="infile", help="packing JSON (default stdin)")
    common(sp)

    sp = sub.add_parser("solve", help="exact maximum rainbow-free packing")
    sp.add_argument("--n", type=int)
    sp.add_argument("--F", dest="pattern", default="k3")
    sp.add_argument("--G", dest="forbidden", default="k3")
    sp.add_argument("--budget", type=int, default=10_000_000,
                    help="search nodes")
    sp.add_argument("--no-symmetry", action="store_true",
                    help="turn off all three symmetry-breaking steps: search "
                         "every first copy, not only copy 0; every second copy, "
                         "not only the orbit-minimal ones; and every later copy, "
                         "with no untouched-vertex skips")
    sp.add_argument("--sweep", help="n range like 4..7, emits CSV")
    common(sp)

    sp = sub.add_parser("optimize", help="weight triple search, CSV output")
    sp.add_argument("--k", type=int)
    sp.add_argument("--sweep", help="k range like 3..10")
    common(sp)

    sp = sub.add_parser("gadget", help="certified progression-free set")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, default=1)
    common(sp)

    sp = sub.add_parser("lp", help="exact fractional packing optimum")
    sp.add_argument("--host", required=True, help="graph spec or JSON path")
    sp.add_argument("--pattern", default="c5")
    common(sp)

    sp = sub.add_parser("report", help="summary tables, CSV output")
    sp.add_argument("--densities", help="k range like 3..10")
    sp.add_argument("--gadget-sizes", dest="gadget_sizes",
                    help="comma list of n values")
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--upper-bounds", dest="upper_bounds", help="k range")
    sp.add_argument("--pentagon", help="n range for the exact solver")
    common(sp)
    return p


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "optimize": _cmd_optimize,
    "gadget": _cmd_gadget,
    "lp": _cmd_lp,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        text, verdict, payload = _HANDLERS[args.cmd](args)
    except (ValueError, PackingError, GuardError, OSError,
            RecursionError, MemoryError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.cert:
        envelope = {
            "verdict": verdict, "payload": payload, "version": __version__,
            "command": list(sys.argv[1:]) if argv is None else list(argv),
            "elapsed_ms": (time.perf_counter() - started) * 1000.0}
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(envelope, sort_keys=True) + "\n")
    return 2 if verdict == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
