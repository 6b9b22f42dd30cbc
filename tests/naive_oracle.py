"""The deliberately naive cross-check of the exact solver.

Copies come from plain vertex permutations, packings from full subset
enumeration and rainbow copies from a from-scratch permutation scan.
Nothing here calls the solver's copy walk, the embedding kernel or the
verifier, so the oracle checks that code instead of sharing its bugs.
"""

import itertools

from rainbowpack import ColoredPacking, GuardError, SimpleGraph

ORACLE_N_LIMIT = 12
ORACLE_COPY_LIMIT = 24


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def naive_copies(pattern: SimpleGraph, host: SimpleGraph) -> list[tuple[int, ...]]:
    """Every copy of the pattern in the host, as enumerate_copies lists them.

    Tries every injective vertex tuple in lexicographic order and keeps the
    first, hence smallest, tuple per edge set; sorted by sorted edge list.
    """
    first: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
    for perm in itertools.permutations(range(host.n), pattern.n):
        key = tuple(sorted(_edge(perm[u], perm[v]) for (u, v) in pattern.edges))
        if key not in first and all(e in host.edges for e in key):
            first[key] = perm
    return [first[key] for key in sorted(first)]


def naive_rainbow_scan(n: int, col: dict, forbidden: SimpleGraph) -> bool:
    """Whether some injective map of the forbidden graph lands on edges of
    pairwise distinct colors; col maps (u, v), u < v, to a color."""
    f_edges = forbidden.sorted_edges()
    for perm in itertools.permutations(range(n), forbidden.n):
        colors = []
        for (u, v) in f_edges:
            e = _edge(perm[u], perm[v])
            if e not in col:
                break
            colors.append(col[e])
        else:
            if len(set(colors)) == len(colors):
                return True
    return False


def oracle_max_packing(n: int, pattern: SimpleGraph,
                       forbidden: SimpleGraph | None,
                       host: SimpleGraph | None = None) -> tuple[int, ColoredPacking]:
    """Reference answer by full subset enumeration, guarded to 24 copies.

    Scans subset sizes from largest to smallest in lexicographic order and
    returns the first feasible subset, which is also the lexicographically
    smallest optimal witness.  host=None means K_n.
    """
    if n > ORACLE_N_LIMIT:
        raise GuardError(f"oracle guard: n={n} exceeds {ORACLE_N_LIMIT}")
    if pattern.edge_count() == 0:
        raise ValueError("pattern needs at least one edge")
    copies = naive_copies(pattern, host if host is not None else SimpleGraph.complete(n))
    if len(copies) > ORACLE_COPY_LIMIT:
        raise GuardError(
            f"oracle guard: {len(copies)} copies exceed {ORACLE_COPY_LIMIT}")
    copy_edges = [sorted(_edge(emb[u], emb[v]) for (u, v) in pattern.edges)
                  for emb in copies]
    for r in range(len(copies), 0, -1):
        for combo in itertools.combinations(range(len(copies)), r):
            col: dict[tuple[int, int], int] = {}
            for ci in combo:
                if any(e in col for e in copy_edges[ci]):
                    break
                col.update((e, ci) for e in copy_edges[ci])
            else:
                if forbidden is None or not naive_rainbow_scan(n, col, forbidden):
                    return (r, ColoredPacking(n, pattern, [copies[i] for i in combo]))
    return (0, ColoredPacking(n, pattern, []))
