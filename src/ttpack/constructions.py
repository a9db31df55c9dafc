"""Extremal tournament generators.

Three families: a balanced 3-class construction whose cross-class triples
are all directed triangles (upper bound for the minimum triple-packing
number), the rotational 7-vertex tournament with out-neighbor offsets
{1,2,4} (the unique 7-vertex tournament without a transitive 4-subset),
and vertex blow-ups that replicate a base orientation across classes.
"""

from __future__ import annotations

from itertools import combinations

from .rng import coin
from .tournament import MAX_VERTICES, Tournament, edge_index, is_transitive_on

__all__ = [
    "blowup",
    "intra_class_edge_bound",
    "qr7",
    "turan3_class_sizes",
    "turan3_tournament",
]

QR7_OFFSETS = (1, 2, 4)

FILLERS = ("transitive", "random")


def intra_class_edge_bound(n: int) -> int:
    """ceil(n(n-1)/6 - n/3), the intra-class edge count of the 3-class construction."""
    return -(-n * (n - 3) // 6)


def turan3_class_sizes(n: int) -> tuple[int, int, int]:
    """Near-equal split with the first class largest: sizes differ by at most 1."""
    return ((n + 2) // 3, (n + 1) // 3, n // 3)


def _fill_intra(n: int, members: list[int], filler: str, seed: int, out: list[int]) -> None:
    for u, v in combinations(members, 2):
        if filler == "transitive" or coin(seed, edge_index(n, u, v)):
            out[u] |= 1 << v
        else:
            out[v] |= 1 << u


def turan3_tournament(n: int, filler: str = "transitive", seed: int = 0) -> Tournament:
    """Balanced 3-class tournament whose classes beat each other cyclically.

    Every edge between distinct classes points from class i to class i+1
    (mod 3), so each triple meeting all three classes is a directed
    triangle; any other cross orientation would leave transitive triples
    spanning three classes and lose the packing upper bound, which is why
    this orientation is fixed rather than configurable.  Edges inside a
    class follow the filler rule ("transitive" by ascending index, or
    "random" seeded per pair).  The number of intra-class edges equals
    intra_class_edge_bound(n), and that count caps the triple-packing
    number because every transitive triple must use an intra-class edge.
    """
    if not 3 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be between 3 and {MAX_VERTICES}, got {n}")
    if filler not in FILLERS:
        raise ValueError(f"unknown filler {filler!r}, expected one of {FILLERS}")
    sizes = turan3_class_sizes(n)
    cls = [0] * n
    start = 0
    for i, s in enumerate(sizes):
        for v in range(start, start + s):
            cls[v] = i
        start += s
    out = [0] * n
    for u in range(n):
        for v in range(n):
            if cls[v] - cls[u] in (1, -2):
                out[u] |= 1 << v
    for i in range(3):
        _fill_intra(n, [v for v in range(n) if cls[v] == i], filler, seed, out)
    t = Tournament(n, tuple(out))
    for a, b, c in combinations(range(n), 3):
        if cls[a] != cls[b] != cls[c] != cls[a]:
            # one vertex per class: must be a 3-cycle
            if is_transitive_on(t, (a, b, c)):
                raise AssertionError(
                    f"turan3 self-check failed: cross-class triple {(a, b, c)} is transitive"
                )
    return t


def qr7() -> Tournament:
    """Rotational tournament on 7 vertices: i beats i+1, i+2, i+4 (mod 7)."""
    out = [0] * 7
    for i in range(7):
        for d in QR7_OFFSETS:
            out[i] |= 1 << ((i + d) % 7)
    return Tournament(7, tuple(out))


def blowup(base: Tournament, factor: int, filler: str = "transitive", seed: int = 0) -> Tournament:
    """Replace each base vertex by a class of `factor` vertices.

    Vertex (v, i) maps to v*factor + i.  Edges between distinct classes
    copy the base orientation; edges inside a class follow the filler
    rule.  When the base has no transitive 4-subset and the result is
    small enough to scan, the defining consequence is asserted: every
    transitive 4-subset of the blow-up keeps two vertices in one class,
    hence uses an intra-class edge.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if filler not in FILLERS:
        raise ValueError(f"unknown filler {filler!r}, expected one of {FILLERS}")
    n = base.n * factor
    if n > MAX_VERTICES:
        raise ValueError(f"blow-up has {n} vertices, limit is {MAX_VERTICES}")
    out = [0] * n
    for u in range(base.n):
        for v in range(base.n):
            if base.has_edge(u, v):
                row = ((1 << factor) - 1) << (v * factor)
                for i in range(factor):
                    out[u * factor + i] |= row
    for v in range(base.n):
        members = list(range(v * factor, (v + 1) * factor))
        _fill_intra(n, members, filler, seed, out)
    t = Tournament(n, tuple(out))
    base_quads = combinations(range(base.n), 4)
    if n <= 20 and not any(is_transitive_on(base, vs) for vs in base_quads):
        for vs in combinations(range(n), 4):
            if len({v // factor for v in vs}) == 4 and is_transitive_on(t, vs):
                raise AssertionError(
                    f"blowup self-check failed: {vs} is a transitive quad across four classes"
                )
    return t
