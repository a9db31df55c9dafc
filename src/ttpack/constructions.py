"""Extremal tournament generators.

Three families: a balanced 3-class construction whose cross-class triples
are all directed triangles (upper bound for the minimum triple-packing
number), the rotational 7-vertex tournament with out-neighbor offsets
{1,2,4} (the unique 7-vertex tournament without a transitive 4-subset),
and vertex blow-ups that replicate a base orientation across classes.
The 3-class construction is itself the blow-up of the directed triangle,
so it and blowup share one builder, _blow_up.
"""

from __future__ import annotations

from itertools import accumulate, combinations, product

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


def _blow_up(base: Tournament, sizes: tuple[int, ...], filler: str, seed: int) -> Tournament:
    """Replace base vertex v by a run of sizes[v] consecutive vertices, in base order.

    Edges between distinct classes copy the base orientation.  Edges
    inside a class follow the filler rule: "transitive" by ascending
    index, or "random" by coin(seed, edge_index(n, x, y)) per pair.
    """
    if filler not in FILLERS:
        raise ValueError(f"unknown filler {filler!r}, expected one of {FILLERS}")
    n = sum(sizes)
    starts = tuple(accumulate(sizes, initial=0))
    spans = [((1 << size) - 1) << a for a, size in zip(starts, sizes)]
    out = [0] * n
    for v, (a, b) in enumerate(zip(starts, starts[1:])):
        cross = sum(span for u, span in enumerate(spans) if base.has_edge(v, u))
        for x in range(a, b):
            out[x] |= cross
            for y in range(x + 1, b):
                if filler == "transitive" or coin(seed, edge_index(n, x, y)):
                    out[x] |= 1 << y
                else:
                    out[y] |= 1 << x
    return Tournament(n, tuple(out))


def turan3_tournament(n: int, filler: str = "transitive", seed: int = 0) -> Tournament:
    """Balanced 3-class tournament whose classes beat each other cyclically.

    This is the blow-up of the directed triangle 0 -> 1 -> 2 -> 0 with
    class sizes turan3_class_sizes(n).  Every edge between distinct
    classes points from class i to class i+1 (mod 3), so each triple
    meeting all three classes is a directed triangle; any other cross
    orientation would leave transitive triples spanning three classes
    and lose the packing upper bound, which is why this orientation is
    fixed rather than configurable.  Edges inside a class follow the
    filler rule ("transitive" by ascending index, or "random" seeded per
    pair).  The number of intra-class edges equals
    intra_class_edge_bound(n), and that count caps the triple-packing
    number because every transitive triple must use an intra-class edge.
    """
    if not 3 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be between 3 and {MAX_VERTICES}, got {n}")
    a, b, _ = sizes = turan3_class_sizes(n)
    t = _blow_up(Tournament(3, (0b010, 0b100, 0b001)), sizes, filler, seed)
    # one vertex per class: must be a 3-cycle
    for vs in product(range(a), range(a, a + b), range(a + b, n)):
        if is_transitive_on(t, vs):
            raise AssertionError(f"turan3 self-check failed: cross-class triple {vs} is transitive")
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
    n = base.n * factor
    if n > MAX_VERTICES:
        raise ValueError(f"blow-up has {n} vertices, limit is {MAX_VERTICES}")
    t = _blow_up(base, (factor,) * base.n, filler, seed)
    base_quads = combinations(range(base.n), 4)
    if n <= 20 and not any(is_transitive_on(base, vs) for vs in base_quads):
        for vs in combinations(range(n), 4):
            if len({v // factor for v in vs}) == 4 and is_transitive_on(t, vs):
                raise AssertionError(
                    f"blowup self-check failed: {vs} is a transitive quad across four classes"
                )
    return t
