"""Independent brute-force reference implementations.

Everything here is deliberately written against the raw edge relation
only, using routes different from the library's own (explicit pair
dictionaries instead of bitsets, subset recursion instead of
branch-and-bound), so agreement is meaningful.  Two names are the
exception: `canonical_code` and `all_extension_codes` label through the
library's encoder `_code`, which the brute-force oracles check.  The
helpers at the end are tests' own: the package has no caller for them.
"""

from __future__ import annotations

import argparse
from itertools import combinations, permutations, product

from ttpack import cli
from ttpack.designs import BlockDesign
from ttpack.enumeration import _code, enumerate_codes
from ttpack.tournament import (
    Tournament,
    census,
    edge_index,
    is_transitive_on,
    tournament_from_code,
)


def beats(t: Tournament, u: int, v: int) -> bool:
    return bool(t.out[u] >> v & 1)


MAX_CANONICAL_VERTICES = 10


def canonical_code(t: Tournament) -> str:
    """Lexicographically minimal serialization over all relabelings, by the library's `_code`."""
    if t.n > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical form capped at n <= {MAX_CANONICAL_VERTICES}")
    return _code(t.out)


def brute_force_canonical_code(t: Tournament) -> str:
    """Reference definition of the canonical code: the minimum over all n! relabelings."""
    pairs = list(combinations(range(t.n), 2))
    return min(
        "".join("1" if beats(t, perm[i], perm[j]) else "0" for i, j in pairs)
        for perm in permutations(range(t.n))
    )


def extensions(code: str) -> list[Tournament]:
    """All 2^m one-vertex extensions of the order-m class `code`, by mask.

    The new vertex m beats the old vertices in mask and loses to the rest.
    """
    base = tournament_from_code(code)
    m = base.n
    return [
        Tournament(m + 1, tuple(o if mask >> v & 1 else o | 1 << m for v, o in enumerate(base.out)) + (mask,))
        for mask in range(1 << m)
    ]


def all_extension_codes(codes, m: int) -> set[str]:
    """Canonical codes of every one-vertex extension of the order-m classes `codes`.

    Orderly generation with no filter: all 2^m extensions of each class are
    canonicalized, so starting from {""} at order 1 this yields every class
    of each order.  It labels through the library's encoder `_code`, which
    the other oracles check, so agreement tests which extensions the
    library skips.
    """
    return {canonical_code(t) for code in codes for t in extensions(code)}


def least_key_extensions(code: str) -> list[Tournament]:
    """The extensions of the class `code` whose new vertex has the least key.

    The key of a vertex is (its out-degree, the sum of its out-neighbours'
    out-degrees), both read off the edge relation of the extended
    tournament; every one of the 2^m extensions is built and tested.
    """
    kept = []
    for t in extensions(code):
        beaten = [[w for w in range(t.n) if beats(t, v, w)] for v in range(t.n)]
        keys = [(len(ws), sum(len(beaten[w]) for w in ws)) for ws in beaten]
        if keys[-1] == min(keys):
            kept.append(t)
    return kept


def triangle_counts(t: Tournament) -> tuple[int, int]:
    """(transitive, cyclic) by scanning every vertex triple."""
    trans = cyc = 0
    for x, y, z in combinations(range(t.n), 3):
        wins = beats(t, x, y) + beats(t, y, z) + beats(t, z, x)
        # a 3-cycle has the three edges agreeing around the cycle
        if wins in (0, 3):
            cyc += 1
        else:
            trans += 1
    return trans, cyc


def degree_formula_transitive(t: Tournament) -> int:
    """Transitive triples counted at their unique source vertex."""
    total = 0
    for v in range(t.n):
        d = bin(t.out[v]).count("1")
        total += d * (d - 1) // 2
    return total


def is_transitive_subset(t: Tournament, vertices) -> bool:
    """True when some ordering of the vertices beats everything after it."""
    for order in permutations(vertices):
        if all(
            beats(t, order[i], order[j])
            for i in range(len(order))
            for j in range(i + 1, len(order))
        ):
            return True
    return False


def transitive_copies(t: Tournament, k: int) -> list[frozenset[tuple[int, int]]]:
    """Edge sets (as unordered pairs) of every transitive k-subset."""
    out = []
    for vs in combinations(range(t.n), k):
        if is_transitive_subset(t, vs):
            out.append(frozenset(frozenset(p) for p in combinations(vs, 2)))
    return out


def packing_is_valid(t: Tournament, k: int, copies) -> bool:
    """A packing's copies checked against an explicit set of covered pairs.

    Each copy must be k distinct int (not bool) vertices of t, transitive
    by is_transitive_subset, and no unordered pair may lie in two copies.
    """
    if not 3 <= k <= t.n:
        return False
    covered: set[frozenset[int]] = set()
    for vs in copies:
        if len(vs) != k or any(type(v) is not int or not 0 <= v < t.n for v in vs):
            return False
        if len(set(vs)) != k or not is_transitive_subset(t, vs):
            return False
        pairs = {frozenset(pair) for pair in combinations(vs, 2)}
        if pairs & covered:
            return False
        covered |= pairs
    return True


def edge_mask(n: int, vs) -> int:
    """The bits 1 << edge_index(n, u, w) of the pairs {u, w} among the distinct vertices vs."""
    mask = 0
    for a, u in enumerate(vs):
        for w in vs[a + 1 :]:
            mask |= 1 << edge_index(n, u, w)
    return mask


def scanned_copies(t: Tournament, k: int) -> list[tuple[tuple[int, ...], int]]:
    """(vertices, edge mask) of every transitive k-subset, by scanning all C(n, k) subsets.

    The subsets come out of `combinations` in lexicographic order, and each
    mask is `edge_mask`, or-ed together from `edge_index` pair by pair.
    """
    return [(vs, edge_mask(t.n, vs)) for vs in combinations(range(t.n), k) if is_transitive_on(t, vs)]


def brute_max_packing(t: Tournament, k: int) -> int:
    """Maximum number of pairwise edge-disjoint transitive k-subsets.

    Plain exhaustive recursion, no pruning. Only viable for tiny n.
    """
    copies = transitive_copies(t, k)

    def grow(start: int, used: frozenset) -> int:
        best = 0
        for i in range(start, len(copies)):
            if copies[i] & used:
                continue
            best = max(best, 1 + grow(i + 1, used | copies[i]))
        return best

    return grow(0, frozenset())


def least_fit(t: Tournament, table) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(least, lines) of t on a table of entries, each a tuple of lines, read one class at a time.

    Every line is marked transitive or not by is_transitive_subset; least
    is the fewest non-transitive lines on any entry, and lines are the
    transitive lines of the first entry with least of them, in its order.
    It stops at the first entry with none.
    """
    transitive: dict[tuple[int, ...], bool] = {}
    marked = []
    for lines in table:
        for line in lines:
            if line not in transitive:
                transitive[line] = is_transitive_subset(t, line)
        marked.append(tuple(line for line in lines if transitive[line]))
        if len(marked[-1]) == len(lines):
            break
    fits = [len(lines) - len(kept) for lines, kept in zip(table, marked)]
    least = min(fits)
    return least, marked[fits.index(least)]


def edge_disjoint_families(n: int, k: int) -> dict[int, set[frozenset[tuple[int, ...]]]]:
    """Every family of pairwise edge-disjoint k-subsets of 0..n-1, by family size.

    Subset recursion over the k-subsets in lexicographic order, each
    family grown only by later subsets, with its covered pairs kept as an
    explicit set; the empty family has size 0.
    """
    subsets = [(vs, frozenset(combinations(vs, 2))) for vs in combinations(range(n), k)]
    families: dict[int, set[frozenset[tuple[int, ...]]]] = {}

    def grow(start: int, family: tuple, covered: frozenset) -> None:
        families.setdefault(len(family), set()).add(frozenset(family))
        for i in range(start, len(subsets)):
            vs, pairs = subsets[i]
            if covered.isdisjoint(pairs):
                grow(i + 1, (*family, vs), covered | pairs)

    grow(0, (), frozenset())
    return families


def brute_induced_average(t: Tournament, m: int):
    """Exact average of transitive-triple counts over all induced m-subsets."""
    from fractions import Fraction
    from math import comb

    total = 0
    for vs in combinations(range(t.n), m):
        sub_trans, _ = triangle_counts_on(t, vs)
        total += sub_trans
    return Fraction(total, comb(t.n, m))


def triangle_counts_on(t: Tournament, vertices) -> tuple[int, int]:
    trans = cyc = 0
    for x, y, z in combinations(vertices, 3):
        wins = beats(t, x, y) + beats(t, y, z) + beats(t, z, x)
        if wins in (0, 3):
            cyc += 1
        else:
            trans += 1
    return trans, cyc


def all_triple_systems(v: int) -> list[frozenset]:
    """Every pairwise-balanced triple system on v points, by exact cover.

    Always extends the lexicographically first uncovered pair, so each
    system is produced exactly once.
    """
    pairs = list(combinations(range(v), 2))
    triples = list(combinations(range(v), 3))
    by_pair = {p: [s for s in triples if set(p) <= set(s)] for p in pairs}
    found = []

    def extend(covered: set, blocks: list) -> None:
        missing = next((p for p in pairs if p not in covered), None)
        if missing is None:
            found.append(frozenset(blocks))
            return
        for block in by_pair[missing]:
            block_pairs = list(combinations(block, 2))
            if any(p in covered for p in block_pairs):
                continue
            covered.update(block_pairs)
            blocks.append(block)
            extend(covered, blocks)
            blocks.pop()
            covered.difference_update(block_pairs)

    extend(set(), [])
    return found


def transitive_sts_search(t: Tournament) -> frozenset | None:
    """A triple system on the host's points with every block transitive, or None.

    Exhaustive over every system that `all_triple_systems` finds, so a
    None answer is definitive.
    """
    for blocks in all_triple_systems(t.n):
        if all(is_transitive_subset(t, block) for block in blocks):
            return blocks
    return None


def _score_sorted_order_and_perms(t: Tournament):
    """The vertices sorted by out-degree, and every out-degree-preserving permutation.

    Each permutation is a list `perm` with `perm[v]` the image of v.
    Automorphisms and isomorphisms preserve out-degrees, so these
    permutations contain every automorphism, and relabeling by them
    reaches every ordering of the vertices with non-increasing out-degree.
    """
    degree = [sum(beats(t, v, u) for u in range(t.n) if u != v) for v in range(t.n)]
    groups = [
        [v for v in range(t.n) if degree[v] == d]
        for d in sorted(set(degree), reverse=True)
    ]
    order = [v for g in groups for v in g]
    perms = []
    for images in product(*(permutations(g) for g in groups)):
        perm = [0] * t.n
        for v, w in zip(order, (w for image in images for w in image)):
            perm[v] = w
        perms.append(perm)
    return order, perms


def oracle_canonical_code(t: Tournament) -> str:
    """Minimum upper-triangle code over the orderings by non-increasing out-degree.

    Isomorphic tournaments have the same set of such orderings up to
    relabeling, so the code is equal exactly when they are isomorphic.
    """
    order, perms = _score_sorted_order_and_perms(t)
    pairs = list(combinations(range(t.n), 2))
    return min(
        "".join("1" if beats(t, perm[order[i]], perm[order[j]]) else "0" for i, j in pairs)
        for perm in perms
    )


def automorphism_count(t: Tournament) -> int:
    """|Aut(t)|: out-degree-preserving permutations that keep every edge."""
    _, perms = _score_sorted_order_and_perms(t)
    pairs = list(combinations(range(t.n), 2))
    return sum(
        all(beats(t, perm[u], perm[v]) == beats(t, u, v) for u, v in pairs)
        for perm in perms
    )


def labeled_count_with_out_degrees(degrees) -> int:
    """Number of tournaments on vertices 0..n-1 where vertex v has out-degree degrees[v].

    Orients the pairs one at a time in row-major order, pruning a branch
    as soon as some vertex needs more wins than it has undecided pairs
    left, or has gone over its out-degree.
    """
    n = len(degrees)
    pairs = list(combinations(range(n), 2))
    need = list(degrees)
    left = [n - 1] * n  # undecided pairs at each vertex

    def orient(i: int) -> int:
        if i == len(pairs):
            return 1
        u, v = pairs[i]
        left[u] -= 1
        left[v] -= 1
        total = 0
        for winner in (u, v):
            need[winner] -= 1
            if need[winner] >= 0 and need[u] <= left[u] and need[v] <= left[v]:
                total += orient(i + 1)
            need[winner] += 1
        left[u] += 1
        left[v] += 1
        return total

    return orient(0)


def labeled_count_with_score(score) -> int:
    """Number of labeled tournaments whose sorted out-degrees are `score`.

    The count for one out-degree vector does not change when the vertices
    are relabeled, so it is the same for every arrangement of the score.
    """
    return labeled_count_with_out_degrees(score) * len(set(permutations(score)))


def reverse(t: Tournament) -> Tournament:
    """Flip every edge; the triple census is invariant, scores complement."""
    full = (1 << t.n) - 1
    return Tournament(t.n, tuple(full & ~m & ~(1 << v) for v, m in enumerate(t.out)))


# Hard cap for the exponential max-transitive-subset search.
MAX_TRANSITIVE_SEARCH_VERTICES = 24


def max_transitive_subset(t: Tournament) -> tuple[int, ...]:
    """A largest vertex subset inducing a transitive subtournament.

    Branch and bound over dominance chains: a transitive subset is a chain
    v1 -> v2 -> ... with every later vertex beaten by all earlier ones, so
    the candidate pool shrinks to `cand & out[v]` at each step.  Memoized on
    the candidate pool; pruned by the pool size.
    """
    if t.n > MAX_TRANSITIVE_SEARCH_VERTICES:
        raise ValueError(
            f"max_transitive_subset capped at n <= {MAX_TRANSITIVE_SEARCH_VERTICES}"
        )
    out = t.out
    memo: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}

    def longest(cand: int) -> tuple[int, tuple[int, ...]]:
        hit = memo.get(cand)
        if hit is not None:
            return hit
        best_len, best_chain = 0, ()
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            sub_len, sub_chain = longest(cand & out[v])
            if 1 + sub_len > best_len:
                best_len, best_chain = 1 + sub_len, (v,) + sub_chain
        memo[cand] = (best_len, best_chain)
        return best_len, best_chain

    _, chain = longest((1 << t.n) - 1)
    return tuple(sorted(chain))


def sts_triangle_count(t: Tournament, d: BlockDesign) -> int:
    """Number of blocks inducing a directed triangle; the rest pack as triples."""
    if d.block_size != 3:
        raise ValueError(f"triple system required, got block size {d.block_size}")
    if t.n != d.point_count:
        raise ValueError(f"host has {t.n} vertices, design has {d.point_count} points")
    return sum(not is_transitive_on(t, block) for block in d.blocks)


def scores_with_triangle_count(
    n: int, t: int, cache_dir: str | None = None
) -> set[tuple[int, ...]]:
    """Score sequences realized by at least one class with exactly t directed triangles."""
    return {
        rep.score()
        for rep in enumerate_nonisomorphic(n, cache_dir)
        if census(rep).t == t
    }


def enumerate_nonisomorphic(n: int, cache_dir: str | None = None) -> list[Tournament]:
    """One representative per isomorphism class, in sorted code order."""
    return [tournament_from_code(code) for code in enumerate_codes(n, cache_dir)]


class EagerParser(argparse.ArgumentParser):
    """ttpack.cli's subcommand parser, built and filled when it is added.

    Every parser is built up front, as argparse does by default, so its
    help, usage and errors are the reference for the deferred ones.
    """

    def __init__(self, fill, **kwargs):
        super().__init__(**kwargs)
        fill(self)


def eager_main(argv: list[str]) -> int:
    """ttpack.cli.main(argv) with every subcommand's parser built up front."""
    deferred = cli._Deferred
    cli._Deferred = EagerParser
    try:
        return cli.main(argv)
    finally:
        cli._Deferred = deferred
