"""Copy enumeration and edge-disjoint packing of transitive subtournaments.

A "copy" is a k-vertex subset inducing a transitive subtournament of the
host.  A packing is a set of copies whose unordered-pair edge sets are
pairwise disjoint; the packing number is the maximum size of such a set.
The exact solver is a branch-and-bound over edges with greedy completion
at every node: each node branches on the coverable edge with the fewest
live copies through it.  It is deterministic by construction, so node
counts reproduce.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress
from operator import itemgetter
from typing import NamedTuple

from .rng import stdlib_rng
from .tournament import Tournament, edge_index

__all__ = [
    "CopyList",
    "Packing",
    "PackingError",
    "TTCopy",
    "enumerate_copies",
    "greedy_packing",
    "max_packing_exact",
    "verify_packing",
]


class PackingError(ValueError):
    """Raised for out-of-range k and for malformed packing files."""


class TTCopy(NamedTuple):
    """One transitive subtournament copy.

    vertices: the k vertices, ascending.
    edge_mask: bitmask over host unordered-pair indices (see edge_index).
    """

    vertices: tuple[int, ...]
    edge_mask: int


@dataclass(frozen=True)
class CopyList:
    """All TT_k copies of one host, ordered by vertex tuple."""

    n: int
    k: int
    copies: tuple[TTCopy, ...]


@dataclass(frozen=True)
class Packing:
    """An edge-disjoint family of copies plus search metadata.

    copies: the vertex tuples of the packed copies; they alone define the
    packing, and its covered pairs follow from them.
    optimal: True only when the search ran to completion.
    nodes_explored: search nodes the exact solver visited, 0 for other
    constructions.
    """

    n: int
    k: int
    copies: tuple[tuple[int, ...], ...]
    optimal: bool = False
    nodes_explored: int = 0

    @property
    def value(self) -> int:
        return len(self.copies)


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """bits[v][u] is the bit 1 << edge_index(n, u, v) of the pair {u, v}."""
    return tuple(
        tuple(0 if u == v else 1 << edge_index(n, u, v) for u in range(n)) for v in range(n)
    )


def _pair_mask(bits: tuple[tuple[int, ...], ...], vertices: tuple[int, ...]) -> int:
    """Bitset of the pairs inside vertices, from the _pair_bits table of the host's order."""
    mask = 0
    for u, w in combinations(vertices, 2):
        mask |= bits[u][w]
    return mask


def _transitive_chains(
    n: int, out: Sequence[int], k: int, deadline: float | None = None
) -> list[TTCopy]:
    """Every transitive k-subset of the digraph `out`, sorted by vertex tuple.

    A k-subset of a tournament is transitive exactly when it is a dominance
    chain v1 -> v2 -> ... -> vk, each vertex beating every later one; that
    ordering is unique.  So the walk extends a chain by each vertex v of its
    pool, the vertices beaten by every chain vertex, and shrinks the pool to
    `pool & out[v]`.  Each copy is reached once, and a chain is extended only
    while its pool still holds enough vertices, so the cost follows the
    number of transitive subsets of at most k vertices, not C(n, k).  Rows
    of `out` may omit pairs (both directions), which restricts the walk to
    the copies all of whose pairs are kept.  A set deadline is checked at
    every chain of fewer than k - 1 vertices, when the walk ends and after
    the final sort; once it passes, TimeoutError is raised.  The sort is the
    one stretch left unchecked.
    """
    bits = _pair_bits(n)
    found: list[TTCopy] = []
    chain: list[int] = []

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("copy enumeration ran past its deadline")

    def grow(pool: int, mask: int) -> None:
        check_deadline()
        last = len(chain) + 2 == k
        need = k - len(chain) - 1
        m = pool
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            sub = pool & out[v]
            if sub.bit_count() < need:
                continue
            row = bits[v]
            vmask = mask
            for u in chain:
                vmask |= row[u]
            chain.append(v)
            if last:
                # the leaf level: every vertex of sub closes one copy
                while sub:
                    low = sub & -sub
                    sub ^= low
                    w = low.bit_length() - 1
                    row = bits[w]
                    wmask = vmask
                    for u in chain:
                        wmask |= row[u]
                    found.append(TTCopy(tuple(sorted((*chain, w))), wmask))
            else:
                grow(sub, vmask)
            chain.pop()

    grow((1 << n) - 1, 0)
    check_deadline()
    # the vertex tuples are unique, so keying on them keeps the order and
    # skips the generic comparison of TTCopy tuples
    found.sort(key=itemgetter(0))
    check_deadline()
    return found


def enumerate_copies(t: Tournament, k: int, deadline: float | None = None) -> CopyList:
    """List every k-subset inducing a transitive subtournament, in vertex order.

    The copies are walked as dominance chains (see `_transitive_chains`).
    deadline, a time.monotonic() instant, bounds the walk: once it passes,
    TimeoutError is raised.
    """
    if not 3 <= k <= t.n:
        raise PackingError(f"k must satisfy 3 <= k <= n={t.n}, got {k}")
    return CopyList(t.n, k, tuple(_transitive_chains(t.n, t.out, k, deadline)))


@lru_cache(maxsize=None)
def _vertex_edge_masks(n: int) -> tuple[int, ...]:
    """Per vertex, the bitmask of the n-1 unordered-pair indices at it."""
    return tuple(
        sum(1 << edge_index(n, u, v) for u in range(n) if u != v) for v in range(n)
    )


def _leave_bound(coverable: int, n: int, k: int) -> int:
    """Upper bound on how many edge-disjoint copies fit inside `coverable`.

    Soundness.  A copy meets each of its k vertices in exactly k-1 edges.
    So once any family of copies is packed inside `coverable`, the unused
    edges (the leave) have degree d_v - (k-1)*c_v at each vertex v, where
    d_v is the degree of v in `coverable` and c_v counts the copies at v.
    That degree is at least r_v = d_v mod (k-1), so the leave has
    L >= ceil(sum r_v / 2) edges; and L = |coverable| - C(k,2) * copies, so
    L = |coverable| (mod C(k,2)).  For k = 3 with every d_v even, every leave
    degree is even too: a nonempty leave contains a cycle, so L >= 3 once
    |coverable| mod 3 != 0 rules out L = 0.  The least such L gives
    copies <= (|coverable| - L) / C(k,2).  This is the leave argument behind
    Schönheim's bound (1966); it is why K_n with n = 5 (mod 6) packs one
    triangle fewer than floor(C(n,2) / 3).

    Since L >= 0 and 2L >= sum r_v = sum d_v - (k-1) * sum floor(d_v/(k-1)),
    the bound never exceeds floor(|coverable| / C(k,2)) nor
    floor(sum floor(d_v/(k-1)) / k), the edge-count and degree bounds.
    """
    per_copy = k * (k - 1) // 2
    size = coverable.bit_count()
    residue = 0
    for vm in _vertex_edge_masks(n):
        residue += (coverable & vm).bit_count() % (k - 1)
    leave = (residue + 1) // 2
    if k == 3 and residue == 0 and size % 3:
        leave = 3
    # floor division rounds the leave up to the least L = size (mod per_copy)
    return (size - leave) // per_copy


def _copies_through_edges(masks: list[int], n: int, deadline: float | None) -> list[int]:
    """Per unordered pair, the bitset over copy indices of the copies through it.

    Linear in the number of copies: or-ing 1 << c into one growing int per
    pair would copy the whole bitset at every copy.  So each pair's bits are
    set in a bytearray and read once as a little-endian int.  A set deadline
    is checked at every 1,024th copy; once it passes, TimeoutError is raised.
    """
    rows = [bytearray((len(masks) + 7) // 8) for _ in range(n * (n - 1) // 2)]
    for c, m in enumerate(masks):
        if deadline is not None and not c & 1023 and time.monotonic() > deadline:
            raise TimeoutError("copy bitsets ran past their deadline")
        byte, bit = c >> 3, 1 << (c & 7)
        while m:
            low = m & -m
            m ^= low
            rows[low.bit_length() - 1][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def max_packing_exact(
    t: Tournament,
    k: int,
    time_budget: float | None = None,
    *,
    stop_at: int | None = None,
) -> Packing:
    """Maximum edge-disjoint packing by branch-and-bound over edges.

    A node's state is one bitset, `live`, over copy indices: the copies
    still addable.  The node picks the coverable edge e with the fewest
    live copies through it, lowest edge index on ties, and branches on
    each of those copies c in index order, with live & ~conflict(c), plus
    one branch abandoning e, with live & ~edge_copies[e].  conflict(c),
    the copies sharing an edge with c, is the or of edge_copies over the
    C(k,2) edges of c; it is built the first time the search takes c.
    Branching on any coverable edge is complete: the copies through e
    share e, so an optimal packing within the live copies holds at most
    one of them.  If it holds one, it lies in that copy's branch; if none,
    it survives the abandon branch, which drops only the copies through e.
    The fewest copies give the fewest children (Knuth's rule in Dancing
    Links).  A node counts its live copies on its parent's coverable edges
    (every edge at the root); a child's live copies are among its
    parent's, so those edges hold its own.  The nonzero counts mark the
    node's coverable edges, handed on to its children, and give the branch
    edge.  A greedy completion at every node (take the lowest live copy,
    drop its conflict, repeat) moves the incumbent early.  Two admissible
    prunes cut a node whose chosen copies plus an upper bound on the
    copies still addable cannot beat the incumbent:

    - the leave bound of `_leave_bound` on the coverable edges;
    - a hitting set: any edge set meeting every live copy caps the copies
      still addable, since disjoint copies use distinct edges of it.  It
      is built greedily (the edge through the most live copies not yet
      hit, lowest edge index on ties), and prunes only if it ends within
      target = incumbent - chosen edges (target >= 1: the greedy
      completion packed a live copy).  So before each round a counting
      bound asks whether it still can.  With p edges picked and L the
      copies not yet hit, let r be the fewest of the edges' current counts
      of copies in L that, largest first, sum to |L|.  Counts only fall as
      L shrinks, so each later pick hits at most its edge's current count,
      and the greedy set (indeed any hitting set of L) needs at least r
      more edges.  Once p + r > target the set is abandoned: the greedy
      would end above the target, so the node's prune decisions are the
      same as if it ran on.  Its first round reuses the node's counts.

    time_budget (seconds) turns the result into a best-found lower bound
    with optimal=False once exceeded; the deadline is checked while the
    copies are listed and while their per-edge bitsets are built, at every
    node after its greedy completion, and at every round of the hitting
    set that runs.  A budget spent before the bitsets are built returns
    the empty packing; after that, the root's greedy completion counts.
    stop_at aborts as soon as the incumbent reaches the threshold, again
    with optimal=False; callers that only need "value >= stop_at or exact
    value below it" use this.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    n = t.n
    try:
        copies = enumerate_copies(t, k, deadline).copies
        masks = [c.edge_mask for c in copies]
        # edge_copies[e]: bitset over copy indices of the copies through edge e
        edge_copies = _copies_through_edges(masks, n, deadline)
    except TimeoutError:
        return Packing(n=n, k=k, copies=())
    conflicts: list[int | None] = [None] * len(masks)

    best = -1
    best_members: tuple[int, ...] = ()
    nodes = 0
    aborted = False

    def out_of_time() -> bool:
        nonlocal aborted
        if deadline is not None and time.monotonic() > deadline:
            aborted = True
        return aborted

    def conflict(c: int) -> int:
        found = conflicts[c]
        if found is None:
            found = 0
            m = masks[c]
            while m:
                low = m & -m
                m ^= low
                found |= edge_copies[low.bit_length() - 1]
            conflicts[c] = found
        return found

    def dfs(live: int, chosen: list[int], edges: list[int]) -> None:
        nonlocal best, best_members, nodes, aborted
        nodes += 1
        greedy = list(chosen)
        rest = live
        while rest:
            c = (rest & -rest).bit_length() - 1
            greedy.append(c)
            rest &= ~conflict(c)
        if len(greedy) > best:
            best = len(greedy)
            best_members = tuple(greedy)
            if stop_at is not None and best >= stop_at:
                aborted = True
                return
        if out_of_time():
            return
        counts = [(live & edge_copies[e]).bit_count() for e in edges]
        edges = kept = list(compress(edges, counts))
        counts = first = list(filter(None, counts))
        if len(chosen) + _leave_bound(sum(1 << e for e in edges), n, k) <= best:
            return
        # the hitting set, with `spare` = target - p edges left to pick
        spare = best - len(chosen)
        rest = live
        while sum(sorted(counts, reverse=True)[:spare]) >= rest.bit_count():
            rest &= ~edge_copies[kept[counts.index(max(counts))]]
            spare -= 1
            if not rest or out_of_time():
                return
            counts = [(rest & edge_copies[e]).bit_count() for e in kept]
            kept = list(compress(kept, counts))
            counts = list(filter(None, counts))
        through = edge_copies[edges[first.index(min(first))]]
        branch = live & through
        while branch:
            low = branch & -branch
            branch ^= low
            c = low.bit_length() - 1
            chosen.append(c)
            dfs(live & ~conflict(c), chosen, edges)
            chosen.pop()
            if aborted:
                return
        dfs(live & ~through, chosen, edges)

    dfs((1 << len(masks)) - 1, [], list(range(len(edge_copies))))

    return Packing(
        n=n,
        k=k,
        copies=tuple(copies[c].vertices for c in sorted(best_members)),
        optimal=not aborted,
        nodes_explored=nodes,
    )


def greedy_packing(t: Tournament, k: int, seed: int) -> Packing:
    """Maximal packing from a seeded random scan order; never exceeds the optimum."""
    cl = enumerate_copies(t, k)
    order = list(range(len(cl.copies)))
    stdlib_rng(seed).shuffle(order)
    covered = 0
    members = []
    for c in order:
        m = cl.copies[c].edge_mask
        if m & covered == 0:
            covered |= m
            members.append(c)
    members.sort()
    return Packing(n=t.n, k=k, copies=tuple(cl.copies[c].vertices for c in members))


def verify_packing(t: Tournament, p: Packing) -> bool:
    """Check a packing from first principles, independent of solver internals.

    Every copy must have k distinct vertices of the host, each an int (not
    a bool) in range, and induce a transitive subtournament; the copies
    must be pairwise edge-disjoint.  First a bulk screen, in builtins,
    checks every vertex's type and then the least and greatest vertex.
    Then one pass over the copies checks the rest, with one loop over
    each copy's vertices.  Its mask is the set of its vertices, d of
    them.  met[v] is v and every vertex that shares an earlier copy with
    v, so the copy repeats a pair exactly when met[v] & mask != 1 << v for
    one of its vertices v; the loop's updates of met[u] for the copy's
    other vertices u leave met[v] as it was.  seen marks each vertex's
    out-degree inside the mask, a number in 0..d-1, and must be all k low
    bits.

    The length and distinctness checks are implied.  A vertex listed
    twice in a copy with d >= 2 meets its own earlier update of met, so
    met[v] & mask is all of mask, not 1 << v.  With no repeat, the copy
    has d vertices, and seen is the set of out-degrees of the d-vertex
    subtournament.  A tournament whose set of out-degrees is exactly
    0..k-1 has k vertices: its vertex of out-degree 0 is unique (two
    would each lose to the other), and dropping it lowers every other
    out-degree by one, leaving exactly 0..k-2, down to one vertex of
    out-degree 0 at k = 1.  So seen is all k low bits exactly when d = k
    and the copy is transitive (the lemma that `is_transitive_on`
    states); an empty copy has seen 0 and a one-vertex copy 1, neither
    all of k >= 3 bits.

    Soundness: the packing is valid exactly when every check holds on
    every copy, so the order the checks run in cannot change the answer.
    The screen and the pass together reject exactly what the checks made
    copy by copy reject; the screen only moves the type and range checks
    ahead, so the pass shifts and indexes by ints of 0..n-1 alone.
    """
    n, k = t.n, p.k
    if p.n != n or not 3 <= k <= n:
        return False
    copies = p.copies
    if set(map(type, chain.from_iterable(copies))) - {int}:
        return False
    if min(chain.from_iterable(copies), default=0) < 0 or max(chain.from_iterable(copies), default=0) >= n:
        return False
    out = t.out
    # bits[v] is 1 << v, read from a list, which is cheaper than shifting;
    # an out-degree inside a copy is below its vertex count, at most n, so
    # it indexes bits too
    bits = [1 << v for v in range(n)]
    met = bits.copy()
    full = (1 << k) - 1
    for vs in copies:
        mask = 0
        for v in vs:
            mask |= bits[v]
        seen = 0
        for v in vs:
            if met[v] & mask != bits[v]:
                return False
            met[v] |= mask
            seen |= bits[(out[v] & mask).bit_count()]
        if seen != full:
            return False
    return True
