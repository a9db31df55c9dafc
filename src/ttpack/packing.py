"""Copy enumeration and edge-disjoint packing of transitive subtournaments.

A "copy" is a k-vertex subset inducing a transitive subtournament of the
host.  A packing is a set of copies whose unordered-pair edge sets are
pairwise disjoint; the packing number is the maximum size of such a set.
The exact solver is a branch-and-bound over edges with greedy completion
at every node, deterministic by construction so node counts reproduce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .rng import stdlib_rng
from .tournament import Tournament, edge_index, is_transitive_on

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
    """Raised for out-of-range k or an inconsistent externally supplied copy list."""


@dataclass(frozen=True)
class TTCopy:
    """One transitive subtournament copy.

    vertices: the k vertices, ascending.
    edges: the C(k,2) directed edges as (winner, loser) pairs, sorted.
    edge_mask: bitmask over host unordered-pair indices (see edge_index).
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
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

    members: indices into the copy list the solver worked from.
    copies: the members' vertex tuples (self-contained for verification).
    covered_edges: bitmask of all covered unordered-pair indices.
    optimal: True only when the search ran to completion.
    """

    n: int
    k: int
    members: tuple[int, ...]
    copies: tuple[tuple[int, ...], ...]
    covered_edges: int
    optimal: bool
    nodes_explored: int

    @property
    def value(self) -> int:
        return len(self.members)


def _pair_mask(n: int, vertices: tuple[int, ...]) -> int:
    mask = 0
    for a, u in enumerate(vertices):
        for w in vertices[a + 1 :]:
            mask |= 1 << edge_index(n, u, w)
    return mask


def _until(deadline: float, items):
    """The items, until the monotonic clock passes deadline; then TimeoutError."""
    for item in items:
        if time.monotonic() > deadline:
            raise TimeoutError("copy enumeration ran past its deadline")
        yield item


def enumerate_copies(t: Tournament, k: int, deadline: float | None = None) -> CopyList:
    """List every k-subset inducing a transitive subtournament, in vertex order.

    deadline, a time.monotonic() instant, bounds the scan: once it passes,
    TimeoutError is raised.  Only a set deadline adds a check per subset.
    """
    if not 3 <= k <= t.n:
        raise PackingError(f"k must satisfy 3 <= k <= n={t.n}, got {k}")
    copies: list[TTCopy] = []
    subsets = combinations(range(t.n), k)
    if deadline is not None:
        subsets = _until(deadline, subsets)
    for vs in subsets:
        if not is_transitive_on(t, vs):
            continue
        edges = []
        for a, u in enumerate(vs):
            for w in vs[a + 1 :]:
                edges.append((u, w) if t.has_edge(u, w) else (w, u))
        copies.append(TTCopy(vs, tuple(sorted(edges)), _pair_mask(t.n, vs)))
    return CopyList(t.n, k, tuple(copies))


def _check_copy_list(t: Tournament, cl: CopyList, k: int) -> None:
    if cl.n != t.n or cl.k != k:
        raise PackingError(f"copy list is for (n={cl.n}, k={cl.k}), host needs (n={t.n}, k={k})")
    seen: set[tuple[int, ...]] = set()
    for c in cl.copies:
        vs = c.vertices
        if len(vs) != k or list(vs) != sorted(set(vs)) or not all(0 <= v < t.n for v in vs):
            raise PackingError(f"malformed copy vertices {vs}")
        if vs in seen:
            raise PackingError(f"duplicate copy {vs}")
        seen.add(vs)
        if not is_transitive_on(t, vs):
            raise PackingError(f"copy {vs} does not induce a transitive subtournament")
        if c.edge_mask != _pair_mask(t.n, vs):
            raise PackingError(f"copy {vs} carries a wrong edge mask")


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


def max_packing_exact(
    t: Tournament,
    k: int,
    time_budget: float | None = None,
    *,
    stop_at: int | None = None,
    copy_list: CopyList | None = None,
) -> Packing:
    """Maximum edge-disjoint packing by branch-and-bound over edges.

    Each node picks the lowest-index edge still coverable and branches on
    every surviving copy through it, plus one branch abandoning the edge.
    A greedy completion at every node moves the incumbent early.  Two
    admissible prunes cut a node whose chosen copies plus an upper bound
    on the copies still addable cannot beat the incumbent:

    - the leave bound of `_leave_bound` on the coverable edges;
    - a hitting set: any edge set meeting every surviving copy caps the
      copies still addable, since disjoint copies use distinct edges of it.
      It is built greedily (the edge through the most surviving copies,
      lowest edge index on ties) from one bitset per edge over copy
      indices, and abandoned once it grows too large to prune.

    time_budget (seconds) turns the result into a best-found lower bound
    with optimal=False once exceeded; the deadline is checked at every
    subset of the copy enumeration, at every node and at every round of the
    hitting set.  A budget spent before the copies are all listed returns
    the empty packing.  stop_at aborts as soon as the incumbent reaches the
    threshold, again with optimal=False; callers that only need
    "value >= stop_at or exact value below it" use this.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    if copy_list is None:
        try:
            copy_list = enumerate_copies(t, k, deadline)
        except TimeoutError:
            return Packing(
                n=t.n, k=k, members=(), copies=(), covered_edges=0, optimal=False, nodes_explored=0
            )
    else:
        _check_copy_list(t, copy_list, k)
    n = t.n
    masks = [c.edge_mask for c in copy_list.copies]

    best = -1
    best_members: tuple[int, ...] = ()
    nodes = 0
    aborted = False

    # edge_copies[e]: bitset over copy indices of the copies through edge e
    edge_copies = [0] * (n * (n - 1) // 2)
    for c, m in enumerate(masks):
        while m:
            low = m & -m
            m ^= low
            edge_copies[low.bit_length() - 1] |= 1 << c

    def out_of_time() -> bool:
        nonlocal aborted
        if deadline is not None and time.monotonic() > deadline:
            aborted = True
        return aborted

    def hits_within(alive: list[int], coverable: int, target: int) -> bool:
        # Any edge set meeting every live copy caps the packing that can still
        # be added: disjoint copies consume distinct edges of the set.  Greedy
        # max-frequency choice, lowest edge index on ties, keeps this
        # deterministic; bail out as soon as the partial hitting set is too
        # large to prune.  A passed deadline also returns True, ending the node.
        through = []
        while coverable:
            low = coverable & -coverable
            coverable ^= low
            through.append(edge_copies[low.bit_length() - 1])
        live = 0
        for c in alive:
            live |= 1 << c
        bound = 0
        while live:
            bound += 1
            if bound > target:
                return False
            if out_of_time():
                return True
            top = 0
            kept = []
            for m in through:
                freq = (live & m).bit_count()
                if freq:
                    kept.append(m)
                    if freq > top:
                        top, pick = freq, m
            live &= ~pick
            through = kept
        return True

    def dfs(alive: list[int], chosen: list[int]) -> None:
        nonlocal best, best_members, nodes, aborted
        nodes += 1
        if out_of_time():
            return
        coverable = 0
        for c in alive:
            coverable |= masks[c]
        greedy = list(chosen)
        taken = 0
        for c in alive:
            if masks[c] & taken == 0:
                taken |= masks[c]
                greedy.append(c)
        if len(greedy) > best:
            best = len(greedy)
            best_members = tuple(greedy)
            if stop_at is not None and best >= stop_at:
                aborted = True
                return
        if len(chosen) + _leave_bound(coverable, n, k) <= best:
            return
        if hits_within(alive, coverable, best - len(chosen)):
            return
        bit = coverable & -coverable
        for c in alive:
            if masks[c] & bit:
                m = masks[c]
                chosen.append(c)
                dfs([d for d in alive if masks[d] & m == 0], chosen)
                chosen.pop()
                if aborted:
                    return
        dfs([d for d in alive if masks[d] & bit == 0], chosen)

    dfs(list(range(len(masks))), [])

    members = tuple(sorted(best_members))
    covered = 0
    for c in members:
        covered |= masks[c]
    return Packing(
        n=t.n,
        k=k,
        members=members,
        copies=tuple(copy_list.copies[c].vertices for c in members),
        covered_edges=covered,
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
    return Packing(
        n=t.n,
        k=k,
        members=tuple(members),
        copies=tuple(cl.copies[c].vertices for c in members),
        covered_edges=covered,
        optimal=False,
        nodes_explored=0,
    )


def verify_packing(t: Tournament, p: Packing) -> bool:
    """Check a packing from first principles, independent of solver internals."""
    if p.n != t.n or not 3 <= p.k <= t.n:
        return False
    if len(p.members) != len(p.copies):
        return False
    per_copy = p.k * (p.k - 1) // 2
    covered = 0
    for vs in p.copies:
        if len(vs) != p.k or len(set(vs)) != p.k:
            return False
        if not all(isinstance(v, int) and 0 <= v < t.n for v in vs):
            return False
        if not is_transitive_on(t, vs):
            return False
        emask = _pair_mask(t.n, tuple(sorted(vs)))
        if emask & covered:
            return False
        covered |= emask
    if covered != p.covered_edges:
        return False
    return covered.bit_count() == len(p.copies) * per_copy
