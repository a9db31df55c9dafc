"""Copy enumeration and edge-disjoint packing of transitive subtournaments.

A "copy" is a k-vertex subset inducing a transitive subtournament of the
host.  A packing is a set of copies whose unordered-pair edge sets are
pairwise disjoint; the packing number is the maximum size of such a set.
The exact solver is a branch-and-bound over edges with greedy completion
at every node: each node branches on the coverable edge with the fewest
live copies through it, and takes first the copy through it that leaves
the most live copies.  The root's greedy hitting set, when it ends below
the leave bound, caps every packing, and the search stops once the
incumbent meets that ceiling.  It is deterministic by construction, so
node counts reproduce.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, combinations, compress
from operator import itemgetter
from typing import NamedTuple

from .rng import stdlib_rng
from .tournament import Tournament

__all__ = [
    "CopyList",
    "Packing",
    "enumerate_copies",
    "greedy_packing",
    "max_packing_exact",
    "verify_packing",
]


class CopyList(NamedTuple):
    """All TT_k copies of one host, each its k vertices ascending, ordered by vertex tuple."""

    n: int
    k: int
    copies: tuple[tuple[int, ...], ...]


class Packing(NamedTuple):
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


def _check_deadline(deadline: float | None) -> None:
    """The solver's one deadline check: TimeoutError once the time.monotonic() instant has passed.

    None never raises and reads no clock.  max_packing_exact catches the
    TimeoutError once, the node budget's as well.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("ran past the deadline")


@lru_cache(maxsize=None)
def _vertex_edge_masks(n: int) -> tuple[int, ...]:
    """Per vertex, the bitmask of the n-1 unordered-pair indices at it.

    A pair's index is its rank in combinations(range(n), 2).
    """
    rows = [0] * n
    for p, (u, v) in enumerate(combinations(range(n), 2)):
        rows[u] |= 1 << p
        rows[v] |= 1 << p
    return tuple(rows)


def _transitive_chains(
    n: int, out: Sequence[int], k: int, deadline: float | None = None
) -> list[tuple[int, ...]]:
    """Every transitive k-subset of the digraph `out`, as ascending vertex tuples in lex order.

    A tournament is transitive exactly when it has no cyclic triangle.  The
    walk grows a prefix a1 < ... < aj in ascending vertex order; its pool
    is the higher vertices joined to every ai that close no cyclic
    triangle with a pair of the prefix.  A cyclic triangle of a transitive
    prefix plus w holds w, so the pool is exactly the higher vertices that
    keep the prefix transitive.  Taking v from the pool keeps of it the
    vertices above v, joined to v, that close no cyclic triangle on a pair
    {u, v}.  So each copy is reached once, in lexicographic order, with no
    sort, and a prefix is extended only while its pool holds enough
    vertices: the cost follows the number of transitive subsets of at
    most k vertices, not C(n, k).  Rows of `out` may omit pairs (both
    directions), which restricts the walk to the copies all of whose pairs
    are kept, so the in-sets are the transpose of `out`, not its
    complement.  A copy is its vertex tuple alone; the callers that need
    its pairs read them off the tuple.  `_check_deadline` runs at every
    prefix of fewer than k - 1 vertices and when the walk ends.
    """
    ins = [0] * n
    for v, row in enumerate(out):
        bit = 1 << v
        while row:
            low = row & -row
            row ^= low
            ins[low.bit_length() - 1] |= bit
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def grow(pool: int) -> None:
        _check_deadline(deadline)
        last = len(prefix) + 2 == k
        need = k - len(prefix) - 1
        m = pool
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            ov, iv = out[v], ins[v]
            # m is the pool above v
            sub = m & (ov | iv)
            for u in prefix:
                # the w closing a cyclic triangle on {u, v}
                sub &= ~(ov & ins[u] if iv >> u & 1 else iv & out[u])
            if sub.bit_count() < need:
                continue
            prefix.append(v)
            if last:
                # the leaf level: every vertex of sub closes one copy
                pre = tuple(prefix)
                while sub:
                    low = sub & -sub
                    sub ^= low
                    found.append(pre + (low.bit_length() - 1,))
            else:
                grow(sub)
            prefix.pop()

    try:
        grow((1 << n) - 1)
    finally:
        # grow reaches itself through its closure; dropping the name breaks
        # that cycle, so the copies go with the caller's last reference to
        # them, not at the next full garbage collection
        del grow
    _check_deadline(deadline)
    return found


def enumerate_copies(t: Tournament, k: int, deadline: float | None = None) -> CopyList:
    """List every k-subset inducing a transitive subtournament, in vertex order.

    The copies are walked in ascending vertex order, each extension kept
    free of cyclic triangles (see `_transitive_chains`).  deadline, a
    time.monotonic() instant, bounds the walk: once it passes,
    `_check_deadline` raises TimeoutError.
    """
    if not 3 <= k <= t.n:
        raise ValueError(f"k must satisfy 3 <= k <= n={t.n}, got {k}")
    return CopyList(t.n, k, tuple(_transitive_chains(t.n, t.out, k, deadline)))


def _leave_bound(coverable: int, n: int, k: int) -> int:
    """Upper bound on how many edge-disjoint copies fit inside `coverable`.

    Soundness.  A copy meets each of its k vertices in exactly k-1 edges.
    So once any family of copies is packed inside `coverable`, the unused
    edges (the leave) have degree d_v - (k-1)*c_v at each vertex v, where
    d_v is the degree of v in `coverable` and c_v counts the copies at v.
    That degree is at least r_v = d_v mod (k-1), so the leave has
    L >= ceil(sum r_v / 2) edges; and L = |coverable| - C(k,2) * copies, so
    L = |coverable| (mod C(k,2)).  With every r_v = 0, every leave degree is
    a multiple of k-1, and a nonempty leave (|coverable| mod C(k,2) != 0
    rules out L = 0) has a vertex of degree >= k-1 whose >= k-1 neighbours
    have it too: L >= C(k,2), a cycle at k = 3.  The least such L gives
    copies <= (|coverable| - L) / C(k,2).  This is the leave argument behind
    Schönheim's bound (1966): K_n with n = 5 (mod 6) packs one triangle
    fewer than floor(C(n,2) / 3), and K_7 two K_4s, not floor(21 / 6) = 3.

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
    if residue == 0 and size % per_copy:
        leave = per_copy
    # floor division rounds the leave up to the least L = size (mod per_copy)
    return (size - leave) // per_copy


def _copies_at_vertices(
    copies: Sequence[tuple[int, ...]], n: int, deadline: float | None
) -> list[int]:
    """Per vertex, the bitset over copy indices of the copies at it.

    A copy holds the pair {u, v} exactly when it holds both vertices, so
    the bitset of the copies through that pair is row[u] & row[v].  The n
    rows are built from the vertex tuples, linear in the number of
    copies: or-ing 1 << c into one growing int per vertex would copy the
    whole bitset at every copy, so each vertex's bits are set in a
    bytearray and read once as a little-endian int.  `_check_deadline`
    runs at every 1,024th copy.
    """
    rows = [bytearray((len(copies) + 7) // 8) for _ in range(n)]
    for c, vs in enumerate(copies):
        if not c & 1023:
            _check_deadline(deadline)
        byte, bit = c >> 3, 1 << (c & 7)
        for v in vs:
            rows[v][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def max_packing_exact(
    t: Tournament, k: int, time_budget: float | None = None, *, node_budget: int | None = None
) -> Packing:
    """Maximum edge-disjoint packing by branch-and-bound over edges.

    The copies come from `enumerate_copies` as vertex tuples, in
    vertex-tuple order, and copy indices follow that order.  `row[v]`, from
    `_copies_at_vertices`, is the bitset over copy indices of the copies at
    vertex v, so the copies through the edge {u, v} are row[u] & row[v].
    A node's state is one bitset, `live`, over copy indices: the copies
    still addable.  The node picks the coverable edge e with the fewest
    live copies through it, lowest edge index on ties, and branches on
    each of those copies c, with live & ~conflict(c), plus one branch
    abandoning e, with live & ~(the copies through e), always last.
    conflict(c), the copies sharing an edge with c, is the or of
    row[u] & row[v] over the C(k,2) pairs {u, v} of c; `avoid` builds
    ~conflict(c) the first time the search takes c, and keeps it.  The
    copies leaving the most live copies go first, lowest index on ties,
    the value-ordering counterpart of the fail-first choice of e
    (Haralick and Elliott, 1980); the key builds a conflict not yet kept
    without keeping it.  The order moves node counts and which optimum is
    returned, never the value.
    Branching on any coverable edge is complete: the copies through e share
    e, so an optimal packing within the live copies holds at most one of
    them.  If it holds one, it lies in that copy's branch; if none, it
    survives the abandon branch, which drops only the copies through e.  The
    fewest copies give the fewest children (Knuth's rule in Dancing Links).
    A node counts its live copies on its parent's coverable edges (every
    edge at the root); a child's live copies are among its parent's, so
    those edges hold its own.  The nonzero counts mark the node's coverable
    edges, handed on to its children as (edge bit, copies through it) pairs in
    edge-index order, and give the branch edge.  A greedy completion at
    every node (take the lowest live copy, drop its conflict, repeat) moves
    the incumbent early.  Two admissible prunes cut a node whose chosen
    copies plus an upper bound on the copies still addable cannot beat the
    incumbent:

    - the leave bound of `_leave_bound` on the coverable edges, from their
      degrees mod k-1 and their count mod C(k,2);
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
      same as if it ran on.  Its first round reuses the node's counts,
      and each later round recounts on all the node's coverable edges:
      an edge whose count fell to zero can neither be the largest count
      nor add to the sum of the largest ones, so it need not be dropped.

    After its leave bound the root builds the same set with target = the
    leave bound - 1, given up where it could cap nothing.  If it ends, its
    size is the ceiling, a bound on every packing of the host.  The set's
    picks do not depend on the target, so the root's own prune would end
    above the incumbent too, and is skipped.  A node's bound is the lesser
    of the ceiling and chosen plus the leave bound.

    A node that branches stops once the incumbent meets its bound: after a
    child returns with the incumbent at or above it, neither the remaining
    copies nor the abandon branch is searched.  Every packing below the
    node is its chosen copies plus edge-disjoint live copies inside its
    coverable edges, so none holds more than the bound (nor any packing of
    the host more than the ceiling); the incumbent moves only on a strict
    increase, so the skipped children could not have changed it, and only
    the node count drops.  On random hosts the root's leave bound is often
    the optimum, and on the three-class hosts the ceiling is; this exit
    ends the search as soon as a packing meets it.

    time_budget (seconds) sets one deadline.  `_check_deadline` tests it
    while the copies are listed and while their per-edge bitsets are
    built, at every node after its greedy completion, and at every round
    of each hitting set that runs, the ceiling's included.  node_budget,
    at least 1, stops the search at its node_budget-th node, right after
    that node's deadline check; it reads no clock, so its stop does not
    depend on the machine.  Either stop raises TimeoutError, which is
    caught here once, and the result is the incumbent, with optimal=False:
    the empty packing if the bitsets were never built, and at least the
    root's greedy completion after that.  A search that would end at the
    budget's last node is reported as not optimal too.  With neither
    budget the search runs to completion and the result is optimal.
    """
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"node_budget must be at least 1, got {node_budget}")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    n = t.n
    copies: tuple[tuple[int, ...], ...] = ()
    best = -1
    best_members: tuple[int, ...] = ()
    nodes = 0

    def conflict(c: int) -> int:
        found = 0
        for u, v in combinations(copies[c], 2):
            found |= row[u] & row[v]
        return found

    def avoid(c: int) -> int:
        found = avoiding[c]
        if found is None:
            # kept inverted: and-ing with it costs one pass, not an inversion too
            found = avoiding[c] = ~conflict(c)
        return found

    def hits(live: int, edges: list[tuple[int, int]], counts: list[int], target: int) -> int | None:
        # the greedy hitting set's size, or None once the counting bound
        # shows it ends above target; counts are live's on edges
        size = 0
        while sum(sorted(counts, reverse=True)[: target - size]) >= live.bit_count():
            live &= ~edges[counts.index(max(counts))][1]
            size += 1
            if not live:
                return size
            _check_deadline(deadline)
            counts = [(live & b).bit_count() for _, b in edges]
        return None

    def dfs(live: int, chosen: list[int], edges: list[tuple[int, int]]) -> None:
        nonlocal best, best_members, nodes, ceiling
        nodes += 1
        greedy = list(chosen)
        rest = live
        while rest:
            c = (rest & -rest).bit_length() - 1
            greedy.append(c)
            rest &= avoid(c)
        if len(greedy) > best:
            best = len(greedy)
            best_members = tuple(greedy)
        _check_deadline(deadline)
        if nodes == node_budget:
            raise TimeoutError("ran past the node budget")
        counts = [(live & b).bit_count() for _, b in edges]
        edges = list(compress(edges, counts))
        counts = list(filter(None, counts))
        bound = min(ceiling, len(chosen) + _leave_bound(sum(map(itemgetter(0), edges)), n, k))
        if bound <= best:
            return
        if nodes == 1:
            # the root: its ceiling, if the set ends below the leave bound
            ceiling = bound = hits(live, edges, counts, bound - 1) or bound
            if bound <= best:
                return
        elif hits(live, edges, counts, best - len(chosen)) is not None:
            return
        through = edges[counts.index(min(counts))][1]
        order = []
        branch = live & through
        while branch:
            low = branch & -branch
            branch ^= low
            c = low.bit_length() - 1
            a = avoiding[c]
            order.append((-(live & (~conflict(c) if a is None else a)).bit_count(), c))
        for _, c in sorted(order):
            chosen.append(c)
            dfs(live & avoid(c), chosen, edges)
            chosen.pop()
            if best >= bound:
                return
        dfs(live & ~through, chosen, edges)

    try:
        copies = enumerate_copies(t, k, deadline).copies
        row = _copies_at_vertices(copies, n, deadline)
        avoiding: list[int | None] = [None] * len(copies)
        ceiling = len(copies)
        pairs = enumerate(combinations(range(n), 2))
        dfs((1 << len(copies)) - 1, [], [(1 << p, row[u] & row[v]) for p, (u, v) in pairs])
        optimal = True
    except TimeoutError:
        optimal = False
    # as in _transitive_chains: dfs reaches itself through its closure, and
    # the cycle would hold the copies and their bitsets past the return
    del dfs
    return Packing(
        n=n,
        k=k,
        copies=tuple(copies[c] for c in sorted(best_members)),
        optimal=optimal,
        nodes_explored=nodes,
    )


def greedy_packing(t: Tournament, k: int, seed: int) -> Packing:
    """Maximal packing from a seeded random scan order; never exceeds the optimum.

    The taken pairs are kept as `verify_packing` keeps them: met[v] is v
    and every vertex that shares a taken copy with v, so a copy, whose
    mask is the set of its vertices, fits exactly when
    met[v] & mask == 1 << v at each of its vertices v.
    """
    copies = list(enumerate_copies(t, k).copies)
    stdlib_rng(seed).shuffle(copies)
    bits = [1 << v for v in range(t.n)]
    met = bits.copy()
    members = []
    for vs in copies:
        mask = 0
        for v in vs:
            mask |= bits[v]
        for v in vs:
            if met[v] & mask != bits[v]:
                break
        else:
            for v in vs:
                met[v] |= mask
            members.append(vs)
    return Packing(n=t.n, k=k, copies=tuple(sorted(members)))


def verify_packing(t: Tournament, p: Packing) -> bool:
    """Check a packing from first principles, independent of solver internals.

    Every copy must have k distinct vertices of the host, each an int (not
    a bool) in range, and induce a transitive subtournament; the copies
    must be pairwise edge-disjoint.  First a bulk screen, in builtins,
    checks every vertex's type and then, in one set difference, that
    every vertex lies in range(n).  Then one pass over the copies checks the rest, with one loop over
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
    if set(chain.from_iterable(copies)).difference(range(n)):
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
