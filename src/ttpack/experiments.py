"""Seeded empirical studies on random tournaments.

Two instruments: per-edge counts of transitive k-subtournaments through
each edge, compared against the closed-form expectation for a uniform
random tournament, and packing-density trials that run the greedy
packer (optionally followed by a 1-for-2 local search) and report
covered-edge fractions against the perfect-packing density.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .packing import Packing, _transitive_chains, greedy_packing
from .rng import sub_seed
from .tournament import Tournament, _edge_splits, random_tournament

__all__ = [
    "DensityReport",
    "EdgeCopyStats",
    "density_experiment",
    "edge_copy_stats",
    "improve_packing",
]


class EdgeCopyStats(NamedTuple):
    """Per-edge transitive-subtournament counts plus the expectation reference.

    counts[e] is the number of transitive k-subsets whose vertex pairs
    include the e-th unordered pair; the handshake identity
    mean * C(n,2) = (total copies) * C(k,2) holds exactly.
    """

    n: int
    k: int
    counts: tuple[int, ...]
    mean: Fraction
    min: int
    max: int
    expectation: Fraction


class DensityReport(NamedTuple):
    """Greedy packing sizes and covered-edge fractions over seeded trials."""

    n: int
    k: int
    trials: int
    improve: bool
    copy_counts: tuple[int, ...]
    covered_fractions: tuple[Fraction, ...]
    reference_density: Fraction


def edge_copy_stats(t: Tournament, k: int) -> EdgeCopyStats:
    """Count the transitive k-subsets through every edge of the host."""
    if k not in (3, 4):
        raise ValueError(f"edge statistics support k in (3, 4), got {k}")
    if t.n < 2:
        raise ValueError(f"edge statistics need a host with an edge, got n={t.n}")
    n, out = t.n, t.out
    edge_count = n * (n - 1) // 2
    counts = [0] * edge_count
    # Per edge, the copies are read off _edge_splits' four-way split.  The
    # total that the handshake check compares against is counted apart, by
    # each copy's top vertex v, the one beating the other k - 1.
    if k == 3:
        for p, a, b, c, _ in _edge_splits(t):
            counts[p] = a.bit_count() + b.bit_count() + c.bit_count()
        total = sum(comb(m.bit_count(), 2) for m in out)
    else:
        # Two vertices of one part are always a transitive pair; from two
        # parts, the one in the earlier part must beat the other.
        for p, a, b, c, _ in _edge_splits(t):
            forward = 0
            for earlier, later in ((a, b | c), (b, c)):
                while earlier:
                    low = earlier & -earlier
                    earlier ^= low
                    forward += (out[low.bit_length() - 1] & later).bit_count()
            counts[p] = (
                comb(a.bit_count(), 2) + comb(b.bit_count(), 2) + comb(c.bit_count(), 2) + forward
            )
        # under its top vertex v, a copy's second vertex u is the one that
        # beats the other two, and any two that v and u both beat complete it
        total = sum(
            comb((out[u] & out[v]).bit_count(), 2) for v in range(n) for u in range(n) if out[v] >> u & 1
        )
    if sum(counts) != total * comb(k, 2):
        raise AssertionError(
            f"edge_copy_stats self-check failed: per-edge counts sum to {sum(counts)}, "
            f"not {total} copies times C({k},2)"
        )
    return EdgeCopyStats(
        n=n,
        k=k,
        counts=tuple(counts),
        mean=Fraction(sum(counts), edge_count),
        min=min(counts),
        max=max(counts),
        expectation=Fraction(comb(n - 2, k - 2) * factorial(k), 2 ** comb(k, 2)),
    )


def improve_packing(t: Tournament, p: Packing) -> Packing:
    """1-for-2 local search: swap one member for two edge-disjoint replacements.

    Alternates plain augmentation (add any copy fitting in uncovered
    edges) with swaps until neither applies.  Every successful round
    grows the packing by one, so termination is immediate; the result
    never has fewer members than the input.  An input that lists a copy
    twice, or two copies sharing a pair, fails the self-check.

    A copy is its vertex tuple, and the covered pairs are kept as
    `verify_packing` keeps them: met[v] is the vertices that share a member
    with v, v left out.  The uncovered rows out[v] & ~met[v] drop every
    covered pair, so `_transitive_chains` on them lists the copies that
    fit.  A swap's rows add back the member's own pairs.  Two k-sets share
    a pair exactly when they share two vertices.  Members are
    edge-disjoint, so removing one clears its mask from the rows of its
    vertices without uncovering another member's pair.
    """
    n, k, out = t.n, p.k, t.out
    per_copy = k * (k - 1) // 2
    members: set[tuple[int, ...]] = set()
    met = [0] * n

    def mask_of(vs: tuple[int, ...]) -> int:
        return sum(1 << v for v in vs)

    def take(vs: tuple[int, ...]) -> None:
        members.add(vs)
        mask = mask_of(vs)
        for v in vs:
            met[v] |= mask ^ 1 << v

    for vs in p.copies:
        take(vs)
    if len(members) < len(p.copies):
        raise AssertionError(
            f"improve_packing self-check failed: {len(p.copies)} input copies hold {len(members)} distinct ones"
        )
    changed = True
    while changed:
        changed = False
        for vs in _transitive_chains(n, [out[v] & ~met[v] for v in range(n)], k):
            mask = mask_of(vs)
            if not any(met[v] & mask for v in vs):
                take(vs)
                changed = True
        uncovered = [out[v] & ~met[v] for v in range(n)]
        for vs in sorted(members):
            mask = mask_of(vs)
            allowed = uncovered.copy()
            for v in vs:
                allowed[v] = out[v] & ~(met[v] & ~mask)
            found = []
            for cand in _transitive_chains(n, allowed, k):
                if found and len(first.intersection(cand)) < 2:
                    found.append(cand)
                    break
                if not found and cand != vs:
                    found.append(cand)
                    first = set(cand)
            if len(found) == 2:
                members.remove(vs)
                for v in vs:
                    met[v] &= ~mask
                for cand in found:
                    take(cand)
                changed = True
                break
    ordered = sorted(members)
    # met holds each covered pair at both of its vertices
    covered = sum(map(int.bit_count, met)) // 2
    if covered != len(ordered) * per_copy:
        raise AssertionError(
            f"improve_packing self-check failed: {len(ordered)} copies cover "
            f"{covered} edges, not {len(ordered) * per_copy}"
        )
    return Packing(n=n, k=k, copies=tuple(ordered), nodes_explored=p.nodes_explored)


def density_experiment(
    n: int, k: int, trials: int, seed: int, improve: bool = False
) -> DensityReport:
    """Greedy (optionally locally improved) packing sizes on seeded random hosts."""
    if k not in (3, 4):
        raise ValueError(f"density trials support k in (3, 4), got {k}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    copy_counts = []
    fractions = []
    pair_total = comb(n, 2)
    for i in range(trials):
        host = random_tournament(n, sub_seed(seed, i, 0))
        packed = greedy_packing(host, k, sub_seed(seed, i, 1))
        if improve:
            packed = improve_packing(host, packed)
        copy_counts.append(packed.value)
        fractions.append(Fraction(packed.value * comb(k, 2), pair_total))
    return DensityReport(
        n=n,
        k=k,
        trials=trials,
        improve=improve,
        copy_counts=tuple(copy_counts),
        covered_fractions=tuple(fractions),
        reference_density=Fraction(1, k * (k - 1)),
    )
