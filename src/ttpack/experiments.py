"""Seeded empirical studies on random tournaments.

Two instruments: per-edge counts of transitive k-subtournaments through
each edge, compared against the closed-form expectation for a uniform
random tournament, and packing-density trials that run the greedy
packer (optionally followed by a 1-for-2 local search) and report
covered-edge fractions against the perfect-packing density.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .packing import Packing, _pair_mask, greedy_packing
from .rng import sub_seed
from .tournament import Tournament, census, edge_index, is_transitive_on, random_tournament

__all__ = [
    "DensityReport",
    "EdgeCopyStats",
    "ExperimentError",
    "density_experiment",
    "edge_copy_stats",
    "improve_packing",
]

EDGE_STATS_LIMITS = {3: 200, 4: 60}


class ExperimentError(ValueError):
    """Raised for unsupported sizes or subtournament orders."""


@dataclass(frozen=True)
class EdgeCopyStats:
    """Per-edge transitive-subtournament counts plus the expectation reference.

    counts[e] is the number of transitive k-subsets whose vertex pairs
    include the e-th unordered pair; the handshake identity
    mean * C(n,2) = (total copies) * C(k,2) holds exactly.
    """

    n: int
    k: int
    counts: tuple[int, ...]
    mean: Fraction
    min_count: int
    max_count: int
    expectation: Fraction


@dataclass(frozen=True)
class DensityReport:
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
    limit = EDGE_STATS_LIMITS.get(k)
    if limit is None:
        raise ExperimentError(f"edge statistics support k in (3, 4), got {k}")
    if t.n > limit:
        raise ExperimentError(f"edge statistics for k={k} capped at n <= {limit}, got {t.n}")
    n = t.n
    edge_count = n * (n - 1) // 2
    counts = [0] * edge_count
    full = (1 << n) - 1
    if k == 3:
        # The triple {x,y,w} on edge x->y fails to be transitive exactly
        # when y->w and w->x close a directed triangle.
        total = census(t).a
        for i in range(n):
            for j in range(i + 1, n):
                x, y = (i, j) if t.has_edge(i, j) else (j, i)
                incoming = full & ~t.out[x] & ~(1 << x)
                cyclic = (t.out[y] & incoming).bit_count()
                counts[edge_index(n, i, j)] = (n - 2) - cyclic
    else:
        total = 0
        for vs in combinations(range(n), 4):
            if not is_transitive_on(t, vs):
                continue
            total += 1
            for a, u in enumerate(vs):
                for w in vs[a + 1 :]:
                    counts[edge_index(n, u, w)] += 1
    if sum(counts) != total * comb(k, 2):
        raise ExperimentError("handshake identity violated; counting bug")
    return EdgeCopyStats(
        n=n,
        k=k,
        counts=tuple(counts),
        mean=Fraction(sum(counts), edge_count),
        min_count=min(counts),
        max_count=max(counts),
        expectation=Fraction(comb(n - 2, k - 2) * factorial(k), 2 ** comb(k, 2)),
    )


def _transitive_subsets_within(t: Tournament, k: int, allowed: int):
    """Transitive k-subsets all of whose pairs lie in the allowed edge set, lex order."""
    n = t.n
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if allowed >> edge_index(n, i, j) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    def extend(chosen: list[int], common: int):
        if len(chosen) == k:
            if is_transitive_on(t, chosen):
                yield tuple(chosen)
            return
        m = common
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            chosen.append(v)
            yield from extend(chosen, common & adj[v] & ~((1 << (v + 1)) - 1))
            chosen.pop()

    yield from extend([], (1 << n) - 1)


def improve_packing(t: Tournament, p: Packing) -> Packing:
    """1-for-2 local search: swap one member for two edge-disjoint replacements.

    Alternates plain augmentation (add any copy fitting in uncovered
    edges) with swaps until neither applies.  Every successful round
    grows the packing by one, so termination is immediate; the result
    never has fewer members than the input.
    """
    n = t.n
    per_copy = p.k * (p.k - 1) // 2
    members = {vs: _pair_mask(t.n, vs) for vs in p.copies}
    covered = 0
    for m in members.values():
        covered |= m
    all_edges = (1 << (n * (n - 1) // 2)) - 1
    changed = True
    while changed:
        changed = False
        for vs in _transitive_subsets_within(t, p.k, all_edges & ~covered):
            m = _pair_mask(n, vs)
            if m & covered == 0:
                members[vs] = m
                covered |= m
                changed = True
        for vs in sorted(members):
            allowed = (all_edges & ~covered) | members[vs]
            found = []
            for cand in _transitive_subsets_within(t, p.k, allowed):
                cm = _pair_mask(n, cand)
                if found and cm & found[0][1] == 0:
                    found.append((cand, cm))
                    break
                if not found and cand != vs:
                    found.append((cand, cm))
            if len(found) == 2:
                covered &= ~members.pop(vs)
                for cand, cm in found:
                    members[cand] = cm
                    covered |= cm
                changed = True
                break
    ordered = sorted(members)
    if covered.bit_count() != len(ordered) * per_copy:
        raise AssertionError(
            f"improve_packing self-check failed: {len(ordered)} copies cover "
            f"{covered.bit_count()} edges, not {len(ordered) * per_copy}"
        )
    return Packing(
        n=n,
        k=p.k,
        members=tuple(range(len(ordered))),
        copies=tuple(ordered),
        covered_edges=covered,
        optimal=False,
        nodes_explored=p.nodes_explored,
    )


def density_experiment(
    n: int, k: int, trials: int, seed: int, improve: bool = False
) -> DensityReport:
    """Greedy (optionally locally improved) packing sizes on seeded random hosts."""
    if k not in (3, 4):
        raise ExperimentError(f"density trials support k in (3, 4), got {k}")
    if trials < 1:
        raise ExperimentError(f"trials must be positive, got {trials}")
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
