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
from math import comb, factorial

from .packing import Packing, _edge_mask, _transitive_chains, greedy_packing
from .rng import sub_seed
from .tournament import Tournament, _edge_splits, random_tournament

__all__ = [
    "DensityReport",
    "EdgeCopyStats",
    "density_experiment",
    "edge_copy_stats",
    "improve_packing",
]


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
    min: int
    max: int
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


def _transitive_subsets_within(t: Tournament, k: int, allowed: int) -> list[tuple[int, ...]]:
    """Transitive k-subsets all of whose pairs lie in the allowed edge set, lex order.

    The ascending walk of `_transitive_chains` runs on the host's rows with
    every pair outside `allowed` dropped from both rows.  The walk takes its
    in-sets by transposing the rows it is given, so a dropped pair joins its
    two vertices in neither direction, and the walk reaches exactly the
    copies inside the allowed edges.  The pairs {i, j}, j > i, fill one
    field of `allowed`, j at bit j - i - 1, so vertex i's allowed higher
    vertices are one shift away: i's row keeps those it beats, and each
    that beats i takes i into its own row.
    """
    n, out = t.n, t.out
    rows = [0] * n
    for i in range(n):
        width = n - 1 - i
        higher = (allowed & (1 << width) - 1) << i + 1
        allowed >>= width
        rows[i] |= out[i] & higher
        beaten = higher & ~out[i]
        while beaten:
            low = beaten & -beaten
            beaten ^= low
            rows[low.bit_length() - 1] |= 1 << i
    return _transitive_chains(n, rows, k)


def improve_packing(t: Tournament, p: Packing) -> Packing:
    """1-for-2 local search: swap one member for two edge-disjoint replacements.

    Alternates plain augmentation (add any copy fitting in uncovered
    edges) with swaps until neither applies.  Every successful round
    grows the packing by one, so termination is immediate; the result
    never has fewer members than the input.
    """
    n = t.n
    per_copy = p.k * (p.k - 1) // 2
    members = {vs: _edge_mask(n, vs) for vs in p.copies}
    covered = 0
    for m in members.values():
        covered |= m
    all_edges = (1 << (n * (n - 1) // 2)) - 1
    changed = True
    while changed:
        changed = False
        for vs in _transitive_subsets_within(t, p.k, all_edges & ~covered):
            m = _edge_mask(n, vs)
            if m & covered == 0:
                members[vs] = m
                covered |= m
                changed = True
        for vs in sorted(members):
            allowed = (all_edges & ~covered) | members[vs]
            found = []
            for cand in _transitive_subsets_within(t, p.k, allowed):
                cm = _edge_mask(n, cand)
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
    return Packing(n=n, k=p.k, copies=tuple(ordered), nodes_explored=p.nodes_explored)


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
