"""Per-edge copy statistics and the greedy/improvement density harness."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from oracles import scanned_copies
from ttpack import experiments
from ttpack.experiments import (
    density_experiment,
    edge_copy_stats,
    improve_packing,
)
from ttpack.packing import (
    Packing,
    _transitive_chains,
    enumerate_copies,
    greedy_packing,
    max_packing_exact,
    verify_packing,
)
from ttpack.tournament import (
    edge_index,
    random_tournament,
    tournament_bits,
    transitive_tournament,
)


def brute_edge_counts(t, k):
    """Recount per-edge copy membership straight from the copy list."""
    index = {p: i for i, p in enumerate(combinations(range(t.n), 2))}
    counts = [0] * len(index)
    for vs in enumerate_copies(t, k).copies:
        for pair in combinations(vs, 2):
            counts[index[pair]] += 1
    return counts


def test_edge_counts_match_brute_recount():
    hosts = [random_tournament(n, seed) for n in (4, 9, 13, 17) for seed in (0, 1, 2)]
    for t in hosts + [transitive_tournament(8)]:
        for k in (3, 4):
            stats = edge_copy_stats(t, k)
            assert list(stats.counts) == brute_edge_counts(t, k)


def test_handshake_identity_is_exact():
    for seed in range(5):
        t = random_tournament(11, seed)
        for k in (3, 4):
            stats = edge_copy_stats(t, k)
            total_copies = len(enumerate_copies(t, k).copies)
            assert sum(stats.counts) == total_copies * comb(k, 2), (seed, k)
            assert stats.mean * comb(11, 2) == total_copies * comb(k, 2), (seed, k)


def test_transitive_host_counts_are_uniform():
    for n in (5, 8):
        stats = edge_copy_stats(transitive_tournament(n), 3)
        assert stats.min == stats.max == n - 2


def test_expectation_formula():
    stats = edge_copy_stats(random_tournament(10, 0), 3)
    assert stats.expectation == Fraction(3 * (10 - 2), 4)
    stats4 = edge_copy_stats(random_tournament(10, 0), 4)
    assert stats4.expectation == Fraction(comb(8, 2) * factorial(4), 2 ** comb(4, 2))


def test_edge_stats_limits():
    t = random_tournament(12, 0)
    with pytest.raises(ValueError, match=r"support k in \(3, 4\), got 5"):
        edge_copy_stats(t, 5)
    # the density trials share the range of k, and need a trial
    with pytest.raises(ValueError, match=r"^density trials support k in \(3, 4\), got 5$"):
        density_experiment(12, 5, trials=2, seed=0)
    with pytest.raises(ValueError, match="^trials must be positive, got 0$"):
        density_experiment(12, 3, trials=0, seed=0)
    # k = 4 has no order cap: the largest hosts return, past the handshake self-check
    for n in (61, 64):
        assert edge_copy_stats(random_tournament(n, 0), 4).n == n
    assert edge_copy_stats(random_tournament(61, 0), 3).n == 61
    # a 1-vertex host has no edge to average over, at either k
    for k in (3, 4):
        with pytest.raises(ValueError, match="with an edge"):
            edge_copy_stats(random_tournament(1, 0), k)
    assert edge_copy_stats(random_tournament(2, 0), 3).counts == (0,)


def test_handshake_mismatch_is_a_self_check_failure(monkeypatch):
    real = experiments._edge_splits

    def one_vertex_short(t):
        splits = real(t)
        p, a, b, c, d = next(splits)
        # on TT_n the first edge, 0 -> 1, has every other vertex in c
        yield p, a, b, c & c - 1, d
        yield from splits

    monkeypatch.setattr(experiments, "_edge_splits", one_vertex_short)
    for k in (3, 4):
        with pytest.raises(AssertionError, match="^edge_copy_stats self-check failed: "):
            edge_copy_stats(transitive_tournament(6), k)


def test_restricted_walk_lists_the_copies_inside_the_allowed_edges():
    # improve_packing walks the host's rows with its covered pairs dropped.
    # About half the pairs allowed, then about three quarters: no 5-set
    # keeps all 10 of its pairs at half, so k = 5 is read at the denser sets
    listed_at_five = 0
    for seed in range(4):
        t = random_tournament(13, 40 + seed)
        allowed = int(tournament_bits(random_tournament(13, 90 + seed)), 2)
        denser = allowed | int(tournament_bits(random_tournament(13, 190 + seed)), 2)
        for edges in (allowed, denser):
            rows = [
                sum(1 << w for w in range(13) if t.out[u] >> w & 1 and edges >> edge_index(13, u, w) & 1)
                for u in range(13)
            ]
            for k in (3, 4, 5):
                want = [vs for vs, m in scanned_copies(t, k) if m & ~edges == 0]
                assert _transitive_chains(13, rows, k) == want
                listed_at_five += len(want) if k == 5 else 0
    assert listed_at_five == 35


def test_improve_self_check_catches_an_overlapping_input():
    # the first listed copy and the first copy sharing two vertices with it
    # share one pair, so the 20 copies the search ends with cover one edge
    # fewer than 20 * C(3,2)
    t = random_tournament(12, 100)
    copies = enumerate_copies(t, 3).copies
    first = copies[0]
    other = next(vs for vs in copies if len(set(vs) & set(first)) == 2)
    with pytest.raises(
        AssertionError, match=r"^improve_packing self-check failed: 20 copies cover 59 edges, not 60$"
    ):
        improve_packing(t, Packing(12, 3, (first, other)))


def test_improve_self_check_catches_a_copy_listed_twice():
    # verify_packing rejects the input; a member set alone would collapse
    # the repeat and return 19 verified copies
    t = random_tournament(12, 100)
    first = enumerate_copies(t, 3).copies[0]
    assert not verify_packing(t, Packing(12, 3, (first, first)))
    with pytest.raises(
        AssertionError, match=r"^improve_packing self-check failed: 2 input copies hold 1 distinct ones$"
    ):
        improve_packing(t, Packing(12, 3, (first, first)))


def test_improve_never_loses_copies():
    for seed in range(5):
        t = random_tournament(12, 100 + seed)
        g = greedy_packing(t, 3, seed)
        better = improve_packing(t, g)
        assert verify_packing(t, better)
        assert better.value >= g.value
        assert not better.optimal


def test_improve_stays_below_exact_optimum():
    t = random_tournament(12, 104)
    exact = max_packing_exact(t, 3).value
    improved = improve_packing(t, greedy_packing(t, 3, 0))
    assert improved.value <= exact


def test_improve_is_idempotent():
    t = random_tournament(12, 7)
    once = improve_packing(t, greedy_packing(t, 3, 1))
    twice = improve_packing(t, once)
    assert twice.value == once.value


def test_density_experiment_report():
    report = density_experiment(14, 3, trials=4, seed=9)
    assert report.trials == 4
    assert len(report.copy_counts) == 4 and len(report.covered_fractions) == 4
    for count, frac in zip(report.copy_counts, report.covered_fractions):
        assert frac == Fraction(count * 3, comb(14, 2))
        assert 0 <= frac <= 1
    assert report.reference_density == Fraction(1, 6)


def test_density_experiment_improve_dominates():
    base = density_experiment(14, 3, trials=4, seed=9)
    boosted = density_experiment(14, 3, trials=4, seed=9, improve=True)
    for lo, hi in zip(base.copy_counts, boosted.copy_counts):
        assert hi >= lo


def test_density_experiment_is_deterministic():
    a = density_experiment(13, 3, trials=3, seed=4)
    b = density_experiment(13, 3, trials=3, seed=4)
    assert a == b
