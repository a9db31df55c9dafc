"""Exact branch-and-bound solver, greedy baseline, and the verifier."""

import time
from dataclasses import replace
from itertools import combinations, product

import pytest

from oracles import (
    brute_max_packing,
    enumerate_nonisomorphic,
    is_transitive_subset,
    packing_is_valid,
    scanned_copies,
)
from ttpack.constructions import qr7
from ttpack.packing import (
    Packing,
    PackingError,
    TTCopy,
    _copies_through_edges,
    _leave_bound,
    enumerate_copies,
    greedy_packing,
    max_packing_exact,
    verify_packing,
)
from ttpack.rng import stdlib_rng, sub_seed
from ttpack.tournament import (
    parse_tournament,
    random_tournament,
    transitive_tournament,
)


def test_enumerate_copies_on_transitive_host():
    from math import comb

    t = transitive_tournament(6)
    for k in (3, 4, 5):
        copies = enumerate_copies(t, k)
        assert len(copies.copies) == comb(6, k)
    assert len(enumerate_copies(parse_tournament("n=3\n101\n"), 3).copies) == 0


def test_copies_listed_in_vertex_tuple_order():
    t = transitive_tournament(5)
    vs = [c.vertices for c in enumerate_copies(t, 3).copies]
    assert vs == sorted(vs)


def _listed(t, k):
    return [(c.vertices, c.edge_mask) for c in enumerate_copies(t, k).copies]


def test_chain_walk_lists_the_scanned_copies_on_every_small_class(cache_dir):
    for n in range(3, 8):
        for t in enumerate_nonisomorphic(n, cache_dir=cache_dir):
            for k in range(3, min(4, n) + 1):
                assert _listed(t, k) == scanned_copies(t, k)
    for t in enumerate_nonisomorphic(8, cache_dir=cache_dir):
        assert _listed(t, 3) == scanned_copies(t, 3)


@pytest.mark.parametrize("n,seed,ks", [(12, 1, (3, 4, 5, 6)), (18, 2, (3, 4, 5, 6)),
                                       (24, 3, (3, 4, 5, 6)), (30, 4, (3, 4, 5))])
def test_chain_walk_lists_the_scanned_copies_on_random_hosts(n, seed, ks):
    t = random_tournament(n, seed)
    for k in ks:
        assert _listed(t, k) == scanned_copies(t, k)


def test_copy_listing_honours_its_own_deadline():
    # about C(64,6) * 6!/2^15, some 1.6 million copies: far more than 0.5 s lists
    t = random_tournament(64, 0)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        enumerate_copies(t, 6, start + 0.5)
    assert time.monotonic() - start < 1.5


def test_copy_listing_checks_its_deadline_before_the_sort(monkeypatch):
    import operator
    import types

    import ttpack.packing as packing

    made, keyed = [], []

    class Recorded(TTCopy):
        __slots__ = ()

        def __new__(cls, *fields):
            made.append(fields)
            return super().__new__(cls, *fields)

    def recorded_itemgetter(i):
        get = operator.itemgetter(i)

        def key(copy):
            keyed.append(copy)
            return get(copy)

        return key

    monkeypatch.setattr(packing, "TTCopy", Recorded)
    monkeypatch.setattr(packing, "itemgetter", recorded_itemgetter)
    t = random_tournament(12, 0)
    total = len(packing._transitive_chains(12, t.out, 3))
    assert total and len(keyed) == total  # the sort reads the key of every copy
    made.clear()
    keyed.clear()
    # the clock passes the deadline once the walk has listed its last copy
    clock = types.SimpleNamespace(monotonic=lambda: 2.0 if len(made) == total else 0.0)
    monkeypatch.setattr(packing, "time", clock)
    with pytest.raises(TimeoutError):
        packing._transitive_chains(12, t.out, 3, deadline=1.0)
    assert len(made) == total and not keyed


def test_copy_bitsets_match_per_copy_bits():
    # 10,744 copies, so the deadline is checked several times during the build
    t = random_tournament(30, 0)
    masks = [c.edge_mask for c in enumerate_copies(t, 4).copies]
    want = [0] * (30 * 29 // 2)
    for c, m in enumerate(masks):
        for e in range(len(want)):
            if m >> e & 1:
                want[e] |= 1 << c
    assert len(masks) > 10_000
    assert _copies_through_edges(masks, 30, None) == want
    assert _copies_through_edges(masks[:5], 30, None) == [w & 31 for w in want]
    assert _copies_through_edges([], 30, None) == [0] * len(want)
    with pytest.raises(TimeoutError):
        _copies_through_edges(masks, 30, time.monotonic() - 1)


def test_exact_matches_brute_force_on_order_four(cache_dir):
    for t in enumerate_nonisomorphic(4, cache_dir=cache_dir):
        for k in (3, 4):
            assert max_packing_exact(t, k).value == brute_max_packing(t, k)


# summed nodes_explored over every class of the order, per k
CLASS_NODES = {6: {3: 113, 4: 56}, 7: {3: 2_247, 4: 1_954}}


@pytest.mark.parametrize("n", [6, 7])
def test_exact_matches_brute_force_on_every_class(n, cache_dir):
    nodes = {3: 0, 4: 0}
    for t in enumerate_nonisomorphic(n, cache_dir=cache_dir):
        for k in (3, 4):
            p = max_packing_exact(t, k)
            assert p.value == brute_max_packing(t, k)
            nodes[k] += p.nodes_explored
    assert nodes == CLASS_NODES[n]


def test_exact_on_known_hosts():
    assert max_packing_exact(transitive_tournament(3), 3).value == 1
    assert max_packing_exact(parse_tournament("n=3\n101\n"), 3).value == 0
    # TT_7 packs perfectly: 21 edges / 3 per triple
    assert max_packing_exact(transitive_tournament(7), 3).value == 7
    # the maximum partial triple system on 5 points has 2 blocks
    assert max_packing_exact(transitive_tournament(5), 3).value == 2


def test_solver_reports_are_verifiable_and_deterministic():
    for seed in (0, 1, 2):
        t = random_tournament(9, seed)
        p1 = max_packing_exact(t, 3)
        p2 = max_packing_exact(t, 3)
        assert p1.optimal and verify_packing(t, p1)
        assert (p1.value, p1.copies, p1.nodes_explored) == (
            p2.value,
            p2.copies,
            p2.nodes_explored,
        )


def test_greedy_is_valid_and_below_exact():
    t = random_tournament(10, 5)
    exact = max_packing_exact(t, 3).value
    for seed in range(6):
        g = greedy_packing(t, 3, seed)
        assert verify_packing(t, g)
        assert not g.optimal
        assert g.value <= exact


def test_greedy_is_seed_deterministic():
    t = random_tournament(10, 5)
    assert greedy_packing(t, 3, 9).copies == greedy_packing(t, 3, 9).copies


def test_stop_at_aborts_early():
    t = transitive_tournament(7)
    p = max_packing_exact(t, 3, stop_at=2)
    assert p.value >= 2
    assert not p.optimal


def test_time_budget_marks_result_nonoptimal():
    # this host needs 152,854 nodes to prove, far more than fit in 0.05 s
    t = random_tournament(26, 2)
    p = max_packing_exact(t, 3, time_budget=0.05)
    assert not p.optimal
    assert p.value > 0
    assert verify_packing(t, p)


def test_time_budget_is_honoured_on_a_large_host():
    # a single node here costs tens of milliseconds, so the deadline must be
    # checked at every node and inside the hitting-set rounds
    t = random_tournament(40, 1)
    budget = 2.0
    start = time.monotonic()
    p = max_packing_exact(t, 3, time_budget=budget)
    assert time.monotonic() - start < 2 * budget + 1
    assert not p.optimal
    assert verify_packing(t, p)


def test_time_budget_covers_copy_enumeration():
    # listing this host's 198,161 copies takes over a second, so the
    # budget must stop the copy enumeration itself
    t = random_tournament(48, 3)
    budget = 1.0
    start = time.monotonic()
    p = max_packing_exact(t, 5, time_budget=budget)
    assert time.monotonic() - start < 2 * budget + 1
    assert not p.optimal
    assert verify_packing(t, p)


def test_deadline_after_the_bitsets_keeps_the_root_greedy(monkeypatch):
    # the budget runs out once the per-edge bitsets are built, so the search
    # gets no time at all; the root's greedy completion must still count
    import ttpack.packing as packing

    build = packing._copies_through_edges

    def slow_build(masks, n, deadline):
        rows = build(masks, n, deadline)
        while time.monotonic() <= deadline:
            time.sleep(0.01)
        return rows

    monkeypatch.setattr(packing, "_copies_through_edges", slow_build)
    t = random_tournament(12, 0)
    p = max_packing_exact(t, 3, time_budget=0.05)
    assert not p.optimal
    assert p.value > 0
    assert verify_packing(t, p)


def test_budgeted_large_host_searches_past_the_root():
    # the root's greedy completion packs 601 copies, so reaching 610 takes
    # nodes below the root; a greedy hitting set run to its end at every
    # node would spend the whole budget in the first few
    t = random_tournament(64, 0)
    p = max_packing_exact(t, 3, time_budget=30.0, stop_at=610)
    assert p.value >= 610
    assert not p.optimal
    assert verify_packing(t, p)


@pytest.mark.parametrize("n", [11, 17])
def test_leave_bound_proves_transitive_hosts(n):
    # every triple of a transitive host is transitive, and for n = 5 (mod 6)
    # the leave of any triangle packing of K_n has at least 4 edges
    t = transitive_tournament(n)
    p = max_packing_exact(t, 3)
    assert p.optimal
    assert p.value == n * (n - 1) // 6 - 1
    assert verify_packing(t, p)


def test_node_count_is_deterministic():
    p = max_packing_exact(random_tournament(11, 0), 3)
    assert (p.value, p.optimal, p.nodes_explored) == (17, True, 40)


def test_fewest_copies_branching_proves_a_perfect_packing_fast():
    # the root's leave bound is already 35 here, so the whole search is the
    # hunt for a perfect packing: 26,723 nodes when branching on the lowest
    # coverable edge
    t = random_tournament(15, 0)
    p = max_packing_exact(t, 3)
    assert (p.value, p.optimal, p.nodes_explored) == (35, True, 104)
    assert verify_packing(t, p)


def test_leave_bound_is_at_least_brute_force(cache_dir):
    for k, orders in ((3, range(1, 7)), (4, range(4, 7))):
        for n in orders:
            for t in enumerate_nonisomorphic(n, cache_dir=cache_dir):
                coverable = 0
                for c in enumerate_copies(t, k).copies if n >= k else ():
                    coverable |= c.edge_mask
                assert _leave_bound(coverable, n, k) >= brute_max_packing(t, k)


def test_verifier_rejects_overlap_and_bad_copies():
    t = transitive_tournament(6)
    p = max_packing_exact(t, 3)
    assert verify_packing(t, p)

    overlapping = replace(p, copies=((0, 1, 2), (1, 2, 3)))
    assert not verify_packing(t, overlapping)

    out_of_range = replace(p, copies=((0, 1, 9),))
    assert not verify_packing(t, out_of_range)


@pytest.mark.parametrize(
    "changes",
    [
        {"copies": ((-1, 0, 1),)},
        {"copies": ((0, 1, 1),)},
        {"copies": ((0, 1.0, 2),)},
        {"copies": ((0, True, 2),)},
        {"copies": ((0, 1, "2"),)},
        {"copies": ((0, 1, 2, 4),)},
        {"n": 8},
        {"k": 2, "copies": ((0, 1),)},
        {"k": 8, "copies": (tuple(range(7)) + (0,),)},
        {"copies": ((0, 1, 2), (1, 2, 5))},
        {"copies": ((0, 1, 2), (5, 2, 1))},
        {"copies": ((0, 1, 3),)},
    ],
    ids=[
        "negative-vertex",
        "repeated-vertex",
        "float-vertex",
        "bool-vertex",
        "string-vertex",
        "wrong-length",
        "order-mismatch",
        "k-below-3",
        "k-above-n",
        "overlap",
        "reversed-overlap",
        "cyclic-copy",
    ],
)
def test_verifier_rejection_table(changes):
    # on qr7, i beats i+1, i+2 and i+4 mod 7: (0,1,2), (1,2,5) and (2,3,4)
    # are transitive, in any vertex order, and 0->1->3->0 is a directed
    # triangle; True is the vertex 1 as a bool
    t = qr7()
    base = Packing(n=7, k=3, copies=((0, 1, 2),))
    assert verify_packing(t, base)
    assert verify_packing(t, replace(base, copies=((1, 2, 5),)))
    assert verify_packing(t, replace(base, copies=((5, 2, 1),)))
    # copies that meet in one vertex share no pair
    assert verify_packing(t, replace(base, copies=((0, 1, 2), (4, 3, 2))))
    assert not verify_packing(t, replace(base, **changes))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_verifier_agrees_with_a_pair_set_oracle(k):
    # seeded packings, valid and corrupted: a copy dropped, reordered,
    # repeated reversed, with one vertex swapped for a random vertex, a
    # vertex of another copy or a bad value, or with k - 1 or k + 1
    # vertices; a random copy added; and a cyclic or overlapping copy
    # added ahead of a copy with a bad vertex, which the verifier's bulk
    # screen meets first and a copy-by-copy check meets last
    rng = stdlib_rng(sub_seed(24, k))
    outcomes = {False: 0, True: 0}
    for trial in range(150):
        n = rng.randrange(k + 3, 13)
        t = random_tournament(n, sub_seed(k, trial))
        copies = [list(vs) for vs in greedy_packing(t, k, trial).copies]
        for _ in range(rng.randrange(3)):
            edit = rng.randrange(9)
            if edit == 0 and copies:
                copies.pop(rng.randrange(len(copies)))
            elif edit == 1 and copies:
                rng.shuffle(copies[rng.randrange(len(copies))])
            elif edit == 2 and copies:
                copies.append(copies[rng.randrange(len(copies))][::-1])
            elif edit == 3 and copies:
                copies[rng.randrange(len(copies))][rng.randrange(k)] = rng.randrange(n)
            elif edit == 4 and len(copies) > 1:
                a, b = rng.sample(range(len(copies)), 2)
                copies[a][rng.randrange(k)] = rng.choice(copies[b])
            elif edit == 5 and copies:
                copies[rng.randrange(len(copies))][rng.randrange(k)] = rng.choice([-1, n, True, 1.0])
            elif edit == 6 and copies:
                vs = copies[rng.randrange(len(copies))]
                if rng.randrange(2):
                    vs.pop(rng.randrange(k))
                else:
                    vs.append(rng.randrange(n))
            elif edit == 7 and copies:
                if rng.randrange(2):
                    copies.append(copies[rng.randrange(len(copies))][::-1])
                else:
                    cyclic = rng.sample(range(n), k)
                    while is_transitive_subset(t, cyclic):
                        cyclic = rng.sample(range(n), k)
                    copies.append(cyclic)
                bad = rng.sample(range(n), k)
                bad[rng.randrange(k)] = rng.choice([-1, n, True, 1.0, "1", None])
                copies.append(bad)
            else:
                copies.append(rng.sample(range(n), k))
        packing = tuple(map(tuple, copies))
        valid = packing_is_valid(t, k, packing)
        assert verify_packing(t, Packing(n=n, k=k, copies=packing)) == valid, (n, trial, packing)
        outcomes[valid] += 1
    assert min(outcomes.values()) >= 30, outcomes


@pytest.mark.parametrize("k", [3, 4, 5])
def test_verifier_agrees_with_the_oracle_on_short_and_repeated_copies(k):
    # the verifier has no length or distinct-vertex check of its own, so
    # its met and seen checks must reject each such copy the oracle does:
    # every copy of at most 3 vertices, repeats included, the empty copy,
    # one-vertex copies and (v, v, v) among them; every set of k - 1, k
    # and k + 1 distinct vertices; and every k-set with its last vertex
    # repeated in place of another, or with its first vertex repeated at
    # its end; each alone and after an empty copy
    n = 8
    t = random_tournament(n, sub_seed(2, k))
    # a transitive (k + 1)-set holds all k low out-degrees and one more
    assert any(is_transitive_subset(t, vs) for vs in combinations(range(n), k + 1))
    shapes = [vs for length in range(4) for vs in product(range(n), repeat=length)]
    shapes += [vs for length in (k - 1, k, k + 1) for vs in combinations(range(n), length)]
    shapes += [vs[:i] + vs[-1:] + vs[i + 1 :] for vs in combinations(range(n), k) for i in range(k - 1)]
    shapes += [vs + vs[:1] for vs in combinations(range(n), k)]
    outcomes = {False: 0, True: 0}
    for vs in shapes:
        for copies in ((vs,), ((), vs)):
            valid = packing_is_valid(t, k, copies)
            assert verify_packing(t, Packing(n=n, k=k, copies=copies)) == valid, copies
            outcomes[valid] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


def test_verifier_rejects_nontransitive_copy():
    t = parse_tournament("n=4\n101111\n")
    # find a cyclic triple in this host and present it as a copy
    cyclic = next(
        vs for vs in combinations(range(4), 3) if not is_transitive_subset(t, vs)
    )
    assert not verify_packing(t, Packing(n=4, k=3, copies=(cyclic,)))


def test_rejects_bad_parameters():
    t = transitive_tournament(5)
    with pytest.raises(PackingError):
        max_packing_exact(t, 2)
    with pytest.raises(PackingError):
        max_packing_exact(t, 6)


def test_larger_k_against_brute_force():
    for host, k in ((transitive_tournament(6), 4), (transitive_tournament(7), 4),
                    (random_tournament(7, 11), 4), (transitive_tournament(7), 5)):
        assert max_packing_exact(host, k).value == brute_max_packing(host, k)


def test_larger_k_known_collision_limits():
    t = transitive_tournament(8)
    # any two K_5s on 8 points share a pair, and a third edge-disjoint K_4
    # never fits after the first two
    assert max_packing_exact(t, 5).value == 1
    assert max_packing_exact(t, 4).value == 2
