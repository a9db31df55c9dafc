"""Exact branch-and-bound solver, greedy baseline, and the verifier."""

import hashlib
import json
import time
from itertools import combinations, count, product

import pytest

from oracles import (
    brute_max_packing,
    edge_mask,
    enumerate_nonisomorphic,
    is_transitive_subset,
    packing_is_valid,
    scanned_copies,
)
from ttpack.constructions import blowup, intra_class_edge_bound, qr7, turan3_tournament
from ttpack.packing import (
    Packing,
    _copies_at_vertices,
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
    vs = list(enumerate_copies(t, 3).copies)
    assert vs == sorted(vs)


def _listed(t, k):
    # a copy is its vertex tuple; the oracle's scan pairs each with its mask
    return [(vs, edge_mask(t.n, vs)) for vs in enumerate_copies(t, k).copies]


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
    # about C(64,6) * 6!/2^15, some 1.6 million copies: listing them all
    # takes about 2 s on a 2-core Xeon, Python 3.11.7, far more than 0.5 s
    t = random_tournament(64, 0)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        enumerate_copies(t, 6, start + 0.5)
    assert time.monotonic() - start < 1.5


def test_copy_listing_checks_its_deadline_after_the_walk(monkeypatch):
    import types

    import ttpack.packing as packing

    def walk(passed_at):
        # a clock that counts its reads and passes the deadline at read
        # passed_at alone
        reads = count(1)
        clock = types.SimpleNamespace(monotonic=lambda: 2.0 if next(reads) == passed_at else 0.0)
        monkeypatch.setattr(packing, "time", clock)
        try:
            return packing._transitive_chains(12, t.out, 3, deadline=1.0)
        finally:
            assert next(reads) == 13

    # the walk reads 12 times: at the empty prefix, at the ten one-vertex
    # prefixes 0..9 with two higher vertices, and once after the walk.  On
    # a transitive host the last copy, (9, 10, 11), is made under the
    # prefix 9, so no read inside the walk follows that copy
    t = transitive_tournament(12)
    listed = walk(None)
    assert len(listed) == 220 and listed[-1] == (9, 10, 11)
    # the clock passes the deadline at the walk's last read alone
    with pytest.raises(TimeoutError) as raised:
        walk(12)
    # _check_deadline raised, called by the walk's function, not by grow
    assert [entry.name for entry in raised.traceback[-2:]] == ["_transitive_chains", "_check_deadline"]


def test_the_walk_and_the_search_leave_no_reference_cycle():
    # a recursive closure reaches itself through its cell.  Left as it is,
    # the cycle holds the listed copies, or the search's bitsets, until a
    # full collection, which lists of int tuples seldom set off: 30
    # budgeted k = 4 solves of 40-vertex hosts reached 150 MB of RSS
    import gc

    t = random_tournament(12, 0)
    gc.collect()
    gc.disable()
    try:
        enumerate_copies(t, 3)
        max_packing_exact(t, 3)
        max_packing_exact(t, 3, node_budget=2)
        try:
            enumerate_copies(t, 3, time.monotonic() - 1)
        except TimeoutError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_copy_bitsets_match_per_copy_bits():
    # 10,744 copies, so the deadline is checked several times during the build
    t = random_tournament(30, 0)
    copies = enumerate_copies(t, 4).copies
    want = [0] * (30 * 29 // 2)
    for c, vs in enumerate(copies):
        mask = edge_mask(30, vs)
        for e in range(len(want)):
            if mask >> e & 1:
                want[e] |= 1 << c
    assert len(copies) > 10_000

    def through_edges(copies):
        # the copies through the pair {u, v} are those at both u and v
        row = _copies_at_vertices(copies, 30, None)
        return [row[u] & row[v] for u, v in combinations(range(30), 2)]

    assert through_edges(copies) == want
    assert through_edges(copies[:5]) == [w & 31 for w in want]
    assert _copies_at_vertices([], 30, None) == [0] * 30
    with pytest.raises(TimeoutError):
        _copies_at_vertices(copies, 30, time.monotonic() - 1)


def test_exact_matches_brute_force_on_order_four(cache_dir):
    for t in enumerate_nonisomorphic(4, cache_dir=cache_dir):
        for k in (3, 4):
            assert max_packing_exact(t, k).value == brute_max_packing(t, k)


# summed nodes_explored over every class of the order, per k; before a
# node stopped branching once the incumbent met its leave bound they were
# {6: {3: 113, 4: 56}, 7: {3: 2_247, 4: 1_954}}, and 7: {4: 1_858} before
# the leave bound's zero-residue case held at every k, not only at k = 3;
# {6: {3: 84}, 7: {3: 1_292, 4: 979}} while a node took its branch copies
# in index order and the root's hitting set gave no ceiling
CLASS_NODES = {6: {3: 78, 4: 56, 5: 56, 6: 56}, 7: {3: 1_216, 4: 941}}


@pytest.mark.parametrize("n", [6, 7])
def test_exact_matches_brute_force_on_every_class(n, cache_dir):
    nodes = dict.fromkeys(CLASS_NODES[n], 0)
    for t in enumerate_nonisomorphic(n, cache_dir=cache_dir):
        for k in nodes:
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


def test_time_budget_marks_result_nonoptimal():
    # proving this host's optimum of 104 copies takes 152,181 nodes, about
    # 13 s on a 2-core Xeon, Python 3.11.7: far more than fit in 0.05 s
    t = random_tournament(26, 2)
    p = max_packing_exact(t, 3, time_budget=0.05)
    assert not p.optimal
    assert p.value > 0
    assert verify_packing(t, p)


def test_time_budget_is_honoured_on_a_large_host():
    # a node here costs milliseconds, so the deadline must be checked at
    # every node and inside the hitting-set rounds.  2 s reach about 360
    # nodes on a 2-core Xeon, Python 3.11.7, and the host's search holds 656
    # copies, not proved optimal, after 2,000 and after 20,000 nodes, so a
    # solver many times faster still stops on the budget here
    t = random_tournament(64, 0)
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

    build = packing._copies_at_vertices

    def slow_build(copies, n, deadline):
        rows = build(copies, n, deadline)
        while time.monotonic() <= deadline:
            time.sleep(0.01)
        return rows

    monkeypatch.setattr(packing, "_copies_at_vertices", slow_build)
    t = random_tournament(12, 0)
    p = max_packing_exact(t, 3, time_budget=0.05)
    assert not p.optimal
    assert p.value > 0
    assert verify_packing(t, p)


def test_budgeted_large_host_searches_past_the_root(monkeypatch):
    # the root's greedy completion packs 601 copies, so 607 takes nodes
    # below the root; a greedy hitting set run to its end at every node
    # would spend the whole budget in the first few.  The solver's clock
    # advances 10 ms on each read, so the 3.0 s budget is 300 reads on any
    # machine: the search holds 607 copies after 156 nodes, not proved
    # optimal, in about 1.4 s of real time on a 2-core Xeon, Python 3.11.7.
    # The listing reads 64 times (at the empty prefix, at the 62 one-vertex
    # prefixes with two higher vertices, and once after the walk), the
    # bitset build 31 times, and the root's ceiling 50 times before it
    # gives up; no other hitting-set round runs.  The pin moves if a clock
    # read moves, so it is retaken only with a change to the solver, as
    # CLASS_NODES is; it was 615 copies after 206 nodes before the ceiling
    # and the copy order, and 203 nodes while the listing walked dominance
    # chains, read 67 times
    import ttpack.packing as packing

    reads = count()
    monkeypatch.setattr(packing.time, "monotonic", lambda: next(reads) * 0.01)
    t = random_tournament(64, 0)
    p = max_packing_exact(t, 3, time_budget=3.0)
    assert (p.value, p.nodes_explored, p.optimal) == (607, 156, False)
    assert next(reads) == 302  # the deadline's own read, then 301 checks
    assert verify_packing(t, p)


def test_budgeted_search_checks_the_deadline_in_hitting_set_rounds(monkeypatch):
    # here 15 of the 52 clock reads are rounds, 10 of them the root's
    # ceiling, so without their check the same 0.5 s of 10 ms reads ends
    # after 23 nodes holding 97 copies.  The listing reads 26 times; it
    # read 29 times, and the search stopped after 10 nodes, while the
    # listing walked dominance chains.  Before the ceiling and the copy
    # order the search stopped after 11 nodes, with 12 rounds
    import ttpack.packing as packing

    reads = count()
    monkeypatch.setattr(packing.time, "monotonic", lambda: next(reads) * 0.01)
    t = random_tournament(26, 2)
    p = max_packing_exact(t, 3, time_budget=0.5)
    assert (p.value, p.nodes_explored, p.optimal) == (95, 8, False)
    assert next(reads) == 52
    assert verify_packing(t, p)


def test_a_deadline_inside_the_ceiling_keeps_the_root_greedy(monkeypatch):
    # the clock of the hitting-set pin above: the listing and the bitsets
    # read 28 times after the deadline's own read, the root checks at read
    # 29, and its ceiling's 10 rounds read 30-39 before the set is given
    # up.  A deadline of 0.335 s passes at read 34, inside those rounds, so
    # the result is the root's greedy completion; without the rounds'
    # check the search ran on to 6 nodes
    import ttpack.packing as packing

    t = random_tournament(26, 2)
    root = max_packing_exact(t, 3, node_budget=1)
    reads = count()
    monkeypatch.setattr(packing.time, "monotonic", lambda: next(reads) * 0.01)
    p = max_packing_exact(t, 3, time_budget=0.335)
    assert (p.value, p.nodes_explored, p.optimal) == (92, 1, False)
    assert next(reads) == 35
    assert p == root
    assert verify_packing(t, p)


@pytest.mark.parametrize("budget, value", [(203, 615), (500, 643)])
def test_node_budget_stops_the_large_host_at_its_last_node(budget, value):
    # a node budget reads no clock, so these pins hold on any machine; 500
    # nodes packed 638 before the copy order.  2,000 nodes pack 658 (656
    # before the copy order) in about 8 s of CPU on a shared 2-core Xeon,
    # Python 3.11.7, too slow to pin here
    t = random_tournament(64, 0)
    p = max_packing_exact(t, 3, node_budget=budget)
    assert (p.value, p.nodes_explored, p.optimal) == (value, budget, False)
    assert verify_packing(t, p)


def test_the_budget_that_runs_out_first_stops_the_search(monkeypatch):
    # the clock of the hitting-set pin above: 0.5 s alone stops the search
    # after 8 nodes and 52 reads
    import ttpack.packing as packing

    t = random_tournament(26, 2)

    def solve(node_budget):
        reads = count()
        monkeypatch.setattr(packing.time, "monotonic", lambda: next(reads) * 0.01)
        p = max_packing_exact(t, 3, time_budget=0.5, node_budget=node_budget)
        assert verify_packing(t, p)
        return p.value, p.nodes_explored, p.optimal, next(reads)

    assert solve(5) == (94, 5, False, 44)  # the node budget first
    assert solve(12) == (95, 8, False, 52)  # the time budget first
    # a search that ends before its node budget is optimal; one that would
    # end at the budget's last node is stopped there
    t = random_tournament(11, 0)
    assert max_packing_exact(t, 3, node_budget=11) == max_packing_exact(t, 3)
    p = max_packing_exact(t, 3, node_budget=10)
    assert (p.value, p.nodes_explored, p.optimal) == (17, 10, False)


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
    # 40 nodes before a node stopped branching once the incumbent met its
    # leave bound, and 15 while a node took its branch copies in index
    # order; the optimum is found at node 10
    p = max_packing_exact(random_tournament(11, 0), 3)
    assert (p.value, p.optimal, p.nodes_explored) == (17, True, 10)


def test_fewest_copies_branching_proves_a_perfect_packing_fast():
    # the root's leave bound is already 35 here, so the whole search is the
    # hunt for a perfect packing: 26,723 nodes when branching on the lowest
    # coverable edge, 104 on the fewest copies while a node still branched
    # after the incumbent met its leave bound, and 29 while a node took its
    # branch copies in index order
    t = random_tournament(15, 0)
    p = max_packing_exact(t, 3)
    assert (p.value, p.optimal, p.nodes_explored) == (35, True, 19)
    assert verify_packing(t, p)


def test_random_hosts_pack_their_root_leave_bound():
    # the digest of the (n, seed, value, copies) lines moves with the copy
    # order, which picks among the optima: it was 7d2e5ce3... while a node
    # took its branch copies in index order, when the hosts took 3,968
    # nodes, and 8,317 before a node stopped branching once the incumbent
    # met its leave bound
    lines = []
    nodes = 0
    for n, s in product(range(11, 18), range(10)):
        t = random_tournament(n, s)
        p = max_packing_exact(t, 3)
        assert p.optimal
        coverable = 0
        for vs in enumerate_copies(t, 3).copies:
            coverable |= edge_mask(n, vs)
        assert p.value == _leave_bound(coverable, n, 3)
        lines.append(json.dumps([n, s, p.value, p.copies]))
        nodes += p.nodes_explored
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "37098725ac6c9c51a5e3d13abadad8c78a5e00a6a622b7bb9fdd69d3afbbbadf"
    assert nodes == 3_699


def test_solve_benchmark_hosts_node_counts():
    # the hosts of the solve benchmark: random orders 11-15 at seed 0, k = 3,
    # and the blow-up of qr7 at k = 4, 113 nodes in all; 15, 20, 75, 144, 29
    # and 18 nodes, 301 in all, while a node took its branch copies in
    # index order and the root's hitting set gave no ceiling; 40, 57, 113,
    # 209, 104 and 18 nodes, 541 in all, before a node stopped branching
    # once the incumbent met its leave bound
    hosts = [(random_tournament(n, 0), 3) for n in range(11, 16)] + [(blowup(qr7(), 2), 4)]
    nodes = [max_packing_exact(t, k).nodes_explored for t, k in hosts]
    assert nodes == [10, 27, 22, 33, 19, 2]


def test_the_solver_proves_the_gate_host_optimum():
    # 392 = C(49,2) / 3 is the root's leave bound, so the packing is a
    # perfect one; the search held 388 after 3,000 nodes while a node took
    # its branch copies in index order.  About 1 s of CPU on a 2-core Xeon,
    # Python 3.11.7, and a node budget reads no clock
    t = random_tournament(49, 7)
    p = max_packing_exact(t, 3, node_budget=1000)
    assert (p.value, p.optimal, p.nodes_explored) == (392, True, 391)
    assert verify_packing(t, p)


def test_the_root_ceiling_closes_the_structured_hosts():
    # every transitive triple of the three-class host holds an intra-class
    # edge, so those edges hit every copy, and the root's greedy hitting
    # set has the formula's size; at n = 27 and 29 the search holds one
    # copy fewer after 50,000 nodes.  Without the ceiling n = 20 held 57,
    # not proved optimal, after 50,000 nodes, and n = 30 took 618
    nodes = {}
    for n in sorted(set(range(6, 31)) - {27, 29}):
        t = turan3_tournament(n)
        p = max_packing_exact(t, 3, node_budget=1000)
        assert (p.value, p.optimal) == (intra_class_edge_bound(n), True), n
        nodes[n] = p.nodes_explored
    assert (nodes[20], nodes[30]) == (35, 134)
    # criterion 8's P_4 <= 7 on the blow-up of qr7, as 7 edges hitting
    # every copy: 18 nodes without the ceiling
    p = max_packing_exact(blowup(qr7(), 2), 4)
    assert (p.value, p.optimal, p.nodes_explored) == (7, True, 2)


@pytest.mark.parametrize(
    "n, k, bound",
    [(7, 4, 2), (9, 5, 2), (13, 4, 13), (11, 3, 17)],
    ids=["K7-k4", "K9-k5", "K13-k4", "K11-k3"],
)
def test_leave_bound_on_every_pair_of_k_n(n, k, bound):
    # K_7 at k = 4 and K_9 at k = 5 have every degree a multiple of k - 1
    # and an edge count that C(k,2) does not divide, so some leave has
    # C(k,2) edges; 78 is a multiple of 6, so K_13 keeps its 13 K_4s, and
    # K_11's leave at k = 3 has 3 edges or more, so 4
    assert _leave_bound((1 << n * (n - 1) // 2) - 1, n, k) == bound


@pytest.mark.parametrize("n, k", [(7, 4), (9, 5)])
def test_leave_bound_closes_the_transitive_host_at_the_root(n, k):
    # 19 and 69 nodes while the zero-residue case held only at k = 3
    p = max_packing_exact(transitive_tournament(n), k)
    assert (p.value, p.optimal, p.nodes_explored) == (2, True, 1)


def test_leave_bound_is_at_least_brute_force(cache_dir):
    for k, orders in ((3, range(1, 7)), (4, range(4, 7))):
        for n in orders:
            for t in enumerate_nonisomorphic(n, cache_dir=cache_dir):
                coverable = 0
                for vs in enumerate_copies(t, k).copies if n >= k else ():
                    coverable |= edge_mask(n, vs)
                assert _leave_bound(coverable, n, k) >= brute_max_packing(t, k)


def test_verifier_rejects_overlap_and_bad_copies():
    t = transitive_tournament(6)
    p = max_packing_exact(t, 3)
    assert verify_packing(t, p)

    overlapping = p._replace(copies=((0, 1, 2), (1, 2, 3)))
    assert not verify_packing(t, overlapping)

    out_of_range = p._replace(copies=((0, 1, 9),))
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
        {"copies": ((0, 1, 7),)},
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
        "vertex-equal-to-n",
    ],
)
def test_verifier_rejection_table(changes):
    # on qr7, i beats i+1, i+2 and i+4 mod 7: (0,1,2), (1,2,5) and (2,3,4)
    # are transitive, in any vertex order, and 0->1->3->0 is a directed
    # triangle; True is the vertex 1 as a bool
    t = qr7()
    base = Packing(n=7, k=3, copies=((0, 1, 2),))
    assert verify_packing(t, base)
    assert verify_packing(t, base._replace(copies=((1, 2, 5),)))
    assert verify_packing(t, base._replace(copies=((5, 2, 1),)))
    # copies that meet in one vertex share no pair
    assert verify_packing(t, base._replace(copies=((0, 1, 2), (4, 3, 2))))
    assert not verify_packing(t, base._replace(**changes))


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
    with pytest.raises(ValueError, match="k must satisfy 3 <= k <= n=5, got 2"):
        max_packing_exact(t, 2)
    with pytest.raises(ValueError, match="k must satisfy 3 <= k <= n=5, got 6"):
        max_packing_exact(t, 6)
    for budget in (0, -1):
        with pytest.raises(ValueError, match=f"^node_budget must be at least 1, got {budget}$"):
            max_packing_exact(t, 3, node_budget=budget)


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
