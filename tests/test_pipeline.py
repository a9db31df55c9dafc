"""Threshold sweeps, minimum packing values, expectation identities, the
rational LP corner, and the 49-vertex decomposition pipeline."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from oracles import canonical_code, edge_disjoint_families, is_transitive_subset, least_fit, reverse
from ttpack import enumeration, pipeline
from ttpack.designs import _orbit, ag2_lines, all_sts7
from ttpack.enumeration import enumerate_codes
from ttpack.packing import Packing, max_packing_exact, verify_packing
from ttpack.pipeline import (
    REGIMES,
    PipelineError,
    decomposition_pipeline,
    f_min,
    induced_expectation_check,
    lp_step,
    verify_t7_thresholds,
)
from ttpack.constructions import turan3_tournament
from ttpack.rng import stdlib_rng, sub_seed
from ttpack.tournament import (
    Tournament,
    census,
    induced,
    random_tournament,
    tournament_bits,
    tournament_from_code,
    transitive_tournament,
)


def test_threshold_sweep_covers_every_class(threshold_report):
    records = threshold_report.records
    assert len(records) == 456
    # the thresholds, read off every class: t <= 4 packs 7, t <= 11 at least 6, and every class at least 5
    assert all(r.p == 7 for r in records if r.t <= 4)
    assert all(r.p >= 6 for r in records if r.t <= 11)
    assert all(r.p >= 5 for r in records)
    assert threshold_report.min_packing() == 5
    assert REGIMES == ((0, 7), (5, 6), (12, 5))


def test_joint_distribution_head(threshold_report):
    # every (t, P) cell of the 456 classes, as perfbench/reference.json holds them
    assert threshold_report.joint_distribution() == {
        (0, 7): 1,
        (1, 7): 5,
        (2, 7): 7,
        (3, 7): 8,
        (4, 7): 17,
        (5, 6): 1,
        (5, 7): 22,
        (6, 6): 3,
        (6, 7): 36,
        (7, 6): 2,
        (7, 7): 38,
        (8, 6): 5,
        (8, 7): 54,
        (9, 6): 6,
        (9, 7): 55,
        (10, 6): 8,
        (10, 7): 71,
        (11, 6): 9,
        (11, 7): 43,
        (12, 5): 1,
        (12, 6): 7,
        (12, 7): 39,
        (13, 5): 1,
        (13, 6): 4,
        (13, 7): 10,
        (14, 6): 2,
        (14, 7): 1,
    }


def test_threshold_sweep_is_the_same_at_two_workers(cache_dir, threshold_report):
    assert verify_t7_thresholds(cache_dir, workers=2).records == threshold_report.records


def force_copies(monkeypatch, code, edit):
    # the class scan moves this class into a part of its own, with
    # edit(its lines) in place of its lines; every other class keeps its
    # part, and every class its t
    original = pipeline._scan_classes

    def forced(n, codes, k):
        target = 1 << codes.index(code)
        parts, ts = original(n, codes, k)
        own = next(lines for lines, classes in parts if classes & target)
        rest = [(lines, classes & ~target) for lines, classes in parts if classes & ~target]
        return [*rest, (edit(own), target)], ts

    monkeypatch.setattr(pipeline, "_scan_classes", forced)


@pytest.mark.parametrize(
    "ts, value",
    [
        (range(0, 1), 6),  # t <= 4 must pack 7
        (range(5, 12), 5),  # t <= 11 must pack at least 6
        (range(12, 15), 4),  # every class must pack at least 5
        (range(5, 12), 8),  # 8 triples need 24 > C(7,2) pairs, so they fail verification
    ],
)
def test_threshold_sweep_rejects_a_class_outside_its_regime(cache_dir, threshold_report, monkeypatch, ts, value):
    code = next(r.code for r in threshold_report.records if r.t in ts)
    force_copies(monkeypatch, code, lambda copies: (copies * 2)[:value])
    if value > comb(7, 2) // 3:
        message = f"class {code} has a packing of {value} copies that fails verification"
    else:
        message = f"class {code} has t=.* but P={value},"
    with pytest.raises(PipelineError, match=message):
        verify_t7_thresholds(cache_dir)


def test_threshold_sweep_verifies_every_packing_it_counts(cache_dir, threshold_report, monkeypatch):
    # seven copies of one triple stay inside the t=0 regime's [7, 7], but share edges
    code = next(r.code for r in threshold_report.records if r.t == 0)
    force_copies(monkeypatch, code, lambda copies: copies[:1] * 7)
    with pytest.raises(PipelineError, match=f"class {code} has a packing of 7 copies that fails verification"):
        verify_t7_thresholds(cache_dir)


@pytest.mark.parametrize(
    "t, value, message",
    [
        (0, 6, "has t=0 but P=6, outside"),
        (0, 8, "has a packing of 8 copies that fails verification"),
    ],
    ids=["regime", "verification"],
)
def test_threshold_sweep_fails_closed_at_two_workers(cache_dir, threshold_report, monkeypatch, t, value, message):
    # on a warm cache no worker is forked: the scan, verification and the
    # regime check all run in the caller, so the patch holds at two workers
    code = next(r.code for r in threshold_report.records if r.t == t)
    force_copies(monkeypatch, code, lambda copies: (copies * 2)[:value])
    with pytest.raises(PipelineError, match=f"class {code} {message}"):
        verify_t7_thresholds(cache_dir, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_threshold_sweep_rejects_a_class_no_fano_plane_packs(cache_dir, monkeypatch, workers):
    # with one plane left in the table, some class has 3 or more cyclic
    # lines on it, where the scan proves no upper bound; with every regime
    # floor at 0, the scan's own check is the one that must stop the sweep
    planes = pipeline._max_packings(7, 3)[:1]
    monkeypatch.setattr(pipeline, "_max_packings", lambda n, k: planes)
    monkeypatch.setattr(pipeline, "REGIMES", ((0, 0),))
    with pytest.raises(PipelineError, match="^no maximum packing has under 3 non-transitive lines on class [01]{21}$"):
        verify_t7_thresholds(cache_dir, workers=workers)


def test_threshold_sweep_pools_no_job_on_a_warm_cache(cache_dir, threshold_report, monkeypatch):
    # the scan reads and verifies every class in this process; the workers
    # serve only a cold class-list build
    pooled = []
    original = pipeline._pool_map

    def recording(fn, jobs, workers):
        pooled.append((fn, tuple(jobs), workers))
        return original(fn, jobs, workers)

    monkeypatch.setattr(pipeline, "_pool_map", recording)
    assert verify_t7_thresholds(cache_dir, workers=2) == threshold_report
    assert pooled == []


def test_threshold_sweep_scans_without_solving(cache_dir, threshold_report, monkeypatch):
    # every class's value is a verified packing of exactly that many
    # copies, and no class is solved
    verified = []
    original = pipeline.verify_packing

    def recording(t, p):
        verified.append((t.out, p.value))
        return original(t, p)

    def no_search(t, k, **kwargs):
        raise AssertionError("the threshold sweep must not solve a class")

    monkeypatch.setattr(pipeline, "verify_packing", recording)
    monkeypatch.setattr(pipeline, "max_packing_exact", no_search)
    assert verify_t7_thresholds(cache_dir, workers=1) == threshold_report
    assert verified == [(tournament_from_code(r.code).out, r.p) for r in threshold_report.records]


def test_six_edge_disjoint_triples_on_seven_points_lie_in_a_fano_plane():
    # the completion lemma behind the scan's upper bound at n = 7: every
    # family of 6 pairwise edge-disjoint triples lies inside one of the 30
    # planes, and every family of 7 is one
    planes = set(map(frozenset, pipeline._max_packings(7, 3)))
    families = edge_disjoint_families(7, 3)
    assert all(any(family <= plane for plane in planes) for family in families[6])
    assert families[7] == planes
    assert (len(families[6]), len(families[7]), 8 in families) == (30 * 7, 30, False)


@pytest.mark.parametrize(
    "n, size, count", [(3, 1, 1), (4, 1, 4), (5, 2, 15), (6, 4, 30), (7, 7, 30), (8, 8, 840)], ids=range(3, 9)
)
def test_max_packing_table_holds_every_maximum_family(n, size, count):
    # the table is exactly the families of the most pairwise edge-disjoint
    # triples
    table = pipeline._max_packings(n, 3)
    families = edge_disjoint_families(n, 3)
    assert max(families) == size
    assert len(families[size]) == len(table) == count
    assert set(map(frozenset, table)) == families[size]
    for lines in table:
        assert len(lines) == size
        pairs = [pair for line in lines for pair in combinations(line, 2)]
        assert len(set(pairs)) == len(pairs) == 3 * size
        if n == 7:
            assert sorted(pairs) == list(combinations(range(7), 2))


def test_order_7_table_lists_the_planes_of_all_sts7_in_order():
    # pipeline and verify lemma22 take the first least plane, so the table
    # keeps designs' order of the 30 labeled planes
    assert list(pipeline._max_packings(7, 3)) == [d.blocks for d in all_sts7()]


ABOVE_K3 = [(n, k) for n in range(4, 9) for k in range(4, n + 1)]


@pytest.mark.parametrize("n, k", ABOVE_K3, ids=[f"{n}-{k}" for n, k in ABOVE_K3])
def test_max_packing_table_above_k3_holds_every_maximum_family(n, k):
    # the search's table is exactly the families of the most pairwise
    # edge-disjoint k-subsets, found by the oracle's own search, sorted;
    # the pins are M = 2 with 70 and 595 entries at (7, 4) and (8, 4), and
    # every k-subset alone elsewhere
    table = pipeline._max_packings(n, k)
    families = edge_disjoint_families(n, k)
    size = max(families)
    assert (size, len(table)) == {(7, 4): (2, 70), (8, 4): (2, 595)}.get((n, k), (1, comb(n, k)))
    assert set(map(frozenset, table)) == families[size]
    assert list(table) == sorted(table)
    for lines in table:
        assert len(lines) == size


def test_max_packing_build_that_loses_an_entry_raises(monkeypatch):
    # the line (0, 1, 2) reads as one pair three times, so the certificate
    # drops the one entry of K_4 that holds it; the count pin raises
    # explicitly, so this holds under python -O too
    def pairs(line, r):
        return [line[:2]] * 3 if line == (0, 1, 2) else combinations(line, r)

    monkeypatch.setattr(pipeline, "combinations", pairs)
    with pytest.raises(PipelineError, match="^3 labeled maximum K_3-packings of K_4 passed, not 4$"):
        pipeline._max_packings.__wrapped__(4, 3)


def test_max_packing_build_drops_a_line_outside_the_index(monkeypatch):
    # one plane with one line reversed holds no k-subset of combinations
    # order, so the certificate drops that plane and the count pin raises,
    # not a KeyError
    first, *rest = all_sts7()
    lines = (first.blocks[0][::-1], *first.blocks[1:])
    monkeypatch.setattr(pipeline, "all_sts7", lambda: (first._replace(blocks=lines), *rest))
    with pytest.raises(PipelineError, match="^29 labeled maximum K_3-packings of K_7 passed, not 30$"):
        pipeline._max_packings.__wrapped__(7, 3)


def test_packing_value_is_reversal_invariant(threshold_report):
    by_code = {r.code: r.p for r in threshold_report.records}
    for i, record in enumerate(threshold_report.records):
        if i % 23:
            continue
        mirrored = canonical_code(reverse(tournament_from_code(record.code)))
        assert by_code[mirrored] == record.p


def test_f_min_small_values(cache_dir):
    for n, expected in ((3, 0), (4, 1), (5, 2), (6, 3)):
        record = f_min(n, cache_dir=cache_dir)
        assert record.f == expected
        # certification: re-solving an argmin class reproduces the minimum
        worst = tournament_from_code(record.argmin_codes[0])
        assert max_packing_exact(worst, 3).value == expected


def test_f_min_argmin_class_counts(cache_dir):
    assert len(f_min(4, cache_dir=cache_dir).argmin_codes) == 4
    assert len(f_min(5, cache_dir=cache_dir).argmin_codes) == 12


@pytest.mark.parametrize("n", range(3, 8))
def test_f_min_matches_unthresholded_solves_of_every_class(cache_dir, n):
    # an independent route: no threshold, no witness pool
    values = {
        code: max_packing_exact(tournament_from_code(code), 3).value
        for code in enumerate_codes(n, cache_dir=cache_dir)
    }
    least = min(values.values())
    record = f_min(n, cache_dir=cache_dir)
    assert record.f == least
    assert record.argmin_codes == tuple(sorted(c for c, v in values.items() if v == least))


@pytest.mark.parametrize("n", [7, 8])
def test_f_min_is_the_same_at_two_workers(cache_dir, n):
    assert f_min(n, cache_dir=cache_dir, workers=2) == f_min(n, cache_dir=cache_dir, workers=1)


def test_f_min_at_k4_is_the_same_at_two_workers(cache_dir):
    # at k = 4 the scan reads every class in this process, and the pool
    # re-solves the argmin
    assert f_min(7, k=4, cache_dir=cache_dir, workers=2) == f_min(7, k=4, cache_dir=cache_dir, workers=1)


def test_cold_class_builds_use_the_sweeps_workers(cache_dir, threshold_report, tmp_path, monkeypatch):
    codes = enumerate_codes(7, cache_dir=cache_dir)
    record = f_min(6, cache_dir=cache_dir)
    pooled = []
    original = enumeration._pool_map

    def recording(fn, jobs, workers):
        pooled.append((fn, workers))
        return original(fn, jobs, workers)

    monkeypatch.setattr(enumeration, "_pool_map", recording)
    cold = str(tmp_path / "sweep")
    assert verify_t7_thresholds(cold, workers=2) == threshold_report
    assert enumerate_codes(7, cache_dir=cold) == codes
    assert f_min(6, cache_dir=str(tmp_path / "fmin"), workers=2) == record
    # orders 2-7 built for the sweep, then orders 2-6 for the minimum
    assert pooled == [(enumeration._extension_codes, 2)] * 11


def test_f_min_re_solves_its_argmin_in_the_sweeps_pool(cache_dir, monkeypatch):
    pooled = []
    original = pipeline._pool_map

    def recording(fn, jobs, workers):
        pooled.append((fn.func, fn.keywords, tuple(jobs), workers))
        return original(fn, jobs, workers)

    monkeypatch.setattr(pipeline, "_pool_map", recording)
    # at k = 5, as at k = 3, the scan reads every class in this process,
    # and the workers serve the argmin re-solves alone
    record = f_min(6, 5, cache_dir=cache_dir, workers=2)
    assert pooled == [(pipeline._solve_code, {"k": 5}, record.argmin_codes, 2)]


def test_f_min_at_k3_pools_only_its_argmin_re_solves(cache_dir, monkeypatch):
    # the scan reads every class in this process; the workers serve the
    # re-solves alone
    pooled = []
    original = pipeline._pool_map

    def recording(fn, jobs, workers):
        pooled.append((fn.func, fn.keywords, tuple(jobs), workers))
        return original(fn, jobs, workers)

    monkeypatch.setattr(pipeline, "_pool_map", recording)
    record = f_min(8, cache_dir=cache_dir, workers=2)
    assert pooled == [(pipeline._solve_code, {"k": 3}, record.argmin_codes, 2)]


@pytest.mark.parametrize("workers", [1, 2])
def test_f_min_rejects_an_argmin_that_re_solves_off_the_minimum(cache_dir, monkeypatch, workers):
    # at k=3 the argmin re-solves are the only calls to _solve_code, so
    # one class that comes back one above f fails the certification
    off = f_min(7, cache_dir=cache_dir).argmin_codes[-1]
    real = pipeline._solve_code
    monkeypatch.setattr(pipeline, "_solve_code", lambda code, k: real(code, k) + (code == off))
    with pytest.raises(PipelineError, match=f"^argmin certification failed for {off}$"):
        f_min(7, cache_dir=cache_dir, workers=workers)


def test_f_min_pool_does_not_carry_over_to_another_k(cache_dir):
    # a k=3 run reads its values off the triangle-packing table, which
    # says nothing about packings of TT_4: a k=4 run after it reads the
    # table of K_4-packings, and agrees with a solve of every class
    codes = enumerate_codes(7, cache_dir=cache_dir)
    values = [max_packing_exact(tournament_from_code(code), 4).value for code in codes]
    f_min(7, cache_dir=cache_dir)
    assert f_min(7, k=4, cache_dir=cache_dir).f == min(values)


def counted_solves(monkeypatch):
    """The (optimal, nodes) of each solve pipeline makes from here on."""
    solves = []
    original = pipeline.max_packing_exact

    def counting(t, k, **kwargs):
        p = original(t, k, **kwargs)
        solves.append((p.optimal, p.nodes_explored))
        return p

    monkeypatch.setattr(pipeline, "max_packing_exact", counting)
    return solves


def test_f_min_solve_count_at_order_8(cache_dir, monkeypatch):
    # at k=3 no class is solved: the only solves are the 8 argmin
    # re-solves, each exact, and a second call repeats them exactly; they
    # took 36 nodes while a node took its branch copies in index order and
    # the root's hitting set gave no ceiling
    solves = counted_solves(monkeypatch)
    for _ in range(2):
        solves.clear()
        record = f_min(8, cache_dir=cache_dir)
        assert (len(solves), len(record.argmin_codes)) == (8, 8)
        assert all(optimal for optimal, _ in solves)
        assert sum(nodes for _, nodes in solves) == 30


@pytest.mark.parametrize("n, k, count, nodes", [(6, 5, 35, 35), (7, 4, 1, 1)], ids=["6-5", "7-4"])
def test_f_min_solves_only_its_argmin_above_k3(cache_dir, monkeypatch, n, k, count, nodes):
    # the scan reads every class, so the only solves are one re-solve per
    # argmin class, each exact; while every class was solved as well, these
    # took 91 solves and 91 nodes, and 457 solves and 980 nodes
    solves = counted_solves(monkeypatch)
    record = f_min(n, k=k, cache_dir=cache_dir)
    assert len(solves) == len(record.argmin_codes) == count
    assert all(optimal for optimal, _ in solves)
    assert sum(nodes for _, nodes in solves) == nodes


def test_f_min_verifies_every_packing_it_solves(cache_dir, monkeypatch):
    verified = []
    original = pipeline.verify_packing

    def recording(t, p):
        verified.append(p.optimal)
        return original(t, p)

    monkeypatch.setattr(pipeline, "verify_packing", recording)
    f_min(8, cache_dir=cache_dir)
    # the 8 argmin re-solves, each exact
    assert (len(verified), sum(verified)) == (8, 8)


@pytest.mark.parametrize("k, workers", [(3, 1), (4, 1), (4, 2)])
def test_f_min_rejects_an_exact_packing_that_fails_verification(cache_dir, monkeypatch, k, workers):
    # at every k the exact packings are the argmin re-solves, each verified
    # in the worker that solved it
    original = pipeline.verify_packing
    monkeypatch.setattr(pipeline, "verify_packing", lambda t, p: not p.optimal and original(t, p))
    with pytest.raises(PipelineError, match="class [01]+ has a packing of [0-9]+ copies that fails verification") as e:
        f_min(7, k=k, cache_dir=cache_dir, workers=workers)
    assert str(e.value).split()[1] in enumerate_codes(7, cache_dir=cache_dir)


@pytest.mark.parametrize("workers", [1, 2])
def test_f_min_rejects_a_class_the_scan_does_not_settle(cache_dir, monkeypatch, workers):
    # with one plane left in the table, some class has 3 or more cyclic
    # lines on it, where the scan proves no upper bound
    planes = pipeline._max_packings(7, 3)[:1]
    monkeypatch.setattr(pipeline, "_max_packings", lambda n, k: planes)
    with pytest.raises(PipelineError, match="^no maximum packing has under 3 non-transitive lines on class [01]{21}$"):
        f_min(7, cache_dir=cache_dir, workers=workers)


def test_scan_classes_raises_past_the_exact_range(cache_dir, monkeypatch):
    # least = 2 is exact only where the table's entries decompose K_n,
    # 3M = C(n,2), by the completion lemma: at n = 7 among the orders
    # tabled; elsewhere the scan proves only the lower bound there
    codes = enumerate_codes(7, cache_dir=cache_dir)
    planes = pipeline._max_packings(7, 3)
    sevens = [code for code in codes if least_fit(tournament_from_code(code), planes)[0] == 2]
    # both leave the same two lines of the same plane, so the least-2 walk
    # gives them one part
    assert [(len(lines), classes) for lines, classes in pipeline._scan_classes(7, sevens, 3)[0]] == [(5, 0b11)]
    entry = pipeline._max_packings(6, 3)[:1]
    six = next(
        code
        for code in enumerate_codes(6, cache_dir=cache_dir)
        if least_fit(tournament_from_code(code), entry)[0] == 2
    )
    monkeypatch.setattr(pipeline, "_max_packings", lambda n, k: entry)
    with pytest.raises(PipelineError, match=f"^no maximum packing has under 2 non-transitive lines on class {six}$"):
        pipeline._scan_classes(6, [six], 3)


def affine_table():
    # the 840 labeled affine planes of order 3, as a table of order 9
    return tuple(d.blocks for d in _orbit(ag2_lines(3)))


# a class of order 9 with least 2 on affine_table()
AFFINE_CODE = "101100101011000101100101101011101101"


def test_scan_classes_read_the_exact_range_off_the_table(monkeypatch):
    # the 840 labeled affine planes of order 3 decompose K_9, 3 * 12 =
    # C(9,2), so as a table of order 9 they make least = 2 exact with no
    # case for the order: the least-2 walk settles the circulant
    # i -> i + {1, 3, 4, 7} (mod 9), with the pair {1, 8} reversed, by
    # that table alone, with the oracle's 12 - 2 verified lines, and the
    # solver packs no more
    table = affine_table()
    monkeypatch.setattr(pipeline, "_max_packings", lambda n, k: table)
    t = tournament_from_code(AFFINE_CODE)
    [(lines, classes)], ts = pipeline._scan_classes(9, [AFFINE_CODE], 3)
    assert (lines, classes) == (least_fit(t, table)[1], 1)
    assert list(ts) == [census(t).t]
    assert len(lines) == 10
    assert verify_packing(t, Packing(n=9, k=3, copies=lines))
    assert max_packing_exact(t, 3).value == 10


@pytest.mark.parametrize("n", range(3, 9))
def test_cyclic_mask_marks_the_nontransitive_triples_of_every_class(cache_dir, n):
    # class c's cyclic mask, bit c of each triple's column, marks the
    # triple iff it is not transitive on the class, on every class of
    # order n, so its popcount is the class's t; the oracle's answer on
    # i<j<k reads only the orientations of its three pairs, so it is asked
    # once per orientation
    codes = enumerate_codes(n, cache_dir=cache_dir)
    columns = pipeline._cyclic_columns(n, codes)
    assert len(columns) == comb(n, 3)
    assert all(0 <= column < 1 << len(codes) for column in columns)
    transitive = {}
    for c, code in enumerate(codes):
        t = tournament_from_code(code)
        cyclic = [column >> c & 1 for column in columns]
        assert sum(cyclic) == census(t).t, code
        for bit, (i, j, k) in zip(cyclic, combinations(range(n), 3)):
            key = (t.out[i] >> j & 1, t.out[j] >> k & 1, t.out[i] >> k & 1)
            if key not in transitive:
                transitive[key] = is_transitive_subset(t, (i, j, k))
            assert bool(bit) != transitive[key], (code, i, j, k)
    assert set(transitive.values()) == {False, True}


def test_column_sums_count_every_bit_up_to_the_byte_limit():
    # 255 all-ones columns fill every byte, the counter's limit; random
    # columns, of a width that is not a whole number of bytes, give each
    # bit its plain sum, and no columns give zeros
    width = 77
    assert pipeline._column_sums([(1 << width) - 1] * 255, width) == bytes([255] * width)
    rng = stdlib_rng(51)
    columns = [rng.getrandbits(width) for _ in range(200)]
    assert list(pipeline._column_sums(columns, width)) == [sum(col >> c & 1 for col in columns) for c in range(width)]
    assert pipeline._column_sums([], width) == bytes(width)


@pytest.mark.parametrize("n", range(3, 9))
def test_scan_classes_read_every_class_as_the_scan_does(cache_dir, n):
    # the parts cover each class exactly once, with the oracle's lines
    # for it, M - least of them: the walks settle every class, the 2
    # order-7 classes with least 2 among them; and ts gives each class,
    # in code order, its census t
    codes = enumerate_codes(n, cache_dir=cache_dir)
    table = pipeline._max_packings(n, 3)
    hosts = [tournament_from_code(code) for code in codes]
    parts, ts = pipeline._scan_classes(n, codes, 3)
    assert list(ts) == [census(t).t for t in hosts]
    # no part is empty, and the part sizes add up to the class count, so
    # with every class read off some part, none is in two
    assert all(classes for _, classes in parts)
    assert sum(classes.bit_count() for _, classes in parts) == len(codes)
    read = {c: lines for lines, classes in parts for c in pipeline._members(classes)}
    leasts, class_lines = zip(*(least_fit(t, table) for t in hosts))
    assert [read[c] for c in range(len(codes))] == list(class_lines)
    assert [len(lines) for lines in class_lines] == [len(table[0]) - least for least in leasts]


def test_scan_classes_reject_codes_of_another_order(cache_dir):
    with pytest.raises(ValueError, match="^codes of order 8 have 28 bits, got 21$"):
        pipeline._scan_classes(8, enumerate_codes(7, cache_dir=cache_dir), 3)
    # one code short and one long add up to the right length, and still raise
    a, b = enumerate_codes(8, cache_dir=cache_dir)[:2]
    with pytest.raises(ValueError, match="^codes of order 8 have 28 bits, got 27$"):
        pipeline._scan_classes(8, [a[:-1], b + "0"], 3)


SCANNED = [(n, k) for n in range(3, 8) for k in range(3, n + 1)] + [(8, 3), (8, 4)]


@pytest.mark.parametrize("n, k", SCANNED, ids=[f"{n}-{k}" for n, k in SCANNED])
def test_scan_classes_value_every_class_as_the_solver_does(cache_dir, n, k):
    # each class's part holds a verified packing of its class, and as many
    # lines as the exact solver packs
    codes = enumerate_codes(n, cache_dir=cache_dir)
    read = {c: lines for lines, classes in pipeline._scan_classes(n, codes, k)[0] for c in pipeline._members(classes)}
    assert sorted(read) == list(range(len(codes)))
    for c, code in enumerate(codes):
        assert verify_packing(tournament_from_code(code), Packing(n=n, k=k, copies=read[c])), code
        assert len(read[c]) == pipeline._solve_code(code, k), code


def test_f_min_above_k3_keeps_its_values(cache_dir):
    # sha256 of json.dumps([n, k, f, argmin_codes]) for every 4 <= k <= n <= 8,
    # one line each in (n, k) order, as when every class was solved
    lines = []
    for n, k in ABOVE_K3:
        record = f_min(n, k, cache_dir=cache_dir)
        lines.append(json.dumps([record.n, record.k, record.f, list(record.argmin_codes)]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9e18f370db7e8e2af46c88dbcf0445f5698aae99139ebda419e28af215c31519"


@pytest.mark.parametrize("workers", [1, 2])
def test_f_min_rejects_a_class_the_scan_does_not_settle_above_k3(cache_dir, monkeypatch, workers):
    # with only the last entry left in the K_4 table, some class has both
    # its lines non-transitive and a transitive 4-set elsewhere, where the
    # scan proves no upper bound (with the first entry alone, no class does)
    entry = pipeline._max_packings(7, 4)[-1:]
    monkeypatch.setattr(pipeline, "_max_packings", lambda n, k: entry)
    with pytest.raises(PipelineError, match="^no maximum packing has under 2 non-transitive lines on class [01]{21}$"):
        f_min(7, k=4, cache_dir=cache_dir, workers=workers)


def test_witness_fit_agrees_with_verify_packing(cache_dir):
    # an entry's lines pack a class iff the class's bit is clear in the
    # cyclic columns of every line, iff the oracle finds none of them
    # non-transitive: on every order-7 class and entry, and a slice at
    # order 8
    fits = Counter()
    for n, classes, entries in ((7, slice(None), slice(None)), (8, slice(None, None, 344), slice(None, None, 42))):
        table = pipeline._max_packings(n, 3)[entries]
        codes = enumerate_codes(n, cache_dir=cache_dir)[classes]
        columns = dict(zip(combinations(range(n), 3), pipeline._cyclic_columns(n, codes)))
        for c, code in enumerate(codes):
            t = tournament_from_code(code)
            for entry in table:
                fit = not any(columns[line] >> c & 1 for line in entry)
                assert fit == (least_fit(t, [entry])[0] == 0), (code, entry)
                assert fit == verify_packing(t, Packing(n=n, k=3, copies=entry)), (code, entry)
                fits[n, fit] += 1
    assert all(fits[n, fit] for n in (7, 8) for fit in (False, True))


def recording_walks(monkeypatch):
    # the codes of each _scan_classes call in this process, in call order
    walks = []
    original = pipeline._scan_classes

    def recording(n, codes, k):
        walks.append(list(codes))
        return original(n, codes, k)

    monkeypatch.setattr(pipeline, "_scan_classes", recording)
    return walks


def test_pipeline_reads_each_block_as_the_int_of_its_induced_code(monkeypatch):
    # the codes a share passes to _scan_classes are the distinct codes of
    # its blocks' induced subtournaments, and a block's t is that
    # subtournament's
    walks = recording_walks(monkeypatch)
    host = random_tournament(49, 7)
    blocks = ag2_lines(7).blocks
    share = range(3, 5)
    results = pipeline._pipeline_share(host, blocks, 11, share)
    codes = set()
    for i, (_, block_ts) in zip(share, results):
        perm = list(range(host.n))
        stdlib_rng(sub_seed(11, i)).shuffle(perm)
        assert len(block_ts) == len(blocks)
        for block, t_count in zip(blocks, block_ts):
            block_tournament = induced(host, [perm[p] for p in block])
            codes.add(tournament_bits(block_tournament))
            assert t_count == census(block_tournament).t, (i, block)
    [walk] = walks
    assert len(walk) == len(set(walk))
    assert set(walk) == codes


def test_f_min_rejects_out_of_range(cache_dir):
    # an order outside 3..8 is an input error, not a failed claim
    for n in (2, 9):
        with pytest.raises(ValueError, match=f"^minimum packing sweep supports 3 <= n <= 8, got {n}$"):
            f_min(n, cache_dir=cache_dir)


def test_induced_expectation_rejects_m_out_of_range():
    t = random_tournament(8, 2)
    for m in (2, 9):
        with pytest.raises(ValueError, match=f"^m must satisfy 3 <= m <= n=8, got {m}$"):
            induced_expectation_check(t, m)


def test_induced_expectation_identity_small():
    t = random_tournament(8, 2)
    r = induced_expectation_check(t, 4)
    a = census(t).a
    assert r.exact == Fraction(a * 4 * 3 * 2, 8 * 7 * 6)
    assert r.exact >= r.lower_bound
    assert r.lower_bound == Fraction(3, 4) * Fraction(5, 6) * comb(4, 3)


def test_induced_expectation_on_transitive_host():
    t = transitive_tournament(9)
    r = induced_expectation_check(t, 5)
    assert r.exact == Fraction(comb(9, 3) * 5 * 4 * 3, 9 * 8 * 7)


def test_lp_interior_budget():
    res = lp_step(Fraction(35, 4), (Fraction(7), Fraction(6), Fraction(5)), (Fraction(5), Fraction(12)))
    assert res.minimum == Fraction(153, 28)
    assert res.argmin == (Fraction(0), Fraction(13, 28), Fraction(15, 28))


def test_lp_extreme_budgets():
    values = (Fraction(7), Fraction(6), Fraction(5))
    costs = (Fraction(5), Fraction(12))
    tight = lp_step(Fraction(0), values, costs)
    assert tight.minimum == Fraction(7)
    assert tight.argmin == (Fraction(1), Fraction(0), Fraction(0))
    slack = lp_step(Fraction(12), values, costs)
    assert slack.minimum == Fraction(5)
    assert slack.argmin == (Fraction(0), Fraction(0), Fraction(1))


def test_lp_rejects_bad_shapes():
    # input errors, each naming its values as p/q
    with pytest.raises(ValueError, match="^budget must be nonnegative, got -1$"):
        lp_step(Fraction(-1), (Fraction(7), Fraction(6), Fraction(5)), (Fraction(5), Fraction(12)))
    with pytest.raises(ValueError, match="^values must be nonincreasing and nonnegative, got 5,6,13/2$"):
        lp_step(Fraction(1), (Fraction(5), Fraction(6), Fraction(13, 2)), (Fraction(5), Fraction(12)))
    with pytest.raises(ValueError, match="^costs must be positive, got 0,25/2$"):
        lp_step(Fraction(1), (Fraction(7), Fraction(6), Fraction(5)), (Fraction(0), Fraction(25, 2)))
    with pytest.raises(ValueError, match="^3 values need 2 costs, got 1$"):
        lp_step(Fraction(1), (Fraction(7), Fraction(6), Fraction(5)), (Fraction(5),))


def test_pipeline_on_random_host():
    t = random_tournament(49, 7)
    report = decomposition_pipeline(t, trials=3, seed=11)
    assert report.trials == 3
    assert len(report.totals) == 3
    assert report.min_total == min(report.totals) >= 280
    assert sum(report.block_value_histogram.values()) == 3 * 56
    assert report.p1 + report.p2 + report.p3 == 1
    assert Fraction(5) <= report.mean_block_packing <= Fraction(7)
    assert report.reference_density == Fraction(51, 392)


def test_pipeline_totals_are_seed_deterministic():
    t = random_tournament(49, 7)
    a = decomposition_pipeline(t, trials=2, seed=11)
    b = decomposition_pipeline(t, trials=2, seed=11)
    assert a.totals == b.totals
    c = decomposition_pipeline(t, trials=2, seed=12)
    assert a.totals != c.totals


def test_pipeline_on_transitive_host_is_perfect():
    report = decomposition_pipeline(transitive_tournament(49), trials=2, seed=1)
    assert all(total == 392 for total in report.totals)
    assert report.p1 == 1


def test_pipeline_rejects_wrong_order():
    # input errors, not failed claims
    with pytest.raises(ValueError, match="^host has 10 vertices, design covers 49$"):
        decomposition_pipeline(random_tournament(10, 0), trials=1, seed=0)
    with pytest.raises(ValueError, match="^trials must be positive, got 0$"):
        decomposition_pipeline(random_tournament(49, 0), trials=0, seed=0)


def test_pipeline_workers_agree():
    # 5 trials cut into 1, 2 and 3 shares, the last two uneven
    t = random_tournament(49, 3)
    a = decomposition_pipeline(t, trials=5, seed=5)
    assert decomposition_pipeline(t, trials=5, seed=5, workers=2) == a
    assert decomposition_pipeline(t, trials=5, seed=5, workers=3) == a


@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_rejects_a_block_no_fano_plane_packs(monkeypatch, workers):
    # with one plane left in the table, some block of the random host has
    # 3 or more cyclic lines on it, where the walk proves no value
    planes = pipeline._max_packings(7, 3)[:1]
    monkeypatch.setattr(pipeline, "_max_packings", lambda n, k: planes)
    with pytest.raises(PipelineError, match="^no maximum packing has under 3 non-transitive lines on class [01]{21}$"):
        decomposition_pipeline(random_tournament(49, 7), trials=2, seed=11, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_rejects_a_packing_that_fails_verification(monkeypatch, workers):
    # at workers=2 the patch reaches the pool workers only because they are
    # forked from the patched process: _pool_map forks them with os.fork
    # itself, on every Python version the package supports (3.10 and on)
    monkeypatch.setattr(pipeline, "verify_packing", lambda t, p: False)
    with pytest.raises(PipelineError, match="failed verification in trial 0"):
        decomposition_pipeline(random_tournament(49, 7), trials=2, seed=11, workers=workers)


@pytest.mark.parametrize("fault", ["cyclic-line", "repeated-line"])
def test_trial_verifier_rejects_a_corrupted_pattern_entry(monkeypatch, fault):
    # the real verify_packing, unpatched, checks the lines a trial reads
    # off its share's walk: the walk's lines for one class are corrupted,
    # by a cyclic line in place of a transitive one (the plane's left-out
    # cyclic line, which shares no pair with the others) or by one line
    # repeated, so two copies share a pair
    original = pipeline._scan_classes

    def corrupting(n, codes, k):
        parts, ts = original(n, codes, k)
        x, (lines, classes) = next((x, part) for x, part in enumerate(parts) if len(part[0]) < 7)
        block = tournament_from_code(codes[next(pipeline._members(classes))])
        if fault == "cyclic-line":
            used = {pair for line in lines[1:] for pair in combinations(line, 2)}
            cyclic = next(
                vs
                for vs in combinations(range(7), 3)
                if not is_transitive_subset(block, vs) and used.isdisjoint(combinations(vs, 2))
            )
            corrupted = (cyclic, *lines[1:])
        else:
            corrupted = (lines[0], lines[0], *lines[2:])
        parts[x] = (corrupted, classes)
        return parts, ts

    monkeypatch.setattr(pipeline, "_scan_classes", corrupting)
    with pytest.raises(PipelineError, match="failed verification in trial 0"):
        pipeline._pipeline_share(random_tournament(49, 7), ag2_lines(7).blocks, 11, range(1))


GATE_HOSTS = {
    "random": lambda: random_tournament(49, 7),
    "turan3": lambda: turan3_tournament(49),
    "transitive": lambda: transitive_tournament(49),
}


@pytest.mark.parametrize(
    "n, histogram",
    [
        (3, {0: 1, 1: 1}),
        (4, {0: 4}),
        (5, {0: 12}),
        (6, {0: 55, 1: 1}),
        (7, {0: 407, 1: 47, 2: 2}),
        (8, {0: 6872, 1: 8}),
    ],
    ids=range(3, 9),
)
def test_scan_is_exact_on_every_class(cache_dir, n, histogram):
    # every class, as it is and relabeled by a seeded permutation, is read
    # by one walk and packs M - least by the walk's verified lines, and
    # exactly that by the solver; at least = 0 the value is M, the most
    # any n-vertex tournament packs, so at order 8 only the classes with
    # least >= 1 are solved
    size = len(pipeline._max_packings(n, 3)[0])
    codes = enumerate_codes(n, cache_dir=cache_dir)
    hosts = [tournament_from_code(code) for code in codes]
    for i, canonical in enumerate(hosts[:]):
        perm = list(range(n))
        stdlib_rng(sub_seed(n, i)).shuffle(perm)
        out = [0] * n
        for u in range(n):
            for w in range(n):
                if canonical.out[u] >> w & 1:
                    out[perm[u]] |= 1 << perm[w]
        hosts.append(Tournament(n, tuple(out)))
    parts, _ = pipeline._scan_classes(n, [tournament_bits(t) for t in hosts], 3)
    read = {c: lines for lines, classes in parts for c in pipeline._members(classes)}
    leasts = Counter()
    for i, code in enumerate(codes):
        least = size - len(read[i])
        leasts[least] += 1
        for c in (i, len(codes) + i):
            assert len(read[c]) == size - least, code
            assert verify_packing(hosts[c], Packing(n=n, k=3, copies=read[c])), code
            if n < 8 or least:
                assert max_packing_exact(hosts[c], 3).value == size - least, code
    assert leasts == histogram


@pytest.mark.parametrize(
    "host, trials, most", [("transitive", 2, 1), ("turan3", 10, 22)]
)
def test_pipeline_labels_each_block_pattern_once(monkeypatch, host, trials, most):
    # one share, one walk, which reads each distinct block code once
    walks = recording_walks(monkeypatch)
    decomposition_pipeline(GATE_HOSTS[host](), trials=trials, seed=11, workers=1)
    [walk] = walks
    assert len(walk) == len(set(walk))
    assert 1 <= len(walk) <= most


@pytest.mark.parametrize("host", sorted(GATE_HOSTS))
def test_pipeline_block_values_match_exact_class_solves(monkeypatch, host):
    trial_results = []
    original_share = pipeline._pipeline_share

    def recording_share(*args):
        results = original_share(*args)
        trial_results.extend(results)
        return results

    assembled = []
    original_verify = pipeline.verify_packing

    def recording_verify(t, p):
        assembled.append(p.copies)
        return original_verify(t, p)

    solver_calls = []
    labeling_calls = []

    def counting(calls, original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "_pipeline_share", recording_share)
    monkeypatch.setattr(pipeline, "verify_packing", recording_verify)
    monkeypatch.setattr(pipeline, "max_packing_exact", counting(solver_calls, max_packing_exact))
    # every labeling, by whatever name it is reached, runs _min_code_rows
    monkeypatch.setattr(enumeration, "_min_code_rows", counting(labeling_calls, enumeration._min_code_rows))
    t = GATE_HOSTS[host]()
    blocks = ag2_lines(7).blocks
    trials = 4
    for seed in (11, 12):
        decomposition_pipeline(t, trials=trials, seed=seed, workers=1)
    assert solver_calls == labeling_calls == []
    assert len(trial_results) == len(assembled) == 2 * trials

    # the oracle: each block's class, labeled canonically and solved exactly
    class_values: dict[str, int] = {}
    results = iter(zip(trial_results, assembled))
    for seed in (11, 12):
        for trial in range(trials):
            (block_values, _), copies = next(results)
            assert len(block_values) == len(blocks)
            assert len(copies) == sum(block_values)
            perm = list(range(t.n))
            stdlib_rng(sub_seed(seed, trial)).shuffle(perm)
            start = 0
            for block, value in zip(blocks, block_values):
                vs = [perm[p] for p in block]
                code = canonical_code(induced(t, vs))
                if code not in class_values:
                    class_values[code] = max_packing_exact(tournament_from_code(code), 3).value
                assert value == class_values[code], (seed, trial, block)
                for copy in copies[start : start + value]:
                    assert set(copy) <= set(vs), (seed, trial, block, copy)
                start += value


def test_turan_host_meets_pipeline_floor():
    report = decomposition_pipeline(turan3_tournament(49), trials=2, seed=11)
    assert min(report.totals) >= 280
