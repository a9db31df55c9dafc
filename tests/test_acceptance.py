"""Acceptance gate: twelve independently checkable criteria.

Each test computes its claim from scratch at the stated tolerance and
time budget, records one PASS/FAIL line (replayed in the terminal
summary), and then asserts.  Nothing here may weaken a stated target;
a criterion that does not hold fails loudly.
"""

import time
from fractions import Fraction
from math import comb, factorial

from acceptance_report import record
from oracles import (
    automorphism_count,
    brute_induced_average,
    brute_max_packing,
    canonical_code,
    degree_formula_transitive,
    enumerate_nonisomorphic,
    labeled_count_with_score,
    max_transitive_subset,
    oracle_canonical_code,
    scores_with_triangle_count,
    sts_triangle_count,
    triangle_counts,
)
from ttpack.constructions import blowup, intra_class_edge_bound, qr7, turan3_tournament
from ttpack.designs import all_sts7
from ttpack.experiments import edge_copy_stats
from ttpack.packing import max_packing_exact
from ttpack.pipeline import (
    decomposition_pipeline,
    f_min,
    induced_expectation_check,
    lp_step,
    verify_t7_thresholds,
)
from ttpack.tournament import census, random_tournament, transitive_tournament


def check(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = record(num, label, ok, detail)
    assert ok, line


def test_criterion_01_seven_vertex_triangle_thresholds(tmp_path):
    start = time.monotonic()
    report = verify_t7_thresholds(cache_dir=str(tmp_path), workers=1)
    elapsed = time.monotonic() - start
    records = report.records
    ok = (
        len(records) == 456
        and all(r.p == 7 for r in records if r.t <= 4)
        and all(r.p >= 6 for r in records if r.t <= 11)
        and all(r.p >= 5 for r in records)
        and elapsed < 300
    )
    check(
        1,
        "456-class sweep: t<=4 gives P=7, t<=11 gives P>=6, P>=5 always",
        ok,
        f"classes={len(report.records)}, min={report.min_packing()}, {elapsed:.1f}s (budget 300s, single worker)",
    )


def test_criterion_02_minimum_packing_values_meet_formula(cache_dir):
    start = time.monotonic()
    values = {}
    for n in range(3, 8):
        values[n] = f_min(n, cache_dir=cache_dir, workers=1).f
    small_elapsed = time.monotonic() - start
    start8 = time.monotonic()
    values[8] = f_min(8, cache_dir=cache_dir, workers=1).f
    elapsed8 = time.monotonic() - start8
    expected = {3: 0, 4: 1, 5: 2, 6: 3, 7: 5, 8: 7}
    formula = {n: -(-n * (n - 3) // 6) for n in range(3, 9)}
    ok = values == expected and values == formula and small_elapsed < 120 and elapsed8 < 7200
    check(
        2,
        "f(3..8) = (0,1,2,3,5,7) and equals the ceiling formula",
        ok,
        f"values={tuple(values[n] for n in range(3, 9))}, n<=7 in {small_elapsed:.1f}s, n=8 in {elapsed8:.1f}s (1 worker)",
    )


def test_criterion_03_score_class_counts(cache_dir):
    classes = enumerate_nonisomorphic(7, cache_dir=cache_dir)
    eleven = scores_with_triangle_count(7, 11, cache_dir=cache_dir)
    expected_scores = {(4, 4, 3, 3, 3, 3, 1), (4, 4, 4, 3, 2, 2, 2), (5, 3, 3, 3, 3, 2, 2)}
    by_score = {s: [t for t in classes if t.score() == s] for s in sorted(expected_scores)}
    count_a = len(by_score[(4, 4, 4, 3, 2, 2, 2)])
    count_b = len(by_score[(5, 3, 3, 3, 3, 2, 2)])
    # The classes of one score are complete and free of repeats exactly when
    # they are pairwise non-isomorphic and their orbits, of size 7!/|Aut|,
    # add up to the number of labeled tournaments with that score.
    distinct = all(
        len({oracle_canonical_code(t) for t in ts}) == len(ts) for ts in by_score.values()
    )
    orbit_sums = {
        s: sum(factorial(7) // automorphism_count(t) for t in ts) for s, ts in by_score.items()
    }
    labeled = {s: labeled_count_with_score(s) for s in by_score}
    ok = (
        count_a == 22
        and count_b == 15
        and eleven == expected_scores
        and distinct
        and orbit_sums == labeled
    )
    check(
        3,
        "exactly 22 classes score (4,4,4,3,2,2,2), 15 score (5,3,3,3,3,2,2), three scores at t=11; "
        "each score's classes are distinct and their orbits cover every labeled tournament of that score",
        ok,
        f"counts are {count_a} and {count_b}; scores at t=11 "
        f"{'match' if eleven == expected_scores else 'differ'}; oracle codes "
        f"{'distinct' if distinct else 'repeat'}; orbit sum / labeled count: "
        + ", ".join(
            f"{''.join(map(str, s))} {len(by_score[s])} classes {orbit_sums[s]}/{labeled[s]}"
            for s in by_score
        ),
    )


def test_criterion_04_triple_system_average_identity():
    systems = all_sts7()
    ok = len(systems) == 30
    for seed in range(20):
        t = random_tournament(7, seed)
        average = Fraction(sum(sts_triangle_count(t, d) for d in systems), len(systems))
        ok = ok and average == Fraction(census(t).t, 5)
    check(
        4,
        "average directed-triangle block count over all 30 triple systems equals t/5",
        ok,
        "20 seeds, exact rational arithmetic",
    )


def test_criterion_05_rational_lp_corner():
    res = lp_step(
        Fraction(35, 4),
        (Fraction(7), Fraction(6), Fraction(5)),
        (Fraction(5), Fraction(12)),
    )
    ok = res.minimum == Fraction(153, 28) and res.argmin == (
        Fraction(0),
        Fraction(13, 28),
        Fraction(15, 28),
    )
    check(5, "LP minimum 153/28 attained at (0, 13/28, 15/28)", ok, f"minimum={res.minimum}")


def test_criterion_06_decomposition_floor_at_49():
    start = time.monotonic()
    random_host = random_tournament(49, 7)
    rand_report = decomposition_pipeline(random_host, trials=100, seed=11)
    turan_report = decomposition_pipeline(turan3_tournament(49), trials=100, seed=11)
    perfect = decomposition_pipeline(transitive_tournament(49), trials=100, seed=11)
    elapsed = time.monotonic() - start
    ok = (
        min(rand_report.totals) >= 280
        and min(turan_report.totals) >= 280
        and all(total == 392 for total in perfect.totals)
        and elapsed < 1800
    )
    check(
        6,
        "decomposition trials: totals >= 280 on random and three-class hosts, 392 on the transitive host",
        ok,
        f"mins {min(rand_report.totals)}/{min(turan_report.totals)}, "
        f"transitive all 392: {all(total == 392 for total in perfect.totals)}, {elapsed:.0f}s (budget 1800s); "
        "every assembled packing re-verified inside the pipeline",
    )


def test_criterion_07_three_class_construction_upper_bound():
    start = time.monotonic()
    results = {}
    for n in range(6, 10):
        results[n] = max_packing_exact(turan3_tournament(n), 3).value
    elapsed = time.monotonic() - start
    bound = {n: intra_class_edge_bound(n) for n in range(6, 10)}
    ok = (
        all(results[n] <= bound[n] for n in range(6, 10))
        and all(results[n] == bound[n] for n in (6, 7, 8))
        and elapsed < 600
    )
    check(
        7,
        "three-class host packing value stays under the ceiling formula, tight at n=6,7,8",
        ok,
        f"values={tuple(results.values())}, bounds={tuple(bound.values())}, {elapsed:.1f}s",
    )


def test_criterion_08_unique_host_without_transitive_quads(cache_dir):
    classes = enumerate_nonisomorphic(7, cache_dir=cache_dir)
    free = [t for t in classes if len(max_transitive_subset(t)) == 3]
    unique = len(free) == 1 and canonical_code(free[0]) == canonical_code(qr7())
    doubled = blowup(qr7(), 2)
    packing = max_packing_exact(doubled, 4)
    ok = unique and packing.optimal and packing.value <= 7
    check(
        8,
        "exactly one 7-vertex class has no transitive quad, and its order-14 blow-up has P_4 <= 7",
        ok,
        f"quad-free classes={len(free)}, blow-up P_4={packing.value}",
    )


def test_criterion_09_triangle_census_identity():
    ok = True
    for seed in range(200):
        n = 3 + seed % 10
        t = random_tournament(n, seed)
        trans, cyc = triangle_counts(t)
        c = census(t)
        ok = ok and (c.a, c.t) == (trans, cyc)
        ok = ok and c.a == degree_formula_transitive(t)
        ok = ok and c.a + c.t == comb(n, 3)
    check(
        9,
        "triple-scan census equals the degree-sum formula and complements to C(n,3)",
        ok,
        "200 random hosts, orders 3..12, exact",
    )


def test_criterion_10_induced_expectation_identity():
    ok = True
    details = []
    for n, m in ((9, 5), (10, 4)):
        for seed in (0, 1, 2):
            t = random_tournament(n, seed)
            result = induced_expectation_check(t, m)
            brute = brute_induced_average(t, m)
            floor = Fraction(3, 4) * Fraction(n - 3, n - 2) * comb(m, 3)
            ok = ok and result.exact == brute and result.exact >= floor
            ok = ok and result.lower_bound == floor
        details.append(f"(n={n},m={m})")
    check(
        10,
        "closed-form induced expectation equals the brute subset average and clears its floor",
        ok,
        ", ".join(details) + ", 3 seeds each, exact",
    )


def test_criterion_11_edge_count_calibration_at_60():
    grand = Fraction(0)
    handshake = True
    for seed in range(20):
        t = random_tournament(60, seed)
        stats = edge_copy_stats(t, 3)
        grand += stats.mean
        handshake = handshake and sum(stats.counts) == 3 * census(t).a
    grand /= 20
    target = Fraction(87, 2)
    within = abs(grand - target) <= target * Fraction(5, 100)
    ok = within and handshake
    check(
        11,
        "grand mean per-edge triple count at n=60 within 5% of 43.5; handshake identity exact",
        ok,
        f"grand mean={float(grand):.4f}, handshake exact on all 20 seeds",
    )


def test_criterion_12_solver_matches_subset_enumeration(cache_dir):
    ok = True
    checked = 0
    for n in range(3, 6):
        for t in enumerate_nonisomorphic(n, cache_dir=cache_dir):
            for k in (3, 4):
                if k > n:
                    continue
                ok = ok and max_packing_exact(t, k).value == brute_max_packing(t, k)
                checked += 1
    check(
        12,
        "exact solver agrees with unpruned subset enumeration on every class of order <= 5",
        ok,
        f"{checked} instances, k in {{3,4}}",
    )
