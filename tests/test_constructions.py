"""Structured hosts: three-class cyclic construction, rotational 7-vertex
tournament, and class blow-ups."""

from itertools import combinations

import pytest

from oracles import canonical_code, is_transitive_subset, max_transitive_subset
from ttpack.constructions import (
    _blow_up,
    blowup,
    intra_class_edge_bound,
    qr7,
    turan3_class_sizes,
    turan3_tournament,
)
from ttpack.packing import max_packing_exact
from ttpack.tournament import Tournament, census, random_tournament, transitive_tournament


def class_of(n: int, v: int) -> int:
    sizes = turan3_class_sizes(n)
    if v < sizes[0]:
        return 0
    if v < sizes[0] + sizes[1]:
        return 1
    return 2


def test_class_sizes_are_near_equal_and_sum():
    for n in range(3, 30):
        sizes = turan3_class_sizes(n)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


def test_every_cross_class_triple_is_cyclic():
    for n in (7, 9, 10):
        t = turan3_tournament(n)
        for vs in combinations(range(n), 3):
            classes = {class_of(n, v) for v in vs}
            if len(classes) == 3:
                assert not is_transitive_subset(t, vs)


def test_transitive_triples_need_an_intra_class_edge():
    n = 9
    t = turan3_tournament(n)
    for vs in combinations(range(n), 3):
        if is_transitive_subset(t, vs):
            classes = [class_of(n, v) for v in vs]
            assert len(set(classes)) < 3


def test_intra_class_edge_bound_formula():
    # ceil(n(n-1)/6 - n/3) rewritten over a common denominator
    for n in range(3, 40):
        assert intra_class_edge_bound(n) == -(-n * (n - 3) // 6)


def test_packing_value_capped_by_intra_class_edges():
    for n in (6, 7, 8):
        t = turan3_tournament(n)
        assert max_packing_exact(t, 3).value <= intra_class_edge_bound(n)


def test_fillers_are_deterministic_and_distinct():
    a = turan3_tournament(10, filler="random", seed=5)
    b = turan3_tournament(10, filler="random", seed=5)
    c = turan3_tournament(10, filler="random", seed=6)
    assert a == b
    assert a != c
    with pytest.raises(ValueError, match="unknown filler 'sorted'"):
        turan3_tournament(9, filler="sorted")
    for n in (2, 65):
        with pytest.raises(ValueError, match=f"^n must be between 3 and 64, got {n}$"):
            turan3_tournament(n)


def test_a_one_class_blow_up_is_a_seeded_or_transitive_host():
    # the filler's coin per pair rank, read against random_tournament's
    # decoding of the same coins as an orientation string
    point = Tournament(1, (0,))
    for n in range(1, 65):
        assert _blow_up(point, (n,), "transitive", 0) == transitive_tournament(n)
        for seed in (0, 7, 1729):
            assert _blow_up(point, (n,), "random", seed) == random_tournament(n, seed)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: turan3_tournament(7), "turan3 self-check failed"),
        (lambda: blowup(qr7(), 2), "blowup self-check failed"),
    ],
    ids=["turan3", "blowup"],
)
def test_construction_self_checks_fire(monkeypatch, build, message):
    # every subset of the built host reads as transitive, while qr7, the
    # base, keeps its answers, so blowup's guard still finds no transitive
    # base quad and its scan runs
    import ttpack.constructions as constructions

    real, base = constructions.is_transitive_on, qr7()
    monkeypatch.setattr(constructions, "is_transitive_on", lambda t, vs: t != base or real(t, vs))
    with pytest.raises(AssertionError, match=message):
        build()


def test_qr7_structure():
    t = qr7()
    assert t.n == 7
    # rotational: i beats i+1, i+2, i+4 (mod 7)
    for i in range(7):
        expected = 0
        for off in (1, 2, 4):
            expected |= 1 << ((i + off) % 7)
        assert t.out[i] == expected
    c = census(t)
    assert (c.a, c.t) == (21, 14)


def test_qr7_has_no_transitive_four_subset():
    assert len(max_transitive_subset(qr7())) == 3


def test_blowup_shape_and_orientation():
    base = random_tournament(5, 3)
    big = blowup(base, 3)
    assert big.n == 15
    for u in range(5):
        for v in range(5):
            if u == v:
                continue
            base_edge = bool(base.out[u] >> v & 1)
            for i in range(3):
                for j in range(3):
                    got = bool(big.out[u * 3 + i] >> (v * 3 + j) & 1)
                    assert got == base_edge


def test_blowup_of_qr7_keeps_quads_off_four_classes():
    big = blowup(qr7(), 2)
    assert big.n == 14
    for vs in combinations(range(14), 4):
        if len({v // 2 for v in vs}) == 4:
            assert not is_transitive_subset(big, vs)


def test_blowup_rejects_bad_factor():
    with pytest.raises(ValueError, match="factor must be >= 1, got 0"):
        blowup(qr7(), 0)
    with pytest.raises(ValueError, match="^blow-up has 70 vertices, limit is 64$"):
        blowup(qr7(), 10)


def test_qr7_blowup_packing_value():
    assert max_packing_exact(blowup(qr7(), 2), 4).value == 7


def test_turan_is_reproducible_as_a_class():
    assert canonical_code(turan3_tournament(7)) == canonical_code(turan3_tournament(7))
