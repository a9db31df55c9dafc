"""Core tournament type: parsing, censuses, helpers."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from oracles import (
    degree_formula_transitive,
    is_transitive_subset,
    max_transitive_subset,
    reverse,
    triangle_counts,
)
from ttpack.enumeration import enumerate_codes
from ttpack.tournament import (
    MAX_VERTICES,
    Tournament,
    census,
    edge_index,
    induced,
    is_transitive_on,
    parse_tournament,
    random_tournament,
    serialize_tournament,
    tournament_bits,
    tournament_from_code,
    transitive_tournament,
    transitive_triples_lower_bound,
)

CYCLE3 = "n=3\n101\n"


def test_parse_serialize_round_trip():
    t = parse_tournament(CYCLE3)
    assert t.n == 3
    assert serialize_tournament(t) == CYCLE3
    for seed in range(5):
        r = random_tournament(10, seed)
        assert parse_tournament(serialize_tournament(r)) == r


def test_parse_rejects_bad_header():
    for text, message in [
        ("m=3\n110\n", "expected header 'n=<int>' (byte offset 0)"),
        ("n=3", "missing newline after header (byte offset 3)"),
        ("n=x\n101\n", "vertex count is not an integer (byte offset 2)"),
        # int() takes each of these as 3; the header must read n=3 exactly
        ("n=+3\n101\n", "vertex count '+3' is not written as '3' (byte offset 2)"),
        ("n= 3\n101\n", "vertex count ' 3' is not written as '3' (byte offset 2)"),
        ("n=0_3\n101\n", "vertex count '0_3' is not written as '3' (byte offset 2)"),
        ("n=03\n101\n", "vertex count '03' is not written as '3' (byte offset 2)"),
        ("n=3 \n101\n", "vertex count '3 ' is not written as '3' (byte offset 2)"),
        ("n=\u0663\n101\n", "vertex count '\u0663' is not written as '3' (byte offset 2)"),
    ]:
        with pytest.raises(ValueError) as exc:
            parse_tournament(text)
        assert str(exc.value) == message


def test_parse_rejects_bad_orientation_char():
    with pytest.raises(ValueError) as exc:
        parse_tournament("n=3\n1x0\n")
    # the offending character is the fifth byte of the file
    assert str(exc.value).endswith("(byte offset 5)")


def test_parse_rejects_wrong_length():
    with pytest.raises(ValueError):
        parse_tournament("n=4\n110\n")


def test_parse_rejects_oversize():
    with pytest.raises(ValueError):
        parse_tournament(f"n={MAX_VERTICES + 1}\n" + "1" * ((MAX_VERTICES + 1) * MAX_VERTICES // 2) + "\n")


def test_edge_index_is_row_major_over_upper_triangle():
    n = 7
    seen = [edge_index(n, i, j) for i, j in combinations(range(n), 2)]
    assert seen == list(range(n * (n - 1) // 2))


def test_bits_round_trip():
    t = random_tournament(9, 3)
    assert tournament_from_code(tournament_bits(t)) == t


def test_tournament_from_code_round_trips(cache_dir):
    # every class code of orders 1-8, and the all-zero, all-one and seeded
    # random strings of orders 1-10; n comes from the length alone
    codes = [code for n in range(1, 9) for code in enumerate_codes(n, cache_dir=cache_dir)]
    rng = random.Random(30)
    for n in range(1, 11):
        width = comb(n, 2)
        codes += ["0" * width, "1" * width]
        codes += ["".join(rng.choice("01") for _ in range(width)) for _ in range(100)]
    for code in codes:
        t = tournament_from_code(code)
        t.validate()
        assert tournament_bits(t) == code, code


def test_tournament_from_code_validates_length():
    assert tournament_from_code("") == Tournament(1, (0,))
    assert tournament_from_code("101").n == 3
    for length in (2, 4, 5, 7):
        with pytest.raises(ValueError, match=f"code length {length} "):
            tournament_from_code("1" * length)
    # validate rejects each malformed out-set tuple, naming the defect
    for n, out, message in [
        (0, (), "vertex count 0 outside 1..64"),
        (65, (0,) * 65, "vertex count 65 outside 1..64"),
        (3, (0b110, 0b100), "out-set row count does not match n"),
        (3, (0b011, 0b100, 0b001), "self-loop at vertex 0"),
        (3, (0b1010, 0b100, 0b001), "out-set of vertex 0 exceeds vertex range"),
        (3, (0b110, 0b100, 0b001), "pair (0,2) not oriented exactly once"),
    ]:
        with pytest.raises(ValueError) as exc:
            Tournament(n, out).validate()
        assert str(exc.value) == message


def test_census_both_routes_and_complement():
    from math import comb

    for seed in range(20):
        n = 3 + seed % 9
        t = random_tournament(n, seed)
        c = census(t)
        trans, cyc = triangle_counts(t)
        assert (c.a, c.t) == (trans, cyc)
        assert c.a == degree_formula_transitive(t)
        assert c.a + c.t == comb(n, 3)


def test_census_known_values():
    c3 = census(parse_tournament(CYCLE3))
    assert (c3.a, c3.t) == (0, 1)
    c5 = census(transitive_tournament(5))
    assert (c5.a, c5.t) == (10, 0)


def test_census_self_check_names_both_sides():
    # every pair oriented both ways: the direct count and the degree sum disagree
    both_ways = Tournament(3, (0b110, 0b101, 0b011))
    with pytest.raises(AssertionError, match=r"direct 4\*1 != degree-sum 6"):
        census(both_ways)


def test_random_tournament_is_seed_deterministic():
    assert random_tournament(12, 99) == random_tournament(12, 99)
    assert random_tournament(12, 99) != random_tournament(12, 100)
    # pinned: the hosts of orders 1-64 at four seeds, as orientation
    # strings.  A change that reverses the coins keeps every triple's
    # kind, and so every count, and only a digest of the hosts sees it
    codes = [tournament_bits(random_tournament(n, s)) for s in (0, 7, 11, 1729) for n in range(1, 65)]
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert digest == "52d236e7908a5bc4e445d55bd87cdae47b500c8ab39987c6aa5bdefa174aff60"


@pytest.mark.parametrize("n", [0, 65])
def test_random_tournament_rejects_a_vertex_count_outside_1_to_64(n):
    with pytest.raises(ValueError, match=f"^vertex count {n} outside 1..64$"):
        random_tournament(n, 0)


def test_random_tournament_orientation_is_roughly_balanced():
    heads = sum(random_tournament(4, seed).out[0] >> 1 & 1 for seed in range(200))
    assert 60 <= heads <= 140


def test_induced_relabels_in_sorted_order():
    t = parse_tournament("n=4\n101011\n")
    sub = induced(t, (3, 1))
    # vertex 1 -> 0, vertex 3 -> 1; in t, edge (1,3) is oriented 1 -> 3
    assert sub.n == 2
    assert sub.out[0] == 0b10


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([], "induced subtournament needs at least one vertex"),
        ([4], "vertex out of range"),
        ([-1], "vertex out of range"),
        ([0, 4], "vertex out of range"),
    ],
)
def test_induced_rejects_an_empty_or_out_of_range_vertex_set(vertices, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        induced(parse_tournament("n=4\n101011\n"), vertices)


def test_is_transitive():
    t = transitive_tournament(6)
    assert is_transitive_on(t, range(t.n))
    c = parse_tournament(CYCLE3)
    assert not is_transitive_on(c, range(c.n))


def test_is_transitive_on_matches_the_ordering_oracle():
    for seed in range(3):
        t = random_tournament(7, seed)
        for k in range(1, 8):
            for vs in combinations(range(7), k):
                assert is_transitive_on(t, vs) == is_transitive_subset(t, vs)


def test_max_transitive_subset_on_transitive_host():
    t = transitive_tournament(7)
    assert len(max_transitive_subset(t)) == 7


def test_reverse_swaps_triangle_roles():
    t = random_tournament(8, 4)
    r = reverse(t)
    assert census(t) == census(r)
    assert r != t
    assert reverse(r) == t


def test_transitive_triple_floor_holds_on_small_hosts():
    # the floor is a convexity consequence of the degree-sum identity
    for seed in range(30):
        t = random_tournament(7, seed)
        assert census(t).a >= transitive_triples_lower_bound(7)
    assert census(random_tournament(7, 0)).a >= Fraction(21)


def test_transitive_triple_floor_is_attained():
    # a rotational 7-vertex tournament meets the floor exactly
    from ttpack.constructions import qr7

    assert census(qr7()).a == transitive_triples_lower_bound(7) == 21


def test_transitive_triple_floor_starts_at_three_vertices():
    assert transitive_triples_lower_bound(3) == 0
    with pytest.raises(ValueError, match="^bound defined for k >= 3$"):
        transitive_triples_lower_bound(2)
