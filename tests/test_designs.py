"""Triple systems, the 49-point line design, and the design file format."""

import re
from itertools import combinations

import pytest

from oracles import all_triple_systems, sts_triangle_count, transitive_sts_search
from ttpack.designs import (
    BlockDesign,
    _orbit,
    ag2_lines,
    all_sts7,
    fano_plane,
    parse_design,
    serialize_design,
    verify_design,
)
from ttpack.constructions import qr7
from ttpack.tournament import census, random_tournament, transitive_tournament


def pair_coverage(d: BlockDesign) -> dict:
    cover = {}
    for block in d.blocks:
        for p in combinations(block, 2):
            cover[p] = cover.get(p, 0) + 1
    return cover


def test_fano_plane_is_a_triple_system():
    d = fano_plane()
    assert (d.point_count, d.block_size, len(d.blocks)) == (7, 3, 7)
    assert verify_design(d)
    assert set(pair_coverage(d).values()) == {1}


def test_sts9_is_a_triple_system():
    d = ag2_lines(3)
    assert (d.point_count, d.block_size, len(d.blocks)) == (9, 3, 12)
    assert verify_design(d)


def test_verify_design_rejects_defects():
    good = fano_plane()
    missing = BlockDesign(7, 3, good.blocks[:-1])
    assert not verify_design(missing)
    doubled = BlockDesign(7, 3, good.blocks[:-1] + (good.blocks[0],))
    assert not verify_design(doubled)
    # too few points or too small a block size, whatever the blocks
    assert not verify_design(BlockDesign(1, 3, ()))
    assert not verify_design(BlockDesign(7, 1, tuple((p,) for p in range(7))))
    # one block of the wrong size, with a repeated point, or off the points
    for block in [(0, 1), (0, 0, 1), (0, 1, 7), (-1, 0, 1)]:
        assert not verify_design(BlockDesign(7, 3, (block, *good.blocks[1:])))


def test_all_sts7_is_the_full_orbit():
    designs = all_sts7()
    assert len(designs) == 30
    assert len(set(designs)) == 30
    for d in designs:
        assert verify_design(d)
    # every triple appears in the same number of systems by symmetry
    freq = {}
    for d in designs:
        for b in d.blocks:
            freq[b] = freq.get(b, 0) + 1
    assert set(freq.values()) == {6}
    assert len(freq) == 35


@pytest.mark.parametrize("base, v", [(fano_plane(), 7), (ag2_lines(3), 9)], ids=[7, 9])
def test_orbit_generation_matches_exact_cover_enumeration(base, v):
    # dual route: the relabeling orbit must coincide with the set of ALL
    # pairwise-balanced triple systems found by backtracking, 30 at v = 7
    # and 840 at v = 9, each listed once and sorted by blocks
    orbit = _orbit(base)
    assert [d.blocks for d in orbit] == sorted({d.blocks for d in orbit})
    assert {frozenset(d.blocks) for d in orbit} == set(all_triple_systems(v))
    assert len(orbit) == {7: 30, 9: 840}[v]


def test_triangle_count_identity_against_census():
    # summing directed-triangle indicators over all 30 systems counts each
    # vertex triple equally often, so the average is t/5 exactly
    from fractions import Fraction

    for seed in (0, 1, 2):
        t = random_tournament(7, seed)
        total = sum(sts_triangle_count(t, d) for d in all_sts7())
        assert Fraction(total, 30) == Fraction(census(t).t, 5)


def test_triangle_count_extremes():
    assert sts_triangle_count(transitive_tournament(7), fano_plane()) == 0
    # a rotational tournament with 14 directed triangles averages 14/5,
    # so some system must reach 3 or more
    counts = [sts_triangle_count(qr7(), d) for d in all_sts7()]
    assert max(counts) >= 3
    assert sum(counts) == 14 * 6


def test_transitive_sts_search():
    assert transitive_sts_search(transitive_tournament(7)) is not None
    assert transitive_sts_search(qr7()) is None
    found = transitive_sts_search(transitive_tournament(9))
    assert found is not None and len(found) == 12


def test_ag2_lines_is_a_49_point_design():
    d = ag2_lines(7)
    assert (d.point_count, d.block_size, len(d.blocks)) == (49, 7, 56)
    assert verify_design(d)
    replication = {}
    for block in d.blocks:
        for p in block:
            replication[p] = replication.get(p, 0) + 1
    assert set(replication.values()) == {8}


def test_ag2_lines_needs_a_prime_order():
    d = ag2_lines(5)
    assert (d.point_count, d.block_size, len(d.blocks)) == (25, 5, 30)
    assert verify_design(d)
    for q in (0, 1, 4, 9):
        with pytest.raises(ValueError, match=f"needs a prime q, got {q}$"):
            ag2_lines(q)


def test_serialize_parse_round_trip():
    for d in (fano_plane(), ag2_lines(3), ag2_lines(7)):
        assert parse_design(serialize_design(d)) == d


def test_parse_design_rejects_bad_input():
    for blank in ("", "\n \n"):
        with pytest.raises(ValueError, match="^empty design text$"):
            parse_design(blank)
    with pytest.raises(ValueError, match="bad design header 'v=7 k=3'"):
        parse_design("v=7 k=3\n0 1 2\n")
    with pytest.raises(ValueError, match="block '0 1' does not have 3 points"):
        parse_design("v=7 k=3 b=1\n0 1\n")
    with pytest.raises(ValueError, match="header promises 2 blocks, found 1"):
        parse_design("v=7 k=3 b=2\n0 1 2\n")
    # int() reads each of these, and str() writes none of them back
    for point in ("+2", "0_2", "02", "\u0662", "x", "2.0"):
        block = f"0 1 {point}"
        with pytest.raises(ValueError, match=re.escape(f"{point!r} of block {block!r} is not a canonical integer")):
            parse_design(f"v=3 k=3 b=1\n{block}\n")
    for header, token in (("v=+3 k=3 b=1", "+3"), ("v=3 k=03 b=1", "03"), ("v=3 k=3 b=0_1", "0_1"), ("v=x k=3 b=1", "x")):
        with pytest.raises(ValueError, match=re.escape(f"{token!r} of header {header!r} is not a canonical integer")):
            parse_design(f"{header}\n0 1 2\n")
    # the canonical forms still parse, negative points included (verify_design rejects those)
    assert parse_design("v=3 k=3 b=1\n0 1 2\n") == BlockDesign(3, 3, ((0, 1, 2),))
    assert parse_design("v=3 k=3 b=1\n-1 1 2\n").blocks == ((-1, 1, 2),)
