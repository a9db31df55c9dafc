"""Isomorph-free enumeration, canonical labeling, and the class cache."""

import hashlib
import random
from collections import Counter
from itertools import permutations
from math import comb, factorial

import pytest

from oracles import (
    all_extension_codes,
    automorphism_count,
    brute_force_canonical_code,
    labeled_count_with_score,
    oracle_canonical_code,
)
from ttpack.enumeration import (
    CLASS_COUNTS,
    EnumerationError,
    _cache_path,
    canonical_code,
    canonical_form,
    enumerate_codes,
    enumerate_nonisomorphic,
    scores_with_triangle_count,
    tournament_from_code,
)
from ttpack.tournament import (
    Tournament,
    random_tournament,
    tournament_bits,
    transitive_tournament,
)


def relabel(t: Tournament, perm) -> Tournament:
    out = [0] * t.n
    for u in range(t.n):
        for v in range(t.n):
            if t.out[u] >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return Tournament(t.n, tuple(out))


def test_class_counts_up_to_seven(cache_dir):
    for n in range(1, 8):
        assert len(enumerate_codes(n, cache_dir=cache_dir)) == CLASS_COUNTS[n - 1]


def test_key_filter_keeps_every_class(cache_dir):
    codes = {""}
    for n in range(2, 8):
        codes = all_extension_codes(codes, n - 1)
        assert enumerate_codes(n, cache_dir=cache_dir) == tuple(sorted(codes))


def test_order_eight_classes(cache_dir):
    codes = enumerate_codes(8, cache_dir=cache_dir)
    assert len(codes) == 6880
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert digest == "cda7ebc640161eb812fef4d217d5ca092e4aeea73481c811b186f2be4dfef4d1"


def test_cold_build_canonicalizes_only_least_key_extensions(tmp_path, monkeypatch):
    from ttpack import enumeration

    calls = Counter()
    original = enumeration._min_code_rows

    def counting(n, out):
        calls[n] += 1
        return original(n, out)

    monkeypatch.setattr(enumeration, "_min_code_rows", counting)
    enumerate_codes(8, cache_dir=str(tmp_path), workers=1)
    # 8,619 calls in all; canonicalizing every extension would take 62,422
    assert calls == {2: 1, 3: 2, 4: 6, 5: 14, 6: 81, 7: 573, 8: 7942}


def test_codes_are_canonical_sorted_and_distinct(cache_dir):
    codes = enumerate_codes(6, cache_dir=cache_dir)
    assert list(codes) == sorted(set(codes))
    for code in codes:
        assert canonical_code(tournament_from_code(code)) == code


def test_orbit_stabilizer_completeness(cache_dir):
    # The orbit of a class has n!/|Aut| labeled members, so distinct classes
    # whose orbits add up to all 2^C(n,2) labeled tournaments are every class;
    # per score, the orbits must add up to the labeled count of that score.
    for n in range(1, 8):
        ts = enumerate_nonisomorphic(n, cache_dir=cache_dir)
        assert len({oracle_canonical_code(t) for t in ts}) == len(ts)
        orbit_sums = Counter()
        for t in ts:
            orbit_sums[t.score()] += factorial(n) // automorphism_count(t)
        assert sum(orbit_sums.values()) == 2 ** comb(n, 2)
        for score, orbit_sum in orbit_sums.items():
            assert orbit_sum == labeled_count_with_score(score)


def test_canonical_code_is_relabeling_invariant():
    t = random_tournament(7, 123)
    reference = canonical_code(t)
    for perm in list(permutations(range(7)))[:: 257]:
        assert canonical_code(relabel(t, perm)) == reference


def test_canonical_order_relabels_to_the_code(cache_dir):
    rng = random.Random(4)
    for n in range(1, 8):
        for code in enumerate_codes(n, cache_dir=cache_dir):
            base = tournament_from_code(code)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                t = relabel(base, perm)
                form = canonical_form(t)
                assert form.code == code
                assert sorted(form.order) == list(range(n))
                # send vertex order[i] to position i
                to_position = [0] * n
                for i, v in enumerate(form.order):
                    to_position[v] = i
                assert tournament_bits(relabel(t, to_position)) == code


def test_canonical_code_matches_brute_force_on_small_orders():
    for n in range(1, 5):
        for seed in range(10):
            t = random_tournament(n, seed)
            assert canonical_code(t) == brute_force_canonical_code(t)


def test_distinct_classes_have_distinct_codes(cache_dir):
    ts = enumerate_nonisomorphic(5, cache_dir=cache_dir)
    assert len(ts) == 12
    assert len({canonical_code(t) for t in ts}) == 12


def test_cache_round_trip(tmp_path):
    first = enumerate_codes(5, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) >= 1
    again = enumerate_codes(5, cache_dir=str(tmp_path))
    assert first == again
    header = files[0].read_text().splitlines()[0]
    assert header.startswith("count=")


def test_truncated_cache_is_rebuilt(tmp_path):
    full = enumerate_codes(5, cache_dir=str(tmp_path / "full"))
    short = tmp_path / "short"
    short.mkdir()
    path = _cache_path(str(short), 5)
    # the header matches the body, but one class is missing
    with open(path, "w") as fh:
        fh.write(f"count={len(full) - 1} n=5\n")
        fh.writelines(code + "\n" for code in full[:-1])
    assert enumerate_codes(5, cache_dir=str(short)) == full
    with open(path) as fh:
        assert fh.readline().split() == [f"count={CLASS_COUNTS[4]}", "n=5"]


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TTPACK_CACHE", str(tmp_path))
    from ttpack.enumeration import resolve_cache_dir

    assert resolve_cache_dir(None) == str(tmp_path)
    assert resolve_cache_dir("explicit") == "explicit"


def test_tournament_from_code_validates_length():
    assert tournament_from_code("101").n == 3
    with pytest.raises(EnumerationError):
        tournament_from_code("10")


def test_scores_with_triangle_count(cache_dir):
    # t=0 forces the transitive order, whose score is n-1, ..., 1, 0
    assert scores_with_triangle_count(5, 0, cache_dir=cache_dir) == {(4, 3, 2, 1, 0)}
    got = scores_with_triangle_count(7, 14, cache_dir=cache_dir)
    assert got == {(3, 3, 3, 3, 3, 3, 3)}


def test_enumeration_respects_workers(cache_dir, tmp_path):
    seq = enumerate_codes(6, cache_dir=str(tmp_path / "a"))
    par = enumerate_codes(6, cache_dir=str(tmp_path / "b"), workers=2)
    assert seq == par


def test_transitive_class_is_enumerated(cache_dir):
    codes = enumerate_codes(6, cache_dir=cache_dir)
    assert canonical_code(transitive_tournament(6)) in codes


def test_memo_ignores_worker_count(tmp_path, monkeypatch):
    from ttpack import enumeration

    built = []
    original = enumeration._read_or_build_codes

    def counting(n, cache_dir, workers):
        built.append((n, workers))
        return original(n, cache_dir, workers)

    monkeypatch.setattr(enumeration, "_read_or_build_codes", counting)
    first = enumerate_codes(5, cache_dir=str(tmp_path))
    # a second worker count must reuse the memo, not rebuild or even reread
    again = enumerate_codes(5, cache_dir=str(tmp_path), workers=2)
    assert first == again
    assert built == [(n, 1) for n in range(5, 0, -1)]
