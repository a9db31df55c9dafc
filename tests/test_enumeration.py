"""Isomorph-free enumeration, canonical labeling, and the class cache."""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from itertools import permutations
from math import comb, factorial
from pathlib import Path
from types import CodeType

import pytest

import ttpack

from oracles import (
    all_extension_codes,
    automorphism_count,
    brute_force_canonical_code,
    enumerate_nonisomorphic,
    labeled_count_with_score,
    oracle_canonical_code,
    scores_with_triangle_count,
)
from ttpack.constructions import qr7, turan3_tournament
from ttpack.enumeration import (
    CLASS_TABLE,
    MAX_ENUMERATION_VERTICES,
    EnumerationError,
    _cache_path,
    _pool_map,
    canonical_code,
    code_out_sets,
    enumerate_codes,
    tournament_from_code,
)
from ttpack.tournament import Tournament, random_tournament, tournament_from_bits, transitive_tournament


def relabel(t: Tournament, perm) -> Tournament:
    out = [0] * t.n
    for u in range(t.n):
        for v in range(t.n):
            if t.out[u] >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return Tournament(t.n, tuple(out))


def test_class_counts_up_to_seven(cache_dir):
    for n in range(1, 8):
        assert len(enumerate_codes(n, cache_dir=cache_dir)) == CLASS_TABLE[n - 1][0]


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

    def counting(out):
        calls[len(out)] += 1
        return original(out)

    monkeypatch.setattr(enumeration, "_min_code_rows", counting)
    enumerate_codes(8, cache_dir=str(tmp_path), workers=1)
    # 8,619 calls in all; canonicalizing every extension would take 62,422
    assert calls == {2: 1, 3: 2, 4: 6, 5: 14, 6: 81, 7: 573, 8: 7942}


def test_cold_build_search_calls(tmp_path):
    # The labeling search is the one function nested in _min_code_rows, and
    # each of its calls is one node of the search tree; the count is the same
    # on every machine.  README states 67,152 calls for orders 1-8.
    from ttpack import enumeration

    (search,) = [c for c in enumeration._min_code_rows.__code__.co_consts if isinstance(c, CodeType)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is search:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        enumerate_codes(7, cache_dir=str(tmp_path), workers=1)
    finally:
        sys.setprofile(previous)
    assert calls == 5040


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


def circulant(n: int, offsets) -> Tournament:
    """Vertex i beats i + d (mod n) for each d in offsets."""
    return Tournament(n, tuple(sum(1 << (i + d) % n for d in offsets) for i in range(n)))


def test_canonical_code_is_relabeling_invariant():
    t = random_tournament(7, 123)
    reference = canonical_code(t)
    for perm in list(permutations(range(7)))[:: 257]:
        assert canonical_code(relabel(t, perm)) == reference
    # Orders 9 and 10, where many vertices tie at the root: a vertex-transitive
    # circulant (all 9 tie), the same with its directed triangle 0 -> 3 -> 6
    # reversed (still regular, 3 automorphisms instead of 9), and each of those
    # with a tenth vertex that beats 0, 2, 4, 6 (scores 5 and 4 only).
    c9 = circulant(9, (1, 2, 3, 4))
    triangle = {0: 1 << 3 | 1 << 6, 3: 1 << 6 | 1 << 0, 6: 1 << 0 | 1 << 3}
    flipped = Tournament(9, tuple(o ^ triangle.get(v, 0) for v, o in enumerate(c9.out)))
    hosts = [c9, flipped]
    for host in (c9, flipped):
        beaten = 0b1010101
        out = tuple(o if beaten >> v & 1 else o | 1 << 9 for v, o in enumerate(host.out))
        hosts.append(Tournament(10, out + (beaten,)))
    rng = random.Random(9)
    for host in hosts:
        host.validate()
        reference = canonical_code(host)
        for _ in range(20):
            perm = list(range(host.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(host, perm)) == reference


def test_canonical_order_relabels_to_the_code(cache_dir):
    rng = random.Random(4)
    for n in range(1, 9):
        for code in enumerate_codes(n, cache_dir=cache_dir):
            base = tournament_from_code(code)
            for _ in range(3 if n < 8 else 1):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_code(relabel(base, perm)) == code


def test_canonical_code_matches_brute_force_on_small_orders():
    # the order-7 and order-8 hosts have many ties, so the search reaches
    # all-singleton cells late
    hosts = [random_tournament(n, seed) for n in range(1, 7) for seed in range(10)]
    hosts += [qr7(), turan3_tournament(7), transitive_tournament(7)]
    # the two order-8 classes whose labeling from their codes makes the most
    # search calls (51 and 53 of at most 53): qr7 plus a sink, and a class of
    # score 4,4,4,4,3,3,3,3, here relabeled
    hosts.append(Tournament(8, tuple(o | 1 << 7 for o in qr7().out) + (0,)))
    perm = list(range(8))
    random.Random(8).shuffle(perm)
    hosts.append(relabel(tournament_from_code("0000111000011011000100100110"), perm))
    for t in hosts:
        assert canonical_code(t) == brute_force_canonical_code(t)


def test_canonical_form_is_capped_at_ten_vertices():
    assert len(canonical_code(random_tournament(10, 0))) == 45
    with pytest.raises(EnumerationError):
        canonical_code(random_tournament(11, 0))


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
    body = "".join(code + "\n" for code in full).encode()
    bad = {
        # the header matches the body, but one class is missing
        "short": f"count={len(full) - 1} n=5\n".encode() + body[: -len(full[-1]) - 1],
        # a byte that is not ASCII
        "undecodable": f"count={len(full)} n=5\n".encode() + b"\xff" + body,
    }
    for name, data in bad.items():
        path = _cache_path(str(tmp_path / name), 5)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(data)
        assert enumerate_codes(5, cache_dir=str(tmp_path / name)) == full, name
        with open(path) as fh:
            assert fh.readline().split() == [f"count={CLASS_TABLE[4][0]}", "n=5"]


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TTPACK_CACHE", str(tmp_path))
    from ttpack.enumeration import resolve_cache_dir

    assert resolve_cache_dir(None) == str(tmp_path)
    assert resolve_cache_dir("explicit") == "explicit"


def test_tournament_from_code_validates_length():
    assert tournament_from_code("101").n == 3
    with pytest.raises(EnumerationError):
        tournament_from_code("10")


def test_code_out_sets_reads_the_code_int():
    # against the text format's character decoder, on the all-zero and
    # all-one codes and seeded random codes of orders 1-10; bits past the
    # code in its top byte read as 0
    rng = random.Random(26)
    for n in range(1, 11):
        width = comb(n, 2)
        past = (1 << 8 * -(-width // 8)) - (1 << width)
        for bits in [0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(100))]:
            want = tournament_from_bits(n, format(bits, f"0{width}b") if n > 1 else "").out
            assert code_out_sets(n, bits) == want, (n, bits)
            assert code_out_sets(n, bits | past) == want, (n, bits)


def test_scores_with_triangle_count(cache_dir):
    # t=0 forces the transitive order, whose score is n-1, ..., 1, 0
    assert scores_with_triangle_count(5, 0, cache_dir=cache_dir) == {(4, 3, 2, 1, 0)}
    got = scores_with_triangle_count(7, 14, cache_dir=cache_dir)
    assert got == {(3, 3, 3, 3, 3, 3, 3)}


def test_enumeration_respects_workers(cache_dir, tmp_path):
    seq = enumerate_codes(6, cache_dir=str(tmp_path / "a"))
    par = enumerate_codes(6, cache_dir=str(tmp_path / "b"), workers=2)
    assert seq == par


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 3, 40])
def test_pool_map_equals_map(workers, count):
    jobs = [(j, -j) for j in range(count)]
    assert list(_pool_map(repr, jobs, workers)) == list(map(repr, jobs))


@pytest.mark.parametrize(
    "failing, first",
    [({4: ValueError, 6: KeyError, 8: ZeroDivisionError}, 4), ({3: KeyError, 4: ValueError, 2: TypeError}, 2),
     ({9: KeyError, 7: ValueError}, 7), ({3: TypeError, 5: ValueError, 10: KeyError}, 3)],
    ids=["child-before-parent", "last-child-first", "child-later-in-its-share", "parent-first"],
)
def test_pool_map_raises_the_first_failing_job_by_job_order(failing, first):
    # 12 jobs over 3 shares: this process computes jobs 0, 3, 6 and 9, and
    # the two children 1, 4, 7, 10 and 2, 5, 8, 11
    def fn(j):
        if j in failing:
            raise failing[j](f"job {j} failed")
        return j

    got = []
    with pytest.raises(failing[first], match=f"^'?job {first} failed'?$"):
        for result in _pool_map(fn, list(range(12)), 3):
            got.append(result)
    assert got == list(range(first))


def test_pool_map_raises_when_a_child_exits_without_its_share():
    parent = os.getpid()

    def fn(j):
        if os.getpid() != parent:
            os._exit(3)
        return j

    def hung(*_):
        raise TimeoutError("the map waited on a child that had exited")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="exited with code 3 before returning its share"):
            list(_pool_map(fn, list(range(9)), 3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_pool_map_reaps_every_child_when_the_caller_stops_early():
    results = _pool_map(abs, list(range(-40, 0)), 3)
    assert next(results) == 40
    results.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_transitive_class_is_enumerated(cache_dir):
    codes = enumerate_codes(6, cache_dir=cache_dir)
    assert canonical_code(transitive_tournament(6)) in codes


def test_second_call_reads_the_cache_at_any_worker_count(tmp_path, monkeypatch):
    from ttpack import enumeration

    extended = []
    original = enumeration._extension_codes

    def counting(args):
        extended.append(args)
        return original(args)

    monkeypatch.setattr(enumeration, "_extension_codes", counting)
    first = enumerate_codes(5, cache_dir=str(tmp_path))
    built = sum(count for count, _ in CLASS_TABLE[:4])
    assert len(extended) == built
    # another worker count reads the file the first call wrote
    assert enumerate_codes(5, cache_dir=str(tmp_path), workers=2) == first
    assert len(extended) == built


def test_order_one_reads_back_without_a_rebuild(tmp_path, monkeypatch):
    from ttpack import enumeration

    assert enumerate_codes(1, cache_dir=str(tmp_path)) == ("",)
    assert enumeration._read_cache(_cache_path(str(tmp_path), 1), 1) == [""]

    def no_write(*args):
        raise AssertionError("order 1 was rebuilt")

    monkeypatch.setattr(enumeration, "_write_cache", no_write)
    assert enumerate_codes(1, cache_dir=str(tmp_path)) == ("",)


def test_cold_build_that_misses_its_pin_raises(tmp_path, monkeypatch):
    from ttpack import enumeration

    table = list(CLASS_TABLE)
    table[3] = (4, "0" * 64)
    monkeypatch.setattr(enumeration, "CLASS_TABLE", tuple(table))
    with pytest.raises(AssertionError, match="codes of order 4 miss the pinned digest"):
        enumerate_codes(4, cache_dir=str(tmp_path / "here"))
    assert not os.path.exists(_cache_path(str(tmp_path / "here"), 4))
    # `python -O` strips assert statements, not an explicit raise
    script = (
        "import sys; from ttpack import enumeration as e; "
        "e.CLASS_TABLE = e.CLASS_TABLE[:3] + ((4, '0' * 64),) + e.CLASS_TABLE[4:]; "
        "e.enumerate_codes(4, cache_dir=sys.argv[1])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ttpack.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, str(tmp_path / "optimized")], capture_output=True, text=True, env=env
    )
    assert done.returncode == 1
    assert "AssertionError: enumeration self-check failed" in done.stderr


def test_pin_table_has_one_row_per_class_count():
    assert len(CLASS_TABLE) == MAX_ENUMERATION_VERTICES
    assert tuple(count for count, _ in CLASS_TABLE) == (1, 1, 2, 4, 12, 56, 456, 6880)
    # the same figures as the benchmark's reference answers
    reference = json.loads((Path(__file__).parent.parent / "perfbench" / "reference.json").read_text())
    rows = [reference["enumerate"][str(n)] for n in range(1, MAX_ENUMERATION_VERTICES + 1)]
    assert tuple((row["count"], row["sha256"]) for row in rows) == CLASS_TABLE
