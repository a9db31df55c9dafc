"""Isomorph-free enumeration, canonical labeling, and the class cache."""

import hashlib
import json
import os
import random
import re
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
    canonical_code,
    enumerate_nonisomorphic,
    is_tournament,
    labeled_count_with_score,
    least_key_extensions,
    oracle_canonical_code,
    scores_with_triangle_count,
)
from ttpack.constructions import qr7, turan3_tournament
from ttpack.enumeration import (
    CLASS_TABLE,
    MAX_ENUMERATION_VERTICES,
    _cache_path,
    _pool_map,
    enumerate_codes,
)
from ttpack.tournament import Tournament, random_tournament, tournament_from_code, transitive_tournament


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
        enumerate_codes(8, cache_dir=str(tmp_path), workers=1)
    finally:
        sys.setprofile(previous)
    assert calls == 67152


def test_extension_codes_match_the_least_key_oracle(cache_dir, monkeypatch):
    # the listed masks are exactly those the filter over all 2^m masks admits
    from ttpack import enumeration

    codes = [code for n in range(1, 8) for code in enumerate_codes(n, cache_dir=cache_dir)]
    assert len(codes) == 532
    original = enumeration._min_code_rows
    labeled = []

    def recording(out):
        labeled.append(tuple(out))
        return original(out)

    monkeypatch.setattr(enumeration, "_min_code_rows", recording)
    total = 0
    for code in codes:
        labeled.clear()
        got = enumeration._extension_codes(code)
        admitted = least_key_extensions(code)
        assert sorted(labeled) == sorted(t.out for t in admitted), code
        assert got == {canonical_code(t) for t in admitted}, code
        total += len(admitted)
    assert total == 8619


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
        assert is_tournament(host)
        reference = canonical_code(host)
        for _ in range(20):
            perm = list(range(host.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(host, perm)) == reference


def test_the_labeling_leaves_no_reference_cycle():
    # as for the copy walk and the search: the labeler's recursive closure
    # would reach itself through its cell, one garbage cycle per labeling
    import gc

    hosts = [random_tournament(8, seed) for seed in range(4)]
    gc.collect()
    gc.disable()
    try:
        for host in hosts:
            canonical_code(host)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def head_tie_split_later(t: Tournament) -> bool:
    """Whether, below some root vertex u of least out-degree, two vertices tie on the head cell and not on u's out-set.

    There the labeler's candidates tie on the head field, the non-out-
    neighbours of u, and only the next cell tells them apart.
    """
    full = (1 << t.n) - 1
    low = min(o.bit_count() for o in t.out)
    for u, ou in enumerate(t.out):
        if ou.bit_count() == low:
            head = full & ~ou & ~(1 << u)
            counts = {w: (t.out[w] & head).bit_count() for w in range(t.n) if head >> w & 1}
            fewest = min(counts.values())
            if len({(t.out[w] & ou).bit_count() for w, c in counts.items() if c == fewest}) > 1:
                return True
    return False


# Labeler inputs of the order-7 and order-8 builds, picked by running the
# labeler over all of them: at depth 1 two or three head vertices tie on the
# head cell and the second cell leaves one or two of them; at depth 2 the
# last two split a three-way head tie at the second cell, then the third.
LATER_CELL_TIES = (
    (96, 17, 3, 87, 101, 78, 6),
    (112, 33, 3, 103, 78, 84, 6),
    (224, 193, 19, 71, 171, 14, 180, 44),
)


@pytest.mark.parametrize("out", LATER_CELL_TIES)
def test_canonical_code_breaks_head_ties_on_later_cells(out):
    host = Tournament(len(out), out)
    assert is_tournament(host)
    assert head_tie_split_later(host)
    reference = canonical_code(host)
    assert reference == brute_force_canonical_code(host)
    rng = random.Random(len(out))
    for _ in range(20):
        perm = list(range(host.n))
        rng.shuffle(perm)
        assert canonical_code(relabel(host, perm)) == reference


def test_canonical_form_is_capped_at_ten_vertices():
    assert len(canonical_code(random_tournament(10, 0))) == 45
    with pytest.raises(ValueError, match="canonical form capped at n <= 10"):
        canonical_code(random_tournament(11, 0))


@pytest.mark.parametrize("n", [0, 9])
def test_enumeration_rejects_an_order_outside_its_range(tmp_path, n):
    with pytest.raises(ValueError, match=f"^enumeration supports 1 <= n <= 8, got {n}$"):
        enumerate_codes(n, cache_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())


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


def test_a_stale_cache_file_is_neither_read_nor_deleted(cache_dir, tmp_path, monkeypatch):
    # a file is named by its order alone, so one left under an older name,
    # here holding the right codes, is never opened and never removed
    from ttpack import enumeration

    codes = enumerate_codes(7, cache_dir=cache_dir)
    stale = tmp_path / "classes_n7_fmt1.txt"
    stale.write_text("".join(f"{code}\n" for code in ("count=456 n=7", *codes)))
    before = stale.read_bytes()
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(enumeration, "open", spy, raising=False)
    assert enumerate_codes(7, cache_dir=str(tmp_path)) == codes
    # the build wrote through a temp file of its own
    assert any(re.fullmatch(r"classes_n7\.txt\.[0-9a-f]{16}\.tmp", name) for name in opened)
    assert stale.name not in opened
    assert stale.read_bytes() == before
    names = {path.name for path in tmp_path.iterdir()}
    assert names == {stale.name, *(f"classes_n{n}.txt" for n in range(1, 8))}


def test_cache_writers_sharing_a_directory_do_not_collide(tmp_path, monkeypatch):
    # a second writer of the same file runs to the end inside the first's
    # rename; each renames its own temp file, so both succeed
    from ttpack import enumeration

    codes = list(enumerate_codes(5, cache_dir=str(tmp_path / "source")))
    path = _cache_path(str(tmp_path / "shared"), 5)
    original = os.replace
    renamed = []

    def replace(src, dst):
        renamed.append(src)
        if len(renamed) == 1:
            enumeration._write_cache(path, 5, codes)
        original(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    enumeration._write_cache(path, 5, codes)
    assert len(set(renamed)) == 2
    assert enumeration._read_cache(path, 5) == codes
    assert os.listdir(tmp_path / "shared") == ["classes_n5.txt"]


def test_a_failed_cache_write_leaves_no_temp_file(tmp_path):
    from ttpack import enumeration

    path = _cache_path(str(tmp_path), 2)
    with pytest.raises(UnicodeEncodeError):
        enumeration._write_cache(path, 2, ["\u00e9"])
    assert os.listdir(tmp_path) == []


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
    got = _pool_map(repr, jobs, workers)
    assert type(got) is list and got == list(map(repr, jobs))


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

    with pytest.raises(failing[first], match=f"^'?job {first} failed'?$"):
        _pool_map(fn, list(range(12)), 3)


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
            _pool_map(fn, list(range(9)), 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_pool_map_reaps_every_child_when_it_returns_or_raises():
    assert _pool_map(abs, list(range(-40, 0)), 3) == list(range(40, 0, -1))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with pytest.raises(ZeroDivisionError):
        _pool_map(lambda j: 1 // j, list(range(-20, 20)), 3)
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
