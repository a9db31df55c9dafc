"""Isomorph-free enumeration of small tournaments.

Canonical form: the lexicographically minimal upper-triangle bit string over
all vertex relabelings.  Computed by an ordered-partition refinement search
rather than an n! scan: the code is minimized row by row, and the set of
orderings achieving the minimal rows so far is exactly captured by a list of
position cells that get split by each newly placed vertex's out-set.  Ties
branch; the answer is the minimum over branch leaves, which equals the
unpruned definition (asserted against a full permutation scan for n <= 6 in
the test suite).  Once every cell is a single vertex the order is forced,
so the rest of the path is read off as one leaf rather than searched level
by level (see `_min_code_rows`).

Enumeration is orderly: extend each canonical representative of order n-1 by
one new vertex, canonicalize, deduplicate.  Of the 2^(n-1) extensions, only
those whose new vertex has the least key (out-degree, then the sum of its
out-neighbours' out-degrees) are canonicalized; every class still has such an
extension (see `_extension_codes`).  Results are cached on disk keyed by
order and format version, and every list, read or built, must match the
order's pinned digest in `CLASS_TABLE`.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import signal
from collections.abc import Sequence
from functools import cache
from itertools import combinations

from . import FORMAT_VERSION
from .tournament import Tournament, tournament_from_bits

MAX_CANONICAL_VERTICES = 10

# One row per supported order n = 1, 2, ...: the number of isomorphism
# classes, and the sha256 of their sorted codes joined by newlines.  The
# count stands beside the digest, since [] and [""] join alike.
CLASS_TABLE = (
    (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
    (2, "cf13902bae18fdcb1aa6d32989d110d63ac60aea394ea7e3f6cd0cb458090495"),
    (4, "abe29de9fdfce7a7a82dd71e01fe7ccf79a36e96090a74fc14f563f11864c9f5"),
    (12, "c860fd3127668cc249786136390e1ce50062d24df12c11ed2b1ea4c4778a232a"),
    (56, "19b1706067fb0107b87f521fffbea03500e144ce276edcadcf7bf9d5d1432ece"),
    (456, "13400bec677a3bb07553b465cdb7ae1ea9ef6f5f654f3820cb4024eb74c7f3c3"),
    (6880, "cda7ebc640161eb812fef4d217d5ca092e4aeea73481c811b186f2be4dfef4d1"),
)
MAX_ENUMERATION_VERTICES = len(CLASS_TABLE)

CACHE_ENV_VAR = "TTPACK_CACHE"
DEFAULT_CACHE_DIR = "cache"


class EnumerationError(ValueError):
    pass


@cache
def _set_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Per n-bit vertex set m: its vertices in increasing order, and (1 << |m|) - 1.

    Each set with top bit v is a set of 0..v-1, listed earlier, plus v.
    """
    members: list[tuple[int, ...]] = [()]
    for v in range(n):
        members += [vs + (v,) for vs in members]
    return tuple(members), tuple((1 << len(vs)) - 1 for vs in members)


def _min_code_rows(out: Sequence[int]) -> list[int]:
    """Rows of the minimal code of the tournament whose out-sets are `out`.

    With n = len(out), rows[i] is the n-1-i bits of row i as an int.

    A node's candidates are the vertices of its first cell, the head.  The
    row a candidate u would emit holds, cell by cell (the head without u,
    then the other cells in order), as many 0s as the cell has
    non-out-neighbours of u followed by as many 1s as it has out-neighbours:
    so each cell's field of width |cell| reads (1 << ones) - 1, and the row
    is these fields joined as one int.  Every candidate at a node sees the
    same cells, so the fields have the same widths for each, and comparing
    the ints compares the per-cell ones counts lexicographically, with more
    ones in the first differing cell giving the larger row.  The least int
    is therefore the node's row, and its candidates are exactly those with
    the least tuple of counts.  The head's field is the row's top field, so
    its width never enters the int.

    Forced tail: a node whose cells are all singletons has one ordering
    left, so its remaining rows are read straight off the out-sets and the
    whole row list is compared once with the incumbent.  The recursion
    would walk that one path to its one leaf and keep it only if its rows
    are strictly smaller; the prefix prune along the way cuts only paths
    whose rows already exceed the incumbent's, so it changes nothing.
    """
    n = len(out)
    members, ones = _set_tables(n)
    best: list[int] | None = None

    def dfs(cells: list[int], rows: list[int]) -> None:
        nonlocal best
        depth = len(rows)
        if len(cells) == n - depth:
            # the forced tail: each cell is one vertex, placed in cell order
            full = rows.copy()
            for i, cell in enumerate(cells):
                ou = out[cell.bit_length() - 1]
                row = 0
                for c in cells[i + 1 :]:
                    row = (row << 1) | (ou & c != 0)
                full.append(row)
            if best is None or full < best:
                best = full
            return
        head = cells[0]
        rest = cells[1:]
        fields = [(c, c.bit_count()) for c in rest]
        # the candidates of least row, in increasing vertex order; every
        # row is below 1 << n
        cands: list[int] = []
        least = 1 << n
        for u in members[head]:
            ou = out[u]
            row = ones[ou & head]
            for c, width in fields:
                row = (row << width) | ones[ou & c]
            if row < least:
                least, cands = row, [u]
            elif row == least:
                cands.append(u)
        rows.append(least)
        # prune against the live incumbent; equal widths per index make the
        # row-int list comparison the same as bit-string comparison
        if best is None or rows <= best[: depth + 1]:
            for u in cands:
                ou = out[u]
                new_cells: list[int] = []
                for c in (head ^ (1 << u), *rest):
                    z = c & ~ou
                    o = c & ou
                    if z:
                        new_cells.append(z)
                    if o:
                        new_cells.append(o)
                dfs(new_cells, rows)
        rows.pop()

    dfs([(1 << n) - 1] if n else [], [])
    if best is None:
        raise AssertionError("canonical labeling self-check failed: the search reached no leaf")
    return best


def canonical_code(t: Tournament) -> str:
    """Lexicographically minimal serialization over all relabelings.

    The rows have widths n-1, n-2, ..., 0, so folding them into one int,
    each shifted left by the width of the row after it, gives the code's
    C(n,2) bits, and one format pads them back to that length.
    """
    n = t.n
    if n > MAX_CANONICAL_VERTICES:
        raise EnumerationError(f"canonical form capped at n <= {MAX_CANONICAL_VERTICES}")
    code = 0
    for i, row in enumerate(_min_code_rows(t.out)):
        code = (code << (n - 1 - i)) | row
    return format(code, f"0{n * (n - 1) // 2}b") if n > 1 else ""


def tournament_from_code(code: str) -> Tournament:
    """Rebuild a tournament from a C(n,2)-character code; n is implied by the length.

    The code is read as an int, by code_out_sets; the order-1 code "" reads as 0.
    """
    length = len(code)
    n = (1 + math.isqrt(1 + 8 * length)) // 2
    if n * (n - 1) // 2 != length:
        raise EnumerationError(f"code length {length} is not a binomial C(n,2)")
    return Tournament(n, code_out_sets(n, int(code or "0", 2)))


@cache
def _code_tables(n: int) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """The packed out-sets of the all-zero code of order n, and per-byte toggle tables.

    code_out_sets packs the out-sets into one int, out[v] at bits n*v to
    n*v + n - 1.  With every bit of the code 0, each pair i < j is
    oriented j -> i, which sets bit n*j + i.  The pair at position p of
    combinations(range(n), 2) is the code int's bit C(n,2) - 1 - p, and a
    set bit orients it i -> j, which toggles bits n*j + i and n*i + j.  One
    row per byte of the int holds its shift and 256 toggle masks: entry b
    toggles the pairs of the set bits of b in that byte.  The top byte is
    partial when 8 does not divide C(n,2), and its bits past the code
    toggle nothing.
    """
    pairs = list(combinations(range(n), 2))
    zero = sum(1 << n * j + i for i, j in pairs)
    tables = []
    for shift in range(0, len(pairs), 8):
        table = [0]
        for s in range(shift, shift + 8):
            mask = 0
            if s < len(pairs):
                i, j = pairs[-1 - s]
                mask = 1 << n * j + i | 1 << n * i + j
            table += [entry | mask for entry in table]
        tables.append((shift, tuple(table)))
    return zero, tuple(tables)


def code_out_sets(n: int, bits: int) -> tuple[int, ...]:
    """Out-sets of the order-n tournament whose code, read as an int, is bits.

    One lookup per byte of the int toggles the pairs of its set bits in
    the packed out-sets of the all-zero code (see _code_tables).
    """
    packed, tables = _code_tables(n)
    for shift, table in tables:
        packed ^= table[bits >> shift & 255]
    full = (1 << n) - 1
    return tuple(packed >> n * v & full for v in range(n))


def _degree_sum(nbrs: int, degree: list[int]) -> int:
    """Sum of degree[w] over the vertices w in the bitset nbrs."""
    total = 0
    while nbrs:
        low = nbrs & -nbrs
        nbrs ^= low
        total += degree[low.bit_length() - 1]
    return total


def _extension_codes(args: tuple[str, int]) -> set[str]:
    """Canonical codes of the one-vertex extensions of a representative.

    Only extensions whose new vertex has the least key are canonicalized.
    The key of a vertex is (its out-degree, the sum of its out-neighbours'
    out-degrees), both taken in the extended tournament.  The out-degree is
    tested first, as it costs nothing: the new vertex has mask.bit_count(),
    and an old vertex v has deg[v] plus one unless v is in mask.

    Soundness (McKay's orderly generation, J. Algorithms 26 (1998)): the
    key is an isomorphism invariant.  Every tournament T of order m+1 has a
    vertex v of least key, and T - v is isomorphic, by some phi, to one
    representative R of order m.  The extension of R by phi(N+(v)) is then
    isomorphic to T, with the new vertex in the place of v, so its new
    vertex has the least key.  Every class is still reached, and the set of
    canonical codes is unchanged.
    """
    code, m = args
    base = tournament_from_bits(m, code)
    bit = 1 << m  # the added vertex
    deg = [o.bit_count() for o in base.out]
    ceiling = min(deg) + 1  # no old vertex gains more than one win
    codes: set[str] = set()
    for mask in range(1 << m):
        d = mask.bit_count()
        if d > ceiling:
            continue
        # the new vertex beats mask; every other old vertex gains a win over it
        degree = [deg[v] + 1 - (mask >> v & 1) for v in range(m)]
        least = min(degree)
        if d > least:
            continue
        out = [o if mask >> v & 1 else o | bit for v, o in enumerate(base.out)]
        if d == least:
            degree.append(d)
            own = _degree_sum(mask, degree)
            if any(
                degree[v] == d and _degree_sum(out[v], degree) < own for v in range(m)
            ):
                continue
        out.append(mask)
        codes.add(canonical_code(Tournament(m + 1, tuple(out))))
    return codes


def _cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"classes_n{n}_fmt{FORMAT_VERSION}.txt")


def _pin(codes: Sequence[str]) -> tuple[int, str]:
    """The row of CLASS_TABLE that these codes, in this order, must match."""
    return len(codes), hashlib.sha256("\n".join(codes).encode()).hexdigest()


def _read_cache(path: str, n: int) -> list[str] | None:
    """The cached codes of order n, or None when the file is absent or misses the pin.

    The header line is skipped, and every later line is one code: the
    order-1 file holds one empty line.  A file passes only when its
    codes match the order's row of CLASS_TABLE, so a truncated, padded
    or repeated code list is rebuilt rather than used; so is one that is
    not ASCII, since its undecodable bytes read as U+FFFD.
    """
    if not os.path.exists(path):
        return None
    with open(path, encoding="ascii", errors="replace") as fh:
        fh.readline()
        codes = fh.read().splitlines()
    return codes if _pin(codes) == CLASS_TABLE[n - 1] else None


def _write_cache(path: str, n: int, codes: list[str]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(f"count={len(codes)} n={n}\n")
        fh.writelines(c + "\n" for c in codes)
    os.replace(tmp, path)


def resolve_cache_dir(cache_dir: str | None = None) -> str:
    return cache_dir or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR


def _share(fn, jobs: list) -> tuple[list, Exception | None]:
    """fn over jobs up to the first that raises: the results before it, and its exception."""
    results = []
    try:
        for job in jobs:
            results.append(fn(job))
    except Exception as exc:
        return results, exc
    return results, None


def _pool_map(fn, jobs: list, workers: int):
    """fn over jobs, yielding results in job order, as map would.

    Runs in this process when workers <= 1.  Otherwise the jobs are cut
    into w = min(workers, len(jobs)) strided shares, share s being
    jobs[s::w].  Each of w - 1 processes forked here computes one share
    from its inherited copy of the jobs, so no job is pickled, writes one
    pickled (results, exception or None) to its pipe and ends by
    os._exit, whatever was raised, so it never returns into the caller's
    frames.  This process computes share 0 meanwhile, then reads each
    pipe to its end and reaps each child, all before the first result is
    yielded, so a caller that stops early leaves no child behind.

    A share stops at its first failing job.  Job j is result j // w of
    share j % w, so a share that failed after r results failed at job
    s + r * w; the least such job's exception is raised once the results
    before it are yielded, the exception map would raise.  A child that
    exits without writing its share raises RuntimeError.  Needs POSIX
    fork, which is safe here as ttpack starts no thread: the children see
    this process's state as it was at the call, the caches and test
    patches included.
    """
    w = min(workers, len(jobs))
    if w <= 1:
        yield from map(fn, jobs)
        return
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for s in range(1, w):
            readable, writable = os.pipe()
            pipe = open(readable, "rb")
            with open(writable, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        pickle.dump(_share(fn, jobs[s::w]), sink)
                        sink.flush()
                        status = 0
                    finally:  # a BaseException too ends the child here
                        os._exit(status)
            children.append((pid, pipe))
        shares = [_share(fn, jobs[::w])]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not data:
                raise RuntimeError(f"worker {pid} exited with code {os.waitstatus_to_exitcode(status)} before returning its share")
            shares.append(pickle.loads(data))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = min((s + len(results) * w for s, (results, exc) in enumerate(shares) if exc is not None), default=len(jobs))
    for j in range(failed):
        yield shares[j % w][0][j // w]
    if failed < len(jobs):
        raise shares[failed % w][1]


def _read_or_build_codes(n: int, cache_dir: str, workers: int) -> tuple[str, ...]:
    """The codes of order n from the cache, or built from order n-1's and written.

    A built list that misses its pin is never written: the build raises.
    """
    path = _cache_path(cache_dir, n)
    codes = _read_cache(path, n)
    if codes is None:
        if n == 1:
            codes = [""]
        else:
            jobs = [(code, n - 1) for code in _read_or_build_codes(n - 1, cache_dir, workers)]
            codes = sorted(set().union(*_pool_map(_extension_codes, jobs, workers)))
        if _pin(codes) != CLASS_TABLE[n - 1]:
            raise AssertionError(
                f"enumeration self-check failed: the {len(codes)} codes of order {n} miss the pinned digest"
            )
        _write_cache(path, n, codes)
    return tuple(codes)


def enumerate_codes(n: int, cache_dir: str | None = None, workers: int = 1) -> tuple[str, ...]:
    """Sorted canonical codes of all isomorphism classes of order n."""
    if not 1 <= n <= MAX_ENUMERATION_VERTICES:
        raise EnumerationError(f"enumeration capped at n <= {MAX_ENUMERATION_VERTICES}")
    return _read_or_build_codes(n, resolve_cache_dir(cache_dir), workers)
