"""Isomorph-free enumeration of small tournaments.

Canonical form: the lexicographically minimal upper-triangle bit string over
all vertex relabelings.  Computed by an ordered-partition refinement search
rather than an n! scan: the code is minimized row by row, and the set of
orderings achieving the minimal rows so far is exactly captured by a list of
position cells that get split by each newly placed vertex's out-set.  A
node places one of its first cell's vertices, chosen cell by cell as those
with the fewest out-neighbours in each cell in turn.  Ties branch; the answer
is the minimum over branch leaves, which equals the unpruned definition
(asserted against a full permutation scan for n <= 6 in the test suite).
Once every cell is a single vertex the order is forced, so the rest of the
path is read off as one leaf rather than searched level by level (see
`_min_code_rows`).

Enumeration is orderly: extend each canonical representative of order n-1 by
one new vertex, canonicalize, deduplicate.  Of the 2^(n-1) extensions, only
those whose new vertex has the least key (out-degree, then the sum of its
out-neighbours' out-degrees) are canonicalized; every class still has such an
extension.  They are listed directly, and their keys found by arithmetic on
the representative's degrees, in plain loops that stop at the first old
vertex of smaller key (see `_extension_codes`).  Results are cached on disk
in one file per order, classes_n{n}.txt, whatever the report format, and
every list, read or built, must match the order's pinned digest in
`CLASS_TABLE`.  A code is the text format's orientation string, so
`tournament.tournament_from_code` decodes it; this module encodes only.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import secrets
import signal
from collections.abc import Sequence
from functools import cache
from itertools import combinations

from .tournament import tournament_from_code

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
    a field (1 << ones) - 1 of width |cell|.  Every candidate at a node sees
    the same cells, so the widths agree and rows compare as their tuples of
    per-cell counts do, lexicographically.  So the candidates are chosen
    cell by cell: walking the cells in order, keep those with the fewest
    out-neighbours in the cell, in vertex order, and once one is left read
    its remaining fields off `ones`.  The node's row is the fields of the
    least counts; the head's is its top field, so the head's width never
    enters the int.  A child of u splits each cell c (the head without u
    first) into c ^ o, then o = c & out[u], dropping an empty part, since
    the 0s of u's row come first.

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
        # the candidates, cell by cell; rebinding cands leaves the list a loop reads
        cands = members[cells[0]]
        row = 0
        for c in cells:
            if len(cands) == 1:
                fewest = ones[out[cands[0]] & c]
            else:
                fewest = 1 << n
                for u in cands:
                    f = ones[out[u] & c]
                    if f < fewest:
                        fewest, cands = f, [u]
                    elif f == fewest:
                        cands.append(u)
            row = (row << c.bit_count()) | fewest
        rows.append(row)
        # prune against the live incumbent; equal widths per index make the
        # row-int list comparison the same as bit-string comparison
        if best is None or rows <= best[: depth + 1]:
            # cells is this node's own list: the head without u goes in place
            head = cells[0]
            for u in cands:
                ou = out[u]
                cells[0] = head ^ (1 << u)
                new_cells: list[int] = []
                for c in cells:
                    o = c & ou
                    if o != c:
                        new_cells.append(c ^ o)
                    if o:
                        new_cells.append(o)
                dfs(new_cells, rows)
        rows.pop()

    try:
        dfs([(1 << n) - 1] if n else [], [])
    finally:
        # dfs reaches itself through its closure; dropping the name breaks
        # that cycle, so a labeling leaves no garbage for the collector
        del dfs
    if best is None:
        raise AssertionError("canonical labeling self-check failed: the search reached no leaf")
    return best


def _code(out: Sequence[int]) -> str:
    """The canonical code of the tournament with these out-sets: its minimal rows as C(n,2) bits."""
    n = len(out)
    code = 0
    for i, row in enumerate(_min_code_rows(out)):
        code = (code << (n - 1 - i)) | row
    return format(code, f"0{n * (n - 1) // 2}b") if n > 1 else ""


def _extension_codes(code: str) -> set[str]:
    """Canonical codes of the one-vertex extensions of the representative with this code.

    Only extensions whose new vertex has the least key are canonicalized.
    The key of a vertex is (its out-degree, the sum of its out-neighbours'
    out-degrees), both taken in the extended tournament.

    Soundness (McKay's orderly generation, J. Algorithms 26 (1998)): the
    key is an isomorphism invariant.  Every tournament T of order m+1 has a
    vertex v of least key, and T - v is isomorphic, by some phi, to one
    representative R of order m.  The extension of R by phi(N+(v)) is then
    isomorphic to T, with the new vertex in the place of v, so its new
    vertex has the least key.  Every class is still reached, and the set of
    canonical codes is unchanged.

    Listing: the new vertex beats mask and has out-degree d = |mask|; an
    old vertex v ends with deg[v] + 1 - [v in mask].  So no old vertex has
    a smaller out-degree exactly when d <= min(deg) + 1 and mask is a
    d-subset of {v : deg[v] >= d}: these are listed, not all 2^m masks.  A
    tied old vertex is in mask with deg[v] = d or outside it with
    deg[v] = d - 1.  Its second key is s0[v] - |out(v) & mask|, plus d if
    outside mask, where s0[v] sums deg[w] + 1 over out(v); the new vertex's
    sums deg[w] over mask.  One plain loop over mask builds it and that
    sum; the test then loops over the tied vertices in mask and outside it,
    stopping at the first whose second key is smaller.
    """
    out = tournament_from_code(code).out
    m = len(out)
    members = _set_tables(m)[0]
    deg = [o.bit_count() for o in out]
    s0 = [sum(deg[w] + 1 for w in members[o]) for o in out]
    plus = [o | 1 << m for o in out]
    low = min(deg)
    codes: set[str] = set()
    for d in range(low + 2):
        beside = [(v, s0[v] + d) for v in range(m) if deg[v] == d - 1]  # tied, outside mask
        for vs in combinations([v for v in range(m) if deg[v] >= d], d):
            mask = own = 0
            for v in vs:
                mask |= 1 << v
                own += deg[v]
            # the least-key test, stopping at the first tied old vertex of
            # smaller second key; below d = min(deg), no old vertex ties
            for v in vs:
                if deg[v] == d and s0[v] - (out[v] & mask).bit_count() < own:
                    break
            else:
                for v, key in beside:
                    if key - (out[v] & mask).bit_count() < own:
                        break
                else:  # out-sets in the extension: out[v] in mask, plus[v] outside
                    ext = [*plus, mask]
                    for v in vs:
                        ext[v] = out[v]
                    codes.add(_code(ext))
    return codes


def _cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"classes_n{n}.txt")


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
    """Write through a temp file of this call's own, so builders sharing a directory never collide."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "x", encoding="ascii")
    try:
        with fh:
            fh.write(f"count={len(codes)} n={n}\n")
            fh.writelines(c + "\n" for c in codes)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


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


def _pool_map(fn, jobs: list, workers: int) -> list:
    """The list of fn over jobs, in job order, as list(map(fn, jobs)) would give.

    Runs in this process when workers <= 1.  Otherwise the jobs are cut
    into w = min(workers, len(jobs)) strided shares, share s being
    jobs[s::w].  Each of w - 1 processes forked here computes one share
    from its inherited copy of the jobs, so no job is pickled, writes one
    pickled (results, exception or None) to its pipe and ends by
    os._exit, whatever was raised, so it never returns into the caller's
    frames.  This process computes share 0 meanwhile, then reads each
    pipe to its end and reaps each child, so no child outlives the call.

    A share stops at its first failing job.  Job j is result j // w of
    share j % w, so a share that failed after r results failed at job
    s + r * w; the least such job's exception is raised, the one map
    would raise.  A child that exits without writing its share raises
    RuntimeError.  Needs POSIX fork, which is safe here as ttpack starts
    no thread: the children see this process's state as it was at the
    call, the caches and test patches included.
    """
    w = min(workers, len(jobs))
    if w <= 1:
        return list(map(fn, jobs))
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
    if failed < len(jobs):
        raise shares[failed % w][1]
    return [shares[j % w][0][j // w] for j in range(len(jobs))]


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
            jobs = _read_or_build_codes(n - 1, cache_dir, workers)
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
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUMERATION_VERTICES}, got {n}")
    return _read_or_build_codes(n, resolve_cache_dir(cache_dir), workers)
