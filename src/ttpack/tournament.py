"""Core tournament representation and triple censuses.

A tournament on n vertices (n <= 64) is stored as one out-neighbor bitset
per vertex, so a whole adjacency row fits in a machine word and subset
tests are single AND/popcount operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .rng import coin

MAX_VERTICES = 64


class Tournament(NamedTuple):
    """Orientation of K_n: `out[v]` is the bitset of out-neighbors of v."""

    n: int
    out: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the edge between u and v is oriented u -> v."""
        return bool(self.out[u] >> v & 1)

    def score(self) -> tuple[int, ...]:
        """Out-degree sequence sorted non-increasing."""
        return tuple(sorted((m.bit_count() for m in self.out), reverse=True))


class TriangleCensus(NamedTuple):
    """Counts of transitive triples (a) and directed triangles (t)."""

    a: int
    t: int


def edge_index(n: int, i: int, j: int) -> int:
    """Row-major rank of the pair {i, j}, the order combinations(range(n), 2) lists pairs in.

    This ranking is the shared contract for edge indices in the solver's
    coverable-edge field, in `_edge_splits` and the per-edge stats, in the
    coin key of the constructions, and in the text format.
    """
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def tournament_from_code(code: str) -> Tournament:
    """Build from the upper-triangle row-major 0/1 string ('1' means i -> j).

    n is implied by the length C(n,2), so "" is order 1.  Every orientation
    string is decoded here: a class code, or a file body that
    parse_tournament has already checked.
    """
    length = len(code)
    n = (1 + isqrt(1 + 8 * length)) // 2
    if n * (n - 1) // 2 != length:
        raise ValueError(f"code length {length} is not a binomial C(n,2)")
    out = [0] * n
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if code[pos] == "1":
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
            pos += 1
    return Tournament(n, tuple(out))


def tournament_bits(t: Tournament) -> str:
    return "".join(
        "1" if t.out[i] >> j & 1 else "0"
        for i in range(t.n)
        for j in range(i + 1, t.n)
    )


def serialize_tournament(t: Tournament) -> str:
    """Two-line text form: 'n=<int>' then the C(n,2) upper-triangle bits."""
    return f"n={t.n}\n{tournament_bits(t)}\n"


def parse_tournament(text: str) -> Tournament:
    """Parse the two-line format; a ValueError's message ends in the byte offset of the defect.

    An offset counts characters of the text, which are bytes for a file
    that the CLI reads: it reads one character per byte, and each
    newline, a CRLF too, as one.  This is the one check of a file.  Once
    the header, 1 <= n <= 64, the length C(n,2) and every character
    hold, tournament_from_code orients each pair i < j exactly once, so
    the tournament it returns needs no check of its own.
    """
    if not text.startswith("n="):
        raise ValueError("expected header 'n=<int>' (byte offset 0)")
    nl = text.find("\n")
    if nl < 0:
        raise ValueError(f"missing newline after header (byte offset {len(text)})")
    count = text[2:nl]
    try:
        n = int(count)
    except ValueError:
        raise ValueError("vertex count is not an integer (byte offset 2)") from None
    # int() also takes a sign, spaces, underscores, leading zeros and non-ASCII digits
    if count != str(n):
        raise ValueError(f"vertex count {count!r} is not written as {str(n)!r} (byte offset 2)")
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES} (byte offset 2)")
    want = n * (n - 1) // 2
    body_at = nl + 1
    body = text[body_at:].rstrip("\n")
    if len(body) != want:
        raise ValueError(
            f"expected {want} orientation characters, found {len(body)} "
            f"(byte offset {body_at + min(len(body), want)})"
        )
    if body.strip("01"):
        k = len(body) - len(body.lstrip("01"))
        raise ValueError(f"invalid orientation character {body[k]!r} (byte offset {body_at + k})")
    return tournament_from_code(body)


def transitive_tournament(n: int) -> Tournament:
    """TT_n: vertex i beats every j > i."""
    full = (1 << n) - 1
    return Tournament(n, tuple((full >> (v + 1)) << (v + 1) for v in range(n)))


def transitive_triples_lower_bound(k: int) -> Fraction:
    """Floor k(k-1)(k-3)/8 on the transitive-triple count of any k-vertex tournament."""
    if k < 3:
        raise ValueError("bound defined for k >= 3")
    return Fraction(k * (k - 1) * (k - 3), 8)


def _edge_splits(t: Tournament):
    """(p, a, b, c, d) for each edge x -> y, p the rank edge_index(n, x, y) of its pair.

    The other vertices split four ways by their edges to x and y: a beat
    both, x -> b -> y, c are beaten by both, and y -> d -> x, so each of d
    closes a directed triangle with the edge.  A transitive k-set through
    the edge is a total order, in which a vertex beating both x and y
    comes before x, one between them lies between, and one beaten by both
    comes after y; so its other k - 2 vertices come from a, b and c, and
    each chosen vertex of an earlier part beats each chosen vertex of a
    later part.  Conversely, transitive choices within each part that
    meet that condition list the k-set as a, x, b, y, c in order, every
    edge pointing forward: a total order.  So the k-sets through the
    edge are exactly these choices.
    """
    n, out = t.n, t.out
    full = (1 << n) - 1
    into = [full & ~m & ~(1 << v) for v, m in enumerate(out)]
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            x, y = (i, j) if out[i] >> j & 1 else (j, i)
            yield p, into[x] & into[y], out[x] & into[y], out[x] & out[y], out[y] & into[x]
            p += 1


def census(t: Tournament) -> TriangleCensus:
    """Count transitive triples and directed triangles.

    Computes `a` twice, from the directed triangles, each of which lies in
    the d part of _edge_splits at each of its three edges, and by the
    per-vertex degree-sum identity 4a = sum_v d_v(d_v - 1) + e_v(e_v - 1),
    with d_v and e_v the out- and in-degrees, and raises unless the two
    agree; the redundancy is a permanent self-check on the representation.
    """
    n, out = t.n, t.out
    cyclic = sum(d.bit_count() for *_, d in _edge_splits(t)) // 3
    total = n * (n - 1) * (n - 2) // 6
    a_direct = total - cyclic
    degree_sum = 0
    for v in range(n):
        d = out[v].bit_count()
        e = n - 1 - d
        degree_sum += d * (d - 1) + e * (e - 1)
    if 4 * a_direct != degree_sum:
        raise AssertionError(
            f"census self-check failed: direct 4*{a_direct} != degree-sum {degree_sum}"
        )
    return TriangleCensus(a=a_direct, t=cyclic)


def induced(t: Tournament, vertices) -> Tournament:
    """Subtournament on `vertices`, relabeled 0..m-1 in sorted order."""
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("induced subtournament needs at least one vertex")
    if vs[0] < 0 or vs[-1] >= t.n:
        raise ValueError("vertex out of range")
    pos = {v: i for i, v in enumerate(vs)}
    out = [0] * len(vs)
    for v in vs:
        m = t.out[v]
        for w in vs:
            if m >> w & 1:
                out[pos[v]] |= 1 << pos[w]
    return Tournament(len(vs), tuple(out))


def random_tournament(n: int, seed: int) -> Tournament:
    """Orient each pair by an unbiased coin keyed by (seed, pair rank).

    The coins, in pair-rank order, are the orientation string that
    tournament_from_code decodes.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    return tournament_from_code("".join("01"[coin(seed, p)] for p in range(n * (n - 1) // 2)))


def is_transitive_on(t: Tournament, vertices) -> bool:
    """True iff the distinct `vertices` induce a transitive subtournament.

    Sub-out-degrees lie in 0..k-1, so they are all distinct exactly when
    they are {0..k-1}, which is when the subset is a total order.
    """
    out = t.out
    mask = 0
    for v in vertices:
        mask |= 1 << v
    seen = 0
    for v in vertices:
        seen |= 1 << (out[v] & mask).bit_count()
    return seen == (1 << len(vertices)) - 1
