"""Pairwise-balanced block designs backing the packing arguments.

Provides the 7-point Steiner triple system, the lines of the affine
plane over Z_q for prime q (q = 3 gives the 9-point triple system, and
q = 7 the 56 lines that tile all pairs of a 49-point set by 7-point
blocks), and the one relabeling orbit of a triple system: the 30
labeled 7-point systems, and the 840 labeled 9-point ones, from which
the pipeline reads every labeled maximum triangle packing of K_n for
n <= 8.  Designs are plain block lists, and every generator is
deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import isqrt
from typing import NamedTuple

__all__ = [
    "BlockDesign",
    "ag2_lines",
    "all_sts7",
    "fano_plane",
    "parse_design",
    "serialize_design",
    "verify_design",
]


class BlockDesign(NamedTuple):
    """Uniform blocks over points 0..point_count-1, sorted canonically."""

    point_count: int
    block_size: int
    blocks: tuple[tuple[int, ...], ...]


def _design(v: int, k: int, blocks) -> BlockDesign:
    return BlockDesign(v, k, tuple(sorted(tuple(sorted(b)) for b in blocks)))


def fano_plane() -> BlockDesign:
    """The 7-point triple system with blocks {i, i+1, i+3} mod 7."""
    return _design(7, 3, [((i) % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)])


def verify_design(d: BlockDesign) -> bool:
    """True iff block size is uniform and every point pair lies in exactly one block."""
    if d.point_count < 2 or d.block_size < 2:
        return False
    pairs: set[tuple[int, int]] = set()
    for block in d.blocks:
        if len(block) != d.block_size or len(set(block)) != d.block_size:
            return False
        if not all(isinstance(p, int) and 0 <= p < d.point_count for p in block):
            return False
        for pair in combinations(sorted(block), 2):
            if pair in pairs:
                return False
            pairs.add(pair)
    total = d.point_count * (d.point_count - 1) // 2
    return len(pairs) == total


def _orbit(base: BlockDesign) -> tuple[BlockDesign, ...]:
    """Every relabeling of base, sorted by blocks.

    Grown on sets of block indices, in combinations order, under the
    transposition (0 1) and the cycle (0 1 .. v-1), which generate every
    relabeling: the orbit is read as it grows, until no move finds a new
    image.  Each index set is its design's sorted blocks, so no image is
    normalized.  Indexes all C(v, k) blocks, so it suits triple systems.
    """
    v, k = base.point_count, base.block_size
    blocks = list(combinations(range(v), k))
    index = {block: x for x, block in enumerate(blocks)}
    moves = [
        [index[tuple(sorted(perm[p] for p in block))] for block in blocks]
        for perm in ((1, 0, *range(2, v)), (*range(1, v), 0))
    ]
    seen = {frozenset(index[block] for block in base.blocks)}
    orbit = list(seen)
    for on in orbit:
        for move in moves:
            image = frozenset(map(move.__getitem__, on))
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    systems = sorted(tuple(blocks[x] for x in sorted(on)) for on in orbit)
    return tuple(BlockDesign(v, k, lines) for lines in systems)


@lru_cache(maxsize=None)
def all_sts7() -> tuple[BlockDesign, ...]:
    """All 30 labeled 7-point Steiner triple systems (one relabeling orbit)."""
    return _orbit(fano_plane())


def ag2_lines(q: int = 7) -> BlockDesign:
    """The q(q+1) lines of the affine plane over Z_q, points (x,y) -> qx+y.

    q must be prime, so that Z_q is a field.  Each of the q^2 points lies
    on q+1 lines, and every point pair lies on exactly one, so the lines
    tile all pairs by q-point blocks: for q = 7, 56 blocks on 49 points;
    for q = 3, the 9-point triple system.
    """
    if q < 2 or any(q % p == 0 for p in range(2, isqrt(q) + 1)):
        raise ValueError(f"the affine plane over Z_q needs a prime q, got {q}")
    blocks = []
    for m in range(q):
        for b in range(q):
            blocks.append(tuple(q * x + (m * x + b) % q for x in range(q)))
    for c in range(q):
        blocks.append(tuple(q * c + y for y in range(q)))
    return _design(q * q, q, blocks)


def serialize_design(d: BlockDesign) -> str:
    lines = [f"v={d.point_count} k={d.block_size} b={len(d.blocks)}"]
    for block in d.blocks:
        lines.append(" ".join(str(p) for p in block))
    return "\n".join(lines) + "\n"


def _integer(token: str, where: str) -> int:
    """token as an int, if str() writes it back: int() also reads signs, underscores and leading zeros."""
    try:
        if str(int(token)) == token:
            return int(token)
    except ValueError:
        pass
    raise ValueError(f"{token!r} {where} is not a canonical integer")


def parse_design(text: str) -> BlockDesign:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty design text")
    head = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in head)
        v, k, b = (fields[key] for key in "vkb")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad design header {lines[0]!r}") from exc
    v, k, b = (_integer(value, f"of header {lines[0]!r}") for value in (v, k, b))
    if len(lines) - 1 != b:
        raise ValueError(f"header promises {b} blocks, found {len(lines) - 1}")
    blocks = []
    for ln in lines[1:]:
        block = tuple(_integer(p, f"of block {ln!r}") for p in ln.split())
        if len(block) != k:
            raise ValueError(f"block {ln!r} does not have {k} points")
        blocks.append(block)
    return _design(v, k, blocks)
