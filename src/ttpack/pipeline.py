"""Mechanized bound arguments built on the solver and the designs.

Covers five instruments.  Three rest on the labeled maximum
K_k-packings of K_n, 3 <= k <= n <= 8, and read their classes by
bit-sliced walks of that table, _scan_classes.  Two sweep all classes
of an order at once: the triangle-count regimes of all 456 seven-vertex
classes, each class's packing verified in the calling process, and the
exact minimum packing value over all classes of order n at every k.
The third, a randomized 49-vertex decomposition pipeline, walks the
distinct blocks of each share of its trials against the Fano planes
and verifies every assembled packing.
The others are an exact expectation identity for induced subtournaments
and an exact-rational LP over the regimes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, combinations
from math import comb
from operator import and_, itemgetter, or_
from typing import NamedTuple

from .designs import _orbit, ag2_lines, all_sts7, verify_design
from .enumeration import MAX_ENUMERATION_VERTICES, _pool_map, enumerate_codes
from .packing import Packing, max_packing_exact, verify_packing
from .rng import stdlib_rng, sub_seed
from .tournament import Tournament, census, induced, tournament_from_code

__all__ = [
    "ClassThreshold",
    "FMinRecord",
    "InducedExpectation",
    "LPResult",
    "PipelineError",
    "PipelineReport",
    "ThresholdReport",
    "decomposition_pipeline",
    "f_min",
    "induced_expectation_check",
    "lp_step",
    "verify_t7_thresholds",
]

# The regimes of the 7-vertex classes, checked by verify_t7_thresholds:
# each entry is (the least directed-triangle count t of the regime, the P_3
# that every class from that t on reaches).
REGIMES = ((0, 7), (5, 6), (12, 5))


def _regime(t: int) -> int:
    """Index in REGIMES of the regime of a class with t directed triangles."""
    return bisect_right(REGIMES, t, key=itemgetter(0)) - 1


class PipelineError(RuntimeError):
    """Raised when a verified claim fails; unusable inputs raise ValueError."""


class ClassThreshold(NamedTuple):
    """Exact triangle count and packing number for one 7-vertex class."""

    code: str
    t: int
    p: int


class ThresholdReport(NamedTuple):
    """Per-class records, each within its regime, since a failed check raises."""

    records: tuple[ClassThreshold, ...]

    def joint_distribution(self) -> dict[tuple[int, int], int]:
        return dict(Counter((r.t, r.p) for r in self.records))

    def min_packing(self) -> int:
        return min(r.p for r in self.records)


class FMinRecord(NamedTuple):
    """Exact minimum packing value over all classes of order n, with witnesses."""

    n: int
    k: int
    f: int
    argmin_codes: tuple[str, ...]


class InducedExpectation(NamedTuple):
    """Exact expectation of transitive triples in a random induced m-subset."""

    exact: Fraction
    lower_bound: Fraction


class LPResult(NamedTuple):
    minimum: Fraction
    argmin: tuple[Fraction, ...]


class PipelineReport(NamedTuple):
    """Aggregate of seeded decomposition trials on a 49-vertex host."""

    n: int
    trials: int
    totals: tuple[int, ...]
    min_total: int
    block_value_histogram: dict[int, int]
    p1: Fraction
    p2: Fraction
    p3: Fraction
    mean_block_packing: Fraction
    reference_density: Fraction


def _cyclic_columns(n: int, codes: Sequence[str]) -> list[int]:
    """Per triple index of order n, the bitset of the classes with these codes on which it is cyclic.

    Bit c of each bitset belongs to codes[c].  The codes are joined and
    read column by column: pair p's characters, the classes in reverse
    order, parse with int(col, 2) to the bitset of the classes that hold
    pair p's bit.  A triple i<j<k is cyclic iff (i,j) and (j,k) agree
    and (i,k) differs, so one int operation on the columns of its three
    pairs serves every class.  Raises ValueError unless every code has
    the order's C(n,2) bits.
    """
    width = comb(n, 2)
    wrong = set(map(len, codes)) - {width}
    if wrong:
        raise ValueError(f"codes of order {n} have {width} bits, got {min(wrong)}")
    text = "".join(codes)
    column = {pair: int(text[p - width :: -width], 2) for p, pair in enumerate(combinations(range(n), 2))}
    cyclic = []
    for i, j, k in combinations(range(n), 3):
        ij, jk, ik = column[i, j], column[j, k], column[i, k]
        cyclic.append(~(ij ^ jk) & (ij ^ ik))
    return cyclic


def _solve_code(code: str, k: int) -> int:
    """Exact packing value of the class with this code, solved with no budget and verified here."""
    t = tournament_from_code(code)
    p = max_packing_exact(t, k)
    if not verify_packing(t, p):
        raise PipelineError(f"class {code} has a packing of {p.value} copies that fails verification")
    return p.value


# (M, count) of _max_packings(n, k), by (n, k): the most edge-disjoint
# k-subsets of 0..n-1, and the labeled families of that many.
PACKING_COUNTS = {
    (3, 3): (1, 1), (4, 3): (1, 4), (5, 3): (2, 15), (6, 3): (4, 30), (7, 3): (7, 30), (8, 3): (8, 840),
    (4, 4): (1, 1), (5, 4): (1, 5), (6, 4): (1, 15), (7, 4): (2, 70), (8, 4): (2, 595),
    (5, 5): (1, 1), (6, 5): (1, 6), (7, 5): (1, 21), (8, 5): (1, 56),
    (6, 6): (1, 1), (7, 6): (1, 7), (8, 6): (1, 28),
    (7, 7): (1, 1), (8, 7): (1, 8),
    (8, 8): (1, 1),
}


@lru_cache(maxsize=None)
def _max_packings(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The lines of every labeled maximum K_k-packing of K_n, 3 <= k <= n <= 8, sorted.

    An entry is M edge-disjoint k-subsets of 0..n-1, M the most there
    are, in combinations(range(n), k) order.  At k = 3 each entry is
    the lines inside 0..n-1 of a labeled triple system: one of the 30
    7-point systems, or at n = 8 one of the 840 9-point systems off its
    point 8 (a maximum packing of K_8 leaves a perfect matching, which a
    new point completes), read off designs' cached all_sts7() and the
    orbit of ag2_lines(3): at n = 7 the lines are all_sts7()'s blocks,
    in designs' order.  At k >= 4 a plain exhaustive search grows the
    families of edge-disjoint k-subsets by one later subset at a time
    and keeps the largest; at k = 3 the orbit is far cheaper.
    Certificate, once per process: an entry is kept only if its M lines
    are each in the index of sorted k-subsets of 0..n-1 and cover C(k,2)
    M distinct pairs; and (M, count) is pinned in PACKING_COUNTS, so a
    build that loses an entry raises, and completeness is checkable
    against an exhaustive search.
    """
    m, count = PACKING_COUNTS[n, k]
    blocks = list(combinations(range(n), k))
    index = {block: x for x, block in enumerate(blocks)}
    if k == 3:
        systems = all_sts7() if n <= 7 else _orbit(ag2_lines(3))
        families = {tuple(line for line in d.blocks if line[-1] < n) for d in systems}
    else:
        pairs = {block: {*combinations(block, 2)} for block in blocks}
        level = [((), set())]
        while level:
            families = [lines for lines, _ in level]
            level = [
                ((*lines, block), used | pairs[block])
                for lines, used in level
                for block in blocks[index[lines[-1]] + 1 if lines else 0 :]
                if not used & pairs[block]
            ]
    table = tuple(
        lines
        for lines in sorted(families)
        if len(lines) == m and {*lines} <= index.keys()
        and len({pair for line in lines for pair in combinations(line, 2)}) == comb(k, 2) * m
    )
    if len(table) != count:
        raise PipelineError(f"{len(table)} labeled maximum K_{k}-packings of K_{n} passed, not {count}")
    return table


def _members(classes: int) -> Iterator[int]:
    """Indices of the set bits of classes, lowest first."""
    while classes:
        low = classes & -classes
        classes ^= low
        yield low.bit_length() - 1


def _column_sums(columns: Sequence[int], width: int) -> bytes:
    """Byte c < width counts the columns with bit c set, added up in bit planes; each count must be below 256."""
    planes = [0] * len(columns).bit_length()
    for carry in columns:
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
    digits = bytes.maketrans(b"01", b"\0\1")
    bits = [int.from_bytes(format(plane, f"0{width}b").encode().translate(digits), "big") for plane in planes]
    return sum(bit << j for j, bit in enumerate(bits)).to_bytes(width, "little")


def _scan_classes(
    n: int, codes: Sequence[str], k: int
) -> tuple[list[tuple[tuple[tuple[int, ...], ...], int]], bytes]:
    """(parts, ts) of the classes of order n with these codes, bit c of a part's classes for codes[c].

    Each class is in one part, whose lines are the M - least transitive
    lines of the first entry of _max_packings(n, k) with the fewest,
    least, non-transitive lines on it.  A k-subset is transitive iff it
    has no cyclic triple (Moon), so its bitset, the classes on which it
    is not, is the OR of its triples' _cyclic_columns, and bit-sliced
    walks of the table's lines serve every class at once.  A class with no
    transitive k-subset, in the AND of all bitsets, packs nothing: a
    part with no lines.  The first walk takes least = 0: an entry's hits
    are the OR of its lines' bitsets, and the classes it is the first to
    miss are its part.  Each later walk takes one least of the exact
    range: hits[j] holds the classes that more than j of an entry's
    lines hit, and those in hits[least - 1] alone that the entry is the
    first to hit form a part per least lines hit, with its other lines.
    The rule, at every k: every M edge-disjoint k-subsets are an entry,
    so P = M iff least = 0, and P <= M - 1 otherwise, which the other
    lines reach at least = 1.  If the entries decompose K_n, C(k,2) M =
    C(n,2) (the Fano planes at n = 7), each degree n - 1 is a multiple
    of k - 1, and so is each degree of the C(k,2) edges that any M - 1
    edge-disjoint k-subsets leave: a nonzero one is at least k - 1, so
    the leave spans at most k vertices, a K_k that completes them to an
    entry, and P = M - 2 at least = 2.  Past that exact range the table
    proves only P >= M - least, and a class left raises, naming it.
    Each ts[c] is codes[c]'s t, its cyclic triples summed off the
    columns by _column_sums, below 256 as C(n,3) <= 84 for n <= 9.
    """
    cyclic = _cyclic_columns(n, codes)
    columns = dict(zip(combinations(range(n), 3), cyclic))
    bitsets = {line: reduce(or_, [columns[ijk] for ijk in combinations(line, 3)]) for line in combinations(range(n), k)}
    table = _max_packings(n, k)
    blocked = reduce(and_, bitsets.values())
    parts = [((), blocked)] if blocked else []
    unsettled = (1 << len(codes)) - 1 ^ blocked
    for lines in table:
        if not unsettled:
            break
        hits = 0
        for line in lines:
            hits |= bitsets[line]
        missed = unsettled & ~hits
        if missed:
            parts.append((lines, missed))
            unsettled ^= missed
    top = 2 if comb(k, 2) * len(table[0]) == comb(n, 2) else 1
    for least in range(1, top + 1):
        for lines in table:
            if not unsettled:
                break
            hits = [0] * (least + 1)
            for line in lines:
                for j in range(least, 0, -1):
                    hits[j] |= hits[j - 1] & bitsets[line]
                hits[0] |= bitsets[line]
            exact = unsettled & hits[least - 1] & ~hits[least]
            if not exact:
                continue
            for hit in combinations(lines, least):
                classes = reduce(and_, [bitsets[line] for line in hit], exact)
                if classes:
                    parts.append((tuple(line for line in lines if line not in hit), classes))
            unsettled ^= exact
    if unsettled:
        code = codes[next(_members(unsettled))]
        raise PipelineError(f"no maximum packing has under {top + 1} non-transitive lines on class {code}")
    return parts, _column_sums(cyclic, len(codes))


def verify_t7_thresholds(cache_dir: str | None = None, workers: int = 1) -> ThresholdReport:
    """Settle every 7-vertex class by _scan_classes and check it against REGIMES.

    No class is solved and no worker forked; workers serves only a cold
    class-list build.  A class's P is the size of its packing, a least
    Fano plane's 7 - least transitive lines, exact by the rule in
    _scan_classes's docstring, and verified here, in class order, on the
    out-sets its code decodes to.  Its t is read off the same scan.  A
    class with t directed triangles must pack at least its regime's
    value and at most the perfect packing C(7,2)/3 = 7.  A class past
    the scan's exact range, a packing that fails verification or a
    violation raises, naming the class's code.
    """
    perfect = comb(7, 2) // 3
    codes = enumerate_codes(7, cache_dir=cache_dir, workers=workers)
    parts, ts = _scan_classes(7, codes, 3)
    lines_of = {c: lines for lines, classes in parts for c in _members(classes)}
    records = []
    for c, code in enumerate(codes):
        lines = lines_of[c]
        host = tournament_from_code(code)
        if not verify_packing(host, Packing(n=7, k=3, copies=lines)):
            raise PipelineError(f"class {code} has a packing of {len(lines)} copies that fails verification")
        t, p = ts[c], len(lines)
        records.append(ClassThreshold(code, t, p))
        floor = REGIMES[_regime(t)][1]
        if not floor <= p <= perfect:
            raise PipelineError(f"class {code} has t={t} but P={p}, outside [{floor}, {perfect}]")
    return ThresholdReport(records=tuple(records))


def f_min(n: int, k: int = 3, cache_dir: str | None = None, workers: int = 1) -> FMinRecord:
    """Exact minimum of the packing number over all isomorphism classes of order n.

    f and its argmins are read off _scan_classes(n, codes, k), in this
    process, at every k: each class is valued at its part's lines, exact
    by the argument in _scan_classes's docstring, and a class the scan
    does not settle raises, naming it.  No class is solved for its
    value.  Certificate: the table's entries are certified once (see
    _max_packings), and a class's packing is an entry's lines less
    those with a cyclic triple on the class, so its lines are
    edge-disjoint and each is transitive on the class: together the
    facts verify_packing checks.  The upper bound is the table's
    completeness: any M edge-disjoint k-subsets of 0..n-1 are an entry,
    so a class with a non-transitive line on every entry packs at most
    M - 1.  Each argmin class is then solved by _solve_code, in the
    pool, and must come back at the minimum.  No class is censused.
    Both n and k are checked before the class list is built.
    """
    if not 3 <= n <= MAX_ENUMERATION_VERTICES:
        raise ValueError(f"minimum packing sweep supports 3 <= n <= {MAX_ENUMERATION_VERTICES}, got {n}")
    if not 3 <= k <= n:
        raise ValueError(f"k must satisfy 3 <= k <= n={n}, got {k}")
    codes = enumerate_codes(n, cache_dir=cache_dir, workers=workers)
    parts, _ = _scan_classes(n, codes, k)
    f = min(len(lines) for lines, _ in parts)
    argmin = tuple(sorted(codes[c] for lines, classes in parts if len(lines) == f for c in _members(classes)))
    for code, again in zip(argmin, _pool_map(partial(_solve_code, k=k), argmin, workers)):
        if again != f:
            raise PipelineError(f"argmin certification failed for {code}")
    return FMinRecord(n=n, k=k, f=f, argmin_codes=argmin)


def induced_expectation_check(t: Tournament, m: int) -> InducedExpectation:
    """Exact expected transitive-triple count of a uniform random m-subset.

    The closed form a(T) * m(m-1)(m-2) / (n(n-1)(n-2)) is checked
    against the unconditional lower bound (3/4) * (n-3)/(n-2) * C(m,3),
    and, for n at most 10, against the brute-force average over all
    C(n,m) induced subtournaments.
    """
    n = t.n
    if not 3 <= m <= n:
        raise ValueError(f"m must satisfy 3 <= m <= n={n}, got {m}")
    a = census(t).a
    exact = Fraction(a * m * (m - 1) * (m - 2), n * (n - 1) * (n - 2))
    lower = Fraction(3, 4) * Fraction(n - 3, n - 2) * comb(m, 3)
    if exact < lower:
        raise PipelineError(f"expectation {exact} fell below the bound {lower}")
    if n <= 10:
        total = sum(census(induced(t, s)).a for s in combinations(range(n), m))
        brute = Fraction(total, comb(n, m))
        if brute != exact:
            raise PipelineError(f"closed form {exact} disagrees with brute average {brute}")
    return InducedExpectation(exact=exact, lower_bound=lower)


def lp_step(
    budget: Fraction,
    values: tuple[Fraction, ...],
    costs: tuple[Fraction, ...],
) -> LPResult:
    """Minimize sum v_i*p_i over the probability simplex with one budget.

    Point i costs c_i = 0 for i = 0 and costs[i-1] after that, and the
    budget constraint is sum c_i*p_i <= budget.  The exact minimum is at a
    vertex of this polytope, enumerated in rational arithmetic: a point
    within the budget, or two points whose costs straddle the budget,
    mixed to spend it exactly.  Ties go to the least distribution.
    """
    budget = Fraction(budget)
    vs = [Fraction(v) for v in values]
    cs = [Fraction(0), *map(Fraction, costs)]
    if len(cs) != len(vs):
        raise ValueError(f"{len(values)} values need {len(values) - 1} costs, got {len(costs)}")
    if any(a < b for a, b in zip(vs, vs[1:])) or vs[-1] < 0:
        raise ValueError(f"values must be nonincreasing and nonnegative, got {','.join(map(str, vs))}")
    if any(c <= 0 for c in cs[1:]):
        raise ValueError(f"costs must be positive, got {','.join(map(str, cs[1:]))}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")

    mixes = [{i: Fraction(1)} for i, c in enumerate(cs) if c <= budget]
    for i, j in combinations(range(len(cs)), 2):
        if min(cs[i], cs[j]) < budget < max(cs[i], cs[j]):
            wi = (cs[j] - budget) / (cs[j] - cs[i])
            mixes.append({i: wi, j: 1 - wi})
    points = [tuple(mix.get(i, Fraction(0)) for i in range(len(vs))) for mix in mixes]
    minimum, argmin = min((sum(v * w for v, w in zip(vs, p)), p) for p in points)
    return LPResult(minimum=minimum, argmin=argmin)


# The n^2 coefficient of the bound.  A random 7-subset holds at most about
# C(7,3)/4 directed triangles on average, so the LP over REGIMES at that
# budget floors a block's mean P_3; blocks split the host's about n^2/2
# pairs into sets of C(7,2).
REFERENCE_DENSITY = lp_step(
    Fraction(comb(7, 3), 4),
    tuple(value for _, value in REGIMES),
    tuple(start for start, _ in REGIMES[1:]),
).minimum / (2 * comb(7, 2))


def _pipeline_share(
    host: Tournament,
    blocks: tuple[tuple[int, ...], ...],
    seed: int,
    share: range,
) -> list[tuple[list[int], list[int]]]:
    """Block values and triangle counts of each trial in share, in trial order, each packing verified here.

    A block's code is its subtournament's, relabeled 0..6 in sorted
    vertex order.  Each distinct code of the share takes a class index,
    and one _scan_classes walk gives every class its t and its lines,
    as positions in sorted vertex order.
    """
    out = host.out
    index: dict[str, int] = {}  # code -> class index
    placed = []  # per trial, its blocks' sorted vertices and class indices
    for i in share:
        perm = list(range(host.n))
        stdlib_rng(sub_seed(seed, i)).shuffle(perm)
        trial = []
        for block in blocks:
            vs = sorted(perm[p] for p in block)
            code = "".join(["01"[out[u] >> w & 1] for u, w in combinations(vs, 2)])
            trial.append((vs, index.setdefault(code, len(index))))
        placed.append(trial)
    parts, ts = _scan_classes(7, list(index), 3)
    lines_of = {c: lines for lines, classes in parts for c in _members(classes)}
    results = []
    for i, trial in zip(share, placed):
        copies = tuple((vs[p], vs[q], vs[r]) for vs, c in trial for p, q, r in lines_of[c])
        if not verify_packing(host, Packing(n=host.n, k=3, copies=copies)):
            raise PipelineError(f"assembled packing failed verification in trial {i}")
        results.append(([len(lines_of[c]) for _, c in trial], [ts[c] for _, c in trial]))
    return results


def decomposition_pipeline(t: Tournament, trials: int, seed: int, workers: int = 1) -> PipelineReport:
    """Randomized block-decomposition packing trials on a 49-vertex host.

    Each trial relabels the host by a seeded uniform permutation, packs
    the triples inside each of the 56 affine-plane blocks exactly, and
    assembles the per-block copies into one host packing, which is
    verified from first principles.  Blocks are edge-disjoint, so the
    assembly is always a valid packing; each trial total is the sum of
    56 per-block exact values.  p1-p3 are the shares of blocks in each
    regime.

    The trials are cut into w = min(workers, trials) contiguous shares,
    one job of _pool_map each.  A share reads each block as the class of
    its code, and all its distinct codes in one _scan_classes walk: a
    block's value is 7 - least, packed by the transitive lines of the
    first Fano plane with the fewest, least, cyclic lines on it, exact
    by the rule in _scan_classes's docstring.  A block past the walk's
    exact range raises, naming its code.  Each block's regime is tallied
    by t, and each distinct t is mapped to its regime once.
    """
    design = ag2_lines(7)
    if t.n != design.point_count:
        raise ValueError(f"host has {t.n} vertices, design covers {design.point_count}")
    if not verify_design(design):
        raise PipelineError("block design failed verification")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")

    _max_packings(7, 3)  # built here, so forked workers inherit it
    w = max(1, min(workers, trials))
    shares = [range(s * trials // w, (s + 1) * trials // w) for s in range(w)]
    share = partial(_pipeline_share, t, design.blocks, seed)
    totals = []
    histogram: Counter[int] = Counter()
    ts: Counter[int] = Counter()
    floor = min(value for _, value in REGIMES) * len(design.blocks)
    for i, (block_values, block_ts) in enumerate(chain.from_iterable(_pool_map(share, shares, workers))):
        total = sum(block_values)
        if total < floor:
            raise PipelineError(f"trial {i} total {total} fell below {floor}")
        totals.append(total)
        histogram.update(block_values)
        ts.update(block_ts)
    regimes: Counter[int] = Counter()
    for t_count, blocks in ts.items():
        regimes[_regime(t_count)] += blocks
    blocks_total = trials * len(design.blocks)
    return PipelineReport(
        n=t.n,
        trials=trials,
        totals=tuple(totals),
        min_total=min(totals),
        block_value_histogram=dict(sorted(histogram.items())),
        p1=Fraction(regimes[0], blocks_total),
        p2=Fraction(regimes[1], blocks_total),
        p3=Fraction(regimes[2], blocks_total),
        mean_block_packing=Fraction(sum(totals), blocks_total),
        reference_density=REFERENCE_DENSITY,
    )

