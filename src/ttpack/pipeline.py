"""Mechanized bound arguments built on the solver and the designs.

Covers five instruments.  Three rest on one scan over the labeled
maximum K_k-packings of K_n, 3 <= k <= n <= 8: the triangle-count
regimes of all 456 seven-vertex classes, each class's packing verified
in the calling process; the exact minimum packing value over all
classes of order n, read off the same scan of all its classes at every
k; and a randomized 49-vertex decomposition pipeline that packs each
block by the scan and verifies every assembled packing.
The others are an exact expectation identity for induced subtournaments
and an exact-rational LP over the regimes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations
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


def _byte_tables(masks: list[int]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per-byte lookup rows of a code int, given one mask per pair of its order.

    masks[p] belongs to the pair at position p of combinations(range(n), 2),
    which a code of order n, read as an int, holds at bit C(n,2) - 1 - p.
    One row per byte of the int holds its shift and 256 entries: entry b
    is the OR of the masks of the pairs at the set bits of b in that byte.
    The top byte is partial when 8 does not divide C(n,2): its bits past
    the code select nothing.
    """
    at = [*reversed(masks), *[0] * (-len(masks) % 8)]  # at[s] is the mask of bit s
    tables = []
    for shift in range(0, len(at), 8):
        table = [0]
        for mask in at[shift : shift + 8]:
            table += [entry | mask for entry in table]
        tables.append((shift, tuple(table)))
    return tuple(tables)


@lru_cache(maxsize=None)
def _triples(n: int) -> tuple[dict[tuple[int, int, int], int], tuple[tuple[int, tuple[int, ...]], ...]]:
    """Triple indices of order n, and _byte_tables of the code's pairs by triple role.

    A triple i<j<k has its index x in combinations(range(n), 3) order.
    Its pairs play three roles, (i,j), (j,k) and (i,k), and role r owns
    the field of C(n,3) bits from r * C(n,3): a pair's mask sets bit x of
    a role's field for each triple x in which it plays that role.  So
    entry b of a byte's row is, per role, the triples whose pair of that
    role is a set bit of b in that byte.
    """
    index = {ijk: x for x, ijk in enumerate(combinations(range(n), 3))}
    width = len(index)
    roles = dict.fromkeys(combinations(range(n), 2), 0)
    for (i, j, k), x in index.items():
        roles[i, j] |= 1 << x
        roles[j, k] |= 1 << width + x
        roles[i, k] |= 1 << 2 * width + x
    return index, _byte_tables(list(roles.values()))


def _cyclic_mask(n: int, bits: int) -> int:
    """Bitset of the directed triangles, by triple index, of the order-n code read as the int bits.

    Each byte of bits makes one lookup in its row of _triples(n)'s
    tables, and the OR of the entries is split by shifts into one triple
    mask per role.
    """
    index, tables = _triples(n)
    roles = 0
    for shift, table in tables:
        roles |= table[bits >> shift & 255]
    width = len(index)
    full = (1 << width) - 1
    ij, jk, ik = roles & full, roles >> width & full, roles >> 2 * width
    # for i<j<k the triple is cyclic iff (i,j) and (j,k) agree and (i,k) differs
    return ~(ij ^ jk) & (ij ^ ik)


def _cyclic_columns(n: int, codes: Sequence[str]) -> list[int]:
    """Per triple index of order n, the bitset of the classes with these codes on which it is cyclic.

    Bit c of each bitset belongs to codes[c].  The codes are joined and
    read column by column: pair p's characters, the classes in reverse
    order, parse with int(col, 2) to the bitset of the classes that hold
    pair p's bit.  Each triple then takes _cyclic_mask's rule on the
    columns of its three pairs, so one int operation serves every class.
    Raises ValueError unless every code has the order's C(n,2) bits.
    """
    width = comb(n, 2)
    wrong = set(map(len, codes)) - {width}
    if wrong:
        raise ValueError(f"codes of order {n} have {width} bits, got {min(wrong)}")
    text = "".join(codes)
    column = {pair: int(text[p - width :: -width], 2) for p, pair in enumerate(combinations(range(n), 2))}
    cyclic = []
    for i, j, k in _triples(n)[0]:
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
def _max_packings(n: int, k: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """(mask, lines) of every labeled maximum K_k-packing of K_n, 3 <= k <= n <= 8, sorted by lines.

    An entry's lines are M edge-disjoint k-subsets of 0..n-1, M the most
    there are, and its mask has bit x for the line at position x of
    combinations(range(n), k).  At k = 3 each entry is the lines inside
    0..n-1 of a labeled triple system: one of the 30 7-point systems, or
    at n = 8 one of the 840 9-point systems off its point 8 (a maximum
    packing of K_8 leaves a perfect matching, which a new point
    completes), read off designs' cached all_sts7() and the orbit of
    ag2_lines(3): at n = 7 the lines are all_sts7()'s blocks, in
    designs' order.  At k >= 4 a plain exhaustive search grows the
    families of edge-disjoint k-subsets by one later subset at a time
    and keeps the largest; at k = 3 the orbit is far cheaper.
    Certificate, once per process: an entry's lines are k-subsets of
    0..n-1, each found in the index for its mask, and it is kept only if
    it has M of them covering C(k,2) M distinct pairs; and (M, count) is
    pinned in PACKING_COUNTS, so a build that loses an entry raises, and
    completeness is checkable against an exhaustive search.  The k = 3
    build reads _triples(n), so a caller that builds the table before
    its map forks gives every worker the byte tables of _cyclic_mask too.
    """
    m, count = PACKING_COUNTS[n, k]
    if k == 3:
        index = _triples(n)[0]
        systems = all_sts7() if n <= 7 else _orbit(ag2_lines(3))
        families = {tuple(line for line in d.blocks if line[-1] < n) for d in systems}
    else:
        blocks = list(combinations(range(n), k))
        index = {block: x for x, block in enumerate(blocks)}
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
    table = []
    for lines in sorted(families):
        if len(lines) == m and len({pair for line in lines for pair in combinations(line, 2)}) == comb(k, 2) * m:
            table.append((sum(1 << index[line] for line in lines), lines))
    if len(table) != count:
        raise PipelineError(f"{len(table)} labeled maximum K_{k}-packings of K_{n} passed, not {count}")
    return tuple(table)


def _scan(n: int, cyclic: int, *subject) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Least cyclic lines of a maximum packing of K_n, and a least packing's other lines.

    cyclic is the directed-triangle mask, by triple index, of an n-vertex
    tournament T, and least is the fewest of its triples on the M lines
    of any entry of _max_packings(n, 3).  A tournament is transitive iff it
    has no directed triangle (Moon), so a least entry's other lines are
    M - least edge-disjoint transitive triples: P_3(T) >= M - least.
    The upper bound: any M edge-disjoint triples form an entry, so P = M
    iff least = 0, and P = M - least whenever least <= 1.  If the entries
    decompose K_n, 3M = C(n,2) (the Fano planes at n = 7), any M - 1
    edge-disjoint triples leave 3 edges of even degree, a triangle, which
    completes them to an entry: P = M - 2 when least = 2.  So the exact
    range is least <= 1, and least <= 2 when 3M = C(n,2); past it the
    scan proves only the lower bound, and raises, naming subject.
    The table is closed under relabeling, so least depends on T's class
    alone.
    """
    table = _max_packings(n, 3)
    for mask, lines in table:
        if not mask & cyclic:
            return 0, lines
    mask, lines = min(table, key=lambda entry: (entry[0] & cyclic).bit_count())
    least = (mask & cyclic).bit_count()
    if least > (2 if 3 * len(lines) == comb(n, 2) else 1):
        where = " ".join(map(str, subject))
        raise PipelineError(f"no maximum packing has under {least} cyclic lines on {where}")
    index = _triples(n)[0]
    return least, tuple(line for line in lines if not cyclic >> index[line] & 1)


def _members(classes: int) -> Iterator[int]:
    """Indices of the set bits of classes, lowest first."""
    while classes:
        low = classes & -classes
        classes ^= low
        yield low.bit_length() - 1


def _scan_classes(n: int, codes: Sequence[str], k: int) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """(lines, classes) parts of the classes of order n with these codes, bit c of classes for codes[c].

    Each class is in one part, whose lines are the M - least transitive
    lines of the first entry of _max_packings(n, k) with the fewest,
    least, non-transitive lines on it: _scan's lines at k = 3.  A
    k-subset is transitive iff it has no cyclic triple (Moon), so its
    bitset, the classes on which it is not, is the OR of its triples'
    _cyclic_columns, and bit-sliced walks of the table serve every class
    at once.  The first takes least = 0: an entry's hits are the OR of
    its lines' bitsets, and the classes it is the first to miss are its
    part.  The second takes least = 1: once and twice are the classes
    that at least one and at least two of an entry's lines hit, and
    those in once alone that the entry is the first to hit form a part
    per line hit, with the entry's other lines.  A class left with no transitive
    k-subset, in the AND of all bitsets, packs nothing: a part with no
    lines.  Exact: every M-packing is an entry, so P = M iff least = 0,
    and P <= M - 1 otherwise, which the other lines reach at least = 1.
    At k = 3, _scan settles each class left, least >= 2, from its own
    cyclic mask as a part of its own, in class order, raising past its
    exact range; at k >= 4 a class left raises.
    """
    columns = dict(zip(combinations(range(n), 3), _cyclic_columns(n, codes)))
    bitsets = {line: reduce(or_, [columns[ijk] for ijk in combinations(line, 3)]) for line in combinations(range(n), k)}
    table = _max_packings(n, k)
    unsettled = (1 << len(codes)) - 1
    parts = []
    for _, lines in table:
        if not unsettled:
            break
        hits = 0
        for line in lines:
            hits |= bitsets[line]
        missed = unsettled & ~hits
        if missed:
            parts.append((lines, missed))
            unsettled ^= missed
    for _, lines in table:
        if not unsettled:
            break
        once = twice = 0
        for line in lines:
            twice |= once & bitsets[line]
            once |= bitsets[line]
        single = unsettled & once & ~twice
        for line in lines:
            if single & bitsets[line]:
                parts.append((tuple(other for other in lines if other != line), single & bitsets[line]))
        unsettled ^= single
    blocked = reduce(and_, bitsets.values(), unsettled)
    if blocked:
        parts.append(((), blocked))
        unsettled ^= blocked
    for c in _members(unsettled):
        if k != 3:
            raise PipelineError(f"no maximum packing has under 2 non-transitive lines on class {codes[c]}")
        parts.append((_scan(n, _cyclic_mask(n, int(codes[c], 2)), "class", codes[c])[1], 1 << c))
    return parts


def verify_t7_thresholds(cache_dir: str | None = None, workers: int = 1) -> ThresholdReport:
    """Settle every 7-vertex class by _scan_classes and check it against REGIMES.

    No class is solved and no worker forked; workers serves only a cold
    class-list build.  A class's P is the size of its packing, a least
    Fano plane's 7 - least transitive lines, exact by the argument in
    _scan_classes's docstring, and verified here, in class order; its t
    is read off its code by _cyclic_mask.  A class with t directed
    triangles must pack at least its regime's value and at most the
    perfect packing C(7,2)/3 = 7.  A class past the scan's exact range, a
    packing that fails verification or a violation raises, naming the
    class's code.
    """
    perfect = comb(7, 2) // 3
    codes = enumerate_codes(7, cache_dir=cache_dir, workers=workers)
    lines_of = {c: lines for lines, classes in _scan_classes(7, codes, 3) for c in _members(classes)}
    records = []
    for c, code in enumerate(codes):
        lines = lines_of[c]
        if not verify_packing(tournament_from_code(code), Packing(n=7, k=3, copies=lines)):
            raise PipelineError(f"class {code} has a packing of {len(lines)} copies that fails verification")
        t, p = _cyclic_mask(7, int(code, 2)).bit_count(), len(lines)
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
    parts = _scan_classes(n, codes, k)
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


def _pipeline_trial(
    host: Tournament,
    blocks: tuple[tuple[int, ...], ...],
    seed: int,
    memo: dict[int, tuple[int, tuple[tuple[int, ...], ...]]],
    i: int,
) -> tuple[list[int], list[int]]:
    """Block values and triangle counts of trial i, whose packing is verified here.

    memo maps each block pattern met so far to its t and the transitive
    lines of a best Fano plane, as positions in sorted vertex order.
    """
    out = host.out
    perm = list(range(host.n))
    stdlib_rng(sub_seed(seed, i)).shuffle(perm)
    block_values = []
    block_ts = []
    copies: list[tuple[int, ...]] = []
    for block in blocks:
        vs = sorted(perm[p] for p in block)
        pattern = 0
        for u, w in combinations(vs, 2):
            pattern = pattern << 1 | (out[u] >> w & 1)
        entry = memo.get(pattern)
        if entry is None:
            cyclic = _cyclic_mask(7, pattern)
            lines = _scan(7, cyclic, "block", vs, "in trial", i)[1]
            entry = memo[pattern] = (cyclic.bit_count(), lines)
        t_count, lines = entry
        block_ts.append(t_count)
        block_values.append(len(lines))
        copies.extend((vs[a], vs[b], vs[c]) for a, b, c in lines)
    if not verify_packing(host, Packing(n=host.n, k=3, copies=tuple(copies))):
        raise PipelineError(f"assembled packing failed verification in trial {i}")
    return block_values, block_ts


def decomposition_pipeline(t: Tournament, trials: int, seed: int, workers: int = 1) -> PipelineReport:
    """Randomized block-decomposition packing trials on a 49-vertex host.

    Each trial relabels the host by a seeded uniform permutation, packs
    the triples inside each of the 56 affine-plane blocks exactly, and
    assembles the per-block copies into one host packing, which is
    verified from first principles.  Blocks are edge-disjoint, so the
    assembly is always a valid packing; each trial total is the sum of
    56 per-block exact values.  p1-p3 are the shares of blocks in each
    regime.

    A block is read as its pattern: its subtournament relabeled 0..6 in
    sorted vertex order, kept as an int of its C(7,2) orientation bits.
    Its cyclic triples are read off the pattern, and _scan gives
    least, the fewest of them on the lines of any Fano plane; the
    block's value is 7 - least, packed by that plane's transitive lines,
    exact by the argument in _scan's docstring.  A block past the
    scan's exact range raises.  A memo made empty by this call keeps
    each pattern's t and lines; a forked worker inherits it before any
    trial fills it.  Each block's regime is tallied by t, and each
    distinct t is mapped to its regime once.
    """
    design = ag2_lines(7)
    if t.n != design.point_count:
        raise ValueError(f"host has {t.n} vertices, design covers {design.point_count}")
    if not verify_design(design):
        raise PipelineError("block design failed verification")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")

    _max_packings(7, 3)  # built here, so forked workers inherit it
    trial = partial(_pipeline_trial, t, design.blocks, seed, {})
    totals = []
    histogram: Counter[int] = Counter()
    ts: Counter[int] = Counter()
    floor = min(value for _, value in REGIMES) * len(design.blocks)
    for i, (block_values, block_ts) in enumerate(_pool_map(trial, range(trials), workers)):
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

