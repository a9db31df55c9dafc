"""Mechanized bound arguments built on the solver and the designs.

Covers five instruments.  Three rest on one scan over the labeled
maximum triangle packings of K_n, 3 <= n <= 8: the triangle-count
regimes of all 456 seven-vertex classes, each class's packing verified
in the worker that scanned it; the exact minimum packing value over all
classes of order n, read off the scan for triples and solved class by
class for larger k; and a randomized 49-vertex decomposition pipeline
that packs each block by the scan and verifies every assembled packing.
The others are an exact expectation identity for induced subtournaments
and an exact-rational LP over the regimes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import comb
from operator import itemgetter

from .constructions import turan3_tournament
from .designs import _orbit, ag2_lines, fano_plane, verify_design
from .enumeration import (
    MAX_ENUMERATION_VERTICES,
    _pool_map,
    code_out_sets,
    enumerate_codes,
    tournament_from_code,
)
from .packing import Packing, max_packing_exact, verify_packing
from .rng import stdlib_rng, sub_seed
from .tournament import Tournament, census, induced

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
    """Raised when a verified claim fails or inputs are unusable."""


@dataclass(frozen=True)
class ClassThreshold:
    """Exact triangle count and packing number for one 7-vertex class."""

    code: str
    t: int
    p: int


@dataclass(frozen=True)
class ThresholdReport:
    """Per-class records; the flags hold in every report, since a failed check raises."""

    records: tuple[ClassThreshold, ...]
    low_triangle_perfect: bool = True
    mid_triangle_six: bool = True
    always_five: bool = True

    def joint_distribution(self) -> dict[tuple[int, int], int]:
        return dict(Counter((r.t, r.p) for r in self.records))

    def min_packing(self) -> int:
        return min(r.p for r in self.records)


@dataclass(frozen=True)
class FMinRecord:
    """Exact minimum packing value over all classes of order n, with witnesses."""

    n: int
    k: int
    f_value: int
    argmin_codes: tuple[str, ...]


@dataclass(frozen=True)
class InducedExpectation:
    """Exact expectation of transitive triples in a random induced m-subset."""

    exact: Fraction
    lower_bound: Fraction


@dataclass(frozen=True)
class LPResult:
    minimum: Fraction
    argmin: tuple[Fraction, ...]


@dataclass(frozen=True)
class PipelineReport:
    """Aggregate of seeded decomposition trials on a 49-vertex host."""

    n: int
    trials: int
    seed: int
    totals: tuple[int, ...]
    block_value_histogram: dict[int, int]
    p1: Fraction
    p2: Fraction
    p3: Fraction
    mean_block_packing: Fraction
    reference_density: Fraction

    def min_total(self) -> int:
        return min(self.totals)


@lru_cache(maxsize=None)
def _triples(n: int) -> tuple[dict[tuple[int, int, int], int], tuple[tuple[int, tuple[int, ...], ...], ...]]:
    """Triple indices of order n, and byte tables of the code's pairs by triple.

    A triple i<j<k has its index in combinations(range(n), 3) order.  Read
    as an int, a code of order n puts its pair at position p of
    combinations(range(n), 2) at bit C(n,2) - 1 - p.  One table row per
    byte of that int holds its shift and, for the roles (i,j), (j,k) and
    (i,k) in turn, 256 triple masks: entry b is the triples whose pair of
    that role is a set bit of b in that byte.  The top byte is partial
    when 8 does not divide C(n,2), and its bits past the code stay 0.
    """
    pairs = list(combinations(range(n), 2))
    bit = {ij: len(pairs) - 1 - pos for pos, ij in enumerate(pairs)}
    index = {ijk: pos for pos, ijk in enumerate(combinations(range(n), 3))}
    tables = []
    for shift in range(0, len(pairs), 8):
        row = [shift]
        for a, b in ((0, 1), (1, 2), (0, 2)):
            # at[s] is the triples whose pair of this role is at bit shift + s
            at = [0] * 8
            for ijk, x in index.items():
                s = bit[ijk[a], ijk[b]] - shift
                if 0 <= s < 8:
                    at[s] |= 1 << x
            table = [0]
            for mask in at:
                table += [entry | mask for entry in table]
            row.append(tuple(table))
        tables.append(tuple(row))
    return index, tuple(tables)


def _cyclic_mask(n: int, bits: int) -> int:
    """Bitset of the directed triangles, by triple index, of the order-n code read as the int bits.

    Each byte of bits picks, from its row of _triples(n)'s tables, the
    triples whose (i,j), (j,k) and (i,k) pairs are set there: 3 lookups
    per byte, OR-ed into one triple mask per role.
    """
    ij = jk = ik = 0
    for shift, ij_at, jk_at, ik_at in _triples(n)[1]:
        b = bits >> shift & 255
        ij |= ij_at[b]
        jk |= jk_at[b]
        ik |= ik_at[b]
    # for i<j<k the triple is cyclic iff (i,j) and (j,k) agree and (i,k) differs
    return ~(ij ^ jk) & (ij ^ ik)


def _solve_code(args: tuple[str, int, int | None]) -> tuple[int, bool]:
    """(value, optimal) of the class with this code, solved at this stop_at and verified here."""
    code, k, stop_at = args
    t = tournament_from_code(code)
    p = max_packing_exact(t, k, stop_at=stop_at)
    if not verify_packing(t, p):
        raise PipelineError(f"class {code} has a packing of {p.value} copies that fails verification")
    return p.value, p.optimal


@lru_cache(maxsize=None)
def _max_packings(n: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """(triple mask, lines) of every labeled maximum triangle packing of K_n, 3 <= n <= 8.

    A maximum packing has M = 1, 1, 2, 4, 7, 8 triples at n = 3..8, and
    each is the lines inside 0..n-1 of a labeled triple system: one of
    the 30 7-point systems, or at n = 8 one of the 840 9-point systems
    off its point 8 (a maximum packing of K_8 leaves a perfect matching,
    which a new point completes).  The table is read off designs' orbits
    of fano_plane() and ag2_lines(3), keeping each system's lines inside
    0..n-1 when there are M of them, and sorted by lines, as designs
    orders its systems: at n = 7 the lines are all_sts7()'s blocks.
    Certificate, once per process: an entry's lines are triples i<j<k of
    0..n-1, each found in the triple index for its mask, and it is kept
    only if they cover 3M distinct pairs; and the count is pinned,
    so a build that loses an entry raises, and completeness is checkable
    against an exhaustive search.  The build reads _triples(n), so a
    caller that builds the table before its map forks gives every
    worker the byte tables of _cyclic_mask too.
    """
    m, count = {3: (1, 1), 4: (1, 4), 5: (2, 15), 6: (4, 30), 7: (7, 30), 8: (8, 840)}[n]
    index = _triples(n)[0]
    systems = _orbit(fano_plane() if n <= 7 else ag2_lines(3))
    table = []
    for lines in sorted({tuple(line for line in d.blocks if line[-1] < n) for d in systems}):
        if len(lines) == m and len({pair for line in lines for pair in combinations(line, 2)}) == 3 * m:
            table.append((sum(1 << index[line] for line in lines), lines))
    if len(table) != count:
        raise PipelineError(f"{len(table)} labeled maximum packings of K_{n} passed, not {count}")
    return tuple(table)


def _scan(n: int, cyclic: int, *subject) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Least cyclic lines of a maximum packing of K_n, and a least packing's other lines.

    cyclic is the directed-triangle mask, by triple index, of an n-vertex
    tournament T, and least is the fewest of its triples on the M lines
    of any entry of _max_packings(n).  A tournament is transitive iff it
    has no directed triangle (Moon), so a least entry's other lines are
    M - least edge-disjoint transitive triples: P_3(T) >= M - least.
    The upper bound: any M edge-disjoint triples form an entry, so P = M
    iff least = 0, and P = M - least whenever least <= 1.  At n = 7, any
    6 edge-disjoint triples leave 3 edges in which every vertex has even
    degree, a triangle, so they complete to a Fano plane: P = 6 iff
    least = 1, and P = 5 when least = 2.  So the exact range is
    least <= 1, and least <= 2 at n = 7; past it the scan proves only
    the lower bound, and raises, naming subject (say "class", code).
    The table is closed under relabeling, so least depends on T's class
    alone.
    """
    table = _max_packings(n)
    for mask, lines in table:
        if not mask & cyclic:
            return 0, lines
    mask, lines = min(table, key=lambda entry: (entry[0] & cyclic).bit_count())
    least = (mask & cyclic).bit_count()
    if least > (2 if n == 7 else 1):
        where = " ".join(map(str, subject))
        raise PipelineError(f"no maximum packing has under {least} cyclic lines on {where}")
    index = _triples(n)[0]
    return least, tuple(line for line in lines if not cyclic >> index[line] & 1)


def _scan_code(code: str) -> tuple[int, int]:
    """(t, P) of the 7-vertex class with this code, by _scan, its packing verified here.

    The code is read once, as an int, for both its cyclic mask and the
    out-sets of the tournament that the packing is verified on.
    """
    bits = int(code, 2)
    cyclic = _cyclic_mask(7, bits)
    lines = _scan(7, cyclic, "class", code)[1]
    if not verify_packing(Tournament(7, code_out_sets(7, bits)), Packing(n=7, k=3, copies=lines)):
        raise PipelineError(f"class {code} has a packing of {len(lines)} copies that fails verification")
    return cyclic.bit_count(), len(lines)


def _scan_value(n: int, code: str) -> int:
    """P_3 of the class of order n with this code, M - least by _scan."""
    return len(_scan(n, _cyclic_mask(n, int(code, 2)), "class", code)[1])


def verify_t7_thresholds(cache_dir: str | None = None, workers: int = 1) -> ThresholdReport:
    """Settle every 7-vertex class by _scan and check it against REGIMES.

    No class is solved.  Each worker scans a class, and the class's P is
    the size of its verified packing, a least Fano plane's 7 - least
    transitive lines: exact by the argument in _scan's docstring.  A
    class with t directed triangles must pack at least its regime's
    value and at most the perfect packing C(7,2)/3 = 7.  A class past
    the scan's exact range, a packing that fails verification or a
    violation raises, naming the class's code.
    """
    perfect = comb(7, 2) // 3
    codes = enumerate_codes(7, cache_dir=cache_dir, workers=workers)
    _max_packings(7)  # built here, so forked workers inherit it
    records = []
    for code, (t, p) in zip(codes, _pool_map(_scan_code, codes, workers)):
        records.append(ClassThreshold(code, t, p))
        floor = REGIMES[_regime(t)][1]
        if not floor <= p <= perfect:
            raise PipelineError(f"class {code} has t={t} but P={p}, outside [{floor}, {perfect}]")
    return ThresholdReport(records=tuple(records))


def f_min(n: int, k: int = 3, cache_dir: str | None = None, workers: int = 1) -> FMinRecord:
    """Exact minimum of the packing number over all isomorphism classes of order n.

    At k = 3 no class is solved: each class's value is read off _scan as
    M - least, exact by the argument in _scan's docstring, and a class
    past the scan's exact range raises, naming it.  Certificate: the
    table's entries are certified once, here before any worker forks
    (see _max_packings), and a class's packing is the lines of an entry
    that its cyclic mask misses, one AND, so each line is transitive on
    the class: together the facts verify_packing checks.  At any other
    k, a seed upper bound comes from one explicit host (the 3-class
    construction), every class is solved by _solve_code with stop_at one
    above it, and a class whose solve stops there is no minimum.  At
    every k each argmin class is solved again with no threshold, and
    must come back exact at the minimum.  No class is censused.
    """
    if not 3 <= n <= MAX_ENUMERATION_VERTICES:
        raise PipelineError(f"minimum packing sweep supports 3 <= n <= {MAX_ENUMERATION_VERTICES}, got {n}")
    codes = enumerate_codes(n, cache_dir=cache_dir, workers=workers)
    if k == 3:
        _max_packings(n)  # built here, so forked workers inherit it
        exact = dict(zip(codes, _pool_map(partial(_scan_value, n), codes, workers)))
    else:
        seed_value = max_packing_exact(turan3_tournament(n), k).value
        jobs = [(code, k, seed_value + 1) for code in codes]
        exact = {code: p for code, (p, optimal) in zip(codes, _pool_map(_solve_code, jobs, workers)) if optimal}
    f_value = min(exact.values())
    argmin = tuple(sorted(code for code, p in exact.items() if p == f_value))
    for code in argmin:
        if _solve_code((code, k, None)) != (f_value, True):
            raise PipelineError(f"argmin certification failed for {code}")
    return FMinRecord(n=n, k=k, f_value=f_value, argmin_codes=argmin)


def induced_expectation_check(t: Tournament, m: int) -> InducedExpectation:
    """Exact expected transitive-triple count of a uniform random m-subset.

    The closed form a(T) * m(m-1)(m-2) / (n(n-1)(n-2)) is checked
    against the unconditional lower bound (3/4) * (n-3)/(n-2) * C(m,3),
    and, for n at most 10, against the brute-force average over all
    C(n,m) induced subtournaments.
    """
    n = t.n
    if not 3 <= m <= n:
        raise PipelineError(f"m must satisfy 3 <= m <= n={n}, got {m}")
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
        raise PipelineError(f"{len(values)} values need {len(values) - 1} costs, got {len(costs)}")
    if any(a < b for a, b in zip(vs, vs[1:])) or vs[-1] < 0:
        raise PipelineError(f"values must be nonincreasing and nonnegative, got {values}")
    if any(c <= 0 for c in cs[1:]):
        raise PipelineError(f"costs must be positive, got {costs}")
    if budget < 0:
        raise PipelineError(f"budget must be nonnegative, got {budget}")

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


# (t, transitive lines of a best Fano plane, as positions in sorted vertex
# order) per block pattern met in one decomposition_pipeline call, which
# clears it before its map forks: every worker starts empty.
_pattern_memo: dict[int, tuple[int, tuple[tuple[int, ...], ...]]] = {}


def _pipeline_trial(args: tuple[int, tuple[int, ...], int, tuple[tuple[int, ...], ...]]):
    """Block values and triangle counts of trial i, whose packing is verified here."""
    i, out, trial_seed, blocks = args
    host = Tournament(len(out), out)
    perm = list(range(host.n))
    stdlib_rng(trial_seed).shuffle(perm)
    block_values = []
    block_ts = []
    copies: list[tuple[int, ...]] = []
    for block in blocks:
        vs = sorted(perm[p] for p in block)
        pattern = 0
        for u, w in combinations(vs, 2):
            pattern = pattern << 1 | (out[u] >> w & 1)
        entry = _pattern_memo.get(pattern)
        if entry is None:
            cyclic = _cyclic_mask(7, pattern)
            lines = _scan(7, cyclic, "block", vs, "in trial", i)[1]
            entry = _pattern_memo[pattern] = (cyclic.bit_count(), lines)
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
    scan's exact range raises.  _pattern_memo keeps each pattern's t
    and lines once per call, cleared here before the map forks its
    workers, so each worker starts empty.  Each block's regime is tallied
    by t, and each distinct t is mapped to its regime once.
    """
    design = ag2_lines(7)
    if t.n != design.point_count:
        raise PipelineError(f"host has {t.n} vertices, design covers {design.point_count}")
    if not verify_design(design):
        raise PipelineError("block design failed verification")
    if trials < 1:
        raise PipelineError(f"trials must be positive, got {trials}")

    _pattern_memo.clear()
    _max_packings(7)  # built here, so forked workers inherit it
    jobs = [(i, t.out, sub_seed(seed, i), design.blocks) for i in range(trials)]
    totals = []
    histogram: Counter[int] = Counter()
    ts: Counter[int] = Counter()
    floor = min(value for _, value in REGIMES) * len(design.blocks)
    for i, (block_values, block_ts) in enumerate(_pool_map(_pipeline_trial, jobs, workers)):
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
        seed=seed,
        totals=tuple(totals),
        block_value_histogram=dict(sorted(histogram.items())),
        p1=Fraction(regimes[0], blocks_total),
        p2=Fraction(regimes[1], blocks_total),
        p3=Fraction(regimes[2], blocks_total),
        mean_block_packing=Fraction(sum(totals), blocks_total),
        reference_density=REFERENCE_DENSITY,
    )

