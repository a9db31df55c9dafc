"""Mechanized bound arguments built on the solver and the designs.

Covers five instruments.  The triangle-count regimes of all 456
seven-vertex classes are settled by a scan over the 30 labeled Fano
planes, each class's packing verified in the worker that scanned it.
The exact minimum packing value over all classes of order n is read off
one class sweep, which solves and verifies each class in one worker
function.  The others are an exact expectation identity for induced
subtournaments, an exact-rational LP over the regimes, and a randomized
49-vertex decomposition pipeline that packs each block by the same scan
and verifies every assembled packing.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from operator import itemgetter

from .constructions import turan3_tournament
from .designs import ag2_lines, all_sts7, verify_design
from .enumeration import MAX_ENUMERATION_VERTICES, _pool_map, enumerate_codes, tournament_from_code
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
def _triples(n: int) -> tuple[dict[tuple[int, int, int], int], tuple[itemgetter, ...]]:
    """Triple indices of order n, and getters for the code's pair characters.

    A triple i<j<k has its index in combinations(range(n), 3) order.  The
    three getters read, for every triple, the code characters of its pairs
    (i,j), (j,k) and (i,k), last triple first, so that int(..., 2) of
    their join puts triple index x at bit x.
    """
    pair = {ij: pos for pos, ij in enumerate(combinations(range(n), 2))}
    triples = list(combinations(range(n), 3))
    index = {ijk: pos for pos, ijk in enumerate(triples)}
    getters = tuple(
        itemgetter(*(pair[ijk[a], ijk[b]] for ijk in reversed(triples)))
        for a, b in ((0, 1), (1, 2), (0, 2))
    )
    return index, getters


def _cyclic_mask(code: str) -> int:
    """Bitset of the directed triangles of the class with this code, by triple index."""
    n = (1 + isqrt(1 + 8 * len(code))) // 2
    ij, jk, ik = (int("".join(get(code)), 2) for get in _triples(n)[1])
    # for i<j<k the triple is cyclic iff (i,j) and (j,k) agree and (i,k) differs
    return ~(ij ^ jk) & (ij ^ ik)


def _triple_mask(p: Packing) -> int:
    """Bitset of the triples that lie inside some copy of p, by triple index."""
    index = _triples(p.n)[0]
    mask = 0
    for vs in p.copies:
        for ijk in combinations(sorted(vs), 3):
            mask |= 1 << index[ijk]
    return mask


# Packings of stopped solves, in canonical labels, most recently useful
# first, as (triple mask, value).  Cleared by _class_sweep before it makes
# its pool of workers, so every worker starts empty.
_witnesses: list[tuple[int, int]] = []


def _solve_code(args: tuple[str, int, int | None]) -> tuple[int, bool]:
    """(value, optimal) of the class with this code, its packing verified here.

    A fitting witness settles the class with no search; otherwise every
    packing solved, exact or stopped, must pass verify_packing on the
    class, and a stopped one joins the pool.  Soundness: see f_min.
    """
    code, k, stop_at = args
    cyclic = _cyclic_mask(code)
    for i, (mask, value) in enumerate(_witnesses):
        if not mask & cyclic:
            _witnesses.insert(0, _witnesses.pop(i))
            return value, False
    t = tournament_from_code(code)
    p = max_packing_exact(t, k, stop_at=stop_at)
    if not verify_packing(t, p):
        raise PipelineError(f"class {code} has a packing of {p.value} copies that fails verification")
    if not p.optimal:
        _witnesses.insert(0, (_triple_mask(p), p.value))
    return p.value, p.optimal


def _class_sweep(n: int, k: int, stop_at: int, cache_dir: str | None, workers: int):
    """(code, value, optimal) of every class of order n, each by _solve_code at this stop_at.

    f_min's sweep.  verify_t7_thresholds needs none: _fano_scan settles
    every order-7 class exactly.
    """
    _witnesses.clear()
    jobs = [(code, k, stop_at) for code in enumerate_codes(n, cache_dir=cache_dir)]
    for (code, *_), (value, optimal) in zip(jobs, _pool_map(_solve_code, jobs, workers)):
        yield code, value, optimal


# (t, transitive lines of a best Fano plane, as positions in sorted vertex
# order) per block pattern met in one decomposition_pipeline call, which
# clears it before its pool is made: every worker starts empty.
_pattern_memo: dict[int, tuple[int, tuple[tuple[int, ...], ...]]] = {}


@lru_cache(maxsize=None)
def _fano_planes() -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """(triple mask, lines) of each of the 30 labeled Fano planes on 0..6."""
    index = _triples(7)[0]
    return tuple((sum(1 << index[line] for line in d.blocks), d.blocks) for d in all_sts7())


def _fano_scan(cyclic: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Least cyclic lines of a Fano plane on 0..6, and a least plane's other lines.

    cyclic is the directed-triangle mask, by triple index, of a 7-vertex
    tournament T, and least is the fewest of its triples on the lines of
    any of the 30 labeled Fano planes.  A least plane's other lines are
    7 - least edge-disjoint transitive triples, so P_3(T) >= 7 - least.
    The upper bound: any 7 edge-disjoint triples on 7 points form a Fano
    plane, and any 6 leave 3 edges in which every vertex has even degree,
    a triangle, so they complete to one.  So P = 7 needs a plane with no
    cyclic line and P = 6 one with at most one, and P <= 7 - least
    whenever least <= 2: then P = 7 - least exactly.  When least > 2 the
    scan proves only the lower bound, and every caller raises.  The 30
    planes are closed under relabeling, so least depends on T's class
    alone; it is 0 on 407 of the 456 classes, 1 on 47 and 2 on 2.
    """
    least, best = 8, ()
    for mask, lines in _fano_planes():
        miss = (mask & cyclic).bit_count()
        if miss < least:
            least, best = miss, lines
            if not miss:
                break
    index = _triples(7)[0]
    return least, tuple(line for line in best if not cyclic >> index[line] & 1)


def _scan_code(code: str) -> tuple[int, int]:
    """(t, P) of the 7-vertex class with this code, by _fano_scan, its packing verified here."""
    cyclic = _cyclic_mask(code)
    least, lines = _fano_scan(cyclic)
    if least > 2:
        raise PipelineError(f"no Fano plane has under {least} cyclic lines on class {code}")
    if not verify_packing(tournament_from_code(code), Packing(n=7, k=3, copies=lines)):
        raise PipelineError(f"class {code} has a packing of {len(lines)} copies that fails verification")
    return cyclic.bit_count(), len(lines)


def verify_t7_thresholds(cache_dir: str | None = None, workers: int = 1) -> ThresholdReport:
    """Settle every 7-vertex class by _fano_scan and check it against REGIMES.

    No class is solved.  Each worker scans a class, and the class's P is
    the size of its verified packing, a least plane's 7 - least
    transitive lines: exact by the argument in _fano_scan's docstring.
    A class with t directed triangles must pack at least its regime's
    value and at most the perfect packing C(7,2)/3 = 7.  A class with
    least > 2, a packing that fails verification or a violation raises,
    naming the class's code.
    """
    perfect = comb(7, 2) // 3
    codes = enumerate_codes(7, cache_dir=cache_dir)
    records = []
    for code, (t, p) in zip(codes, _pool_map(_scan_code, codes, workers)):
        records.append(ClassThreshold(code, t, p))
        floor = REGIMES[_regime(t)][1]
        if not floor <= p <= perfect:
            raise PipelineError(f"class {code} has t={t} but P={p}, outside [{floor}, {perfect}]")
    return ThresholdReport(records=tuple(records))


def f_min(n: int, k: int = 3, cache_dir: str | None = None, workers: int = 1) -> FMinRecord:
    """Exact minimum of the packing number over all isomorphism classes of order n.

    A seed upper bound comes from one explicit host (the 3-class
    construction), and one _class_sweep runs with stop_at one above it.
    Each class is first checked against the sweep's pool of witness
    packings: packings of stopped solves of earlier classes, in the
    shared canonical labels 0..n-1, a hit moving to the front.  A
    witness is kept as its triple mask, the triples i<j<k inside any of
    its copies, and it fits a class iff that mask misses the class's
    cyclic-triple mask, read off the class's code; a hit builds no
    tournament.  Each argmin class is solved again by _solve_code with
    no threshold, and must come back exact at the minimum.

    Soundness: only a solve that stopped at the threshold adds a
    witness, and the pool holds the witnesses of this sweep alone, so
    every witness has at least threshold copies of TT_k for this k, on
    the same n labels as every class of the sweep.  The admission check,
    verify_packing on the class whose solve produced the witness,
    certifies from first principles everything that does not depend on
    the labels' edges: each copy has k distinct vertices in range, and
    the copies are pairwise edge-disjoint.  What remains for a class is
    that each copy is transitive there.  A tournament is transitive iff
    it has no directed triangle (Moon, Topics on Tournaments, 1968), so
    a copy is transitive in the class iff none of its C(k,3) triples is
    cyclic there, which is what the AND of the two masks tests.  So a
    fit is exactly verify_packing on the class, and a hit proves P >=
    the threshold, the same fact a stopped solve proves.  Both kinds of
    class exceed every candidate minimum and are dropped.  Classes
    below the threshold are always solved exactly, and a re-solve that
    a witness settles fails the certification.  The seed host's class is
    never hit, since a hit would prove P >= seed + 1.  So the record
    depends neither on which witness hits nor on the number of workers.
    Only packing values are computed: no class is censused.
    """
    if not 3 <= n <= MAX_ENUMERATION_VERTICES:
        raise PipelineError(f"minimum packing sweep supports 3 <= n <= {MAX_ENUMERATION_VERTICES}, got {n}")
    seed_value = max_packing_exact(turan3_tournament(n), k).value
    exact = {code: p for code, p, optimal in _class_sweep(n, k, seed_value + 1, cache_dir, workers) if optimal}
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
            cyclic = _cyclic_mask(format(pattern, "021b"))
            least, lines = _fano_scan(cyclic)
            if least > 2:
                raise PipelineError(f"no Fano plane has under {least} cyclic lines on block {vs} in trial {i}")
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
    Its cyclic triples are read off the pattern, and _fano_scan gives
    least, the fewest of them on the lines of any Fano plane; the
    block's value is 7 - least, packed by that plane's transitive lines,
    exact by the argument in _fano_scan's docstring.  A block with
    least > 2 raises.  _pattern_memo keeps each pattern's t and lines
    once per call, cleared here before the pool of workers is made, so
    each worker starts empty.
    """
    design = ag2_lines(7)
    if t.n != design.point_count:
        raise PipelineError(f"host has {t.n} vertices, design covers {design.point_count}")
    if not verify_design(design):
        raise PipelineError("block design failed verification")
    if trials < 1:
        raise PipelineError(f"trials must be positive, got {trials}")

    _pattern_memo.clear()
    jobs = [(i, t.out, sub_seed(seed, i), design.blocks) for i in range(trials)]
    totals = []
    histogram: Counter[int] = Counter()
    regimes: Counter[int] = Counter()
    floor = min(value for _, value in REGIMES) * len(design.blocks)
    for i, (block_values, block_ts) in enumerate(_pool_map(_pipeline_trial, jobs, workers)):
        total = sum(block_values)
        if total < floor:
            raise PipelineError(f"trial {i} total {total} fell below {floor}")
        totals.append(total)
        histogram.update(block_values)
        regimes.update(map(_regime, block_ts))
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

