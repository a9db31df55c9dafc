"""Command-line entry point.

One executable, `ttpack`, with subcommands for enumeration, exact
solving, verification sweeps, the decomposition pipeline, the rational
LP step, construction generators, seeded experiments, and triangle
censuses.  Every JSON report carries the tool and format versions, the
seed (null where no random number is drawn), and an echo of the run
configuration, and contains no timestamps, so identical invocations
produce byte-identical output.  The result of solve, census, fmin,
pipeline, lp and the two experiments is the fields of the NamedTuple
record the library returns, read by _asdict(), which copies no field
value, plus only the keys no record holds: value for solve, n and
packing_lower_bound for census, and mean_covered_fraction for density.
_jsonable alone writes a Fraction, as "p/q".  A subcommand's parser is
built only when a call names it, through argparse's public parser_class.

Exit codes: 0 on success, 1 when a verified claim fails to hold, 2 on
usage errors including malformed input files and options a command
would ignore: --seed to a command that draws no random number,
edge-stats given --in with --n or --seed, and construct given --n
without --turan3, --filler with --qr7, or --seed without --filler
random.  The exception kind alone decides: bad input raises ValueError,
a failed claim raises PipelineError, and a failed self-check raises an
uncaught AssertionError.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import DEFAULT_SEED, FORMAT_VERSION, TOOL_VERSION
from .constructions import blowup, intra_class_edge_bound, qr7, turan3_tournament
from .designs import (
    ag2_lines,
    all_sts7,
    fano_plane,
    parse_design,
    serialize_design,
    verify_design,
)
from .enumeration import MAX_ENUMERATION_VERTICES, enumerate_codes
from .experiments import density_experiment, edge_copy_stats
from .packing import Packing, max_packing_exact, verify_packing
from .pipeline import (
    REGIMES,
    PipelineError,
    decomposition_pipeline,
    f_min,
    lp_step,
    verify_t7_thresholds,
)
from .tournament import (
    Tournament,
    census,
    parse_tournament,
    random_tournament,
    serialize_tournament,
    tournament_from_code,
    transitive_triples_lower_bound,
)


def _jsonable(obj):
    """json.dumps' default hook, and the one place a Fraction becomes "p/q"."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def _int_at_least(low: int):
    """argparse type for an int no smaller than low; a smaller one is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    # argparse names the type in its "invalid int value" message
    parse.__name__ = "int"
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _fraction(text: str) -> Fraction:
    """Fraction(text), where a zero denominator is malformed input like any other."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _emit(args, result, text_lines) -> None:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "out", "format") and value is not None
    }
    if args.format != "json":
        payload = "\n".join(text_lines) + "\n"
    else:
        doc = {
            "tool": "ttpack",
            "tool_version": TOOL_VERSION,
            "format_version": FORMAT_VERSION,
            "seed": getattr(args, "seed", None),
            "config": config,
            "result": result,
        }
        payload = json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"
    _write_output(args, payload)


def _write_output(args, payload: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_tournament(path: str) -> Tournament:
    # latin-1 reads each byte as one character, so parse_tournament names any bad byte's offset
    with open(path, "r", encoding="latin-1") as fh:
        return parse_tournament(fh.read())


def _cmd_enumerate(args) -> int:
    if args.score is not None:
        try:
            want = [int(s) for s in args.score.split(",")]
        except ValueError:
            raise ValueError(f"score must be comma-separated integers, got '{args.score}'") from None
        if len(want) != args.n:
            raise ValueError(f"score has {len(want)} entries for n={args.n}")
        if want != sorted(want, reverse=True):
            raise ValueError(f"score must be non-increasing, got {args.score}")
    codes = enumerate_codes(args.n, cache_dir=args.cache, workers=args.workers)
    if args.score is not None:
        codes = tuple(code for code in codes if list(tournament_from_code(code).score()) == want)
    result = {"n": args.n, "count": len(codes), "codes": list(codes)}
    _emit(args, result, [f"n={args.n} classes={len(codes)}", *codes])
    return 0


def _cmd_solve(args) -> int:
    t = _load_tournament(args.infile)
    budget = args.budget_ms / 1000 if args.budget_ms is not None else None
    p = max_packing_exact(t, args.k, time_budget=budget, node_budget=args.node_budget)
    label = "exact" if p.optimal else "lower bound (budget hit)"
    _emit(args, {**p._asdict(), "value": p.value}, [f"P_{p.k} = {p.value} ({label})"])
    return 0


def _cmd_census(args) -> int:
    t = _load_tournament(args.infile)
    c = census(t)
    result = {**c._asdict(), "n": t.n, "packing_lower_bound": transitive_triples_lower_bound(max(t.n, 3))}
    _emit(args, result, [f"n={t.n} a={c.a} t={c.t}"])
    return 0


def _cmd_verify_lemma22(args) -> int:
    report = verify_t7_thresholds(cache_dir=args.cache, workers=args.workers)
    joint = {f"t={t},P={p}": count for (t, p), count in sorted(report.joint_distribution().items())}
    result = {
        "classes": len(report.records),
        # verify_t7_thresholds raises unless every class meets its regime
        "low_triangle_perfect": True,
        "mid_triangle_six": True,
        "always_five": True,
        "min_packing": report.min_packing(),
        "joint_distribution": joint,
    }
    _emit(args, result, [f"classes={len(report.records)} min_packing={report.min_packing()} all thresholds hold"])
    return 0


def _cmd_verify_conjecture(args) -> int:
    rows = {}
    ok = True
    for n in range(3, args.max_n + 1):
        record = f_min(n, cache_dir=args.cache, workers=args.workers)
        target = intra_class_edge_bound(n)
        rows[str(n)] = {
            "f": record.f,
            "ceiling_formula": target,
            "argmin_classes": len(record.argmin_codes),
        }
        if record.f != target:
            ok = False
    result = {"max_n": args.max_n, "values": rows, "all_match": ok}
    _emit(args, result, [f"n={n}: f={row['f']} formula={row['ceiling_formula']}" for n, row in rows.items()])
    return 0 if ok else 1


def _cmd_verify_design(args) -> int:
    with open(args.infile, "r", encoding="ascii") as fh:
        design = parse_design(fh.read())
    valid = verify_design(design)
    result = {
        "points": design.point_count,
        "block_size": design.block_size,
        "blocks": len(design.blocks),
        "valid": valid,
    }
    _emit(args, result, [f"valid={valid}"])
    return 0 if valid else 1


def _cmd_verify_packing(args) -> int:
    t = _load_tournament(args.infile)
    with open(args.packing, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    body = doc.get("result", doc) if isinstance(doc, dict) else doc
    try:
        k = body["k"]
        copies = tuple(tuple(c) for c in body["copies"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"packing file missing solve fields: {exc}") from exc
    # JSON integers only: int() would read 2.2, "012" and true as vertices
    if type(k) is not int or not all(type(v) is int for c in copies for v in c):
        raise ValueError("packing file k and vertices must be JSON integers")
    valid = verify_packing(t, Packing(n=t.n, k=k, copies=copies))
    result = {"n": t.n, "k": k, "members": len(copies), "valid": valid}
    _emit(args, result, [f"valid={valid}"])
    return 0 if valid else 1


def _cmd_fmin(args) -> int:
    record = f_min(args.n, k=args.k, cache_dir=args.cache, workers=args.workers)
    _emit(args, record._asdict(), [f"f({record.n}) = {record.f}"])
    return 0


def _cmd_pipeline(args) -> int:
    t = _load_tournament(args.infile)
    report = decomposition_pipeline(t, trials=args.trials, seed=args.seed, workers=args.workers)
    text = f"trials={report.trials} min_total={report.min_total} mean_block={float(report.mean_block_packing):.3f}"
    _emit(args, report._asdict(), [text])
    return 0


def _cmd_lp(args) -> int:
    values = tuple(map(_fraction, args.values.split(",")))
    # an empty --costs is no costs, as a one-value LP needs
    costs = tuple(map(_fraction, args.costs.split(","))) if args.costs else ()
    res = lp_step(_fraction(args.budget), values, costs)
    _emit(args, res._asdict(), [f"minimum={_jsonable(res.minimum)} at ({', '.join(map(_jsonable, res.argmin))})"])
    return 0


def _cmd_construct(args) -> int:
    if (args.kind == "turan3") != (args.n is not None):
        raise ValueError("--turan3 requires --n" if args.n is None else "--n applies to --turan3 only")
    if args.kind == "qr7" and args.filler is not None:
        raise ValueError("--filler applies to --turan3 and --blowup only")
    if args.seed is not None and args.filler != "random":
        raise ValueError("--seed applies to --filler random only")
    filler, seed = args.filler or "transitive", DEFAULT_SEED if args.seed is None else args.seed
    if args.kind == "turan3":
        t = turan3_tournament(args.n, filler=filler, seed=seed)
    elif args.kind == "qr7":
        t = qr7()
    else:
        t = blowup(qr7(), args.factor, filler=filler, seed=seed)
    _write_output(args, serialize_tournament(t))
    return 0


def _cmd_design(args) -> int:
    if args.kind == "fano":
        payload = serialize_design(fano_plane())
    elif args.kind == "ag2":
        payload = serialize_design(ag2_lines(7))
    else:
        payload = "\n".join(serialize_design(d) for d in all_sts7())
    _write_output(args, payload)
    return 0


def _cmd_experiment_density(args) -> int:
    report = density_experiment(args.n, args.k, args.trials, args.seed, improve=args.improve)
    rows = enumerate(zip(report.copy_counts, report.covered_fractions))
    lines = ["trial,copies,covered_fraction", *(f"{i},{count},{float(frac):.6f}" for i, (count, frac) in rows)]
    _emit(args, {**report._asdict(), "mean_covered_fraction": sum(report.covered_fractions) / report.trials}, lines)
    return 0


def _cmd_experiment_edge_stats(args) -> int:
    if args.n is None and args.seed is not None:
        raise ValueError("--seed applies to --n only")
    if args.n is not None and args.seed is None:
        args.seed = DEFAULT_SEED  # config and the envelope echo the seed of an --n host
    t = _load_tournament(args.infile) if args.n is None else random_tournament(args.n, args.seed)
    stats = edge_copy_stats(t, args.k)
    _emit(args, stats._asdict(), [f"mean={float(stats.mean):.4f} expectation={float(stats.expectation):.4f}"])
    return 0


class _Deferred:
    """A subcommand's parser, built only when argparse dispatches to it.

    add_subparsers(parser_class=_Deferred) makes argparse's own add_parser
    construct this with the name's prog and the fill= keyword, after it has
    registered the name and its help line, so help, usage and "invalid
    choice" output are those of eager parsers.  On dispatch argparse calls
    only parse_known_args, which builds the parser with those arguments,
    lets fill(parser) add its arguments, one level at a time, and delegates.
    """

    def __init__(self, fill, **kwargs):
        self.fill, self.kwargs, self.parser = fill, kwargs, None

    def parse_known_args(self, args=None, namespace=None):
        if self.parser is None:
            self.parser = argparse.ArgumentParser(**self.kwargs)
            self.fill(self.parser)
        return self.parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The ttpack parser; each subcommand's parser is built when a call names it."""
    parser = argparse.ArgumentParser(
        prog="ttpack",
        description="Exact and randomized tooling for edge-disjoint packings of transitive subtournaments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Deferred)

    def common(p, cache=False, workers=False, fmt=("json", "text")):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])
        if cache:
            p.add_argument("--cache", help="enumeration cache directory (default $TTPACK_CACHE or ./cache)")
        if workers:
            p.add_argument("--workers", type=_positive_int, default=1)

    sweep_orders = range(3, MAX_ENUMERATION_VERTICES + 1)  # the orders f_min sweeps

    def enumerate_(p):
        p.add_argument("--n", type=int, required=True, choices=range(1, MAX_ENUMERATION_VERTICES + 1))
        p.add_argument("--score", help="comma-separated sorted out-degree filter")
        common(p, cache=True, workers=True)
        p.set_defaults(handler=_cmd_enumerate)

    def solve(p):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--budget-ms", dest="budget_ms", type=_nonnegative_int)
        p.add_argument("--node-budget", dest="node_budget", type=_positive_int)
        common(p)
        p.set_defaults(handler=_cmd_solve)

    def census_(p):
        p.add_argument("--in", dest="infile", required=True)
        common(p)
        p.set_defaults(handler=_cmd_census)

    def verify(p):
        targets = p.add_subparsers(dest="verify_target", required=True, parser_class=_Deferred)
        targets.add_parser("lemma22", fill=lemma22, help="triangle-count thresholds over all 7-vertex classes")
        targets.add_parser("conjecture", fill=conjecture, help="minimum packing values against the ceiling formula")
        targets.add_parser("design", fill=verify_design_, help="pairwise balance of a design file")
        targets.add_parser("packing", fill=verify_packing_, help="a solve report against its tournament")

    def lemma22(p):
        common(p, cache=True, workers=True)
        p.set_defaults(handler=_cmd_verify_lemma22)

    def conjecture(p):
        p.add_argument("--max-n", dest="max_n", type=int, default=sweep_orders[-1], choices=sweep_orders)
        common(p, cache=True, workers=True)
        p.set_defaults(handler=_cmd_verify_conjecture)

    def verify_design_(p):
        p.add_argument("--in", dest="infile", required=True)
        common(p)
        p.set_defaults(handler=_cmd_verify_design)

    def verify_packing_(p):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--packing", required=True, help="JSON file with solve output")
        common(p)
        p.set_defaults(handler=_cmd_verify_packing)

    def fmin(p):
        p.add_argument("--n", type=int, required=True, choices=sweep_orders)
        p.add_argument("--k", type=int, default=3)
        common(p, cache=True, workers=True)
        p.set_defaults(handler=_cmd_fmin)

    def pipeline(p):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--trials", type=_positive_int, default=100)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
        common(p, workers=True)
        p.set_defaults(handler=_cmd_pipeline)

    def lp(p):
        p.add_argument("--budget", required=True, help="rational, e.g. 35/4")
        # the defaults are the order-7 regimes: each value with its regime's least t as cost
        p.add_argument("--values", default=",".join(str(value) for _, value in REGIMES))
        p.add_argument("--costs", default=",".join(str(start) for start, _ in REGIMES[1:]))
        common(p)
        p.set_defaults(handler=_cmd_lp)

    def construct(p):
        kinds = p.add_mutually_exclusive_group(required=True)
        kinds.add_argument("--turan3", dest="kind", action="store_const", const="turan3")
        kinds.add_argument("--qr7", dest="kind", action="store_const", const="qr7")
        kinds.add_argument("--blowup", dest="factor", type=int, metavar="FACTOR")
        p.add_argument("--n", type=int, help="order for --turan3")
        p.add_argument("--filler", choices=("transitive", "random"), help="intra-class edges (default transitive)")
        p.add_argument("--seed", type=int, help=f"for --filler random (default {DEFAULT_SEED})")
        common(p, fmt=None)
        p.set_defaults(handler=_cmd_construct, kind=None)

    def design(p):
        kinds = p.add_mutually_exclusive_group(required=True)
        kinds.add_argument("--fano", dest="kind", action="store_const", const="fano")
        kinds.add_argument("--ag2", dest="kind", action="store_const", const="ag2")
        kinds.add_argument("--all-sts7", dest="kind", action="store_const", const="all-sts7")
        common(p, fmt=None)
        p.set_defaults(handler=_cmd_design)

    def experiment(p):
        kinds = p.add_subparsers(dest="experiment_kind", required=True, parser_class=_Deferred)
        kinds.add_parser("density", fill=density, help="greedy packing density trials")
        kinds.add_parser("edge-stats", fill=edge_stats, help="per-edge copy counts vs expectation")

    def density(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--trials", type=_positive_int, default=30)
        p.add_argument("--improve", action="store_true")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"random seed (default {DEFAULT_SEED})")
        common(p, fmt=("json", "csv"))
        p.set_defaults(handler=_cmd_experiment_density)

    def edge_stats(p):
        hosts = p.add_mutually_exclusive_group(required=True)
        hosts.add_argument("--n", type=int)
        hosts.add_argument("--in", dest="infile")
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--seed", type=int, help=f"of the --n host (default {DEFAULT_SEED})")
        common(p)
        p.set_defaults(handler=_cmd_experiment_edge_stats)

    sub.add_parser("enumerate", fill=enumerate_, help="list canonical codes of all classes of order n")
    sub.add_parser("solve", fill=solve, help="exact maximum packing of one tournament")
    sub.add_parser("census", fill=census_, help="triangle census of one tournament")
    sub.add_parser("verify", fill=verify, help="fail-closed verification sweeps")
    sub.add_parser("fmin", fill=fmin, help="minimum packing value over all classes of order n")
    sub.add_parser("pipeline", fill=pipeline, help="seeded 49-vertex decomposition trials")
    sub.add_parser("lp", fill=lp, help="exact rational minimization over the budgeted simplex")
    sub.add_parser("construct", fill=construct, help="emit a generated tournament file")
    sub.add_parser("design", fill=design, help="emit a block design file")
    sub.add_parser("experiment", fill=experiment, help="seeded random-tournament studies")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except PipelineError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        # every input and usage error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
