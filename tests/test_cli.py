"""End-to-end command behavior: envelopes, exit codes, reproducibility."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ttpack
from oracles import EagerParser, eager_main
from ttpack import DEFAULT_SEED, FORMAT_VERSION, TOOL_VERSION
from ttpack.cli import _jsonable, build_parser, main
from ttpack.constructions import qr7
from ttpack.enumeration import MAX_ENUMERATION_VERTICES, _cache_path, enumerate_codes
from ttpack.experiments import DensityReport, EdgeCopyStats
from ttpack.packing import Packing
from ttpack.pipeline import FMinRecord, LPResult, PipelineReport
from ttpack.tournament import (
    TriangleCensus,
    parse_tournament,
    random_tournament,
    serialize_tournament,
    tournament_from_code,
)

ENVELOPE_KEYS = {"config", "format_version", "result", "seed", "tool", "tool_version"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture()
def qr7_file(tmp_path):
    path = tmp_path / "qr7.txt"
    path.write_text(serialize_tournament(qr7()))
    return str(path)


def test_envelope_shape(capsys, qr7_file):
    code, doc, _ = run_json(capsys, "census", "--in", qr7_file)
    assert code == 0
    assert set(doc) == ENVELOPE_KEYS
    assert doc["tool"] == "ttpack"
    assert doc["tool_version"] == TOOL_VERSION
    assert doc["format_version"] == FORMAT_VERSION
    # a census draws no random number, so it has no seed to report
    assert doc["seed"] is None and "seed" not in doc["config"]
    assert doc["result"]["a"] == 21 and doc["result"]["t"] == 14
    code, doc, _ = run_json(capsys, "experiment", "edge-stats", "--n", "9")
    assert code == 0
    assert doc["seed"] == doc["config"]["seed"] == DEFAULT_SEED


def test_census_of_three_cycle(capsys, tmp_path):
    path = tmp_path / "cycle3.txt"
    path.write_text("n=3\n101\n")
    code, doc, _ = run_json(capsys, "census", "--in", str(path))
    assert code == 0
    assert doc["result"]["a"] == 0 and doc["result"]["t"] == 1


def test_solve_json_fields(capsys, qr7_file):
    code, doc, _ = run_json(capsys, "solve", "--in", qr7_file, "--k", "3")
    assert code == 0
    result = doc["result"]
    assert set(result) == {"n", "k", "value", "optimal", "copies", "nodes_explored"}
    assert result["value"] == 6 and result["optimal"] is True


def test_repeated_runs_are_byte_identical(capsys, qr7_file):
    _, first, _ = run(capsys, "solve", "--in", qr7_file)
    _, second, _ = run(capsys, "solve", "--in", qr7_file)
    assert first == second


def test_malformed_file_exits_2_with_byte_offset(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=3\n1?1\n")
    code, out, err = run(capsys, "census", "--in", str(path))
    assert code == 2
    assert "byte offset 5" in err


@pytest.mark.parametrize(
    "data, message",
    [
        (b"n=3\n1\xc30\n", "invalid orientation character '\xc3' (byte offset 5)"),
        (b"n=\xc3\n101\n", "vertex count is not an integer (byte offset 2)"),
    ],
    ids=["body", "header"],
)
def test_a_non_ascii_byte_exits_2_with_its_offset(capsys, tmp_path, data, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    code, _, err = run(capsys, "solve", "--in", str(path))
    assert code == 2
    assert err == f"error: {message}\n"


def test_a_crlf_host_file_parses(capsys, tmp_path):
    path = tmp_path / "qr7.txt"
    path.write_bytes(serialize_tournament(qr7()).replace("\n", "\r\n").encode("ascii"))
    code, doc, _ = run_json(capsys, "census", "--in", str(path))
    assert code == 0
    assert doc["result"]["a"] == 21 and doc["result"]["t"] == 14


def test_jsonable_rejects_a_type_json_cannot_write():
    with pytest.raises(TypeError, match=r"^not JSON serializable: \{1, 2\}$"):
        _jsonable({1, 2})


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "census", "--in", str(tmp_path / "nope.txt"))
    assert code == 2
    assert err


def test_usage_error_exits_2(capsys):
    assert main(["solve"]) == 2
    assert main(["no-such-command"]) == 2


def test_verify_packing_round_trip(capsys, qr7_file, tmp_path):
    sol = tmp_path / "sol.json"
    code, out, _ = run(capsys, "solve", "--in", qr7_file, "--out", str(sol))
    assert code == 0
    code, doc, _ = run_json(capsys, "verify", "packing", "--in", qr7_file, "--packing", str(sol))
    assert code == 0
    assert doc["result"]["valid"] is True


def test_verify_packing_rejects_overlap(capsys, qr7_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"result": {"k": 3, "copies": [[0, 1, 3], [0, 1, 5]]}}))
    code, doc, _ = run_json(capsys, "verify", "packing", "--in", qr7_file, "--packing", str(bad))
    assert code == 1
    assert doc["result"]["valid"] is False


@pytest.mark.parametrize(
    "copies",
    [[[0, 1, 7]], [[0, 1, 1]], [[0, 1, 3, 5]]],
    ids=["out-of-range-vertex", "repeated-vertex", "wrong-length"],
)
def test_verify_packing_rejects_malformed_copies(capsys, qr7_file, tmp_path, copies):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"result": {"k": 3, "copies": copies}}))
    code, doc, _ = run_json(capsys, "verify", "packing", "--in", qr7_file, "--packing", str(bad))
    assert code == 1
    assert doc["result"]["valid"] is False


@pytest.mark.parametrize(
    "body",
    [
        {"k": 3, "copies": [[0.9, 1, 2.2]]},
        {"k": 3, "copies": ["012"]},
        {"k": 3.7, "copies": [[0, 1, 2]]},
        {"k": 3, "copies": [[0, True, 2]]},
    ],
    ids=["float-vertices", "string-copy", "float-k", "bool-vertex"],
)
def test_verify_packing_rejects_non_integer_fields(capsys, tmp_path, body):
    # int() would read each of these as a valid packing of the transitive host
    host = tmp_path / "tt3.txt"
    host.write_text("n=3\n111\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    code, out, err = run(capsys, "verify", "packing", "--in", str(host), "--packing", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: packing file k and vertices must be JSON integers\n"


def test_verify_packing_rejects_a_file_that_is_not_an_object(capsys, qr7_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[0, 1, 2]]))
    code, out, err = run(capsys, "verify", "packing", "--in", qr7_file, "--packing", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: packing file missing solve fields") and err.count("\n") == 1


def test_verify_design_round_trip(capsys, tmp_path):
    out = tmp_path / "fano.txt"
    assert main(["design", "--fano", "--out", str(out)]) == 0
    code, doc, _ = run_json(capsys, "verify", "design", "--in", str(out))
    assert code == 0 and doc["result"]["valid"] is True
    lines = tmp_path / "ag2.txt"
    assert main(["design", "--ag2", "--out", str(lines)]) == 0
    code, doc, _ = run_json(capsys, "verify", "design", "--in", str(lines))
    assert code == 0 and doc["result"] == {"block_size": 7, "blocks": 56, "points": 49, "valid": True}
    broken = out.read_text().splitlines()
    broken[2] = broken[1]  # duplicated block double-covers its pairs
    bad = tmp_path / "broken.txt"
    bad.write_text("\n".join(broken) + "\n")
    code, doc, _ = run_json(capsys, "verify", "design", "--in", str(bad))
    assert code == 1
    # a well-formed design with no blocks covers no pair: invalid, not a crash
    empty = tmp_path / "empty.txt"
    empty.write_text("v=7 k=3 b=0\n")
    code, doc, err = run_json(capsys, "verify", "design", "--in", str(empty))
    assert code == 1 and err == ""
    assert doc["result"] == {"block_size": 3, "blocks": 0, "points": 7, "valid": False}
    # int() reads "+2" as 2, which made this a valid design; it is a usage error
    signed = tmp_path / "signed.txt"
    signed.write_text("v=3 k=3 b=1\n0 1 +2\n")
    assert run(capsys, "verify", "design", "--in", str(signed)) == (
        2,
        "",
        "error: '+2' of block '0 1 +2' is not a canonical integer\n",
    )
    # dict() let a repeated header key win and ignored an unknown one, so
    # both of these were reported valid
    for header, problem in (("v=7 k=3 b=1 v=3", "repeated key 'v'"), ("v=3 k=3 b=1 q=9", "unknown key 'q'")):
        bad.write_text(f"{header}\n0 1 2\n")
        assert run(capsys, "verify", "design", "--in", str(bad)) == (
            2,
            "",
            f"error: {problem} in design header {header!r}\n",
        )


def test_construct_round_trips_through_parser(capsys, tmp_path):
    path = tmp_path / "t.txt"
    assert main(["construct", "--qr7", "--out", str(path)]) == 0
    assert parse_tournament(path.read_text()) == qr7()
    assert main(["construct", "--turan3", "--n", "10", "--out", str(path)]) == 0
    assert parse_tournament(path.read_text()).n == 10
    assert main(["construct", "--blowup", "2", "--out", str(path)]) == 0
    assert parse_tournament(path.read_text()).n == 14


def test_construct_requires_order_for_turan(capsys):
    assert run(capsys, "construct", "--turan3") == (2, "", "error: --turan3 requires --n\n")


@pytest.mark.parametrize("argv", [("--qr7",), ("--blowup", "2")])
def test_construct_takes_an_order_only_for_turan(capsys, argv):
    # an --n that the construction would drop is a usage error, not ignored
    assert run(capsys, "construct", *argv, "--n", "5") == (2, "", "error: --n applies to --turan3 only\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--qr7", "--filler", "transitive"), "--filler applies to --turan3 and --blowup only"),
        (("--qr7", "--filler", "random"), "--filler applies to --turan3 and --blowup only"),
        (("--qr7", "--filler", "random", "--seed", "5"), "--filler applies to --turan3 and --blowup only"),
        (("--qr7", "--seed", "5"), "--seed applies to --filler random only"),
        (("--turan3", "--n", "9", "--seed", "5"), "--seed applies to --filler random only"),
        (("--turan3", "--n", "9", "--filler", "transitive", "--seed", "5"), "--seed applies to --filler random only"),
        (("--blowup", "2", "--seed", "1729"), "--seed applies to --filler random only"),
    ],
)
def test_construct_rejects_a_filler_or_seed_it_would_ignore(capsys, tmp_path, argv, message):
    out = tmp_path / "t.txt"
    assert run(capsys, "construct", *argv, "--out", str(out)) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [("--turan3", "--n", "9"), ("--blowup", "2")])
def test_construct_defaults_to_the_transitive_filler_and_the_default_seed(capsys, argv):
    _, transitive, _ = run(capsys, "construct", *argv)
    assert run(capsys, "construct", *argv, "--filler", "transitive") == (0, transitive, "")
    _, random, _ = run(capsys, "construct", *argv, "--filler", "random")
    assert run(capsys, "construct", *argv, "--filler", "random", "--seed", str(DEFAULT_SEED)) == (0, random, "")
    assert random != transitive
    assert run(capsys, "construct", *argv, "--filler", "random", "--seed", "5")[1] not in (random, transitive)


def test_edge_stats_requires_a_host(capsys):
    code, out, err = run(capsys, "experiment", "edge-stats")
    assert (code, out) == (2, "")
    assert err.endswith("ttpack experiment edge-stats: error: one of the arguments --n --in is required\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "60", "--in", "{host}"), "argument --in: not allowed with argument --n"),
        (("--in", "{host}", "--n", "60"), "argument --n: not allowed with argument --in"),
    ],
)
def test_edge_stats_takes_one_host(capsys, qr7_file, argv, message):
    # a report on the file must not echo an order it never used
    argv = [arg.format(host=qr7_file) for arg in argv]
    code, out, err = run(capsys, "experiment", "edge-stats", *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"ttpack experiment edge-stats: error: {message}\n")


@pytest.mark.parametrize("seed", ["5", str(DEFAULT_SEED)])
def test_edge_stats_takes_a_seed_only_for_a_random_host(capsys, qr7_file, seed):
    code, out, err = run(capsys, "experiment", "edge-stats", "--in", qr7_file, "--seed", seed)
    assert (code, out, err) == (2, "", "error: --seed applies to --n only\n")
    # a report on a file echoes no seed
    code, doc, _ = run_json(capsys, "experiment", "edge-stats", "--in", qr7_file)
    assert code == 0
    assert doc["seed"] is None and "seed" not in doc["config"]


@pytest.mark.parametrize(
    "argv", [("enumerate", "--n"), ("fmin", "--n"), ("verify", "conjecture", "--max-n")]
)
def test_order_choices_end_at_the_enumeration_cap(capsys, argv):
    parser = build_parser()
    assert parser.parse_args([*argv, str(MAX_ENUMERATION_VERTICES)]).handler
    with pytest.raises(SystemExit):
        parser.parse_args([*argv, str(MAX_ENUMERATION_VERTICES + 1)])
    assert "invalid choice" in capsys.readouterr().err


def test_lemma22_on_a_cache_with_a_repeated_code(capsys, cache_dir, tmp_path, monkeypatch):
    # the header and the count are intact, so only the digest can tell
    enumerate_codes(7, cache_dir=cache_dir)
    with open(_cache_path(cache_dir, 7)) as fh:
        clean = fh.read()
    header, *codes = clean.splitlines()
    path = _cache_path(str(tmp_path), 7)
    with open(path, "w") as fh:
        fh.write("\n".join([header, *codes[:-1], codes[0]]) + "\n")
    monkeypatch.setenv("TTPACK_CACHE", cache_dir)
    expected = run(capsys, "verify", "lemma22")
    monkeypatch.setenv("TTPACK_CACHE", str(tmp_path))
    assert run(capsys, "verify", "lemma22") == expected
    assert expected[0] == 0 and '"classes": 456' in expected[1]
    with open(path) as fh:
        assert fh.read() == clean


def test_enumerate_with_cache(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "enumerate", "--n", "5", "--cache", str(tmp_path))
    assert code == 0
    assert doc["result"]["count"] == 12
    assert len(doc["result"]["codes"]) == 12


def test_enumerate_score_filter(capsys, tmp_path):
    code, doc, _ = run_json(
        capsys, "enumerate", "--n", "5", "--score", "2,2,2,2,2", "--cache", str(tmp_path)
    )
    assert code == 0
    assert doc["result"]["count"] == 1


def test_enumerate_rejects_a_score_out_of_order(capsys, tmp_path):
    # sorted, 3,2,2,2,1 has 3 classes; out of order it would match none, so
    # it is rejected rather than reported as 0 classes
    code, out, err = run(capsys, "enumerate", "--n", "5", "--score", "1,2,2,2,3", "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: score must be non-increasing, got 1,2,2,2,3\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("score", ["1,1", "1,1,1,0"], ids=["short", "long"])
def test_enumerate_rejects_a_score_of_the_wrong_length(capsys, tmp_path, score):
    code, out, err = run(capsys, "enumerate", "--n", "3", "--score", score, "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: score has {score.count(',') + 1} entries for n=3\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("score", ["", "2,x"], ids=["empty", "not-a-number"])
def test_enumerate_rejects_a_score_that_is_not_integers(capsys, tmp_path, score):
    # an empty score is a filter that matches nothing, not a missing one
    code, out, err = run(capsys, "enumerate", "--n", "4", "--score", score, "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: score must be comma-separated integers, got '{score}'\n"
    assert not list(tmp_path.iterdir())


def test_enumerate_score_filter_partitions_the_classes(capsys, cache_dir):
    # at every order up to 7, each score's filter picks exactly its classes;
    # the order-1 class has the code "" and the score 0
    for n in range(1, 8):
        _, doc, _ = run_json(capsys, "enumerate", "--n", str(n), "--cache", cache_dir)
        codes = doc["result"]["codes"]
        scores = {code: tournament_from_code(code).score() for code in codes}
        picked = []
        for score in sorted(set(scores.values())):
            code, doc, _ = run_json(
                capsys, "enumerate", "--n", str(n), "--score", ",".join(map(str, score)), "--cache", cache_dir
            )
            assert code == 0
            assert all(scores[c] == score for c in doc["result"]["codes"]), (n, score)
            picked += doc["result"]["codes"]
        assert sorted(picked) == codes, n


def test_lp_command(capsys):
    code, doc, _ = run_json(capsys, "lp", "--budget", "35/4")
    assert code == 0
    assert doc["result"]["minimum"] == "153/28"
    assert doc["result"]["argmin"] == ["0", "13/28", "15/28"]
    # accepted inputs are echoed as typed
    code, doc, _ = run_json(capsys, "lp", "--budget", "70/8")
    assert code == 0
    assert doc["config"]["budget"] == "70/8"
    assert doc["config"]["values"] == "7,6,5" and doc["config"]["costs"] == "5,12"
    assert doc["result"]["minimum"] == "153/28"


@pytest.mark.parametrize(
    "argv, minimum, argmin",
    [
        (("--budget", "0"), "7", ["1", "0", "0"]),
        (("--budget", "5"), "6", ["0", "1", "0"]),
        (("--budget", "12"), "5", ["0", "0", "1"]),
        (("--budget", "3", "--costs", "12,5"), "29/5", ["2/5", "0", "3/5"]),
        (("--budget", "35/4", "--costs", "12,5"), "5", ["0", "0", "1"]),
        # the order-9 LP: four points, three costs
        (("--budget", "21", "--values", "12,11,10,9", "--costs", "7,20,27"), "48/5", ["0", "3/10", "0", "7/10"]),
        # one point: an empty cost list is no costs
        (("--budget", "1", "--values", "7", "--costs", ""), "7", ["1"]),
    ],
)
def test_lp_command_points(capsys, argv, minimum, argmin):
    code, doc, _ = run_json(capsys, "lp", *argv)
    assert code == 0
    assert doc["result"] == {"minimum": minimum, "argmin": argmin}


def test_lp_command_rejections_are_one_line(capsys):
    # input errors exit 2, with values as p/q
    code, out, err = run(capsys, "lp", "--budget", "1", "--values", "7,6,5,4")
    assert (code, out) == (2, "")
    assert err == "error: 4 values need 3 costs, got 2\n"
    code, out, err = run(capsys, "lp", "--budget", "1", "--values", "7,6", "--costs", "")
    assert (code, out) == (2, "")
    assert err == "error: 2 values need 1 costs, got 0\n"
    code, out, err = run(capsys, "lp", "--budget", "1", "--values", "7,8", "--costs", "3")
    assert (code, out) == (2, "")
    assert err == "error: values must be nonincreasing and nonnegative, got 7,8\n"
    # a zero denominator is malformed input, not a crash
    code, out, err = run(capsys, "lp", "--budget", "1/0")
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in '1/0'\n"


def test_experiment_density_csv(capsys):
    code, out, _ = run(
        capsys, "experiment", "density", "--n", "12", "--trials", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,copies,covered_fraction"
    assert len(lines) == 4
    assert lines[1].startswith("0,")


def test_experiment_edge_stats_on_file(capsys, qr7_file):
    code, doc, _ = run_json(capsys, "experiment", "edge-stats", "--in", qr7_file, "--k", "3")
    assert code == 0
    # a rotational host is edge-regular for triple counts
    assert doc["result"]["min"] == doc["result"]["max"]


def test_verify_lemma22_passes(capsys, cache_dir):
    code, doc, _ = run_json(capsys, "verify", "lemma22", "--cache", cache_dir)
    assert code == 0
    assert doc["result"]["classes"] == 456
    assert doc["result"]["min_packing"] == 5


def test_a_failed_packing_check_exits_1(capsys, cache_dir, monkeypatch):
    import ttpack.pipeline as pipeline

    monkeypatch.setattr(pipeline, "verify_packing", lambda t, p: False)
    code, out, err = run(capsys, "verify", "lemma22", "--cache", cache_dir)
    assert (code, out) == (1, "")
    assert err.startswith("verification failed: class ") and err.count("\n") == 1


def test_a_conjecture_mismatch_exits_1(capsys, cache_dir, monkeypatch):
    import ttpack.cli as cli

    bound = cli.intra_class_edge_bound
    monkeypatch.setattr(cli, "intra_class_edge_bound", lambda n: bound(n) + (n == 5))
    code, out, err = run(capsys, "verify", "conjecture", "--max-n", "6", "--cache", cache_dir)
    assert (code, err) == (1, "")
    assert '"all_match": false' in out


def test_fmin_command(capsys, cache_dir):
    code, doc, _ = run_json(capsys, "fmin", "--n", "5", "--cache", cache_dir)
    assert code == 0
    assert doc["result"]["f"] == 2


@pytest.mark.parametrize("n, k", [(8, 9), (5, 2)])
def test_fmin_rejects_k_before_listing_any_class(capsys, tmp_path, n, k):
    error = f"error: k must satisfy 3 <= k <= n={n}, got {k}\n"
    assert run(capsys, "fmin", "--n", str(n), "--k", str(k), "--cache", str(tmp_path)) == (2, "", error)
    assert not list(tmp_path.iterdir())


def test_pipeline_command(capsys, tmp_path):
    host = tmp_path / "t49.txt"
    host.write_text(serialize_tournament(random_tournament(49, 7)))
    argv = ("pipeline", "--in", str(host), "--trials", "2", "--seed", "11")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["result"]["min_total"] == min(doc["result"]["totals"]) >= 280
    assert doc["seed"] == 11
    code, pooled, _ = run_json(capsys, *argv, "--workers", "2")
    assert code == 0
    assert pooled["result"] == doc["result"]


def test_pipeline_rejects_a_host_of_the_wrong_order(capsys, qr7_file):
    # the design covers 49 vertices: a 7-vertex host is an input error
    code, out, err = run(capsys, "pipeline", "--in", qr7_file)
    assert (code, out) == (2, "")
    assert err == "error: host has 7 vertices, design covers 49\n"


def test_text_format(capsys, qr7_file):
    code, out, _ = run(capsys, "census", "--in", qr7_file, "--format", "text")
    assert code == 0
    assert out == "n=7 a=21 t=14\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("pipeline", "--trials", "0"), "--trials: must be at least 1, got 0"),
        (("experiment", "density", "--n", "9", "--trials", "-1"), "--trials: must be at least 1, got -1"),
        (("solve", "--budget-ms", "-5"), "--budget-ms: must be at least 0, got -5"),
        (("fmin", "--n", "5", "--workers", "0"), "--workers: must be at least 1, got 0"),
        (("verify", "lemma22", "--workers", "-2"), "--workers: must be at least 1, got -2"),
        (("enumerate", "--n", "3", "--workers", "two"), "--workers: invalid int value: 'two'"),
        (("experiment", "edge-stats", "--n", "1"), "error: edge statistics need a host with an edge, got n=1"),
        (("lp", "--budget", "1/0"), "error: zero denominator in '1/0'"),
        (("lp", "--budget", "1", "--values", "7,6,5/0"), "error: zero denominator in '5/0'"),
        (("solve", "--node-budget", "0"), "--node-budget: must be at least 1, got 0"),
    ],
)
def test_out_of_range_counts_are_usage_errors(capsys, qr7_file, argv, message):
    if argv[0] in ("pipeline", "solve"):
        argv = (*argv, "--in", qr7_file)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_zero_budget_is_accepted(capsys, qr7_file):
    code, doc, _ = run_json(capsys, "solve", "--in", qr7_file, "--budget-ms", "0")
    assert code == 0
    assert doc["config"]["budget_ms"] == 0


LEAVES = (
    ("enumerate",),
    ("solve",),
    ("census",),
    ("verify", "lemma22"),
    ("verify", "conjecture"),
    ("verify", "design"),
    ("verify", "packing"),
    ("fmin",),
    ("pipeline",),
    ("lp",),
    ("construct",),
    ("design",),
    ("experiment", "density"),
    ("experiment", "edge-stats"),
)

# help, usage errors and a few complete runs; no argv here reads a file
PARSER_CORPUS = (
    (),
    ("-h",),
    ("-h", "solve"),
    ("bogus",),
    ("sol",),
    ("verify", "pack"),
    ("--",),
    ("--", "solve"),
    ("verify",),
    ("verify", "-h"),
    ("experiment",),
    ("experiment", "-h"),
    *((*leaf, "-h") for leaf in LEAVES),
    ("solve",),
    ("verify", "packing", "--in", "host.txt"),
    ("census", "--in", "host.txt", "extra"),
    ("census", "--in", "host.txt", "--seed", "5"),
    ("experiment", "density", "--n", "9", "--bogus", "1"),
    ("solve", "--in", "host.txt", "--k", "4", "-h"),
    ("verify", "conjecture", "--max-n", "99"),
    ("construct", "--qr7", "--turan3"),
    ("lp", "--budget", "35/4"),
    ("lp", "--budget", "1/0"),
    ("design", "--fano"),
    ("construct", "--qr7"),
)


def test_deferred_parsers_match_eager_ones(capsys, monkeypatch):
    # argparse wraps help to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")

    def outcomes(call):
        return [(argv, call(list(argv)), *capsys.readouterr()) for argv in PARSER_CORPUS]

    deferred = outcomes(main)
    assert deferred == outcomes(eager_main)
    assert {rc for _, rc, _, _ in deferred} == {0, 2}


# the commands that draw a random number, and so the only ones that take --seed
SEEDED = {("pipeline",), ("construct",), ("experiment", "density"), ("experiment", "edge-stats")}


def leaf_parsers(parser, path=()):
    """Yield (command path, parser) for each leaf command under parser."""
    subcommands = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subcommands:
        yield path, parser
    for action in subcommands:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


def test_exactly_the_seeded_commands_take_a_seed(monkeypatch):
    monkeypatch.setattr("ttpack.cli._Deferred", EagerParser)
    options = {
        path: [action.option_strings[0] for action in parser._actions if action.option_strings and action.dest != "help"]
        for path, parser in leaf_parsers(build_parser())
    }
    assert set(options) == set(LEAVES)
    assert {path for path, names in options.items() if "--seed" in names} == SEEDED
    # 71 before solve took --node-budget
    assert sum(map(len, options.values())) == 72


@pytest.mark.parametrize("leaf", [leaf for leaf in LEAVES if leaf not in SEEDED and leaf != ("design",)], ids="-".join)
def test_an_exact_command_rejects_a_seed(capsys, leaf):
    required = {
        ("enumerate",): ("--n", "5"),
        ("solve",): ("--in", "host.txt"),
        ("census",): ("--in", "host.txt"),
        ("verify", "design"): ("--in", "design.txt"),
        ("verify", "packing"): ("--in", "host.txt", "--packing", "solve.json"),
        ("fmin",): ("--n", "5"),
        ("lp",): ("--budget", "35/4"),
    }
    code, out, err = run(capsys, *leaf, *required.get(leaf, ()), "--seed", "5")
    assert (code, out) == (2, "")
    assert err.endswith("ttpack: error: unrecognized arguments: --seed 5\n")


@pytest.mark.parametrize(
    "argv, built",
    [
        (("-h",), 1),
        (("solve", "--in", "{host}"), 2),
        (("verify", "packing", "--in", "{host}", "--packing", "{packing}"), 3),
    ],
)
def test_a_call_builds_only_the_parsers_it_names(monkeypatch, qr7_file, tmp_path, argv, built):
    packing = tmp_path / "solve.json"
    assert main(["solve", "--in", qr7_file, "--out", str(packing)]) == 0
    argv = [arg.format(host=qr7_file, packing=packing) for arg in argv]
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert progs == ["ttpack", *(f"ttpack {' '.join(argv[:i])}" for i in range(1, built))]
    # eagerly: ttpack, its 10 commands, 4 verify targets and 2 experiment kinds
    progs.clear()
    assert eager_main(argv) == 0
    assert len(progs) == 17


@pytest.mark.parametrize("argv", [("census", "--in", "{host}"), ("census", "--in", "{host}", "--k", "3")])
def test_module_entry_point_matches_main(capsys, qr7_file, argv):
    # python -m ttpack.cli calls main() with argv None, as the console script does
    argv = [arg.format(host=qr7_file) for arg in argv]
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(Path(ttpack.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "ttpack.cli", *argv], capture_output=True, text=True, env=env, check=False
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


# The sha256 of stdout for a fixed corpus, and for a JSON report also the
# sha256 of its result alone, serialized as _emit serializes it, so a change
# to the envelope or the config echo cannot move a result unseen.  Hosts are
# relative paths in the working directory and the cache comes from
# TTPACK_CACHE, so the config echo holds nothing that depends on the machine.
GOLDEN = {
    # 17 nodes; 13, with digests 2fe077d0... and 27954266..., while every
    # node built a hitting set, not only on hosts with a ceiling
    "solve-json": (
        ("solve", "--in", "qr7.txt"),
        "926cda81c57247e87647916b64c01206b693d3fd7382ff1e821dafba3fc3b74f",
        "5d2dd0b79dbaa1fab4abf8f93ba41808931bb249e7091b03149cdb5d746fc6f5",
    ),
    "solve-text": (
        ("solve", "--in", "qr7.txt", "--format", "text"),
        "13c7fddb1bf1039ba84e47b33903e48685d0d40f5d1ed7fff6a18a1fbca489b4",
        None,
    ),
    # 338 copies after 5 nodes; 346 while a node took its branch copies in
    # index order and the root's hitting set gave no ceiling
    "solve-node-budget": (
        ("solve", "--in", "t49.txt", "--node-budget", "5"),
        "88d3ff8b4ba27224fb67b5cba6f8f1cee390683e1d3e9f552fcaa8acec9098f1",
        "2e3f2b77faae73522abfc993cb1bfe4c16c6524ea78d4fa8b1c46fabe77f96e7",
    ),
    "census-json": (
        ("census", "--in", "qr7.txt"),
        "7c38d7128dac28b3dc8bf5597996289b29220afed091bcb5a8e81fc638421cdb",
        "ea468debf607864555da2a4dee1d81238c1c737d6056a1fcb99aa29627991248",
    ),
    "census-text": (
        ("census", "--in", "qr7.txt", "--format", "text"),
        "bc6635391558572f8d8286c6a90b8a5db0476fbca1a38f611e595e293c3d7259",
        None,
    ),
    "lp-order7": (
        ("lp", "--budget", "35/4"),
        "fe74c4a297b2c2a51d83782f8167d70f954f55d80a743bae901866a80be2963d",
        "367eab74a458726b47390dcfc23f2967611cf1e92bddfa474d43ba9a03695e4b",
    ),
    "lp-order9": (
        ("lp", "--budget", "21", "--values", "12,11,10,9", "--costs", "7,20,27"),
        "3debb5839a9d959c872409ad04e0a718065eb16de3fdacd5051ced6acae9d78d",
        "6262c8b37ce8b357775f377f214cad11fc99762ed47168716e8e7895880431fa",
    ),
    "fmin-6": (
        ("fmin", "--n", "6"),
        "f6568aa60011fb35b3330b547d039e66cd7577272563ddc3c1ac929bf70ddbb1",
        "de71e70ad2c2c56aa1655e70a5d73d74bd23a0fb1b2073b3195604e05035a2f4",
    ),
    "fmin-7-k4": (
        ("fmin", "--n", "7", "--k", "4"),
        "79558b13b4b862458bad8523192c9ab58ac3824df08e2a99f119fa7d602fb3e7",
        "a1357fe9318859634abbc4d64d62f3c49b71bbf08e51a272f38bb48c5cbbf90c",
    ),
    "lemma22": (
        ("verify", "lemma22"),
        "648f4afca98267e717d0aa448c7f73320a1b20db837c8a29cb31087cde05b4fc",
        "f716e10b3132b045ec6fcad6c041a0197d267a099886974d6a860dbff8057799",
    ),
    "conjecture-6": (
        ("verify", "conjecture", "--max-n", "6"),
        "ea62dabcb199b8936f70d05a094b4f310334d0858f4ca1848b4581244af38267",
        "aa60e2725a8f17cccb37533e585d7c7a968481c5d457ece6182f208546b2f88c",
    ),
    "pipeline-w1": (
        ("pipeline", "--in", "t49.txt", "--trials", "3", "--seed", "11", "--workers", "1"),
        "f032edb5de953819ed622916096211b771239e908542477a39d5db9306c295b1",
        "21619409e63b83b4883b0a0f0abb88764b3f14b0c5050a0fe05543d6825f38d5",
    ),
    "pipeline-w2": (
        ("pipeline", "--in", "t49.txt", "--trials", "3", "--seed", "11", "--workers", "2"),
        "f88ebd599d76cfcc5851e9e8f9c84d93236391c5d718055d4d99945808876c4a",
        "21619409e63b83b4883b0a0f0abb88764b3f14b0c5050a0fe05543d6825f38d5",
    ),
    "density": (
        ("experiment", "density", "--n", "10", "--trials", "2", "--improve"),
        "f7eb65934d4d140248582b322573c5936c1ba2d9833a56fde6c3967f3643a86a",
        "70215acd143de81a53336b32883889500dfc0dfc83a1f23735caaa09f942497a",
    ),
    "density-k4": (
        ("experiment", "density", "--n", "12", "--k", "4", "--trials", "2", "--improve"),
        "302292ff488755caf15b22da0dcd83dac589743783f8a889ba32eaa595e0ead8",
        "ed6978e7a8c530b3572efe3700794bc934f12b56db32928dd209c9267f712a42",
    ),
    "edge-stats": (
        ("experiment", "edge-stats", "--n", "13", "--k", "4"),
        "25954f4ffe552f1991d1ff060e3a52e15419b2d89aaed070df430e074acb8cdd",
        "4820c25adb191f15ed230aa151b8179fdd1b126f6af9069e7879aa4d2aa5a2e1",
    ),
    "enumerate-5": (
        ("enumerate", "--n", "5"),
        "15be91d1178a01d995a7de9daff2388f4be916016be51b7f235d23b1431f2569",
        "c7ffb744e2dd151fc6f5f24e41d49932827a2438445cdbe31013f530f8252263",
    ),
    "design-ag2": (
        ("design", "--ag2"),
        "dd52da08c0ed0337e0e1588c5f9d5c6f08fc8a7aae1971e1136457aa797c4b61",
        None,
    ),
    "design-all-sts7": (
        ("design", "--all-sts7"),
        "2209b09b0b90c402d26ee404ac9de8e2f190e6db2dc99cbde8aba6050c6f5d55",
        None,
    ),
    "construct-turan3-49": (
        ("construct", "--turan3", "--n", "49"),
        "41262f1451dfbbab48eeb2d97f84252e8d1836b066737c5dbc9193a4f8bd8c7d",
        None,
    ),
    "construct-turan3-random": (
        ("construct", "--turan3", "--n", "10", "--filler", "random", "--seed", "5"),
        "ebeb2bb02dd3f36489502263cb102fffdf184b49d2c914e0b4b74f7516e1e615",
        None,
    ),
    "construct-blowup-2": (
        ("construct", "--blowup", "2"),
        "48da016c5a81a2572b64170a38cdba36a0fab733e30ee605c064eaf0c2245679",
        None,
    ),
    "construct-blowup-random": (
        ("construct", "--blowup", "3", "--filler", "random", "--seed", "5"),
        "454db80d19c6ce40703ca4eb860b5f139358ca946f8dd0430ae422b8180b53db",
        None,
    ),
}


@pytest.fixture()
def in_host_dir(cache_dir, tmp_path, monkeypatch):
    """Run in a directory holding qr7.txt and t49.txt, with the shared cache from TTPACK_CACHE."""
    (tmp_path / "qr7.txt").write_text(serialize_tournament(qr7()))
    (tmp_path / "t49.txt").write_text(serialize_tournament(random_tournament(49, 7)))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TTPACK_CACHE", cache_dir)


@pytest.mark.parametrize("name", GOLDEN)
def test_reports_match_their_golden_digests(capsys, in_host_dir, name):
    argv, digest, _ = GOLDEN[name]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("name", [name for name, (_, _, digest) in GOLDEN.items() if digest])
def test_results_match_their_golden_digests(capsys, in_host_dir, name):
    argv, _, digest = GOLDEN[name]
    code, doc, err = run_json(capsys, *argv)
    assert (code, err) == (0, "")
    result = json.dumps(doc["result"], sort_keys=True, indent=2)
    assert hashlib.sha256(result.encode()).hexdigest() == digest, result


# Each record-backed report's result is its record's fields, plus these
# extra keys that no record holds.
RECORDS = {
    "solve": (("solve", "--in", "qr7.txt"), Packing, {"value"}),
    "census": (("census", "--in", "qr7.txt"), TriangleCensus, {"n", "packing_lower_bound"}),
    "fmin": (("fmin", "--n", "5"), FMinRecord, set()),
    "pipeline": (("pipeline", "--in", "t49.txt", "--trials", "1"), PipelineReport, set()),
    "lp": (("lp", "--budget", "35/4"), LPResult, set()),
    "density": (("experiment", "density", "--n", "9", "--trials", "1"), DensityReport, {"mean_covered_fraction"}),
    "edge-stats": (("experiment", "edge-stats", "--n", "9"), EdgeCopyStats, set()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_report_holds_its_record_fields_and_its_extra_keys(capsys, in_host_dir, name):
    argv, record, extra = RECORDS[name]
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert set(doc["result"]) == set(record._fields) | extra
