"""End-to-end command behavior: envelopes, exit codes, reproducibility."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ttpack
from oracles import eager_main
from ttpack import DEFAULT_SEED, FORMAT_VERSION, TOOL_VERSION
from ttpack.cli import build_parser, main
from ttpack.constructions import qr7
from ttpack.enumeration import MAX_ENUMERATION_VERTICES, _cache_path, enumerate_codes
from ttpack.tournament import parse_tournament, serialize_tournament, tournament_from_code

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
    assert doc["seed"] == DEFAULT_SEED
    assert doc["result"]["a"] == 21 and doc["result"]["t"] == 14


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


def test_edge_stats_requires_a_host(capsys):
    assert run(capsys, "experiment", "edge-stats") == (2, "", "error: edge-stats requires --n or --in\n")


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


def test_fmin_command(capsys, cache_dir):
    code, doc, _ = run_json(capsys, "fmin", "--n", "5", "--cache", cache_dir)
    assert code == 0
    assert doc["result"]["f"] == 2


def test_pipeline_command(capsys, tmp_path):
    from ttpack.tournament import random_tournament

    host = tmp_path / "t49.txt"
    host.write_text(serialize_tournament(random_tournament(49, 7)))
    argv = ("pipeline", "--in", str(host), "--trials", "2", "--seed", "11")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["result"]["min_total"] >= 280
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
