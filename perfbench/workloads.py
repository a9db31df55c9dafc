"""The benchmark's workloads: their set-up, their timed commands and the checks on their answers.

Every command goes through ``ttpack.cli.main(argv)`` in this process with
stdout captured, so what is timed is what a user of the ``ttpack`` command
waits for.  Answers are checked only after timing stops.  Each check first
applies the certificates that hold for any input (a proof of optimality,
the program's own verifiers) and then, where ``reference.json`` holds an
entry for the exact input, compares the answer with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

# Seed 0 reproduces the acceptance gate: pipeline host random_tournament(49, 7)
# and trial seed 11.  Seed s shifts both by s.
GATE_HOST_SEED = 7
GATE_TRIAL_SEED = 11


class SetupError(RuntimeError):
    """The program failed while the benchmark prepared a workload's inputs."""


@dataclass
class Command:
    """One ``ttpack`` invocation, its captured outcome and the check on its answer."""

    argv: list[str]
    check: Callable[["Command"], str | None]
    warm: bool = False  # reads an enumeration cache that was already on disk
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None

    def result(self) -> dict:
        return json.loads(self.stdout)["result"]


def run_command(cli, command: Command, tracer=None) -> None:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                command.rc = cli.main(command.argv)
            else:
                command.rc = tracer.span("cli.main", cli.main, command.argv)
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        command.error = f"{type(exc).__name__}: {exc}"
    command.stdout, command.stderr = out.getvalue(), err.getvalue()


def call(cli, argv: list[str]) -> Command:
    """Run a command outside any timed phase and return it."""
    command = Command(argv, check=lambda c: None)
    run_command(cli, command)
    return command


def failure(command: Command) -> str | None:
    """Why a command failed, or None when it exited 0 and passed its check."""
    if command.error:
        return command.error
    if command.rc != 0:
        return f"exit code {command.rc}: {command.stderr.strip()[-300:]}"
    try:
        return command.check(command)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"


def codes_digest(codes: list[str]) -> str:
    return hashlib.sha256("\n".join(codes).encode()).hexdigest()


class Workload:
    """Inputs are made by setup(); commands() prepares one timed phase."""

    name = ""
    setup_repeats = 5
    nominal_s = 1.0  # one timed phase on a 2-core Xeon, to size a run
    workers = 1

    def __init__(self, tt: dict, reference: dict, size: str) -> None:
        self.tt = tt
        self.cli = tt["ttpack.cli"]
        self.reference = reference
        self.dirs = 0

    def fresh_dir(self, parent: str) -> str:
        self.dirs += 1
        path = os.path.join(parent, f"d{self.dirs}")
        os.makedirs(path)
        return path

    def copy_dir(self, source: str) -> str:
        """A copy under a new name, so the program's in-process cache memo misses."""
        self.dirs += 1
        path = f"{source}-copy{self.dirs}"
        shutil.copytree(source, path)
        return path

    def write_host(self, workdir: str, label: str, host) -> str:
        path = os.path.join(workdir, f"{label}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.tt["ttpack.tournament"].serialize_tournament(host))
        return path

    def setup(self, workdir: str, seed: int) -> None:
        raise NotImplementedError

    def commands(self, workers: int, traced: bool) -> list[Command]:
        raise NotImplementedError

    def after_trace(self) -> list[Command]:
        """Commands run with tracing on after the traced phase, outside its wall time."""
        return []


class EnumerateCold(Workload):
    name = "enumerate-cold"
    nominal_s = 2.9

    def __init__(self, tt, reference, size):
        super().__init__(tt, reference, size)
        self.order = 8 if size == "full" else 6

    def setup(self, workdir, seed):
        self.workdir = workdir

    def commands(self, workers, traced):
        cache = self.fresh_dir(self.workdir)
        self.last_cache = cache
        # traced: one command per order, so each order gets its own span
        orders = range(1, self.order + 1) if traced else (self.order,)
        return [Command(["enumerate", "--n", str(n), "--cache", cache], self._checker(n, cache)) for n in orders]

    def after_trace(self):
        cache = self.copy_dir(self.last_cache)
        argv = ["enumerate", "--n", str(self.order), "--cache", cache]
        return [Command(argv, self._checker(self.order, None), warm=True)]

    def _checker(self, n: int, cache: str | None):
        def check(command):
            problem = self._compare(n, command.result())
            if problem or cache is None:
                return problem
            # the cache the command wrote must read back as the same classes, order by order
            copy = self.copy_dir(cache)
            for m in range(1, n + 1):
                read = call(self.cli, ["enumerate", "--n", str(m), "--cache", copy])
                problem = failure(read) or self._compare(m, read.result())
                if problem:
                    return f"cache read-back of order {m}: {problem}"
            return None

        return check

    def _compare(self, n: int, result: dict) -> str | None:
        if result["count"] != len(result["codes"]) or len(set(result["codes"])) != len(result["codes"]):
            return f"order {n}: count {result['count']} disagrees with its {len(result['codes'])} codes"
        want = self.reference["enumerate"].get(str(n))
        got = {"count": result["count"], "sha256": codes_digest(result["codes"])}
        if want is not None and got != want:
            return f"order {n}: got {got}, reference {want}"
        return None


class Sweep(Workload):
    name = "sweep"
    setup_repeats = 3
    nominal_s = 7.0

    def __init__(self, tt, reference, size):
        super().__init__(tt, reference, size)
        self.order = 8 if size == "full" else 6

    def setup(self, workdir, seed):
        # the cache both commands read is this workload's input, so building it is set-up
        self.cache = os.path.join(workdir, "cache")
        built = call(self.cli, ["enumerate", "--n", str(max(7, self.order)), "--cache", self.cache])
        if failure(built):
            raise SetupError(f"building the enumeration cache failed: {failure(built)}")

    def commands(self, workers, traced):
        return [
            Command(["verify", "lemma22", "--cache", self.copy_dir(self.cache)], self._check_lemma22, warm=True),
            Command(["fmin", "--n", str(self.order), "--cache", self.copy_dir(self.cache)], self._check_fmin, warm=True),
        ]

    def _check_lemma22(self, command):
        r = command.result()
        if not (r["low_triangle_perfect"] and r["mid_triangle_six"] and r["always_five"]):
            return "a threshold claim came back false"
        if r["classes"] != sum(r["joint_distribution"].values()):
            return "joint distribution does not cover every class"
        want = self.reference["lemma22"]
        got = {k: r[k] for k in want}
        return None if got == want else f"lemma22 {got} differs from reference {want}"

    def _check_fmin(self, command):
        r = command.result()
        if r["f"] < 1 or not r["argmin_codes"]:
            return f"f({self.order}) = {r['f']} with {len(r['argmin_codes'])} witnesses"
        want = self.reference["fmin"].get(str(self.order))
        got = {"f": r["f"], "argmin_codes": r["argmin_codes"]}
        return None if want is None or got == want else f"fmin {got} differs from reference {want}"


class Pipeline49(Workload):
    name = "pipeline49"
    nominal_s = 4.5
    workers = 2

    def __init__(self, tt, reference, size):
        super().__init__(tt, reference, size)
        self.trials = 100 if size == "full" else 2

    def setup(self, workdir, seed):
        tour = self.tt["ttpack.tournament"]
        host_seed = GATE_HOST_SEED + seed
        self.trial_seed = GATE_TRIAL_SEED + seed
        hosts = {
            f"random49-host{host_seed}": tour.random_tournament(49, host_seed),
            "turan3-49": self.tt["ttpack.constructions"].turan3_tournament(49),
            "transitive49": tour.transitive_tournament(49),
        }
        self.hosts = {label: self.write_host(workdir, label, host) for label, host in hosts.items()}

    def commands(self, workers, traced):
        return [
            Command(
                ["pipeline", "--in", path, "--trials", str(self.trials), "--seed", str(self.trial_seed), "--workers", str(workers)],
                self._checker(label),
            )
            for label, path in self.hosts.items()
        ]

    def _checker(self, label: str):
        def check(command):
            r = command.result()
            totals, histogram = r["totals"], r["block_value_histogram"]
            if r["trials"] != self.trials or len(totals) != self.trials:
                return f"{label}: {len(totals)} totals for {self.trials} trials"
            if sum(int(v) * c for v, c in histogram.items()) != sum(totals):
                return f"{label}: block histogram does not add up to the trial totals"
            floor = 392 if label == "transitive49" else 280
            if min(totals) < floor or (label == "transitive49" and max(totals) != 392):
                return f"{label}: trial totals span {min(totals)}..{max(totals)}, need >= {floor}"
            want = self.reference["pipeline"].get(f"{label}/trials{self.trials}/seed{self.trial_seed}")
            got = {"totals": totals, "block_value_histogram": histogram}
            return None if want is None or got == want else f"{label}: totals or histogram differ from reference"

        return check


class Solve(Workload):
    name = "solve"
    nominal_s = 6.3

    def __init__(self, tt, reference, size):
        super().__init__(tt, reference, size)
        self.orders = range(11, 16) if size == "full" else range(9, 11)

    def setup(self, workdir, seed):
        # The hosts do not follow the workload seed: one order-11 or order-15
        # host takes from 0.1 s to 8 s to solve, so hosts drawn per seed would
        # spread the wall time far beyond any usable bound.  Seed 0 of each
        # order is the first of the seeds the ROADMAP baseline used.
        tour = self.tt["ttpack.tournament"]
        cons = self.tt["ttpack.constructions"]
        hosts = [(f"random-n{n}-s0", tour.random_tournament(n, 0), 3) for n in self.orders]
        hosts.append(("blowup2-qr7", cons.blowup(cons.qr7(), 2), 4))
        self.workdir = workdir
        self.hosts = [(f"{label}-k{k}", self.write_host(workdir, label, host), k) for label, host, k in hosts]

    def commands(self, workers, traced):
        return [
            Command(["solve", "--in", path, "--k", str(k)], self._checker(label, path))
            for label, path, k in self.hosts
        ]

    def _checker(self, label: str, host_path: str):
        def check(command):
            r = command.result()
            if r["optimal"] is not True:
                return f"{label}: no proof of optimality"
            if r["value"] != len(r["copies"]):
                return f"{label}: value {r['value']} but {len(r['copies'])} copies"
            report = os.path.join(self.fresh_dir(self.workdir), "solve.json")
            with open(report, "w", encoding="utf-8") as fh:
                fh.write(command.stdout)
            verified = call(self.cli, ["verify", "packing", "--in", host_path, "--packing", report])
            if failure(verified) or verified.result()["valid"] is not True:
                return f"{label}: verify_packing rejected the packing"
            want = self.reference["solve"].get(label)
            return None if want is None or r["value"] == want else f"{label}: value {r['value']}, reference {want}"

        return check


WORKLOADS = {w.name: w for w in (EnumerateCold, Sweep, Pipeline49, Solve)}
