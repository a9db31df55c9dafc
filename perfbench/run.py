"""End-to-end and per-layer benchmark of the ttpack command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json.  One run sets the
workload up several times (a fresh import of ttpack plus writing its input
files) and reports the median as ``setup_s``.  With ``--trace 0`` it then
repeats the workload's timed phase a fixed number of times, sized so that
the phases take about ``--seconds`` on a 2-core Xeon, and reports the median
phase as ``wall_s``.  Both are in seconds at a reference machine speed (see
PROBE_REFERENCE_S).  With ``--trace 1`` it runs the phase once untraced and
once with the layer functions wrapped (at one worker), and reports the
per-layer figures in raw seconds.  Answers are checked after timing stops.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric by
name with its unit.  A fuller record, with the machine's details, goes to
perfbench/work/results/.  The run exits non-zero, printing no result, when
the ttpack sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import struct
import sys
import tempfile
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, SetupError, failure, run_command  # noqa: E402

MODULES = ("ttpack.cli", "ttpack.pipeline", "ttpack.packing", "ttpack.tournament", "ttpack.constructions")
MIN_PHASES = 3

# The benchmark's cores are shared with other tenants: the same code runs up
# to 1.6x slower for seconds at a time.  So while an interval is timed, a
# timer signal runs a fixed pure-Python probe kernel every SAMPLE_PERIOD_S
# (about 2% of the interval) in the main thread and in any pool worker, and
# the reported seconds are scaled to the probe's reference time:
# raw seconds * PROBE_REFERENCE_S / mean probe CPU time.  The reference is a
# fixed scale, about the probe's time on an unloaded core of the 2-core Xeon
# the benchmark was written on; only ratios between runs matter.  Raw seconds
# and probe times go to the record.
PROBE_REFERENCE_S = 0.001
SAMPLE_PERIOD_S = 0.05


def _probe_kernel() -> int:
    # integer bit operations, loops and list building: the solver's mix
    total = 0
    xs = list(range(1, 300))
    for r in range(12):
        mask = 0
        for x in xs:
            mask |= (x * 2654435761 ^ r) & 0xFFFF
            total += (x & mask).bit_count()
        xs = [x ^ (x >> 3) for x in xs]
    return total


# (read end, write end) of the sample pipe while a Clock times an interval.
# Processes forked meanwhile (the program's pool workers) sample their own
# core into it.
_sample_pipe: tuple[int, int] | None = None


def _sample(*_signal) -> None:
    # CPU time of this thread, so that time spent preempted by another of the
    # run's own processes does not read as a slower machine
    start = thread_time()
    _probe_kernel()
    try:
        os.write(_sample_pipe[1], struct.pack("d", thread_time() - start))
    except OSError:  # a worker that outlived its interval: the pipe is gone
        signal.setitimer(signal.ITIMER_REAL, 0)


def _start_sampling() -> None:
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)


def _sample_in_child() -> None:
    if _sample_pipe is not None:
        # only the parent reads, so the pipe breaks once the parent closes it
        os.close(_sample_pipe[0])
        _start_sampling()


os.register_at_fork(after_in_child=_sample_in_child)


def _read_samples(fd: int) -> list[float]:
    os.set_blocking(fd, False)
    data = b""
    try:
        while chunk := os.read(fd, 65536):
            data += chunk
    except BlockingIOError:  # a writer is still open; what it wrote is in data
        pass
    os.close(fd)
    return [x for (x,) in struct.iter_unpack("d", data[: len(data) - len(data) % 8])]


class Clock:
    """Times intervals, samples the machine's speed during each, and scales each to the reference speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.probe: list[float] = []
        self.scaled: list[float] = []

    def measure(self, fn):
        global _sample_pipe
        _sample_pipe = os.pipe()
        previous = signal.getsignal(signal.SIGALRM)
        _start_sampling()
        try:
            start = perf_counter()
            result = fn()
            raw = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            _sample()  # one more, so an interval shorter than a period has a sample
            read_fd, write_fd = _sample_pipe
            _sample_pipe = None
            os.close(write_fd)
            samples = _read_samples(read_fd)
        probe = statistics.mean(samples)
        self.raw.append(raw)
        self.probe.append(probe)
        self.scaled.append(raw * PROBE_REFERENCE_S / probe)
        return result

    def record(self) -> dict:
        return {"raw_s": self.raw, "probe_s": self.probe, "scaled_s": self.scaled}


class ProgramMissing(RuntimeError):
    pass


def import_ttpack() -> dict:
    """Import ttpack afresh from this checkout's sources; returns the modules by name."""
    for name in [m for m in sys.modules if m == "ttpack" or m.startswith("ttpack.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        modules = {name: importlib.import_module(name) for name in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import ttpack from {SRC}: {exc}") from exc
    origin = os.path.abspath(modules["ttpack.cli"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ProgramMissing(f"ttpack was imported from {origin}, not from {SRC}")
    return modules


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    return load_json(os.path.join(HERE, "reference.json"))


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json asks a run for."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_phase(workload, commands, tracer=None) -> float:
    start = perf_counter()
    for command in commands:
        if tracer is not None:
            tracer.command += 1
        run_command(workload.cli, command, tracer)
    return perf_counter() - start


def set_up(name: str, size: str, reference: dict, workdir: str, seed: int, clock: Clock):
    """Set the workload up several times on the clock; returns the last instance."""
    for i in range(WORKLOADS[name].setup_repeats):
        inputs = os.path.join(workdir, f"setup{i}")
        os.makedirs(inputs)

        def make():
            workload = WORKLOADS[name](import_ttpack(), reference, size)
            workload.setup(inputs, seed)
            return workload

        workload = clock.measure(make)
    return workload


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def timed_run(workload, seconds: int, clock: Clock):
    phases = max(MIN_PHASES, round(seconds / workload.nominal_s))
    commands = []
    for _ in range(phases):
        batch = workload.commands(workload.workers, traced=False)
        clock.measure(lambda: run_phase(workload, batch))
        commands += batch
    return {"wall_s": statistics.median(clock.scaled), "peak_rss_mb": peak_rss_mb()}, commands


def traced_run(workload, trace_path: str):
    base = workload.commands(workload.workers, traced=False)
    base_wall = run_phase(workload, base)
    commands = list(base)
    serial_wall = base_wall
    if workload.workers > 1:
        serial = workload.commands(1, traced=False)
        serial_wall = run_phase(workload, serial)
        commands += serial

    tracer = Tracer()
    tracer.install(workload.tt)
    try:
        traced = workload.commands(1, traced=True)
        first_id = tracer.command + 1
        traced_wall = run_phase(workload, traced, tracer)
        after = workload.after_trace()
        run_phase(workload, after, tracer)
    finally:
        tracer.uninstall()
    by_id = {first_id + i: c for i, c in enumerate(traced + after)}
    commands += traced + after
    tracer.write_jsonl(trace_path)

    metrics = layer_metrics(tracer.spans, by_id)
    metrics["pipeline.pool_efficiency"] = (
        serial_wall / (workload.workers * base_wall) if workload.workers > 1 else 0.0
    )
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - serial_wall
    return metrics, commands


def layer_metrics(spans: list[dict], by_id: dict) -> dict:
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own[s["span"]]

    def of(name, key):
        # a call that raised carries no counts; its command is counted as failed
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    solves = [s for s in spans if s["name"] == "packing.max_packing_exact"]
    nodes = of("packing.max_packing_exact", "nodes")
    m = {}
    for layer in (
        "enumeration.enumerate_codes",
        "packing.max_packing_exact",
        "packing.enumerate_copies",
        "packing.verify_packing",
        "tournament.census",
        "tournament.induced",
    ):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("pipeline.f_min", "pipeline.verify_t7_thresholds", "pipeline.decomposition_pipeline"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["packing.nodes"] = nodes
    m["packing.us_per_node"] = 1e6 * m["packing.max_packing_exact.self_s"] / nodes if nodes else 0.0
    m["packing.optimal_ratio"] = of("packing.max_packing_exact", "optimal") / len(solves) if solves else 0.0
    m["packing.copies"] = of("packing.enumerate_copies", "copies")

    # Building order n canonicalizes every class of order n-1 extended in
    # 2^(n-1) ways.  Only cold builds count: a warm call reads the cache.
    enum = [s for s in spans if s["name"] == "enumeration.enumerate_codes"]
    cold = {s["n"]: s for s in enum if "n" in s and not by_id[s["command"]].warm}
    work = {n: cold[n - 1]["codes"] << (n - 1) for n in cold if n - 1 in cold}
    m["enumeration.canonicalizations"] = sum(work.values())
    top = max(work, default=None)
    m["enumeration.canon_us"] = 1e6 * own[cold[top]["span"]] / work[top] if top else 0.0
    m["enumeration.cache_read_s"] = sum((own[s["span"]] for s in enum if by_id[s["command"]].warm), 0.0)
    m["trace.spans"] = len(spans)
    return m


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "optimize": sys.flags.optimize,
    }


def run(name: str, seed: int, seconds: int, trace: bool, size: str = "full", reference: dict | None = None) -> dict:
    """One benchmark run; returns the full record, whose 'summary' is the printed result."""
    reference = load_reference() if reference is None else reference
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    setup_clock, phase_clock = Clock(), Clock()
    try:
        workload = set_up(name, size, reference, workdir, seed, setup_clock)
        if trace:
            trace_path = os.path.join(WORK, "traces", f"{name}-seed{seed}.jsonl")
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            metrics, commands = traced_run(workload, trace_path)
        else:
            metrics, commands = timed_run(workload, seconds, phase_clock)
            metrics["setup_s"] = statistics.median(setup_clock.scaled)
        failures = [(c.argv, why) for c in commands if (why := failure(c))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(trace)
    if not trace:
        metrics["success_ratio"] = 1 - len(failures) / len(commands)
    summary = {
        "correct": not failures,
        "attempted": len(commands),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "machine": machine(),
        "setup": setup_clock.record(),
        "phases": phase_clock.record(),
        "failures": [{"argv": argv, "why": why} for argv, why in failures[:20]],
        "summary": summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 gives the acceptance gate's inputs")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-tests")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (ProgramMissing, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for argv_, why in ((f["argv"], f["why"]) for f in record["failures"]):
        print(f"FAILED {' '.join(argv_)}: {why}", file=sys.stderr)
    summary = record["summary"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} record={os.path.relpath(path, ROOT)}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:42s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
