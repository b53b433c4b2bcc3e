"""Benchmark of stablebetti: four workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracle-census --seed 1 --seconds 25 --trace 0

One process, one closed-loop client, no threads: each request is sent only
after the previous one has returned. The program is imported from ``src/``
and called through its public entry points; nothing under ``src/`` is
edited.

Times are paced (see pace.py): a reference loop runs every 0.1 s of CPU
time, inside requests too, and each stretch of a request is scaled by the
loop's time around it against the loop's nominal time; the loop's own time
is left out. On a shared host the raw time of the same request swings by up
to 2x from one spell to the next (coefficient of variation 0.1 to 0.35 on a
2-core x86 box); paced, 0.02 to 0.1. The metrics are paced; the report also
prints the raw figures.

Set-up (a fresh import, the request list, one warm-up request) is done
SETUP_REPS times or more, until SETUP_SECONDS have passed; ``setup_s`` is
the median. Then the request list is sent in order, in whole passes: at
least one, and another only while it should end within ``--seconds``, so
that every request runs equally often and the fail ratio does not depend on
where the time box ends. Every pass starts from a fresh,
untimed import of the program, so that it starts with empty memos, as a
command-line call does; within a pass the memos are shared, as in one
process. Each request's latency is the median of the times it ran;
``wall_s`` is the sum of those (one pass), ``op_p50_ms`` and ``op_p90_ms``
are nearest-rank percentiles over them, ``peak_rss_mb`` is the process's
``ru_maxrss`` and ``ok_ratio`` is the share of requests that did not fail
(one minus the fail ratio, which the report also prints).

Every output is checked: its digest against the outcome recorded in
golden.json at the reference commit, and its meaning (the Koszul table
matches the generator formula; the witness has the requested corners; the
corner matrix validates). A request fails if it raises, exits non-zero,
runs past the per-request guard, or refuses a spec that is feasible by
construction; ``correct`` is false if any outcome differs from the
recorded one or any output means something wrong.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate within ``--seconds``
(each from a fresh import, at least one of each), and the last line
carries the per-layer metrics of the traced pass with the lowest paced
time (see tracer.py): paced span seconds, counts, and ``trace.overhead_s``,
the paced time of that pass minus that of the fastest untraced pass. Lines
before the last are a readable report; a JSON copy with the host stamp, and
in traced runs the spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tr
from pace import NOMINAL_LOOP_S, Pace
import workloads as wl

SETUP_REPS = 3  # set-up runs at least this often, and for at least
SETUP_SECONDS = 2.0  # this long, so that cheap set-ups get a steady median
REQUEST_GUARD_S = 30.0  # over ten times the slowest request at the reference commit
RUN_DEADLINE_S = 150.0  # no request starts later than this after set-up
OUT_DIR = Path(__file__).resolve().parent / "out"


class RequestTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise RequestTimeout(f"request ran past the {REQUEST_GUARD_S:g} s guard")


def guarded(fn, seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def host_state() -> dict:
    """Load average and cumulative steal time of the host, where readable."""
    state = {"loadavg": None, "steal_s": None}
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            state["loadavg"] = [float(x) for x in fh.read().split()[:3]]
        with open("/proc/stat", encoding="ascii") as fh:
            cpu = fh.readline().split()
        state["steal_s"] = int(cpu[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return state


def setup(workload: str, seed: int, inputs: dict):
    program = wl.import_program()
    requests, phases = wl.make_requests(workload, seed, program, inputs)
    wl.execute(program, wl.warmup_request(workload))
    return program, requests, phases


class Runner:
    """Sends the request list in whole passes and checks every outcome."""

    def __init__(self, program, requests, recorded: dict, deadline: float, pace: Pace):
        self.program = program
        self.requests = requests
        self.recorded = recorded
        self.deadline = deadline
        self.pace = pace
        self.tracer = tr.Tracer()
        self.spans: list[list[tuple]] = [[] for _ in requests]  # untraced (start, end), per request
        self.runs = [0] * len(requests)  # times each request was sent
        self.failed_runs = [0] * len(requests)
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self._checked: set[str] = set()

    def run_request(self, i: int, pass_no: int) -> tuple[float, float]:
        """Send request i; return its start and end (equal if the run's
        deadline had passed)."""
        req = self.requests[i]
        self.runs[i] += 1
        t0 = time.perf_counter()
        remaining = self.deadline - t0
        if remaining <= 0:
            self.failures["deadline"] += 1
            self.failed_runs[i] += 1
            return t0, t0
        self.tracer.request = f"{pass_no}:{i}"
        text = exc = None
        try:
            text = guarded(lambda: wl.execute(self.program, req), min(REQUEST_GUARD_S, remaining))
        except Exception as caught:  # every way a request can end is classified
            exc = caught
        t1 = time.perf_counter()
        tracing, self.tracer.active = self.tracer.active, False
        if not tracing:
            self.spans[i].append((t0, t1))
        if self.classify(req, text, exc, tracing):
            self.failed_runs[i] += 1
        self.tracer.active = tracing
        return t0, t1

    def classify(self, req, text, exc, tracing: bool) -> bool:
        """Record what went wrong, if anything; True if the request failed."""
        if isinstance(exc, RequestTimeout):
            self.failures["timeout"] += 1
            return True
        got = wl.outcome(self.program, text, exc)
        want = self.recorded.get(req.key)
        if exc is not None:
            self.failures[got] += 1
            if got == wl.REFUSED and tracing:
                self.tracer.counts["realize_module.budget_refusals"] += 1
        if got != want and not (want == wl.REFUSED and exc is None):
            self.wrong.append(f"{req.entry} {req.doc[:120]}: got {got}, recorded {want}")
        if exc is None and req.key not in self._checked:
            self._checked.add(req.key)
            reason = wl.check_meaning(self.program, req, text)
            if reason:
                self.wrong.append(f"{req.entry} {req.doc[:120]}: {reason}")
        return exc is not None

    def fresh_program(self) -> None:
        """Import the program afresh, untimed, so that a pass starts with
        empty memos; the old import is freed before the pass starts."""
        self.program = wl.import_program()
        gc.collect()

    def measure(self, seconds: float) -> None:
        """Whole passes, requests back to back in list order: at least one,
        and another only while it should end within `seconds`, judged by
        the mean time of the passes so far."""
        t0 = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() + (time.perf_counter() - t0) / passes < min(
            t0 + seconds, self.deadline
        ):
            self.fresh_program()
            for i in range(len(self.requests)):
                self.run_request(i, passes)
            passes += 1

    def run_pass(self, pass_no: int) -> float:
        """One whole pass; returns its paced wall time."""
        spans = [self.run_request(i, pass_no) for i in range(len(self.requests))]
        self.pace.mark()
        return sum(self.pace.paced(start, end) for start, end in spans)

    def measure_traced(self, seconds: float) -> tuple[float, float]:
        """Untraced and traced passes in turn, at least one of each, and
        another pair only while it should end within `seconds`. Keeps the
        spans and counts of the fastest traced pass; returns its paced wall
        time and that of the fastest untraced pass."""
        t0 = time.perf_counter()
        untraced, best = [], None
        pair_s = 0.0
        while not untraced or time.perf_counter() + pair_s < min(t0 + seconds, self.deadline):
            pair_t0 = time.perf_counter()
            self.fresh_program()
            untraced.append(self.run_pass(2 * len(untraced)))
            tracer = tr.Tracer()
            self.tracer = tracer
            self.fresh_program()
            for target in tracer.install(self.program):
                print(f"not traced, no longer in the program: {target}")
            tracer.active = True
            wall = self.run_pass(2 * len(untraced) - 1)
            tracer.active = False
            if best is None or wall < best[0]:
                best = (wall, tracer)
            pair_s = time.perf_counter() - pair_t0
        self.tracer = best[1]
        return best[0], min(untraced)

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    @property
    def failed(self) -> int:
        return sum(self.failed_runs)

    def latencies(self) -> list[float]:
        """Each request's median paced time over its untraced runs; every
        request counts once however many times the time box let it run."""
        return [statistics.median(self.pace.paced(*span) for span in spans) for spans in self.spans if spans]

    def raw_latencies(self) -> list[float]:
        return [statistics.median(end - start for start, end in spans) for spans in self.spans if spans]

    def ok_ratio(self) -> float:
        """Mean over the request list of each request's share of runs that
        did not fail, so that it does not depend on where the time box ends."""
        return statistics.fmean(1 - f / r for r, f in zip(self.runs, self.failed_runs) if r)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(runner: Runner, setup_s: float) -> dict:
    latencies = runner.latencies()
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (1000 * percentile(latencies, 0.50), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 0.90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (runner.ok_ratio(), "ratio"),
    }


def per_layer(runner: Runner, phases: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Paced seconds and counts per layer over one traced pass."""
    inclusive, own = runner.tracer.layer_times(runner.pace.paced)
    values = {}
    for name in tr.SPAN_NAMES:
        values[f"{name}_s"] = inclusive.get(name, 0.0)
        values[f"{name}_self_s"] = own.get(name, 0.0)
    values["oracle.mask_homology_s"] = values["oracle.koszul_s"] - values["oracle.lcm_lattice_s"]
    census_enum = phases.get("oracle.census_enum_s")
    values["oracle.census_enum_s"] = runner.pace.paced(*census_enum) if census_enum else 0.0
    for name in tr.COUNTS:
        values[name] = runner.tracer.counts.get(name, 0)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: (values[name], unit) for name, unit in tr.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pace = Pace()
    try:
        golden = wl.load_golden()
        setup_spans = []
        t0 = time.perf_counter()
        pace.start()
        while len(setup_spans) < SETUP_REPS or time.perf_counter() - t0 < SETUP_SECONDS:
            start = time.perf_counter()
            program, requests, phases = setup(args.workload, args.seed, golden["inputs"])
            setup_spans.append((start, time.perf_counter()))
            # free the previous import, whose modules are held in reference
            # cycles, so that repeated set-ups do not inflate peak_rss_mb
            gc.collect()
    except (wl.SourceMissing, OSError) as exc:
        pace.stop()
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    request_digest = hashlib.sha256("\n".join(r.doc for r in requests).encode()).hexdigest()[:16]
    host_before = host_state()

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(program, requests, golden["outcomes"], time.perf_counter() + RUN_DEADLINE_S, pace)
    if args.trace:
        traced_wall, untraced_wall = runner.measure_traced(args.seconds)
    else:
        runner.measure(args.seconds)
    pace.stop()
    if args.trace:
        metrics = per_layer(runner, phases, traced_wall, untraced_wall)
    else:
        setup_s = statistics.median(pace.paced(*span) for span in setup_spans)
        metrics = end_to_end(runner, setup_s)
    host_after = host_state()

    steal = (host_before["steal_s"], host_after["steal_s"])
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "requests_digest": request_digest,
        "requests_per_pass": len(requests),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": host_before["loadavg"],
        "steal_s_during_run": None if None in steal else steal[1] - steal[0],
    }
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    samples = sum(map(len, runner.spans))
    print("stamp " + json.dumps(stamp))
    print(
        f"requests sent={runner.attempted}; untraced latency samples={samples}"
        f" over {len(requests)} requests; setup reps={len(setup_spans)}"
    )
    loop_ms = sorted(1000 * loop_s for _start, _end, loop_s in pace.marks)
    print(
        f"reference loop over {len(loop_ms)} marks: min {loop_ms[0]:.3f} median"
        f" {statistics.median(loop_ms):.3f} max {loop_ms[-1]:.3f} ms (paced at {1000 * NOMINAL_LOOP_S:g} ms)"
    )
    if not args.trace:
        raw = runner.raw_latencies()
        print(f"  unpaced: wall_s {sum(raw):.6f} s, op_p50_ms {1000 * percentile(raw, 0.5):.6f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    print(
        f"fail_ratio {runner.failed / runner.attempted:.4f} ({runner.failed} of {runner.attempted})"
        + "".join(f"  {kind}={n}" for kind, n in sorted(runner.failures.items()))
    )
    if args.trace:
        print("realize_ideal.construct_self_s is an outside-in estimate of block construction")
        for layers, moves in tr.MOVES.items():
            print(f"  expected to move: {layers} -> {moves}")
    for line in runner.wrong[:10]:
        print("WRONG " + line)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        extra = {"stamp": stamp, "setup_spans": setup_spans, "request_spans": runner.spans,
                 "reference_marks": pace.marks}
        json.dump({**result, **extra, "failures": dict(runner.failures), "wrong": runner.wrong}, fh, indent=1)
    if args.trace:
        runner.tracer.dump(f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
