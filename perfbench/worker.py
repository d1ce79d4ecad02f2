"""One pass of a workload in a fresh interpreter, so every cache starts cold.

Run by ``run.py``; prints one JSON object on the last line of stdout::

    python3 perfbench/worker.py --workload poly_sweep --seed 0 --trace 0

Exit code 3 means the divided-difference self-check is switched off, which
no measured pass may skip.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

import workloads
from tracing import NullTracer, Tracer


# How often the host's speed is sampled between operations, by calibration
# kind: a loop sample takes about 3 ms, a launch sample about 70 ms.
CALIBRATE_EVERY_S = {"loop": 0.25, "launch": 0.5}


def calibration_loop() -> int:
    """A fixed piece of interpreter work: tuple, dict, int and str operations,
    the kind the engine spends its time on."""
    table: dict = {}
    total = 0
    for i in range(2000):
        key = (i, i * 7 % 13)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


def time_loop() -> float:
    """Best of three runs of :func:`calibration_loop`, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        calibration_loop()
        best = min(best, perf_counter() - start)
    return best


def time_launch(code: str = "pass") -> float:
    """Wall time of a fresh interpreter running ``code``, in seconds."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    return perf_counter() - start


class HostClock:
    """Runs between operations: samples how fast the host runs and times
    launches of a fresh interpreter running ``import invschub``.

    Operations that run in this process are calibrated by :func:`time_loop`;
    operations that start a process, by :func:`time_launch` of a bare
    interpreter, whose cost is made of the same kernel and start-up work.
    A sample is taken before the first operation, then at most once every
    CALIBRATE_EVERY_S, and after the last one (:meth:`finish`), so each
    operation is bracketed by the last sample before it and the first one
    after it.  An ``import invschub`` launch comes before the first
    operation and then at most once every ``setup_every`` seconds, so that
    the launches spread over the run; each is bracketed by bare launches.
    """

    def __init__(self, setup_every: float, launches: bool):
        self.setup_every = setup_every
        self.kind = "launch" if launches else "loop"
        self._probe = time_launch if launches else time_loop
        self.samples: list[float] = []
        self.marks: list[int] = []  # per operation: its last sample before
        self.setup: list[list[float]] = []  # [import launch, mean bare launch around it]
        self._sampled = self._launched = None

    def sample(self) -> None:
        self.samples.append(self._probe())
        self._sampled = perf_counter()

    def __call__(self) -> None:
        if self._launched is None or perf_counter() - self._launched >= self.setup_every:
            before = time_launch()
            launch = time_launch("import invschub")
            self.setup.append([launch, (before + time_launch()) / 2])
            self._launched = perf_counter()
        if self._sampled is None or perf_counter() - self._sampled >= CALIBRATE_EVERY_S[self.kind]:
            self.sample()
        self.marks.append(len(self.samples) - 1)

    def finish(self) -> list[float]:
        """Take the closing sample; return each operation's calibration
        time, the mean of the two samples that bracket it."""
        self.sample()
        return [(self.samples[m] + self.samples[m + 1]) / 2 for m in self.marks]


def run_ops(ops, session, latencies, errors, lines=None, between=None) -> int:
    """Run ``ops`` in order, closed loop; return how many failed.

    ``latencies`` gets one entry per operation, in order: its wall time, or
    None when it raised.  ``between`` is called before each operation,
    outside its timing.
    """
    traced = isinstance(session.tracer, Tracer)
    failed = 0
    for index, op in enumerate(ops):
        if between is not None:
            between()
        session.tracer.op = "%s#%d" % (op.kind, index)
        start = perf_counter()
        try:
            if traced:
                result, text = session.call("op." + op.kind, op.run, session)
            else:
                result, text = op.run(session)
            latency = perf_counter() - start
            error = op.check(result, session)
        except Exception:
            error, text, latency = traceback.format_exc(limit=3), "!exception", None
        latencies.append(latency)
        if lines is not None:
            lines.append(workloads.output_line(op, text))
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append("%s: %s" % (op.key, error))
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file the spans are written to")
    parser.add_argument("--setup-every", type=float, default=0.0,
                        help="seconds between timed 'import invschub' launches; 0 times "
                             "neither these nor the host's speed")
    args = parser.parse_args()

    if importlib.import_module("invschub.polynomials").CHECK_DIVIDED_DIFFERENCE is not True:
        print(
            "error: invschub.polynomials.CHECK_DIVIDED_DIFFERENCE is not True; "
            "the divided-difference self-check may not be skipped",
            file=sys.stderr,
        )
        return 3

    # One CPU for the pass and every process it starts, so that the host
    # speed samples come from the CPU that runs the timed work.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.build(args.workload, args.seed, bool(args.toy))
    tracer = Tracer() if args.trace else NullTracer()
    # Started before any timing; traced passes need it for the layer probe.
    starts_processes = any(op.kind == "cli" for op in workload.ops)
    needs_launcher = args.trace or starts_processes
    session = workloads.Session(tracer, workloads.Launcher() if needs_launcher else None)
    latencies: list[float] = []
    errors: list[str] = []
    lines: list[str] = []
    kinds: dict[str, int] = {}
    for op in workload.ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    clock = HostClock(args.setup_every, starts_processes) if args.setup_every > 0 else None
    try:
        failed = run_ops(workload.ops, session, latencies, errors, lines, clock)
        speeds = clock.finish() if clock is not None else []
        attempted = len(workload.ops)
        if args.trace:
            probes = workload.probes + workloads.layer_probe()
            failed += run_ops(probes, session, [], errors)
            attempted += len(probes)
    finally:
        child_rss_kb = session.close()
    result = {
        "attempted": attempted,
        "failed": failed,
        "latencies": latencies,
        "speeds": speeds,
        "calibration": clock.kind if clock is not None else None,
        "setup": clock.setup if clock is not None else [],
        "digest": workloads.digest(lines),
        "kinds": dict(sorted(kinds.items())),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_rss_kb": child_rss_kb,
        "counters": dict(session.counters),
        "errors": errors,
    }
    if args.trace:
        result["layers"] = tracer.totals()
        result["spans"] = len(tracer.spans)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
