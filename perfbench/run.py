"""Benchmark of the invschub engine, measured from outside the package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload poly_sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --smoke                 # toy sizes, checks every metric is printed

The workloads and their metrics are declared in ``BENCHMARK.json`` at the
root of the checkout; the package is run from ``src/``, which must exist.

Each pass of a workload runs in a fresh interpreter (``worker.py``), so
every cache starts cold, and each pass is one closed-loop client that
sends the next operation when the last one is done.  A run makes whole
passes, one at a time, for about ``--seconds`` and at least
``MIN_PASSES`` of them.

Timings are scaled to a reference host speed.  The shared host this
benchmark was tuned on (2 vCPUs of an Intel Xeon) runs the same code up to
twice as fast at some times as at others, in phases of seconds to minutes,
so raw wall times of two sets of runs can differ by more than any change
worth measuring.  Between operations each pass therefore times a fixed
piece of work next to them (``worker.HostClock``): a loop of interpreter
work for operations that run in the worker, the launch of a bare
interpreter for operations that start a process and for the set-up
launches.  Every timing is multiplied by the reference time of its
calibration (``REFERENCE_S``) over the calibration time measured around
it: the figure is the time the operation would take on a host where the
calibration takes its typical time on the tuning host.  Each pass and the
processes it starts run on one CPU, so that the calibration samples the
CPU that runs the timed work.  The raw figures are in the report line.

Every pass of a run runs the same operations, so each operation is timed
once per pass; its latency is the median of its scaled times, and the
latency percentiles and throughput are taken over these.  ``setup_s`` is
the median scaled time of the launches of a fresh interpreter running
``import invschub`` that the passes make between operations, about once
every ``SETUP_EVERY_S``, so that they spread over the whole run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones; the ratio of their time per operation is the tracing overhead.  The
spans of each traced pass are written under ``.bench_out/spans/``.

Every operation's output is checked; a failed check, exception or non-zero
exit is a failure.  For the default seed the digest of all outputs must
also equal the one in ``digests.json``, recorded from a pass of the
unmodified engine, so that a changed answer counts as a failure.

The second-to-last line of stdout is a JSON report (environment, op
counts, ``fail_ratio``, the tail percentile and its sample count); the
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
# Untraced passes per run: each operation's latency is the median of these.
MIN_PASSES = 2
SETUP_EVERY_S = 2.0
# Typical calibration times on the host the benchmark was tuned on:
# worker.time_loop and worker.time_launch.  Timings are scaled to a host
# where the calibrations take these times.
REFERENCE_S = {"loop": 0.85e-3, "launch": 0.07}
# No pass starts after WALL_LIMIT_S and none runs past RUN_LIMIT_S, so a
# run ends within 180 s.
WALL_LIMIT_S = 120.0
RUN_LIMIT_S = 150.0
# Percentiles in tenths of a percent, so the arithmetic is exact.
TAIL_LADDER = (999, 990, 900, 750, 500)

SPAN_NAMES = (
    "schubert.schubert",
    "involutions.inv_schubert",
    "mu_involutions.mu_inv_schubert",
    "polynomials.divided_difference",
    "polynomials.render",
    "schubert.expand_in_schubert_basis",
    "involutions.atoms",
    "involutions.relative_atoms",
    "mu_involutions.atoms_mu_top",
    "verify.verify_brion_general",
    "verify.verify_involution_identity",
    "verify.verify_mu_identity",
    "involutions.weak_order_graph",
    "mu_involutions.mu_weak_order_graph",
    "involutions.WeakOrderGraph.to_json",
    "involutions.WeakOrderGraph.to_dot",
)
COUNTER_NAMES = (
    "polynomials.terms_max",
    "polynomials.terms_total",
    "involutions.chain_steps",
    "involutions.atoms.found",
    "involutions.weak_order_graph.vertices",
    "involutions.weak_order_graph.edges",
    "mu_involutions.mu_weak_order_graph.vertices",
    "mu_involutions.mu_weak_order_graph.edges",
    "verify.reports",
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def declared_metrics() -> tuple[list, list, list]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    return workloads, spec["end_to_end"], spec["per_layer"]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def check_engine(env: dict) -> None:
    """Import invschub once in a fresh interpreter, which writes the
    bytecode caches, and refuse to go on when the divided-difference
    self-check is switched off."""
    gate = (
        "import importlib, sys; sys.exit(0 if importlib.import_module("
        "'invschub.polynomials').CHECK_DIVIDED_DIFFERENCE is True else 3)"
    )
    proc = subprocess.run([sys.executable, "-c", gate], env=env, cwd=ROOT,
                          capture_output=True, timeout=60)
    if proc.returncode == 3:
        raise BenchmarkError(
            "invschub.polynomials.CHECK_DIVIDED_DIFFERENCE is not True; "
            "the divided-difference self-check may not be skipped"
        )
    if proc.returncode != 0:
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        raise BenchmarkError("cannot import invschub: %s" % (lines[-1] if lines else proc.returncode))


def run_pass(env, workload, seed, traced, toy, index, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--toy", str(int(toy))]
    if traced:
        cmd += ["--spans", str(ROOT / ".bench_out" / "spans" / (
            "%s-seed%d-pass%d.jsonl" % (workload, seed, index)))]
    else:
        cmd += ["--setup-every", str(SETUP_EVERY_S)]
    # A session of its own, so that a pass that runs out of time is stopped
    # together with the processes it started.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"broken": "pass %d timed out" % index}
    if proc.returncode == 3:
        raise BenchmarkError(err.decode().strip())
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return {"broken": "pass %d exited %d: %s" % (index, proc.returncode, " | ".join(tail))}
    return json.loads(lines[-1])


def run_workload(env, workload, seed, seconds, trace, toy) -> list:
    """The whole passes of one run, as (traced, result) pairs.

    Passes go on while another one would end the run nearer to ``seconds``
    than stopping does, and until MIN_PASSES untraced passes were made.
    Traced runs alternate untraced and traced passes, at least one of each.
    Only whole passes are kept: a pass cut short would time a different mix.
    """
    start = perf_counter()
    passes = []
    while True:
        elapsed = perf_counter() - start
        if passes:
            if toy and len(passes) >= 1 + trace or elapsed >= WALL_LIMIT_S or "broken" in passes[-1][1]:
                break
            enough = len(passes) >= 2 if trace else len(passes) >= MIN_PASSES
            if enough and elapsed + elapsed / len(passes) / 2 >= seconds:
                break
        traced = trace and len(passes) % 2 == 1
        timeout = max(5.0, RUN_LIMIT_S - (perf_counter() - start))
        passes.append((traced, run_pass(env, workload, seed, traced, toy, len(passes), timeout)))
    return passes


def tail(latencies: list[float], guaranteed: int) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it in
    a sample of ``guaranteed`` values (one per operation of a pass), and its
    value over ``latencies``.  Choosing it from the guaranteed count, not
    the actual one, which failed operations shorten, keeps the percentile
    the same from run to run."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        if guaranteed - -(-guaranteed * p // 1000) >= 10:
            return p / 10, ordered[-(-n * p // 1000) - 1]
    return 100.0, ordered[-1]


def scaled(seconds: float, calibration_s: float, kind: str) -> float:
    """A timing scaled to the reference host speed (see the module doc)."""
    return seconds * REFERENCE_S[kind] / calibration_s


def op_latencies(results) -> tuple[list[float], list[float]]:
    """Each operation's median time over the passes, scaled and raw; an
    operation that raised in any pass is left out (it is counted as failed)."""
    kind = results[0]["calibration"]
    scaled_ops, raw_ops = [], []
    for times in zip(*(zip(p["latencies"], p["speeds"]) for p in results)):
        if all(raw is not None for raw, _speed in times):
            scaled_ops.append(statistics.median(scaled(raw, speed, kind) for raw, speed in times))
            raw_ops.append(statistics.median(raw for raw, _speed in times))
    return scaled_ops, raw_ops


def end_to_end(workload, passes) -> tuple[dict, dict]:
    results = [p for _t, p in passes]
    if len({len(p["latencies"]) for p in results}) != 1:
        raise BenchmarkError("the passes of one run ran different operations")
    latencies, raw = op_latencies(results)
    setup = [launch for p in results for launch in p["setup"]]
    rss_key = "child_rss_kb" if workload == "cli_queries" else "rss_kb"
    percentile, tail_s = tail(latencies, len(results[0]["latencies"]))
    metrics = {
        "setup_s": (statistics.median(scaled(*launch, "launch") for launch in setup), "s"),
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(p[rss_key] for p in results) / 1024, "MB"),
    }
    details = {
        "latency_tail_percentile": percentile,
        "latency_samples": len(latencies),
        "timings_per_op": len(results),
        "setup_launches": len(setup),
        "calibration": results[0]["calibration"],
        "calibration_s_median": statistics.median(s for p in results for s in p["speeds"]),
        "setup_calibration_s_median": statistics.median(bare for _raw, bare in setup),
        "raw": {
            "setup_s": statistics.median(raw_s for raw_s, _speed in setup),
            "throughput_ops_s": len(raw) / sum(raw),
            "latency_p50_s": statistics.median(raw),
            "latency_tail_s": tail(raw, len(results[0]["latencies"]))[1],
        },
    }
    return metrics, details


def per_layer(passes) -> tuple[dict, dict]:
    untraced = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]
    k = len(traced)

    def time_of(name):
        return sum(p["layers"].get(name, {}).get("self_s", 0.0) for p in traced) / k

    first = traced[0]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[name + ".calls"] = (first["layers"].get(name, {}).get("calls", 0), "count")
        metrics[name + ".self_s"] = (time_of(name), "s")
    counters = first["counters"]
    for name in COUNTER_NAMES:
        metrics[name] = (counters.get(name, 0), "count")
    terms_in = counters.get("polynomials.divided_difference.terms_in", 0)
    metrics["polynomials.divided_difference.us_per_term"] = (
        1e6 * time_of("polynomials.divided_difference") / terms_in, "us")
    metrics["involutions.atoms.us_per_atom"] = (
        1e6 * time_of("involutions.atoms") / counters["involutions.atoms.found"], "us")
    process_s, main_s = time_of("cli.process"), time_of("cli.main")
    metrics["cli.queries"] = (first["layers"]["cli.process"]["calls"], "count")
    metrics["cli.process_s"] = (process_s, "s")
    metrics["cli.main_s"] = (main_s, "s")
    metrics["cli.parse_s"] = (time_of("cli.parse"), "s")
    metrics["cli.startup_s"] = (process_s - main_s, "s")
    metrics["cli.stdout_bytes"] = (counters["cli.stdout_bytes"], "B")
    metrics["trace.spans"] = (first["spans"], "count")

    def per_op(results):
        times = [x for p in results for x in p["latencies"] if x is not None]
        return sum(times) / len(times)

    metrics["trace.overhead_ratio"] = (per_op(traced) / per_op(untraced), "ratio")
    # Counts come from one traced pass; every traced pass must agree.
    repeat = all(
        p["counters"] == first["counters"] and p["spans"] == first["spans"] for p in traced
    )
    return metrics, {"traced_passes": k, "counts_repeat": repeat}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30)
        commit = proc.stdout.decode().strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "invschub").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def measure(workload, seed, seconds, trace, toy, env, declared) -> tuple[dict, dict]:
    """One workload: returns (result line, report line)."""
    passes = run_workload(env, workload, seed, seconds, trace, toy)
    errors = [p["broken"] for _t, p in passes if "broken" in p]
    failed = len(errors)
    attempted = len(errors)
    passes = [(t, p) for t, p in passes if "broken" not in p]
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    for _t, p in passes:
        attempted += p["attempted"]
        failed += p["failed"]
        errors += p["errors"]
        if seed == DEFAULT_SEED and not toy and p["digest"] != digests[workload]:
            # A changed answer: every operation of the pass counts as failed.
            failed += p["attempted"] - p["failed"]
            errors.append("output digest differs from the one recorded in digests.json")
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "passes": len(passes),
        "ops_per_pass": passes[0][1]["kinds"] if passes else {},
        "fail_ratio": {"value": failed / max(attempted, 1), "unit": "ratio"},
        "errors": errors[:10],
    }
    metrics, details = {}, {}
    if trace and any(t for t, _p in passes):
        metrics, details = per_layer(passes)
    elif not trace and passes:
        metrics, details = end_to_end(workload, [(t, p) for t, p in passes if not t])
    report.update(details)
    correct = failed == 0 and bool(metrics) and details.get("counts_repeat", True)
    names = [m["name"] for m in declared]
    missing = [name for name in names if name not in metrics]
    if missing and correct:
        raise BenchmarkError("metrics not computed: %s" % ", ".join(missing))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names if name in metrics
        },
    }
    return result, report


def smoke(env) -> int:
    """Every workload at toy size, both modes; every declared metric must be
    printed with its declared unit, and every operation must pass."""
    workloads, e2e, layers = declared_metrics()
    check_engine(env)
    problems = []
    for workload in workloads:
        for trace, declared in ((False, e2e), (True, layers)):
            result, report = measure(workload, 1, 0, trace, True, env, declared)
            print(json.dumps(report))
            print(json.dumps(result))
            got = result["metrics"]
            for metric in declared:
                entry = got.get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    problems.append("%s trace=%d: %s missing or wrong unit" % (workload, trace, metric["name"]))
                elif not isinstance(entry["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (workload, metric["name"]))
            if report.get("fail_ratio", {}).get("unit") != "ratio":
                problems.append("%s: fail_ratio not reported" % workload)
            if not result["correct"]:
                problems.append("%s trace=%d: not correct: %s" % (workload, trace, report["errors"]))
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the invschub engine.")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes; check every metric is printed")
    args = parser.parse_args()

    if not (ROOT / "src" / "invschub" / "__init__.py").is_file():
        print("error: no invschub sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.smoke:
            return smoke(env)
        workloads, e2e, layers = declared_metrics()
        chosen = workloads if args.workload == "all" else [args.workload]
        if any(w not in workloads for w in chosen):
            print("error: unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads)),
                  file=sys.stderr)
            return 2
        check_engine(env)
        declared = layers if args.trace else e2e
        results = []
        for workload in chosen:
            result, report = measure(workload, args.seed, args.seconds, bool(args.trace), False,
                                     env, declared)
            print(json.dumps(report))
            results.append((workload, result))
    except BenchmarkError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _w, r in results),
            "attempted": sum(r["attempted"] for _w, r in results),
            "failed": sum(r["failed"] for _w, r in results),
            "metrics": {
                "%s.%s" % (w, name): entry for w, r in results for name, entry in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
