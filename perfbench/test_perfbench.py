"""Tests of the benchmark itself.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


def test_smoke_prints_every_declared_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert any(set(r.get("metrics", {})) == names for r in results)


def test_wrong_polynomial_counts_as_a_failure():
    w = workloads.perms.Permutation([1, 3, 2])
    good = workloads.poly_op("schubert", w)
    session = workloads.Session(NullTracer())
    assert good.check(workloads.schub.schubert(w), session) is None
    # S_132 = x1 + x2; x1 + x1*x2 has the right trailing term but is not homogeneous.
    wrong = workloads.polys.parse_polynomial("x1 + x1*x2")
    bad = workloads.Op("schubert", good.key, lambda t: (wrong, str(wrong)), good.check)
    errors: list[str] = []
    assert worker.run_ops([good, bad], session, [], errors) == 1
    assert "not homogeneous" in errors[0]


def test_refuses_to_run_without_the_divided_difference_self_check(monkeypatch, capsys):
    monkeypatch.setattr(workloads.polys, "CHECK_DIVIDED_DIFFERENCE", False)
    monkeypatch.setattr(sys, "argv", ["worker.py", "--workload", "poset_build", "--seed", "0"])
    assert worker.main() == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poset_build", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_children_and_ops_follow_the_seed():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(1000)))
    totals = tracer.totals()
    assert totals["outer"]["calls"] == totals["inner"]["calls"] == 1
    outer_span = tracer.spans[0]
    assert totals["outer"]["self_s"] < outer_span[3] - outer_span[2]
    first = workloads.build("poset_build", 3, toy=True)
    second = workloads.build("poset_build", 3, toy=True)
    assert [op.key for op in first.ops] == [op.key for op in second.ops]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)], 100) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)], 1000) == (99.0, 990.0)
    assert run.tail([float(i) for i in range(1, 10001)], 10000) == (99.9, 9990.0)
    assert run.tail([float(i) for i in range(1, 100)], 99) == (75.0, 75.0)
    # More samples than guaranteed keep the percentile.
    assert run.tail([float(i) for i in range(1, 1001)], 100) == (90.0, 900.0)


def test_timings_are_scaled_by_the_calibration_around_them():
    reference = run.REFERENCE_S["loop"]
    passes = [
        # The host ran at half speed around the first operation of this pass.
        {"calibration": "loop", "latencies": [2e-3, 1e-3], "speeds": [2 * reference, reference]},
        # The second operation raised in this pass, so it is left out.
        {"calibration": "loop", "latencies": [1e-3, None], "speeds": [reference, reference]},
    ]
    scaled, raw = run.op_latencies(passes)
    assert len(scaled) == len(raw) == 1
    assert math.isclose(scaled[0], 1e-3) and math.isclose(raw[0], 1.5e-3)


def test_each_operation_gets_the_mean_of_the_samples_around_it(monkeypatch):
    monkeypatch.setattr(worker, "CALIBRATE_EVERY_S", {"loop": 0.0})
    clock = worker.HostClock(setup_every=math.inf, launches=False)
    clock._launched = 0.0  # no set-up launch in this test
    samples = iter([1.0, 3.0, 5.0])
    clock._probe = lambda: next(samples)
    clock()
    clock()
    assert clock.finish() == [2.0, 4.0]
