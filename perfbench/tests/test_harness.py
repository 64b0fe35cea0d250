"""Smoke tests of the benchmark harness.

They check the harness, not rieszlab's speed: seeded inputs, the
tracer's self-time arithmetic, the output checks, the latency tail, and
one short in-process run of each mode with shortened warm-up and repeat
counts.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, svd_flops  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        paths = workloads.write_inputs(seed, str(d))
        return {role: open(p, "rb").read() for role, p in paths.items()}

    first = files(3, "a")
    assert first == files(3, "b")
    assert first["transform"] != files(4, "c")["transform"]


def test_every_declared_workload_has_a_round():
    names = [w["name"] for w in _spec()["workloads"]]
    assert names == list(workloads.WORKLOADS)
    paths = {"transform": "t.csv", "vector": "v.csv", "config": "c.json"}
    for build in workloads.WORKLOADS.values():
        for req in build(0, paths):
            assert "--no-timing" in req.argv and req.verdicts


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        child_w()

    child_w = tracer.wrap(child, "m.child")
    parent_w = tracer.wrap(parent, "m.parent")
    tracer.begin_request()
    parent_w()
    tracer.end_request()
    assert tracer.calls == {"m.child": 1, "m.parent": 1}
    (_, _, c_parent, _, c_start, c_end), (_, p_id, p_parent, _, p_start,
                                          p_end) = tracer.spans
    assert c_parent == p_id and p_parent is None
    assert tracer.self_time["m.child"] == c_end - c_start >= 0.02
    assert tracer.self_time["m.parent"] == pytest.approx(
        (p_end - p_start) - (c_end - c_start))
    assert tracer.self_time["m.parent"] >= 0.01


def test_svd_flops_are_computed_from_shapes():
    assert svd_flops((4, 2), float, False) == 4 * 4 * 4 - 4 / 3 * 8
    assert svd_flops((3, 2, 4), complex, True) == 3 * 4 * (14 * 4 * 4 + 64)


def test_latency_tail_needs_ten_samples_beyond():
    assert run.latency_tail([1.0] * 19) is None
    p, value = run.latency_tail([float(i) for i in range(1, 101)])
    assert (p, value) == (90.0, 90.0)


def test_checker_flags_bad_outputs():
    checker = run.Checker(run.SCHEMA)
    req = workloads.Request(("strictness", "--format", "csv"),
                            ("inconclusive",))
    good = ("section,kind,name,key,value\n"
            "strictness,verdict,trend,verdict,inconclusive\n")
    assert checker.check(req, 0, good, "") is None
    assert checker.check(req, 0, good, "") is None
    assert "differs" in checker.check(req, 0, good + "x\n", "")
    assert "exit status 2" == checker.check(req, 2, "", "")
    assert "error output" in checker.check(req, 0, good, "error: bad\n")
    other = workloads.Request(("strictness", "--format", "csv", "x"),
                              ("strict",))
    assert "pinned" in checker.check(other, 0, good, "")


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_the_declared_metrics(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "WARMUP_S", 0.05)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "COLD_REPEATS", 1)
    assert run.main(["--workload", "cli-small", "--seed", "5",
                     "--seconds", "0.05", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        counts = [line for line in lines
                  if line.startswith("counts[full-report number-op]")]
        assert "riesz.strictness_report_calls=2" in counts[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
