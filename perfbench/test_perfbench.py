"""The benchmark's own tests, on its smoke item sets.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ruthvb import ruth, svb  # noqa: E402
from ruthvb.exactla import RatMat  # noqa: E402

from perfbench import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, cwd=ROOT, check=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    if cwd != ROOT:
        cmd[1] = os.path.join(cwd, "perfbench", "run.py")
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_registry():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result(workload):
    info, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["seed"] == 3 and info["python"] and info["nproc"] >= 1
    assert info["controls"] and info["failed_frac"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    runs = [bench(workload, 1)[1] for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    exact = [k for k, unit in want.items() if unit in ("count", "bytes") or k.endswith("_ratio")]
    assert [runs[0]["metrics"][k] for k in exact] == [runs[1]["metrics"][k] for k in exact]


def test_inputs_follow_the_seed():
    a = [i.label for i in workloads.setup_split(5, "", True)]
    assert a == [i.label for i in workloads.setup_split(5, "", True)]
    R1, R2, R3 = (workloads._towers([("pair(2)", 1, 1)], random.Random(seed))[0][1]
                  for seed in (5, 5, 6))
    assert R1.ops.keys() == R2.ops.keys()
    assert all(R1.ops[k] == R2.ops[k] for k in R1.ops)
    assert any(R1.ops[k] != R3.ops.get(k) for k in R1.ops)


def _control(items):
    (item,) = [i for i in items if i.control]
    return item


class _AlwaysOk:
    ok = True
    violations: list = []


def test_controls_catch_a_checker_that_stops_deciding(monkeypatch):
    ctx = workloads.PassContext()
    verify = _control(workloads.setup_verify(1, "", True))
    split = _control(workloads.setup_split(1, "", True))
    dk = _control(workloads.setup_doldkan(1, "", True))
    assert verify.run(ctx) and split.run(ctx) and dk.run(ctx)
    monkeypatch.setattr(ruth, "check_rh2", lambda R, m_cap=None: _AlwaysOk())
    monkeypatch.setattr(svb, "check_weakly_flat_morphism", lambda *a, **k: [])
    monkeypatch.setattr(RatMat, "__eq__", lambda self, other: True)
    assert not verify.run(ctx)
    assert not split.run(ctx)
    assert not dk.run(ctx)


def test_cli_control_needs_the_failing_exit():
    work = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    workloads.reset_dir(work)
    try:
        items = workloads.setup_cli(1, work, True)
        control = _control(items)
        ctx = workloads.PassContext()
        assert control.run(ctx)
        shutil.copy(os.path.join(work, "item0", "tower.json"), os.path.join(work, "control"))
        assert not control.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_to_run_without_the_library():
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("verify", 0, cwd=bare, check=False)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
