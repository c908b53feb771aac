"""Tests of the benchmark harness: tiny runs of every workload, the output
checkers against doctored reports, and the span arithmetic."""

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from run import tail  # noqa: E402
from spans import Recorder, SpanTable  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], result


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    table, result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                   "--trace", trace, "--tiny"))
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in table), m["name"]
    assert any('"provenance"' in line for line in table)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "roll", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _run_first(tmp_path, workload, pick=lambda op: True):
    from rollsym.cli import main

    wl = build(workload, 5, 1, tmp_path, tiny=True)
    op = next(op for op in wl.ops() if pick(op))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(op.argv) == op.expect
    assert check(op)[0], check(op)[1]
    return op


def test_checker_rejects_edited_growth_rank(tmp_path):
    op = _run_first(tmp_path, "growth", lambda op: op.params["n"] == 2)
    report = json.loads(op.out.read_text())
    report["flag"]["ranks"][-1] -= 1
    op.out.write_text(json.dumps(report))
    assert check(op)[0] is False


def test_checker_rejects_trajectory_with_large_residual(tmp_path):
    op = _run_first(tmp_path, "roll", lambda op: op.params["closed_form"])
    rows = list(csv.reader(op.out.open()))
    rows[len(rows) // 2][-1] = "1e-3"
    with op.out.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert check(op)[0] is False


def test_checker_rejects_development_off_the_closed_form(tmp_path):
    op = _run_first(tmp_path, "roll", lambda op: op.params["closed_form"])
    rows = list(csv.reader(op.out.open()))
    col = rows[0].index("xhat0")
    rows[-1][col] = repr(float(rows[-1][col]) + 1e-5)
    with op.out.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert check(op)[0] is False


def test_checker_rejects_failed_nilpotent_verification(tmp_path):
    op = _run_first(tmp_path, "nilpotent")
    report = json.loads(op.out.read_text())
    report["verification"]["ok"] = False
    op.out.write_text(json.dumps(report))
    assert check(op)[0] is False


def test_checker_rejects_unrejected_perturbation(tmp_path):
    op = _run_first(tmp_path, "audit", lambda op: op.params["perturbed"])
    report = json.loads(op.out.read_text())
    for block in report["residuals"].values():
        block["max"] = 1e-9
    op.out.write_text(json.dumps(report))
    assert check(op)[0] is False


def test_missing_report_fails(tmp_path):
    op = build("nilpotent", 1, 1, tmp_path, tiny=True).ops()[0]
    assert check(op) == (False, "report missing", {})


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert tail([float(k) for k in range(1, 41)]) == (30.0, 75.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_is_span_time_minus_child_spans():
    rec = Recorder()
    child = rec._name_id("child")

    def op():
        rec.call(child, sum, range(1000))
        rec.call(child, sum, range(1000))

    rec.run_op(0, op)
    table = SpanTable(rec, [0])
    assert table.calls("child") == 2
    assert table.calls("child", parent="cli.main") == 2
    total = table.total_s("cli.main")
    assert table.self_s("cli.main") == pytest.approx(total - table.total_s("child"), abs=1e-12)
