"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

They run shortened benchmark runs (one repetition each) of every workload,
so the whole file takes a few minutes.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(monkeypatch, *args) -> dict:
    """One shortened run.py invocation; its parsed last stdout line."""
    monkeypatch.setattr(run, "MIN_REPS", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--seconds", "0", *args])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(monkeypatch,
                                                        workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(monkeypatch, "--workload", workload,
                       "--trace", str(trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == declared
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_wrong_expected_value_fails_the_run(monkeypatch, tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    outputs = expected["netfpga_reorder"]["0"]
    outputs["gro_segments"] += 1
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", wrong)
    result = bench(monkeypatch, "--workload", "netfpga_reorder")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_outputs_are_compared_per_cell_seed():
    expected = json.loads(run.EXPECTED.read_text())["netfpga_reorder"]

    def rep(seed, outputs):
        return run.Repetition(seed, {"outputs": dict(outputs)}, None)

    reps = [rep(0, expected["0"]), rep(1, expected["1"]),
            rep(1, expected["1"]), rep(2, expected["1"])]
    unrecorded = [rep(1000, expected["1"]), rep(1000, expected["2"])]
    run.check(reps + unrecorded, expected)
    assert [r.ok for r in reps + unrecorded] == [True, True, True, False,
                                                 True, False]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_outputs_are_equal(workload):
    # Seed 1 is not any experiment's default seed.
    plain = run.run_child(workload, 1, traced=False)
    traced = run.run_child(workload, 1, traced=True)
    assert plain.ok and traced.ok
    assert plain.result["outputs"] == traced.result["outputs"]
    assert traced.result["missing"] == {}


def test_missing_entry_point_drops_only_that_layers_span_metrics():
    # Installing spans patches classes process-wide: do it in a child.
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import json, spans\n"
        "spans.BOUNDARIES += (('repro.fabric.host', 'Host', 'gone', 'nic'),"
        " ('repro.nowhere', 'Gone', 'receive', 'core'))\n"
        "r = spans.SpanRecorder(); r.install()\n"
        "print(json.dumps(r.missing))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE.parent,
                          capture_output=True, text=True, check=True)
    missing = json.loads(proc.stdout)
    assert missing == {"nic": ["Host.gone"], "core": ["Gone.receive"]}

    traced = run.run_child("netfpga_reorder", 0, traced=True).result
    traced["missing"] = missing
    metrics = run.layer_metrics(traced, traced["loop_s"])
    assert "nic.self_share" not in metrics
    assert "core.self_share" not in metrics
    assert "core.self_ns_per_pkt" not in metrics
    assert "tcp.self_share" in metrics and "core.batching" in metrics


def test_self_times_must_sum_to_the_loop_time():
    traced = run.run_child("netfpga_reorder", 0, traced=True).result
    run.layer_metrics(traced, traced["loop_s"])
    traced["loop_wall_s"] *= 1.05
    with pytest.raises(ValueError, match="self times sum"):
        run.layer_metrics(traced, traced["loop_s"])


def test_exits_without_result_when_sources_are_missing(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    (bench_dir / "expected.json").write_text(run.EXPECTED.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "netfpga_reorder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
