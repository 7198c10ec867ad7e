"""Self-tests of the benchmark: python3 -m pytest perfbench

They run the harness at a tiny size, so they check what it reports and
checks, not how fast anything is.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_STREAM = 6


def tiny_run(workload, *, trace=False):
    return harness.run_workload(workload, seed=1, seconds=0.0, trace=trace, stream_size=TINY_STREAM)


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric_and_passes_its_checks(name):
    result, recorder = tiny_run(WORKLOADS[name])
    assert recorder is None
    assert result.failures == []
    assert {k: unit for k, (_, unit) in result.metrics.items()} == declared("end_to_end")
    assert all(value > 0 for value, _ in result.metrics.values())


def test_workloads_match_the_declared_ones():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def traced():
    return tiny_run(WORKLOADS["readme-fixed1"], trace=True)


def test_traced_run_emits_every_per_layer_metric(traced):
    result, _ = traced
    assert result.failures == []
    assert {k: unit for k, (_, unit) in result.metrics.items()} == declared("per_layer")


def test_traced_counts_agree_with_the_engine_accounting(traced):
    metrics = {k: v for k, (v, _) in traced[0].metrics.items()}
    baseline, nfe, accepted = metrics["engine.baseline_nfe"], metrics["engine.nfe"], metrics["engine.acceptances"]
    # one batched call per NFE, vanilla and speculative; one advance per step taken
    assert metrics["model.forward_batched.calls"] == baseline + nfe
    assert metrics["verification.advance.calls"] == baseline + nfe + accepted
    assert metrics["drafting.drafts_scored"] >= accepted > 0


def test_every_wrapped_function_records_spans(traced):
    _, recorder = traced
    seen = {s.name for s in recorder.finished()}
    assert seen == {name for _, _, name, _ in spans.WRAP_TARGETS}


def test_wrappers_are_removed_after_the_run(traced):
    for module, attr, _, _ in spans.WRAP_TARGETS:
        assert not hasattr(getattr(module, attr), "__wrapped__"), (module.__name__, attr)


def test_child_spans_lie_within_their_parent(traced):
    _, recorder = traced
    finished = recorder.finished()
    by_id = {s.id: s for s in finished}
    assert len(by_id) == len(recorder.spans)  # every span was closed
    for s in finished:
        assert s.start_ns <= s.end_ns
        if s.parent >= 0:
            parent = by_id[s.parent]
            assert parent.start_ns <= s.start_ns and s.end_ns <= parent.end_ns
            assert (parent.phase, parent.op) == (s.phase, s.op)


def test_self_times_sum_to_the_traced_decode_wall_time(traced):
    _, recorder = traced
    finished = recorder.finished()
    selfs = spans.self_times(finished)
    decode = [s for s in finished if s.phase == "decode"]
    roots = [s for s in decode if s.parent < 0]
    assert {s.name for s in roots} == {"engine.generate_vanilla", "engine.generate_speculative"}
    assert all(selfs[s.id] >= 0 for s in decode)
    assert sum(selfs[s.id] for s in decode) == sum(s.duration_ns for s in roots)
    result, _ = traced
    shares = sum(v for k, (v, _) in result.metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0)


def test_spans_round_trip_through_jsonl(traced, tmp_path):
    _, recorder = traced
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [spans.Span(*row) for row in rows] == recorder.finished()


def with_pins(name, **changes):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, pins=dataclasses.replace(workload.pins, **changes))


@pytest.mark.parametrize(
    "changes",
    [
        {"tokens_sha256": "0" * 64},
        {"nfe": 279},
        {"acceptances": 361},
        {"records": 2064},
        {"graph": WORKLOADS["readme-fixed1"].pins.graph.replace("4:2", "4:3", 1)},
    ],
    ids=lambda c: next(iter(c)),
)
def test_gate_fires_when_a_pin_is_altered(changes):
    result, _ = tiny_run(with_pins("readme-fixed1", **changes))
    assert result.failures


def test_altered_pin_makes_the_benchmark_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "readme-fixed1", with_pins("readme-fixed1", baseline_nfe=641))
    monkeypatch.setattr(harness, "STREAM_SIZE", TINY_STREAM)
    code = run.main(["--workload", "readme-fixed1", "--seed", "1", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1 and last["attempted"] > last["failed"]


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme-fixed1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "blockspec not found" in proc.stderr
