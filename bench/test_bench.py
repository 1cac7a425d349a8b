"""Tests of the benchmark itself: run with `python3 -m pytest bench`."""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import harness
import run_bench
import spans
import workloads
from drsim import cli

SMALL_CALLS = [
    workloads.run_call("dr", 3, "node_count=30", "max_rounds=40"),
    workloads.run_call("leach-c", 3, "node_count=30", "max_rounds=40"),
    workloads.compare_call(5, 2, "node_count=12", "max_rounds=80"),
]


def bindings() -> dict:
    """Every attribute of every traced module and class, and every entry of
    the dicts the tracer patches, by identity."""
    seen = {}
    for owner, _, _ in spans.targets():
        items = owner.items() if isinstance(owner, dict) else vars(owner).items()
        seen.update({(id(owner), key): value for key, value in items})
    return seen


def test_tracer_restores_every_attribute(tmp_path):
    before = bindings()
    for timed in (True, False):
        with spans.Tracer(timed=timed) as tracer:
            assert bindings() != before
            harness.run_rep(SMALL_CALLS[:1], str(tmp_path), None, tracer)
        assert bindings() == before
    with pytest.raises(RuntimeError):
        with spans.Tracer(timed=True):
            raise RuntimeError("inside a traced run")
    assert bindings() == before


def test_two_traced_runs_give_identical_counts(tmp_path):
    counts = []
    for _ in range(2):
        with spans.Tracer(timed=False) as tracer:
            rep = harness.run_rep(SMALL_CALLS, str(tmp_path), None)
        assert not rep.failed, rep.problems
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    for name in ("cli.main", "sim.run", "sim.run_round", "radio.tx_energy",
                 "geometry.Point.distance_to", "geometry.locate",
                 "protocols.dr_select_chs", "cli.cmd_compare"):
        assert counts[0][name] > 0, name
    with spans.Tracer(timed=True) as timed:
        harness.run_rep(SMALL_CALLS, str(tmp_path), None, timed)
    shared = {k: v for k, v in timed.counts().items() if k in counts[0]}
    assert shared == {k: counts[0][k] for k in shared}
    assert not spans.HOT & {k for k, v in timed.counts().items() if v}


def test_spans_nest_inside_their_parents(tmp_path):
    with spans.Tracer(timed=True) as tracer:
        harness.run_rep(SMALL_CALLS[:1], str(tmp_path), None, tracer)
    assert tracer.spans and None not in tracer.spans
    for name, start, end, parent in tracer.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1


def test_gate_rejects_one_changed_byte(tmp_path):
    first = harness.run_rep(SMALL_CALLS, str(tmp_path / "a"), None)
    assert not first.failed, first.problems
    again = harness.run_rep(SMALL_CALLS, str(tmp_path / "b"), first.digests)
    assert not again.failed and again.signature() == first.signature()

    for name in ("run-dr/run.csv", "compare/experiment.csv"):
        path = tmp_path / "b" / name
        body = bytearray(path.read_bytes())
        for position in (0, len(body) // 2, len(body) - 1):
            changed = bytearray(body)
            changed[position] ^= 0x01
            path.write_bytes(changed)
            problems = gate.check_digests(gate.digests(str(tmp_path / "b")),
                                          first.digests)
            assert [p for p in problems if name in p[1]], (name, position)
        path.write_bytes(body)


def test_invariants_reject_a_corrupt_run(tmp_path):
    out = tmp_path / "run"
    assert cli.main(SMALL_CALLS[0].argv(str(out))) == 0
    from drsim import config
    cfg = config.parse_config(None, SMALL_CALLS[0].run_overrides()[0])
    assert gate.check_run_files(str(out), cfg) == []
    lines = (out / "run.csv").read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = str(int(fields[1]) + 1)         # alive count goes up
    (out / "run.csv").write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert gate.check_run_files(str(out), cfg)


def test_series_check_and_repeat_check(tmp_path):
    from dataclasses import replace
    from drsim import config, sim
    cfg = config.parse_config(None, ["node_count=12", "max_rounds=5000"])
    series, summary = sim.run(cfg)
    assert series[-1].alive == 0
    assert gate.check_series(cfg, series, summary) == []
    assert gate.check_series(cfg, series[:-1], summary)
    assert gate.check_series(cfg, series, replace(summary, lnd=summary.lnd - 1))

    reps = [harness.run_rep(SMALL_CALLS[:1], str(tmp_path), None) for _ in range(2)]
    run_bench.check_repeat(reps)
    assert not reps[1].failed
    reps[1].records[0].rounds += 1
    run_bench.check_repeat(reps)
    assert reps[1].failed == {("dr", 3)}


def test_all_alive_call_fails_when_a_node_dies_before_the_cap(tmp_path):
    capped = workloads.run_call("dr", 3, "node_count=30", "max_rounds=40",
                                all_alive=True)
    rep = harness.run_rep([capped], str(tmp_path / "capped"), None)
    assert not rep.failed, rep.problems
    to_death = workloads.run_call("dr", 3, "node_count=12", "max_rounds=5000",
                                  all_alive=True)
    rep = harness.run_rep([to_death], str(tmp_path / "to-death"), None)
    assert rep.failed == {("dr", 3)}
    assert "first node death" in rep.problems[0]
    assert all(c.all_alive for c in workloads.calls("dense", 1))


def test_every_workload_has_golden_digests():
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for seed in ("1", "101"):
            assert gate.load_golden(workload, int(seed)), (workload, seed)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run_bench.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
