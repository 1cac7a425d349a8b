"""One repetition of a workload: its drsim CLI calls, the `sim.run` probe
that stays on while timing, and the output gate applied to what they
produced. Also the environment record written beside every result."""

from __future__ import annotations

import contextlib
import io
import os
import platform
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import drsim
from drsim import cli, sim

import gate
import speed

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class RunRecord:
    """What one `sim.run` call simulated, and its host CPU time."""
    config: object
    seconds: float
    reference_s: float      # host-speed samples around the run, averaged
    rounds: int
    node_rounds: int        # alive nodes at the start of each round, summed
    ch_total: int           # cluster heads summed over rounds
    summary: object
    problems: list[str]

    @property
    def key(self) -> tuple[str, int]:
        return (self.config.protocol.value, self.config.seed)

    @property
    def normalised_s(self) -> float:
        return speed.normalise(self.seconds, self.reference_s)

    def signature(self) -> tuple:
        s = self.summary
        return (*self.key, self.rounds, self.node_rounds, self.ch_total,
                s.fnd, s.hnd, s.lnd, s.total_packets)


class RunProbe:
    """Wraps `drsim.sim.run` while entered: one timer per run, cheap enough
    to leave on while timing. After the timer stops, the probe checks the
    run's series and takes a host-speed sample (`speed.sample`); the time
    this takes is summed in `bench_s` so callers can take it out of wall
    time, and with a tracer it is a traced call of its own."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records: list[RunRecord] = []
        self.references: list[float] = []
        self.bench_s = 0.0

    def __enter__(self):
        self._original = sim.run
        sim.run = self._run
        self.references.append(speed.sample())
        return self

    def __exit__(self, *exc):
        sim.run = self._original
        return False

    def _run(self, config):
        start = time.process_time()
        series, summary = self._original(config)
        seconds = time.process_time() - start
        if self.tracer is None:
            self._record(config, seconds, series, summary)
        else:
            self.tracer.call("bench.probe", self._record, config, seconds,
                             series, summary)
        self.bench_s += time.process_time() - start - seconds
        return series, summary

    def _record(self, config, seconds, series, summary):
        self.references.append(speed.sample())
        alive_before = [config.node_count] + [m.alive for m in series[:-1]]
        self.records.append(RunRecord(
            config, seconds, (self.references[-2] + self.references[-1]) / 2,
            len(series), sum(alive_before), sum(m.ch_count for m in series),
            summary, gate.check_series(config, series, summary)))


@dataclass
class Rep:
    """One repetition of a workload's calls."""
    wall_s: float = 0.0             # CPU time of the CLI calls, minus the probe's own work
    references: list[float] = field(default_factory=list)
    records: list[RunRecord] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def signature(self) -> tuple:
        return (tuple(r.signature() for r in self.records),
                tuple(self.digests.items()))

    def fail(self, runs, message: str):
        self.failed.update(runs)
        self.problems.append(message)

    def protocol_totals(self, protocol: str, normalised: bool = False) -> tuple[float, int]:
        """(host CPU seconds inside sim.run, simulated rounds) for a protocol."""
        mine = [r for r in self.records if r.key[0] == protocol]
        seconds = sum(r.normalised_s if normalised else r.seconds for r in mine)
        return seconds, sum(r.rounds for r in mine)

    @property
    def normalised_wall_s(self) -> float:
        """Wall time at the reference speed: each run by the samples around
        it, the CLI's own time by the repetition's mean sample."""
        outside = self.wall_s - sum(r.seconds for r in self.records)
        mean_reference = sum(self.references) / len(self.references)
        return (sum(r.normalised_s for r in self.records)
                + speed.normalise(outside, mean_reference))

    @property
    def node_rounds(self) -> int:
        return sum(r.node_rounds for r in self.records)


def run_rep(calls, out_root: str, golden: dict | None, tracer=None) -> Rep:
    """Run every call through `cli.main`, then check what it simulated and
    wrote. `golden`, when given, maps '<call.out>/<file>' to sha256."""
    rep = Rep()
    with RunProbe(tracer) as probe:
        for call in calls:
            out_dir = os.path.join(out_root, call.out)
            first = len(probe.records)
            rep.attempted += len(call.runs)
            start = time.process_time()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(call.argv(out_dir))
            except Exception:
                status = traceback.format_exc().strip().splitlines()[-1]
            rep.wall_s += time.process_time() - start
            records = probe.records[first:]
            rep.records += records
            _check_call(rep, call, out_dir, status, records, golden)
    rep.wall_s -= probe.bench_s
    rep.references = probe.references
    return rep


def _check_call(rep: Rep, call, out_dir, status, records, golden):
    if status != 0:
        rep.fail(call.runs, f"{call.out}: drsim {call.command} returned {status}")
        return
    if tuple(r.key for r in records) != call.runs:
        rep.fail(call.runs, f"{call.out}: simulated {[r.key for r in records]}, "
                            f"expected {list(call.runs)}")
        return
    for r in records:
        if r.problems:
            rep.fail([r.key], f"{call.out} {r.key}: {r.problems}")
        if call.all_alive and r.summary.fnd < r.config.max_rounds:
            rep.fail([r.key], f"{call.out} {r.key}: first node death in round "
                              f"{r.summary.fnd}, before the cap "
                              f"{r.config.max_rounds} the workload assumes")
    if call.command == "run":
        problems = gate.check_run_files(out_dir, records[0].config)
    else:
        problems = gate.check_compare_files(
            out_dir, records[0].config, {r.key: r.summary for r in records})
    written = gate.digests(out_dir)
    rep.bytes_written += sum(os.path.getsize(os.path.join(out_dir, name))
                             for name in written)
    written = {f"{call.out}/{name}": digest for name, digest in written.items()}
    rep.digests.update(written)
    if golden is not None:
        expected = {k: v for k, v in golden.items() if k.startswith(call.out + "/")}
        problems += gate.check_digests(written, expected)
    for run, message in problems:
        rep.fail(call.runs if run is None else [run], f"{call.out}: {message}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "drsim": drsim.__version__,
        "git_commit": _git_commit(),
    }
