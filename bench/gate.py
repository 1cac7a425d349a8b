"""Output gate: checks that what drsim simulated and wrote is right.

For the seeds recorded in ``golden.json`` every written file must match its
sha256 exactly. For every seed, the in-memory series returned by
``sim.run`` and the files on disk must satisfy the model's invariants:
rounds numbered 1..k, alive counts never increasing, cumulative energy the
running sum of the per-round energy and at most N * E0, FND <= HND <= LND <=
max_rounds recomputed from the alive series, and total packets the sum of
the per-round packets.

A problem is ``(run, message)``, where ``run`` is the ``(protocol, seed)``
it concerns, or None when it concerns every run of the call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
RUN_HEADER = ["round", "alive", "ch_count", "packets_to_bs", "energy_spent",
              "cumulative_energy"]
EXPERIMENT_HEADER = ["protocol", "seed", "fnd", "hnd", "lnd", "total_packets"]
# Relative slack on N * E0 for float rounding in sums and in the 10-digit
# CSV rendering.
ENERGY_SLACK = 1e-9


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file under `out_dir`, keyed by relative path."""
    result = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            with open(path, "rb") as fh:
                result[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(result.items()))


def load_golden(workload: str, seed: int) -> dict[str, str] | None:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_digests(actual: dict[str, str], expected: dict[str, str]) -> list:
    problems = []
    for name in sorted(set(actual) | set(expected)):
        if actual.get(name) != expected.get(name):
            problems.append((None, f"{name}: sha256 {actual.get(name)} != "
                                   f"golden {expected.get(name)}"))
    return problems


def lifetimes(node_count: int, cap: int, alive: list[int]) -> tuple[int, int, int]:
    """FND, HND and LND by definition from the per-round alive counts."""
    fnd = next((r for r, a in enumerate(alive, 1) if a < node_count), cap)
    hnd = next((r for r, a in enumerate(alive, 1) if a <= node_count / 2), cap)
    lnd = next((r for r, a in enumerate(alive, 1) if a == 0), cap)
    return fnd, hnd, lnd


def _series_problems(node_count, cap, budget, rounds, alive, cumulative) -> list[str]:
    problems = []
    if not 1 <= len(rounds) <= cap:
        problems.append(f"{len(rounds)} rounds, cap {cap}")
    if rounds != list(range(1, len(rounds) + 1)):
        problems.append("rounds not numbered 1..k")
    if any(b > a for a, b in zip([node_count] + alive, alive)) or min(alive, default=0) < 0:
        problems.append("alive count increased or went negative")
    if any(b < a for a, b in zip([0.0] + cumulative, cumulative)):
        problems.append("cumulative energy decreased")
    if cumulative and cumulative[-1] > budget:
        problems.append(f"cumulative energy {cumulative[-1]} exceeds N*E0 {budget}")
    if len(rounds) < cap and alive and alive[-1] != 0:
        problems.append("run stopped before the cap with nodes alive")
    return problems


def check_series(config, series, summary) -> list[str]:
    """Invariants of one `sim.run` result, checked in memory."""
    n, cap = config.node_count, config.max_rounds
    budget = n * config.initial_energy * (1 + ENERGY_SLACK)
    alive = [m.alive for m in series]
    running, cumulative = 0.0, []
    for m in series:
        running += m.energy_spent
        cumulative.append(running)
    problems = _series_problems(n, cap, budget, [m.round for m in series],
                                alive, [m.cumulative_energy for m in series])
    if cumulative != [m.cumulative_energy for m in series]:
        problems.append("cumulative energy is not the running sum")
    if any(m.energy_spent < 0 for m in series):
        problems.append("negative energy spent")
    expected = (*lifetimes(n, cap, alive), sum(m.packets_to_bs for m in series))
    actual = (summary.fnd, summary.hnd, summary.lnd, summary.total_packets)
    if actual != expected:
        problems.append(f"summary (FND, HND, LND, packets) {actual} != {expected}")
    return problems


def _read_csv(path: str, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{os.path.basename(path)}: header {rows[:1]} != {header}")
    return rows[1:]


def check_run_files(out_dir: str, config) -> list:
    """run.csv and run_summary.txt of one `drsim run`."""
    n, cap = config.node_count, config.max_rounds
    budget = n * config.initial_energy * (1 + ENERGY_SLACK)
    try:
        rows = _read_csv(os.path.join(out_dir, "run.csv"), RUN_HEADER)
        rounds = [int(r[0]) for r in rows]
        alive = [int(r[1]) for r in rows]
        packets = sum(int(r[3]) for r in rows)
        cumulative = [float(r[5]) for r in rows]
        with open(os.path.join(out_dir, "run_summary.txt"), encoding="utf-8") as fh:
            summary = dict(line.split(": ", 1) for line in fh.read().splitlines())
    except (OSError, ValueError, IndexError) as exc:
        return [(None, f"unreadable output: {exc}")]
    problems = [(None, f"run.csv: {p}")
                for p in _series_problems(n, cap, budget, rounds, alive, cumulative)]
    fnd, hnd, lnd = lifetimes(n, cap, alive)
    expected = {
        "protocol": config.protocol.value,
        "seed": str(config.seed),
        "rounds simulated": str(len(rows)),
        "first node death (FND)": str(fnd),
        "half nodes dead (HND)": str(hnd),
        "last node death (LND)": str(lnd),
        "packets delivered to BS": str(packets),
    }
    if summary != expected:
        problems.append((None, f"run_summary.txt {summary} != {expected}"))
    return problems


def check_compare_files(out_dir: str, config, summaries: dict) -> list:
    """experiment.csv and compare_summary.txt of one `drsim compare`.

    `summaries` maps each (protocol, seed) run to the RunSummary that
    `sim.run` returned for it, in execution order.
    """
    try:
        rows = _read_csv(os.path.join(out_dir, "experiment.csv"), EXPERIMENT_HEADER)
        with open(os.path.join(out_dir, "compare_summary.txt"), encoding="utf-8") as fh:
            text = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        return [(None, f"unreadable output: {exc}")]
    problems = []
    runs = list(summaries)
    if [(r[0], int(r[1])) for r in rows] != runs:
        return [(None, "experiment.csv rows are not one per run in order")]
    for row, (key, s) in zip(rows, summaries.items()):
        values = [int(v) for v in row[2:]]
        if not values[0] <= values[1] <= values[2] <= config.max_rounds:
            problems.append((key, f"FND <= HND <= LND <= cap violated: {values}"))
        if values != [s.fnd, s.hnd, s.lnd, s.total_packets]:
            problems.append((key, f"experiment.csv row {values} != simulated {s}"))
    seeds = sorted({seed for _, seed in runs})
    expected = [f"runs per protocol: {len(seeds)} (seeds {seeds[0]}..{seeds[-1]})"]
    for protocol in dict.fromkeys(p for p, _ in runs):
        expected.append(f"{protocol}:")
        for i, name in enumerate(EXPERIMENT_HEADER[2:]):
            values = [int(r[2 + i]) for r in rows if r[0] == protocol]
            expected.append(f"  {name}: mean {statistics.fmean(values):.1f}, "
                            f"median {float(statistics.median(values)):.1f}")
    missing = [line for line in expected if line not in text]
    if missing:
        problems.append((None, f"compare_summary.txt lacks {missing}"))
    return problems
