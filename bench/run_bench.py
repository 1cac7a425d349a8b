"""drsim benchmark: one workload, one seed, host-time metrics.

    python3 bench/run_bench.py --workload lifetime --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout, importing drsim from ``src/``,
in one process with one thread. The workload's calls go through the public
CLI entry point (``drsim.cli.main``), which calls ``sim.experiment`` and
``sim.run``; every call's outputs pass the output gate (``gate.py``).

``--trace 0`` repeats the workload until its repetitions have used up
``--seconds`` (at least ``MIN_REPS`` times, so that every run is repeated) and reports the
end-to-end metrics of ``BENCHMARK.json`` from the totals over all
repetitions, with only a per-run timer around ``sim.run`` installed.
``setup_s`` is the median over fresh interpreters, ``SETUP_PER_REP`` of
them before each repetition so that they spread over the whole run, each
timing ``import drsim``, ``config.parse_config`` and ``sim.make_state`` for
every run of the workload.

Every end-to-end time is host CPU time of the process, not elapsed time:
on a shared VM the hypervisor takes the vCPU away for stretches of tens to
hundreds of milliseconds, which elapsed time counts and CPU time does not.
The drsim calls never wait, so on an idle host the two agree. Each time is
normalised to a reference host speed (``speed.py``): a shared host's speed
can drift by up to 2x in phases of seconds to minutes, so each timed part
is divided by the speed measured right around it. The simulation is timed
against interpreted reference work, and set-up, which is mostly loading
numpy's and drsim's modules, against a fresh interpreter importing numpy
and standard-library modules. The record written beside the result keeps
the raw host times (``host_seconds``) and the measured speeds
(``host_speed`` and ``import_speed``, 1 = nominal). Per-layer span times
are raw elapsed host time.

``--trace 1`` runs the workload three times, once untraced, once with the
timed tracer and once with the counting tracer (``spans.py``), ignores
``--seconds``, and reports the per-layer metrics. Its spans and counts are
written to ``bench/out/``.

Simulated statistics must repeat exactly across repetitions, and traced
call counts across the two traced runs; any drift fails the runs.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_REPS = 2
SETUP_PER_REP = 3
SETUP_TIMEOUT_S = 120

# Runs in a fresh interpreter: argv[1] is src/, argv[2] the JSON list of
# per-run overrides. Prints the CPU seconds from before `import drsim` until
# every run's initial state exists.
SETUP_CHILD = """\
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import json
import drsim
from drsim import config, sim
for overrides in json.loads(sys.argv[2]):
    sim.make_state(config.parse_config(None, overrides))
print(time.process_time() - start)
"""


def use_source_tree() -> bool:
    """Put the checkout's src/ first on the import path, if it holds drsim."""
    src = ROOT / "src"
    if not (src / "drsim" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be non-negative")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be positive")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=seed, default=1)
    parser.add_argument("--seconds", type=seconds, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def measure_setup(calls) -> list[tuple[float, float]]:
    """(host CPU seconds, import reference) for each of `SETUP_PER_REP` fresh
    interpreters; the reference is the mean of the import samples taken
    right before and after it."""
    runs = [o for call in calls for o in call.run_overrides()]
    argv = [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), json.dumps(runs)]
    samples = []
    before = speed.import_sample()
    for _ in range(SETUP_PER_REP):
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        after = speed.import_sample()
        samples.append((float(done.stdout.split()[-1]), (before + after) / 2))
        before = after
    return samples


def check_repeat(reps) -> None:
    """Fail every run of a repetition whose simulated statistics or output
    digests differ from the first repetition's."""
    first = reps[0].signature()
    for i, rep in enumerate(reps[1:], start=2):
        if rep.signature() != first:
            rep.fail([r.key for r in rep.records],
                     f"repetition {i}: simulated statistics or outputs drifted "
                     "from repetition 1")


def end_to_end(calls, work, golden, seconds) -> tuple[dict, list, dict]:
    import harness

    setup, reps = [], []
    used = 0.0
    while True:
        setup += measure_setup(calls)
        start = time.perf_counter()
        reps.append(harness.run_rep(calls, work, golden))
        used += time.perf_counter() - start
        if len(reps) >= MIN_REPS and used * (len(reps) + 1) / len(reps) > seconds:
            break
    check_repeat(reps)

    wall = sum(r.normalised_wall_s for r in reps)
    values = {
        "wall_s": wall / len(reps),
        "node_rounds_per_s": sum(r.node_rounds for r in reps) / wall,
        "setup_s": statistics.median(
            speed.normalise(s, ref, speed.NOMINAL_IMPORT_S) for s, ref in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"wall_s": sum(r.wall_s for r in reps) / len(reps),
           "setup_s": statistics.median(s for s, _ in setup)}
    for protocol in workloads.PROTOCOLS:
        for normalised, into in ((True, values), (False, raw)):
            totals = [r.protocol_totals(protocol, normalised) for r in reps]
            into[f"ms_per_round.{protocol}"] = (
                1000 * sum(s for s, _ in totals) / sum(n for _, n in totals))
    references = [x for r in reps for x in r.references]
    detail = {"host_seconds": raw,
              "host_speed": speed.NOMINAL_S / statistics.fmean(references),
              "import_speed": speed.NOMINAL_IMPORT_S / statistics.fmean(
                  ref for _, ref in setup),
              "setup_samples": setup,
              "rep_wall_s": [r.wall_s for r in reps],
              "reference_samples_s": references,
              "runs": [[*r.key, r.rounds, r.seconds, r.reference_s]
                       for rep in reps for r in rep.records]}
    return values, reps, detail


def _per(a, b):
    return a / b if b else 0.0


def per_layer(calls, work, golden) -> tuple[dict, list, dict]:
    import harness
    from spans import Tracer

    untraced = harness.run_rep(calls, work, golden)
    with Tracer(timed=True) as tt:
        timed = harness.run_rep(calls, work, golden, tracer=tt)
    with Tracer(timed=False) as ct:
        counted = harness.run_rep(calls, work, golden)
    reps = [untraced, timed, counted]
    check_repeat(reps)
    drift = {name: (n, ct.calls(name)) for name, n in tt.counts().items()
             if name in ct.stats and n != ct.calls(name)}
    if drift:
        timed.fail([r.key for r in timed.records],
                   f"traced call counts differ between the traced runs: {drift}")

    rounds = {p: timed.protocol_totals(p)[1] for p in workloads.PROTOCOLS}
    total_rounds = sum(rounds.values())
    plans = {"dr": "protocols.dr_build_plan", "leach": "protocols.leach_build_plan",
             "leach-c": "protocols.leach_c_build_plan"}
    radio = ("radio.tx_energy", "radio.rx_energy", "radio.agg_energy")
    values = {
        "config.parse_s": tt.total("config.parse_config"),
        "geometry.build_partition_s": tt.total("geometry.build_partition"),
        "geometry.locate_calls": ct.calls("geometry.locate"),
        "geometry.locate_s": tt.total("geometry.locate"),
        "geometry.distance_calls_per_round":
            _per(ct.calls("geometry.Point.distance_to"), total_rounds),
        "geometry.region_query_calls_per_round": _per(
            ct.calls("geometry.FieldPartition.region")
            + ct.calls("geometry.cr_neighbor_ncrs")
            + ct.calls("geometry.inward_adjacent_ncr"), total_rounds),
        "protocols.dr_select_us":
            1e6 * _per(tt.total("protocols.dr_select_chs"),
                       tt.calls("protocols.dr_select_chs")),
        "protocols.plans": ct.calls("sim.build_plan"),
        "radio.tx_calls_per_round": _per(ct.calls("radio.tx_energy"), total_rounds),
        "radio.rx_agg_calls_per_round": _per(
            ct.calls("radio.rx_energy") + ct.calls("radio.agg_energy"), total_rounds),
        "radio.self_s": sum(tt.self_time(name) for name in radio),
        "sim.account_us": 1e6 * _per(tt.self_time("sim.run_round"),
                                     tt.calls("sim.run_round")),
        "sim.loop_self_us_per_round": 1e6 * _per(tt.self_time("sim.run"), total_rounds),
        "sim.make_state_s": tt.total("sim.make_state"),
        "sim.summarize_s": tt.total("sim.summarize"),
        "sim.runs": len(timed.records),
        "sim.rounds": total_rounds,
        "sim.node_rounds": timed.node_rounds,
        "cli.format_write_s": sum(tt.self_time(name) for name in tt.stats
                                  if name.startswith("cli.cmd_")),
        "cli.bytes_written": timed.bytes_written,
        "trace.overhead_s": timed.wall_s - untraced.wall_s,
    }
    for protocol, name in plans.items():
        values[f"protocols.plan_us.{protocol}"] = 1e6 * _per(
            tt.self_time(name), tt.calls(name))
        values[f"protocols.ch_per_round.{protocol}"] = _per(
            sum(r.ch_total for r in timed.records if r.key[0] == protocol),
            rounds[protocol])
    detail = {"rep_wall_s": [r.wall_s for r in reps],
              "timed": {k: {"calls": s[0], "total_s": s[1], "self_s": s[1] - s[2]}
                        for k, s in sorted(tt.stats.items())},
              "counts": dict(sorted(ct.counts().items())),
              "spans": tt.spans}
    return values, reps, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_source_tree():
        print(f"run_bench: no drsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    import gate

    calls = workloads.calls(args.workload, args.seed)
    golden = gate.load_golden(args.workload, args.seed)
    kind = "per_layer" if args.trace else "end_to_end"
    units = metric_units(kind)
    OUT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            values, reps, detail = per_layer(calls, work, golden)
        else:
            values, reps, detail = end_to_end(calls, work, golden, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not "
                           f"match BENCHMARK.json {kind}")

    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failed) for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    record = {
        "environment": harness.environment(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "lifetime_seed_count": workloads.LIFETIME_SEEDS,
        "simulated_seeds": sorted({s for c in calls for _, s in c.runs}),
        "calls": [c.argv("<out>") for c in calls],
        "repetitions": len(reps),
        "failed_frac": failed / attempted,
        "problems": [p for r in reps for p in r.problems][:50],
        **detail,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}) + "\n")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"failed {failed}/{attempted}, record in {OUT / (stem + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
