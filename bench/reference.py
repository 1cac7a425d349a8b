"""One-off reference timing of the full `drsim compare --set runs=50`.

    python3 bench/reference.py

Not one of the benchmark's gated workloads: it runs the 50-seed, 3-protocol
experiment once through `drsim.cli.main`, with the same `sim.run` probe and
output checks as the benchmark, and writes the host times, the
environment and the digest of every output to bench/out/reference.json.
It takes a few minutes; a copy of one such record is kept in
bench/reference_baseline.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import workloads
from run_bench import OUT, use_source_tree


def main() -> int:
    if not use_source_tree():
        print("reference: no drsim sources under src/", file=sys.stderr)
        return 2
    import harness

    call = workloads.compare_call(1, 50)
    OUT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=OUT)
    try:
        rep = harness.run_rep([call], work, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "environment": harness.environment(),
        "command": ["drsim", *call.argv("<out>")],
        "wall_s": rep.wall_s,
        "sim_run_s": {p: rep.protocol_totals(p)[0] for p in workloads.PROTOCOLS},
        "ms_per_round": {p: 1000 * s / n for p in workloads.PROTOCOLS
                         for s, n in [rep.protocol_totals(p)]},
        "rounds": {p: rep.protocol_totals(p)[1] for p in workloads.PROTOCOLS},
        "node_rounds": rep.node_rounds,
        "failed": len(rep.failed),
        "problems": rep.problems,
        "digests": rep.digests,
    }
    (OUT / "reference.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
