"""Record the output gate's sha256 digests into bench/golden.json.

    python3 bench/record_golden.py

Runs every workload once at each seed in `GOLDEN_SEEDS` (the default
workload seed and one held out from tuning) and stores the digest of every
file it writes. Run it only when an output change is intended; the
benchmark fails any run at these seeds whose files differ.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import workloads
from run_bench import OUT, use_source_tree

GOLDEN_SEEDS = (1, 101)


def main() -> int:
    if not use_source_tree():
        print("record_golden: no drsim sources under src/", file=sys.stderr)
        return 2
    import gate
    import harness

    golden = {}
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in GOLDEN_SEEDS:
            work = tempfile.mkdtemp(prefix="golden-", dir=OUT)
            try:
                rep = harness.run_rep(workloads.calls(workload, seed), work, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if rep.failed:
                print(f"{workload} seed {seed}: {rep.problems}", file=sys.stderr)
                return 1
            golden.setdefault(workload, {})[str(seed)] = rep.digests
            print(f"{workload} seed {seed}: {len(rep.digests)} files")
    gate.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
